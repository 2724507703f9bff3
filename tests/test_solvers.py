"""Gauss-Newton solvers: WLS step kernel, recovery, delegation, limits."""

import dataclasses

import numpy as np
import pytest

from seqloc import (
    BsConstellation,
    DimensionMismatch,
    Diverged,
    FullParams,
    KvdParams,
    RankDeficient,
    SolverConfig,
    VelocityPrior,
    WeightModel,
    analysis,
    build_design_pvd,
    residual,
    solve_drift_only,
    solve_joint_velocity,
    solve_known_velocity,
    solve_prior_velocity,
    synthesize_batch,
    trial_rng,
    wls_step,
)
from seqloc.experiments import default_scenario
from seqloc.solvers import _OVERFLOWED_START

from conftest import (DRIFT_MPS, canonical_batch, make_batch, random_geometry,
                      stack_covariance)


class TestWlsStep:
    def test_identity_system(self):
        r = np.array([1.0, -2.0, 3.0])
        assert np.allclose(wls_step(np.eye(3), np.eye(3), r), r)

    def test_unweighted_mean(self):
        g = np.array([[1.0], [1.0]])
        step = wls_step(g, np.eye(2), np.array([1.0, 3.0]))
        assert step == pytest.approx([2.0])

    def test_weighted_mean(self):
        g = np.array([[1.0], [1.0]])
        w = np.diag([1.0, 3.0])
        step = wls_step(g, w, np.array([0.0, 4.0]))
        assert step == pytest.approx([3.0])

    def test_underdetermined_raises(self):
        with pytest.raises(RankDeficient):
            wls_step(np.ones((2, 3)), np.eye(2), np.zeros(2))

    def test_singular_raises(self):
        g = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(RankDeficient):
            wls_step(g, np.eye(3), np.zeros(3))

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            g = rng.normal(size=(9, 4))
            w = np.diag(rng.uniform(0.5, 4.0, 9))
            r = rng.normal(size=9)
            direct = np.linalg.solve(g.T @ w @ g, g.T @ w @ r)
            assert np.allclose(wls_step(g, w, r), direct, rtol=1e-9)


class TestNoiseFreeRecovery:
    def test_known_velocity(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        init = KvdParams(p=[12.0, 18.0], b=25.0, d=0.0)
        report = solve_known_velocity(batch, bs_square, moving_truth.v,
                                      init=init)
        assert report.converged
        assert report.iterations <= 10
        assert np.linalg.norm(report.params.p - moving_truth.p) < 1e-6

    def test_joint_velocity(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        report = solve_joint_velocity(batch, bs_square)
        assert report.converged
        assert np.linalg.norm(report.params.p - moving_truth.p) < 1e-6
        assert np.linalg.norm(report.params.v - moving_truth.v) < 1e-6

    def test_prior_velocity(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        prior = VelocityPrior.isotropic(moving_truth.v, 2.0)
        report = solve_prior_velocity(batch, bs_square, prior)
        assert report.converged
        assert np.linalg.norm(report.params.p - moving_truth.p) < 1e-6

    def test_basin_random_inits(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        rng = np.random.default_rng(21)
        for _ in range(25):
            offset = rng.uniform(-1, 1, 2)
            offset *= rng.uniform(0, 5) / max(np.linalg.norm(offset), 1e-9)
            init = KvdParams(p=moving_truth.p + offset,
                             b=moving_truth.b + rng.uniform(-5, 5), d=0.0)
            report = solve_known_velocity(batch, bs_square, moving_truth.v,
                                          init=init)
            assert report.converged and report.iterations <= 10
            assert np.linalg.norm(report.params.p - moving_truth.p) < 1e-6


class TestPreconditions:
    def test_kvd_needs_n_plus_two(self, bs_square, stationary_truth):
        batch = canonical_batch(bs_square, stationary_truth, m=3)
        with pytest.raises(RankDeficient):
            solve_known_velocity(batch, bs_square, [0, 0])

    def test_uvd_needs_two_n_plus_two(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth, m=5)
        with pytest.raises(RankDeficient):
            solve_joint_velocity(batch, bs_square)

    def test_identical_dt_is_rank_deficient(self, bs_square):
        # offset and drift columns collapse when every dt is equal
        batch = make_batch(np.arange(4), np.full(4, 0.03), t_l=0.03,
                           rho=np.full(4, 20.0))
        with pytest.raises(RankDeficient):
            solve_known_velocity(batch, bs_square, [0, 0])

    def test_collinear_bs_rank_deficient(self):
        # three BSs on a line with the UD on the same line
        bs = BsConstellation([[0, 0], [10, 0], [20, 0]])
        truth = FullParams(p=[5.0, 0.0], b=30.0, d=DRIFT_MPS, v=[0, 0])
        batch = canonical_batch(bs, truth, m=6)
        init = FullParams(p=[5.0, 0.0], b=30.0, d=0.0, v=[0, 0])
        with pytest.raises(RankDeficient):
            solve_joint_velocity(batch, bs, init=init)

    def test_bad_known_velocity_rejected(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        for v in ([np.nan, 0.0], [np.inf, 0.0], [1.0, 0.0, 0.0]):
            with pytest.raises(DimensionMismatch):
                solve_known_velocity(batch, bs_square, v)

    def test_bs_index_out_of_range_rejected(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        bad = make_batch(np.where(np.arange(batch.m) == 2, 7, batch.bs_index),
                         batch.t, rho=np.asarray(batch.rho))
        prior = VelocityPrior.isotropic(moving_truth.v, 2.0)
        for solve in (lambda: solve_known_velocity(bad, bs_square, [0, 0]),
                      lambda: solve_joint_velocity(bad, bs_square),
                      lambda: solve_prior_velocity(bad, bs_square, prior),
                      lambda: solve_drift_only(bad, bs_square)):
            with pytest.raises(DimensionMismatch):
                solve()

    def test_divergence_guard(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        init = KvdParams(p=[12.0, 18.0], b=0.0, d=0.0)
        cfg = SolverConfig(max_iter=20, threshold=1e-9,
                           divergence_guard=1e-6)
        with pytest.raises(Diverged):
            solve_known_velocity(batch, bs_square, moving_truth.v,
                                 init=init, cfg=cfg)


class TestDriftOnlyDelegation:
    def test_bitwise_equal_to_zero_velocity(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        rng = np.random.default_rng(5)
        noisy = make_batch(batch.bs_index, batch.t, t_l=batch.t_l,
                           rho=np.asarray(batch.rho)
                           + 0.1 * rng.standard_normal(batch.m))
        a = solve_drift_only(noisy, bs_square)
        b = solve_known_velocity(noisy, bs_square, np.zeros(2))
        assert np.array_equal(a.params.p, b.params.p)
        assert a.params.b == b.params.b and a.params.d == b.params.d
        assert a.iterations == b.iterations

    def test_moving_truth_biases_drift_only(self, bs_square, moving_truth):
        rng = np.random.default_rng(17)
        err_d, err_k = [], []
        for _ in range(200):
            batch = canonical_batch(bs_square, moving_truth)
            noisy = make_batch(batch.bs_index, batch.t, t_l=batch.t_l,
                               rho=np.asarray(batch.rho)
                               + 0.1 * rng.standard_normal(batch.m))
            err_d.append(np.linalg.norm(
                solve_drift_only(noisy, bs_square).params.p - moving_truth.p))
            err_k.append(np.linalg.norm(
                solve_known_velocity(noisy, bs_square, moving_truth.v)
                .params.p - moving_truth.p))
        rmse_d = np.sqrt(np.mean(np.square(err_d)))
        rmse_k = np.sqrt(np.mean(np.square(err_k)))
        assert rmse_d > rmse_k


class TestPriorLimits:
    def test_near_delta_matches_known_velocity(self, bs_square, moving_truth):
        rng = np.random.default_rng(23)
        for _ in range(10):
            batch = canonical_batch(bs_square, moving_truth)
            noisy = make_batch(batch.bs_index, batch.t, t_l=batch.t_l,
                               rho=np.asarray(batch.rho)
                               + 0.1 * rng.standard_normal(batch.m))
            prior = VelocityPrior(moving_truth.v, 1e-12 * np.eye(2))
            map_report = solve_prior_velocity(noisy, bs_square, prior)
            kvd_report = solve_known_velocity(noisy, bs_square,
                                              moving_truth.v)
            assert np.linalg.norm(map_report.params.p
                                  - kvd_report.params.p) < 1e-6

    def test_near_flat_matches_joint(self, bs_square, moving_truth):
        rng = np.random.default_rng(29)
        for _ in range(10):
            batch = canonical_batch(bs_square, moving_truth)
            noisy = make_batch(batch.bs_index, batch.t, t_l=batch.t_l,
                               rho=np.asarray(batch.rho)
                               + 0.1 * rng.standard_normal(batch.m))
            prior = VelocityPrior(moving_truth.v, 1e12 * np.eye(2))
            map_report = solve_prior_velocity(noisy, bs_square, prior)
            uvd_report = solve_joint_velocity(noisy, bs_square)
            assert np.linalg.norm(map_report.params.p
                                  - uvd_report.params.p) < 1e-6


class TestReports:
    def test_determinism(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        first = solve_joint_velocity(batch, bs_square)
        second = solve_joint_velocity(batch, bs_square)
        assert np.array_equal(first.params.as_vector(),
                              second.params.as_vector())
        assert np.array_equal(first.covariance, second.covariance)

    def test_converged_step_below_threshold(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        cfg = SolverConfig()
        report = solve_known_velocity(batch, bs_square, moving_truth.v,
                                      cfg=cfg)
        assert report.converged
        assert report.final_step_norm < cfg.threshold

    def test_max_iter_reached_flags_not_converged(self, bs_square,
                                                  moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        init = KvdParams(p=[12.0, 18.0], b=0.0, d=0.0)
        cfg = SolverConfig(max_iter=1, threshold=1e-12)
        report = solve_known_velocity(batch, bs_square, moving_truth.v,
                                      init=init, cfg=cfg)
        assert not report.converged
        assert report.iterations == 1

    def test_covariance_matches_analysis(self, bs_square, moving_truth):
        rng = np.random.default_rng(31)
        batch = canonical_batch(bs_square, moving_truth)
        noisy = make_batch(batch.bs_index, batch.t, t_l=batch.t_l,
                           rho=np.asarray(batch.rho)
                           + 0.1 * rng.standard_normal(batch.m))

        kvd = solve_known_velocity(noisy, bs_square, moving_truth.v)
        at = FullParams(kvd.params.p, kvd.params.b, kvd.params.d,
                        moving_truth.v)
        expected = np.linalg.inv(
            analysis.fim(noisy, bs_square, at, "kvd"))
        assert np.allclose(kvd.covariance, expected, rtol=1e-10, atol=0)

        prior = VelocityPrior.isotropic(moving_truth.v, 2.0)
        pvd = solve_prior_velocity(noisy, bs_square, prior)
        expected = np.linalg.inv(
            analysis.fim(noisy, bs_square, pvd.params, "pvd",
                         prior=prior))
        assert np.allclose(pvd.covariance, expected, rtol=1e-10, atol=0)

    def test_covariance_positive_definite(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        report = solve_joint_velocity(batch, bs_square)
        eigs = np.linalg.eigvalsh(0.5 * (report.covariance
                                         + report.covariance.T))
        assert np.all(eigs > 0)


class TestCorrelatedPrior:
    def test_map_stationary_and_covariance_match_dense_weights(self):
        # A non-diagonal prior covariance exercises the Cholesky whitening
        # of the prior rows; the dense W_full of WeightModel is the
        # reference for the MAP gradient and the covariance.
        rng = np.random.default_rng(43)
        for _ in range(25):
            bs, truth = random_geometry(rng, min_range=3.0)
            clean = canonical_batch(bs, truth)
            noisy = make_batch(clean.bs_index, clean.t, t_l=clean.t_l,
                               rho=np.asarray(clean.rho)
                               + 0.1 * rng.standard_normal(clean.m))
            root = rng.normal(size=(2, 2))
            cov = root @ root.T + 0.25 * np.eye(2)
            prior = VelocityPrior(truth.v + rng.normal(size=2), cov)
            report = solve_prior_velocity(noisy, bs, prior,
                                          cfg=SolverConfig(threshold=1e-8))
            assert report.converged

            g = build_design_pvd(noisy, bs, report.params)
            w = WeightModel.from_batch(noisy).w_full(prior)
            r = residual(noisy, bs, report.params, prior=prior)
            normal = g.T @ w @ g
            grad = g.T @ w @ r
            assert np.linalg.norm(np.linalg.solve(normal, grad)) < 1e-8
            expected = np.linalg.inv(normal)
            assert (np.linalg.norm(report.covariance - expected)
                    < 1e-10 * np.linalg.norm(expected))


def _report_bits(report):
    """The bits of every field of an EstimateReport."""
    return (report.params.as_vector().tobytes(), report.iterations,
            report.converged, report.covariance.tobytes(),
            float(report.final_step_norm).hex())


def _fresh(batch):
    """A copy of ``batch`` that no solve has seen."""
    return dataclasses.replace(batch)


def _four_solves(bs, truth, init=False):
    """The four public solves of a batch against ``bs``, by estimator, from
    the default start or from a start off the truth."""
    kvd_init = full_init = None
    if init:
        kvd_init = KvdParams(p=truth.p + 1.0, b=truth.b - 2.0, d=0.0)
        full_init = FullParams(p=kvd_init.p, b=kvd_init.b, d=0.0,
                               v=truth.v + 0.5)
    prior = VelocityPrior.isotropic(truth.v, 2.0)
    return {
        "kvd": lambda b: solve_known_velocity(b, bs, truth.v, kvd_init),
        "pvd": lambda b: solve_prior_velocity(b, bs, prior, full_init),
        "uvd": lambda b: solve_joint_velocity(b, bs, full_init),
        "d": lambda b: solve_drift_only(b, bs, kvd_init),
    }


class TestSharedWindowSetUp:
    """The solves of one batch share its window set-up: a solve that finds
    it kept on the batch gives the bits of one that makes it."""

    @pytest.mark.parametrize("init", [False, True], ids=["start", "init"])
    @pytest.mark.parametrize("order", [1, -1], ids=["forward", "reverse"])
    @pytest.mark.parametrize("name", ["circular", "speed-sweep"])
    def test_hit_and_miss_give_the_same_bits(self, name, order, init):
        cfg = default_scenario(name, seed=5)
        for k in range(0, 40, 8):
            rng = trial_rng(cfg.seed, k)
            if name == "circular":
                batch, truth = synthesize_batch(cfg, k, rng)
            else:  # a random placement, drawn per trial
                batch, truth = synthesize_batch(
                    cfg, 0, rng, trajectory=cfg.trajectory.realize(rng))
            solves = _four_solves(cfg.bs, truth, init)
            for kind in list(solves)[::order]:
                report = solves[kind](batch)
                assert report.converged
                assert (_report_bits(report)
                        == _report_bits(solves[kind](_fresh(batch)))), kind

    def test_a_second_constellation(self):
        """Equal positions in another constellation, or moved ones: each
        switch makes the set-up again, to the bits of a fresh batch."""
        cfg = default_scenario("circular", seed=5)
        equal = BsConstellation(cfg.bs.positions.copy())
        moved = BsConstellation(cfg.bs.positions + 1.0)
        batch, truth = synthesize_batch(cfg, 3, trial_rng(cfg.seed, 3))
        for bs in (cfg.bs, equal, cfg.bs, moved, equal):
            solves = _four_solves(bs, truth)
            expected = {kind: _report_bits(solve(_fresh(batch)))
                        for kind, solve in solves.items()}
            for kind, solve in solves.items():
                assert _report_bits(solve(batch)) == expected[kind], kind

    def test_bs_index_out_of_range_keeps_nothing(self, bs_square,
                                                 moving_truth):
        good = canonical_batch(bs_square, moving_truth)
        bad = make_batch(np.where(np.arange(good.m) == 2, 7, good.bs_index),
                         good.t, rho=np.asarray(good.rho))
        fields = set(bad.__dict__)
        for _ in range(2):
            for solve in _four_solves(bs_square, moving_truth).values():
                with pytest.raises(DimensionMismatch, match="out of range"):
                    solve(bad)
        assert set(bad.__dict__) == fields

    def test_overflowing_start_fails_every_call(self, bs_square,
                                                moving_truth):
        batch = make_batch(np.arange(8) % 4, 0.01 * np.arange(8),
                           rho=np.full(8, 1e308))
        for _ in range(2):
            for kind, solve in _four_solves(bs_square, moving_truth).items():
                with pytest.raises(DimensionMismatch) as caught:
                    solve(batch)
                assert str(caught.value) == _OVERFLOWED_START, kind


class TestSolveStack:
    def test_failures_stay_in_their_window(self, bs_square, moving_truth):
        from seqloc.errors import DegenerateGeometry
        from seqloc.model import WhitenedSystem
        from seqloc.solvers import initial_vectors, solve_stack

        good = canonical_batch(bs_square, moving_truth)
        # equal dt collapses the offset and drift columns
        flat = make_batch(np.arange(8) % 4, np.full(8, 0.03), t_l=0.03,
                          rho=np.full(8, 20.0))
        batches = (good, flat, good)
        v = [moving_truth.v] * 3
        system = WhitenedSystem.of(batches, bs_square, v_known=v)
        bs_index = np.stack([b.bs_index for b in batches])
        inits = [KvdParams.from_vector(start) for start in
                 initial_vectors(bs_square, bs_index, system.rho)]
        # the third window starts on BS 0, where its first row has dt = 0
        inits[2] = KvdParams(p=bs_square.positions[0], b=30.0, d=0.0)
        sol = solve_stack(system, np.stack([i.as_vector() for i in inits]))
        assert sol.failures[0] is None
        assert isinstance(sol.failures[1], RankDeficient)
        assert isinstance(sol.failures[2], DegenerateGeometry)
        for batch, init, failure in zip(batches[1:], inits[1:],
                                        sol.failures[1:]):
            with pytest.raises(type(failure)):
                solve_known_velocity(batch, bs_square, moving_truth.v,
                                     init=init)
        alone = solve_known_velocity(good, bs_square, moving_truth.v)
        assert np.array_equal(sol.theta[0], alone.params.as_vector())
        assert sol.iterations[0] == alone.iterations
        assert sol.converged[0] == alone.converged
        assert sol.step_norm[0] == alone.final_step_norm
        assert np.array_equal(stack_covariance(system, sol)[0],
                              alone.covariance)

    def test_covariance_beyond_float64_fails_only_its_window(
            self, bs_square, moving_truth):
        """At a noise level of 1e-160 m the largest singular value of a
        window's design squares to inf, so its covariance would read 0:
        the rank rule fails it at its first iteration, as its error
        theory does, and the other windows keep their bits (also beside
        a window that failed in the loop)."""
        from seqloc.model import WhitenedSystem
        from seqloc.solvers import _INDEFINITE, initial_vectors, solve_stack

        good = canonical_batch(bs_square, moving_truth)
        tiny = canonical_batch(bs_square, moving_truth, sigma=1e-160)
        flat = make_batch(np.arange(8) % 4, np.full(8, 0.03), t_l=0.03,
                          rho=np.full(8, 20.0))
        alone = solve_joint_velocity(good, bs_square)
        for batches in ((good, tiny, good), (good, tiny, flat, good)):
            system = WhitenedSystem.of(batches, bs_square)
            bs_index = np.stack([b.bs_index for b in batches])
            sol = solve_stack(system, initial_vectors(
                bs_square, bs_index, system.rho, system.v_start))
            assert isinstance(sol.failures[1], RankDeficient)
            assert str(sol.failures[1]) == _INDEFINITE
            covariance = stack_covariance(system, sol)
            assert not sol.converged[1] and np.isnan(covariance[1]).all()
            for k in (0, len(batches) - 1):
                assert sol.failures[k] is None and sol.converged[k]
                assert np.array_equal(covariance[k], alone.covariance)
        prior = VelocityPrior.isotropic(moving_truth.v, 2.0)
        for solve in (lambda: solve_known_velocity(tiny, bs_square,
                                                   moving_truth.v),
                      lambda: solve_joint_velocity(tiny, bs_square),
                      lambda: solve_prior_velocity(tiny, bs_square, prior),
                      lambda: solve_drift_only(tiny, bs_square)):
            with pytest.raises(RankDeficient, match=_INDEFINITE):
                solve()


class TestOverflowedWindows:
    """Windows whose whitened system overflows float64 fail with
    DimensionMismatch, without a warning and without taking their stack
    down (an SVD of a design holding inf may never return)."""

    def test_overflowed_displacement_fails_only_its_window(
            self, bs_square, moving_truth):
        from seqloc.model import WhitenedSystem
        from seqloc.solvers import initial_vectors, solve_stack

        # two seconds per slot: 1.7e308 m/s displaces the UD beyond float64
        batch = canonical_batch(bs_square, moving_truth, slot=2.0)
        v = [moving_truth.v, [1.7e308, 0.0], moving_truth.v]
        system = WhitenedSystem.of([batch] * 3, bs_square, v_known=v)
        start = initial_vectors(bs_square, batch.bs_index[None],
                                batch.rho[None])[0]
        sol = solve_stack(system, np.stack([start] * 3))
        assert isinstance(sol.failures[1], DimensionMismatch)
        assert "overflows" in str(sol.failures[1])
        assert sol.failures[0] is None and sol.failures[2] is None
        alone = solve_known_velocity(batch, bs_square, moving_truth.v)
        covariance = stack_covariance(system, sol)
        for k in (0, 2):
            assert np.array_equal(sol.theta[k], alone.params.as_vector())
            assert np.array_equal(covariance[k], alone.covariance)
        with pytest.raises(DimensionMismatch, match="overflows"):
            solve_known_velocity(batch, bs_square, v[1])

    def test_whitened_times_that_overflow_rejected(self, bs_square):
        times = [0.0, 1e308, 2e307, 3e307, 4e307, 5e307, 6e307, 7e307]
        batch = make_batch(np.arange(8) % 4, times, rho=np.full(8, 20.0))
        for solve in (solve_joint_velocity, solve_drift_only):
            with pytest.raises(DimensionMismatch, match="overflows"):
                solve(batch, bs_square)

    def test_times_whose_offset_from_the_epoch_overflows_rejected(self):
        with pytest.raises(DimensionMismatch, match="epoch must be finite"):
            make_batch([0, 1, 2, 3], [1.7e308, -1.7e308, 0.0, 1.0],
                       t_l=1.7e308)

    @pytest.mark.parametrize("variant, bad", [
        ("kvd", "times"), ("uvd", "times"), ("pvd", "times"),
        ("kvd", "inf-velocity"), ("kvd", "nan-velocity")])
    def test_one_bad_window_fails_alone_in_solve_and_theory(
            self, capfd, bs_square, moving_truth, variant, bad):
        """One window's numbers fail that window alone, in the solve and
        in the theory: whitened times that overflow (sigma 1e-160 m, times
        1e150 s from the epoch) or a known velocity that is not finite.
        The other windows keep the bits of their single-window solves and
        budgets, and nothing is warned or printed."""
        import warnings

        from seqloc.model import WhitenedSystem, WindowStack, prior_rows
        from seqloc.solvers import initial_vectors, solve_stack

        good = canonical_batch(bs_square, moving_truth)
        batches = [good] * 3
        v = np.array([moving_truth.v] * 3)
        if bad == "times":
            batches[1] = make_batch(np.arange(8) % 4, 1e150 * np.arange(8),
                                    rho=np.full(8, 20.0), sigma=1e-160)
        else:
            v[1] = [np.inf if bad == "inf-velocity" else np.nan, 0.0]
        prior = VelocityPrior.isotropic(moving_truth.v, 2.0)
        truth = np.stack([moving_truth.as_vector()] * 3)
        truth[:, 4:] = v
        win = WindowStack.of(batches)
        priors = prior_rows([prior] * 3, 2) if variant == "pvd" else None
        alone = {"kvd": lambda: solve_known_velocity(good, bs_square,
                                                     moving_truth.v),
                 "uvd": lambda: solve_joint_velocity(good, bs_square),
                 "pvd": lambda: solve_prior_velocity(good, bs_square,
                                                     prior)}[variant]()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            system = WhitenedSystem(bs_square, win, v if variant == "kvd"
                                    else None, priors)
            sol = solve_stack(system, initial_vectors(
                bs_square, win.bs_index, win.rho, system.v_start))
            budgets = analysis.theoretical_rmse_stack(variant, win,
                                                      bs_square, truth,
                                                      priors)
            projectors = analysis.kvd_projectors(win, bs_square, truth)
        assert caught == [] and capfd.readouterr() == ("", "")
        assert isinstance(sol.failures[1], DimensionMismatch)
        assert str(sol.failures[1]).startswith(
            "the whitened design overflows")
        covariance = stack_covariance(system, sol)
        assert not sol.converged[1] and np.isnan(covariance[1]).all()
        for k in (0, 2):
            assert sol.failures[k] is None and sol.converged[k]
            assert np.array_equal(sol.theta[k], alone.params.as_vector())
            assert sol.iterations[k] == alone.iterations
            assert sol.step_norm[k] == alone.final_step_norm
            assert np.array_equal(covariance[k], alone.covariance)
        theory = analysis.theoretical_rmse(
            variant, good, bs_square, moving_truth,
            prior if variant == "pvd" else None)
        one = WindowStack.of([good])
        single = analysis.kvd_projectors(one, bs_square, truth[:1])
        for stack, fields, reference in (
                (budgets, ("variance", "rmse"), theory),
                (projectors, ("projector", "inverse"), None)):
            assert isinstance(stack.failures[1], DimensionMismatch)
            assert [stack.failures[0], stack.failures[2]] == [None, None]
            for name in fields:
                column = getattr(stack, name)
                assert np.isnan(column[1]).all()
                expected = (getattr(single, name)[0] if reference is None
                            else getattr(reference, name))
                for k in (0, 2):
                    assert np.array_equal(column[k], expected)

    def test_design_turning_nan_fails_its_window_in_loop_and_at_the_end(self):
        from seqloc.solvers import solve_stack

        class Stub:
            """Three one-parameter windows fitting ``theta = target`` from
            two equal rows; window 1's design is NaN once it moved."""

            target = np.array([1.0, 2.0, 3.0])
            m = 2

            def at(self, theta, live=None, residual=True):
                live = np.arange(3) if live is None else live
                a = np.ones((len(live), 2, 1))
                a[(live == 1) & (theta[:, 0] != 0.0)] = np.nan
                z = np.repeat((self.target[live] - theta[:, 0])[:, None], 2,
                              axis=1)
                return a, z if residual else None, None

        for max_iter in (1, 3):  # fails at the final check, then in the loop
            sol = solve_stack(Stub(), np.zeros((3, 1)),
                              SolverConfig(max_iter=max_iter))
            assert isinstance(sol.failures[1], DimensionMismatch)
            assert "overflows" in str(sol.failures[1])
            assert sol.failures[0] is None and sol.failures[2] is None
            assert np.allclose(sol.theta[[0, 2], 0], [1.0, 3.0],
                               rtol=1e-12, atol=0)
            covariance = stack_covariance(Stub(), sol)
            assert np.allclose(covariance[[0, 2], 0, 0], [0.5, 0.5],
                               rtol=1e-12, atol=0)
            assert np.isnan(covariance[1]).all()
            assert list(sol.converged) == [max_iter > 1, False, max_iter > 1]

    def test_wls_step_rejects_inf_instead_of_hanging(self):
        g = np.ones((8, 4))
        g[0, 0] = np.inf
        # Whitening would multiply the inf by the weight root's zeros.
        with pytest.raises(DimensionMismatch, match="must be finite"):
            wls_step(g, np.eye(8), np.ones(8))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_wls_step_rejects_a_residual_that_is_not_finite(self, bad):
        """A residual holding inf or NaN would give a NaN step, without a
        warning under the step's error state."""
        g = np.random.default_rng(1).standard_normal((8, 4))
        r = np.ones(8)
        r[2] = bad
        with pytest.raises(DimensionMismatch,
                           match="residual must be finite"):
            wls_step(g, np.eye(8) + 0.1, r)
