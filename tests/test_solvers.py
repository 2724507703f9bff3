"""Gauss-Newton solvers: WLS step kernel, recovery, delegation, limits."""

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
    wls_step,
)

from conftest import DRIFT_MPS, canonical_batch, make_batch, random_geometry


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
            analysis.fim(noisy, bs_square, at, "kvd").matrix)
        assert np.allclose(kvd.covariance, expected, rtol=1e-10, atol=0)

        prior = VelocityPrior.isotropic(moving_truth.v, 2.0)
        pvd = solve_prior_velocity(noisy, bs_square, prior)
        expected = np.linalg.inv(
            analysis.fim(noisy, bs_square, pvd.params, "pvd",
                         prior=prior).matrix)
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

            g = build_design_pvd(noisy, bs, report.params).matrix
            w = WeightModel.from_batch(noisy).w_full(prior)
            r = residual(noisy, bs, report.params, prior=prior)
            normal = g.T @ w @ g
            grad = g.T @ w @ r
            assert np.linalg.norm(np.linalg.solve(normal, grad)) < 1e-8
            expected = np.linalg.inv(normal)
            assert (np.linalg.norm(report.covariance - expected)
                    < 1e-10 * np.linalg.norm(expected))


class TestSolveStack:
    def test_failures_stay_in_their_window(self, bs_square, moving_truth):
        from seqloc.errors import DegenerateGeometry
        from seqloc.model import WhitenedSystem
        from seqloc.solvers import initial_guess_kvd, solve_stack

        good = canonical_batch(bs_square, moving_truth)
        # equal dt collapses the offset and drift columns
        flat = make_batch(np.arange(8) % 4, np.full(8, 0.03), t_l=0.03,
                          rho=np.full(8, 20.0))
        batches = (good, flat, good)
        v = [moving_truth.v] * 3
        system = WhitenedSystem.of(batches, bs_square, v_known=v)
        inits = [initial_guess_kvd(b, bs_square) for b in batches]
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
        assert np.array_equal(sol.covariance[0], alone.covariance)
