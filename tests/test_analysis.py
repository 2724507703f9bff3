"""Error theory: FIM/CRLB, bias budgets, covariance ordering, bias bound.

Oracles here are deliberately pedestrian: explicit per-row assembly of the
weighted design and direct normal-equation algebra, independent of the
package's vectorized/SVD code paths.
"""

import warnings

import numpy as np
import pytest

from seqloc import (
    BsConstellation,
    DimensionMismatch,
    FullParams,
    RankDeficient,
    VelocityPrior,
    analysis,
    synthesize_batch,
    trial_rng,
)
from seqloc.config import scenario_from_config
from seqloc.model import WindowStack, prior_rows

from conftest import DRIFT_MPS, canonical_batch, make_batch, random_geometry


def oracle_kvd_normal(batch, bs, truth):
    """Brute-force G^T W G with per-row loops at the true parameters."""
    m = batch.m
    g = np.zeros((m, truth.n_dim + 2))
    w = np.zeros((m, m))
    for i in range(m):
        q = bs.positions[batch.bs_index[i]]
        diff = q - truth.p - truth.v * batch.dt[i]
        e = diff / np.linalg.norm(diff)
        g[i, :truth.n_dim] = -e
        g[i, truth.n_dim] = 1.0
        g[i, truth.n_dim + 1] = batch.dt[i]
        w[i, i] = 1.0 / batch.sigma[i] ** 2
    return g, w, g.T @ w @ g


class TestFim:
    def test_kvd_matches_brute_force(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        _, _, expected = oracle_kvd_normal(batch, bs_square, moving_truth)
        f = analysis.fim(batch, bs_square, moving_truth, "kvd")
        assert np.allclose(f, expected, rtol=1e-12)

    def test_sigma_scaling(self, bs_square, moving_truth):
        base = canonical_batch(bs_square, moving_truth, sigma=0.1)
        scaled = canonical_batch(bs_square, moving_truth, sigma=0.3)
        for variant in ("kvd", "uvd"):
            f1 = analysis.fim(base, bs_square, moving_truth, variant)
            f2 = analysis.fim(scaled, bs_square, moving_truth, variant)
            assert np.allclose(f2, f1 / 9.0, rtol=1e-10)

    def test_pvd_top_left_is_kvd(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        prior = VelocityPrior.isotropic(moving_truth.v, 2.0)
        f_p = analysis.fim(batch, bs_square, moving_truth, "pvd",
                           prior=prior)
        f_k = analysis.fim(batch, bs_square, moving_truth, "kvd")
        assert np.allclose(f_p[:4, :4], f_k, rtol=1e-12)

    def test_symmetric_positive_definite_random(self):
        rng = np.random.default_rng(40)
        batch = make_batch(np.arange(8) % 4, 0.01 * np.arange(8),
                           rho=np.zeros(8))
        for _ in range(50):
            bs, truth = random_geometry(rng, min_range=1.0)
            prior = VelocityPrior.isotropic(truth.v, 2.0)
            for variant, pr in (("kvd", None), ("uvd", None), ("pvd", prior)):
                f = analysis.fim(batch, bs, truth, variant, prior=pr)
                assert np.allclose(f, f.T, rtol=1e-10)
                assert np.min(np.linalg.eigvalsh(f)) > 0

    def test_rank_deficient_rejected(self, bs_square, stationary_truth):
        batch = make_batch(np.arange(4), np.full(4, 0.02), t_l=0.02,
                           rho=np.zeros(4))
        with pytest.raises(RankDeficient):
            analysis.fim(batch, bs_square, stationary_truth, "kvd")


class TestCrlb:
    def test_diagonal_inverse(self):
        f = np.diag([4.0, 25.0])
        assert np.allclose(analysis.crlb(f), [0.25, 0.04])

    def test_scales_linearly_with_sigma(self, bs_square, stationary_truth):
        values = []
        for sigma in (0.01, 0.1, 1.0):
            batch = canonical_batch(bs_square, stationary_truth, sigma=sigma)
            f = analysis.fim(batch, bs_square, stationary_truth, "kvd")
            values.append(np.sqrt(np.sum(analysis.crlb(f)[:2])))
        assert values[1] / values[0] == pytest.approx(10.0, rel=1e-9)
        assert values[2] / values[1] == pytest.approx(10.0, rel=1e-9)

    def test_kvd_position_bound_below_uvd(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        c_k = analysis.crlb(analysis.fim(batch, bs_square, moving_truth,
                                         "kvd"))
        c_u = analysis.crlb(analysis.fim(batch, bs_square, moving_truth,
                                         "uvd"))
        assert np.sum(c_k[:2]) < np.sum(c_u[:2])

    def test_translation_invariance(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        shift = np.array([123.0, -45.0])
        bs2 = BsConstellation(np.asarray(bs_square.positions) + shift)
        truth2 = FullParams(moving_truth.p + shift, moving_truth.b,
                            moving_truth.d, moving_truth.v)
        c1 = analysis.crlb(analysis.fim(batch, bs_square, moving_truth,
                                        "uvd"))
        c2 = analysis.crlb(analysis.fim(batch, bs2, truth2, "uvd"))
        assert np.allclose(c1[:2], c2[:2], rtol=1e-9)


class TestTheoreticalRmse:
    def test_unbiased_budget(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        budget = analysis.theoretical_rmse("kvd", batch, bs_square,
                                           moving_truth)
        assert np.all(budget.bias == 0)
        assert budget.rmse == pytest.approx(
            np.sqrt(np.trace(budget.variance)), rel=1e-12)

    def test_matches_crlb_sum(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        budget = analysis.theoretical_rmse("kvd", batch, bs_square,
                                           moving_truth)
        bound = analysis.crlb(analysis.fim(batch, bs_square, moving_truth,
                                           "kvd"))
        assert budget.rmse == pytest.approx(np.sqrt(np.sum(bound[:2])),
                                            rel=1e-12)

    def test_stationary_drift_only_equals_kvd(self, bs_square,
                                              stationary_truth):
        batch = canonical_batch(bs_square, stationary_truth)
        kvd = analysis.theoretical_rmse("kvd", batch, bs_square,
                                        stationary_truth)
        drift = analysis.bias_drift_only(batch, bs_square, stationary_truth)
        assert np.allclose(drift.bias, 0, atol=1e-12)
        assert drift.rmse == pytest.approx(kvd.rmse, rel=1e-12)
        assert np.array_equal(drift.variance, kvd.variance)

    def test_trace_ordering(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        prior = VelocityPrior.isotropic(moving_truth.v, 2.0)
        t_k = np.trace(analysis.theoretical_rmse(
            "kvd", batch, bs_square, moving_truth).variance)
        t_p = np.trace(analysis.theoretical_rmse(
            "pvd", batch, bs_square, moving_truth, prior=prior).variance)
        t_u = np.trace(analysis.theoretical_rmse(
            "uvd", batch, bs_square, moving_truth).variance)
        assert t_k <= t_p <= t_u


class TestDeviatedVelocityBias:
    def test_zero_deviation(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        budget = analysis.bias_deviated_velocity(batch, bs_square,
                                                 moving_truth, moving_truth.v)
        reference = analysis.theoretical_rmse("kvd", batch, bs_square,
                                              moving_truth)
        assert np.allclose(budget.bias, 0, atol=1e-14)
        assert budget.rmse == pytest.approx(reference.rmse, rel=1e-12)

    def test_against_direct_oracle(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        v_assumed = moving_truth.v + np.array([1.0, 0.0])
        g, w, normal = oracle_kvd_normal(batch, bs_square, moving_truth)
        r = np.zeros(batch.m)
        for i in range(batch.m):
            q = bs_square.positions[batch.bs_index[i]]
            r[i] = (np.linalg.norm(q - moving_truth.p
                                   - moving_truth.v * batch.dt[i])
                    - np.linalg.norm(q - moving_truth.p
                                     - v_assumed * batch.dt[i]))
        expected = (np.linalg.inv(normal) @ g.T @ w @ r)[:2]
        budget = analysis.bias_deviated_velocity(batch, bs_square,
                                                 moving_truth, v_assumed)
        assert np.allclose(budget.bias, expected, rtol=1e-10)

    def test_approximately_linear_growth(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        for direction in (np.array([1.0, 0.0]), np.array([0.6, 0.8])):
            for mag in (0.1, 0.25, 0.5):
                small = analysis.bias_deviated_velocity(
                    batch, bs_square, moving_truth,
                    moving_truth.v + mag * direction)
                double = analysis.bias_deviated_velocity(
                    batch, bs_square, moving_truth,
                    moving_truth.v + 2 * mag * direction)
                ratio = (np.linalg.norm(double.bias)
                         / np.linalg.norm(small.bias))
                assert 1.9 <= ratio <= 2.1


class TestDriftOnlyBias:
    def test_against_direct_oracle(self, bs_square):
        truth = FullParams(p=[15.0, 15.0], b=30.0, d=DRIFT_MPS, v=[5.0, 0.0])
        batch = canonical_batch(bs_square, truth)
        g, w, normal = oracle_kvd_normal(batch, bs_square, truth)
        r = np.zeros(batch.m)
        for i in range(batch.m):
            q = bs_square.positions[batch.bs_index[i]]
            r[i] = (np.linalg.norm(q - truth.p - truth.v * batch.dt[i])
                    - np.linalg.norm(q - truth.p))
        expected = (np.linalg.inv(normal) @ g.T @ w @ r)[:2]
        budget = analysis.bias_drift_only(batch, bs_square, truth)
        assert np.allclose(budget.bias, expected, rtol=1e-10)
        assert budget.rmse == pytest.approx(
            np.sqrt(np.dot(budget.bias, budget.bias)
                    + np.trace(budget.variance)), rel=1e-12)

    def test_bs_index_out_of_range_rejected(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        bad = make_batch(np.where(np.arange(batch.m) == 3, 7, batch.bs_index),
                         batch.t, rho=np.asarray(batch.rho))
        with pytest.raises(DimensionMismatch):
            analysis.bias_drift_only(bad, bs_square, moving_truth)

    def test_rmse_nondecreasing_with_speed(self, bs_square):
        rmses = []
        for speed in (0.1, 1.0, 5.0, 10.0, 20.0):
            truth = FullParams(p=[15.0, 15.0], b=30.0, d=DRIFT_MPS,
                               v=[speed, 0.0])
            batch = canonical_batch(bs_square, truth)
            rmses.append(analysis.bias_drift_only(batch, bs_square,
                                                  truth).rmse)
        assert all(b >= a for a, b in zip(rmses, rmses[1:]))


class TestCovarianceOrdering:
    def test_random_geometries(self):
        rng = np.random.default_rng(52)
        batch = make_batch(np.arange(8) % 4, 0.01 * np.arange(8),
                           rho=np.zeros(8))
        for _ in range(100):
            bs, truth = random_geometry(rng, min_range=1.0)
            prior = VelocityPrior.isotropic(truth.v, 2.0)
            check = analysis.check_crlb_ordering(batch, bs, truth, prior)
            assert check.ordered
            assert (check.trace_known <= check.trace_prior
                    <= check.trace_joint)

    def test_delta_prior_limit(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        prior = VelocityPrior(moving_truth.v, 1e-12 * np.eye(2))
        check = analysis.check_crlb_ordering(batch, bs_square, moving_truth,
                                             prior)
        assert abs(check.trace_prior - check.trace_known) < 1e-6

    def test_flat_prior_limit(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        prior = VelocityPrior(moving_truth.v, 1e12 * np.eye(2))
        check = analysis.check_crlb_ordering(batch, bs_square, moving_truth,
                                             prior)
        assert abs(check.trace_prior - check.trace_joint) < 1e-6

    def test_schur_identity_against_full_inverse(self, bs_square,
                                                 moving_truth):
        from seqloc.model import WeightModel, build_design_uvd

        batch = canonical_batch(bs_square, moving_truth)
        g = build_design_uvd(batch, bs_square, moving_truth)
        w = WeightModel.from_batch(batch).w_rho
        full_inverse = np.linalg.inv(g.T @ w @ g)[:4, :4]
        g0, g1 = g[:, :4], g[:, 4:]
        schur = np.linalg.inv(
            g0.T @ w @ g0
            - g0.T @ w @ g1 @ np.linalg.inv(g1.T @ w @ g1) @ g1.T @ w @ g0)
        assert np.allclose(schur, full_inverse, rtol=1e-8)


class TestBiasLowerBound:
    def test_zero_deviation_edge(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        bound = analysis.bias_linear_lower_bound(batch, bs_square,
                                                 moving_truth,
                                                 [np.zeros(2)])
        check = bound.checks[0]
        assert check.bias_norm_sq == pytest.approx(0.0, abs=1e-20)
        assert check.bound == 0.0
        assert check.holds

    def test_alpha_positive_canonical(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        bound = analysis.bias_linear_lower_bound(batch, bs_square,
                                                 moving_truth, [])
        assert bound.alpha > 0

    def test_inequality_against_exact_bias(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        deviations = [np.array([m, 0.0]) for m in (0.1, 0.2, 0.5)]
        bound = analysis.bias_linear_lower_bound(batch, bs_square,
                                                 moving_truth, deviations)
        for check in bound.checks:
            exact = analysis.bias_deviated_velocity(
                batch, bs_square, moving_truth,
                moving_truth.v + check.deviation)
            assert check.bias_norm_sq == pytest.approx(
                float(np.dot(exact.bias, exact.bias)), rel=1e-12)
            assert check.holds


def test_bias_lower_bound_holds_on_the_deviation_sweep():
    """The bound with its second-order remainder holds, with no slack, on
    300 random geometries (speeds up to 20 m/s) times 24 deviations (0.1,
    0.5 and 1 m/s in 8 headings) on the 8-row batch of criterion 9.  The
    first-order bound alone fails 72 of these 7200 checks; within a fitted
    5% slack it still failed at geometry 51, dv = (1, 0), by 5.7%."""
    rng = np.random.default_rng(2024)
    batch = make_batch(np.arange(8) % 4, 0.01 * np.arange(8),
                       rho=np.zeros(8))
    deviations = [m * np.array([np.cos(a), np.sin(a)])
                  for m in (0.1, 0.5, 1.0) for a in np.arange(8) * np.pi / 4]
    failures = []
    for geom in range(300):
        bs, truth = random_geometry(rng, max_speed=20.0, min_range=1.0)
        bound = analysis.bias_linear_lower_bound(batch, bs, truth, deviations)
        failures += [(geom, check.deviation.tolist())
                     for check in bound.checks if not check.holds]
    assert failures == []


class TestPriorInterpolation:
    def test_pvd_trace_rises_from_kvd_to_uvd(self):
        """The pvd position-covariance trace never decreases as prior_std
        rises from 1e-6 to 1e6, and its two ends are the kvd and the uvd
        traces."""
        rng = np.random.default_rng(90)
        stds = np.logspace(-6, 6, 49)
        for _ in range(40):
            bs, truth = random_geometry(rng)
            batch = canonical_batch(bs, truth)
            priors = [VelocityPrior.isotropic(truth.v, std) for std in stds]
            pvd = analysis.theoretical_rmse_stack(
                "pvd", WindowStack.of([batch] * stds.size), bs,
                np.stack([truth.as_vector()] * stds.size),
                prior_rows(priors, bs.n_dim))
            assert pvd.failures == [None] * stds.size
            trace = np.trace(pvd.variance, axis1=1, axis2=2)
            assert np.all(np.diff(trace) >= 0)
            for kind, end in (("kvd", trace[0]), ("uvd", trace[-1])):
                budget = analysis.theoretical_rmse(kind, batch, bs, truth)
                assert end == pytest.approx(np.trace(budget.variance),
                                            rel=1e-6, abs=0)


class TestOverflowedTruth:
    """A truth so far out that its whitened design overflows leaves the
    theory undefined: DimensionMismatch, as from the solvers, with no
    numpy warning and no LinAlgError."""

    FAR = FullParams(p=[-1.7e308, 0.0], b=30.0, d=0.0, v=[-1.7e308, 0.0])

    @staticmethod
    def batch():
        return make_batch(np.arange(8) % 4, 0.01 * np.arange(8),
                          rho=np.full(8, 20.0))

    def test_single_window_theory_raises(self, bs_square):
        batch, far = self.batch(), self.FAR
        prior = VelocityPrior.isotropic(far.v, 2.0)
        calls = [lambda kind=kind: analysis.fim(batch, bs_square, far, kind,
                                               prior=prior)
                 for kind in ("kvd", "uvd", "pvd")]
        calls += [lambda kind=kind: analysis.theoretical_rmse(
            kind, batch, bs_square, far, prior=prior)
            for kind in ("kvd", "uvd", "pvd")]
        calls += [
            lambda: analysis.bias_deviated_velocity(batch, bs_square, far,
                                                    [0.0, 0.0]),
            lambda: analysis.bias_drift_only(batch, bs_square, far),
            lambda: analysis.bias_linear_lower_bound(batch, bs_square, far,
                                                     [[1.0, 0.0]]),
        ]
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(DimensionMismatch, match="overflows"):
                    call()

    def test_fails_only_its_window_of_a_stack(self, bs_square, moving_truth):
        batch = self.batch()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            stack = analysis.theoretical_rmse_stack(
                "uvd", WindowStack.of([batch] * 3), bs_square,
                np.stack([t.as_vector() for t in
                          (moving_truth, self.FAR, moving_truth)]))
        assert isinstance(stack.failures[1], DimensionMismatch)
        assert np.isnan(stack.rmse[1])
        alone = analysis.theoretical_rmse("uvd", batch, bs_square,
                                          moving_truth)
        for k in (0, 2):
            assert stack.failures[k] is None
            assert np.array_equal(stack.variance[k], alone.variance)


class TestIndefiniteInverse:
    """Four BSs at one point: the rank rule passes the kvd design (its
    condition number is about 1.45e9), but cond(A^T A) is its square, and
    rounding leaves the inverse information with negative variances.
    Every budget built on it fails as ``crlb`` does, with no warning."""

    MESSAGE = "^Fisher information is not positive-definite$"

    @pytest.fixture(scope="class")
    def window(self):
        cfg, _ = scenario_from_config({"bs": {"positions": [[0, 0]] * 4}})
        traj = cfg.trajectory.realize(trial_rng(cfg.seed, 0))
        batch, truth = synthesize_batch(cfg, 0, trajectory=traj)
        return batch, cfg.bs, truth

    def test_every_kvd_budget_fails_like_crlb(self, window):
        batch, bs, truth = window
        info = analysis.fim(batch, bs, truth, "kvd")  # passes the rank rule
        calls = [
            lambda: analysis.crlb(info),
            lambda: analysis.theoretical_rmse("kvd", batch, bs, truth),
            lambda: analysis.bias_drift_only(batch, bs, truth),
            lambda: analysis.bias_deviated_velocity(batch, bs, truth,
                                                    truth.v + 1.0),
        ]
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(RankDeficient, match=self.MESSAGE):
                    call()

    def test_projectors_fail_the_window(self, window):
        batch, bs, truth = window
        projectors = analysis.kvd_projectors(
            WindowStack.of([batch]), bs, truth.as_vector()[None])
        assert isinstance(projectors.failures[0], RankDeficient)
        assert np.all(np.isnan(projectors.inverse[0]))
        assert np.all(np.isnan(projectors.projector[0]))


class TestOverflowedInformation:
    """A noise level of 1e-160 m passes the batch's sigma check (the
    whitened design is about 1e160, well inside float64), but its
    information ``A^T A`` overflows, so the rank rule fails the design.
    Every budget of that window fails as ``crlb`` does, with no warning,
    and the other windows of its stack are left alone."""

    MESSAGE = "^Fisher information is not positive-definite$"
    TINY = 1e-160

    def test_single_window_theory_fails_like_crlb(self, bs_square,
                                                  moving_truth):
        batch = canonical_batch(bs_square, moving_truth, sigma=self.TINY)
        prior = VelocityPrior.isotropic(moving_truth.v, 2.0)
        calls = [lambda kind=kind: analysis.fim(batch, bs_square,
                                               moving_truth, kind,
                                               prior=prior)
                 for kind in ("kvd", "uvd", "pvd")]
        calls += [lambda kind=kind: analysis.theoretical_rmse(
            kind, batch, bs_square, moving_truth, prior=prior)
            for kind in ("kvd", "uvd", "pvd")]
        calls += [
            lambda: analysis.bias_deviated_velocity(
                batch, bs_square, moving_truth, moving_truth.v + 1.0),
            lambda: analysis.bias_drift_only(batch, bs_square, moving_truth),
        ]
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(RankDeficient, match=self.MESSAGE):
                    call()

    @pytest.mark.parametrize("variant", ["kvd", "uvd", "pvd"])
    def test_fails_only_its_window_of_a_stack(self, bs_square, moving_truth,
                                              variant):
        plain = canonical_batch(bs_square, moving_truth)
        tiny = canonical_batch(bs_square, moving_truth, sigma=self.TINY)
        prior = VelocityPrior.isotropic(moving_truth.v, 2.0)
        truths = np.stack([moving_truth.as_vector()] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stack = analysis.theoretical_rmse_stack(
                variant, WindowStack.of([plain, tiny, plain]), bs_square,
                truths, prior_rows([prior] * 3, 2))
        assert isinstance(stack.failures[1], RankDeficient)
        assert str(stack.failures[1]) == self.MESSAGE[1:-1]
        assert np.isnan(stack.rmse[1])
        alone = analysis.theoretical_rmse(variant, plain, bs_square,
                                          moving_truth, prior=prior)
        for k in (0, 2):
            assert stack.failures[k] is None
            assert np.array_equal(stack.variance[k], alone.variance)
            assert stack.rmse[k] == alone.rmse
