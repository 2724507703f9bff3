"""Forward model, LOS vectors, design matrices and residuals."""

import math
import warnings

import numpy as np
import pytest

from seqloc import (
    BsConstellation,
    DegenerateGeometry,
    DimensionMismatch,
    FullParams,
    KvdParams,
    MeasurementBatch,
    VelocityPrior,
    build_design_kvd,
    build_design_pvd,
    build_design_uvd,
    predict_batch,
    residual,
)

from seqloc.model import WhitenedSystem, information_root, prior_rows

from conftest import canonical_batch, make_batch


def brute_rank(matrix, rel_tol=1e-10):
    """Rank by counting singular values above a relative floor."""
    s = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(s > rel_tol * s[0]))


class TestTypes:
    def test_constellation_validation(self):
        with pytest.raises(DimensionMismatch):
            BsConstellation(np.zeros((0, 2)))
        with pytest.raises(DimensionMismatch):
            BsConstellation([[1.0, 2.0, 3.0, 4.0]])
        with pytest.raises(DimensionMismatch):
            BsConstellation([[np.inf, 0.0]])

    def test_batch_validation(self):
        with pytest.raises(DimensionMismatch):
            make_batch([0], [0.0], sigma=0.0)
        with pytest.raises(DimensionMismatch):
            MeasurementBatch(bs_index=[0, 1], t=[0.0], rho=[1.0],
                             sigma=[0.1], t_l=0.0)

    def test_batch_caches_dt(self):
        batch = make_batch([0, 1], [0.5, 0.6], t_l=0.45)
        assert np.allclose(batch.dt, [0.05, 0.15])
        assert not batch.dt.flags.writeable

    def test_param_vector_round_trip(self):
        kvd = KvdParams(p=[1.0, 2.0], b=3.0, d=4.0)
        assert np.array_equal(KvdParams.from_vector(kvd.as_vector()).p, kvd.p)
        full = FullParams(p=[1.0, 2.0], b=3.0, d=4.0, v=[5.0, 6.0])
        back = FullParams.from_vector(full.as_vector())
        assert np.array_equal(back.v, full.v)
        assert full.as_vector().shape == (6,)

    def test_prior_requires_spd(self):
        with pytest.raises(DimensionMismatch):
            VelocityPrior(mean=[0, 0], covariance=[[1, 0], [0, -1]])
        with pytest.raises(DimensionMismatch):
            VelocityPrior(mean=[0, 0], covariance=[[1, 0.5], [0.2, 1]])

    def test_whitening_matches_dense_weights(self, bs_square):
        """For a correlated prior the whitened system gives the normal
        equations of the dense block-diagonal weight ``W``: pseudorange
        weights 1/sigma^2, then the prior information."""
        batch = make_batch([0, 1, 2], [0, 0.01, 0.02],
                           rho=[20.0, 21.0, 22.0], sigma=0.5)
        prior = VelocityPrior(mean=[0, 0], covariance=[[4.0, 1.0], [1.0, 2.0]])
        at = FullParams(p=[12.0, 9.0], b=1.0, d=3.0, v=[1.5, -0.5])
        w = np.zeros((5, 5))
        w[:3, :3] = np.diag(batch.sigma ** -2.0)
        w[3:, 3:] = np.linalg.inv(prior.covariance)
        g = build_design_pvd(batch, bs_square, at)
        r = residual(batch, bs_square, at, prior=prior)
        a, z, _ = WhitenedSystem.of([batch], bs_square,
                                    priors=[prior]).at(at.as_vector()[None])
        assert np.allclose(a[0].T @ a[0], g.T @ w @ g, rtol=1e-12)
        assert np.allclose(a[0].T @ z[0], g.T @ w @ r, rtol=1e-12)


def _dense_root(covariance):
    return np.linalg.cholesky(np.linalg.inv(covariance)).mT


def _same_bits(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


class TestInformationRoot:
    """A diagonal covariance's information root ``diag(sqrt(1/var))`` is
    the dense ``cholesky(inv(cov)).mT`` bit for bit, zero signs included;
    any other covariance takes the dense route."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_isotropic_priors(self, n):
        for std in [1e-9, 0.1, 0.7, 2.0, 3.3, 1e9]:
            prior = VelocityPrior.isotropic(np.ones(n), std)
            rows = prior_rows([prior], n)
            assert _same_bits(rows.root, _dense_root(prior.covariance[None]))

    @pytest.mark.parametrize("n", [2, 3])
    def test_random_diagonal_covariances(self, n):
        rng = np.random.default_rng(5)
        var = np.exp(rng.uniform(-40.0, 40.0, (2000, n)))
        covariance = var[:, :, None] * np.eye(n)
        assert _same_bits(information_root(covariance),
                          _dense_root(covariance))
        for k in range(0, 2000, 97):
            assert _same_bits(information_root(covariance[k]),
                              _dense_root(covariance[k]))

    def test_correlated_covariance_takes_the_dense_route(self):
        covariance = np.array([[[4.0, 1.0], [1.0, 2.0]],
                               [[4.0, 0.0], [0.0, 2.0]]])
        assert _same_bits(information_root(covariance),
                          _dense_root(covariance))

    def test_isotropic_prior_checks_its_mean(self):
        with pytest.raises(DimensionMismatch, match="prior mean"):
            VelocityPrior.isotropic([np.nan, 0.0], 2.0)
        prior = VelocityPrior.isotropic([1, 2], 2.0)
        assert np.array_equal(prior.mean, [1.0, 2.0])
        assert np.array_equal(prior.covariance, 4.0 * np.eye(2))
        assert not prior.mean.flags.writeable
        assert not prior.covariance.flags.writeable


def _predict(q, params, dt):
    """``predict_batch`` of one measurement from the BS at ``q``, taken
    ``dt`` seconds from the epoch."""
    batch = make_batch([0], [dt])
    return predict_batch(batch, BsConstellation([q]), params)[0]


def _los(q, p, v, dt):
    """The unit LOS vector ``e`` of the kvd design row ``[-e, 1, dt]`` of
    one measurement from the BS at ``q``."""
    batch = make_batch([0], [dt])
    design = build_design_kvd(batch, BsConstellation([q]),
                              KvdParams(p, 0.0, 0.0), v)
    return -design[0, :len(q)]


class TestPredict:
    def test_three_four_five(self):
        params = FullParams(p=[0, 0], b=0.0, d=0.0, v=[0, 0])
        assert _predict([3, 4], params, 0.0) == pytest.approx(5.0)

    def test_zero_distance_pure_clock(self):
        params = FullParams(p=[1, 1], b=7.0, d=0.0, v=[0, 0])
        assert _predict([1, 1], params, 0.0) == pytest.approx(7.0)

    def test_moving_with_drift(self):
        # independent evaluation: ||(3,4)-(1,0)|| + 2 + 0.5
        params = FullParams(p=[0, 0], b=2.0, d=0.5, v=[1, 0])
        expected = math.hypot(2.0, 4.0) + 2.5
        assert expected == pytest.approx(6.972135955, abs=1e-9)
        assert _predict([3, 4], params, 1.0) == pytest.approx(expected)

    def test_geometric_part_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            params = FullParams(p=rng.normal(0, 20, 2), b=rng.normal(0, 50),
                                d=rng.normal(0, 1000), v=rng.normal(0, 10, 2))
            dt = rng.uniform(-0.1, 0.1)
            q = rng.normal(0, 20, 2)
            value = _predict(q, params, dt)
            assert value - params.b - params.d * dt >= 0.0


class TestLosVector:
    def test_normalized_three_four_five(self):
        assert np.allclose(_los([3, 4], [0, 0], [0, 0], 0.0), [0.6, 0.8])

    def test_collinear_displacement(self):
        assert np.allclose(_los([10, 0], [0, 0], [5, 0], 1.0), [1, 0])

    def test_zero_distance_raises(self):
        with pytest.raises(DegenerateGeometry):
            _los([0, 0], [0, 0], [0, 0], 0.0)

    def test_unit_norm_random(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            q, p = rng.normal(0, 30, 2), rng.normal(0, 30, 2)
            v = rng.normal(0, 10, 2)
            dt = rng.uniform(-0.2, 0.2)
            if np.linalg.norm(q - p - v * dt) < 1e-6:
                continue
            e = _los(q, p, v, dt)
            assert abs(np.linalg.norm(e) - 1.0) < 1e-12


class TestDesignMatrices:
    def test_kvd_single_row(self):
        bs = BsConstellation([[15 + 0.6 * 5, 15 + 0.8 * 5]])
        batch = make_batch([0], [0.02], t_l=0.0)
        design = build_design_kvd(batch, bs, KvdParams([15, 15], 0, 0), [0, 0])
        assert np.allclose(design, [[-0.6, -0.8, 1.0, 0.02]])

    def test_kvd_rank_canonical(self, bs_square):
        batch = make_batch(np.arange(4), 0.01 * np.arange(4))
        design = build_design_kvd(batch, bs_square,
                                  KvdParams([15, 15], 0, 0), [0, 0])
        assert brute_rank(design) == 4

    def test_kvd_columns_velocity_independent(self, bs_square):
        batch = make_batch([0, 1, 2, 3], [0.04, 0.05, 0.06, 0.07])
        at = KvdParams([15, 15], 0, 0)
        still = build_design_kvd(batch, bs_square, at, [0, 0])
        moving = build_design_kvd(batch, bs_square, at, [5, 0])
        assert np.array_equal(still[:, 2:], moving[:, 2:])
        assert not np.array_equal(still[:, :2], moving[:, :2])

    def test_uvd_single_row(self):
        bs = BsConstellation([[15 + 0.6 * 5, 15 + 0.8 * 5]])
        batch = make_batch([0], [0.02], t_l=0.0)
        design = build_design_uvd(
            batch, bs, FullParams([15, 15], 0, 0, [0, 0]))
        assert np.allclose(design,
                           [[-0.6, -0.8, 1.0, 0.02, -0.012, -0.016]])

    def test_uvd_zero_dt_velocity_block(self, bs_square):
        batch = make_batch([0, 1], [0.0, 0.0], t_l=0.0)
        design = build_design_uvd(
            batch, bs_square, FullParams([15, 15], 0, 0, [3, 4]))
        assert np.all(design[:, 4:] == 0)

    def test_uvd_rank_canonical(self, bs_square):
        batch = make_batch(np.arange(8) % 4, 0.01 * np.arange(8))
        design = build_design_uvd(
            batch, bs_square, FullParams([15, 15], 0, 0, [0, 0]))
        assert brute_rank(design) == 6

    def test_pvd_minimal_matrix(self):
        bs = BsConstellation([[20, 15]])
        batch = make_batch([0], [0.0], t_l=0.0)
        design = build_design_pvd(
            batch, bs, FullParams([15, 15], 0, 0, [0, 0]))
        expected = [[-1, 0, 1, 0, 0, 0],
                    [0, 0, 0, 0, 1, 0],
                    [0, 0, 0, 0, 0, 1]]
        assert np.allclose(design, expected)

    def test_pvd_bottom_block_constant(self, bs_square):
        batch = make_batch(np.arange(4), 0.01 * np.arange(4))
        for v in ([0, 0], [7, -3]):
            design = build_design_pvd(
                batch, bs_square, FullParams([12, 18], 5, 9, v))
            assert np.array_equal(design[-2:, :],
                                  np.hstack([np.zeros((2, 4)), np.eye(2)]))

    def test_equal_dt_ranks(self, bs_square):
        # With every dt identical the offset and drift columns are
        # collinear: the joint design collapses to rank 3 and the prior
        # block restores only the velocity columns (rank 5 of 6).
        batch = make_batch(np.arange(6) % 4, np.full(6, 0.02), t_l=0.0)
        uvd = build_design_uvd(batch, bs_square,
                               FullParams([15, 15], 0, 0, [0, 0]))
        pvd = build_design_pvd(batch, bs_square,
                               FullParams([15, 15], 0, 0, [0, 0]))
        assert brute_rank(uvd) == 3
        assert brute_rank(pvd) == 5

    def test_kvd_is_uvd_prefix(self, bs_square, moving_truth):
        batch = make_batch(np.arange(8) % 4, 0.01 * np.arange(8))
        kvd = build_design_kvd(batch, bs_square, moving_truth.kvd_part(),
                               moving_truth.v)
        uvd = build_design_uvd(batch, bs_square, moving_truth)
        assert np.array_equal(kvd, uvd[:, :4])

    def test_degenerate_geometry_propagates(self, bs_square):
        batch = make_batch([0], [0.0], t_l=0.0)
        at = KvdParams(bs_square.positions[0], 0, 0)
        with pytest.raises(DegenerateGeometry):
            build_design_kvd(batch, bs_square, at, [0, 0])


class TestResidual:
    def test_zero_at_truth_all_variants(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        prior = VelocityPrior.isotropic(moving_truth.v, 2.0)
        r_kvd = residual(batch, bs_square, moving_truth.kvd_part(),
                         v_known=moving_truth.v)
        r_uvd = residual(batch, bs_square, moving_truth)
        r_pvd = residual(batch, bs_square, moving_truth, prior=prior)
        assert np.allclose(r_kvd, 0, atol=1e-9)
        assert np.allclose(r_uvd, 0, atol=1e-9)
        assert np.allclose(r_pvd, 0, atol=1e-9)
        assert r_pvd.shape == (10,)

    def test_pvd_prior_rows_zero_at_mean(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        prior = VelocityPrior.isotropic(moving_truth.v, 2.0)
        r = residual(batch, bs_square, moving_truth, prior=prior)
        assert np.all(r[-2:] == 0)

    def test_position_offset_residual(self, bs_square, stationary_truth):
        batch = canonical_batch(bs_square, stationary_truth)
        guess = KvdParams([14.0, 15.0], stationary_truth.b,
                          stationary_truth.d)
        r = residual(batch, bs_square, guess, v_known=[0.0, 0.0])
        q = bs_square.positions[batch.bs_index]
        expected = (np.linalg.norm(q - stationary_truth.p, axis=1)
                    - np.linalg.norm(q - guess.p, axis=1))
        assert np.allclose(r, expected, atol=1e-12)

    def test_variant_consistency_errors(self, bs_square, moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        with pytest.raises(DimensionMismatch):
            residual(batch, bs_square, moving_truth.kvd_part())
        with pytest.raises(DimensionMismatch):
            residual(batch, bs_square, moving_truth, v_known=[1.0, 0.0])


class TestOverflowingRanges:
    """A velocity of 1.7e308 m/s moves the UD beyond float64 after the
    first slot: the ranges of the later rows overflow, without a warning.
    Predictions and residuals are infinite there; a design, whose LOS rows
    would be zero there, is rejected."""

    V = [1.7e308, 0.0]
    AT = FullParams(p=[15, 15], b=0, d=0, v=V)

    def test_predictions_and_residuals_are_infinite(self, bs_square,
                                                    moving_truth):
        batch = canonical_batch(bs_square, moving_truth)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = predict_batch(batch, bs_square, self.AT)
            r_kvd = residual(batch, bs_square, self.AT.kvd_part(),
                             v_known=self.V)
            r_uvd = residual(batch, bs_square, self.AT)
        assert np.isfinite(h[0]) and np.all(h[1:] == np.inf)
        for r in (r_kvd, r_uvd):
            assert np.isfinite(r[0]) and np.all(r[1:] == -np.inf)

    @pytest.mark.parametrize("variant", ["kvd", "uvd", "pvd"])
    def test_designs_rejected(self, bs_square, moving_truth, variant):
        batch = canonical_batch(bs_square, moving_truth)
        build = {"kvd": lambda: build_design_kvd(
                     batch, bs_square, self.AT.kvd_part(), self.V),
                 "uvd": lambda: build_design_uvd(batch, bs_square, self.AT),
                 "pvd": lambda: build_design_pvd(batch, bs_square, self.AT)}
        with warnings.catch_warnings(), pytest.raises(
                DimensionMismatch, match="design matrix must be finite"):
            warnings.simplefilter("error")
            build[variant]()


class TestJacobianAgainstFiniteDifferences:
    def assert_variant_matches(self, batch, bs, full, variant, step=1e-6):
        def h_of(vec):
            if variant == "kvd":
                at = KvdParams.from_vector(vec)
                probe = FullParams(at.p, at.b, at.d, full.v)
            else:
                probe = FullParams.from_vector(vec)
            return predict_batch(batch, bs, probe)

        if variant == "kvd":
            vec = full.kvd_part().as_vector()
            analytic = build_design_kvd(batch, bs, full.kvd_part(),
                                        full.v)
        elif variant == "uvd":
            vec = full.as_vector()
            analytic = build_design_uvd(batch, bs, full)
        else:
            vec = full.as_vector()
            analytic = build_design_pvd(batch, bs, full)[:batch.m, :]

        numeric = np.zeros_like(analytic)
        for j in range(vec.size):
            e = np.zeros(vec.size)
            e[j] = step
            numeric[:, j] = (h_of(vec + e) - h_of(vec - e)) / (2 * step)
        rel = np.abs(numeric - analytic) / np.maximum(np.abs(analytic), 1.0)
        assert np.max(rel) < 1e-6

    def test_random_configurations(self):
        rng = np.random.default_rng(2024)
        for trial in range(30):
            n = 2 if trial % 2 == 0 else 3
            n_bs = 4 if n == 2 else 5
            bs = BsConstellation(rng.uniform(0, 30, (n_bs, n)))
            batch = make_batch(np.arange(8) % n_bs, 0.01 * np.arange(8))
            full = FullParams(p=rng.uniform(5, 25, n),
                              b=rng.uniform(-50, 50),
                              d=rng.uniform(-2000, 2000),
                              v=rng.uniform(-10, 10, n))
            for variant in ("kvd", "uvd", "pvd"):
                self.assert_variant_matches(batch, bs, full, variant)


class TestWhitenedJacobian:
    """``WhitenedSystem.at`` against central differences of its own
    whitened residual, ``A = -dz/dtheta``, prior rows included, on a
    stack of three windows and through a ``live`` subset of it."""

    STEP = 1e-6

    def stack(self, rng):
        """Three noisy 8-row windows with unequal noise levels, their
        truths (3, 2N+2) and one correlated velocity prior per window."""
        bs = BsConstellation(rng.uniform(0, 30, (4, 2)))
        batches, truths, priors = [], [], []
        for _ in range(3):
            truth = FullParams(p=rng.uniform(5, 25, 2),
                               b=rng.uniform(-50, 50),
                               d=rng.uniform(-2000, 2000),
                               v=rng.uniform(-10, 10, 2))
            clean = canonical_batch(bs, truth)
            sigma = rng.uniform(0.05, 0.5, clean.m)
            batches.append(MeasurementBatch(
                bs_index=clean.bs_index, t=clean.t,
                rho=clean.rho + sigma * rng.standard_normal(clean.m),
                sigma=sigma, t_l=0.02))
            truths.append(truth.as_vector())
            root = rng.normal(size=(2, 2))
            priors.append(VelocityPrior(truth.v + rng.normal(size=2),
                                        root @ root.T + 0.25 * np.eye(2)))
        return bs, batches, np.stack(truths), priors

    def systems(self, bs, batches, truths, priors):
        """Each estimator's system and the points (3, P) to differentiate
        at: near the truths, so that the residuals are small."""
        v = truths[:, 4:]
        return {
            "kvd": (WhitenedSystem.of(batches, bs, v_known=v),
                    truths[:, :4]),
            "d": (WhitenedSystem.of(batches, bs, v_known=np.zeros_like(v)),
                  truths[:, :4]),
            "uvd": (WhitenedSystem.of(batches, bs), truths),
            "pvd": (WhitenedSystem.of(batches, bs, priors=priors), truths),
        }

    def assert_matches(self, system, theta, live=None):
        a, z, degenerate = system.at(theta, live)
        assert degenerate is None
        numeric = np.empty_like(a)
        for j in range(theta.shape[1]):
            e = np.zeros(theta.shape[1])
            e[j] = self.STEP
            plus = system.at(theta + e, live)[1]
            minus = system.at(theta - e, live)[1]
            numeric[:, :, j] = -(plus - minus) / (2 * self.STEP)
        rel = np.abs(numeric - a) / np.maximum(np.abs(a), 1.0)
        assert np.max(rel) < 1e-6
        return a, z

    @pytest.mark.parametrize("kind", ["kvd", "d", "uvd", "pvd"])
    def test_stack_and_live_subset(self, kind):
        rng = np.random.default_rng(31)
        for _ in range(5):
            bs, batches, truths, priors = self.stack(rng)
            system, theta = self.systems(bs, batches, truths, priors)[kind]
            theta = theta + rng.normal(0.0, 0.5, theta.shape)
            a, z = self.assert_matches(system, theta)
            rows = 8 + (2 if kind == "pvd" else 0)
            assert a.shape == (3, rows, theta.shape[1])
            live = np.array([2, 0])
            a_live, z_live = self.assert_matches(system, theta[live], live)
            assert np.array_equal(a_live, a[live])
            assert np.array_equal(z_live, z[live])
