"""Measurement model for sequential pseudorange localization.

In a time-division broadcast positioning system the user device (UD)
receives one pseudorange per slot from synchronized base stations (BSs)
while it moves and its clock drifts.  Over a short window the UD state is
referenced to a single localization epoch ``t_L`` through position ``p``,
clock offset ``b`` (meters, propagation speed pre-multiplied), clock
drift ``d`` (meters/second) and velocity ``v``.  A measurement taken
``dt = t - t_L`` seconds from the epoch has the noise-free value::

    h = ||q - (p + v*dt)|| + b + d*dt

where ``q`` is the transmitting BS position.  This module holds the
immutable domain types plus the forward model, line-of-sight vectors,
design (Jacobian) matrices and residual vectors, and the whitened
least-squares system that the solvers and the error analysis share.

Three estimator families share this model and are referred to throughout
the package by short ids:

* ``"kvd"`` -- velocity known, estimate ``[p, b, d]``
* ``"uvd"`` -- velocity unknown, jointly estimate ``[p, b, d, v]``
* ``"pvd"`` -- Gaussian prior on velocity, MAP estimate of ``[p, b, d, v]``
* ``"d"``  -- conventional baseline: ``"kvd"`` with velocity pinned to zero
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometry, DimensionMismatch, RankDeficient

# UD closer than this to a BS (after velocity displacement) is degenerate.
DEFAULT_GEOMETRY_EPS = 1e-9

VARIANTS = ("kvd", "uvd", "pvd")


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatch(f"{what} must be finite")


@dataclass(frozen=True)
class BsConstellation:
    """Known base-station positions, one row per BS, shape (n_bs, N)."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.atleast_2d(np.array(self.positions, dtype=float))
        if pos.shape[0] < 1:
            raise DimensionMismatch("need at least one base station")
        if pos.shape[1] not in (2, 3):
            raise DimensionMismatch("positions must be 2-D or 3-D")
        _require_finite(pos, "BS positions")
        object.__setattr__(self, "positions", _frozen_array(pos))

    @property
    def n_bs(self) -> int:
        return self.positions.shape[0]

    @property
    def n_dim(self) -> int:
        return self.positions.shape[1]


@dataclass(frozen=True)
class MeasurementBatch:
    """One window of sequential pseudoranges referenced to epoch ``t_L``.

    Parallel arrays of length M: ``bs_index`` (into a BsConstellation),
    reception times ``t`` (s), pseudoranges ``rho`` (m) and per-measurement
    noise standard deviations ``sigma`` (m).  ``dt = t - t_L`` is computed
    once at construction.
    """

    bs_index: np.ndarray
    t: np.ndarray
    rho: np.ndarray
    sigma: np.ndarray
    t_l: float
    dt: np.ndarray = field(init=False)

    def __post_init__(self):
        idx = np.atleast_1d(np.array(self.bs_index, dtype=int))
        t = np.atleast_1d(np.array(self.t, dtype=float))
        rho = np.atleast_1d(np.array(self.rho, dtype=float))
        sigma = np.atleast_1d(np.array(self.sigma, dtype=float))
        if not (idx.shape == t.shape == rho.shape == sigma.shape):
            raise DimensionMismatch("batch arrays must share one length")
        if idx.size < 1:
            raise DimensionMismatch("batch must contain at least one entry")
        for arr, what in ((t, "times"), (rho, "pseudoranges")):
            _require_finite(arr, what)
        if not np.isfinite(self.t_l):
            raise DimensionMismatch("localization epoch must be finite")
        if np.any(sigma <= 0) or not np.all(np.isfinite(sigma)):
            raise DimensionMismatch("sigma must be strictly positive")
        object.__setattr__(self, "bs_index", _frozen_array(idx, dtype=int))
        object.__setattr__(self, "t", _frozen_array(t))
        object.__setattr__(self, "rho", _frozen_array(rho))
        object.__setattr__(self, "sigma", _frozen_array(sigma))
        object.__setattr__(self, "t_l", float(self.t_l))
        object.__setattr__(self, "dt", _frozen_array(t - self.t_l))

    @property
    def m(self) -> int:
        return self.bs_index.size


@dataclass(frozen=True)
class KvdParams:
    """Known-velocity parameter vector ``[p, b, d]`` (dimension N+2)."""

    p: np.ndarray
    b: float
    d: float

    def __post_init__(self):
        p = np.atleast_1d(np.array(self.p, dtype=float))
        _require_finite(p, "position")
        if not (np.isfinite(self.b) and np.isfinite(self.d)):
            raise DimensionMismatch("clock terms must be finite")
        object.__setattr__(self, "p", _frozen_array(p))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "d", float(self.d))

    @property
    def n_dim(self) -> int:
        return self.p.size

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.p, [self.b, self.d]])

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "KvdParams":
        vec = np.asarray(vec, dtype=float)
        return cls(p=vec[:-2], b=vec[-2], d=vec[-1])


@dataclass(frozen=True)
class FullParams:
    """Full parameter vector ``[p, b, d, v]`` (dimension 2N+2)."""

    p: np.ndarray
    b: float
    d: float
    v: np.ndarray

    def __post_init__(self):
        p = np.atleast_1d(np.array(self.p, dtype=float))
        v = np.atleast_1d(np.array(self.v, dtype=float))
        if p.shape != v.shape:
            raise DimensionMismatch("position and velocity dimensions differ")
        _require_finite(p, "position")
        _require_finite(v, "velocity")
        if not (np.isfinite(self.b) and np.isfinite(self.d)):
            raise DimensionMismatch("clock terms must be finite")
        object.__setattr__(self, "p", _frozen_array(p))
        object.__setattr__(self, "v", _frozen_array(v))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "d", float(self.d))

    @property
    def n_dim(self) -> int:
        return self.p.size

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.p, [self.b, self.d], self.v])

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "FullParams":
        vec = np.asarray(vec, dtype=float)
        n = (vec.size - 2) // 2
        return cls(p=vec[:n], b=vec[n], d=vec[n + 1], v=vec[n + 2:])

    def kvd_part(self) -> KvdParams:
        return KvdParams(p=self.p, b=self.b, d=self.d)


@dataclass(frozen=True)
class VelocityPrior:
    """Gaussian prior on UD velocity: mean (N,) and SPD covariance (N, N)."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.array(self.mean, dtype=float))
        cov = np.atleast_2d(np.array(self.covariance, dtype=float))
        if cov.shape != (mean.size, mean.size):
            raise DimensionMismatch("prior covariance shape must match mean")
        _require_finite(mean, "prior mean")
        _require_finite(cov, "prior covariance")
        scale = np.linalg.norm(cov)
        if np.linalg.norm(cov - cov.T) > 1e-12 * max(scale, 1.0):
            raise DimensionMismatch("prior covariance must be symmetric")
        if np.min(np.linalg.eigvalsh(cov)) <= 0:
            raise DimensionMismatch("prior covariance must be positive-definite")
        object.__setattr__(self, "mean", _frozen_array(mean))
        object.__setattr__(self, "covariance", _frozen_array(cov))

    @property
    def n_dim(self) -> int:
        return self.mean.size

    def weight(self) -> np.ndarray:
        """Inverse covariance (the velocity information block)."""
        return np.linalg.inv(self.covariance)

    @classmethod
    def isotropic(cls, mean, std: float) -> "VelocityPrior":
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        return cls(mean=mean, covariance=std * std * np.eye(mean.size))


@dataclass(frozen=True)
class WeightModel:
    """Diagonal pseudorange weights 1/sigma_i^2, optionally extended with
    the velocity-prior information block for the prior-velocity variant."""

    rho_diag: np.ndarray

    def __post_init__(self):
        diag = np.atleast_1d(np.array(self.rho_diag, dtype=float))
        if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
            raise DimensionMismatch("weights must be strictly positive")
        object.__setattr__(self, "rho_diag", _frozen_array(diag))

    @classmethod
    def from_batch(cls, batch: MeasurementBatch) -> "WeightModel":
        return cls(rho_diag=1.0 / batch.sigma**2)

    @property
    def w_rho(self) -> np.ndarray:
        """Dense M-by-M diagonal weighting matrix."""
        return np.diag(self.rho_diag)

    def w_full(self, prior: VelocityPrior) -> np.ndarray:
        """Block-diagonal (M+N)-by-(M+N) weight: pseudorange block then
        velocity-prior information block."""
        m = self.rho_diag.size
        n = prior.n_dim
        full = np.zeros((m + n, m + n))
        full[:m, :m] = self.w_rho
        full[m:, m:] = prior.weight()
        return full


@dataclass(frozen=True)
class DesignMatrix:
    """Jacobian of the measurement model, tagged by estimator variant.

    Row structure per variant ("e" is the unit LOS vector; row order
    matches the batch):

    * kvd: ``[-e, 1, dt]``                      shape (M, N+2)
    * uvd: ``[-e, 1, dt, -e*dt]``               shape (M, 2N+2)
    * pvd: uvd rows stacked over ``[0 | I_N]``  shape (M+N, 2N+2)
    """

    matrix: np.ndarray
    variant: str

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DimensionMismatch(f"unknown design variant {self.variant!r}")
        mat = np.atleast_2d(np.array(self.matrix, dtype=float))
        _require_finite(mat, "design matrix")
        cols = mat.shape[1]
        if self.variant == "kvd":
            if cols - 2 not in (2, 3):
                raise DimensionMismatch("kvd design must have N+2 columns")
        else:
            if cols % 2 or (cols - 2) // 2 not in (2, 3):
                raise DimensionMismatch("design must have 2N+2 columns")
            if self.variant == "pvd":
                n = (cols - 2) // 2
                bottom = mat[-n:, :]
                expected = np.hstack([np.zeros((n, n + 2)), np.eye(n)])
                if mat.shape[0] <= n or not np.array_equal(bottom, expected):
                    raise DimensionMismatch(
                        "pvd design must end with the [0 | I] prior block")
        object.__setattr__(self, "matrix", _frozen_array(mat))


def _bs_rows(batch: MeasurementBatch, bs: BsConstellation) -> np.ndarray:
    if np.any(batch.bs_index < 0) or np.any(batch.bs_index >= bs.n_bs):
        raise DimensionMismatch("batch references a BS index out of range")
    return bs.positions[batch.bs_index]


def predict_pseudorange(q, params: FullParams, dt: float) -> float:
    """Noise-free pseudorange from BS at ``q`` for a UD displaced by
    ``v*dt`` from its epoch position: ``||q - (p + v*dt)|| + b + d*dt``."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if q.shape != params.p.shape:
        raise DimensionMismatch("BS and UD dimensions differ")
    geometric = float(np.linalg.norm(q - params.p - params.v * dt))
    return geometric + params.b + params.d * dt


def los_vector(q, p, v, dt: float, eps: float = DEFAULT_GEOMETRY_EPS) -> np.ndarray:
    """Unit line-of-sight vector from the displaced UD toward the BS.

    Raises DegenerateGeometry when the displaced UD sits on the BS
    (distance below ``eps``).
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    diff = q - p - v * dt
    dist = np.linalg.norm(diff)
    if dist < eps:
        raise DegenerateGeometry(f"UD within {eps} m of BS at {q}")
    return diff / dist


def _los(q, dt, p, v, eps):
    """Unit LOS vectors and distances from the UD displaced by ``v*dt``
    toward the BS rows ``q``; one row per measurement."""
    diff = q - p[None, :] - dt[:, None] * v[None, :]
    dist = np.linalg.norm(diff, axis=1)
    if np.any(dist < eps):
        raise DegenerateGeometry("UD coincides with a BS in this batch")
    return diff / dist[:, None], dist


def _los_rows(batch: MeasurementBatch, bs: BsConstellation, p, v,
              eps: float = DEFAULT_GEOMETRY_EPS):
    """Validated ``_los`` for one batch and parameter point."""
    q = _bs_rows(batch, bs)
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if p.size != bs.n_dim or v.size != bs.n_dim:
        raise DimensionMismatch("parameter dimension does not match BSs")
    return _los(q, batch.dt, p, v, eps)


def _design_rows(los: np.ndarray, dt: np.ndarray, joint: bool) -> np.ndarray:
    """Design rows ``[-e, 1, dt]``, extended with ``-e*dt`` when the
    velocity is estimated (``joint``)."""
    cols = [-los, np.ones((dt.size, 1)), dt[:, None]]
    if joint:
        cols.append(-los * dt[:, None])
    return np.hstack(cols)


def predict_batch(batch: MeasurementBatch, bs: BsConstellation,
                  params: FullParams) -> np.ndarray:
    """Vector of noise-free pseudoranges for one batch (zero distance is
    legal here; only LOS computation needs separation)."""
    q = _bs_rows(batch, bs)
    if params.n_dim != bs.n_dim:
        raise DimensionMismatch("parameter dimension does not match BSs")
    diff = q - params.p[None, :] - batch.dt[:, None] * params.v[None, :]
    dist = np.linalg.norm(diff, axis=1)
    return dist + params.b + params.d * batch.dt


def build_design_kvd(batch: MeasurementBatch, bs: BsConstellation,
                     at: KvdParams, v_known,
                     eps: float = DEFAULT_GEOMETRY_EPS) -> DesignMatrix:
    """Known-velocity design: rows ``[-e, 1, dt]`` linearized at ``at``."""
    los, _ = _los_rows(batch, bs, at.p, v_known, eps)
    return DesignMatrix(matrix=_design_rows(los, batch.dt, joint=False),
                        variant="kvd")


def build_design_uvd(batch: MeasurementBatch, bs: BsConstellation,
                     at: FullParams,
                     eps: float = DEFAULT_GEOMETRY_EPS) -> DesignMatrix:
    """Joint-velocity design: rows ``[-e, 1, dt, -e*dt]``."""
    los, _ = _los_rows(batch, bs, at.p, at.v, eps)
    return DesignMatrix(matrix=_design_rows(los, batch.dt, joint=True),
                        variant="uvd")


def build_design_pvd(batch: MeasurementBatch, bs: BsConstellation,
                     at: FullParams,
                     eps: float = DEFAULT_GEOMETRY_EPS) -> DesignMatrix:
    """Prior-velocity design: joint rows stacked over the ``[0 | I]``
    prior block."""
    top = build_design_uvd(batch, bs, at, eps).matrix
    n = bs.n_dim
    bottom = np.hstack([np.zeros((n, n + 2)), np.eye(n)])
    return DesignMatrix(matrix=np.vstack([top, bottom]), variant="pvd")


class WhitenedSystem:
    """The weighted least-squares system of all four estimators and their
    error theory: design rows ``[-e, 1, dt, -e*dt]`` and residuals
    ``rho - h``, each divided by its ``sigma``.  A known velocity (kvd, d)
    drops the velocity columns; a prior (pvd) appends the N rows ``[0 | R]``
    with residual ``R (mean - v)``, ``R`` the upper Cholesky factor of the
    prior information.  Then ``A^T A = G^T W G`` and ``A^T z = G^T W r``.

    Inputs are validated once, here; ``at`` takes the raw vector
    ``[p, b, d]`` or ``[p, b, d, v]`` and checks nothing.
    """

    def __init__(self, batch: MeasurementBatch, bs: BsConstellation,
                 v_known=None, prior: VelocityPrior | None = None):
        n = bs.n_dim
        self.n_params = 2 * n + 2 if v_known is None else n + 2
        short = self.n_params - batch.m - (0 if prior is None else n)
        if short > 0:
            raise RankDeficient(f"need at least {batch.m + short} "
                                f"measurements, got {batch.m}")
        self.batch, self.n_dim, self.prior = batch, n, prior
        self.q = _bs_rows(batch, bs)
        self.w = 1.0 / batch.sigma
        if v_known is not None:
            v_known = np.asarray(v_known, dtype=float)
            if v_known.shape != (n,):
                raise DimensionMismatch("velocity dimension does not match BSs")
            _require_finite(v_known, "velocity")
        self.v_known = v_known
        if prior is not None:
            if prior.n_dim != n:
                raise DimensionMismatch("prior dimension does not match BSs")
            self.prior_root = np.linalg.cholesky(prior.weight()).T
            self.prior_rows = np.hstack([np.zeros((n, n + 2)),
                                         self.prior_root])

    def at(self, theta: np.ndarray):
        """Whitened design ``A`` and residual ``z`` at ``theta``."""
        n, batch = self.n_dim, self.batch
        joint = self.v_known is None
        v = theta[n + 2:] if joint else self.v_known
        los, dist = _los(self.q, batch.dt, theta[:n], v, DEFAULT_GEOMETRY_EPS)
        a = _design_rows(los, batch.dt, joint) * self.w[:, None]
        z = (batch.rho - (dist + theta[n] + theta[n + 1] * batch.dt)) * self.w
        if self.prior is None:
            return a, z
        return (np.vstack([a, self.prior_rows]),
                np.concatenate([z, self.prior_root @ (self.prior.mean - v)]))


def residual(batch: MeasurementBatch, bs: BsConstellation, at,
             v_known=None, prior: VelocityPrior | None = None) -> np.ndarray:
    """Residual vector at the linearization point ``at``.

    KvdParams + v_known -> ``rho - h`` (length M); FullParams alone ->
    ``rho - h`` with the params' own velocity; FullParams + prior ->
    stacked ``[rho - h, mean - v]`` (length M+N).
    """
    if isinstance(at, KvdParams):
        if v_known is None:
            raise DimensionMismatch("known-velocity residual needs v_known")
        if prior is not None:
            raise DimensionMismatch("prior is not part of the kvd residual")
        full = FullParams(p=at.p, b=at.b, d=at.d, v=v_known)
        return batch.rho - predict_batch(batch, bs, full)
    if isinstance(at, FullParams):
        if v_known is not None:
            raise DimensionMismatch("v_known conflicts with joint estimation")
        top = batch.rho - predict_batch(batch, bs, at)
        if prior is None:
            return top
        if prior.n_dim != at.n_dim:
            raise DimensionMismatch("prior dimension does not match params")
        return np.concatenate([top, prior.mean - at.v])
    raise DimensionMismatch(f"unsupported parameter type {type(at)!r}")
