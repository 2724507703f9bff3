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


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Mark an array this module just created read-only, in place."""
    arr.setflags(write=False)
    return arr


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise DimensionMismatch(f"{what} must be finite")


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis: ``np.linalg.norm(x, axis=-1)``
    with the same floating-point operations, without its Python overhead."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` built from fields the
    caller made and checked itself (read-only arrays, Python scalars),
    without running its validation again."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


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
        idx = np.array(self.bs_index, dtype=int, ndmin=1)
        t = np.array(self.t, dtype=float, ndmin=1)
        rho = np.array(self.rho, dtype=float, ndmin=1)
        sigma = np.array(self.sigma, dtype=float, ndmin=1)
        if not (idx.shape == t.shape == rho.shape == sigma.shape):
            raise DimensionMismatch("batch arrays must share one length")
        if idx.size < 1:
            raise DimensionMismatch("batch must contain at least one entry")
        for arr, what in ((t, "times"), (rho, "pseudoranges")):
            _require_finite(arr, what)
        if not np.isfinite(self.t_l):
            raise DimensionMismatch("localization epoch must be finite")
        if (sigma <= 0).any() or not np.isfinite(sigma).all():
            raise DimensionMismatch("sigma must be strictly positive")
        object.__setattr__(self, "bs_index", _freeze(idx))
        object.__setattr__(self, "t", _freeze(t))
        object.__setattr__(self, "rho", _freeze(rho))
        object.__setattr__(self, "sigma", _freeze(sigma))
        object.__setattr__(self, "t_l", float(self.t_l))
        object.__setattr__(self, "dt", _freeze(t - self.t_l))

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
        p = np.array(self.p, dtype=float, ndmin=1)
        _require_finite(p, "position")
        if not (np.isfinite(self.b) and np.isfinite(self.d)):
            raise DimensionMismatch("clock terms must be finite")
        object.__setattr__(self, "p", _freeze(p))
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
        p = np.array(self.p, dtype=float, ndmin=1)
        v = np.array(self.v, dtype=float, ndmin=1)
        if p.shape != v.shape:
            raise DimensionMismatch("position and velocity dimensions differ")
        _require_finite(p, "position")
        _require_finite(v, "velocity")
        if not (np.isfinite(self.b) and np.isfinite(self.d)):
            raise DimensionMismatch("clock terms must be finite")
        object.__setattr__(self, "p", _freeze(p))
        object.__setattr__(self, "v", _freeze(v))
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


def _los(q, p, shift, eps):
    """Unit LOS vectors and distances from the UD, displaced by ``shift``
    (``v*dt`` per row), toward the BS rows ``q``, one row per measurement,
    over any leading trial axes; plus the per-window mask of UDs within
    ``eps`` of a BS, or None when there is none.  The rows of a masked
    window are finite but meaningless."""
    diff = q - p[..., None, :] - shift
    dist = _row_norms(diff)
    near = dist < eps
    degenerate = None
    if near.any():
        degenerate = near.any(axis=-1)
        dist = np.where(near, 1.0, dist)
    return diff / dist[..., None], dist, degenerate


def _los_rows(batch: MeasurementBatch, bs: BsConstellation, p, v,
              eps: float = DEFAULT_GEOMETRY_EPS):
    """Validated ``_los`` for one batch and parameter point."""
    q = _bs_rows(batch, bs)
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if p.size != bs.n_dim or v.size != bs.n_dim:
        raise DimensionMismatch("parameter dimension does not match BSs")
    los, dist, degenerate = _los(q, p, batch.dt[:, None] * v[None, :], eps)
    if degenerate is not None:
        raise DegenerateGeometry("UD coincides with a BS in this batch")
    return los, dist


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


def _stack(arrays) -> np.ndarray:
    """``np.stack(arrays)``, cheaply for a single array."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


class WhitenedSystem:
    """The weighted least-squares system of all four estimators and their
    error theory, for a stack of T windows of M measurements each: design
    rows ``[-e, 1, dt, -e*dt]`` and residuals ``rho - h``, each divided by
    its ``sigma``.  A known velocity (kvd, d) drops the velocity columns; a
    prior (pvd) appends the N rows ``[0 | R]`` with residual
    ``R (mean - v)``, ``R`` the upper Cholesky factor of the prior
    information.  Then ``A^T A = G^T W G`` and ``A^T z = G^T W r`` per
    window.

    Every array has a leading trial axis: ``bs_index``, ``dt``, ``rho`` and
    ``sigma`` are (T, M), ``v_known`` and ``prior_mean`` (T, N),
    ``prior_root`` (T, N, N).  The constructor checks what the windows
    cannot be solved without (measurement count, BS indices, velocity
    shape); ``of`` builds the stack from validated batches and priors.
    """

    def __init__(self, bs: BsConstellation, bs_index, dt, rho, sigma,
                 v_known=None, prior_root=None, prior_mean=None):
        n = bs.n_dim
        count, m = bs_index.shape
        self.n_params = 2 * n + 2 if v_known is None else n + 2
        short = self.n_params - m - (0 if prior_root is None else n)
        if short > 0:
            raise RankDeficient(f"need at least {m + short} "
                                f"measurements, got {m}")
        if bs_index.min() < 0 or bs_index.max() >= bs.n_bs:
            raise DimensionMismatch("batch references a BS index out of range")
        if v_known is not None:
            if v_known.shape != (count, n):
                raise DimensionMismatch("velocity dimension does not match BSs")
            _require_finite(v_known, "velocity")
        if prior_root is not None and prior_root.shape != (count, n, n):
            raise DimensionMismatch("prior dimension does not match BSs")
        self.n_dim = n
        self.q = bs.positions[bs_index]
        self.dt, self.rho, self.w = dt, rho, 1.0 / sigma
        self.v_known = v_known
        self.prior_root, self.prior_mean = prior_root, prior_mean
        # What every iterate shares: the whitened [1, dt] columns, the
        # prior rows and, with a known velocity, the displacements v*dt.
        rows = m + (0 if prior_root is None else n)
        self.template = np.zeros((count, rows, self.n_params))
        self.template[:, :m, n] = self.w
        self.template[:, :m, n + 1] = dt * self.w
        if prior_root is not None:
            self.template[:, m:, n + 2:] = prior_root
        self.shift = (None if v_known is None
                      else dt[..., None] * v_known[:, None, :])

    @classmethod
    def of(cls, batches, bs: BsConstellation, v_known=None, priors=None):
        """The stack of ``batches`` (one length M), with known velocities
        (T, N) or one VelocityPrior per window, or neither."""
        if v_known is not None:
            v_known = np.asarray(v_known, dtype=float)
        root = mean = None
        if priors is not None:
            if any(prior.n_dim != bs.n_dim for prior in priors):
                raise DimensionMismatch("prior dimension does not match BSs")
            weight = np.linalg.inv(_stack([pr.covariance for pr in priors]))
            root = np.linalg.cholesky(weight).mT
            mean = _stack([prior.mean for prior in priors])
        return cls(bs, _stack([b.bs_index for b in batches]),
                   _stack([b.dt for b in batches]),
                   _stack([b.rho for b in batches]),
                   _stack([b.sigma for b in batches]), v_known, root, mean)

    def at(self, theta: np.ndarray, live=None):
        """Whitened designs ``A`` (L, rows, P), residuals ``z`` (L, rows)
        and the degenerate-geometry mask (L,) or None (see ``_los``) at
        the parameter vectors ``theta`` (L, P) of the trials ``live``
        (every trial when None).  ``theta`` is the raw ``[p, b, d]`` or
        ``[p, b, d, v]``; a known velocity reads only its leading
        ``[p, b, d]``."""
        q, dt, rho, w = self.q, self.dt, self.rho, self.w
        a, shift = self.template, self.shift
        root, mean = self.prior_root, self.prior_mean
        if live is None:
            a = a.copy()
        else:
            q, dt, rho, w, a = q[live], dt[live], rho[live], w[live], a[live]
            if shift is not None:
                shift = shift[live]
            if root is not None:
                root, mean = root[live], mean[live]
        n, m = self.n_dim, dt.shape[-1]
        v = theta[:, n + 2:]
        if shift is None:
            shift = dt[..., None] * v[:, None, :]
        los, dist, degenerate = _los(q, theta[:, :n], shift,
                                     DEFAULT_GEOMETRY_EPS)
        neg_los = -los
        w_col = w[..., None]
        np.multiply(neg_los, w_col, out=a[:, :m, :n])
        if self.v_known is None:
            np.multiply(neg_los * dt[..., None], w_col, out=a[:, :m, n + 2:])
        z = (rho - (dist + theta[:, n, None] + theta[:, n + 1, None] * dt)) * w
        if root is None:
            return a, z, degenerate
        prior_z = (root @ (mean - v)[..., None])[..., 0]
        return a, np.concatenate([z, prior_z], axis=1), degenerate


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
