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
immutable domain types and ``WhitenedSystem``, the one forward model and
Jacobian, which the solvers and the error analysis share; the designs,
residuals and predictions of one batch (``build_design_*``, ``residual``,
``predict_batch``) are that system with unit noise levels.

Three estimator families share this model and are referred to throughout
the package by short ids:

* ``"kvd"`` -- velocity known, estimate ``[p, b, d]``
* ``"uvd"`` -- velocity unknown, jointly estimate ``[p, b, d, v]``
* ``"pvd"`` -- Gaussian prior on velocity, MAP estimate of ``[p, b, d, v]``
* ``"d"``  -- conventional baseline: ``"kvd"`` with velocity pinned to zero
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegenerateGeometry, DimensionMismatch

# UD closer than this to a BS (after velocity displacement) is degenerate.
DEFAULT_GEOMETRY_EPS = 1e-9

VARIANTS = ("kvd", "uvd", "pvd")


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Mark an array this module just created read-only, in place."""
    arr.setflags(write=False)
    return arr


def _diagonal(values, shape: tuple) -> np.ndarray:
    """Matrices of ``shape`` (..., n, n) with ``values`` (a number or
    (..., n)) on the diagonal and +0.0 elsewhere: for non-negative finite
    values, bit for bit ``values[..., None] * np.eye(n)``."""
    n = shape[-1]
    out = np.zeros(shape[:-2] + (n * n,))
    out[..., ::n + 1] = values
    return out.reshape(shape)


def _all_finite(arr: np.ndarray) -> bool:
    """``np.isfinite(arr).all()``, by ``np.count_nonzero``, which skips
    the Python wrapper of the ``all`` method that dominates the cost on a
    window's arrays."""
    return np.count_nonzero(np.isfinite(arr)) == arr.size


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not _all_finite(arr):
        raise DimensionMismatch(f"{what} must be finite")


def _require_velocity(v: np.ndarray, shape: tuple) -> None:
    if v.shape != shape:
        raise DimensionMismatch("velocity dimension does not match BSs")
    _require_finite(v, "velocity")


def _require_sigma(sigma: np.ndarray, error=DimensionMismatch) -> None:
    """Raise ``error`` unless every noise level in the non-empty ``sigma``
    is positive with a finite, non-zero square (the variance), hence
    reciprocal (the whitening weight): about 1.5e-162 to 1.3e154 m.  The
    extremes decide, as squaring is monotone (NaN if any level is NaN);
    they are squared as Python floats, which never warn."""
    low = float(np.minimum.reduce(sigma, axis=None))
    high = float(np.maximum.reduce(sigma, axis=None))
    if not (low > 0 and low * low > 0 and high * high < np.inf):
        raise error("sigma must be strictly positive, with a finite "
                    "non-zero square and reciprocal")


def prior_variance(std, error=DimensionMismatch) -> float:
    """The variance ``std * std`` of the per-axis velocity-prior width
    ``std``; raises ``error`` unless ``std`` is positive, with a finite,
    non-zero variance and inverse (the prior information)."""
    var = float(std) * float(std)
    if not (std > 0 and 0 < var < np.inf and 0 < 1 / var < np.inf):
        raise error("prior_std must be positive, with a finite non-zero "
                    "variance and inverse")
    return var


def parameter_count(n_dim: int, velocity_known: bool) -> int:
    """The length of the parameter vector: ``[p, b, d]`` (N+2) when the
    velocity is known, else ``[p, b, d, v]`` (2N+2)."""
    return n_dim + 2 if velocity_known else 2 * n_dim + 2


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis: ``np.linalg.norm(x, axis=-1)``
    with the same floating-point operations, without its Python overhead."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _trusted(cls, **fields):
    """An instance of the validated dataclass ``cls`` (MeasurementBatch,
    the params, VelocityPrior) built from fields the caller made and
    checked itself (read-only arrays, Python scalars), without running
    its ``__post_init__`` again."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _trusted_params(vec: np.ndarray, n_dim: int):
    """KvdParams ``[p, b, d]`` or FullParams ``[p, b, d, v]`` over a
    read-only row ``vec`` that the caller checked finite."""
    b, d = vec.item(n_dim), vec.item(n_dim + 1)
    if vec.size == n_dim + 2:
        return _trusted(KvdParams, p=vec[:n_dim], b=b, d=d)
    return _trusted(FullParams, p=vec[:n_dim], b=b, d=d, v=vec[n_dim + 2:])


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
        object.__setattr__(self, "positions", _freeze(pos))

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
    once at construction.  A solve of the batch keeps its window set-up
    on it, outside the fields (``solvers._window_set_up``).
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
        if idx.ndim != 1:
            raise DimensionMismatch("batch arrays must be one-dimensional")
        if idx.size < 1:
            raise DimensionMismatch("batch must contain at least one entry")
        for arr, what in ((t, "times"), (rho, "pseudoranges")):
            _require_finite(arr, what)
        if not np.isfinite(self.t_l):
            raise DimensionMismatch("localization epoch must be finite")
        _require_sigma(sigma)
        t_l = float(self.t_l)
        with np.errstate(over="ignore"):
            dt = t - t_l
        _require_finite(dt, "times from the epoch")
        for arr in (idx, t, rho, sigma, dt):
            arr.setflags(write=False)
        self.__dict__.update(bs_index=idx, t=t, rho=rho, sigma=sigma,
                             t_l=t_l, dt=dt)

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
class FullParams(KvdParams):
    """Full parameter vector ``[p, b, d, v]`` (dimension 2N+2): the
    known-velocity ``[p, b, d]`` and the velocity."""

    v: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        v = np.array(self.v, dtype=float, ndmin=1)
        if self.p.shape != v.shape:
            raise DimensionMismatch("position and velocity dimensions differ")
        _require_finite(v, "velocity")
        object.__setattr__(self, "v", _freeze(v))

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
        # Largest magnitudes, not Frobenius norms: squares overflow first.
        scale = np.abs(cov).max()
        if np.abs(cov - cov.T).max() > 1e-12 * max(scale, 1.0):
            raise DimensionMismatch("prior covariance must be symmetric")
        if np.min(np.linalg.eigvalsh(cov)) <= 0:
            raise DimensionMismatch("prior covariance must be positive-definite")
        object.__setattr__(self, "mean", _freeze(mean))
        object.__setattr__(self, "covariance", _freeze(cov))

    @property
    def n_dim(self) -> int:
        return self.mean.size

    def weight(self) -> np.ndarray:
        """Inverse covariance (the velocity information block)."""
        return np.linalg.inv(self.covariance)

    @classmethod
    def isotropic(cls, mean, std: float) -> "VelocityPrior":
        """Prior of per-axis standard deviation ``std`` around ``mean``
        (see ``prior_variance``).  The covariance is diagonal and positive
        by construction, so only the mean is checked."""
        var = prior_variance(std)
        mean = _freeze(np.array(mean, dtype=float, ndmin=1))
        _require_finite(mean, "prior mean")
        return _trusted(cls, mean=mean,
                        covariance=_freeze(_diagonal(var, (mean.size,) * 2)))


class WindowStack(NamedTuple):
    """T windows of M measurements as stacked arrays: ``bs_index``, ``t``,
    ``rho``, ``sigma`` and ``dt`` (T, M), epochs ``t_l`` (T,)."""

    bs_index: np.ndarray
    t: np.ndarray
    rho: np.ndarray
    sigma: np.ndarray
    t_l: np.ndarray
    dt: np.ndarray

    @classmethod
    def of(cls, batches) -> "WindowStack":
        """The stack of validated ``batches`` of one length."""
        if len(batches) == 1:
            (batch,) = batches
            return cls(batch.bs_index[None], batch.t[None], batch.rho[None],
                       batch.sigma[None], np.array([batch.t_l]),
                       batch.dt[None])
        return cls(np.stack([batch.bs_index for batch in batches]),
                   np.stack([batch.t for batch in batches]),
                   np.stack([batch.rho for batch in batches]),
                   np.stack([batch.sigma for batch in batches]),
                   np.array([batch.t_l for batch in batches]),
                   np.stack([batch.dt for batch in batches]))

    def batch(self, k: int) -> MeasurementBatch:
        """Window ``k`` as a MeasurementBatch over read-only rows of the
        stack, which was validated as a whole."""
        return _trusted(MeasurementBatch, bs_index=self.bs_index[k],
                        t=self.t[k], rho=self.rho[k], sigma=self.sigma[k],
                        t_l=float(self.t_l[k]), dt=self.dt[k])


class PriorRows(NamedTuple):
    """The prior rows of ``WhitenedSystem`` for T windows: the upper
    Cholesky factors ``R`` of the prior informations (T, N, N) (see
    ``information_root``) and the prior means (T, N)."""

    root: np.ndarray
    mean: np.ndarray


def information_root(covariance: np.ndarray) -> np.ndarray:
    """The upper Cholesky factors ``R`` (..., N, N) of the informations of
    SPD covariances (..., N, N), ``R^T R = inv(covariance)``: for diagonal
    covariances ``diag(sqrt(1 / var))``, bit for bit what the dense
    ``cholesky(inv(covariance)).mT`` gives, which the others take."""
    var = covariance.diagonal(axis1=-2, axis2=-1)
    # An SPD diagonal is positive: no other non-zero means diagonal.
    if np.count_nonzero(covariance) == var.size:
        return _diagonal(np.sqrt(1.0 / var), covariance.shape)
    return np.linalg.cholesky(np.linalg.inv(covariance)).mT


def prior_rows(priors, n_dim: int) -> PriorRows:
    """The PriorRows of one VelocityPrior per window."""
    if any(prior.n_dim != n_dim for prior in priors):
        raise DimensionMismatch("prior dimension does not match BSs")
    if len(priors) == 1:
        return PriorRows(information_root(priors[0].covariance)[None],
                         priors[0].mean[None])
    return PriorRows(
        information_root(np.stack([prior.covariance for prior in priors])),
        np.stack([prior.mean for prior in priors]))


class _WindowPart(NamedTuple):
    """What a ``WhitenedSystem`` holds whatever its estimator, from its
    windows and constellation alone: the dimension and window length, the
    transmitting BS rows ``q`` (T, M, N), ``dt``, ``rho`` and the weights
    ``w = 1 / sigma`` (T, M), the per-row factors ``dt_col`` and ``neg_w``
    (T, M, 1) and the whitened clock columns ``[w, dt*w]`` (T, M, 2)."""

    n_dim: int
    m: int
    q: np.ndarray
    dt: np.ndarray
    rho: np.ndarray
    w: np.ndarray
    dt_col: np.ndarray
    neg_w: np.ndarray
    clock: np.ndarray


def _window_part(bs: BsConstellation, windows: WindowStack) -> _WindowPart:
    """The window part of the WhitenedSystem of ``windows`` against ``bs``;
    raises DimensionMismatch for a BS index out of range.  Runs under the
    caller's error state, which must ignore overflow and invalid."""
    bs_index, dt = windows.bs_index, windows.dt
    count, m = bs_index.shape
    index = bs_index.tolist()[0] if count == 1 else None
    if ((min(index) < 0 or max(index) >= bs.n_bs) if count == 1 else
            (np.minimum.reduce(bs_index, axis=None) < 0
             or np.maximum.reduce(bs_index, axis=None) >= bs.n_bs)):
        raise DimensionMismatch("batch references a BS index out of range")
    w = 1.0 / windows.sigma
    clock = np.empty((count, m, 2))
    clock[..., 0] = w
    np.multiply(dt, w, out=clock[..., 1])
    # Per-row factors of the design, (T, M, 1): (-e) * w == e * (-w).
    return _WindowPart(bs.n_dim, m, bs.positions.take(bs_index, axis=0), dt,
                       windows.rho, w, dt[..., None], -w[..., None], clock)


class WhitenedSystem:
    """The weighted least-squares system of all four estimators and their
    error theory, for a stack of T windows of M measurements each: design
    rows ``[-e, 1, dt, -e*dt]`` and residuals ``rho - h``, each divided by
    its ``sigma``.  A known velocity (kvd, d) drops the velocity columns; a
    prior (pvd) appends the N rows ``[0 | R]`` with residual
    ``R (mean - v)``, ``R`` the upper Cholesky factor of the prior
    information.  Then ``A^T A = G^T W G`` and ``A^T z = G^T W r`` per
    window.

    Every array has a leading trial axis: ``window`` is the
    ``_window_part`` of T windows of M rows, ``v_known`` is (T, N) and
    ``priors`` are PriorRows; ``of`` builds all three from batches.  The
    constructor raises only for a malformed call: a velocity or prior of
    the wrong shape, or both.  A window's numbers never fail the stack:
    whitened columns that overflow are stored as NaN, and a known velocity
    that is not finite turns the LOS rows NaN, so the SVD gives that
    window NaN singular values and the solvers' rank rule (which also
    counts measurements) fails it alone.  The constructor and ``at`` run
    under their caller's error state, which must ignore overflow and
    invalid (``0 * inf`` at the epoch row); ``of`` sets its own.

    ``v_start`` (T, N) is where a solve starts the free velocity: the
    prior means with a prior, else zero; None when the velocity is known.
    """

    def __init__(self, window: _WindowPart, v_known=None,
                 priors: PriorRows | None = None):
        (n, m, self.q, self.dt, self.rho, self.w, self.dt_col, self.neg_w,
         clock) = window
        count = len(clock)
        prior_root, prior_mean = (None, None) if priors is None else priors
        self.n_params = parameter_count(n, v_known is not None)
        if v_known is not None and v_known.shape != (count, n):
            raise DimensionMismatch("velocity dimension does not match BSs")
        if v_known is not None and prior_root is not None:
            raise DimensionMismatch("a known velocity takes no prior")
        if prior_root is not None and (prior_root.shape != (count, n, n)
                                       or prior_mean.shape != (count, n)):
            raise DimensionMismatch("prior dimension does not match BSs")
        self.n_dim, self.m = n, m
        self.v_known = v_known
        self.prior_root, self.prior_mean = prior_root, prior_mean
        self.v_start = (None if v_known is not None
                        else np.zeros((count, n)) if prior_root is None
                        else prior_mean)
        # What every iterate shares: the whitened [1, dt] columns, the
        # prior rows and, with a known velocity, the displacements v*dt.
        rows = m + (0 if prior_root is None else n)
        self.template = np.zeros((count, rows, self.n_params))
        self.template[:, :m, n:n + 2] = clock
        self.shift = (None if v_known is None
                      else self.dt_col * v_known[:, None, :])
        if prior_root is not None:
            self.template[:, m:, n + 2:] = prior_root
        # NaN, not inf: the SVD rejects a NaN design quietly, but OpenBLAS
        # prints a DLASCL message on a design holding inf alone.
        if not _all_finite(self.template):
            self.template[~np.isfinite(self.template)] = np.nan

    @classmethod
    @np.errstate(over="ignore", invalid="ignore")
    def of(cls, batches, bs: BsConstellation, v_known=None, priors=None):
        """The stack of ``batches`` (one length M), with known velocities
        (T, N) or one VelocityPrior per window, or neither."""
        return cls(_window_part(bs, WindowStack.of(batches)),
                   None if v_known is None else np.asarray(v_known, float),
                   None if priors is None else prior_rows(priors, bs.n_dim))

    def at(self, theta: np.ndarray, live=None, residual: bool = True):
        """Whitened designs ``A`` (L, rows, P), residuals ``z`` (L, rows)
        (None without ``residual``) and the mask (L,) of windows with the
        displaced UD within DEFAULT_GEOMETRY_EPS of a BS (finite but
        meaningless LOS rows), or None, at the raw ``[p, b, d]`` or
        ``[p, b, d, v]`` vectors ``theta`` (L, P) of the trials ``live``
        (every trial when None); a known velocity reads only the leading
        ``[p, b, d]``."""
        q, dt, rho, w = self.q, self.dt, self.rho, self.w
        dt_col, neg_w = self.dt_col, self.neg_w
        a, shift = self.template, self.shift
        root, mean = self.prior_root, self.prior_mean
        if live is None:
            a = a.copy()
        else:
            q, dt, rho, w, a = q[live], dt[live], rho[live], w[live], a[live]
            dt_col, neg_w = dt_col[live], neg_w[live]
            if shift is not None:
                shift = shift[live]
            if root is not None:
                root, mean = root[live], mean[live]
        n, m = self.n_dim, self.m
        if shift is None:
            shift = dt_col * theta[:, None, n + 2:]
        diff = q - theta[:, None, :n] - shift
        dist = safe = _row_norms(diff)
        degenerate = None
        # The gate may drop a NaN (Python's min of one window, numpy's
        # fmin); a window holding a NaN distance is never degenerate: its
        # design is not finite, which the rank rule reports first.
        if (min(dist.tolist()[0]) if len(dist) == 1
                else np.fmin.reduce(dist, axis=None)) < DEFAULT_GEOMETRY_EPS:
            near = ((dist < DEFAULT_GEOMETRY_EPS)
                    & ~np.isnan(dist).any(axis=-1, keepdims=True))
            if near.any():
                degenerate = near.any(axis=-1)
                safe = np.where(near, 1.0, dist)
        los = diff / safe[..., None]
        np.multiply(los, neg_w, out=a[:, :m, :n])
        if self.v_known is None:
            np.multiply(los * dt_col, neg_w, out=a[:, :m, n + 2:])
        if not residual:
            return a, None, degenerate
        # The clock terms: for one window Python floats, which broadcast
        # at less cost than (1, 1) columns, with the same products and sums.
        b, d = ((theta.item(n), theta.item(n + 1)) if len(theta) == 1
                else (theta[:, n, None], theta[:, n + 1, None]))
        z = (rho - (dist + b + d * dt)) * w
        if root is None:
            return a, z, degenerate
        prior_z = (root @ (mean - theta[:, n + 2:])[..., None])[..., 0]
        return a, np.concatenate([z, prior_z], axis=1), degenerate


@np.errstate(over="ignore", invalid="ignore")
def _unwhitened(batch: MeasurementBatch, bs: BsConstellation, at,
                v_known=None, prior_mean=None, rho: bool = True):
    """``WhitenedSystem.at`` for the one window ``batch`` at the params
    ``at`` with every ``sigma`` set to 1, so that nothing is whitened: the
    design rows, the residual ``rho - h`` (``-h`` without ``rho``) and
    whether the UD sits on a BS.  ``prior_mean`` appends the prior rows
    ``[0 | I]`` with residual ``prior_mean - v``.  A range that overflows
    float64 is infinite, without a warning, and leaves a zero LOS row."""
    windows = WindowStack.of([batch])._replace(sigma=np.ones((1, batch.m)))
    if not rho:
        windows = windows._replace(rho=np.zeros((1, batch.m)))
    priors = (None if prior_mean is None
              else PriorRows(np.eye(bs.n_dim)[None], prior_mean[None]))
    if v_known is not None:
        v_known = np.asarray(v_known, dtype=float)[None]
        _require_velocity(v_known, (1, bs.n_dim))
    system = WhitenedSystem(_window_part(bs, windows), v_known, priors)
    theta = at.as_vector()[None]
    if theta.shape[1:] != (system.n_params,):
        raise DimensionMismatch("parameters do not match the estimator")
    a, z, degenerate = system.at(theta)
    return a[0], z[0], degenerate is not None


def predict_batch(batch: MeasurementBatch, bs: BsConstellation,
                  params: FullParams) -> np.ndarray:
    """Vector of noise-free pseudoranges for one batch (zero distance is
    legal here; only LOS computation needs separation)."""
    return -_unwhitened(batch, bs, params, rho=False)[1]


def residual(batch: MeasurementBatch, bs: BsConstellation, at,
             v_known=None, prior: VelocityPrior | None = None) -> np.ndarray:
    """Residual vector at the linearization point ``at``.

    KvdParams + v_known -> ``rho - h`` (length M); FullParams alone ->
    ``rho - h`` with the params' own velocity; FullParams + prior ->
    stacked ``[rho - h, mean - v]`` (length M+N).
    """
    return _unwhitened(batch, bs, at, v_known,
                       None if prior is None else prior.mean)[1]


def _design(batch: MeasurementBatch, bs: BsConstellation, at, variant: str,
            v_known=None) -> np.ndarray:
    a, _, degenerate = _unwhitened(
        batch, bs, at, v_known,
        np.zeros(bs.n_dim) if variant == "pvd" else None)
    if degenerate:
        raise DegenerateGeometry("UD coincides with a BS in this batch")
    # A range that overflows leaves a zero LOS row, not a finite design.
    if not (_all_finite(a) and np.all(_row_norms(a[:batch.m, :bs.n_dim]))):
        raise DimensionMismatch("design matrix must be finite")
    return a


def build_design_kvd(batch: MeasurementBatch, bs: BsConstellation,
                     at: KvdParams, v_known) -> np.ndarray:
    """Known-velocity design (M, N+2) linearized at ``at``: rows
    ``[-e, 1, dt]``, ``e`` the unit LOS vector, in the batch's order."""
    return _design(batch, bs, at, "kvd", v_known)


def build_design_uvd(batch: MeasurementBatch, bs: BsConstellation,
                     at: FullParams) -> np.ndarray:
    """Joint-velocity design (M, 2N+2): rows ``[-e, 1, dt, -e*dt]``."""
    return _design(batch, bs, at, "uvd")


def build_design_pvd(batch: MeasurementBatch, bs: BsConstellation,
                     at: FullParams) -> np.ndarray:
    """Prior-velocity design (M+N, 2N+2): the joint rows stacked over the
    ``[0 | I_N]`` prior block."""
    return _design(batch, bs, at, "pvd")
