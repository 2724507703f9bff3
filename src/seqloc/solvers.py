"""Iterative weighted-least-squares position solvers.

All four estimators run one Gauss-Newton loop over the whitened system of
``model.WhitenedSystem``: known-velocity and drift-only solves drop the
velocity columns, the MAP solve appends the velocity-prior rows.  Each
step solves ``A step = z`` through the SVD ``A = U S V^T`` of the whitened
design rather than by inverting the normal matrix, which keeps the
delta-prior limit of the MAP variant well-conditioned; the reported
covariance is ``V S^-2 V^T`` at the final iterate.  Every factorization
(each step, the final covariance and the error theory's designs, all
through ``rank_rule``) goes through ``_svd``: numpy's LAPACK SVD gufunc,
called bare.  It gives ``np.linalg.svd``'s bits without the wrapper's
per-call dispatch, which on one 8-by-4 design costs about half as much
again as the factorization, and NaN factors for a matrix LAPACK rejects.

The loop (``solve_stack``) runs on a stack of windows with numpy's
stacked ``svd``/``matmul``; a window that fails or converges leaves the
stack through a mask.  The Monte Carlo harness passes a design family,
the public ``solve_*`` a stack of one.  Both run the same loop and the
same floating-point operations; only the happy-path guards (rank rule,
loop exit, and the BS index and UD-on-a-BS tests of ``WhitenedSystem``)
depend on the size: a stack of one window compares Python numbers, which
costs less than numpy reductions on a few values, a larger stack reduces
with ufuncs, and NaN, +0.0 and -0.0 take the same branch either way.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (DegenerateGeometry, DimensionMismatch, Diverged,
                     RankDeficient)
# build_design_* and residual are unused here but stay bound in this
# namespace: perfbench/tracer.py patches them by module path.
from .model import (  # noqa: F401
    BsConstellation,
    FullParams,
    KvdParams,
    MeasurementBatch,
    VelocityPrior,
    WhitenedSystem,
    _all_finite,
    _freeze,
    _require_finite,
    _require_velocity,
    _row_norms,
    _trusted_params,
    build_design_kvd,
    build_design_pvd,
    build_design_uvd,
    parameter_count,
    residual,
)

# Condition-number cap on the whitened design matrix.  Beyond this the
# float64 solve carries no usable digits, so we refuse.
MAX_DESIGN_CONDITION = 1e12


@dataclass(frozen=True)
class SolverConfig:
    """Gauss-Newton iteration limits: stop after ``max_iter`` updates or
    once the step norm drops below ``threshold``; abort with Diverged if a
    step exceeds ``divergence_guard``."""

    max_iter: int = 20
    threshold: float = 1e-3
    divergence_guard: float = 1e6

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.threshold <= 0 or self.divergence_guard <= 0:
            raise ValueError("threshold and divergence_guard must be positive")


class EstimateReport(NamedTuple):
    """Solver output: final parameters, iteration count, convergence flag,
    the covariance ``V S^-2 V^T = (G^T W G)^-1`` from the SVD of the
    whitened design at the final iterate, and the last step norm."""

    params: KvdParams | FullParams
    iterations: int
    converged: bool
    covariance: np.ndarray
    final_step_norm: float


# np.linalg.svd's gufuncs, bound here so that a numpy without them fails
# at import, not inside a solve.
_SVD_USV, _SVD_S = _umath_linalg.svd_s, _umath_linalg.svd


def _svd(a: np.ndarray, compute_uv: bool = True):
    """``np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)`` of
    a float64 stack by the same gufunc, under the caller's error state; a
    matrix LAPACK rejects gets NaN factors, and the invalid flag is set."""
    if compute_uv:
        return _SVD_USV(a, signature="d->ddd")
    return _SVD_S(a, signature="d->d")


# Whitened columns that overflow (times, a prior), or a UD so far out
# that its distances to the BSs overflow: the design holds NaN.
_OVERFLOWED_DESIGN = ("the whitened design overflows: measurements or times "
                      "too large, or too tight a prior")
# An information A^T A that float64 cannot hold (``rank_rule``: a design
# whose largest singular value squares to inf, a noise level below about
# 1e-154 m) or whose inverse rounding leaves indefinite (the error theory).
_INDEFINITE = "Fisher information is not positive-definite"


def rank_rule(a: np.ndarray, failures: list, trials, degenerate=None,
              m: int | None = None, compute_uv: bool = True):
    """The one rule a whitened design must pass before it is used.

    Factors the designs ``a`` (L, rows, P) of the windows ``trials`` and
    sets ``failures[k]`` once for each window ``k`` that cannot determine
    its parameters, to the first of:

    * fewer rows than parameters (RankDeficient, counted in measurements:
      ``m`` of the rows are pseudoranges, every row when None);
    * a design LAPACK rejects, whose singular values ``_svd`` gives NaN:
      DimensionMismatch when it is not finite (an overflowed window holds
      NaN, never inf alone, on which OpenBLAS prints a DLASCL message),
      else RankDeficient as below;
    * a UD on a BS, where ``degenerate`` (DegenerateGeometry);
    * a condition number beyond MAX_DESIGN_CONDITION, or a zero,
      negative-zero or NaN smallest singular value (RankDeficient);
    * a largest singular value that squares to inf, so that float64 holds
      neither ``A^T A`` nor ``V S^-2 V^T`` (RankDeficient, _INDEFINITE).

    Returns the mask of the usable windows (None when every window is)
    and their SVD ``(U, S, V^T)``, or ``S`` alone without ``compute_uv``.
    Runs under the caller's error state, which must ignore every flag.
    """
    rows, params = a.shape[-2:]
    svd = _svd(a, compute_uv)
    s = svd[1] if compute_uv else svd
    if rows >= params and degenerate is None:
        if len(s) == 1:  # Python floats (see the module docstring)
            first, last = s.item(0), s.item(-1)
            if (last > 0 and first / last <= MAX_DESIGN_CONDITION
                    and first * first < np.inf):
                return None, svd
        elif (np.minimum.reduce(s[:, -1]) > 0 and np.maximum.reduce(
                s[:, 0] / s[:, -1]) <= MAX_DESIGN_CONDITION):
            first = np.maximum.reduce(s[:, 0]).item()  # a Python float
            if first * first < np.inf:
                return None, svd
    first, last = s[:, 0], s[:, -1]
    broken = np.isnan(last) & ~np.isfinite(a).all(axis=(1, 2))
    conditioned = (last > 0) & (first / last <= MAX_DESIGN_CONDITION)
    held = first * first < np.inf
    m = rows if m is None else m
    keep = np.ones(len(a), dtype=bool)
    for mask, error, message in (
            (np.full(len(a), rows < params), RankDeficient,
             f"need at least {m + params - rows} measurements, got {m}"),
            (broken, DimensionMismatch, _OVERFLOWED_DESIGN),
            (degenerate, DegenerateGeometry,
             "UD coincides with a BS in this batch"),
            (~conditioned, RankDeficient,
             "whitened design matrix is rank-deficient"),
            (~held, RankDeficient, _INDEFINITE)):
        if mask is not None:
            for k in np.asarray(trials)[keep & mask].tolist():
                failures[k] = error(message)
            keep &= ~mask
    return keep, (tuple(x[keep] for x in svd) if compute_uv else s[keep])


@np.errstate(all="ignore")
def wls_step(g, w, r) -> np.ndarray:
    """One weighted-least-squares step ``(G^T W G)^-1 G^T W r`` for a
    dense weight ``W``: the design is whitened by the upper Cholesky
    factor ``B`` of ``W`` (``B^T B = W``) and solved through its SVD under
    the solvers' ``rank_rule``, whose failure is raised.  A design that is
    not finite, before or after whitening, fails with DimensionMismatch
    (LAPACK may never return from the SVD of a matrix holding inf), and
    so does a residual that is not finite."""
    g, r = np.asarray(g, dtype=float), np.asarray(r, dtype=float)
    _require_finite(g, "design matrix")
    _require_finite(r, "residual")
    root = np.linalg.cholesky(np.asarray(w, dtype=float)).T
    a = root @ g
    _require_finite(a, "whitened design matrix")
    failures = [None]
    _, (u, s, vt) = rank_rule(a[None], failures, [0])
    if failures[0] is not None:
        raise failures[0]
    return vt[0].T @ ((u[0].T @ (root @ r)) / s[0])


# Pseudoranges so large that their mean range mismatch, the initial clock
# offset, overflows float64.
_OVERFLOWED_START = "pseudoranges too large: the initial clock offset overflows"


def _centroid(positions: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Mean of the BS ``positions`` that the window ``row`` hears, each
    once, in index order: ``positions[np.unique(row)].mean(axis=0)`` with
    the same floating-point operations."""
    if len(set(row.tolist())) < len(positions):  # not every BS is heard
        positions = positions.compress(
            np.bincount(row, minlength=len(positions)) > 0, axis=0)
    return np.add.reduce(positions, axis=0) / float(len(positions))


@np.errstate(over="ignore")
def initial_vectors(bs: BsConstellation, bs_index: np.ndarray,
                    rho: np.ndarray, v0: np.ndarray | None = None,
                    q: np.ndarray | None = None) -> np.ndarray:
    """Deterministic geometry-aware starts ``[p, b, d]`` (T, N+2) for the
    windows ``bs_index``/``rho`` (T, M), whose BS indices are in range:
    the centroid of the BSs each window hears, the offset from the mean
    range mismatch, zero drift; extended with the velocities ``v0``
    (T, N) to ``[p, b, d, v]`` when given; ``q`` are the measurements' BS
    rows when gathered.  The offset of a window whose pseudoranges
    overflow that mean is infinite."""
    n = bs.n_dim
    theta = np.zeros((len(rho), parameter_count(n, v0 is None)))
    if len(bs_index) == 1 or (bs_index == bs_index[0]).all():
        theta[:, :n] = _centroid(bs.positions, bs_index[0])
    else:
        theta[:, :n] = [_centroid(bs.positions, row) for row in bs_index]
    ranges = _row_norms((bs.positions.take(bs_index, axis=0) if q is None
                         else q) - theta[:, None, :n])
    # np.mean over the last axis, without its Python overhead
    np.divide(np.add.reduce(rho - ranges, axis=-1), float(rho.shape[-1]),
              out=theta[:, n])
    if v0 is not None:
        theta[:, n + 2:] = v0
    return theta


class StackSolution(NamedTuple):
    """Gauss-Newton outcome of a stack of T windows: final parameter
    vectors (T, P), iteration counts, convergence flags, last step norms,
    covariances ``V S^-2 V^T`` (T, P, P), and per window None or the
    SeqlocError that ended it (its other entries are then meaningless, and
    it is not converged).
    ``theta`` and ``covariance`` are read-only."""

    theta: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    step_norm: np.ndarray
    covariance: np.ndarray
    failures: list


@np.errstate(all="ignore")
def solve_stack(system: WhitenedSystem, theta: np.ndarray,
                cfg: SolverConfig = SolverConfig()) -> StackSolution:
    """The one Gauss-Newton loop, run on a stack of windows from the
    initial vectors ``theta`` (T, P).

    A window leaves the loop when its step norm drops below the threshold
    (converged), at the iteration cap (not converged), or when it fails:
    a start that is not finite (DimensionMismatch: ``initial_vectors``
    overflowed on its pseudoranges), a design that fails the
    ``rank_rule``, or a step beyond the divergence guard (Diverged, also
    when it overflows to inf or NaN).  Failures are recorded per window,
    never raised.  While every window is still iterating the arrays are
    used whole, without indexing.
    """
    count = len(theta)
    theta = np.array(theta, dtype=float)
    iterations = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    step_norm = np.zeros(count)
    failures = [None] * count
    # A non-finite step norm diverges whatever the guard.
    guard = min(cfg.divergence_guard, sys.float_info.max)
    live, th, norm = np.arange(count), theta, None
    if not _all_finite(theta):
        finite = np.isfinite(theta).all(axis=1)
        for k in np.flatnonzero(~finite).tolist():
            failures[k] = DimensionMismatch(_OVERFLOWED_START)
        live, th = live[finite], theta[finite]
    for iteration in range(1, cfg.max_iter + 1):
        if not live.size:
            break
        whole = live.size == count
        a, z, degenerate = system.at(th, None if whole else live)
        keep, (u, s, vt) = rank_rule(a, failures, live, degenerate,
                                     system.m)
        if keep is not None:
            live, th, z = live[keep], th[keep], z[keep]
            if not live.size:
                break
        step = vt.mT @ ((u.mT @ z[..., None]) / s[..., None])
        th = th + step[..., 0]
        norm = np.sqrt((step.mT @ step)[:, 0, 0])
        if live.size == count:
            theta = th
        else:
            theta[live] = th
        # Leave below the threshold, or beyond the guard (NaN included).
        low, high = ((norm.item(),) * 2 if len(norm) == 1 else
                     (np.minimum.reduce(norm), np.maximum.reduce(norm)))
        if not (low >= cfg.threshold and high <= guard):
            # A stack of one window leaves whole, without masks.
            stay = (None if len(norm) == 1
                    else (norm >= cfg.threshold) & (norm <= guard))
            gone = (live, norm) if stay is None else (live[~stay], norm[~stay])
            for k, x in zip(gone[0].tolist(), gone[1].tolist()):
                iterations[k], step_norm[k] = iteration, x
                if x <= guard:
                    converged[k] = True
                else:
                    failures[k] = Diverged(f"step norm {x:.3e} exceeded guard")
            if stay is None:
                break
            live, th, norm = live[stay], th[stay], norm[stay]
    else:
        iterations[live], step_norm[live] = cfg.max_iter, norm

    final = (None if not any(failures)
             else np.flatnonzero([f is None for f in failures]))
    theta.setflags(write=False)
    covariance = _final_covariance(system, theta, final, failures)
    if any(failures):  # a failed window has not converged
        converged[[f is not None for f in failures]] = False
    return StackSolution(theta, iterations, converged, step_norm,
                         _freeze(covariance), failures)


def _final_covariance(system: WhitenedSystem, theta: np.ndarray, final,
                      failures: list) -> np.ndarray:
    """Covariances ``V S^-2 V^T`` (T, P, P) at the final iterates ``theta``
    of the windows ``final`` (every window when None), NaN elsewhere.  A
    window whose design fails the ``rank_rule`` at its final iterate fails
    here (the loop has already failed every window with too few rows)."""
    if final is not None and not final.size:
        return np.full(theta.shape + theta.shape[1:], np.nan)
    a, _, degenerate = system.at(theta if final is None else theta[final],
                                 final, residual=False)
    rows = np.arange(len(theta)) if final is None else final
    keep, (_, s, vt) = rank_rule(a, failures, rows, degenerate)
    if keep is not None:
        rows = rows[keep]
    covariance = (vt.mT / (s**2)[..., None, :]) @ vt
    if len(rows) == len(theta):
        return covariance
    stacked = np.full(theta.shape + theta.shape[1:], np.nan)
    stacked[rows] = covariance
    return stacked


def window_report(sol: StackSolution, k: int, n_dim: int) -> EstimateReport:
    """The report of window ``k`` of a solved stack (anything with the
    columns of a StackSolution), which did not fail, over read-only rows
    of its arrays.  The stack's iterates are finite (a non-finite step
    fails its window), so the params are not validated again."""
    return EstimateReport(params=_trusted_params(sol.theta[k], n_dim),
                          iterations=sol.iterations.item(k),
                          converged=sol.converged.item(k),
                          covariance=sol.covariance[k],
                          final_step_norm=sol.step_norm.item(k))


def _solve(batch: MeasurementBatch, bs: BsConstellation,
           init: KvdParams | FullParams | None, cfg: SolverConfig,
           v_known=None, priors=None) -> EstimateReport:
    """One window through ``solve_stack`` as a stack of one, from ``init``
    or else from ``initial_vectors`` (with the system's ``v_start``); its
    failure is raised."""
    system = WhitenedSystem.of([batch], bs, v_known, priors)
    if init is None:
        theta = initial_vectors(bs, batch.bs_index[None], system.rho,
                                system.v_start, system.q)
    else:
        theta = init.as_vector()[None]
        if theta.shape[1:] != (system.n_params,):
            raise DimensionMismatch(
                "initial guess does not match the estimator")
    sol = solve_stack(system, theta, cfg)
    if sol.failures[0] is not None:
        raise sol.failures[0]
    return window_report(sol, 0, bs.n_dim)


def solve_known_velocity(batch: MeasurementBatch, bs: BsConstellation,
                         v_known, init: KvdParams | None = None,
                         cfg: SolverConfig = SolverConfig()) -> EstimateReport:
    """Estimate ``[p, b, d]`` with the UD velocity supplied externally."""
    v_known = np.asarray(v_known, float)[None]
    _require_velocity(v_known, (1, bs.n_dim))
    return _solve(batch, bs, init, cfg, v_known)


def solve_joint_velocity(batch: MeasurementBatch, bs: BsConstellation,
                         init: FullParams | None = None,
                         cfg: SolverConfig = SolverConfig()) -> EstimateReport:
    """Jointly estimate ``[p, b, d, v]`` from the pseudoranges alone."""
    return _solve(batch, bs, init, cfg)


def solve_prior_velocity(batch: MeasurementBatch, bs: BsConstellation,
                         prior: VelocityPrior,
                         init: FullParams | None = None,
                         cfg: SolverConfig = SolverConfig()) -> EstimateReport:
    """MAP estimate of ``[p, b, d, v]`` under a Gaussian velocity prior:
    the least-squares fit of ``[(rho - h) / sigma, R (mean - v)]`` with
    ``R^T R`` the prior information matrix."""
    return _solve(batch, bs, init, cfg, priors=[prior])


def solve_drift_only(batch: MeasurementBatch, bs: BsConstellation,
                     init: KvdParams | None = None,
                     cfg: SolverConfig = SolverConfig()) -> EstimateReport:
    """Conventional baseline: known-velocity solve with velocity pinned to
    zero (no movement compensation)."""
    return _solve(batch, bs, init, cfg, np.zeros((1, bs.n_dim)))
