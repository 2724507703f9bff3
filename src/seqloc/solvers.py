"""Iterative weighted-least-squares position solvers.

All four estimators run one Gauss-Newton loop over the whitened system of
``model.WhitenedSystem``: known-velocity and drift-only solves drop the
velocity columns, the MAP solve appends the velocity-prior rows.  Each
step solves ``A step = z`` through the SVD ``A = U S V^T`` of the whitened
design rather than by inverting the normal matrix, which keeps the
delta-prior limit of the MAP variant well-conditioned; the reported
covariance is ``V S^-2 V^T`` at the final iterate.

The loop (``solve_stack``) runs on a stack of windows with numpy's
stacked ``svd``/``matmul``; a window that fails or converges leaves the
stack through a mask.  The Monte Carlo harness passes a whole sweep cell,
the public ``solve_*`` a stack of one.  Both run the same loop and the
same floating-point operations; only the happy-path guards (the rank
rule's smallest singular value and condition number, the loop's
threshold and divergence exit) depend on the size, through ``_extreme``:
a stack of one window compares Python floats, which costs less than a
numpy reduction on one value, and a larger stack reduces with ufuncs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateGeometry, DimensionMismatch, Diverged,
                     RankDeficient)
# build_design_* and residual are unused here but stay bound in this
# namespace: perfbench/tracer.py patches them by module path.
from .model import (  # noqa: F401
    BsConstellation,
    DesignMatrix,
    FullParams,
    KvdParams,
    MeasurementBatch,
    VelocityPrior,
    WhitenedSystem,
    _all_finite,
    _freeze,
    _require_finite,
    _row_norms,
    _trusted,
    _trusted_params,
    build_design_kvd,
    build_design_pvd,
    build_design_uvd,
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


@dataclass(frozen=True)
class EstimateReport:
    """Solver output: final parameters, iteration count, convergence flag,
    the covariance ``V S^-2 V^T = (G^T W G)^-1`` from the SVD of the
    whitened design at the final iterate, and the last step norm."""

    params: KvdParams | FullParams
    iterations: int
    converged: bool
    covariance: np.ndarray
    final_step_norm: float


# A UD position or displacement so large that its distances to the BSs
# overflow: the LOS rows of its design turn NaN.
_OVERFLOWED_DESIGN = "measurements too large: the whitened design overflows"


def _extreme(reduce, values: np.ndarray):
    """``reduce(values)`` over a guard's per-window values (L,): the one
    value as a Python float when the stack holds one window, which
    compares several times faster than a numpy scalar, else the ufunc
    reduction.  A NaN comes out of both, and a float keeps its sign, so
    NaN, +0.0 and -0.0 take the same branch of a comparison either way."""
    return values.item() if len(values) == 1 else reduce(values)


def rank_rule(a: np.ndarray, failures: list, trials, degenerate=None,
              m: int | None = None, compute_uv: bool = True):
    """The one rule a whitened design must pass before it is used.

    Factors the designs ``a`` (L, rows, P) of the windows ``trials`` and
    sets ``failures[k]`` once for each window ``k`` that cannot determine
    its parameters, to the first of:

    * fewer rows than parameters (RankDeficient, counted in measurements:
      ``m`` of the rows are pseudoranges, every row when None);
    * a design that is not finite (DimensionMismatch: LAPACK rejects a NaN
      design, so one overflowed window would fail the stacked SVD);
    * a UD on a BS, where ``degenerate`` (DegenerateGeometry);
    * a condition number beyond MAX_DESIGN_CONDITION, or a zero,
      negative-zero or NaN smallest singular value (RankDeficient).

    Returns the mask of the usable windows (None when every window is)
    and their SVD ``(U, S, V^T)``, or ``S`` alone without ``compute_uv``.
    """
    rows, params = a.shape[-2:]
    broken = None
    try:
        svd = np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        broken = ~np.isfinite(a).all(axis=(1, 2))
        svd = np.linalg.svd(np.where(broken[:, None, None], 0.0, a),
                            full_matrices=False, compute_uv=compute_uv)
    s = svd[1] if compute_uv else svd
    last = s[:, -1]
    if (rows >= params and broken is None and degenerate is None
            and _extreme(np.minimum.reduce, last) > 0
            and _extreme(np.maximum.reduce, s[:, 0] / last)
            <= MAX_DESIGN_CONDITION):
        return None, svd
    with np.errstate(divide="ignore", invalid="ignore"):
        conditioned = (last > 0) & (s[:, 0] / last <= MAX_DESIGN_CONDITION)
    m = rows if m is None else m
    keep = np.ones(len(a), dtype=bool)
    for mask, error, message in (
            (np.full(len(a), rows < params), RankDeficient,
             f"need at least {m + params - rows} measurements, got {m}"),
            (broken, DimensionMismatch, _OVERFLOWED_DESIGN),
            (degenerate, DegenerateGeometry,
             "UD coincides with a BS in this batch"),
            (~conditioned, RankDeficient,
             "whitened design matrix is rank-deficient")):
        if mask is not None:
            for k in np.asarray(trials)[keep & mask].tolist():
                failures[k] = error(message)
            keep &= ~mask
    return keep, (tuple(x[keep] for x in svd) if compute_uv else s[keep])


def whitened_svd(a: np.ndarray):
    """Thin SVD ``(U, S, V^T)`` of one whitened design matrix; raises the
    failure of its ``rank_rule``, or DimensionMismatch first when it is
    not finite (LAPACK may never return from the SVD of a matrix holding
    inf)."""
    _require_finite(a, "whitened design matrix")
    failures = [None]
    _, (u, s, vt) = rank_rule(a[None], failures, [0])
    if failures[0] is not None:
        raise failures[0]
    return u[0], s[0], vt[0]


def _whiten(g, w):
    """Upper Cholesky factor ``B`` of a dense SPD weight (``B^T B = W``)
    and the whitened design ``B G``."""
    root = np.linalg.cholesky(np.asarray(w, dtype=float)).T
    gm = g.matrix if isinstance(g, DesignMatrix) else np.asarray(g, dtype=float)
    return root, root @ gm


def design_condition(g, w) -> float:
    """Condition number of sqrt(W) G (its square is the normal-matrix
    condition number)."""
    _, a = _whiten(g, w)
    s = np.linalg.svd(a, compute_uv=False)
    return float(s[0] / s[-1]) if s[-1] > 0 else np.inf


def wls_step(g, w, r) -> np.ndarray:
    """One weighted-least-squares step ``(G^T W G)^-1 G^T W r`` for a
    dense weight ``W``, whitened by its Cholesky factor and solved under
    the solvers' ``whitened_svd`` rank rule."""
    root, a = _whiten(g, w)
    u, s, vt = whitened_svd(a)
    return vt.T @ ((u.T @ (root @ np.asarray(r, dtype=float))) / s)


# Pseudoranges so large that their mean range mismatch, the initial clock
# offset, overflows float64.
_OVERFLOWED_START = "pseudoranges too large: the initial clock offset overflows"


def _centroid(positions: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Mean of the BS ``positions`` that the window ``row`` hears, each
    once, in index order: ``positions[np.unique(row)].mean(axis=0)`` with
    the same floating-point operations."""
    heard = positions.compress(
        np.bincount(row, minlength=len(positions)) > 0, axis=0)
    return np.add.reduce(heard, axis=0) / len(heard)


@np.errstate(over="ignore")
def initial_vectors(bs: BsConstellation, bs_index: np.ndarray,
                    rho: np.ndarray, v0: np.ndarray | None = None
                    ) -> np.ndarray:
    """Deterministic geometry-aware starts ``[p, b, d]`` (T, N+2) for the
    windows ``bs_index``/``rho`` (T, M), whose BS indices are in range:
    the centroid of the BSs each window hears, the offset from the mean
    range mismatch, zero drift; extended with the velocities ``v0``
    (T, N) to ``[p, b, d, v]`` when given.  The offset of a window whose
    pseudoranges overflow that mean is infinite."""
    if len(bs_index) == 1 or (bs_index == bs_index[0]).all():
        p0 = _centroid(bs.positions, bs_index[0])[None]
        if len(bs_index) > 1:
            p0 = p0.repeat(len(bs_index), axis=0)
    else:
        p0 = np.array([_centroid(bs.positions, row) for row in bs_index])
    ranges = _row_norms(bs.positions.take(bs_index, axis=0) - p0[:, None, :])
    # np.mean over the last axis, without its Python overhead
    b = np.add.reduce(rho - ranges, axis=-1) / rho.shape[-1]
    cols = [p0, b[:, None], np.zeros((len(b), 1))]
    if v0 is not None:
        cols.append(v0)
    return np.concatenate(cols, axis=1)


def initial_guess_kvd(batch: MeasurementBatch, bs: BsConstellation) -> KvdParams:
    """Deterministic geometry-aware start: BS centroid, offset from the
    mean range mismatch, zero drift."""
    if batch.bs_index.min() < 0 or batch.bs_index.max() >= bs.n_bs:
        raise DimensionMismatch("batch references a BS index out of range")
    start = initial_vectors(bs, batch.bs_index[None], batch.rho[None])[0]
    if not np.isfinite(start[bs.n_dim]):
        raise DimensionMismatch(_OVERFLOWED_START)
    return KvdParams.from_vector(start)


class StackSolution(NamedTuple):
    """Gauss-Newton outcome of a stack of T windows: final parameter
    vectors (T, P), iteration counts, convergence flags, last step norms,
    covariances ``V S^-2 V^T`` (T, P, P), and per window None or the
    SeqlocError that ended it (its other entries are then meaningless).
    ``theta`` and ``covariance`` are read-only."""

    theta: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    step_norm: np.ndarray
    covariance: np.ndarray
    failures: list


@np.errstate(over="ignore", invalid="ignore")
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
    # Pseudorange rows per window (prior rows come on top), for the rank
    # rule's message; a system that does not say has no prior rows.
    m = getattr(system, "m", None)
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
        keep, (u, s, vt) = rank_rule(a, failures, live, degenerate, m)
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
        if not (_extreme(np.minimum.reduce, norm) >= cfg.threshold
                and _extreme(np.maximum.reduce, norm) <= guard):
            stay = (norm >= cfg.threshold) & (norm <= guard)
            for k, x in zip(live[~stay].tolist(), norm[~stay].tolist()):
                iterations[k], step_norm[k] = iteration, x
                if x <= guard:
                    converged[k] = True
                else:
                    failures[k] = Diverged(f"step norm {x:.3e} exceeded guard")
            live, th, norm = live[stay], th[stay], norm[stay]
    else:
        iterations[live], step_norm[live] = cfg.max_iter, norm

    final = (None if not any(failures)
             else np.flatnonzero([f is None for f in failures]))
    theta.setflags(write=False)
    covariance = _final_covariance(system, theta, final, failures)
    return StackSolution(theta, iterations, converged, step_norm,
                         _freeze(covariance), failures)


def _final_covariance(system: WhitenedSystem, theta: np.ndarray, final,
                      failures: list) -> np.ndarray:
    """Covariances ``V S^-2 V^T`` (T, P, P) at the final iterates ``theta``
    of the windows ``final`` (every window when None), NaN elsewhere.  A
    window whose design is unusable at its final iterate fails here (the
    loop has already failed every window with too few rows)."""
    if final is not None and not final.size:
        return np.full(theta.shape + theta.shape[1:], np.nan)
    a, _, degenerate = system.at(theta if final is None else theta[final],
                                 final)
    trials = range(len(theta)) if final is None else final
    keep, (_, s, vt) = rank_rule(a, failures, trials, degenerate)
    covariance = (vt.mT / (s**2)[..., None, :]) @ vt
    if final is None and keep is None:
        return covariance
    rows = np.asarray(trials)
    stacked = np.full(theta.shape + theta.shape[1:], np.nan)
    stacked[rows if keep is None else rows[keep]] = covariance
    return stacked


def window_report(sol: StackSolution, k: int, n_dim: int) -> EstimateReport:
    """The report of window ``k`` of a solved stack (anything with the
    columns of a StackSolution), which did not fail, over read-only rows
    of its arrays.  The stack's iterates are finite (a non-finite step
    fails its window), so neither the params nor the report are
    validated again."""
    return _trusted(EstimateReport,
                    params=_trusted_params(sol.theta[k], n_dim),
                    iterations=int(sol.iterations[k]),
                    converged=bool(sol.converged[k]),
                    covariance=sol.covariance[k],
                    final_step_norm=float(sol.step_norm[k]))


def _solve(system: WhitenedSystem, batch: MeasurementBatch,
           bs: BsConstellation, init: KvdParams | FullParams | None,
           cfg: SolverConfig) -> EstimateReport:
    """One window through ``solve_stack`` as a stack of one, from ``init``
    or else from ``initial_vectors`` (with the system's ``v_start``); its
    failure is raised."""
    if init is None:
        theta = initial_vectors(bs, batch.bs_index[None], batch.rho[None],
                                system.v_start)
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
    system = WhitenedSystem.of([batch], bs,
                               v_known=np.asarray(v_known, dtype=float)[None])
    return _solve(system, batch, bs, init, cfg)


def solve_joint_velocity(batch: MeasurementBatch, bs: BsConstellation,
                         init: FullParams | None = None,
                         cfg: SolverConfig = SolverConfig()) -> EstimateReport:
    """Jointly estimate ``[p, b, d, v]`` from the pseudoranges alone."""
    system = WhitenedSystem.of([batch], bs)
    return _solve(system, batch, bs, init, cfg)


def solve_prior_velocity(batch: MeasurementBatch, bs: BsConstellation,
                         prior: VelocityPrior,
                         init: FullParams | None = None,
                         cfg: SolverConfig = SolverConfig()) -> EstimateReport:
    """MAP estimate of ``[p, b, d, v]`` under a Gaussian velocity prior:
    the least-squares fit of ``[(rho - h) / sigma, R (mean - v)]`` with
    ``R^T R`` the prior information matrix."""
    system = WhitenedSystem.of([batch], bs, priors=[prior])
    return _solve(system, batch, bs, init, cfg)


def solve_drift_only(batch: MeasurementBatch, bs: BsConstellation,
                     init: KvdParams | None = None,
                     cfg: SolverConfig = SolverConfig()) -> EstimateReport:
    """Conventional baseline: known-velocity solve with velocity pinned to
    zero (no movement compensation)."""
    return solve_known_velocity(batch, bs, np.zeros(bs.n_dim), init=init,
                                cfg=cfg)
