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
the public ``solve_*`` a stack of one.
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
    _freeze,
    _require_finite,
    _row_norms,
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


def _condition(s: np.ndarray) -> float:
    return float(s[0] / s[-1]) if s[-1] > 0 else np.inf


def well_conditioned(s: np.ndarray) -> np.ndarray:
    """Per-window mask of singular values ``s`` (..., P) whose condition
    number is within MAX_DESIGN_CONDITION (a zero, negative-zero or NaN
    smallest one is not)."""
    last = s[..., -1]
    positive = last > 0
    if positive.all():
        return s[..., 0] / last <= MAX_DESIGN_CONDITION
    with np.errstate(divide="ignore", invalid="ignore"):
        return positive & (s[..., 0] / last <= MAX_DESIGN_CONDITION)


def design_failures(failures: list, trials, degenerate,
                    conditioned) -> np.ndarray:
    """Set ``failures[k]`` for each window ``k`` of ``trials`` whose whitened
    design is unusable: DegenerateGeometry where ``degenerate`` (a UD on a
    BS; None for no window), else RankDeficient where not ``conditioned``.
    Returns the mask of usable windows."""
    usable = conditioned if degenerate is None else conditioned & ~degenerate
    for k in np.asarray(trials)[~usable].tolist():
        failures[k] = RankDeficient("whitened design matrix is rank-deficient")
    if degenerate is not None:
        for k in np.asarray(trials)[degenerate].tolist():
            failures[k] = DegenerateGeometry(
                "UD coincides with a BS in this batch")
    return usable


def whitened_svd(a: np.ndarray):
    """Thin SVD ``(U, S, V^T)`` of one whitened design matrix.

    Raises RankDeficient when ``a`` cannot determine its parameters: fewer
    rows than columns, or a condition number beyond MAX_DESIGN_CONDITION;
    DimensionMismatch when it is not finite (LAPACK may never return from
    the SVD of a matrix holding inf).
    """
    if a.shape[0] < a.shape[1]:
        raise RankDeficient(
            f"{a.shape[0]} rows cannot determine {a.shape[1]} parameters")
    _require_finite(a, "whitened design matrix")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if not well_conditioned(s):
        raise RankDeficient("whitened design matrix is rank-deficient")
    return u, s, vt


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
    return _condition(np.linalg.svd(a, compute_uv=False))


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
# A UD position or displacement so large that its distances to the BSs
# overflow: the LOS rows of its design turn NaN.
_OVERFLOWED_DESIGN = "measurements too large: the whitened design overflows"


def _centroid(positions: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Mean of the BS ``positions`` that the window ``row`` hears, each
    once, in index order: ``positions[np.unique(row)].mean(axis=0)`` with
    the same floating-point operations."""
    heard = np.bincount(row, minlength=len(positions)) > 0
    return np.add.reduce(positions[heard], axis=0) / np.count_nonzero(heard)


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
    if (bs_index == bs_index[0]).all():
        p0 = _centroid(bs.positions, bs_index[0])[None]
        p0 = p0.repeat(len(bs_index), axis=0)
    else:
        p0 = np.array([_centroid(bs.positions, row) for row in bs_index])
    ranges = _row_norms(bs.positions[bs_index] - p0[:, None, :])
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


def initial_guess_full(batch: MeasurementBatch, bs: BsConstellation,
                       v0=None) -> FullParams:
    """Full-state start: kvd guess extended with ``v0`` (default zero)."""
    guess = initial_guess_kvd(batch, bs)
    v0 = np.zeros(bs.n_dim) if v0 is None else np.asarray(v0, dtype=float)
    return FullParams(p=guess.p, b=guess.b, d=guess.d, v=v0)


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


def _finite_designs(failures: list, trials, a: np.ndarray) -> np.ndarray:
    """Mask of the windows ``trials`` whose whitened designs ``a`` are
    finite; each other one fails with DimensionMismatch.  LAPACK rejects a
    NaN design, so one overflowed window would fail the stacked SVD."""
    finite = np.isfinite(a).all(axis=(1, 2))
    for k in np.asarray(trials)[~finite].tolist():
        failures[k] = DimensionMismatch(_OVERFLOWED_DESIGN)
    return finite


@np.errstate(over="ignore", invalid="ignore")
def solve_stack(system: WhitenedSystem, theta: np.ndarray,
                cfg: SolverConfig = SolverConfig()) -> StackSolution:
    """The one Gauss-Newton loop, run on a stack of windows from the
    initial vectors ``theta`` (T, P).

    A window leaves the loop when its step norm drops below the threshold
    (converged), at the iteration cap (not converged), or when it fails:
    a start that is not finite (DimensionMismatch: ``initial_vectors``
    overflowed on its pseudoranges, or a design that overflowed), a UD on
    a BS (DegenerateGeometry), a design beyond the condition cap
    (RankDeficient) or a step beyond the divergence guard (Diverged, also
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
    if not np.isfinite(theta).all():
        finite = np.isfinite(theta).all(axis=1)
        for k in np.flatnonzero(~finite).tolist():
            failures[k] = DimensionMismatch(_OVERFLOWED_START)
        live, th = live[finite], theta[finite]
    for iteration in range(1, cfg.max_iter + 1):
        if not live.size:
            break
        whole = live.size == count
        a, z, degenerate = system.at(th, None if whole else live)
        try:
            u, s, vt = np.linalg.svd(a, full_matrices=False)
        except np.linalg.LinAlgError:
            keep = _finite_designs(failures, live, a)
            live, th, a, z = live[keep], th[keep], a[keep], z[keep]
            if degenerate is not None:
                degenerate = degenerate[keep]
            if not live.size:
                break
            u, s, vt = np.linalg.svd(a, full_matrices=False)
        # Every design usable: no UD on a BS, conditions within the cap.
        last = s[:, -1]
        if not (degenerate is None and np.minimum.reduce(last) > 0
                and np.maximum.reduce(s[:, 0] / last)
                <= MAX_DESIGN_CONDITION):
            usable = design_failures(failures, live, degenerate,
                                     well_conditioned(s))
            live, th, z = live[usable], th[usable], z[usable]
            u, s, vt = u[usable], s[usable], vt[usable]
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
        if not (np.minimum.reduce(norm) >= cfg.threshold
                and np.maximum.reduce(norm) <= guard):
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
    window whose design is unusable at its final iterate fails here."""
    if final is not None and not final.size:
        return np.full(theta.shape + theta.shape[1:], np.nan)
    a, _, degenerate = system.at(theta if final is None else theta[final],
                                 final)
    try:
        _, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError:
        final = np.arange(len(theta)) if final is None else final
        keep = _finite_designs(failures, final, a)
        return _final_covariance(system, theta, final[keep], failures)
    last = s[:, -1]
    if not (degenerate is None and np.minimum.reduce(last) > 0
            and np.maximum.reduce(s[:, 0] / last) <= MAX_DESIGN_CONDITION):
        final = np.arange(len(theta)) if final is None else final
        usable = design_failures(failures, final, degenerate,
                                 well_conditioned(s))
        final, s, vt = final[usable], s[usable], vt[usable]
    covariance = (vt.mT / (s**2)[..., None, :]) @ vt
    if final is None:
        return covariance
    stacked = np.full(theta.shape + theta.shape[1:], np.nan)
    stacked[final] = covariance
    return stacked


def window_report(sol: StackSolution, k: int, n_dim: int) -> EstimateReport:
    """The report of window ``k`` of a solved stack (anything with the
    columns of a StackSolution), which did not fail, over read-only rows
    of its arrays.  The stack's iterates are finite (a non-finite step
    fails its window), so the params are not validated again."""
    return EstimateReport(params=_trusted_params(sol.theta[k], n_dim),
                          iterations=int(sol.iterations[k]),
                          converged=bool(sol.converged[k]),
                          covariance=sol.covariance[k],
                          final_step_norm=float(sol.step_norm[k]))


def _solve(system: WhitenedSystem, batch: MeasurementBatch,
           bs: BsConstellation, init: KvdParams | FullParams | None,
           cfg: SolverConfig, v0: np.ndarray | None = None) -> EstimateReport:
    """One window through ``solve_stack`` as a stack of one, from ``init``
    or else from ``initial_vectors`` (with the velocity ``v0`` when the
    velocity is estimated); its failure is raised."""
    if init is None:
        theta = initial_vectors(bs, batch.bs_index[None], batch.rho[None],
                                None if v0 is None else v0[None])
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
    return _solve(system, batch, bs, init, cfg, np.zeros(bs.n_dim))


def solve_prior_velocity(batch: MeasurementBatch, bs: BsConstellation,
                         prior: VelocityPrior,
                         init: FullParams | None = None,
                         cfg: SolverConfig = SolverConfig()) -> EstimateReport:
    """MAP estimate of ``[p, b, d, v]`` under a Gaussian velocity prior:
    the least-squares fit of ``[(rho - h) / sigma, R (mean - v)]`` with
    ``R^T R`` the prior information matrix."""
    system = WhitenedSystem.of([batch], bs, priors=[prior])
    return _solve(system, batch, bs, init, cfg, prior.mean)


def solve_drift_only(batch: MeasurementBatch, bs: BsConstellation,
                     init: KvdParams | None = None,
                     cfg: SolverConfig = SolverConfig()) -> EstimateReport:
    """Conventional baseline: known-velocity solve with velocity pinned to
    zero (no movement compensation)."""
    return solve_known_velocity(batch, bs, np.zeros(bs.n_dim), init=init,
                                cfg=cfg)
