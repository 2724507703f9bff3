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
    _row_norms,
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
    rows than columns, or a condition number beyond MAX_DESIGN_CONDITION.
    """
    if a.shape[0] < a.shape[1]:
        raise RankDeficient(
            f"{a.shape[0]} rows cannot determine {a.shape[1]} parameters")
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


@np.errstate(over="ignore")
def initial_vectors(bs: BsConstellation, bs_index: np.ndarray,
                    rho: np.ndarray) -> np.ndarray:
    """Deterministic geometry-aware starts ``[p, b, d]`` (T, N+2) for the
    windows ``bs_index``/``rho`` (T, M): the centroid of the BSs each
    window hears, the offset from the mean range mismatch, zero drift.
    The offset of a window whose pseudoranges overflow that mean is
    infinite."""
    if (bs_index == bs_index[0]).all():
        p0 = bs.positions[np.unique(bs_index[0])].mean(axis=0)[None]
        p0 = p0.repeat(len(bs_index), axis=0)
    else:
        p0 = np.array([bs.positions[np.unique(row)].mean(axis=0)
                       for row in bs_index])
    ranges = _row_norms(bs.positions[bs_index] - p0[:, None, :])
    # np.mean over the last axis, without its Python overhead
    b = np.add.reduce(rho - ranges, axis=-1) / rho.shape[-1]
    return np.concatenate([p0, b[:, None], np.zeros((len(b), 1))], axis=1)


def initial_guess_kvd(batch: MeasurementBatch, bs: BsConstellation) -> KvdParams:
    """Deterministic geometry-aware start: BS centroid, offset from the
    mean range mismatch, zero drift."""
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
    SeqlocError that ended it (its other entries are then meaningless)."""

    theta: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    step_norm: np.ndarray
    covariance: np.ndarray
    failures: list


def _all_usable(s: np.ndarray, degenerate) -> bool:
    """Whether every window of a stack has a usable design: no UD on a BS
    and every condition number within MAX_DESIGN_CONDITION."""
    last = s[:, -1]
    return (degenerate is None and np.minimum.reduce(last) > 0
            and np.maximum.reduce(s[:, 0] / last) <= MAX_DESIGN_CONDITION)


@np.errstate(over="ignore")
def solve_stack(system: WhitenedSystem, theta: np.ndarray,
                cfg: SolverConfig = SolverConfig()) -> StackSolution:
    """The one Gauss-Newton loop, run on a stack of windows from the
    initial vectors ``theta`` (T, P).

    A window leaves the loop when its step norm drops below the threshold
    (converged), at the iteration cap (not converged), or when it fails:
    a start that is not finite (DimensionMismatch: ``initial_vectors``
    overflowed on its pseudoranges), a UD on a BS (DegenerateGeometry), a
    design beyond the condition cap (RankDeficient) or a step beyond the
    divergence guard (Diverged, also when it overflows to inf).  Failures
    are recorded per window, never raised.  While every window is still
    iterating the arrays are used whole, without indexing.
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
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        if not _all_usable(s, degenerate):
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

    whole = not any(failures)
    final = None if whole else np.flatnonzero([f is None for f in failures])
    if final is not None and not final.size:
        return StackSolution(theta, iterations, converged, step_norm,
                             np.full(theta.shape + theta.shape[1:], np.nan),
                             failures)
    a, _, degenerate = system.at(theta if whole else theta[final], final)
    _, s, vt = np.linalg.svd(a, full_matrices=False)
    if not _all_usable(s, degenerate):
        final = np.arange(count) if whole else final
        usable = design_failures(failures, final, degenerate,
                                 well_conditioned(s))
        final, s, vt, whole = final[usable], s[usable], vt[usable], False
    covariance = (vt.mT / (s**2)[..., None, :]) @ vt
    if not whole:
        stacked = np.full(theta.shape + theta.shape[1:], np.nan)
        stacked[final] = covariance
        covariance = stacked
    return StackSolution(theta, iterations, converged, step_norm, covariance,
                         failures)


def _solve(system: WhitenedSystem, init: KvdParams | FullParams,
           cfg: SolverConfig) -> EstimateReport:
    """One window through ``solve_stack`` as a stack of one; its failure
    is raised."""
    theta = init.as_vector()
    if theta.shape != (system.n_params,):
        raise DimensionMismatch("initial guess does not match the estimator")
    sol = solve_stack(system, theta[None], cfg)
    if sol.failures[0] is not None:
        raise sol.failures[0]
    return EstimateReport(params=type(init).from_vector(sol.theta[0]),
                          iterations=int(sol.iterations[0]),
                          converged=bool(sol.converged[0]),
                          covariance=sol.covariance[0],
                          final_step_norm=float(sol.step_norm[0]))


def solve_known_velocity(batch: MeasurementBatch, bs: BsConstellation,
                         v_known, init: KvdParams | None = None,
                         cfg: SolverConfig = SolverConfig()) -> EstimateReport:
    """Estimate ``[p, b, d]`` with the UD velocity supplied externally."""
    system = WhitenedSystem.of([batch], bs,
                               v_known=np.asarray(v_known, dtype=float)[None])
    if init is None:
        init = initial_guess_kvd(batch, bs)
    return _solve(system, init, cfg)


def solve_joint_velocity(batch: MeasurementBatch, bs: BsConstellation,
                         init: FullParams | None = None,
                         cfg: SolverConfig = SolverConfig()) -> EstimateReport:
    """Jointly estimate ``[p, b, d, v]`` from the pseudoranges alone."""
    system = WhitenedSystem.of([batch], bs)
    if init is None:
        init = initial_guess_full(batch, bs)
    return _solve(system, init, cfg)


def solve_prior_velocity(batch: MeasurementBatch, bs: BsConstellation,
                         prior: VelocityPrior,
                         init: FullParams | None = None,
                         cfg: SolverConfig = SolverConfig()) -> EstimateReport:
    """MAP estimate of ``[p, b, d, v]`` under a Gaussian velocity prior:
    the least-squares fit of ``[(rho - h) / sigma, R (mean - v)]`` with
    ``R^T R`` the prior information matrix."""
    system = WhitenedSystem.of([batch], bs, priors=[prior])
    if init is None:
        init = initial_guess_full(batch, bs, v0=prior.mean)
    return _solve(system, init, cfg)


def solve_drift_only(batch: MeasurementBatch, bs: BsConstellation,
                     init: KvdParams | None = None,
                     cfg: SolverConfig = SolverConfig()) -> EstimateReport:
    """Conventional baseline: known-velocity solve with velocity pinned to
    zero (no movement compensation)."""
    return solve_known_velocity(batch, bs, np.zeros(bs.n_dim), init=init,
                                cfg=cfg)
