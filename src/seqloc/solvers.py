"""Iterative weighted-least-squares position solvers.

All four estimators run one Gauss-Newton loop over the whitened system of
``model.WhitenedSystem``: known-velocity and drift-only solves drop the
velocity columns, the MAP solve appends the velocity-prior rows.  Each
step solves ``A step = z`` through the SVD ``A = U S V^T`` of the whitened
design rather than by inverting the normal matrix, which keeps the
delta-prior limit of the MAP variant well-conditioned; the reported
covariance is ``V S^-2 V^T`` at the final iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, Diverged, RankDeficient
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


def whitened_svd(a: np.ndarray):
    """Thin SVD ``(U, S, V^T)`` of a whitened design matrix.

    Raises RankDeficient when ``a`` cannot determine its parameters: fewer
    rows than columns, or a condition number beyond MAX_DESIGN_CONDITION.
    """
    if a.shape[0] < a.shape[1]:
        raise RankDeficient(
            f"{a.shape[0]} rows cannot determine {a.shape[1]} parameters")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if not _condition(s) <= MAX_DESIGN_CONDITION:
        raise RankDeficient("whitened design matrix is rank-deficient")
    return u, s, vt


def _least_squares_step(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    u, s, vt = whitened_svd(a)
    return vt.T @ ((u.T @ z) / s)


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
    return _least_squares_step(a, root @ np.asarray(r, dtype=float))


def initial_guess_kvd(batch: MeasurementBatch, bs: BsConstellation) -> KvdParams:
    """Deterministic geometry-aware start: BS centroid, offset from the
    mean range mismatch, zero drift."""
    p0 = bs.positions[np.unique(batch.bs_index)].mean(axis=0)
    ranges = np.linalg.norm(bs.positions[batch.bs_index] - p0[None, :], axis=1)
    return KvdParams(p=p0, b=float(np.mean(batch.rho - ranges)), d=0.0)


def initial_guess_full(batch: MeasurementBatch, bs: BsConstellation,
                       v0=None) -> FullParams:
    """Full-state start: kvd guess extended with ``v0`` (default zero)."""
    guess = initial_guess_kvd(batch, bs)
    v0 = np.zeros(bs.n_dim) if v0 is None else np.asarray(v0, dtype=float)
    return FullParams(p=guess.p, b=guess.b, d=guess.d, v=v0)


def _gauss_newton(system: WhitenedSystem, init: KvdParams | FullParams,
                  cfg: SolverConfig) -> EstimateReport:
    """The one Gauss-Newton loop, run on the raw parameter vector."""
    theta = init.as_vector()
    if theta.shape != (system.n_params,):
        raise DimensionMismatch("initial guess does not match the estimator")
    converged = False
    for iterations in range(1, cfg.max_iter + 1):
        step = _least_squares_step(*system.at(theta))
        theta = theta + step
        step_norm = float(np.linalg.norm(step))
        if not np.isfinite(step_norm) or step_norm > cfg.divergence_guard:
            raise Diverged(f"step norm {step_norm:.3e} exceeded guard")
        if step_norm < cfg.threshold:
            converged = True
            break
    _, s, vt = whitened_svd(system.at(theta)[0])
    return EstimateReport(params=type(init).from_vector(theta),
                          iterations=iterations, converged=converged,
                          covariance=(vt.T / s**2) @ vt,
                          final_step_norm=step_norm)


def solve_known_velocity(batch: MeasurementBatch, bs: BsConstellation,
                         v_known, init: KvdParams | None = None,
                         cfg: SolverConfig = SolverConfig()) -> EstimateReport:
    """Estimate ``[p, b, d]`` with the UD velocity supplied externally."""
    system = WhitenedSystem(batch, bs, v_known=v_known)
    if init is None:
        init = initial_guess_kvd(batch, bs)
    return _gauss_newton(system, init, cfg)


def solve_joint_velocity(batch: MeasurementBatch, bs: BsConstellation,
                         init: FullParams | None = None,
                         cfg: SolverConfig = SolverConfig()) -> EstimateReport:
    """Jointly estimate ``[p, b, d, v]`` from the pseudoranges alone."""
    system = WhitenedSystem(batch, bs)
    if init is None:
        init = initial_guess_full(batch, bs)
    return _gauss_newton(system, init, cfg)


def solve_prior_velocity(batch: MeasurementBatch, bs: BsConstellation,
                         prior: VelocityPrior,
                         init: FullParams | None = None,
                         cfg: SolverConfig = SolverConfig()) -> EstimateReport:
    """MAP estimate of ``[p, b, d, v]`` under a Gaussian velocity prior:
    the least-squares fit of ``[(rho - h) / sigma, R (mean - v)]`` with
    ``R^T R`` the prior information matrix."""
    system = WhitenedSystem(batch, bs, prior=prior)
    if init is None:
        init = initial_guess_full(batch, bs, v0=prior.mean)
    return _gauss_newton(system, init, cfg)


def solve_drift_only(batch: MeasurementBatch, bs: BsConstellation,
                     init: KvdParams | None = None,
                     cfg: SolverConfig = SolverConfig()) -> EstimateReport:
    """Conventional baseline: known-velocity solve with velocity pinned to
    zero (no movement compensation)."""
    return solve_known_velocity(batch, bs, np.zeros(bs.n_dim), init=init,
                                cfg=cfg)
