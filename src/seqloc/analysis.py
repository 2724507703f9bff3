"""Closed-form error theory for the sequential-pseudorange estimators.

Everything here is evaluated at the *true* parameters: Fisher information
matrices (``A^T A = G^T W G`` for the whitened design ``A`` of
``model.WhitenedSystem`` built from true line-of-sight vectors), the CRLB,
theoretical bias/variance/RMSE budgets for the three optimal estimators,
the movement-induced bias of the drift-only baseline, the bias caused by a
deviated assumed velocity, and numerical checks of the covariance ordering
between the three estimators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient
# build_design_* are unused here but stay bound in this namespace:
# perfbench/tracer.py patches them by module path.
from .model import (  # noqa: F401
    BsConstellation,
    FullParams,
    MeasurementBatch,
    VARIANTS,
    VelocityPrior,
    WhitenedSystem,
    build_design_kvd,
    build_design_pvd,
    build_design_uvd,
)
from .solvers import whitened_svd

ORDERING_EIG_FLOOR = -1e-10  # PD tolerance for covariance-ordering checks


@dataclass(frozen=True)
class FimMatrix:
    """Fisher information matrix tagged with its estimator variant."""

    matrix: np.ndarray
    variant: str


@dataclass(frozen=True)
class ErrorBudget:
    """Position bias vector, N-by-N variance and scalar RMSE, tied together
    by rmse^2 = ||bias||^2 + trace(variance)."""

    bias: np.ndarray
    variance: np.ndarray
    rmse: float


def _budget(bias: np.ndarray, variance: np.ndarray) -> ErrorBudget:
    rmse = float(np.sqrt(np.dot(bias, bias) + np.trace(variance)))
    return ErrorBudget(bias=bias, variance=variance, rmse=rmse)


def _design_at_truth(batch: MeasurementBatch, bs: BsConstellation,
                     truth: FullParams, variant: str,
                     prior: VelocityPrior | None = None) -> np.ndarray:
    """Whitened design of ``variant`` at the truth; RankDeficient when it
    cannot determine the parameters (the solvers' ``whitened_svd`` rule)."""
    if variant not in VARIANTS:
        raise RankDeficient(f"unknown estimator variant {variant!r}")
    if variant == "pvd" and prior is None:
        raise RankDeficient("prior-velocity FIM needs a velocity prior")
    known = variant == "kvd"
    system = WhitenedSystem(batch, bs, v_known=truth.v if known else None,
                            prior=prior if variant == "pvd" else None)
    # With a known velocity ``at`` reads only the leading [p, b, d].
    a, _ = system.at(truth.as_vector())
    whitened_svd(a)
    return a


def fim(batch: MeasurementBatch, bs: BsConstellation, truth: FullParams,
        variant: str, prior: VelocityPrior | None = None) -> FimMatrix:
    """Fisher information A^T A (= G^T W G) at the true parameters."""
    a = _design_at_truth(batch, bs, truth, variant, prior)
    return FimMatrix(matrix=a.T @ a, variant=variant)


def crlb(f: FimMatrix) -> np.ndarray:
    """Diagonal of the inverse Fisher information; the first N entries are
    the per-axis position bounds."""
    eigs = np.linalg.eigvalsh(f.matrix)
    if eigs[0] <= 0 or not np.all(np.isfinite(eigs)):
        raise RankDeficient("Fisher information is not positive-definite")
    return np.diagonal(np.linalg.inv(f.matrix)).copy()


def theoretical_rmse(variant: str, batch: MeasurementBatch,
                     bs: BsConstellation, truth: FullParams,
                     prior: VelocityPrior | None = None) -> ErrorBudget:
    """Zero-bias budget of an optimal estimator: the position block of the
    inverse Fisher information."""
    f = fim(batch, bs, truth, variant, prior=prior)
    n = bs.n_dim
    variance = np.linalg.inv(f.matrix)[:n, :n]
    return _budget(np.zeros(n), variance)


def _kvd_projector(batch: MeasurementBatch, bs: BsConstellation,
                   truth: FullParams):
    """Position rows of (G^T W G)^-1 G^T W for the true-LOS kvd design,
    plus the full normal-matrix inverse."""
    a = _design_at_truth(batch, bs, truth, "kvd")
    inv_f = np.linalg.inv(a.T @ a)
    return (inv_f @ a.T)[:bs.n_dim, :] / batch.sigma, inv_f


def bias_deviated_velocity(batch: MeasurementBatch, bs: BsConstellation,
                           truth: FullParams, v_assumed) -> ErrorBudget:
    """Position bias of the known-velocity estimator when the supplied
    velocity deviates from the true one.

    The bias is the weighted projection of the residual between the true
    and the assumed displaced geometric ranges; the variance is the usual
    noise-only position block.
    """
    projector, inv_f = _kvd_projector(batch, bs, truth)
    v_assumed = np.asarray(v_assumed, dtype=float)
    q = bs.positions[batch.bs_index]
    true_range = np.linalg.norm(
        q - truth.p[None, :] - batch.dt[:, None] * truth.v[None, :], axis=1)
    assumed_range = np.linalg.norm(
        q - truth.p[None, :] - batch.dt[:, None] * v_assumed[None, :], axis=1)
    r = true_range - assumed_range
    n = bs.n_dim
    return _budget(projector @ r, inv_f[:n, :n])


def bias_drift_only(batch: MeasurementBatch, bs: BsConstellation,
                    truth: FullParams) -> ErrorBudget:
    """Movement-induced position bias of the drift-only baseline, which
    ignores the UD displacement accumulated across the batch."""
    return bias_deviated_velocity(batch, bs, truth, np.zeros(bs.n_dim))


@dataclass(frozen=True)
class OrderingCheck:
    """Traces of the position covariance blocks for the three estimators
    plus the positive-definiteness margins of their pairwise differences."""

    trace_known: float
    trace_prior: float
    trace_joint: float
    min_eig_prior_minus_known: float
    min_eig_joint_minus_prior: float
    ordered: bool


def check_crlb_ordering(batch: MeasurementBatch, bs: BsConstellation,
                        truth: FullParams,
                        prior: VelocityPrior) -> OrderingCheck:
    """Verify cov_known < cov_prior < cov_joint in the Loewner sense.

    The position/clock blocks of the joint and MAP covariances are formed
    through their Schur complements, which stays well-conditioned even for
    near-delta or near-flat priors.
    """
    n = bs.n_dim
    k = n + 2
    f = fim(batch, bs, truth, "uvd").matrix
    a00, a01, a11 = f[:k, :k], f[:k, k:], f[k:, k:]
    w_v = prior.weight()
    try:
        inv_a11 = np.linalg.inv(a11)
        inv_damped = np.linalg.inv(a11 + w_v)
        d_joint = a01 @ inv_a11 @ a01.T
        d_prior = a01 @ inv_damped @ a01.T
        block_known = np.linalg.inv(a00)
        block_joint = np.linalg.inv(a00 - d_joint)
        block_prior = np.linalg.inv(a00 - d_prior)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient("singular block while forming covariances") from exc

    # Differences of inverses are formed in product form,
    # inv(X-D) - inv(X) = inv(X-D) D inv(X), so their tiny eigenvalues are
    # not lost to cancellation between the two large blocks.
    def _sym(mat):
        return 0.5 * (mat + mat.T)

    diff_pk = _sym(block_prior @ d_prior @ block_known)
    gap = _sym(a01 @ inv_a11 @ w_v @ inv_damped @ a01.T)
    diff_jp = _sym(block_joint @ gap @ block_prior)
    eig_pk = float(np.min(np.linalg.eigvalsh(diff_pk)))
    eig_jp = float(np.min(np.linalg.eigvalsh(diff_jp)))
    return OrderingCheck(
        trace_known=float(np.trace(block_known[:n, :n])),
        trace_prior=float(np.trace(block_prior[:n, :n])),
        trace_joint=float(np.trace(block_joint[:n, :n])),
        min_eig_prior_minus_known=eig_pk,
        min_eig_joint_minus_prior=eig_jp,
        ordered=bool(eig_pk > ORDERING_EIG_FLOOR and eig_jp > ORDERING_EIG_FLOOR),
    )


@dataclass(frozen=True)
class DeviationBoundCheck:
    """One deviation against the quadratic lower bound on the bias."""

    deviation: np.ndarray
    bias_norm_sq: float
    bound: float
    holds: bool


@dataclass(frozen=True)
class BiasLowerBound:
    alpha: float
    checks: tuple[DeviationBoundCheck, ...]


# The quadratic bound comes from a first-order expansion of the deviated
# residual, so the exact bias is only required to clear it within this
# slack.
BOUND_SLACK = 0.05


def bias_linear_lower_bound(batch: MeasurementBatch, bs: BsConstellation,
                            truth: FullParams,
                            deviations) -> BiasLowerBound:
    """Tightest quadratic lower bound on the deviated-velocity bias.

    Builds S = S2^T S1^T S1 S2 where S1 holds the position rows of the
    weighted projector and S2 the first-order sensitivity of the residual
    to a velocity deviation; alpha is the smallest eigenvalue of S, and
    each supplied deviation is checked against
    ||bias||^2 >= alpha * ||dv||^2 (within BOUND_SLACK).
    """
    projector, _ = _kvd_projector(batch, bs, truth)
    q = bs.positions[batch.bs_index]
    rel = q - truth.p[None, :]
    base_range = np.linalg.norm(rel, axis=1)
    if np.any(base_range <= 0):
        raise RankDeficient("UD coincides with a BS")
    s2 = batch.dt[:, None] * rel / base_range[:, None]
    s = s2.T @ projector.T @ projector @ s2
    alpha = float(np.min(np.linalg.eigvalsh(s)))

    checks = []
    for dv in deviations:
        dv = np.atleast_1d(np.asarray(dv, dtype=float))
        exact = bias_deviated_velocity(batch, bs, truth, truth.v + dv)
        bias_sq = float(np.dot(exact.bias, exact.bias))
        bound = alpha * float(np.dot(dv, dv))
        holds = bias_sq >= bound * (1.0 - BOUND_SLACK)
        checks.append(DeviationBoundCheck(deviation=dv, bias_norm_sq=bias_sq,
                                          bound=bound, holds=holds))
    return BiasLowerBound(alpha=alpha, checks=tuple(checks))
