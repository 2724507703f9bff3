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

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, RankDeficient
# build_design_kvd/pvd are unused here but stay bound in this namespace:
# perfbench/tracer.py patches them by module path.
from .model import (  # noqa: F401
    BsConstellation,
    FullParams,
    MeasurementBatch,
    PriorRows,
    VARIANTS,
    VelocityPrior,
    WhitenedSystem,
    WindowStack,
    _require_velocity,
    _row_norms,
    _window_part,
    build_design_kvd,
    build_design_pvd,
    build_design_uvd,
    prior_rows,
)
from .solvers import (_CHOLESKY, _INDEFINITE, _INV, MAX_DESIGN_CONDITION,
                      _cheap_rule)

ORDERING_EIG_FLOOR = -1e-10  # PD tolerance for covariance-ordering checks


class ErrorBudget(NamedTuple):
    """Position bias vector, N-by-N variance and scalar RMSE, tied together
    by rmse^2 = ||bias||^2 + trace(variance)."""

    bias: np.ndarray
    variance: np.ndarray
    rmse: float


class BudgetStack(NamedTuple):
    """Error budgets of a stack of T windows: bias (T, N), variance
    (T, N, N) and rmse (T,), and per window None or the SeqlocError that
    leaves its theory undefined (its entries are then NaN)."""

    bias: np.ndarray
    variance: np.ndarray
    rmse: np.ndarray
    failures: list

    def one(self) -> ErrorBudget:
        """The budget of a stack of one window; raises its failure."""
        if self.failures[0] is not None:
            raise self.failures[0]
        return ErrorBudget(bias=self.bias[0], variance=self.variance[0],
                           rmse=float(self.rmse[0]))


def _budgets(bias: np.ndarray, variance: np.ndarray,
             failures: list) -> BudgetStack:
    """Budgets with rmse^2 = ||bias||^2 + trace(variance) per window."""
    sq_bias = (bias[:, None, :] @ bias[:, :, None])[:, 0, 0]
    rmse = np.sqrt(sq_bias + np.trace(variance, axis1=-2, axis2=-1))
    return BudgetStack(bias=bias, variance=variance, rmse=rmse,
                       failures=failures)


def _one(batch: MeasurementBatch, truth: FullParams, bs: BsConstellation,
         prior: VelocityPrior | None = None):
    """One window in the form the theory runs on: a WindowStack, the true
    state ``[p, b, d, v]`` (1, 2N+2) and, with a prior, its PriorRows."""
    if truth.n_dim != bs.n_dim:
        raise DimensionMismatch("truth dimension does not match BSs")
    return (WindowStack.of([batch]), truth.as_vector()[None],
            None if prior is None else prior_rows([prior], bs.n_dim))


@np.errstate(all="ignore")
def _invert(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The inverses of T informations ``f`` (T, P, P), NaN where the
    theory cannot use them, and the mask of those it can: finite, with a
    Cholesky factor, and a positive inverse diagonal whose variance
    inflations ``f[i, i] * inv[i, i]`` are within MAX_DESIGN_CONDITION, in
    place of ``rank_rule``'s SVD clauses.  Rounding can leave a singular
    information positive-definite with a finite inverse; the cap fails it,
    and unlike cond(A) ignores column scale (the largest inflation bounds
    the condition of ``f`` scaled to a unit diagonal from below)."""
    pivots = np.diagonal(_CHOLESKY(f, signature="d->d"), axis1=-2, axis2=-1)
    good = np.isfinite(f).all(axis=(1, 2)) & np.all(pivots > 0, axis=1)
    inv = np.full(f.shape, np.nan)
    inv[good] = _INV(f[good], signature="d->d")
    diag = np.diagonal(inv, axis1=-2, axis2=-1)
    good &= np.all((diag > 0) & (np.diagonal(f, axis1=-2, axis2=-1) * diag
                                 <= MAX_DESIGN_CONDITION), axis=1)
    inv[~good] = np.nan
    return inv, good


@np.errstate(all="ignore")
def _designs_at_truth(variant: str, bs: BsConstellation,
                      windows: WindowStack, truth: np.ndarray, priors=None):
    """Whitened designs ``A`` of ``variant`` at the truths (T, 2N+2) of T
    windows (with PriorRows for pvd), ``(A^T A)^-1`` and per window None
    or the error that leaves its theory undefined (and its inverse NaN):
    the solvers' ``_cheap_rule`` (an overflowed design fails without a
    warning), else ``crlb``'s where ``_invert`` rejects the information."""
    if variant not in VARIANTS:
        raise RankDeficient(f"unknown estimator variant {variant!r}")
    if variant == "pvd" and priors is None:
        raise RankDeficient("prior-velocity FIM needs a velocity prior")
    system = WhitenedSystem(
        _window_part(bs, windows),
        truth[:, bs.n_dim + 2:] if variant == "kvd" else None,
        priors if variant == "pvd" else None)
    # With a known velocity ``at`` reads only the leading [p, b, d].
    a, _, degenerate = system.at(truth, residual=False)
    failures = [None] * len(a)
    keep = _cheap_rule(a, failures, np.arange(len(a)), degenerate, system.m)
    inv, good = _invert(a.mT @ a)
    for i in np.flatnonzero(keep & ~good).tolist():
        failures[i] = RankDeficient(_INDEFINITE)
    inv[~keep] = np.nan
    return a, inv, failures


def fim(batch: MeasurementBatch, bs: BsConstellation, truth: FullParams,
        variant: str, prior: VelocityPrior | None = None) -> np.ndarray:
    """Fisher information A^T A (= G^T W G) at the true parameters; raises
    the failure ``_designs_at_truth`` gives it (where ``crlb`` would)."""
    a, _, failures = _designs_at_truth(variant, bs,
                                       *_one(batch, truth, bs, prior))
    if failures[0] is not None:
        raise failures[0]
    return a[0].mT @ a[0]


def crlb(f: np.ndarray) -> np.ndarray:
    """Diagonal of the inverse of the Fisher information ``f``; the first
    N entries are the per-axis position bounds.  DimensionMismatch unless
    ``f`` is a square matrix of at least one row; RankDeficient unless it
    passes the rule every budget applies (``_invert``)."""
    f = np.asarray(f, dtype=float)
    if f.ndim != 2 or f.shape[0] != f.shape[1] or not len(f):
        raise DimensionMismatch("information must be a square matrix")
    inv, good = _invert(f[None])
    if not good[0]:
        raise RankDeficient(_INDEFINITE)
    return np.diagonal(inv[0]).copy()


def theoretical_rmse_stack(variant: str, windows: WindowStack,
                           bs: BsConstellation, truth: np.ndarray,
                           priors: PriorRows | None = None) -> BudgetStack:
    """``theoretical_rmse`` of T windows at their truths (T, 2N+2) at once,
    with one prior row block per window for ``pvd``."""
    _, inv, failures = _designs_at_truth(variant, bs, windows, truth, priors)
    n = bs.n_dim
    return _budgets(np.zeros((len(inv), n)), inv[:, :n, :n], failures)


def theoretical_rmse(variant: str, batch: MeasurementBatch,
                     bs: BsConstellation, truth: FullParams,
                     prior: VelocityPrior | None = None) -> ErrorBudget:
    """Zero-bias budget of an optimal estimator: the position block of the
    inverse Fisher information."""
    windows, truths, priors = _one(batch, truth, bs, prior)
    return theoretical_rmse_stack(variant, windows, bs, truths,
                                  priors).one()


class KvdProjectors(NamedTuple):
    """Position rows of (G^T W G)^-1 G^T W for the true-LOS kvd designs of
    T windows (T, N, M), the full normal-matrix inverses (T, P, P) and the
    per-window failures."""

    projector: np.ndarray
    inverse: np.ndarray
    failures: list


def kvd_projectors(windows: WindowStack, bs: BsConstellation,
                   truth: np.ndarray) -> KvdProjectors:
    """The kvd projectors of T windows at their truths (T, 2N+2).  They
    depend on the true velocity, not on an assumed one, so every
    known-velocity budget of the same windows (kvd at any deviation,
    drift-only) shares them."""
    a, inv_f, failures = _designs_at_truth("kvd", bs, windows, truth)
    return KvdProjectors(
        (inv_f @ a.mT)[:, :bs.n_dim, :] / windows.sigma[:, None, :],
        inv_f, failures)


@np.errstate(over="ignore", invalid="ignore")
def bias_deviated_velocity_stack(windows: WindowStack, bs: BsConstellation,
                                 truth: np.ndarray, v_assumed: np.ndarray,
                                 projectors: KvdProjectors | None = None
                                 ) -> BudgetStack:
    """``bias_deviated_velocity`` of T windows at their truths (T, 2N+2)
    at once, ``v_assumed`` (T, N), with the windows' ``kvd_projectors``
    when at hand; assumed-displaced ranges that overflow fail a window."""
    if projectors is None:
        projectors = kvd_projectors(windows, bs, truth)
    projector, inv_f, failures = projectors
    n = bs.n_dim
    q = bs.positions[windows.bs_index]
    dt = windows.dt[..., None]
    p, v = truth[:, None, :n], truth[:, None, n + 2:]
    assumed = _row_norms(q - p - dt * v_assumed[:, None])
    failures = list(failures)  # the projectors' own list stays untouched
    for i in np.flatnonzero(~np.isfinite(assumed).all(axis=1)).tolist():
        failures[i] = failures[i] or DimensionMismatch(
            "the deviation's ranges overflow")
    r = _row_norms(q - p - dt * v) - assumed
    return _budgets((projector @ r[..., None])[..., 0], inv_f[:, :n, :n],
                    failures)


def bias_deviated_velocity(batch: MeasurementBatch, bs: BsConstellation,
                           truth: FullParams, v_assumed) -> ErrorBudget:
    """Position bias of the known-velocity estimator when the supplied
    velocity deviates from the true one.

    The bias is the weighted projection of the residual between the true
    and the assumed displaced geometric ranges; the variance is the usual
    noise-only position block.
    """
    v = np.asarray(v_assumed, dtype=float)[None]
    _require_velocity(v, (1, bs.n_dim))
    windows, truths, _ = _one(batch, truth, bs)
    return bias_deviated_velocity_stack(windows, bs, truths, v).one()


def bias_drift_only(batch: MeasurementBatch, bs: BsConstellation,
                    truth: FullParams) -> ErrorBudget:
    """Movement-induced position bias of the drift-only baseline, which
    ignores the UD displacement accumulated across the batch."""
    return bias_deviated_velocity(batch, bs, truth, np.zeros(bs.n_dim))


class OrderingCheck(NamedTuple):
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
    if prior.n_dim != n:
        raise DimensionMismatch("prior dimension does not match BSs")
    k = n + 2
    f = fim(batch, bs, truth, "uvd")
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


class DeviationBoundCheck(NamedTuple):
    """One deviation against the quadratic lower bound on the bias."""

    deviation: np.ndarray
    bias_norm_sq: float
    bound: float
    holds: bool


class BiasLowerBound(NamedTuple):
    alpha: float
    checks: tuple[DeviationBoundCheck, ...]


def bias_linear_lower_bound(batch: MeasurementBatch, bs: BsConstellation,
                            truth: FullParams,
                            deviations) -> BiasLowerBound:
    """Lower bound on the deviated-velocity bias, with its remainder.

    S1 holds the position rows of the weighted projector and S2 = dt*e the
    first-order sensitivity of the residual to a velocity deviation (the
    negated velocity block of the joint design at the truth, ``e`` the LOS
    from the displaced UD at distance |x_i| from its BS); alpha is the
    smallest eigenvalue of S2^T S1^T S1 S2.  The residual is S2 dv - R,
    with 0 <= R_i <= h_i^2 / (2 (|x_i| - h_i)) for h_i = |dt_i| ||dv||
    (the norm's Hessian is at most 1/|x|), so ||bias|| >= sqrt(alpha)
    ||dv|| - ||S1||_2 ||R||; the bound is 0 where some h_i >= |x_i|.
    """
    windows, truths, _ = _one(batch, truth, bs)
    projectors = kvd_projectors(windows, bs, truths)
    if projectors.failures[0] is not None:
        raise projectors.failures[0]
    projector = projectors.projector[0]
    s2 = -build_design_uvd(batch, bs, truth)[:, bs.n_dim + 2:]
    s = s2.T @ projector.T @ projector @ s2
    alpha = float(np.min(np.linalg.eigvalsh(s)))
    s1_norm = float(np.linalg.norm(projector, 2))
    to_bs = bs.positions[batch.bs_index] - truth.p
    dist = _row_norms(to_bs - batch.dt[:, None] * truth.v)

    checks = []
    for dv in deviations:
        dv = np.asarray(dv, dtype=float)
        _require_velocity(dv, (bs.n_dim,))
        with np.errstate(over="ignore", invalid="ignore"):
            exact = bias_deviated_velocity_stack(
                windows, bs, truths, (truth.v + dv)[None], projectors).one()
            bias_sq = float(np.dot(exact.bias, exact.bias))
            size = float(np.linalg.norm(dv))
            h = np.abs(batch.dt) * size
            r_norm = (float(np.linalg.norm(h * h / (2.0 * (dist - h))))
                      if np.all(h < dist) else np.inf)
        bound = max(0.0, max(alpha, 0.0) ** 0.5 * size - s1_norm * r_norm) ** 2
        checks.append(DeviationBoundCheck(deviation=dv, bias_norm_sq=bias_sq,
                                          bound=bound, holds=bias_sq >= bound))
    return BiasLowerBound(alpha=alpha, checks=tuple(checks))
