"""Reference-loop equality for the Gauss-Newton solver.

The functions below are the loop as written with ufunc reductions for every
per-window guard, whatever the stack size: ``rank_rule``, ``solve_stack``,
``_final_covariance``, the starts of ``initial_vectors`` and the design of
``WhitenedSystem.at``, kept verbatim.  The package runs one window
through a loop without masks that compares Python floats (the public
``solve_*``) and larger stacks through the reductions, with the same
floating-point operations, so every output column must be bit-equal to
this reference and every failure must have the same type and message:
for one window, whichever way it ends, for whole Monte Carlo cells, and
for cells whose windows diverge, converge or stop at the iteration cap.
A stack's solve forms no covariance and runs its final rank rule on the
singular values alone, as the reference does without ``covariance``; the
covariance column a cell forms when it is read must equal the
reference's, which comes from a second SVD, with U and V, of the final
designs that pass that rule.  A public solve checks its final iterate
with U and V, as the reference does with ``covariance``.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from seqloc import (
    EstimatorSpec,
    SolverConfig,
    VelocityPrior,
    simulate,
    solve_drift_only,
    solve_joint_velocity,
    solve_known_velocity,
    solve_prior_velocity,
    synthesize_batch,
    trial_rng,
)
from seqloc.errors import (DegenerateGeometry, DimensionMismatch, Diverged,
                           RankDeficient, SeqlocError)
from seqloc.config import scenario_from_config
from seqloc.experiments import default_scenario
from seqloc.model import (DEFAULT_GEOMETRY_EPS, BsConstellation,
                          WhitenedSystem, _freeze)
from seqloc.solvers import (_INDEFINITE, _OVERFLOWED_DESIGN,
                            _OVERFLOWED_START, MAX_DESIGN_CONDITION)

# Verbatim reference code starts here.


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis: ``np.linalg.norm(x, axis=-1)``
    with the same floating-point operations, without its Python overhead."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _los(q, p, shift):
    """Unit LOS vectors and distances from the UD, displaced by ``shift``
    (``v*dt`` per row), toward the BS rows ``q``, one row per measurement,
    over any leading trial axes; plus the per-window mask of UDs within
    DEFAULT_GEOMETRY_EPS of a BS, or None when there is none.  The LOS
    rows of a masked window are finite but meaningless."""
    diff = q - p[..., None, :] - shift
    dist = safe = _row_norms(diff)
    degenerate = None
    if np.minimum.reduce(dist, axis=None) < DEFAULT_GEOMETRY_EPS:
        near = dist < DEFAULT_GEOMETRY_EPS
        degenerate = near.any(axis=-1)
        safe = np.where(near, 1.0, dist)
    return diff / safe[..., None], dist, degenerate


class ReferenceSystem:
    """The arrays of a ``WhitenedSystem`` under the reference ``at``."""

    def __init__(self, system):
        self.__dict__.update(vars(system))

    def at(self, theta: np.ndarray, live=None):
        """Whitened designs ``A`` (L, rows, P), residuals ``z`` (L, rows)
        and the degenerate-geometry mask (L,) or None (see ``_los``) at
        the parameter vectors ``theta`` (L, P) of the trials ``live``
        (every trial when None).  ``theta`` is the raw ``[p, b, d]`` or
        ``[p, b, d, v]``; a known velocity reads only its leading
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
        n, m = self.n_dim, dt.shape[-1]
        v = theta[:, n + 2:]
        if shift is None:
            shift = dt_col * v[:, None, :]
        los, dist, degenerate = _los(q, theta[:, :n], shift)
        np.multiply(los, neg_w, out=a[:, :m, :n])
        if self.v_known is None:
            np.multiply(los * dt_col, neg_w, out=a[:, :m, n + 2:])
        z = (rho - (dist + theta[:, n, None] + theta[:, n + 1, None] * dt)) * w
        if root is None:
            return a, z, degenerate
        prior_z = (root @ (mean - v)[..., None])[..., 0]
        return a, np.concatenate([z, prior_z], axis=1), degenerate


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
      negative-zero or NaN smallest singular value (RankDeficient);
    * a largest singular value that squares to inf, so that float64 holds
      neither ``A^T A`` nor ``V S^-2 V^T`` (RankDeficient, _INDEFINITE).

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
            and np.minimum.reduce(last) > 0
            and np.maximum.reduce(s[:, 0] / last) <= MAX_DESIGN_CONDITION
            and np.maximum.reduce(s[:, 0]) ** 2 < np.inf):
        return None, svd
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        conditioned = (last > 0) & (s[:, 0] / last <= MAX_DESIGN_CONDITION)
        held = s[:, 0] * s[:, 0] < np.inf
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


class Solution(NamedTuple):
    """The reference loop's outcome: ``StackSolution``'s columns and the
    covariances (T, P, P) of the final check, NaN for a failed window."""

    theta: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    step_norm: np.ndarray
    covariance: np.ndarray
    failures: list


@np.errstate(over="ignore", invalid="ignore")
def solve_stack(system: WhitenedSystem, theta: np.ndarray,
                cfg: SolverConfig = SolverConfig(),
                covariance: bool = True) -> Solution:
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
    covariance = _final_covariance(system, theta, final, failures,
                                   covariance)
    return Solution(theta, iterations, converged, step_norm,
                    _freeze(covariance), failures)


def _final_covariance(system: WhitenedSystem, theta: np.ndarray, final,
                      failures: list, compute_uv: bool = True) -> np.ndarray:
    """Covariances ``V S^-2 V^T`` (T, P, P) at the final iterates ``theta``
    of the windows ``final`` (every window when None), NaN elsewhere.  A
    window whose design is unusable at its final iterate fails here (the
    loop has already failed every window with too few rows).  Without
    ``compute_uv`` the rank rule factors S alone, and the covariances come
    from a second SVD of the designs that pass it."""
    if final is not None and not final.size:
        return np.full(theta.shape + theta.shape[1:], np.nan)
    a, _, degenerate = system.at(theta if final is None else theta[final],
                                 final)
    trials = np.arange(len(theta)) if final is None else final
    keep, svd = rank_rule(a, failures, trials, degenerate,
                          compute_uv=compute_uv)
    if not compute_uv:
        svd = np.linalg.svd(a if keep is None else a[keep],
                            full_matrices=False)
    _, s, vt = svd
    covariance = (vt.mT / (s**2)[..., None, :]) @ vt
    if final is None and keep is None:
        return covariance
    stacked = np.full(theta.shape + theta.shape[1:], np.nan)
    stacked[trials if keep is None else trials[keep]] = covariance
    return stacked


# Verbatim reference code ends here.

KINDS = ("kvd", "pvd", "uvd", "d")
PRIOR_STD = 2.0
MIXED = SolverConfig(max_iter=3, divergence_guard=1499.4)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _failure(exc):
    return None if exc is None else (type(exc), str(exc))


def _assert_columns_equal(got, want, covariance):
    """Equal columns of the StackSolution ``got``, with the ``covariance``
    formed for it, and of the reference Solution ``want``, compared as
    arrays and as bits (which also tells -0.0 from 0.0), and equal
    failures."""
    for name, a in zip(Solution._fields, (*got[:4], covariance)):
        b = getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name
        assert a.tobytes() == b.tobytes(), name
    assert ([_failure(f) for f in got.failures]
            == [_failure(f) for f in want.failures])


def _one_window(kind, batch, truth, bs, cfg):
    """The system and start the public solve of ``kind`` builds for one
    window, and that solve's report or failure under ``cfg``."""
    v0 = None
    if kind in ("kvd", "d"):
        v = truth.v if kind == "kvd" else np.zeros(bs.n_dim)
        system = WhitenedSystem.of([batch], bs, v_known=np.asarray(v)[None])
    elif kind == "uvd":
        system, v0 = WhitenedSystem.of([batch], bs), np.zeros(bs.n_dim)
    else:
        prior = VelocityPrior.isotropic(truth.v, PRIOR_STD)
        system, v0 = WhitenedSystem.of([batch], bs, priors=[prior]), prior.mean
    solve = {"kvd": lambda: solve_known_velocity(batch, bs, truth.v, cfg=cfg),
             "d": lambda: solve_drift_only(batch, bs, cfg=cfg),
             "uvd": lambda: solve_joint_velocity(batch, bs, cfg=cfg),
             "pvd": lambda: solve_prior_velocity(
                 batch, bs, VelocityPrior.isotropic(truth.v, PRIOR_STD),
                 cfg=cfg)}
    try:
        outcome = solve[kind]()
    except SeqlocError as exc:
        outcome = exc
    start = initial_vectors(bs, batch.bs_index[None], batch.rho[None],
                            None if v0 is None else v0[None])
    return system, start, outcome


# A stationary UD on the BS at [0, 30] of the default square.
ON_A_BS = {"trajectory": {"kind": "stationary", "position": [0, 30]},
           "noise": {"sigma": 1e-12}}


@pytest.mark.parametrize("kind", KINDS)
def test_stacks_of_one_match_the_reference_loop(scenario, kind):
    """The public solve of one window equals the reference loop on a stack
    of one, whichever way the window ends: converged circular fixes; the
    MIXED cell's windows, which converge, diverge or stop at the cap; at a
    noise of 1e-160 m, windows whose information overflows; and a UD on a
    BS at 1e-12 m noise, whose windows all converge in the loop and then
    fail at their final iterate."""
    # (scenario, solver config, the fix of each trial, the ends seen)
    cases = ((default_scenario("circular", seed=20261018), SolverConfig(),
              range(200), {"converged"}),
             (scenario, MIXED, [0] * 60, {"converged", "Diverged",
                                          "max_iter"}),
             (replace(scenario, sigma=1e-160), SolverConfig(), [0] * 10,
              {_INDEFINITE}),
             (scenario_from_config(ON_A_BS)[0], SolverConfig(), [0] * 10,
              {"UD coincides with a BS in this batch"}))
    for cfg, solver_cfg, fixes, ends in cases:
        seen = set()
        for k, fix in enumerate(fixes):
            rng = trial_rng(cfg.seed, k)
            batch, truth = synthesize_batch(
                cfg, fix, rng, trajectory=cfg.trajectory.realize(rng))
            system, start, outcome = _one_window(kind, batch, truth, cfg.bs,
                                                 solver_cfg)
            want = solve_stack(ReferenceSystem(system), start, solver_cfg)
            if isinstance(outcome, SeqlocError):
                assert _failure(outcome) == _failure(want.failures[0])
                seen.add("Diverged" if isinstance(outcome, Diverged)
                         else str(outcome))
                # The reference keeps the flag of a window that converged
                # in the loop and failed at its final iterate.
                assert want.converged[0] == isinstance(outcome,
                                                       DegenerateGeometry)
                continue
            assert want.failures == [None]
            assert _bits(outcome.params.as_vector()) == _bits(want.theta[0])
            assert outcome.iterations == want.iterations[0]
            assert outcome.converged == want.converged[0]
            assert (_bits(outcome.final_step_norm)
                    == _bits(want.step_norm[0]))
            assert _bits(outcome.covariance) == _bits(want.covariance[0])
            assert np.array_equal(outcome.covariance, want.covariance[0])
            seen.add("converged" if outcome.converged else "max_iter")
        assert seen == ends


SPECS = (EstimatorSpec(kind="kvd", speed_deviation=1.0),
         EstimatorSpec(kind="d"),
         EstimatorSpec(kind="uvd"),
         EstimatorSpec(kind="pvd", prior_centering="nominal"))


def _cell_against_reference(monkeypatch, scenario, spec, solver_cfg,
                            n_trials):
    """Run one Monte Carlo cell, checking that its starts and its stacked
    solve equal the reference functions on the same inputs; returns the
    cell's failures."""
    seen = []
    real_start, real_solve = simulate.initial_vectors, simulate.solve_stack

    def start(*args):
        got = real_start(*args)
        assert _bits(got) == _bits(initial_vectors(*args))
        return got

    def solve(system, theta, cfg):
        got = real_solve(system, theta, cfg)
        seen.append((got, solve_stack(ReferenceSystem(system), theta, cfg,
                                      covariance=False)))
        return got

    monkeypatch.setattr(simulate, "initial_vectors", start)
    monkeypatch.setattr(simulate, "solve_stack", solve)
    cell = simulate.run_monte_carlo(replace(scenario, n_trials=n_trials),
                                    spec, solver_cfg)
    assert len(seen) == 1 and len(cell) == n_trials
    got, want = seen[0]
    _assert_columns_equal(got, want, cell.covariance)
    return {"converged" if ok else "max_iter" if f is None
            else type(f).__name__
            for ok, f in zip(got.converged, got.failures)}


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
def test_cells_match_the_reference_loop(monkeypatch, scenario, spec):
    assert _cell_against_reference(monkeypatch, scenario, spec,
                                   SolverConfig(), 50) == {"converged"}


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
def test_mixed_outcome_cells_match_the_reference_loop(monkeypatch, scenario,
                                                      spec):
    outcomes = _cell_against_reference(monkeypatch, scenario, spec, MIXED, 60)
    assert outcomes == {"converged", "Diverged", "max_iter"}


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
def test_overflowing_information_cells_match_the_reference_loop(
        monkeypatch, scenario, spec):
    """At a noise level of 1e-160 m the largest singular value of every
    whitened design squares to inf: the rank rule fails each window at its
    first iteration, on the fast path of the loop as in its table."""
    outcomes = _cell_against_reference(
        monkeypatch, replace(scenario, sigma=1e-160), spec, SolverConfig(), 20)
    assert outcomes == {"RankDeficient"}
