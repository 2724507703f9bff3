"""Iterative weighted-least-squares position solvers.

All four estimators run one Gauss-Newton loop over the whitened system of
``model.WhitenedSystem``: known-velocity and drift-only solves drop the
velocity columns, the MAP solve appends the velocity-prior rows.  Each
step solves ``A step = z`` through the SVD ``A = U S V^T`` of the whitened
design rather than by inverting the normal matrix, which keeps the
delta-prior limit of the MAP variant well-conditioned; the reported
covariance is ``V S^-2 V^T`` at the final iterate.  Every factorization
(each step and the final check, both through ``rank_rule``) goes through
``_svd``: numpy's LAPACK SVD gufunc, called bare.  It gives
``np.linalg.svd``'s bits without the wrapper's per-call dispatch, which
on one 8-by-4 design costs about half as much again as the
factorization, and NaN factors for a matrix LAPACK rejects.
A stack of ``_SPLIT_MIN`` designs or more (the harness's stacks, never
one window) is factored in chunks on the usable CPUs at once, with no
option to set: each matrix is factored alone, so the bits do not depend
on the CPU count.

The loop comes in two sizes with the same floating-point operations.
``solve_stack`` runs a stack of windows with numpy's stacked
``svd``/``matmul``, and a window that fails or converges leaves the
stack through a mask; the Monte Carlo harness passes it a design family.
The public ``solve_*`` hold one window and run ``_solve``, the same loop
without masks, which raises the window's failure where it occurs.  The
solves of one batch share its window set-up (the part of its
``WhitenedSystem`` that no estimator changes, and the start's ``[p, b]``),
which the first keeps on the batch, with no option to set: the reports
are bit-identical either way.  The happy-path guards (rank rule, loop
exit, ``_window_part``'s BS index test and ``WhitenedSystem.at``'s
UD-on-a-BS test) depend on the size: one window compares Python
numbers, which costs less than numpy reductions on a few values, a
stack reduces with ufuncs, and NaN, +0.0 and -0.0 take the same branch
either way.  The stack's final check factors ``S`` alone and
forms no covariance (the harness forms one when it is read), and those
values may differ from the ``U``/``V`` path's in the last place.
"""

from __future__ import annotations

import contextvars
import math
import os
import queue
import sys
import threading
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
    WindowStack,
    _all_finite,
    _freeze,
    _require_finite,
    _require_velocity,
    _row_norms,
    _trusted_params,
    _window_part,
    build_design_kvd,
    build_design_pvd,
    build_design_uvd,
    parameter_count,
    prior_rows,
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


# np.linalg.svd's gufuncs, and np.linalg.cholesky's and np.linalg.inv's
# for the error theory, which give NaN where those functions raise, bound
# here so that a numpy without them fails at import, not inside a solve.
_SVD_USV, _SVD_S = _umath_linalg.svd_s, _umath_linalg.svd
_CHOLESKY, _INV = _umath_linalg.cholesky_lo, _umath_linalg.inv

# The smallest stack ``_svd`` splits, and twice the smallest chunk it
# hands to a thread.  On a 2-core x86-64 host, 8x4 and 10x6 designs with
# U and V took 1.2-1.9 times as long split in two as in one call at 8-16
# matrices, about as long at 24-32 and 0.6-0.75 of the time from 48 on;
# 64 leaves a margin for a busy second core.  A one-window solve never
# starts a thread.
_SPLIT_MIN = 64
# numpy's gufunc loop keeps the GIL unless its problem size exceeds 500,
# which for the S-only gufunc is the chunk's count of singular values; a
# chunk of fewer holds the GIL and the chunks run in series, at a loss
# (on the host above, 250 8x4 designs took 1.3-1.5 times as long split
# into chunks of 500 values, 192 10x6 designs 0.6 of the time into 576).
_GIL_HELD = 500


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


class _Workers:
    """Daemon threads that run ``_svd``'s chunks from one queue."""

    def __init__(self):
        self.tasks = queue.SimpleQueue()
        self.size = 0

    def serve(self, size: int) -> queue.SimpleQueue:
        """The task queue, once ``size`` threads read it."""
        while self.size < size:
            threading.Thread(target=self._run, daemon=True,
                             name=f"seqloc-svd-{self.size}").start()
            self.size += 1
        return self.tasks

    def _run(self):
        while True:
            job, args, done = self.tasks.get()
            job(*args)
            # An idle worker keeps no split stack alive.
            del job, args
            done.put(None)


_workers, _workers_lock = None, threading.Lock()


def _forget_workers():
    """Run in a child of ``fork``, which inherits the pool and its lock but
    none of the threads: a task queued for them would never be served."""
    global _workers, _workers_lock
    _workers, _workers_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(after_in_child=_forget_workers)


def _svd(a: np.ndarray, compute_uv: bool = True):
    """``np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)`` of
    a float64 stack by the same gufunc, under the caller's error state; a
    matrix LAPACK rejects gets NaN factors, and the invalid flag is set.

    A stack of ``_SPLIT_MIN`` matrices or more is factored in contiguous
    chunks, one per usable CPU at most (``os.sched_getaffinity``), each
    of at least ``_SPLIT_MIN // 2`` matrices and, without U and V, more
    than ``_GIL_HELD`` singular values (see both constants for the
    measurements behind them).  The calling thread factors the first
    chunk and worker threads the others, at once: the gufunc releases the
    GIL.  Each matrix is factored alone, so the bits depend neither on the
    split nor on the CPU count.  Each chunk runs in a copy of the caller's
    context, so under its ``np.errstate``; FP flags are per thread, so an
    exception a chunk raises (a FloatingPointError included) is raised
    here once every chunk has finished, the first chunk's first, and a
    warning or call the error state asks for comes from the thread that
    factored the chunk.  The workers start on the first split in each
    process: a child of ``fork`` starts its own."""
    if len(a) >= _SPLIT_MIN:
        least = _SPLIT_MIN // 2
        if not compute_uv:
            least = max(least, _GIL_HELD // min(a.shape[1:]) + 1)
        parts = min(_usable_cpus(), len(a) // least)
        if parts > 1:
            return _svd_split(a, compute_uv, parts)
    if compute_uv:
        return _SVD_USV(a, signature="d->ddd")
    return _SVD_S(a, signature="d->d")


def _svd_split(a: np.ndarray, compute_uv: bool, parts: int):
    """``_svd`` of the stack ``a`` in ``parts`` contiguous chunks, each
    written by the gufunc into its slice of preallocated factors."""
    global _workers
    with _workers_lock:
        if _workers is None:
            _workers = _Workers()
        tasks = _workers.serve(parts - 1)
    count, rows, cols = a.shape
    p = min(rows, cols)
    s = np.empty((count, p))
    if compute_uv:
        gufunc, signature = _SVD_USV, "d->ddd"
        out = (np.empty((count, rows, p)), s, np.empty((count, p, cols)))
    else:
        gufunc, signature, out = _SVD_S, "d->d", (s,)
    edges = [count * j // parts for j in range(parts + 1)]
    chunks = [(a[lo:hi], tuple(x[lo:hi] for x in out))
              for lo, hi in zip(edges, edges[1:])]
    errors, done = [None] * parts, queue.SimpleQueue()

    def job(j, context):
        try:
            context.run(gufunc, chunks[j][0], signature=signature,
                        out=chunks[j][1])
        except BaseException as exc:  # raised below, on the caller
            errors[j] = exc

    for j in range(1, parts):
        tasks.put((job, (j, contextvars.copy_context()), done))
    job(0, contextvars.copy_context())
    for _ in range(1, parts):
        done.get()
    for exc in errors:
        if exc is not None:
            raise exc
    return out if compute_uv else s


# Whitened columns that overflow (times, a prior), or a UD so far out
# that its distances to the BSs overflow: the design holds NaN.
_OVERFLOWED_DESIGN = ("the whitened design overflows: measurements or times "
                      "too large, or too tight a prior")
# An information A^T A that float64 cannot hold (sigma below about
# 1e-154 m), or that ``analysis._invert`` finds indefinite or beyond its cap.
_INDEFINITE = "Fisher information is not positive-definite"


def _cheap_rule(a: np.ndarray, failures: list, trials, degenerate=None,
                m: int | None = None, *factored) -> np.ndarray:
    """``rank_rule``'s clauses that need no factorization, then its SVD
    clauses ``factored`` (mask, error, message), setting ``failures[k]``
    for each window ``k`` of ``trials`` to the first that holds; returns
    the mask of the others.  The cheap ones: too few rows (``m`` of them
    pseudoranges, every row when None), a design that is not finite (NaN,
    never inf alone, on which OpenBLAS prints a DLASCL message), a UD on
    a BS."""
    rows, params = a.shape[-2:]
    m = rows if m is None else m
    keep = np.ones(len(a), dtype=bool)
    for mask, error, message in (
            (np.full(len(a), rows < params), RankDeficient,
             f"need at least {m + params - rows} measurements, got {m}"),
            (~np.isfinite(a).all(axis=(1, 2)), DimensionMismatch,
             _OVERFLOWED_DESIGN),
            (degenerate, DegenerateGeometry,
             "UD coincides with a BS in this batch"), *factored):
        if mask is not None:
            for k in np.asarray(trials)[keep & mask].tolist():
                failures[k] = error(message)
            keep &= ~mask
    return keep


def rank_rule(a: np.ndarray, failures: list, trials, degenerate=None,
              m: int | None = None, compute_uv: bool = True):
    """The one rule a whitened design must pass before a solve uses it.

    Factors the designs ``a`` (L, rows, P) of the windows ``trials`` and
    sets ``failures[k]`` once for each window ``k`` that cannot determine
    its parameters, to the first of:

    * ``_cheap_rule``'s: too few rows, a design that is not finite (whose
      singular values ``_svd`` gives NaN), a UD on a BS;
    * a condition number beyond MAX_DESIGN_CONDITION, or a zero,
      negative-zero or NaN smallest singular value (RankDeficient);
    * a largest singular value that squares to inf, so that float64 holds
      neither ``A^T A`` nor ``V S^-2 V^T`` (RankDeficient, _INDEFINITE).

    Returns the mask of the usable windows (None when every window is)
    and their SVD ``(U, S, V^T)``, or ``S`` alone without ``compute_uv``
    (the harness's final check).  The error theory factors none: past the
    cheap clauses ``analysis._invert`` decides, with a condition cap of
    its own, since rounding can pass a singular information.  Runs under
    the caller's error state, which must ignore every flag.
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
    keep = _cheap_rule(
        a, failures, trials, degenerate, m,
        (~((last > 0) & (first / last <= MAX_DESIGN_CONDITION)),
         RankDeficient, "whitened design matrix is rank-deficient"),
        (~(first * first < np.inf), RankDeficient, _INDEFINITE))
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


def initial_vectors(bs: BsConstellation, bs_index: np.ndarray,
                    rho: np.ndarray, v0: np.ndarray | None = None,
                    q: np.ndarray | None = None) -> np.ndarray:
    """Deterministic geometry-aware starts ``[p, b, d]`` (T, N+2) for the
    windows ``bs_index``/``rho`` (T, M), whose BS indices are in range:
    the centroid of the BSs each window hears, the offset from the mean
    range mismatch, zero drift; extended with the velocities ``v0``
    (T, N) to ``[p, b, d, v]`` when given; ``q`` are the measurements' BS
    rows when gathered.  The offset of a window whose pseudoranges
    overflow that mean is infinite.  Runs under the caller's error state,
    which must ignore overflow."""
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
    and per window None or the SeqlocError that ended it (its other
    entries are then meaningless, and it is not converged).
    ``theta`` is read-only."""

    theta: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    step_norm: np.ndarray
    failures: list


@np.errstate(all="ignore")
def solve_stack(system: WhitenedSystem, theta: np.ndarray,
                cfg: SolverConfig = SolverConfig()) -> StackSolution:
    """The Gauss-Newton loop on a stack of windows (``_solve`` runs one),
    from the initial vectors ``theta`` (T, P).

    A window leaves the loop when its step norm drops below the threshold
    (converged), at the iteration cap (not converged), or when it fails:
    a start that is not finite (DimensionMismatch: ``initial_vectors``
    overflowed on its pseudoranges), a design that fails the
    ``rank_rule``, or a step beyond the divergence guard (Diverged, also
    when it overflows to inf or NaN).  Failures are recorded per window,
    never raised.  While every window is still iterating the arrays are
    used whole, without indexing.  The final check factors ``S`` alone and
    forms no covariance (``covariances`` forms them on demand).  It sets
    its own error state, which ignores every flag.
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

    final = (np.arange(count) if not any(failures)
             else np.flatnonzero([f is None for f in failures]))
    theta.setflags(write=False)
    covariances(system, theta, final, failures, form=False)
    if any(failures):  # a failed window has not converged
        converged[[f is not None for f in failures]] = False
    return StackSolution(theta, iterations, converged, step_norm, failures)


def covariances(system: WhitenedSystem, theta: np.ndarray, rows,
                failures: list | None = None, form: bool = True):
    """Read-only covariances ``V S^-2 V^T`` (T, P, P) at the final iterates
    ``theta`` (T, P) of the windows ``rows``, NaN elsewhere, from one SVD
    of their designs; each matrix is factored alone, so its bits are the
    same in any stack.  With ``failures``, the ``rank_rule`` checks that
    SVD first and fails the windows it rejects (the loop has failed every
    window with too few rows); without ``form`` it factors ``S`` alone
    and None is returned.  Runs under the caller's error state, which must
    ignore every flag."""
    if not rows.size:  # every window failed in the loop
        return (_freeze(np.full(theta.shape + theta.shape[1:], np.nan))
                if form else None)
    whole = len(rows) == len(theta)
    a, _, degenerate = system.at(theta if whole else theta[rows],
                                 None if whole else rows, residual=False)
    keep, svd = ((None, _svd(a)) if failures is None else rank_rule(
        a, failures, rows, degenerate, compute_uv=form))
    if not form:
        return None
    _, s, vt = svd
    covariance = (vt.mT / (s**2)[..., None, :]) @ vt
    if keep is None and whole:
        return _freeze(covariance)
    stacked = np.full(theta.shape + theta.shape[1:], np.nan)
    stacked[rows if keep is None else rows[keep]] = covariance
    return _freeze(stacked)


def _window_set_up(batch: MeasurementBatch, bs: BsConstellation):
    """The window part of ``batch``'s WhitenedSystem against ``bs`` and
    its known-velocity start ``[p, b, 0]`` (1, N+2) from
    ``initial_vectors``, read-only.  They are kept in one slot on the
    immutable batch with the constellation they were made against, which
    is matched by identity: a batch solved against another constellation
    makes them again and replaces the slot.  A BS index out of range
    raises before anything is kept.  Runs under the caller's error state,
    which must ignore every flag."""
    slot = batch.__dict__.get("_set_up")
    if slot is None or slot[0] is not bs:
        window = _window_part(bs, WindowStack.of([batch]))
        start = initial_vectors(bs, batch.bs_index[None], window.rho,
                                q=window.q)
        start.setflags(write=False)
        slot = batch.__dict__["_set_up"] = bs, window, start
    return slot[1], slot[2]


@np.errstate(all="ignore")
def _solve(batch: MeasurementBatch, bs: BsConstellation,
           init: KvdParams | FullParams | None, cfg: SolverConfig,
           v_known=None, priors=None) -> EstimateReport:
    """``solve_stack``'s operations on one window, without masks, from
    ``init`` or else from ``initial_vectors`` (with the system's
    ``v_start``), under one error state that ignores every flag; the
    window's failure is raised where it occurs.  The system is built on
    the window part that ``_window_set_up`` keeps with the start's
    ``[p, b]``, so the solves of one batch share both."""
    window, start = _window_set_up(batch, bs)
    priors = None if priors is None else prior_rows(priors, bs.n_dim)
    system = WhitenedSystem(window, v_known, priors)
    if init is None:
        # initial_vectors(..., system.v_start), bit for bit
        theta = (start if system.v_start is None
                 else np.concatenate([start, system.v_start], axis=1))
        if not _all_finite(theta):
            raise DimensionMismatch(_OVERFLOWED_START)
    else:
        theta = init.as_vector()[None]
        if theta.shape[1:] != (system.n_params,):
            raise DimensionMismatch(
                "initial guess does not match the estimator")
    failures = [None]
    guard = min(cfg.divergence_guard, sys.float_info.max)
    for iteration in range(1, cfg.max_iter + 1):
        a, z, degenerate = system.at(theta)
        keep, (u, s, vt) = rank_rule(a, failures, (0,), degenerate, system.m)
        if keep is not None:
            raise failures[0]
        step = vt.mT @ ((u.mT @ z[..., None]) / s[..., None])
        theta = theta + step[..., 0]
        norm = math.sqrt((step.mT @ step).item())
        # Leave below the threshold, or beyond the guard (NaN included).
        if not (norm >= cfg.threshold and norm <= guard):
            if not norm <= guard:
                raise Diverged(f"step norm {norm:.3e} exceeded guard")
            converged = True
            break
    else:
        converged = False
    theta.setflags(write=False)
    covariance = covariances(system, theta, np.zeros(1, dtype=int), failures)
    if failures[0] is not None:
        raise failures[0]
    return EstimateReport(_trusted_params(theta[0], bs.n_dim), iteration,
                          converged, covariance[0], norm)


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
