"""The solvers' SVD seam ``_svd`` against ``np.linalg.svd``.

``_svd`` calls numpy's LAPACK gufunc without the wrapper around it, so it
must give the wrapper's results bit for bit, with and without U and V.  On
a design LAPACK rejects, where the wrapper raises LinAlgError, it raises
the invalid flag and fills that window's factors, and only that window's,
with NaN: the rank rule relies on those NaN singular values to find a
broken window.

The error theory's positive-definiteness rule calls numpy's Cholesky
gufunc bare in the same way (``_CHOLESKY``): it must give
``np.linalg.cholesky``'s bits, and a NaN factor, without an exception or
a warning, for a matrix that is not positive-definite.

A stack of ``_SPLIT_MIN`` or more is split across the usable CPUs: the
bits must not depend on the split, a child of ``fork`` must start its own
threads, and a one-window solve must start none.
"""

import gc
import hashlib
import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import seqloc
from seqloc import solvers
from seqloc.cli import main
from seqloc.model import VelocityPrior
from seqloc.solvers import (_SPLIT_MIN, _svd, solve_drift_only,
                            solve_joint_velocity, solve_known_velocity,
                            solve_prior_velocity)

from conftest import canonical_batch

SHAPES = [(8, 4), (8, 6), (10, 6), (3, 4)]  # 3x4: fewer rows than columns
# 257 is split wherever two CPUs are usable; its middle window, where the
# NaN test puts its bad design, lies past the first chunk, which the
# calling thread factors.
STACKS = [1, 3, 50, 257]


def _designs(count, shape, seed=19):
    return np.random.default_rng(seed).standard_normal((count,) + shape)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("count", STACKS, ids=lambda t: f"T={t}")
def test_svd_equals_numpy_bit_for_bit(count, shape):
    a = _designs(count, shape)
    ours = _svd(a)
    theirs = np.linalg.svd(a, full_matrices=False)
    assert len(ours) == 3
    for mine, ref in zip(ours, theirs):
        assert mine.dtype == ref.dtype and mine.shape == ref.shape
        assert mine.tobytes() == ref.tobytes()
    s = _svd(a, compute_uv=False)
    ref = np.linalg.svd(a, full_matrices=False, compute_uv=False)
    assert s.dtype == ref.dtype and s.shape == ref.shape
    assert s.tobytes() == ref.tobytes()


@pytest.mark.parametrize("compute_uv", [True, False], ids=("usv", "s"))
@pytest.mark.parametrize("count", STACKS, ids=lambda t: f"T={t}")
def test_svd_rejects_a_nan_design_as_numpy_does(count, compute_uv):
    a = _designs(count, (8, 4))
    bad = count // 2
    a[bad, 2, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    # Without U and V, LAPACK may also raise the divide-by-zero flag.
    with np.errstate(all="ignore", invalid="raise"), \
            pytest.raises(FloatingPointError, match="invalid value"):
        _svd(a, compute_uv)
    with np.errstate(all="ignore"):
        ours = _svd(a, compute_uv)
    ours = ours if compute_uv else (ours,)
    assert len(ours) == (3 if compute_uv else 1)
    for k in range(count):
        if k == bad:
            assert all(np.isnan(mine[k]).all() for mine in ours)
            continue
        theirs = np.linalg.svd(a[k], full_matrices=False,
                               compute_uv=compute_uv)
        for mine, ref in zip(ours, theirs if compute_uv else (theirs,)):
            assert mine[k].dtype == ref.dtype and mine[k].shape == ref.shape
            assert mine[k].tobytes() == ref.tobytes()


def _informations(count, n, seed=23):
    """``count`` SPD matrices (n, n), each ``G^T G`` of a random G."""
    g = np.random.default_rng(seed).standard_normal((count, n + 4, n))
    return g.mT @ g


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("count", STACKS, ids=lambda t: f"T={t}")
def test_cholesky_equals_numpy_bit_for_bit(count, n):
    f = _informations(count, n)
    ours = solvers._CHOLESKY(f, signature="d->d")
    ref = np.linalg.cholesky(f)
    assert ours.dtype == ref.dtype and ours.shape == ref.shape
    assert ours.tobytes() == ref.tobytes()


@pytest.mark.parametrize("count", STACKS, ids=lambda t: f"T={t}")
def test_cholesky_fills_nan_where_numpy_raises(count):
    f = _informations(count, 4)
    bad = count // 2
    f[bad] = np.diag([1.0, -1.0, 2.0, 3.0])
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        np.linalg.cholesky(f)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("error")
        ours = solvers._CHOLESKY(f, signature="d->d")
    assert np.isnan(ours[bad]).all()
    others = np.delete(np.arange(count), bad)
    assert (ours[others].tobytes()
            == np.linalg.cholesky(f[others]).tobytes())


def _digest(factors) -> str:
    return hashlib.sha256(b"".join(x.tobytes() for x in factors)).hexdigest()


def test_one_usable_cpu_factors_the_split_bits(monkeypatch):
    """With one usable CPU a large stack is factored whole, on the calling
    thread, to the bits of the split."""
    splits, split = [], solvers._svd_split

    def counted(*args):
        splits.append(args)
        return split(*args)

    monkeypatch.setattr(solvers, "_svd_split", counted)
    a = _designs(4 * _SPLIT_MIN + 1, (10, 6))
    shared = _svd(a), _svd(a, compute_uv=False)
    assert len(splits) == (2 if solvers._usable_cpus() > 1 else 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert solvers._usable_cpus() == 1
    splits.clear()
    alone = _svd(a), _svd(a, compute_uv=False)
    assert splits == []
    for mine, ref in zip((*shared[0], shared[1]), (*alone[0], alone[1])):
        assert mine.dtype == ref.dtype and mine.shape == ref.shape
        assert mine.tobytes() == ref.tobytes()


def test_concurrent_callers_share_the_workers(monkeypatch):
    """Callers on more threads than there are CPUs, starting the pool
    together and switching often, each get their own stack's bits."""
    stacks = [_designs(4 * _SPLIT_MIN + 1, (8, 6), seed) for seed in range(6)]
    expected = [_digest((*_svd(a), _svd(a, compute_uv=False)))
                for a in stacks]
    monkeypatch.setattr(solvers, "_workers", None)
    got = [[] for _ in stacks]

    def call(k):
        for _ in range(10):
            got[k].append(_digest((*_svd(stacks[k]),
                                   _svd(stacks[k], compute_uv=False))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(k,))
                   for k in range(len(stacks))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[digest] * 10 for digest in expected]


def test_idle_workers_keep_no_stack_alive(monkeypatch):
    """Once a split returns, nothing of it is left on an idle worker: the
    stack and its factors are freed when the caller drops them."""
    monkeypatch.setattr(solvers, "_usable_cpus", lambda: 2)
    a = _designs(2 * _SPLIT_MIN, (8, 4))
    u, s, vt = _svd(a)
    inputs, values = weakref.ref(a), weakref.ref(s)
    del a, u, s, vt
    gc.collect()
    assert inputs() is None and values() is None


def _factor_in_child(a, conn, inherited):
    u, s, vt = _svd(a)
    # With one usable CPU nothing splits, and there is no pool to inherit.
    conn.send((_digest((u, s, vt, _svd(a, compute_uv=False))),
               inherited is None or solvers._workers is not inherited))
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
def test_forked_child_splits_with_its_own_threads():
    """A child forked after a split inherits the pool but not its
    threads: it must start its own, not wait on the dead ones, and factor
    the same bits."""
    a = _designs(4 * _SPLIT_MIN + 1, (8, 6))
    expected = _digest((*_svd(a), _svd(a, compute_uv=False)))
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    with warnings.catch_warnings():
        # Python 3.12+ warns that forking a threaded process may deadlock.
        warnings.simplefilter("ignore", DeprecationWarning)
        child = ctx.Process(target=_factor_in_child,
                            args=(a, send, solvers._workers))
        child.start()
    send.close()
    try:
        assert receive.poll(60), "the forked child hung in _svd"
        digest, own_pool = receive.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    assert digest == expected and own_pool


def test_one_window_solves_start_no_thread(bs_square, moving_truth):
    batch = canonical_batch(bs_square, moving_truth)
    before = threading.active_count()
    solve_known_velocity(batch, bs_square, moving_truth.v)
    solve_joint_velocity(batch, bs_square)
    solve_prior_velocity(batch, bs_square,
                         VelocityPrior.isotropic(np.zeros(2), 2.0))
    solve_drift_only(batch, bs_square)
    assert threading.active_count() == before


def test_cli_solve_starts_no_thread(tmp_path, capsys):
    """A fresh process running ``seqloc solve`` with each estimator holds
    only its main thread."""
    assert main(["simulate", "--seed", "3"]) == 0
    path = tmp_path / "batch.csv"
    path.write_text(capsys.readouterr().out)
    code = ("import sys, threading; from seqloc.cli import main\n"
            "for kind in ('kvd', 'uvd', 'pvd', 'd'):\n"
            "    assert main(['solve', '--batch', sys.argv[1],"
            " '--estimator', kind]) == 0\n"
            "print(threading.active_count(), file=sys.stderr)")
    env = dict(os.environ,
               PYTHONPATH=str(Path(seqloc.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                         check=True, capture_output=True, text=True)
    assert run.stdout.count("converged=true") == 4
    assert run.stderr == "1\n"
