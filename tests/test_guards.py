"""Edge cases of the solvers' per-window guards, at one window and at three.

A stack of one window compares Python floats; a larger stack reduces with
ufuncs.  Both must send NaN, +0.0 and -0.0 down the same branch.  Here
``np.linalg.svd`` is wrapped so that its first call of a solve overwrites
the singular values (or scales ``U``) of one window, and each guard sees a
crafted value: the rank rule's smallest singular value and condition
number, and the loop's step norm.
"""

import numpy as np
import pytest

from seqloc import SolverConfig, solve_known_velocity
from seqloc.errors import Diverged, RankDeficient
from seqloc.model import WhitenedSystem
from seqloc.solvers import MAX_DESIGN_CONDITION, initial_vectors, solve_stack

from conftest import canonical_batch


def _just_above_cap(s):
    """Set the smallest singular value of ``s`` (one window's, descending)
    so that the condition number is the first float above the cap."""
    last = s[0] / MAX_DESIGN_CONDITION
    while s[0] / last <= MAX_DESIGN_CONDITION:
        last = np.nextafter(last, 0.0)
    s[-1] = last
    assert s[0] / s[-1] > MAX_DESIGN_CONDITION


def _smallest(value):
    def edit(u, s, vt):
        s[-1] = value
    return edit


RANK_EDITS = {
    "nan": _smallest(np.nan),
    "zero": _smallest(0.0),
    "negative-zero": _smallest(-0.0),
    "condition": lambda u, s, vt: _just_above_cap(s),
}


def _scale_u(factor):
    def edit(u, s, vt):
        u *= factor
    return edit


# A NaN U makes every step entry NaN; a U scaled by 1e200 keeps the step
# finite (about 1e204 m) but overflows its squared norm to inf.
STEP_EDITS = {"nan": _scale_u(np.nan), "inf": _scale_u(1e200)}


def _patch_first_svd(monkeypatch, window, edit):
    """Wrap ``np.linalg.svd`` so that its next call applies ``edit`` to
    the factors of window ``window``; later calls are left alone."""
    real = np.linalg.svd
    calls = [0]

    def svd(a, *args, **kwargs):
        out = real(a, *args, **kwargs)
        if calls[0] == 0:
            edit(*(x[window] for x in out))
        calls[0] += 1
        return out

    monkeypatch.setattr(np.linalg, "svd", svd)
    return calls


def _stack_of(batch, bs, v, count):
    system = WhitenedSystem.of([batch] * count, bs, v_known=[v] * count)
    start = initial_vectors(bs, np.stack([batch.bs_index] * count),
                            np.stack([batch.rho] * count))
    return system, start


def _check(monkeypatch, bs, batch, v, windows, edit, cfg, error, message):
    """Solve ``windows`` copies of ``batch`` with ``edit`` applied to the
    middle window's first SVD: that window fails with ``error`` and
    ``message``, and every other window equals the unedited solve."""
    alone = solve_known_velocity(batch, bs, v, cfg=cfg)
    system, start = _stack_of(batch, bs, v, windows)
    middle = windows // 2
    with monkeypatch.context() as patch:
        calls = _patch_first_svd(patch, middle, edit)
        if windows == 1:
            with pytest.raises(error) as failed:
                solve_known_velocity(batch, bs, v, cfg=cfg)
            assert str(failed.value) == message
            assert calls[0] >= 1
            return
        sol = solve_stack(system, start, cfg)
    assert isinstance(sol.failures[middle], error)
    assert str(sol.failures[middle]) == message
    for k in range(windows):
        if k == middle:
            continue
        assert sol.failures[k] is None
        assert np.array_equal(sol.theta[k], alone.params.as_vector())
        assert sol.iterations[k] == alone.iterations
        assert np.array_equal(sol.covariance[k], alone.covariance)


@pytest.mark.parametrize("windows", [1, 3], ids=("T=1", "T=3"))
def test_rank_guard_rejects_crafted_singular_values(monkeypatch, bs_square,
                                                     moving_truth, windows):
    batch = canonical_batch(bs_square, moving_truth)
    for edit in RANK_EDITS.values():
        _check(monkeypatch, bs_square, batch, moving_truth.v, windows, edit,
               SolverConfig(), RankDeficient,
               "whitened design matrix is rank-deficient")


@pytest.mark.parametrize("windows", [1, 3], ids=("T=1", "T=3"))
def test_exit_guard_diverges_on_a_non_finite_step(monkeypatch, bs_square,
                                                  moving_truth, windows):
    batch = canonical_batch(bs_square, moving_truth)
    # An infinite guard leaves only the non-finite norms to diverge.
    cfg = SolverConfig(divergence_guard=np.inf)
    for name, edit in STEP_EDITS.items():
        _check(monkeypatch, bs_square, batch, moving_truth.v, windows, edit,
               cfg, Diverged, f"step norm {name} exceeded guard")
