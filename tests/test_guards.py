"""Edge cases of the solvers' per-window guards, at one window and at three.

A stack of one window compares Python floats; a larger stack reduces with
ufuncs.  Both must send NaN, +0.0 and -0.0 down the same branch.  Here
the solvers' SVD seam ``seqloc.solvers._svd`` is wrapped so that its
first call of a solve overwrites the singular values (or scales ``U``) of
one window, and each guard sees a crafted value: the rank rule's smallest
singular value and condition number, and the loop's step norm.
"""

import warnings

import numpy as np
import pytest

import seqloc.solvers
from seqloc import SolverConfig, solve_known_velocity
from seqloc.errors import Diverged, RankDeficient
from seqloc.model import WhitenedSystem
from seqloc.solvers import MAX_DESIGN_CONDITION, initial_vectors, solve_stack

from seqloc import (BsConstellation, KvdParams, MeasurementBatch,
                    build_design_kvd)
from seqloc.errors import DegenerateGeometry, DimensionMismatch, SeqlocError
from seqloc.model import DEFAULT_GEOMETRY_EPS
from seqloc.solvers import _OVERFLOWED_DESIGN

from conftest import canonical_batch
from conftest import make_batch
from test_reference_loop import (ReferenceSystem, _assert_columns_equal,
                                 initial_vectors as reference_starts,
                                 solve_stack as reference_loop)


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
    """Wrap ``seqloc.solvers._svd`` so that its next call applies ``edit``
    to the factors of window ``window``; later calls are left alone."""
    real = seqloc.solvers._svd
    calls = [0]

    def svd(a, *args, **kwargs):
        out = real(a, *args, **kwargs)
        if calls[0] == 0:
            edit(*(x[window] for x in out))
        calls[0] += 1
        return out

    monkeypatch.setattr(seqloc.solvers, "_svd", svd)
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


# The size-aware branches of the set-up and of the design: a stack of one
# window takes Python's min and max of its BS indices and of its distances
# to the BSs, a larger stack numpy's reductions.  Each case must end as the
# reference loop (every guard a ufunc reduction) ends it, and leave the
# other windows of a stack of three as they are alone.

FAR = 1e308


def _far_constellation(bs):
    """``bs`` and two more BSs, at -FAR and +FAR on the x-axis."""
    return BsConstellation(np.vstack([bs.positions,
                                      [[-FAR, 0.0], [FAR, 0.0]]]))


def _nan_window(bs_far):
    """A window, velocity and start whose UD sits on the BS at -FAR at the
    epoch (distance 0) and, moving at FAR m/s, overflows its distance to
    the BS at +FAR two seconds later to NaN (inf - inf)."""
    left = bs_far.n_bs - 2
    batch = make_batch([left, left + 1, 0, 1, 2, 3, 0, 1],
                       [0.0, 2.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    return batch, np.array([FAR, 0.0]), np.array([-FAR, 0.0, 0.0, 0.0])


def _matches_reference_alone(bs, batch, v, start):
    """The public solve of one window from ``start`` ends as the reference
    loop ends; returns its report or its failure."""
    system = WhitenedSystem.of([batch], bs, v_known=[v])
    want = reference_loop(ReferenceSystem(system), start[None])
    try:
        got = solve_known_velocity(batch, bs, v,
                                   init=KvdParams.from_vector(start))
    except SeqlocError as exc:
        assert (type(exc), str(exc)) == (type(want.failures[0]),
                                         str(want.failures[0]))
        return exc
    assert want.failures == [None]
    assert got.params.as_vector().tobytes() == want.theta[0].tobytes()
    assert got.iterations == want.iterations[0]
    assert got.converged == want.converged[0]
    assert got.covariance.tobytes() == want.covariance[0].tobytes()
    return got


def _matches_reference_stacked(bs, batch, v, crafted):
    """A stack of three windows, the middle one ``crafted`` (a batch, its
    velocity and start), the outer ones ``batch`` from its own start: every
    column equals the reference loop's, and the outer windows equal the
    solve of ``batch`` alone.  Returns the middle window's failure."""
    mid_batch, mid_v, mid_start = crafted
    system = WhitenedSystem.of([batch, mid_batch, batch], bs,
                               v_known=[v, mid_v, v])
    outer = initial_vectors(bs, batch.bs_index[None], batch.rho[None])[0]
    starts = np.stack([outer, mid_start, outer])
    sol = solve_stack(system, starts)
    _assert_columns_equal(sol, reference_loop(ReferenceSystem(system),
                                              starts))
    alone = solve_known_velocity(batch, bs, v)
    for k in (0, 2):
        assert sol.failures[k] is None
        assert sol.theta[k].tobytes() == alone.params.as_vector().tobytes()
        assert sol.iterations[k] == alone.iterations
        assert sol.covariance[k].tobytes() == alone.covariance.tobytes()
    return sol.failures[1]


def _from_near_a_bs(bs, truth, distance, windows):
    """Solve the canonical window of ``truth`` from ``distance`` m to the
    right of the BS at the origin, alone or in the middle of three.  The
    first design marks that window degenerate exactly when ``distance`` is
    below DEFAULT_GEOMETRY_EPS, and gives no mask otherwise, as the
    reference loop's does."""
    batch = canonical_batch(bs, truth)
    start = np.array([distance, 0.0, truth.b, truth.d])
    system = WhitenedSystem.of([batch], bs, v_known=[truth.v])
    mask = system.at(start[None])[2]
    want = ReferenceSystem(system).at(start[None])[2]
    assert (mask is None) == (want is None) == (
        distance >= DEFAULT_GEOMETRY_EPS)
    assert want is None or np.array_equal(mask, want)
    if windows == 1:
        return _matches_reference_alone(bs, batch, truth.v, start)
    return _matches_reference_stacked(bs, batch, truth.v,
                                      (batch, truth.v, start))


@pytest.mark.parametrize("windows", [1, 3], ids=("T=1", "T=3"))
def test_ud_exactly_on_a_bs_is_degenerate(bs_square, moving_truth, windows):
    failure = _from_near_a_bs(bs_square, moving_truth, 0.0, windows)
    assert isinstance(failure, DegenerateGeometry)
    assert str(failure) == "UD coincides with a BS in this batch"


@pytest.mark.parametrize("windows", [1, 3], ids=("T=1", "T=3"))
def test_distances_at_the_geometry_eps(bs_square, moving_truth, windows):
    """One float below DEFAULT_GEOMETRY_EPS from a BS is degenerate; the
    value itself and one float above are not."""
    eps = DEFAULT_GEOMETRY_EPS
    for distance in (np.nextafter(eps, 0.0), eps, np.nextafter(eps, 1.0)):
        outcome = _from_near_a_bs(bs_square, moving_truth, distance, windows)
        assert isinstance(outcome, DegenerateGeometry) == (distance < eps)


@pytest.mark.parametrize("windows", [1, 3], ids=("T=1", "T=3"))
def test_nan_distance_next_to_a_zero_distance(bs_square, moving_truth,
                                              windows):
    """numpy's min of a zero and a NaN is NaN, so the window is not
    degenerate: its design is not finite, which the rank rule reports
    before degenerate geometry, and so does a single design."""
    bs_far = _far_constellation(bs_square)
    crafted = _nan_window(bs_far)
    if windows == 1:
        failure = _matches_reference_alone(bs_far, *crafted)
        with pytest.raises(DimensionMismatch,
                           match="design matrix must be finite"):
            build_design_kvd(crafted[0], bs_far,
                             KvdParams.from_vector(crafted[2]), crafted[1])
    else:
        failure = _matches_reference_stacked(
            bs_far, canonical_batch(bs_square, moving_truth),
            moving_truth.v, crafted)
    assert isinstance(failure, DimensionMismatch)
    assert str(failure) == _OVERFLOWED_DESIGN


@pytest.mark.parametrize("windows", [1, 3], ids=("T=1", "T=3"))
def test_bs_index_range(bs_square, moving_truth, windows):
    """BS index -1 and n_bs are out of range, 0 and n_bs - 1 are not, in a
    stack of one window and in a stack of three."""
    good = canonical_batch(bs_square, moving_truth)
    for index in (-1, 0, bs_square.n_bs - 1, bs_square.n_bs):
        idx = good.bs_index.copy()
        idx[5] = index
        crafted = MeasurementBatch(bs_index=idx, t=good.t, rho=good.rho,
                                   sigma=good.sigma, t_l=good.t_l)
        batches = [crafted] if windows == 1 else [good, crafted, good]
        v = [moving_truth.v] * len(batches)
        if 0 <= index < bs_square.n_bs:
            WhitenedSystem.of(batches, bs_square, v_known=v)
            continue
        with pytest.raises(DimensionMismatch,
                           match="batch references a BS index out of range"):
            WhitenedSystem.of(batches, bs_square, v_known=v)
        if windows == 1:
            with pytest.raises(DimensionMismatch, match="out of range"):
                solve_known_velocity(crafted, bs_square, moving_truth.v)


@pytest.mark.parametrize("heard", [(0, 1, 2, 3), (0, 2), (1, 2, 3), (3,)],
                         ids=("all", "two", "three", "one"))
def test_start_centroid_of_the_heard_bss(bs_square, moving_truth, heard):
    """The start is the centroid of the BSs a window hears, each once,
    whether it hears every BS or some: equal to the reference starts for
    one window, for three alike and for three that differ."""
    order = np.resize(np.array(heard), 8)
    other = np.resize(np.arange(bs_square.n_bs), 8)
    for rows in ([order], [order] * 3, [order, other, order]):
        bs_index = np.stack(rows)
        rho = np.arange(bs_index.size, dtype=float).reshape(bs_index.shape)
        got = initial_vectors(bs_square, bs_index, rho)
        assert got.tobytes() == reference_starts(bs_square, bs_index,
                                                 rho).tobytes()
        assert np.allclose(got[0, :2], bs_square.positions[list(heard)]
                           .mean(axis=0))


def _failure_alone(bs, batch, v, start):
    """The failure of the public solve of one window from ``start``."""
    with pytest.raises(SeqlocError) as failed:
        solve_known_velocity(batch, bs, v, init=KvdParams.from_vector(start))
    return failed.value


@pytest.mark.parametrize("order", ["nan,bs", "bs,nan", "bs,nan,bs",
                                   "nan,bs,nan"])
def test_nan_window_leaves_a_ud_on_a_bs_degenerate(bs_square, moving_truth,
                                                   order):
    """A window with a NaN distance and one whose UD starts exactly on BS
    0, stacked in any order: each fails as it fails alone (design not
    finite, degenerate geometry), with no RuntimeWarning."""
    bs_far = _far_constellation(bs_square)
    windows = {"nan": _nan_window(bs_far),
               "bs": (canonical_batch(bs_square, moving_truth),
                      moving_truth.v,
                      np.array([0.0, 0.0, moving_truth.b, moving_truth.d]))}
    alone = {name: _failure_alone(bs_far, *crafted)
             for name, crafted in windows.items()}
    assert isinstance(alone["nan"], DimensionMismatch)
    assert isinstance(alone["bs"], DegenerateGeometry)
    names = order.split(",")
    batches, vs, starts = zip(*(windows[name] for name in names))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = solve_stack(WhitenedSystem.of(batches, bs_far, v_known=vs),
                          np.stack(starts))
    for name, failure in zip(names, sol.failures):
        assert (type(failure), str(failure)) == (type(alone[name]),
                                                 str(alone[name]))


def _patch_lapack_failure(monkeypatch, window):
    """Wrap the gufunc behind ``seqloc.solvers._svd`` so that its first
    call does what it does when LAPACK's ``dgesdd`` does not converge on
    the finite matrix ``window``: NaN factors for that matrix alone, and
    numpy's invalid flag raised."""
    real = seqloc.solvers._SVD_USV
    calls = [0]

    def svd_s(a, **kwargs):
        out = real(a, **kwargs)
        if calls[0] == 0:
            assert np.isfinite(a[window]).all()
            for x in out:
                x[window] = np.nan
            np.subtract(np.inf, np.inf)
        calls[0] += 1
        return out

    monkeypatch.setattr(seqloc.solvers, "_SVD_USV", svd_s)
    return calls


@pytest.mark.parametrize("windows", [1, 3], ids=("T=1", "T=3"))
def test_finite_design_lapack_rejects_fails_its_window(monkeypatch, bs_square,
                                                       moving_truth, windows):
    """A finite design whose SVD does not converge is rank-deficient: a
    solve of that window alone raises RankDeficient, and in a stack of
    three only that window fails, the others keeping the bits of their
    single solves."""
    batch = canonical_batch(bs_square, moving_truth)
    v = moving_truth.v
    alone = solve_known_velocity(batch, bs_square, v)
    middle = windows // 2
    with monkeypatch.context() as patch:
        calls = _patch_lapack_failure(patch, middle)
        if windows == 1:
            with pytest.raises(RankDeficient) as failed:
                solve_known_velocity(batch, bs_square, v)
        else:
            sol = solve_stack(*_stack_of(batch, bs_square, v, windows))
    assert calls[0] >= 1
    if windows == 1:
        assert str(failed.value) == "whitened design matrix is rank-deficient"
        return
    assert isinstance(sol.failures[middle], RankDeficient)
    assert str(sol.failures[middle]) == (
        "whitened design matrix is rank-deficient")
    assert not sol.converged[middle]
    for k in (0, 2):
        assert sol.failures[k] is None and sol.converged[k]
        assert sol.theta[k].tobytes() == alone.params.as_vector().tobytes()
        assert sol.iterations[k] == alone.iterations
        assert sol.step_norm[k] == alone.final_step_norm
        assert sol.covariance[k].tobytes() == alone.covariance.tobytes()
