"""Fuzzed batch CSVs through ``seqloc solve``: whatever the file holds, the
command exits 0 with a report or 1 with one ``error:`` line, never with a
traceback or a numpy RuntimeWarning.

Each file starts from a real window of the default scenario, so that many
examples reach the solvers; then a few fields are replaced by values at
and beyond the float64 range or by junk, rows are dropped, repeated or
reordered, and now and then the header or the whole body is garbage."""

import contextlib
import io
import math
import warnings

from hypothesis import HealthCheck, given, settings, strategies as st

from seqloc import synthesize_batch, trial_rng
from seqloc.cli import BATCH_COLUMNS, main
from seqloc.experiments import default_scenario

EXTREMES = (0.0, -0.0, 5e-324, 1e-320, 1e-160, 1e-150, 1e-30, 1e30, 1e150,
            1e154, 1e160, 1e300, 1.7e308, -1.7e308, math.inf, -math.inf,
            math.nan)


def _window(seed):
    cfg = default_scenario(None, seed=seed)
    rng = trial_rng(seed, 0)
    batch, _ = synthesize_batch(cfg, 0, rng,
                                trajectory=cfg.trajectory.realize(rng))
    return [[str(i), f"{t:.17g}", f"{r:.17g}", f"{s:.17g}"]
            for i, t, r, s in zip(batch.bs_index, batch.t, batch.rho,
                                  batch.sigma)]


WINDOWS = [_window(seed) for seed in (3, 4)]

junk = st.text(alphabet="0123456789.,-+eEnaif x", max_size=6)
floats = st.one_of(st.sampled_from(EXTREMES), st.floats(),
                   st.floats(-1e3, 1e3)).map(repr)
indices = st.one_of(st.integers(-2, 6), st.integers(-2**70, 2**70),
                    st.just(10**30)).map(str)
mutation = st.tuples(st.integers(0, 7), st.integers(0, 3), floats, indices,
                     junk, st.integers(0, 9))


@st.composite
def batch_files(draw):
    base = draw(st.sampled_from(WINDOWS))
    order = draw(st.one_of(st.just(list(range(len(base)))),
                           st.permutations(range(len(base))),
                           st.lists(st.integers(0, len(base) - 1),
                                    max_size=12)))
    rows = [list(base[i]) for i in order]
    for r, col, number, index, text, pick in draw(
            st.lists(mutation, max_size=4)):
        if not rows:
            break
        value = text if pick == 0 else index if col == 0 else number
        rows[r % len(rows)][col] = value
    header = draw(st.sampled_from([BATCH_COLUMNS] * 8
                                  + ["bs_index,t,rho", ""]))
    body = "\n".join([header] + [",".join(row) for row in rows]).encode()
    if draw(st.integers(0, 9)) == 0:
        body = (BATCH_COLUMNS + "\n").encode() + draw(st.binary(max_size=40))
    return body


ARGS = {
    "kvd": ("--velocity", "3,-4"),
    "uvd": (),
    "pvd": ("--prior-mean", "3,-4", "--prior-std", "2"),
    "d": (),
}


@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=batch_files(), estimator=st.sampled_from(sorted(ARGS)))
def test_batch_csv_fuzz_exits_cleanly(tmp_path, content, estimator):
    path = tmp_path / "batch.csv"
    path.write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(["solve", "--batch", str(path), "--estimator", estimator,
                     *ARGS[estimator]])
    assert [str(w.message) for w in caught
            if issubclass(w.category, RuntimeWarning)] == []
    if code == 0:
        assert err.getvalue() == ""
        assert "converged=" in out.getvalue()
    else:
        assert code == 1
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
