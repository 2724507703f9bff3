"""Work-count guards: the single-window paths do a fixed amount of set-up
and factorization work per call, a Monte Carlo sweep builds no object and
seeds no generator per trial, solves and evaluates its theory once per
design family and factors no U or V at the final iterate until a
covariance is read, and importing seqloc loads no numpy.random, counted
rather than timed."""

import argparse
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import seqloc
import seqloc.analysis
import seqloc.cli
import seqloc.experiments
import seqloc.model
import seqloc.simulate
import seqloc.solvers
from seqloc import (
    ConstantVelocity,
    EstimateReport,
    FullParams,
    MeasurementBatch,
    SolverConfig,
    TrialRecord,
    VelocityPrior,
    solve_drift_only,
    solve_joint_velocity,
    solve_known_velocity,
    solve_prior_velocity,
    synthesize_batch,
    trial_rng,
)
from seqloc.errors import DimensionMismatch, Diverged
from seqloc.experiments import (default_scenario, default_spec,
                                run_experiment, write_experiment)
from seqloc.model import WhitenedSystem
from seqloc.solvers import initial_vectors, solve_stack

from conftest import canonical_batch, make_batch


def _counting(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that each call is counted; returns the
    one-element list holding the count."""
    original = getattr(owner, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("kind", ["kvd", "uvd", "pvd", "d"])
def test_one_svd_per_iteration_plus_the_covariance(monkeypatch, kind):
    cfg = default_scenario("circular", seed=5)
    svd_calls = _counting(monkeypatch, seqloc.solvers, "_svd")
    wrapper_calls = _counting(monkeypatch, np.linalg, "svd")
    for k in range(0, 200, 20):
        batch, truth = synthesize_batch(cfg, k, trial_rng(cfg.seed, k))
        before = svd_calls[0]
        if kind == "kvd":
            report = solve_known_velocity(batch, cfg.bs, truth.v)
        elif kind == "uvd":
            report = solve_joint_velocity(batch, cfg.bs)
        elif kind == "pvd":
            report = solve_prior_velocity(
                batch, cfg.bs, VelocityPrior.isotropic(truth.v, 2.0))
        else:
            report = solve_drift_only(batch, cfg.bs)
        assert report.converged
        assert svd_calls[0] - before == report.iterations + 1
    assert wrapper_calls[0] == 0


def _recording_svds(monkeypatch) -> list:
    """Wrap ``solvers._svd`` so that each call appends whether it forms U
    and V; returns the list."""
    svd, calls = seqloc.solvers._svd, []

    def recorded(a, compute_uv=True):
        calls.append(compute_uv)
        return svd(a, compute_uv)

    monkeypatch.setattr(seqloc.solvers, "_svd", recorded)
    return calls


@pytest.mark.parametrize("kind", ["kvd", "uvd", "pvd", "d"])
def test_public_solves_form_u_and_v_at_the_final_iterate(monkeypatch, kind):
    """The public ``solve_*`` report a covariance: every factorization,
    the final one included, forms U and V, also for a window stopped at
    the iteration cap.  A window that diverges makes no final one."""
    cfg = default_scenario("circular", seed=5)
    calls = _recording_svds(monkeypatch)
    for k in range(0, 200, 40):
        batch, truth = synthesize_batch(cfg, k, trial_rng(cfg.seed, k))

        def solve(solver_cfg):
            calls.clear()
            return {"kvd": lambda: solve_known_velocity(
                        batch, cfg.bs, truth.v, cfg=solver_cfg),
                    "uvd": lambda: solve_joint_velocity(
                        batch, cfg.bs, cfg=solver_cfg),
                    "pvd": lambda: solve_prior_velocity(
                        batch, cfg.bs, VelocityPrior.isotropic(truth.v, 2.0),
                        cfg=solver_cfg),
                    "d": lambda: solve_drift_only(
                        batch, cfg.bs, cfg=solver_cfg)}[kind]()

        report = solve(SolverConfig())
        assert report.converged
        assert calls == [True] * (report.iterations + 1)
        capped = solve(SolverConfig(max_iter=3))
        assert not capped.converged and capped.iterations == 3
        assert calls == [True] * 4
        # The first step, from the centroid of the BSs, is metres long.
        with pytest.raises(Diverged):
            solve(SolverConfig(divergence_guard=1.0))
        assert calls == [True]


def _kvd_and_d_family():
    """The kvd and d cells of one speed-sweep draw of 20 trials, solved as
    one design family."""
    cfg = replace(default_scenario("speed-sweep", seed=11), n_trials=20)
    draws = seqloc.simulate.draw_trials(cfg)
    return seqloc.simulate.solve_cells(
        [(seqloc.simulate.EstimatorSpec(kind=kind), draws)
         for kind in ("kvd", "d")])


def test_a_cell_family_factors_s_alone_at_the_final_iterate(monkeypatch):
    """One factorization with U and V per loop iteration, then one of S
    alone for the final rank rule and one for the theory's rank rule at
    the truths, and no covariance."""
    calls = _recording_svds(monkeypatch)
    formed = _counting(monkeypatch, seqloc.simulate, "covariances")
    cells = _kvd_and_d_family()
    assert all(cell.converged.all() for cell in cells)
    loops = max(cell.iterations.max().item() for cell in cells)
    assert calls == [True] * loops + [False, False]
    assert formed[0] == 0


def test_reading_a_cell_covariance_factors_it_once(monkeypatch):
    """The first read of a cell's covariance factors its final designs
    once, with U and V; later reads and records reuse it."""
    cells = _kvd_and_d_family()
    calls = _recording_svds(monkeypatch)
    for i, cell in enumerate(cells, 1):
        first = cell.covariance
        assert calls == [True] * i
        assert cell.covariance is first
        assert np.shares_memory(cell[3].report.covariance, first)
        assert calls == [True] * i


@pytest.mark.parametrize("study", ["stationary-noise", "speed-sweep",
                                   "velocity-deviation", "noise-sweep-uvd-pvd",
                                   "speed-compare", "circular"])
def test_a_study_factors_no_final_design_with_u_and_v(monkeypatch, tmp_path,
                                                      study):
    """A study's factorizations with U and V are its loops' iterations, one
    per design family and iteration: no final design, no covariance."""
    calls = _recording_svds(monkeypatch)
    formed = _counting(monkeypatch, seqloc.simulate, "covariances")
    loops, solve = [], seqloc.simulate.solve_stack

    def counted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        loops.append(sol.iterations.max().item())
        return sol

    monkeypatch.setattr(seqloc.simulate, "solve_stack", counted)
    cfg = replace(default_scenario(study, seed=11), n_trials=10)
    result = run_experiment(default_spec(study), cfg)
    write_experiment(result, tmp_path, svg=True)
    assert all(row.non_converged == 0 for row in result.rows)
    assert calls.count(True) == sum(loops)
    assert formed[0] == 0


def test_one_svd_per_iteration_beside_an_overflowed_window(
        monkeypatch, bs_square, moving_truth):
    """A stack whose middle window's whitened times overflow (sigma
    1e-160 m, times 1e150 s apart) is factored once per iteration plus
    once for the final check, as a stack of healthy windows is."""
    good = canonical_batch(bs_square, moving_truth)
    overflowed = make_batch(np.arange(8) % 4, 1e150 * np.arange(8),
                            rho=np.full(8, 20.0), sigma=1e-160)
    batches = [good, overflowed, good]
    system = WhitenedSystem.of(batches, bs_square)
    start = initial_vectors(bs_square,
                            np.stack([b.bs_index for b in batches]),
                            system.rho, system.v_start)
    svd_calls = _counting(monkeypatch, seqloc.solvers, "_svd")
    sol = solve_stack(system, start)
    assert isinstance(sol.failures[1], DimensionMismatch)
    assert sol.failures[0] is None and sol.failures[2] is None
    assert sol.iterations[0] == sol.iterations[2]
    assert svd_calls[0] == sol.iterations[0] + 1


def test_cli_builds_no_parser_per_call(monkeypatch, tmp_path, capsys):
    seqloc.cli.main(["simulate", "--seed", "3", "--out", str(tmp_path)])
    batch = str(tmp_path / "batch.csv")
    built = _counting(monkeypatch, argparse.ArgumentParser, "__init__")
    for kind in ("kvd", "uvd", "pvd", "d", "kvd", "uvd", "pvd", "d"):
        assert seqloc.cli.main(["solve", "--batch", batch,
                                "--estimator", kind]) == 0
    assert seqloc.cli.main(["crlb"]) == 0
    assert seqloc.cli.main(["simulate", "--seed", "4"]) == 0
    capsys.readouterr()
    assert built[0] == 0


def test_cli_solve_skips_the_top_level_parse(monkeypatch, tmp_path, capsys):
    """A ``solve`` call is parsed by the solve subparser alone; an argv
    that names no subcommand still goes through the whole tree."""
    seqloc.cli.main(["simulate", "--seed", "3", "--out", str(tmp_path)])
    batch = str(tmp_path / "batch.csv")
    top = _counting(monkeypatch, seqloc.cli.PARSER, "parse_known_args")
    for kind in ("kvd", "uvd", "pvd", "d"):
        assert seqloc.cli.main(["solve", "--batch", batch,
                                "--estimator", kind]) == 0
    with pytest.raises(SystemExit):
        seqloc.cli.main(["solve", "--batch", batch, "--estimator", "kvd",
                         "extra"])
    assert top[0] == 0
    for argv in (["-h"], ["bogus"]):
        with pytest.raises(SystemExit):
            seqloc.cli.main(argv)
    capsys.readouterr()
    assert top[0] == 2


def test_cli_solve_builds_no_scenario(monkeypatch, tmp_path, capsys):
    """``seqloc solve`` needs only the default constellation, not the
    whole default scenario."""
    seqloc.cli.main(["simulate", "--seed", "3", "--out", str(tmp_path)])
    batch = str(tmp_path / "batch.csv")
    scenarios = [_counting(monkeypatch, module, "default_scenario")
                 for module in (seqloc.cli, seqloc.experiments)]
    for kind in ("kvd", "uvd", "pvd", "d", "kvd", "uvd", "pvd", "d"):
        assert seqloc.cli.main(["solve", "--batch", batch,
                                "--estimator", kind]) == 0
    assert seqloc.cli.main(["solve", "--batch", batch, "--estimator", "kvd",
                            "--seed", "7"]) == 0
    assert seqloc.cli.main(["solve", "--batch", batch, "--estimator", "pvd",
                            "--prior-mean", "1,2"]) == 0
    capsys.readouterr()
    assert [calls[0] for calls in scenarios] == [0, 0]


def test_isotropic_prior_solve_factors_nothing_but_the_svds(
        monkeypatch, tmp_path, capsys):
    """An isotropic prior's information root is ``I / std``: the pvd
    solve, through the library or ``seqloc solve``, runs no eigvalsh, inv
    or cholesky, at set-up or in the loop, and builds no identity matrix
    for the prior or its rows."""
    cfg = default_scenario("circular", seed=5)
    batch, truth = synthesize_batch(cfg, 7, trial_rng(cfg.seed, 7))
    seqloc.cli.main(["simulate", "--seed", "3", "--out", str(tmp_path)])
    path = str(tmp_path / "batch.csv")
    calls = [_counting(monkeypatch, np.linalg, name)
             for name in ("eigvalsh", "inv", "cholesky")]
    calls.append(_counting(monkeypatch, np, "eye"))
    for std in (0.5, 2.0, 8.0):
        report = solve_prior_velocity(
            batch, cfg.bs, VelocityPrior.isotropic(truth.v, std))
        assert report.converged
        assert seqloc.cli.main(["solve", "--batch", path, "--estimator",
                                "pvd", f"--prior-std={std}"]) == 0
    assert "converged=true" in capsys.readouterr().out
    assert [count[0] for count in calls] == [0, 0, 0, 0]


def test_cli_solve_validates_its_batch_once(monkeypatch, tmp_path, capsys):
    """``seqloc solve`` builds one MeasurementBatch through its
    constructor, the one check of the file's numbers; the solve itself
    validates nothing again."""
    seqloc.cli.main(["simulate", "--seed", "3", "--out", str(tmp_path)])
    path = str(tmp_path / "batch.csv")
    checks = _counting(monkeypatch, MeasurementBatch, "__post_init__")
    for kind in ("kvd", "uvd", "pvd", "d"):
        checks[0] = 0
        assert seqloc.cli.main(["solve", "--batch", path,
                                "--estimator", kind]) == 0
        assert checks[0] == 1
    capsys.readouterr()


PER_TRIAL_TYPES = (TrialRecord, EstimateReport, MeasurementBatch, FullParams,
                   ConstantVelocity)


def _counting_objects(monkeypatch) -> Counter:
    """Count the PER_TRIAL_TYPES objects built from now on, through their
    constructors (``__new__`` for the NamedTuple records, ``__init__``
    for the dataclasses) or through ``model._trusted`` (which skips
    them), by class name."""
    built = Counter()
    for cls in PER_TRIAL_TYPES:
        if issubclass(cls, tuple):
            def counted_new(cls, *args, __new=cls.__new__, **kwargs):
                built[cls.__name__] += 1
                return __new(cls, *args, **kwargs)
            monkeypatch.setattr(cls, "__new__", staticmethod(counted_new))
            continue
        def counted_init(self, *args, __init=cls.__init__, **kwargs):
            built[type(self).__name__] += 1
            __init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted_init)
    trusted = seqloc.model._trusted

    def counted_trusted(cls, **fields):
        if cls in PER_TRIAL_TYPES:
            built[cls.__name__] += 1
        return trusted(cls, **fields)
    for name, module in list(sys.modules.items()):
        if name.startswith("seqloc") and getattr(module, "_trusted",
                                                 None) is trusted:
            monkeypatch.setattr(module, "_trusted", counted_trusted)
    return built


def test_counting_objects_sees_every_per_trial_type(monkeypatch):
    """The counter sees each record a trial's outcome is read through:
    the TrialRecord and its EstimateReport by their constructors, the
    batch and the truth through ``_trusted``."""
    cfg = replace(default_scenario("speed-sweep", seed=11), n_trials=2)
    cell = seqloc.simulate.run_monte_carlo(
        cfg, seqloc.simulate.EstimatorSpec(kind="kvd"))
    built = _counting_objects(monkeypatch)
    record = cell[0]
    assert record.converged
    assert built == Counter({"TrialRecord": 1, "EstimateReport": 1,
                             "MeasurementBatch": 1, "FullParams": 1})


@pytest.mark.parametrize("study", ["speed-compare", "circular"])
def test_sweep_builds_no_object_per_trial(monkeypatch, study):
    """The four estimators (nominal-prior pvd in speed-compare,
    truth-centred pvd in circular) over 10 and over 40 trials per cell
    build the same number of per-trial objects."""
    spec = default_spec(study, grid=default_spec(study).grid[:2])
    built = _counting_objects(monkeypatch)
    counts = []
    for trials in (10, 40):
        built.clear()
        cfg = replace(default_scenario(study, seed=11), n_trials=trials)
        result = run_experiment(spec, cfg)
        assert sum(row.trials for row in result.rows) == (
            trials * len(spec.grid) * len(spec.estimators))
        counts.append(dict(built))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("study", ["speed-compare", "circular"])
def test_sweep_seeds_no_generator_per_trial(monkeypatch, study):
    """A draw seeds its trials' streams in one pass: a sweep over 10 and
    over 40 trials per cell makes the same number of default_rng calls."""
    spec = default_spec(study, grid=default_spec(study).grid[:2])
    made = _counting(monkeypatch, np.random, "default_rng")
    counts = []
    for trials in (10, 40):
        made[0] = 0
        cfg = replace(default_scenario(study, seed=11), n_trials=trials)
        run_experiment(spec, cfg)
        counts.append(made[0])
    assert counts[0] == counts[1]


@pytest.mark.parametrize("study", ["noise-sweep-uvd-pvd", "speed-compare"])
def test_sweep_point_reads_its_streams_once(monkeypatch, study):
    """The cells of a sweep point, a nominal-prior pvd among them, read
    one generator pass: a study makes one PCG64 per grid point and trial,
    at 10 and at 40 trials per cell, and hashes all its trial seeds in
    one trial_seeds call, at one grid point and over the whole grid."""
    made = _counting(monkeypatch, np.random, "PCG64")
    hashed = _counting(monkeypatch, seqloc.simulate, "trial_seeds")
    grid = default_spec(study).grid
    for trials in (10, 40):
        cfg = replace(default_scenario(study, seed=11), n_trials=trials)
        for points in (1, len(grid)):
            made[0] = hashed[0] = 0
            run_experiment(default_spec(study, grid=grid[:points]), cfg)
            assert (made[0], hashed[0]) == (points * trials, 1)


# The calls one run_experiment makes, whatever its grid: solve_stack once
# per design family (known velocity: kvd and d; joint: uvd; prior rows:
# pvd), the kvd projectors once when a kvd or d cell is there, and
# theoretical_rmse_stack once per uvd or pvd estimator.
FAMILY_CALLS = {
    "stationary-noise": (1, 1, 0),
    "speed-sweep": (1, 1, 0),
    "velocity-deviation": (1, 1, 0),
    "noise-sweep-uvd-pvd": (2, 0, 2),
    "speed-compare": (3, 1, 2),
    "circular": (3, 1, 2),
}


@pytest.mark.parametrize("study", list(FAMILY_CALLS))
def test_sweep_solves_once_per_design_family(monkeypatch, study):
    """A study at one grid point and at its whole default grid makes the
    same solve and theory calls."""
    calls = [_counting(monkeypatch, module, name) for module, name in (
        (seqloc.simulate, "solve_stack"),
        (seqloc.analysis, "kvd_projectors"),
        (seqloc.analysis, "theoretical_rmse_stack"))]
    grid = default_spec(study).grid
    cfg = replace(default_scenario(study, seed=11), n_trials=10)
    for points in sorted({1, len(grid)}):
        for count in calls:
            count[0] = 0
        result = run_experiment(default_spec(study, grid=grid[:points]), cfg)
        assert all(row.non_converged == 0 for row in result.rows)
        assert tuple(count[0] for count in calls) == FAMILY_CALLS[study]


def test_import_leaves_numpy_random_unloaded():
    """numpy imports numpy.random on first access; importing seqloc makes
    no such access, so a process that draws nothing never pays for it."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(seqloc.__file__).resolve().parents[1]))
    code = "import sys, seqloc; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"


def test_import_leaves_concurrent_futures_unloaded():
    """The SVD's worker threads use threading and queue alone: importing
    the CLI does not pay for concurrent.futures (and logging)."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(seqloc.__file__).resolve().parents[1]))
    code = ("import sys, seqloc.cli; "
            "print('concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"
