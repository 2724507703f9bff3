"""Work-count guards: the single-window paths do a fixed amount of set-up
and factorization work per call, and a Monte Carlo sweep builds no object
per trial, counted rather than timed."""

import argparse
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import seqloc.cli
import seqloc.model
from seqloc import (
    ConstantVelocity,
    EstimateReport,
    FullParams,
    MeasurementBatch,
    TrialRecord,
    VelocityPrior,
    solve_drift_only,
    solve_joint_velocity,
    solve_known_velocity,
    solve_prior_velocity,
    synthesize_batch,
    trial_rng,
)
from seqloc.experiments import default_scenario, default_spec, run_experiment


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
    svd_calls = _counting(monkeypatch, np.linalg, "svd")
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


PER_TRIAL_TYPES = (TrialRecord, EstimateReport, MeasurementBatch, FullParams,
                   ConstantVelocity)


def _counting_objects(monkeypatch) -> Counter:
    """Count the PER_TRIAL_TYPES objects built from now on, through their
    constructors or through ``model._trusted`` (which skips them), by
    class name."""
    built = Counter()
    for cls in PER_TRIAL_TYPES:
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
