"""Work-count guards: the single-window paths do a fixed amount of set-up
and factorization work per call, counted rather than timed."""

import argparse

import numpy as np
import pytest

import seqloc.cli
from seqloc import (
    VelocityPrior,
    solve_drift_only,
    solve_joint_velocity,
    solve_known_velocity,
    solve_prior_velocity,
    synthesize_batch,
    trial_rng,
)
from seqloc.experiments import default_scenario


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
