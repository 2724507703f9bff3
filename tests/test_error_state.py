"""Every path into the rank rule and the batch checks under a caller's
strictest error state.

The rank rule and its SVD run under their caller's error state, so each
entry point must set the state its arithmetic needs.  Under
``np.errstate(all="raise")`` with every warning an error, each path must
give the results, or the SeqlocErrors, that it gives under numpy's
default state: a flag the package raises and means to ignore must never
reach the caller.
"""

import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest

from seqloc import (VelocityPrior, bias_drift_only, solve_drift_only,
                    solve_joint_velocity, solve_known_velocity,
                    solve_prior_velocity, theoretical_rmse, wls_step)
from seqloc.config import load_config, scenario_from_config
from seqloc.errors import DimensionMismatch, SeqlocError
from seqloc.experiments import run_experiment
from seqloc.model import (WhitenedSystem, WindowStack, _window_part,
                          build_design_kvd, residual)
from seqloc.solvers import initial_vectors, solve_stack

from conftest import canonical_batch, make_batch

GITHUB = Path(__file__).resolve().parents[1] / ".github"


def _bits(x):
    """``x`` in a form that compares equal exactly when the values are the
    same bits (NaN included)."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return type(x).__name__, tuple(_bits(v) for v in x)
    if isinstance(x, dict):
        return tuple((k, _bits(v)) for k, v in x.items())
    if dataclasses.is_dataclass(x):
        return type(x).__name__, _bits(dataclasses.astuple(x))
    return x


def _outcome(run):
    """The bits of what ``run()`` returns, or the type and message of the
    SeqlocError it raises."""
    try:
        return _bits(run())
    except SeqlocError as exc:
        return type(exc).__name__, str(exc)


def _experiment(study, config):
    cfg, spec = scenario_from_config(load_config(GITHUB / config),
                                     experiment=study)
    result = run_experiment(spec, cfg)
    cells = tuple((cell.theta, cell.iterations, cell.converged,
                   cell.step_norm, cell.covariance, cell.errors)
                  for cell in result.records.values())
    return result.rows, cells


def _windows(bs, truth):
    """A healthy window, one whose information overflows (sigma 1e-160 m)
    and one whose whitened times overflow (times 1e150 s apart)."""
    return {"good": canonical_batch(bs, truth),
            "tiny": canonical_batch(bs, truth, sigma=1e-160),
            "overflowed": make_batch(np.arange(8) % 4, 1e150 * np.arange(8),
                                     rho=np.full(8, 20.0), sigma=1e-160)}


def _paths(bs, truth):
    """Every entry point into the rank rule and the batch checks, each a
    call that builds its own inputs."""
    prior = VelocityPrior.isotropic(truth.v, 2.0)
    paths = {}
    for name in ("good", "tiny", "overflowed"):
        def batch(name=name):
            return _windows(bs, truth)[name]
        paths.update({
            f"kvd-{name}": lambda b=batch: solve_known_velocity(b(), bs,
                                                               truth.v),
            f"uvd-{name}": lambda b=batch: solve_joint_velocity(b(), bs),
            f"pvd-{name}": lambda b=batch: solve_prior_velocity(b(), bs,
                                                               prior),
            f"d-{name}": lambda b=batch: solve_drift_only(b(), bs),
            f"theory-kvd-{name}": lambda b=batch: theoretical_rmse(
                "kvd", b(), bs, truth),
            f"theory-uvd-{name}": lambda b=batch: theoretical_rmse(
                "uvd", b(), bs, truth),
            f"theory-pvd-{name}": lambda b=batch: theoretical_rmse(
                "pvd", b(), bs, truth, prior),
            f"bias-d-{name}": lambda b=batch: bias_drift_only(b(), bs,
                                                              truth),
        })

    def wls(singular):
        good = _windows(bs, truth)["good"]
        at = truth.kvd_part()
        g = build_design_kvd(good, bs, at, truth.v)
        if singular:  # a zero drift column: a zero singular value
            g[:, -1] = 0.0
        r = residual(good, bs, at, truth.v)
        return wls_step(g, np.diag(good.sigma ** -2.0), r)
    paths["wls-step"] = lambda: wls(False)
    paths["wls-step-singular"] = lambda: wls(True)
    paths["speed-sweep-tiny-noise"] = lambda: _experiment(
        "speed-sweep", "identity-tiny-noise.json")
    paths["noise-sweep-uvd-pvd-overflow"] = lambda: _experiment(
        "noise-sweep-uvd-pvd", "identity-overflow-uvd-pvd.json")
    return paths


def test_every_path_ignores_its_own_flags(bs_square, moving_truth):
    paths = _paths(bs_square, moving_truth)
    default = {name: _outcome(run) for name, run in paths.items()}
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        strict = {name: _outcome(run) for name, run in paths.items()}
    for name in paths:
        assert strict[name] == default[name], name
    # The paths reach the outcomes they are here for.
    assert default["kvd-good"][0] == "EstimateReport"
    assert default["kvd-tiny"] == (
        "RankDeficient", "Fisher information is not positive-definite")
    assert default["uvd-overflowed"][0] == "DimensionMismatch"
    assert default["theory-pvd-tiny"][0] == "RankDeficient"
    assert default["wls-step-singular"] == (
        "RankDeficient", "whitened design matrix is rank-deficient")


def test_the_constructor_runs_under_its_callers_error_state(bs_square,
                                                            moving_truth):
    """A known velocity holding inf sets the invalid flag at the epoch row
    (``0 * inf``).  The bare constructor leaves the flag to its caller's
    error state; ``WhitenedSystem.of`` sets its own, so the window builds
    without a warning and fails later, in the rank rule."""
    batch = canonical_batch(bs_square, moving_truth)
    v = np.array([[np.inf, 0.0]])
    window = _window_part(bs_square, WindowStack.of([batch]))
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        WhitenedSystem(window, v)
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        system = WhitenedSystem.of([batch], bs_square, v_known=v)
        sol = solve_stack(system, initial_vectors(
            bs_square, batch.bs_index[None], system.rho, system.v_start))
    assert isinstance(sol.failures[0], DimensionMismatch)
    assert str(sol.failures[0]).startswith("the whitened design overflows")
