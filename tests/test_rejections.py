"""Validation branches that no other test reaches: each rejects its input
with its own error type and message."""

import warnings

import numpy as np
import pytest

from seqloc import (ConfigError, DimensionMismatch, EstimatorSpec,
                    RankDeficient, analysis, initial_guess_kvd,
                    solve_joint_velocity)
from seqloc.cli import main
from seqloc.experiments import default_scenario
from seqloc.model import PriorRows, WhitenedSystem, WindowStack
from seqloc.simulate import draw_trials, solve_trials
from seqloc.solvers import _OVERFLOWED_START

from conftest import canonical_batch, make_batch


def test_initial_guess_must_match_the_estimator(bs_square, moving_truth,
                                                moving_batch):
    with pytest.raises(DimensionMismatch,
                       match="initial guess does not match the estimator"):
        solve_joint_velocity(moving_batch, bs_square,
                             init=moving_truth.kvd_part())


def test_pvd_fim_needs_a_prior(bs_square, moving_truth, moving_batch):
    with pytest.raises(RankDeficient,
                       match="prior-velocity FIM needs a velocity prior"):
        analysis.fim(moving_batch, bs_square, moving_truth, "pvd")


def test_fim_of_an_unknown_variant(bs_square, moving_truth, moving_batch):
    with pytest.raises(RankDeficient,
                       match="unknown estimator variant 'd'"):
        analysis.fim(moving_batch, bs_square, moving_truth, "d")


def test_nominal_prior_cell_needs_its_own_draw():
    cfg = default_scenario("speed-compare", trials=2)
    spec = EstimatorSpec("pvd", prior_centering="nominal")
    with pytest.raises(ConfigError, match="trials were drawn for a "
                                          "different velocity prior"):
        solve_trials(spec, draw_trials(cfg))


def test_known_velocity_takes_no_prior(bs_square, moving_batch):
    prior = PriorRows(np.eye(2)[None], np.zeros((1, 2)))
    with pytest.raises(DimensionMismatch,
                       match="a known velocity takes no prior"):
        WhitenedSystem(bs_square, WindowStack.of([moving_batch]),
                       np.zeros((1, 2)), prior)


def test_initial_guess_kvd_rejects_bs_index_out_of_range(bs_square,
                                                         moving_batch):
    batch = make_batch([0, 1, 2, 4, 0, 1, 2, 3], moving_batch.t,
                       rho=moving_batch.rho)
    with pytest.raises(DimensionMismatch,
                       match="batch references a BS index out of range"):
        initial_guess_kvd(batch, bs_square)


def test_initial_guess_kvd_rejects_an_overflowing_offset(bs_square):
    batch = make_batch(np.arange(8) % 4, 0.01 * np.arange(8),
                       rho=np.full(8, 1.7e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DimensionMismatch) as failed:
            initial_guess_kvd(batch, bs_square)
    assert str(failed.value) == _OVERFLOWED_START


def test_cli_epoch_must_be_finite(capsys, tmp_path, bs_square,
                                  moving_truth):
    batch = canonical_batch(bs_square, moving_truth)
    path = tmp_path / "batch.csv"
    path.write_text("bs_index,t,rho,sigma\n" + "".join(
        f"{i},{t!r},{r!r},0.1\n"
        for i, t, r in zip(batch.bs_index.tolist(), batch.t.tolist(),
                           batch.rho.tolist())))
    code = main(["solve", "--batch", str(path), "--estimator", "kvd",
                 "--epoch", "nan"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: localization epoch must be finite\n"
