"""Validation branches that no other test reaches: each rejects its input
with its own error type and message."""

import json
import math
import warnings

import numpy as np
import pytest

from seqloc import (ConfigError, DimensionMismatch, EstimatorSpec,
                    MeasurementBatch, RankDeficient, SolverConfig,
                    VelocityPrior, analysis,
                    rmse_standard_error, solve_joint_velocity,
                    solve_prior_velocity, synthesize_batch, trial_rng)
from seqloc.cli import main
from seqloc.experiments import default_scenario
from seqloc.model import PriorRows, WhitenedSystem, WindowStack
from seqloc.simulate import draw_points, draw_trials, solve_cells

from conftest import canonical_batch


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
        solve_cells([(spec, draw_trials(cfg))])[0]


def test_one_draw_of_scenarios_shares_a_trial_count():
    cfg = default_scenario("speed-compare", trials=2)
    with pytest.raises(ConfigError, match="the scenarios of one draw must "
                                          "share a trial count"):
        draw_points([cfg, default_scenario("speed-compare", trials=3)],
                    [[None], [None]])


def test_known_velocity_takes_no_prior(bs_square, moving_batch):
    prior = PriorRows(np.eye(2)[None], np.zeros((1, 2)))
    with pytest.raises(DimensionMismatch,
                       match="a known velocity takes no prior"):
        WhitenedSystem(bs_square, WindowStack.of([moving_batch]),
                       np.zeros((1, 2)), prior)


_LENGTH = "batch arrays must share one length"
_NDIM = "batch arrays must be one-dimensional"
_EMPTY = "batch must contain at least one entry"
_TIMES = "times must be finite"
_RANGES = "pseudoranges must be finite"
_EPOCH = "localization epoch must be finite"
_SIGMA = ("sigma must be strictly positive, with a finite non-zero square "
          "and reciprocal")
_OFFSET = "times from the epoch must be finite"


@pytest.mark.parametrize("faults, message", [
    ({"t": [0.0, 0.01, 0.02]}, _LENGTH),
    ({"bs_index": [[0, 1], [2, 3]], "t": [[0.0, 0.01], [0.02, 0.03]],
      "rho": [[20.0, 21.0], [22.0, 23.0]], "sigma": [[0.1] * 2] * 2}, _NDIM),
    ({"bs_index": [], "t": [], "rho": [], "sigma": []}, _EMPTY),
    ({"t": [0.0, math.nan, 0.02, 0.03]}, _TIMES),
    ({"rho": [20.0, 21.0, math.inf, 23.0]}, _RANGES),
    ({"t_l": math.nan}, _EPOCH),
    ({"sigma": [0.1, 0.0, 0.1, 0.1]}, _SIGMA),
    ({"sigma": [0.1, 1e-320, 0.1, 0.1]}, _SIGMA),
    ({"sigma": [0.1, 0.1, 1e308, 0.1]}, _SIGMA),
    ({"sigma": [0.1, 0.1, 0.1, math.nan]}, _SIGMA),
    ({"sigma": [0.1, -0.1, 0.1, 0.1]}, _SIGMA),
    ({"t": [0.0, 0.01, 0.02, 1.7e308], "t_l": -1.7e308}, _OFFSET),
    # Two faults: the earlier check wins.
    ({"t": [0.0, math.nan, 0.02], "rho": [math.inf] * 4}, _LENGTH),
    ({"bs_index": [], "t": [], "rho": [], "sigma": [], "t_l": math.nan},
     _EMPTY),
    ({"t": [math.nan] * 4, "rho": [math.inf] * 4}, _TIMES),
    ({"t": [math.inf] * 4, "t_l": math.nan}, _TIMES),
    ({"rho": [math.nan] * 4, "t_l": math.inf}, _RANGES),
    ({"rho": [math.inf] * 4, "sigma": [0.0] * 4}, _RANGES),
    ({"t_l": math.inf, "sigma": [math.nan] * 4}, _EPOCH),
    ({"sigma": [1e-320] * 4, "t": [1.7e308] * 4, "t_l": -1.7e308}, _SIGMA),
], ids=("length", "two-dimensional", "empty", "nan-time", "inf-range", "nan-epoch", "sigma-0",
        "sigma-1e-320", "sigma-1e308", "sigma-nan", "sigma-negative",
        "offset-overflow", "length+time", "empty+epoch", "time+range",
        "time+epoch", "range+epoch", "range+sigma", "epoch+sigma",
        "sigma+offset"))
def test_batch_rejections_in_order(faults, message):
    """MeasurementBatch checks its arrays in one order, each with its own
    message, without a warning: the lengths, the dimension, emptiness,
    the times, the pseudoranges, the epoch, the noise levels, then the
    times from the epoch."""
    fields = dict(bs_index=[0, 1, 2, 3], t=[0.0, 0.01, 0.02, 0.03],
                  rho=[20.0, 21.0, 22.0, 23.0], sigma=[0.1] * 4, t_l=0.0)
    fields.update(faults)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DimensionMismatch) as raised:
            MeasurementBatch(**fields)
    assert str(raised.value) == message
    assert caught == []


def test_valid_batch_is_read_only():
    t = [0.0, 0.01, 0.02, 1e300]
    batch = MeasurementBatch([0, 1, 2, 3], t, [20.0, 21.0, 22.0, 23.0],
                             [1e-150, 0.1, 1.0, 1e150], t_l=-1e300)
    for arr in (batch.bs_index, batch.t, batch.rho, batch.sigma, batch.dt):
        assert not arr.flags.writeable
    assert batch.t_l == -1e300 and type(batch.t_l) is float
    expected = np.array(t) - (-1e300)
    assert batch.dt.tobytes() == expected.tobytes()


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


@pytest.mark.parametrize("config, message", [
    ([1, 2], "config must be a JSON object"),
    ({"bs": [[0, 0]]}, "bs section must be an object"),
    ({"trajectory": [1]}, "trajectory section must be an object"),
    ({"experiment": "speed-sweep"}, "experiment section must be an object"),
    ({"trajectory": {"kind": "circular", "center": [15, 15], "radius": 0,
                     "speed": 3}},
     "circular trajectory radius must be positive"),
    ({"trajectory": {"kind": "circular", "center": [15, 15, 0],
                     "radius": 5, "speed": 3}},
     "circular trajectories are 2-D"),
    ({"trajectory": {"kind": "spiral"}}, "unknown trajectory kind 'spiral'"),
    ({"schedule": {"epoch_slot_offset": 8, "m_per_fix": 8}},
     "epoch_slot_offset must index into the window"),
    ({"noise": {"sigma": [0.1, 0.1, 0.1]}},
     "sigma must be scalar or one value per BS"),
    ({"experiment": {"estimators": []}}, "need at least one estimator"),
    ({"experiment": {"grid": "12"}}, "experiment 'grid' must be a list"),
    ({"experiment": {"estimators": "kvd"}},
     "experiment 'estimators' must be a list"),
    ({"experiment": {"estimators": ["kvd", "kvd"]}},
     "repeated estimator in ['kvd', 'kvd']"),
    ({"trajectory": {"kind": "random-placement", "center": [15, 15],
                     "half_side": 5.0, "speed": "5"}},
     "trajectory 'speed' is not numeric: '5'"),
    ({"clock": {"drift_ppm": "5"}}, "clock 'drift_ppm' is not numeric: '5'"),
    ({"noise": {"sigma": True}}, "noise 'sigma' is not numeric: True"),
    ({"bs": {"positions": [["0", "0"], [30, 0], [30, 30], [0, 30]]}},
     "bs 'positions' is not numeric: [['0', '0'], [30, 0], [30, 30], "
     "[0, 30]]"),
    ({"experiment": {"prior_std": True}},
     "experiment 'prior_std' is not numeric: True"),
], ids=("array", "bs", "trajectory", "experiment", "radius-0", "center-3d",
        "spiral", "epoch-offset", "three-sigmas", "no-estimators",
        "string-grid", "string-estimators", "repeated-estimator",
        "string-speed", "string-drift", "boolean-sigma", "string-positions",
        "boolean-prior-std"))
def test_config_rejected_through_main(capsys, tmp_path, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code = main(["experiment", "speed-sweep", "--trials", "2", "--config",
                 str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"error: {message}\n"


def test_circular_study_takes_one_grid_value(capsys, tmp_path):
    """The circular study sweeps nothing, so a second grid value only
    reseeded the run, and its summary and CDF wrote the first point's
    errors for both points."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": {"name": "circular",
                                               "grid": [1, 2]}}))
    code = main(["experiment", "circular", "--trials", "2", "--config",
                 str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: the circular study takes one grid value\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fields", [{"max_iter": 0}, {"threshold": 0}])
def test_solver_config_limits(fields):
    with pytest.raises(ValueError):
        SolverConfig(**fields)


def test_crlb_of_an_indefinite_information():
    with pytest.raises(RankDeficient,
                       match="Fisher information is not positive-definite"):
        analysis.crlb(np.diag([1.0, 0.0, 2.0]))


@pytest.mark.parametrize("info", [np.full((4, 4), np.nan),
                                  np.diag([1.0, 1.0, 1.0, 1e-320])],
                         ids=["nan", "inverse-overflows"])
@pytest.mark.parametrize("state", ["default", "raise"])
def test_crlb_fails_an_information_the_harness_fails(info, state):
    """An information of NaNs (its Cholesky factorization fails) and one
    whose inverse diagonal overflows fail with the rule every budget
    applies to a window, without a warning, also under a caller's
    strictest error state."""
    with warnings.catch_warnings(), np.errstate(
            all="raise" if state == "raise" else "warn"):
        warnings.simplefilter("error")
        with pytest.raises(RankDeficient,
                           match="^Fisher information is not "
                                 "positive-definite$"):
            analysis.crlb(info)


def test_overflowing_deviation_fails_the_bias_bound():
    """A deviation whose displaced ranges overflow fails with
    DimensionMismatch, as an overflowed truth does, with no warning; one
    whose ranges stay finite gives a bound, also when its own norm
    overflows (the bound is then 0)."""
    cfg = default_scenario("circular")
    batch, truth = synthesize_batch(cfg, 3, trial_rng(7, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dv in ([1e200, 0.0], [0.0, -1e160], [1.7e308, 1.7e308]):
            with pytest.raises(DimensionMismatch,
                               match="^the deviation's ranges overflow$"):
                analysis.bias_linear_lower_bound(batch, cfg.bs, truth, [dv])
        checks = analysis.bias_linear_lower_bound(
            batch, cfg.bs, truth, [[1e154, 0.0], [1e155, 0.0]]).checks
    assert all(check.holds and math.isfinite(check.bias_norm_sq)
               for check in checks)
    assert checks[1].bound == 0.0


def test_overflowing_deviation_fails_the_deviated_bias():
    """The deviated-velocity bias fails as the bias bound does, with no
    warning, for an assumed velocity whose displaced ranges overflow; in
    a stack only that window fails, and the projectors handed in keep
    their own failures."""
    cfg = default_scenario("circular")
    batch, truth = synthesize_batch(cfg, 3, trial_rng(7, 3))
    far = truth.v + [1e200, 0.0]
    windows = WindowStack.of([batch, batch])
    truths = np.stack([truth.as_vector()] * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch,
                           match="^the deviation's ranges overflow$"):
            analysis.bias_deviated_velocity(batch, cfg.bs, truth, far)
        projectors = analysis.kvd_projectors(windows, cfg.bs, truths)
        budgets = analysis.bias_deviated_velocity_stack(
            windows, cfg.bs, truths, np.stack([truth.v, far]), projectors)
    assert budgets.failures[0] is None and math.isfinite(budgets.rmse[0])
    assert isinstance(budgets.failures[1], DimensionMismatch)
    assert projectors.failures == [None, None]


def test_rmse_standard_error_edges():
    assert rmse_standard_error([[0.3, 0.4]]) == math.inf
    assert rmse_standard_error([[0.0, 0.0]] * 3) == 0.0


def test_prior_dimension_must_match_the_constellation(bs_square,
                                                      moving_truth,
                                                      moving_batch):
    """A prior, velocity or deviation of the wrong dimension, or a
    velocity that is not finite, fails the error theory's single-window
    functions with the solvers' messages, not numpy's ValueError."""
    prior = VelocityPrior.isotropic(np.zeros(3), 1.0)
    with pytest.raises(DimensionMismatch,
                       match="prior dimension does not match BSs"):
        solve_prior_velocity(moving_batch, bs_square, prior)
    with pytest.raises(DimensionMismatch,
                       match="prior dimension does not match BSs"):
        analysis.check_crlb_ordering(moving_batch, bs_square, moving_truth,
                                     prior)
    for call, message in (
            (lambda: analysis.bias_deviated_velocity(
                moving_batch, bs_square, moving_truth, np.zeros(3)),
             "velocity dimension does not match BSs"),
            (lambda: analysis.bias_linear_lower_bound(
                moving_batch, bs_square, moving_truth, [np.zeros(3)]),
             "velocity dimension does not match BSs"),
            (lambda: analysis.bias_deviated_velocity(
                moving_batch, bs_square, moving_truth, [np.nan, 0.0]),
             "velocity must be finite")):
        with pytest.raises(DimensionMismatch, match=f"^{message}$"):
            call()


def test_truth_dimension_must_match_the_constellation(bs_square,
                                                      moving_batch):
    """A 3-D truth on the 2-D square is rejected as a truth of the wrong
    dimension by every single-window theory function: numpy's ValueError
    was raised by some, and the velocity was blamed by the others."""
    from seqloc import FullParams

    truth = FullParams(p=[15.0, 15.0, 1.0], b=30.0, d=0.0, v=[5.0, 0.0, 0.0])
    prior = VelocityPrior.isotropic(np.zeros(2), 1.0)
    calls = [lambda variant=variant: analysis.fim(
                 moving_batch, bs_square, truth, variant, prior)
             for variant in ("kvd", "uvd", "pvd")]
    calls += [lambda variant=variant: analysis.theoretical_rmse(
                  variant, moving_batch, bs_square, truth, prior)
              for variant in ("kvd", "uvd", "pvd")]
    calls += [
        lambda: analysis.check_crlb_ordering(moving_batch, bs_square, truth,
                                             prior),
        lambda: analysis.bias_drift_only(moving_batch, bs_square, truth),
        lambda: analysis.bias_deviated_velocity(moving_batch, bs_square,
                                                truth, np.ones(2)),
        lambda: analysis.bias_linear_lower_bound(moving_batch, bs_square,
                                                 truth, [np.ones(2)])]
    for call in calls:
        with pytest.raises(DimensionMismatch,
                           match="^truth dimension does not match BSs$"):
            call()
