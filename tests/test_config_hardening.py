"""Bad scenario configs and flags through ``seqloc crlb``, ``simulate`` and
``experiment``: whatever the config holds, the command exits 0 or 1 with
one ``error:`` line, never with a traceback or a numpy RuntimeWarning.

The fuzzed configs start from a valid scenario and replace a few values by
numbers at and beyond the float64 range, wrong types or wrong dimensions.
Trial counts stay at 5 or fewer and windows at 12 measurements or fewer,
so no example allocates much."""

import contextlib
import io
import json
import math
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from seqloc import simulate, solve_drift_only, solve_known_velocity
from seqloc.cli import main
from seqloc.config import scenario_from_config
from seqloc.errors import ConfigError, SeqlocError
from seqloc.experiments import default_scenario, run_experiment
from seqloc.simulate import draw_trials

EXTREMES = (0.0, -0.0, 5e-324, 1e-300, 1e-9, 1.0, 2.5, 1e9, 1e154, 1e300,
            1e308, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan)
numbers = st.one_of(st.sampled_from(EXTREMES), st.floats(-1e3, 1e3),
                    st.integers(-3, 12))
junk = st.one_of(st.text(alphabet="0123x", max_size=4), st.none(),
                 st.booleans(), st.lists(st.integers(0, 3), max_size=3))
values = st.one_of(numbers, numbers, numbers, junk)
vectors = st.one_of(st.lists(numbers, min_size=1, max_size=4),
                    st.sampled_from([[15, 15], [3, -4], [15, 15, 1]]), values)

SQUARE = [[0, 0], [30, 0], [30, 30], [0, 30]]
CONSTELLATIONS = (SQUARE, [[0, 0, 0], [30, 0, 0], [30, 30, 0], [0, 30, 5]],
                  [[0, 0], [30, 0], [15, 30]], [[0, 0], [10, 0], [20, 0]],
                  [[0, 0]], [[0, 0], [1e300, 0], [0, 1e300], [5, 5]])

TRAJECTORY_KEYS = {
    "stationary": ("position",),
    "constant-velocity": ("position", "velocity", "t_ref"),
    "circular": ("center", "radius", "angular_rate", "speed", "phase"),
    "random-placement": ("center", "half_side", "speed", "t_ref"),
}
VECTOR_KEYS = {"position", "velocity", "center"}
SECTION_KEYS = {
    "clock": ("offset_m", "drift_ppm", "drift_mps", "t_ref"),
    "schedule": ("slot_interval", "bs_order", "start_time", "m_per_fix",
                 "epoch_slot_offset"),
    "noise": ("sigma",),
    "experiment": ("grid", "estimators", "prior_std", "duration_s"),
}
SMALL_INTS = {"m_per_fix": st.integers(-1, 12),
              "epoch_slot_offset": st.integers(-1, 12)}
SPECIAL = {
    "bs_order": st.one_of(st.permutations(range(4)),
                          st.sampled_from(["0123", [0, 1, 2], [0, 0, 1, 2],
                                           [0, 1, 2, 3, 4], [0.0, 1, 2, 3]])),
    "sigma": st.one_of(values, st.lists(numbers, min_size=1, max_size=5)),
    "grid": st.one_of(st.lists(numbers, min_size=1, max_size=3), junk),
    "estimators": st.one_of(st.lists(st.sampled_from(["kvd", "uvd", "pvd",
                                                      "d", "x"]),
                                     max_size=3), junk),
    "duration_s": st.sampled_from([0.0, 0.08, 0.3, -1.0, math.nan,
                                   math.inf, "x"]),
}


def _scalar_or(key):
    if key in SPECIAL:
        return SPECIAL[key]
    if key in SMALL_INTS:
        return st.one_of(SMALL_INTS[key], junk)
    return vectors if key in VECTOR_KEYS else values


TRAJECTORIES = {
    "stationary": {"position": [15, 15]},
    "constant-velocity": {"position": [15, 15], "velocity": [3, -4]},
    "circular": {"center": [15, 15], "radius": 10, "angular_rate": 0.3},
    "random-placement": {"center": [15, 15], "half_side": 5, "speed": 5},
}
BASE = {"clock": {"offset_m": 30, "drift_ppm": 5},
        "schedule": {"slot_interval": 0.01, "bs_order": [0, 1, 2, 3],
                     "start_time": 0, "m_per_fix": 8},
        "noise": {"sigma": 0.1}, "seed": 3, "trials": 3}


@st.composite
def configs(draw):
    """A valid config (the study's own trajectory, or one of each kind),
    then up to three values replaced or removed."""
    cfg = json.loads(json.dumps(BASE))
    if draw(st.booleans()):
        kind = draw(st.sampled_from(sorted(TRAJECTORIES)))
        cfg["trajectory"] = {"kind": kind, **TRAJECTORIES[kind]}
    if draw(st.integers(0, 3)) == 0:
        cfg["bs"] = {"positions": draw(st.sampled_from(CONSTELLATIONS))}
    targets = [(section, key) for section, keys in SECTION_KEYS.items()
               for key in keys] + [(None, "seed"), (None, "trials")]
    if "trajectory" in cfg:
        targets += [("trajectory", key)
                    for key in TRAJECTORY_KEYS[cfg["trajectory"]["kind"]]]
    for _ in range(draw(st.integers(0, 3))):
        section, key = draw(st.sampled_from(targets))
        where = cfg if section is None else cfg.setdefault(section, {})
        if key in where and draw(st.integers(0, 4)) == 0:
            del where[key]
        elif key == "trials":
            where[key] = draw(st.one_of(st.integers(-1, 5), st.sampled_from(
                [1.5, "x", None, math.inf])))
        elif key == "seed":
            where[key] = draw(st.one_of(st.integers(-2, 2**70), values))
        else:
            where[key] = draw(_scalar_or(key))
    return cfg


def _run(argv):
    """``main(argv)`` with its output captured; the exit status, stdout,
    stderr and the RuntimeWarnings raised."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    runtime = [str(w.message) for w in caught
               if issubclass(w.category, RuntimeWarning)]
    return code, out.getvalue(), err.getvalue(), runtime


def _assert_clean(code, out, err, runtime):
    assert runtime == []
    if code == 0:
        assert err == ""
    else:
        assert code == 1
        assert err.startswith("error: ")
        assert err.count("\n") == 1


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(cfg=configs(),
       command=st.sampled_from(["crlb", "simulate", "experiment"]),
       study=st.sampled_from(["stationary-noise", "speed-sweep",
                              "velocity-deviation", "noise-sweep-uvd-pvd",
                              "speed-compare", "circular"]),
       seed=st.one_of(st.none(), st.integers(-2, 2**64)),
       trials=st.integers(1, 5))
def test_config_fuzz_exits_cleanly(tmp_path, cfg, command, study, seed,
                                   trials):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    argv = [command]
    if command == "experiment":
        argv += [study, "--trials", str(trials), "--out",
                 str(tmp_path / "out")]
    argv += ["--config", str(path)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    _assert_clean(*_run(argv))


def _repro(tmp_path, command, cfg):
    argv = [command]
    if command == "experiment":
        study = cfg.get("trajectory", {}).get("kind") == "circular"
        argv += ["circular" if study else "speed-sweep", "--trials", "3",
                 "--out", str(tmp_path / "out")]
    return _run(argv + ["--config", str(_write(tmp_path, cfg))])


class TestScenarioConfigRegressions:
    """Each config that once ended in a traceback, warned before its error
    or was silently accepted, now gives one ``error:`` line and exit 1."""

    def test_negative_seed_flag(self):
        code, out, err, runtime = _run(["crlb", "--seed", "-1"])
        assert (code, out, runtime) == (1, "", [])
        assert err == "error: seed must be a non-negative integer, got -1\n"

    def test_coincident_base_stations(self, tmp_path):
        """Four BSs at one point: the kvd theory's inverse information is
        indefinite, and crlb warned (the square root of a negative
        variance) before its error."""
        cfg = {"bs": {"positions": [[0, 0]] * 4}}
        code, out, err, runtime = _repro(tmp_path, "crlb", cfg)
        assert (code, out, runtime) == (1, "", [])
        assert err == "error: Fisher information is not positive-definite\n"

    def test_overflowing_information(self, tmp_path):
        """At a noise level of 1e-160 m the information ``A^T A`` of every
        design overflows: crlb warned (overflow in matmul) before its
        error, and a study before its NaN theory, which it still writes.
        The rank rule now fails every such design, in the error theory and
        at each trial's first iteration (see test_overflowing_covariance)."""
        cfg = {"noise": {"sigma": 1e-160}}
        code, out, err, runtime = _repro(tmp_path, "crlb", cfg)
        assert (code, out, runtime) == (1, "", [])
        assert err == "error: Fisher information is not positive-definite\n"
        code, _, err, runtime = _repro(tmp_path, "experiment", cfg)
        assert (code, err, runtime) == (0, "", [])
        csv = (tmp_path / "out" / "speed-sweep.csv").read_text()
        for line in csv.splitlines()[1:]:  # theory, crlb, non-converged
            fields = line.split(",")
            assert fields[3:5] == ["nan", "nan"] and fields[6] == "3"

    @pytest.mark.parametrize("estimator", ["kvd", "uvd", "pvd", "d"])
    def test_overflowing_covariance(self, tmp_path, estimator):
        """At a noise level of 1e-160 m the squared singular values of the
        solve's design overflow: it printed ``pos_std_m=0`` and exit 0;
        now the rank rule fails it at its first iteration, as crlb does."""
        cfg = str(_write(tmp_path, {"noise": {"sigma": 1e-160}}))
        assert _run(["simulate", "--config", cfg, "--seed", "3", "--out",
                     str(tmp_path)])[0] == 0
        code, out, err, runtime = _run([
            "solve", "--config", cfg, "--batch", str(tmp_path / "batch.csv"),
            "--estimator", estimator])
        assert (code, out, runtime) == (1, "", [])
        assert err == "error: Fisher information is not positive-definite\n"

    def test_negative_seed_flag_on_solve(self, tmp_path):
        """``solve`` draws nothing but still rejects a bad ``--seed``."""
        assert _run(["simulate", "--out", str(tmp_path)])[0] == 0
        code, out, err, runtime = _run(["solve", "--batch",
                                        str(tmp_path / "batch.csv"),
                                        "--estimator", "kvd", "--seed", "-1"])
        assert (code, out, runtime) == (1, "", [])
        assert err == "error: seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize("command", ["crlb", "simulate", "experiment"])
    @pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
    def test_bad_config_seed(self, tmp_path, command, seed):
        code, out, err, runtime = _repro(tmp_path, command, {"seed": seed})
        assert (code, out, runtime) == (1, "", [])
        assert err.startswith("error: seed must be a non-negative integer")

    def test_integral_float_seed_is_the_integer(self, tmp_path):
        as_float = _repro(tmp_path, "simulate", {"seed": 7.0})
        as_int = _repro(tmp_path, "simulate", {"seed": 7})
        assert as_float[0] == 0 and as_float == as_int

    @pytest.mark.parametrize("seed", [1.5, -1, "7"])
    def test_replaced_seed_is_checked(self, seed):
        """A seed set by ``dataclasses.replace`` goes through the same
        check: 1.5 is not truncated to 1."""
        cfg = default_scenario(None)
        with pytest.raises(ConfigError, match="non-negative integer"):
            replace(cfg, seed=seed)
        assert replace(cfg, seed=7.0).seed == 7

    @pytest.mark.parametrize("key, value", [
        ("half_side", math.nan), ("half_side", 1e308), ("half_side", math.inf),
        ("speed", math.nan), ("speed", math.inf), ("center", [math.nan, 1]),
    ])
    def test_non_finite_random_placement(self, tmp_path, key, value):
        section = {"kind": "random-placement", "center": [15, 15],
                   "half_side": 5.0, "speed": 5.0, key: value}
        code, out, err, runtime = _repro(tmp_path, "crlb",
                                         {"trajectory": section})
        assert (code, out, runtime) == (1, "", [])
        assert err.startswith("error: ")

    @pytest.mark.parametrize("schedule", [
        {"bs_order": "0123"}, {"slot_interval": math.nan},
        {"slot_interval": math.inf}, {"start_time": math.inf},
    ])
    def test_bad_schedule(self, tmp_path, schedule):
        code, out, err, runtime = _repro(tmp_path, "crlb",
                                         {"schedule": schedule})
        assert (code, out, runtime) == (1, "", [])
        assert err.startswith("error: ")

    @pytest.mark.parametrize("schedule, message", [
        ({"slot_interval": 1e308}, "times must be finite"),
        ({"start_time": 1e308}, "pseudoranges must be finite"),
    ])
    def test_overflowing_schedule_errors_without_warnings(
            self, tmp_path, schedule, message):
        code, out, err, runtime = _repro(tmp_path, "crlb",
                                         {"schedule": schedule})
        assert (code, out, runtime) == (1, "", [])
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["crlb", "experiment"])
    def test_overflowing_circular_angle(self, tmp_path, command):
        cfg = {"trajectory": {"kind": "circular", "center": [15, 15],
                              "radius": 10, "angular_rate": 1e306},
               "schedule": {"start_time": 1000.0}}
        code, out, err, runtime = _repro(tmp_path, command, cfg)
        assert (code, out, runtime) == (1, "", [])
        assert err == "error: circular trajectory angle overflows\n"

    @pytest.mark.parametrize("command", ["crlb", "simulate", "experiment"])
    def test_trajectory_dimension_differs_from_constellation(self, tmp_path,
                                                             command):
        cfg = {"trajectory": {"kind": "stationary", "position": [15, 15, 1]}}
        code, out, err, runtime = _repro(tmp_path, command, cfg)
        assert (code, out, runtime) == (1, "", [])
        assert err == ("error: the trajectory must be 2-D like the base "
                       "stations\n")

    def test_3d_constellation_with_3d_trajectory_runs(self, tmp_path):
        cfg = {"bs": {"positions": [[0, 0, 0], [30, 0, 0], [30, 30, 0],
                                    [0, 30, 5]]},
               "trajectory": {"kind": "stationary", "position": [15, 15, 1]}}
        code, out, err, runtime = _repro(tmp_path, "crlb", cfg)
        assert (code, err, runtime) == (0, "", [])

    @pytest.mark.parametrize("prior_std", [1e-300, 1e200])
    def test_prior_std_without_a_finite_information(self, tmp_path,
                                                    prior_std):
        """A prior width whose variance or information is 0 or inf: it
        ended in a LinAlgError traceback from the pvd cells."""
        cfg = {"experiment": {"prior_std": prior_std}}
        code, out, err, runtime = _run(
            ["experiment", "noise-sweep-uvd-pvd", "--trials", "3", "--out",
             str(tmp_path / "out"), "--config", str(_write(tmp_path, cfg))])
        assert (code, out, runtime) == (1, "", [])
        assert err == ("error: prior_std must be positive, with a finite "
                       "non-zero variance and inverse\n")

    @pytest.mark.parametrize("duration", [math.inf, math.nan])
    def test_non_finite_duration(self, tmp_path, duration):
        cfg = {"experiment": {"duration_s": duration}}
        code, out, err, runtime = _run(
            ["experiment", "circular", "--out", str(tmp_path / "out"),
             "--config", str(_write(tmp_path, cfg))])
        assert (code, out, runtime) == (1, "", [])
        assert err == "error: experiment duration_s must be finite\n"


class TestIntegerKeys:
    """Integer keys once went through ``int()``, which truncates: 1.5
    trials ran 1 trial, ``m_per_fix`` 6.9 gave 6.  A non-integral or
    boolean value is now an error, as for the seed; an integral float is
    still that integer."""

    @staticmethod
    def _assert_rejected(tmp_path, cfg, key):
        code, out, err, runtime = _repro(tmp_path, "crlb", cfg)
        assert (code, out, runtime) == (1, "", [])
        assert err.startswith(f"error: {key} must be a ")
        with pytest.raises(ConfigError, match="integer"):
            scenario_from_config(cfg)

    @pytest.mark.parametrize("value", [1.5, True, "3"])
    def test_trials(self, tmp_path, value):
        self._assert_rejected(tmp_path, {"trials": value}, "n_trials")
        cfg, _ = scenario_from_config({"trials": 3.0})
        assert cfg.n_trials == 3 and type(cfg.n_trials) is int

    @pytest.mark.parametrize("value", [6.9, True, "8"])
    def test_m_per_fix(self, tmp_path, value):
        self._assert_rejected(tmp_path, {"schedule": {"m_per_fix": value}},
                              "m_per_fix")
        cfg, _ = scenario_from_config({"schedule": {"m_per_fix": 6.0}})
        assert cfg.m_per_fix == 6 and type(cfg.m_per_fix) is int

    @pytest.mark.parametrize("value", [1.9, False, "1"])
    def test_epoch_slot_offset(self, tmp_path, value):
        self._assert_rejected(
            tmp_path, {"schedule": {"epoch_slot_offset": value}},
            "epoch_slot_offset")
        cfg, _ = scenario_from_config({"schedule": {"epoch_slot_offset": 1.0}})
        assert cfg.epoch_slot_offset == 1
        assert type(cfg.epoch_slot_offset) is int

    @pytest.mark.parametrize("order", [[0.5, 1, 2, 3], [False, 1, 2, 3],
                                       [0, 1, 2, 3.5]])
    def test_bs_order_entries(self, tmp_path, order):
        self._assert_rejected(tmp_path, {"schedule": {"bs_order": order}},
                              "a bs_order entry")
        cfg, _ = scenario_from_config({"schedule": {"bs_order": [0.0, 1, 2,
                                                                 3]}})
        assert cfg.schedule.bs_order == (0, 1, 2, 3)
        assert all(type(i) is int for i in cfg.schedule.bs_order)

    @pytest.mark.parametrize("value", [2.5, True, "2", 0])
    def test_draw_trials_n_trials(self, scenario, value):
        with pytest.raises(ConfigError, match="n_trials must be a positive "
                                              "integer"):
            draw_trials(replace(scenario, n_trials=value))
        assert len(draw_trials(replace(scenario, n_trials=2.0)).truth) == 2


def _write(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_nominal_prior_on_a_stationary_ud(tmp_path):
    """A stationary UD is a constant-velocity UD at zero velocity, so a
    prior centred on its nominal velocity is defined: the nominal-prior
    pvd cells of noise-sweep-uvd-pvd run on it."""
    cfg = {"trajectory": {"kind": "stationary", "position": [15, 15]}}
    traj = scenario_from_config(cfg)[0].trajectory
    assert type(traj) is simulate.ConstantVelocity and traj.t_ref == 0.0
    assert np.array_equal(traj.p0, [15.0, 15.0])
    assert np.array_equal(traj.v, [0.0, 0.0])
    with pytest.raises(FrozenInstanceError):
        traj.p0 = np.zeros(2)
    code, out, err, runtime = _run(
        ["experiment", "noise-sweep-uvd-pvd", "--trials", "3", "--out",
         str(tmp_path / "out"), "--config", str(_write(tmp_path, cfg))])
    assert (code, err, runtime) == (0, "", [])
    assert "pvd @ 1: rmse" in out


@pytest.mark.parametrize("study, experiment, message", [
    ("velocity-deviation", {"grid": [0.5, math.nan]},
     "grid must be nonempty, finite and strictly increasing"),
    ("velocity-deviation", {"grid": [0.5, math.inf]},
     "grid must be nonempty, finite and strictly increasing"),
    ("speed-sweep", {"prior_std": math.nan},
     "prior_std must be positive, with a finite non-zero variance and "
     "inverse"),
], ids=["nan-grid", "inf-grid", "nan-prior-std"])
def test_non_finite_sweep_values_rejected(tmp_path, study, experiment,
                                          message):
    """A NaN grid value or prior width was accepted: the sweep wrote a
    ``nan`` row and a manifest holding a bare NaN, which is not strict
    JSON."""
    cfg = {"experiment": experiment, "trials": 3}
    code, out, err, runtime = _run(
        ["experiment", study, "--out", str(tmp_path / "out"),
         "--config", str(_write(tmp_path, cfg))])
    assert (code, out, runtime) == (1, "", [])
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


class TestWholeCellFallback:
    """Cells whose every window fails record, for every trial, the error
    its single-window solve raises, and the sweep goes on.  Slots 1e300 s
    apart put ``dt`` near 7e300: at sigma 1e-10 the whitened ``dt /
    sigma`` column overflows, which fails each window alone in the rank
    rule (DimensionMismatch), at sigma 0.1 it does not, but no design is
    usable.  Both sigmas run in one stack."""

    CONFIG = {"schedule": {"slot_interval": 1e300}, "trials": 3,
              "experiment": {"grid": [1e-10, 0.1]}}
    EXPECTED = {1e-10: "DimensionMismatch", 0.1: "RankDeficient"}

    def test_errors_match_the_single_window_solves(self, monkeypatch):
        stacked = []
        real = simulate.solve_stack

        def solve(system, theta, cfg, **kwargs):
            stacked.append(float(system.w.max()))
            return real(system, theta, cfg, **kwargs)

        monkeypatch.setattr(simulate, "solve_stack", solve)
        cfg, spec = scenario_from_config(self.CONFIG, "stationary-noise")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_experiment(spec, cfg)
            # One stack holds the cells of both sigmas.
            assert stacked == [1e10]
            assert len(result.records) == 4
            for (value, kind), cell in result.records.items():
                assert cell.errors == (self.EXPECTED[value],) * 3
                assert not cell.converged.any()
                for rec in cell:
                    with pytest.raises(SeqlocError) as alone:
                        if kind == "kvd":
                            solve_known_velocity(rec.batch, cfg.bs,
                                                 rec.v_assumed)
                        else:
                            solve_drift_only(rec.batch, cfg.bs)
                    assert type(alone.value).__name__ == rec.error
        assert [w for w in caught
                if issubclass(w.category, RuntimeWarning)] == []
        assert [(r.sweep_value, r.estimator, r.trials, r.non_converged)
                for r in result.rows] == [(1e-10, "kvd", 3, 3),
                                          (1e-10, "d", 3, 3),
                                          (0.1, "kvd", 3, 3),
                                          (0.1, "d", 3, 3)]
        assert all(np.isnan(r.empirical_rmse) for r in result.rows)

    def test_sweep_exits_zero(self, tmp_path):
        code, out, err, runtime = _run(
            ["experiment", "stationary-noise", "--out",
             str(tmp_path / "out"), "--config",
             str(_write(tmp_path, self.CONFIG))])
        assert (code, err, runtime) == (0, "", [])
        assert "kvd @ 1e-10: rmse nan m" in out
        lines = (tmp_path / "out" / "stationary-noise.csv").read_text()
        assert lines.splitlines()[1:] == [
            "1e-10,kvd,nan,nan,nan,3,3", "1e-10,d,nan,nan,nan,3,3",
            "0.1,kvd,nan,nan,nan,3,3", "0.1,d,nan,nan,nan,3,3"]


def test_svg_without_a_finite_row(tmp_path):
    """At a noise level of 1e-160 m every trial fails, so no row of the
    speed-sweep is finite: ``--svg`` ended in a ValueError ("nothing to
    plot").  The chart now keeps its axes and legend and draws no line,
    and the sweep prints its summary and exits 0."""
    cfg = {"noise": {"sigma": 1e-160}, "trials": 3}
    out_dir = tmp_path / "out"
    code, out, err, runtime = _run(
        ["experiment", "speed-sweep", "--svg", "--out", str(out_dir),
         "--config", str(_write(tmp_path, cfg))])
    assert (code, err, runtime) == (0, "", [])
    lines = out.splitlines()
    assert len(lines) == 13 and lines[0].startswith("kvd @ 0.1: rmse nan m")
    assert lines[-1] == f"wrote {out_dir / 'speed-sweep.svg'}"
    svg = (out_dir / "speed-sweep.svg").read_text()
    assert "<polyline" not in svg and "<circle" not in svg
    for label in ("UD speed (m/s)", "position RMSE (m)", "kvd empirical",
                  "kvd theory", "d empirical", "d theory"):
        assert f">{label}</text>" in svg


class TestFastUd:
    """A UD so fast that its squared speed overflows (above about 1.3e154
    m/s): the deviation of its assumed velocity was dropped (its heading
    read ``v / inf = 0``) with a RuntimeWarning."""

    def test_assumed_velocities_keep_the_heading(self):
        v = np.array([[1e155, 0.0], [3.0, 4.0], [-1e300, 1e300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assumed = simulate.assumed_velocities(v, 1e140)
        assert np.array_equal(assumed[0], v[0] + 1e140 * v[0] / 1e155)
        # A speed whose square is finite keeps its bits.
        assert np.array_equal(assumed[1], v[1] + 1e140 * (v[1] / 5.0))
        assert np.array_equal(assumed[2],
                              v[2] + 1e140 * np.array([-1, 1]) / np.sqrt(2))

    def test_deviation_sweep_exits_zero(self, tmp_path):
        cfg = {"trajectory": {"kind": "random-placement", "center": [15, 15],
                              "half_side": 5.0, "speed": 1e155}, "trials": 3}
        code, out, err, runtime = _run(
            ["experiment", "velocity-deviation", "--out",
             str(tmp_path / "out"), "--config", str(_write(tmp_path, cfg))])
        assert (code, err, runtime) == (0, "", [])
        assert "kvd @ 5: rmse nan m" in out

    def test_assumed_velocity_beyond_float64_fails_its_trial(self, tmp_path):
        """At 1e308 m/s a deviation of 1e308 m/s overflows the assumed
        velocity on the trials heading near an axis: those trials fail
        alone with DimensionMismatch (their design is NaN), the sweep
        goes on and exits 0."""
        cfg = {"trajectory": {"kind": "random-placement", "center": [15, 15],
                              "half_side": 5.0, "speed": 1e308},
               "schedule": {"slot_interval": 1e-300}, "trials": 6,
               "experiment": {"grid": [0.0, 1e308]}}
        config, spec = scenario_from_config(cfg, "velocity-deviation")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cell = run_experiment(spec, config).records[(1e308, "kvd")]
        overflowed = ~np.isfinite(cell.v_assumed).all(axis=1)
        assert 0 < overflowed.sum() < len(cell)
        for k, error in enumerate(cell.errors):
            assert (error == "DimensionMismatch") == overflowed[k]
        code, _, err, runtime = _run(
            ["experiment", "velocity-deviation", "--out",
             str(tmp_path / "out"), "--config", str(_write(tmp_path, cfg))])
        assert (code, err, runtime) == (0, "", [])
