"""Command-line interface: subcommands, config validation, determinism."""

import json
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from seqloc import (VelocityPrior, solve_drift_only, solve_joint_velocity,
                    solve_known_velocity, solve_prior_velocity,
                    synthesize_batch, trial_rng)
from seqloc.cli import main
from seqloc.config import scenario_from_config
from seqloc.errors import ConfigError


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_emits_batch_csv(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--seed", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "bs_index,t,rho,sigma"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == 0.0

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "simulate", "--seed", "3")
        _, out2, _ = run_cli(capsys, "simulate", "--seed", "3")
        _, out3, _ = run_cli(capsys, "simulate", "--seed", "4")
        assert out1 == out2
        assert out1 != out3

    def test_writes_file(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "simulate", "--seed", "3",
                               "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "batch.csv").exists()


class TestSolve:
    def write_batch(self, capsys, tmp_path, seed="3"):
        _, out, _ = run_cli(capsys, "simulate", "--seed", seed)
        path = tmp_path / "batch.csv"
        path.write_text(out)
        return path

    def test_joint_velocity_solve(self, capsys, tmp_path):
        batch = self.write_batch(capsys, tmp_path)
        code, out, _ = run_cli(capsys, "solve", "--batch", str(batch),
                               "--estimator", "uvd")
        assert code == 0
        values = dict(line.split("=") for line in out.strip().splitlines())
        assert values["estimator"] == "uvd"
        assert values["converged"] == "true"
        assert 5.0 < float(values["px"]) < 25.0
        assert "vx" in values and "pos_std_m" in values

    def test_known_velocity_flag(self, capsys, tmp_path):
        batch = self.write_batch(capsys, tmp_path)
        code, out, _ = run_cli(capsys, "solve", "--batch", str(batch),
                               "--estimator", "kvd",
                               "--velocity", "1.5,-2.0")
        assert code == 0
        assert "converged=true" in out

    def test_prior_velocity_flags(self, capsys, tmp_path):
        batch = self.write_batch(capsys, tmp_path)
        code, out, _ = run_cli(capsys, "solve", "--batch", str(batch),
                               "--estimator", "pvd",
                               "--prior-mean", "0,0", "--prior-std", "3")
        assert code == 0
        assert "converged=true" in out

    def test_bad_batch_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2,3,4\n")
        code, _, err = run_cli(capsys, "solve", "--batch", str(path),
                               "--estimator", "uvd")
        assert code == 1
        assert "error" in err

    def test_non_numeric_field_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("bs_index,t,rho,sigma\n0,0.0,abc,0.1\n")
        code, _, err = run_cli(capsys, "solve", "--batch", str(path),
                               "--estimator", "uvd")
        assert code == 1
        assert err.startswith("error: malformed batch row")

    def test_bs_index_out_of_range_rejected(self, capsys, tmp_path):
        batch = self.write_batch(capsys, tmp_path)
        lines = batch.read_text().splitlines()
        lines[1] = "9" + lines[1][lines[1].index(","):]
        batch.write_text("\n".join(lines) + "\n")
        for estimator in ("kvd", "uvd", "pvd", "d"):
            code, _, err = run_cli(capsys, "solve", "--batch", str(batch),
                                   "--estimator", estimator)
            assert code == 1
            assert err.startswith("error:") and "out of range" in err

    def test_nan_velocity_rejected(self, capsys, tmp_path):
        batch = self.write_batch(capsys, tmp_path)
        code, _, err = run_cli(capsys, "solve", "--batch", str(batch),
                               "--estimator", "kvd", "--velocity", "nan,0")
        assert code == 1
        assert err.startswith("error: velocity must be finite")

    @pytest.mark.parametrize("estimator", ["kvd", "uvd", "pvd", "d"])
    @pytest.mark.parametrize("rows, rho, message", [
        # every range near the float64 limit: their mean overflows
        (slice(1, None), "1.7e308",
         "error: pseudoranges too large: the initial clock offset overflows"),
        # one huge range among small ones: the first step overflows
        (slice(3, 4), "1e300", "error: step norm inf exceeded guard"),
    ], ids=("all-near-limit", "one-huge"))
    def test_huge_pseudoranges_rejected_without_warnings(
            self, capsys, tmp_path, estimator, rows, rho, message):
        batch = self.write_batch(capsys, tmp_path)
        lines = batch.read_text().splitlines()
        for i in range(len(lines))[rows]:
            fields = lines[i].split(",")
            fields[2] = rho
            lines[i] = ",".join(fields)
        batch.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, "solve", "--batch", str(batch),
                                   "--estimator", estimator)
        assert code == 1
        assert err == message + "\n"
        assert [str(w.message) for w in caught] == []


class TestCrlb:
    def test_prints_budgets(self, capsys):
        code, out, _ = run_cli(capsys, "crlb", "--seed", "3")
        assert code == 0
        values = dict(line.split("=") for line in out.strip().splitlines())
        for kind in ("kvd", "pvd", "uvd", "d"):
            assert float(values[f"{kind}_crlb_rmse_m"]) > 0
        # moving scenario: the drift-only curve carries a bias
        assert (float(values["d_theoretical_rmse_m"])
                > float(values["d_crlb_rmse_m"]))
        assert (float(values["kvd_crlb_rmse_m"])
                <= float(values["pvd_crlb_rmse_m"])
                <= float(values["uvd_crlb_rmse_m"]))


class TestExperiment:
    def test_runs_and_writes(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "experiment", "velocity-deviation",
                               "--trials", "25", "--seed", "5",
                               "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "velocity-deviation.csv").exists()
        assert "wrote" in out

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        for sub in ("a", "b", "c"):
            code, _, _ = run_cli(capsys, "experiment", "stationary-noise",
                                 "--trials", "30", "--seed", "5",
                                 "--out", str(tmp_path / sub))
            assert code == 0
        a, b, c = ((tmp_path / sub / "stationary-noise.csv").read_bytes()
                   for sub in ("a", "b", "c"))
        assert a == b == c

    def test_svg_flag(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "experiment", "speed-sweep",
                             "--trials", "20", "--seed", "5",
                             "--out", str(tmp_path), "--svg")
        assert code == 0
        assert (tmp_path / "speed-sweep.svg").exists()

    def test_trials_that_fail_at_their_last_iterate_are_non_converged(
            self, capsys, tmp_path):
        """A stationary UD on a BS at a noise of 1e-12 m: every solve
        converges onto the BS, where its final design is degenerate."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "trajectory": {"kind": "stationary", "position": [0, 30]},
            "trials": 20, "experiment": {"grid": [1e-12]}}))
        code, _, _ = run_cli(capsys, "experiment", "stationary-noise",
                             "--config", str(path), "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "stationary-noise.csv").read_text().splitlines()
        assert lines[1:] == ["1e-12,kvd,nan,nan,nan,20,20",
                             "1e-12,d,nan,nan,nan,20,20"]


class TestConfigHandling:
    def test_config_overrides_scenario(self, capsys, tmp_path):
        config = {
            "noise": {"sigma": 0.5},
            "trajectory": {"kind": "stationary", "position": [12.0, 13.0]},
            "clock": {"offset_m": 10.0, "drift_ppm": 5.0},
            "seed": 11,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert all(float(r[3]) == 0.5 for r in rows)

    def test_unknown_top_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"noize": {"sigma": 0.1}}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 1
        assert "noize" in err

    def test_unknown_top_key_rejected_in_the_library(self):
        """Every config passes through ``scenario_from_config``, which
        holds the unknown-key check, so a library caller's typo fails."""
        with pytest.raises(ConfigError, match=r"^unknown key\(s\) \['nosie'\] "
                                              r"in config$"):
            scenario_from_config({"nosie": {"sigma": 5}})

    def test_unknown_nested_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"clock": {"offset_m": 1.0,
                                              "drift_ppm": 5.0,
                                              "color": "blue"}}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 1
        assert "color" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--config",
                               str(tmp_path / "missing.json"))
        assert code == 1
        assert "error" in err

    def test_experiment_grid_from_config(self, capsys, tmp_path):
        config = {"experiment": {"name": "velocity-deviation",
                                 "grid": [0.0, 1.0]},
                  "trials": 20}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, "experiment", "velocity-deviation",
                               "--config", str(path),
                               "--out", str(tmp_path / "res"))
        assert code == 0
        lines = ((tmp_path / "res" / "velocity-deviation.csv")
                 .read_text().splitlines())
        assert len(lines) == 3  # header + 2 grid points
        assert lines[1].startswith("0,kvd")

    def test_conflicting_experiment_name(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": {"name": "circular"}}))
        code, _, err = run_cli(capsys, "experiment", "speed-sweep",
                               "--config", str(path),
                               "--out", str(tmp_path / "res"))
        assert code == 1
        assert "circular" in err

    def test_non_numeric_sigma_rejected(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"noise": {"sigma": "x"}}))
        code, _, err = run_cli(capsys, "crlb", "--config", str(path))
        assert code == 1
        assert err.startswith("error:") and "sigma" in err

    @pytest.mark.parametrize("section, missing", [
        ({"kind": "stationary"}, "position"),
        ({"kind": "constant-velocity", "velocity": [1, 0]}, "position"),
        ({"kind": "constant-velocity", "position": [15, 15]}, "velocity"),
        ({"kind": "circular", "radius": 30, "angular_rate": 0.3}, "center"),
        ({"kind": "circular", "center": [50, 50], "angular_rate": 0.3},
         "radius"),
        ({"kind": "circular", "center": [50, 50], "speed": 10}, "radius"),
        ({"kind": "random-placement", "half_side": 5, "speed": 5},
         "center"),
        ({"kind": "random-placement", "center": [15, 15], "speed": 5},
         "half_side"),
        ({"kind": "random-placement", "center": [15, 15], "half_side": 5},
         "speed"),
    ])
    def test_missing_trajectory_key_named(self, capsys, tmp_path, section,
                                          missing):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"trajectory": section}))
        code, _, err = run_cli(capsys, "crlb", "--config", str(path))
        assert code == 1
        assert err.startswith("error:") and repr(missing) in err

    def test_non_numeric_trajectory_value_rejected(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"trajectory": {
            "kind": "circular", "center": [50, 50], "radius": "x",
            "angular_rate": 0.3}}))
        code, _, err = run_cli(capsys, "crlb", "--config", str(path))
        assert code == 1
        assert err.startswith("error:") and "radius" in err

    def test_drift_conversion_from_ppm(self, capsys, tmp_path):
        from seqloc.config import load_config, scenario_from_config

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"clock": {"offset_m": 0.0,
                                              "drift_ppm": 5.0}}))
        cfg, _ = scenario_from_config(load_config(path))
        assert cfg.clock.d == pytest.approx(1498.96229, rel=1e-9)


def _good_batch_lines(capsys, seed="3"):
    _, out, _ = run_cli(capsys, "simulate", "--seed", seed)
    return out.strip().splitlines()


def _with_field(lines, column, value, rows=slice(1, None)):
    """The batch lines with ``column`` of the data ``rows`` set to
    ``value``."""
    lines = list(lines)
    for i in range(len(lines))[rows]:
        fields = lines[i].split(",")
        fields[column] = value
        lines[i] = ",".join(fields)
    return lines


def _solve_without_warnings(capsys, path, *extra):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "solve", "--batch", str(path),
                                 *extra)
    return code, out, err, [str(w.message) for w in caught]


class TestBatchHardening:
    """Batch CSVs that used to end in a traceback or in NaN output."""

    @pytest.mark.parametrize("estimator", ["kvd", "uvd", "pvd", "d"])
    @pytest.mark.parametrize("case, message", [
        ("non-utf8", "error: cannot read batch"),
        ("huge-index", "error: batch references a BS index out of range"),
        ("tiny-sigma", "error: sigma must be strictly positive"),
        ("huge-sigma", "error: sigma must be strictly positive"),
    ])
    def test_rejected_with_one_error_line(self, capsys, tmp_path, estimator,
                                          case, message):
        lines = _good_batch_lines(capsys)
        path = tmp_path / "batch.csv"
        if case == "non-utf8":
            text = "\n".join(lines) + "\n"
            path.write_bytes(text.encode() + b"0,0.08,\xff,0.1\n")
        else:
            column, value = {"huge-index": (0, str(10**30)),
                             "tiny-sigma": (3, "1e-320"),
                             "huge-sigma": (3, "1e308")}[case]
            rows = slice(2, 3) if case == "huge-index" else slice(1, None)
            path.write_text("\n".join(_with_field(lines, column, value, rows))
                            + "\n")
        code, out, err, caught = _solve_without_warnings(
            capsys, path, "--estimator", estimator)
        assert code == 1
        assert out == ""
        assert err.startswith(message) and err.count("\n") == 1
        assert caught == []

    def test_sigma_range_edges_accepted(self, capsys, tmp_path):
        lines = _good_batch_lines(capsys)
        path = tmp_path / "batch.csv"
        for sigma in ("1e-150", "1e150"):
            path.write_text("\n".join(_with_field(lines, 3, sigma)) + "\n")
            code, out, err, caught = _solve_without_warnings(
                capsys, path, "--estimator", "uvd")
            assert (code, err, caught) == (0, "", [])
            assert "nan" not in out and "inf" not in out

    def test_utf8_byte_order_mark_accepted(self, capsys, tmp_path):
        """A batch CSV that starts with a UTF-8 byte order mark, as many
        spreadsheet exporters write, solves as the same file without it:
        the mark made the header mismatch."""
        text = "\n".join(_good_batch_lines(capsys)) + "\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        code, out, err, caught = _solve_without_warnings(
            capsys, plain, "--estimator", "uvd")
        assert (code, err, caught) == (0, "", [])
        assert _solve_without_warnings(
            capsys, marked, "--estimator", "uvd") == (code, out, err, caught)

    @pytest.mark.parametrize("data, position", [
        (b"ab\xff", 2), (b"\xef\xbb\xbfab\xff", 5)], ids=("plain", "bom"))
    def test_undecodable_byte_reported_at_its_file_offset(
            self, capsys, tmp_path, data, position):
        """A byte that is not UTF-8 is reported at its offset in the file,
        counting a leading byte order mark."""
        path = tmp_path / "batch.csv"
        path.write_bytes(data)
        code, out, err, caught = _solve_without_warnings(
            capsys, path, "--estimator", "uvd")
        assert (code, out, caught) == (1, "", [])
        assert err == (f"error: cannot read batch {path}: 'utf-8' codec "
                       f"can't decode byte 0xff in position {position}: "
                       "invalid start byte\n")


class TestPriorStd:
    @pytest.mark.parametrize("std", ["-2", "0", "nan", "inf", "1e-160",
                                     "1e160"])
    def test_solve_rejects_unusable_prior_std(self, capsys, tmp_path, std):
        path = tmp_path / "batch.csv"
        path.write_text("\n".join(_good_batch_lines(capsys)) + "\n")
        code, out, err, caught = _solve_without_warnings(
            capsys, path, "--estimator", "pvd", f"--prior-std={std}")
        assert code == 1 and out == "" and caught == []
        assert err.startswith("error: prior_std must be positive")

    @pytest.mark.parametrize("std", ["-2", "0", "nan", "1e160"])
    def test_crlb_rejects_unusable_prior_std(self, capsys, std):
        code, out, err = run_cli(capsys, "crlb", f"--prior-std={std}")
        assert code == 1 and out == ""
        assert err.startswith("error: prior_std must be positive")


class TestSharedParser:
    def test_calls_do_not_leak_into_each_other(self, capsys, tmp_path):
        """One parser serves every call of a process: a usage error, a
        help request and a failed solve in between leave a repeated solve
        printing what it printed first."""
        path = tmp_path / "batch.csv"
        path.write_text("\n".join(_good_batch_lines(capsys)) + "\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        good = ("solve", "--batch", str(path), "--estimator", "pvd",
                "--prior-mean", "1,2", "--prior-std", "3")
        code, first, _ = run_cli(capsys, *good)
        assert code == 0 and "converged=true" in first
        with pytest.raises(SystemExit) as usage:
            main(["solve", "--batch", str(path), "--estimator", "xyz"])
        assert usage.value.code == 2
        with pytest.raises(SystemExit) as shown:
            main(["solve", "--help"])
        assert shown.value.code == 0
        assert "--estimator" in capsys.readouterr().out
        code, _, err = run_cli(capsys, "solve", "--batch", str(bad),
                               "--estimator", "uvd")
        assert code == 1 and err.startswith("error:")
        code, out, _ = run_cli(capsys, "crlb", "--prior-std", "0.5")
        assert code == 0 and "pvd_crlb_rmse_m=" in out
        code, again, _ = run_cli(capsys, *good)
        assert code == 0
        assert again == first


class TestOverflowingTimes:
    @pytest.mark.parametrize("estimator", ["kvd", "uvd", "pvd", "d"])
    def test_epoch_at_the_float_limit_rejected(self, capsys, tmp_path,
                                               estimator):
        lines = _with_field(_good_batch_lines(capsys), 1, "1.7e+308",
                            slice(1, 2))
        path = tmp_path / "batch.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, err, caught = _solve_without_warnings(
            capsys, path, "--estimator", estimator)
        assert (code, out, caught) == (1, "", [])
        assert err.startswith("error: the whitened design overflows")


class TestWidePriorStd:
    @pytest.mark.parametrize("std", ["1e80", "1e150"])
    def test_accepted_without_warnings(self, capsys, tmp_path, std):
        """A prior this wide leaves pvd at uvd; its variance squared
        overflows, which the prior's symmetry check must not trip on."""
        path = tmp_path / "batch.csv"
        path.write_text("\n".join(_good_batch_lines(capsys)) + "\n")
        code, out, err, caught = _solve_without_warnings(
            capsys, path, "--estimator", "pvd", f"--prior-std={std}")
        assert (code, err, caught) == (0, "", [])
        assert "converged=true" in out
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, "crlb", f"--prior-std={std}")
        assert (code, err, [str(w.message) for w in caught]) == (0, "", [])


class TestSolveConfig:
    """``seqloc solve --config`` solves on the config's constellation."""

    CONFIG = {"bs": {"positions": [[100, 200], [140, 200], [140, 240],
                                   [100, 240]]},
              "trajectory": {"kind": "constant-velocity",
                             "position": [115, 215], "velocity": [3, -4]}}

    @pytest.mark.parametrize("kind", ["kvd", "uvd", "pvd", "d"])
    def test_prints_the_library_solve_on_the_config_bs(self, capsys,
                                                       tmp_path, kind):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.CONFIG))
        code, _, _ = run_cli(capsys, "simulate", "--config", str(path),
                             "--out", str(tmp_path))
        assert code == 0
        batch_csv = str(tmp_path / "batch.csv")
        code, out, err = run_cli(capsys, "solve", "--batch", batch_csv,
                                 "--estimator", kind, "--config", str(path))
        assert (code, err) == (0, "")
        printed = dict(line.split("=") for line in out.strip().splitlines())

        cfg, _ = scenario_from_config(self.CONFIG)
        batch, _ = synthesize_batch(cfg, 0, trial_rng(cfg.seed, 0))
        zero = np.zeros(2)
        report = {
            "kvd": lambda: solve_known_velocity(batch, cfg.bs, zero),
            "uvd": lambda: solve_joint_velocity(batch, cfg.bs),
            "pvd": lambda: solve_prior_velocity(
                batch, cfg.bs, VelocityPrior.isotropic(zero, 2.0)),
            "d": lambda: solve_drift_only(batch, cfg.bs),
        }[kind]()
        assert printed["converged"] == "true"
        assert (printed["px"], printed["py"]) == tuple(
            f"{x:.9g}" for x in report.params.p)
        # The default 30 m square would place the UD elsewhere.
        _, default_out, _ = run_cli(capsys, "solve", "--batch", batch_csv,
                                    "--estimator", kind)
        assert default_out != out


class TestVectorFlags:
    @pytest.mark.parametrize("kind, flag, message", [
        ("kvd", "--velocity=1,x", "cannot parse velocity '1,x'"),
        ("pvd", "--prior-mean=1,2,3,4",
         "prior mean must have 2 or 3 components"),
        ("uvd", "--velocity=1,2",
         "--velocity applies only to --estimator kvd"),
        ("pvd", "--velocity=1,2",
         "--velocity applies only to --estimator kvd"),
        ("d", "--velocity=1,x",
         "--velocity applies only to --estimator kvd"),
        ("kvd", "--prior-mean=3,3",
         "--prior-mean applies only to --estimator pvd"),
        ("uvd", "--prior-mean=3,3",
         "--prior-mean applies only to --estimator pvd"),
        ("d", "--prior-mean=3,3",
         "--prior-mean applies only to --estimator pvd"),
        ("kvd", "--prior-std=3",
         "--prior-std applies only to --estimator pvd"),
        ("uvd", "--prior-std=3",
         "--prior-std applies only to --estimator pvd"),
        ("d", "--prior-std=-1",
         "--prior-std applies only to --estimator pvd"),
    ], ids=["velocity", "prior-mean", "uvd-velocity", "pvd-velocity",
            "d-velocity", "kvd-prior-mean", "uvd-prior-mean",
            "d-prior-mean", "kvd-prior-std", "uvd-prior-std",
            "d-prior-std"])
    def test_malformed_vector_is_one_error_line(self, capsys, tmp_path,
                                                kind, flag, message):
        path = tmp_path / "batch.csv"
        path.write_text("\n".join(_good_batch_lines(capsys)) + "\n")
        code, out, err, caught = _solve_without_warnings(
            capsys, path, "--estimator", kind, flag)
        assert (code, out, caught) == (1, "", [])
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("kind, flag, value", [
        ("kvd", "--velocity", "-1,0"),
        ("pvd", "--prior-mean", "-4.99,-0.24"),
        ("uvd", "--epoch", "-1e-3"),
    ], ids=["velocity", "prior-mean", "epoch"])
    def test_negative_value_as_its_own_argument(self, capsys, tmp_path,
                                                kind, flag, value):
        """A value that starts with a minus sign is read as the flag's
        value whether it follows the flag or an ``=``."""
        path = tmp_path / "batch.csv"
        path.write_text("\n".join(_good_batch_lines(capsys)) + "\n")
        solve = ["solve", "--batch", str(path), "--estimator", kind]
        joined = run_cli(capsys, *solve, f"{flag}={value}")
        assert joined[0] == 0 and "converged=true" in joined[1]
        assert run_cli(capsys, *solve, flag, value) == joined


class TestCircularSvg:
    def test_writes_a_cdf_chart_that_parses(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "experiment", "circular",
                               "--trials", "5", "--svg",
                               "--out", str(tmp_path))
        assert code == 0
        path = tmp_path / "circular.svg"
        assert f"wrote {path}" in out.splitlines()
        root = ET.parse(path).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        assert root.tag == f"{ns}svg"
        texts = [t.text for t in root.iter(f"{ns}text")]
        assert texts[0] == "position error CDF"
        assert texts[-4:] == ["kvd", "pvd", "uvd", "d"]
        assert len(root.findall(f"{ns}polyline")) == 4

    @pytest.mark.parametrize("svg", [False, True])
    def test_estimators_without_a_converged_fix(self, capsys, tmp_path,
                                                svg):
        """At a noise of 1e-160 m no circular fix converges: each
        estimator keeps its summary row with nan RMSEs and its counts,
        and gets no CDF rows and no chart line."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"noise": {"sigma": 1e-160},
                                    "trials": 3}))
        code, out, err = run_cli(capsys, "experiment", "circular",
                                 "--config", str(path), "--out",
                                 str(tmp_path), *(["--svg"] if svg else []))
        assert (code, err) == (0, "")
        summary = (tmp_path / "circular_summary.csv").read_text()
        assert summary.splitlines()[1:] == [
            f"{kind},nan,nan,nan,nan,3,3"
            for kind in ("kvd", "pvd", "uvd", "d")]
        assert (tmp_path / "circular_cdf.csv").read_text() == (
            "estimator,error_m,cum_fraction\n")
        assert (tmp_path / "circular.svg").exists() == svg
        if svg:
            root = ET.parse(tmp_path / "circular.svg").getroot()
            ns = "{http://www.w3.org/2000/svg}"
            assert [t.text for t in root.iter(f"{ns}text")][-4:] == [
                "kvd", "pvd", "uvd", "d"]
            assert root.findall(f"{ns}polyline") == []


class TestFixIndex:
    @pytest.mark.parametrize("fix, message", [
        ("-5", "error: fix index must be a non-negative integer, got -5"),
        ("2000000000000000000",
         "error: fix index 2000000000000000000 is too large"),
        ("100000000000000000000",
         "error: fix index 100000000000000000000 is too large"),
    ], ids=("negative", "2e18", "1e20"))
    def test_out_of_range_fix_is_one_error_line(self, capsys, fix, message):
        code, out, err = run_cli(capsys, "simulate", "--fix", fix)
        assert (code, out) == (1, "")
        assert err.startswith(message) and err.count("\n") == 1

    CIRCULAR = {"trajectory": {"kind": "circular", "center": [50, 50],
                               "radius": 30, "angular_rate": 0.3}}

    @pytest.mark.parametrize("fix", [0, 1, 7])
    def test_fix_k_draws_the_noise_of_trial_k(self, capsys, tmp_path, fix):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.CIRCULAR))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path),
                                 "--seed", "3", "--fix", str(fix))
        assert (code, err) == (0, "")
        cfg, _ = scenario_from_config(self.CIRCULAR, seed=3)
        batch, _ = synthesize_batch(cfg, fix, trial_rng(3, fix))
        assert out.splitlines()[1:] == [
            f"{i},{t:.17g},{rho:.17g},{sigma:.17g}" for i, t, rho, sigma
            in zip(batch.bs_index, batch.t, batch.rho, batch.sigma)]
