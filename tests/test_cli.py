"""Command-line interface: subcommands, config validation, determinism."""

import json

import pytest

from seqloc.cli import main


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

    def test_byte_identical_across_threads(self, capsys, tmp_path):
        for sub, threads in (("a", "1"), ("b", "6")):
            code, _, _ = run_cli(capsys, "experiment", "stationary-noise",
                                 "--trials", "30", "--seed", "5",
                                 "--out", str(tmp_path / sub),
                                 "--threads", threads)
            assert code == 0
        a = (tmp_path / "a" / "stationary-noise.csv").read_bytes()
        b = (tmp_path / "b" / "stationary-noise.csv").read_bytes()
        assert a == b

    def test_svg_flag(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "experiment", "speed-sweep",
                             "--trials", "20", "--seed", "5",
                             "--out", str(tmp_path), "--svg")
        assert code == 0
        assert (tmp_path / "speed-sweep.svg").exists()


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

    def test_drift_conversion_from_ppm(self, capsys, tmp_path):
        from seqloc.config import load_config, scenario_from_config

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"clock": {"offset_m": 0.0,
                                              "drift_ppm": 5.0}}))
        cfg, _ = scenario_from_config(load_config(path))
        assert cfg.clock.d == pytest.approx(1498.96229, rel=1e-9)
