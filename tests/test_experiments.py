"""Experiment harness: statistics, sweeps, CSV emission, determinism."""

import math
from dataclasses import replace

import numpy as np
import pytest

from seqloc import (
    EmptyInput,
    RankDeficient,
    analysis,
    default_scenario,
    default_spec,
    empirical_rmse,
    error_cdf,
    rmse_standard_error,
    run_experiment,
    run_monte_carlo,
    write_experiment,
    EstimatorSpec,
    ExperimentSpec,
)
from seqloc import experiments, simulate
from seqloc.experiments import point_seed
from seqloc.model import WindowStack, prior_rows


class TestEmpiricalRmse:
    def test_single_vector(self):
        result = empirical_rmse([(3.0, 4.0)])
        assert result.rmse == pytest.approx(5.0)

    def test_symmetric_pair(self):
        result = empirical_rmse([(1.0, 0.0), (-1.0, 0.0)])
        assert result.rmse == pytest.approx(1.0)
        assert result.per_axis == pytest.approx((1.0, 0.0))

    def test_gaussian_oracle(self):
        # chi-distributed norms: RMSE of N(0, s^2 I_2) is s*sqrt(2)
        rng = np.random.default_rng(17)
        draws = rng.normal(0.0, 0.1, size=(1000, 2))
        result = empirical_rmse(draws)
        assert abs(result.rmse / (0.1 * math.sqrt(2.0)) - 1.0) < 0.05

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            empirical_rmse([])

    def test_standard_error_shrinks(self):
        rng = np.random.default_rng(3)
        small = rmse_standard_error(rng.normal(0, 1, size=(100, 2)))
        large = rmse_standard_error(rng.normal(0, 1, size=(10000, 2)))
        assert large < small


class TestErrorCdf:
    def test_basic(self):
        assert error_cdf([2.0, 1.0, 3.0]) == [
            (1.0, pytest.approx(1 / 3)),
            (2.0, pytest.approx(2 / 3)),
            (3.0, pytest.approx(1.0))]

    def test_constant_list(self):
        assert error_cdf([5.0, 5.0]) == [(5.0, 1.0)]

    def test_final_fraction_is_one(self):
        rng = np.random.default_rng(9)
        pairs = error_cdf(rng.uniform(0, 1, 500))
        assert pairs[-1][1] == pytest.approx(1.0)
        fractions = [f for _, f in pairs]
        assert all(b > a for a, b in zip(fractions, fractions[1:]))

    def test_uniform_oracle(self):
        rng = np.random.default_rng(23)
        pairs = error_cdf(rng.uniform(0, 1, 10_000))
        kolmogorov = max(abs(value - frac) for value, frac in pairs)
        assert kolmogorov < 0.02

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            error_cdf([])


class TestSpecs:
    def test_known_names_only(self):
        with pytest.raises(Exception):
            default_spec("unknown-study")

    def test_grid_must_increase(self):
        with pytest.raises(Exception):
            ExperimentSpec(name="speed-sweep", grid=(1.0, 1.0),
                           estimators=("kvd",))


def tiny(name, trials=60, seed=99, **spec_overrides):
    cfg = default_scenario(name, seed=seed, trials=trials)
    if name == "circular":
        cfg = replace(cfg, n_trials=trials)
    spec = default_spec(name, **spec_overrides)
    return spec, cfg


class TestRunExperiment:
    def test_stationary_noise_table(self):
        spec, cfg = tiny("stationary-noise",
                         grid=(0.1, 1.0))
        result = run_experiment(spec, cfg)
        assert len(result.rows) == 4  # 2 sigmas x (kvd, d)
        by_est = {}
        for row in result.rows:
            by_est.setdefault(row.estimator, []).append(row)
        # stationary: drift-only is definitionally the same solver
        for kvd_row, d_row in zip(by_est["kvd"], by_est["d"]):
            assert kvd_row.crlb_rmse == d_row.crlb_rmse
            assert kvd_row.empirical_rmse == d_row.empirical_rmse
        assert all(row.non_converged == 0 for row in result.rows)

    def test_empirical_tracks_theory_smoke(self):
        spec, cfg = tiny("speed-sweep", trials=300, grid=(5.0,))
        result = run_experiment(spec, cfg)
        for row in result.rows:
            assert abs(row.empirical_rmse / row.theoretical_rmse - 1) < 0.15

    def test_velocity_deviation_zero_matches_plain_kvd(self):
        spec, cfg = tiny("velocity-deviation", trials=80, grid=(.0, 2.0))
        result = run_experiment(spec, cfg)
        zero_row = [r for r in result.rows if r.sweep_value == 0.0][0]
        plain = run_monte_carlo(replace(cfg, seed=point_seed(cfg.seed, 0)),
                                EstimatorSpec(kind="kvd"))
        expected = empirical_rmse(
            [r.position_error for r in plain if r.converged]).rmse
        assert zero_row.empirical_rmse == pytest.approx(expected, rel=1e-12)
        dev_row = [r for r in result.rows if r.sweep_value == 2.0][0]
        assert dev_row.empirical_rmse > zero_row.empirical_rmse

    def test_sweep_applies_sigma(self):
        spec, cfg = tiny("noise-sweep-uvd-pvd", trials=40, grid=(0.01, 0.1))
        result = run_experiment(spec, cfg)
        sigmas = {rec.batch.sigma[0]
                  for (value, est), recs in result.records.items()
                  for rec in recs}
        assert sigmas == {0.01, 0.1}

    def test_theory_failure_drops_only_that_trial(self, monkeypatch):
        spec, cfg = tiny("noise-sweep-uvd-pvd", trials=20, grid=(0.1,))
        baseline = run_experiment(spec, cfg)
        real = analysis.theoretical_rmse_stack
        calls = []

        def fails_once(*args, **kwargs):
            budgets = real(*args, **kwargs)
            calls.append(args)
            if len(calls) == 1:
                budgets.failures[0] = RankDeficient("injected")
            return budgets

        monkeypatch.setattr(analysis, "theoretical_rmse_stack", fails_once)
        result = run_experiment(spec, cfg)
        hit, rest = result.rows[0], result.rows[1:]
        assert hit.estimator == "uvd"
        assert hit.empirical_rmse == baseline.rows[0].empirical_rmse
        assert hit.non_converged == baseline.rows[0].non_converged
        kept = [r for r in result.records[(0.1, "uvd")] if r.converged][1:]
        expected = math.sqrt(np.mean(
            [analysis.theoretical_rmse("uvd", r.batch, cfg.bs, r.truth).rmse
             ** 2 for r in kept]))
        assert hit.theoretical_rmse == pytest.approx(expected, rel=1e-12)
        assert hit.theoretical_rmse != baseline.rows[0].theoretical_rmse
        assert rest == baseline.rows[1:]

    def test_circular_uses_consecutive_fixes(self):
        spec, cfg = tiny("circular", trials=5)
        result = run_experiment(spec, cfg)
        recs = result.records[(10.0, "kvd")]
        epochs = [rec.batch.t_l for rec in recs]
        assert epochs == pytest.approx([0.01, 0.09, 0.17, 0.25, 0.33])


def _per_cell_theory(kind, good, bs):
    """(theoretical, CRLB) RMSE of one cell through the per-cell theory
    calls: a ``bias_deviated_velocity_stack`` of its own for kvd and d,
    ``theoretical_rmse_stack`` for uvd and pvd."""
    if not good:
        return math.nan, math.nan
    windows = WindowStack.of([r.batch for r in good])
    truths = np.stack([r.truth.as_vector() for r in good])
    if kind in ("kvd", "d"):
        v = (np.stack([r.v_assumed for r in good]) if kind == "kvd"
             else np.zeros((len(good), bs.n_dim)))
        budgets = analysis.bias_deviated_velocity_stack(windows, bs, truths,
                                                        v)
        crlb = np.sqrt(np.trace(budgets.variance, axis1=-2, axis2=-1))
    else:
        budgets = analysis.theoretical_rmse_stack(
            kind, windows, bs, truths,
            priors=(prior_rows([r.prior for r in good], bs.n_dim)
                    if kind == "pvd" else None))
        crlb = budgets.rmse
    kept = [(t, c) for t, c, f in zip(budgets.rmse.tolist(), crlb.tolist(),
                                      budgets.failures) if f is None]
    if not kept:
        return math.nan, math.nan
    return (float(np.sqrt(np.mean([t ** 2 for t, _ in kept]))),
            float(np.sqrt(np.mean([c ** 2 for _, c in kept]))))


def _same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def _cells_match_standalone(result, cfg):
    """Check every cell of ``result`` against a standalone run_monte_carlo
    of the same cell and its own per-cell theory; returns the outcomes
    seen (True or False for converged or capped, else the error name)."""
    spec, name = result.spec, result.spec.name
    rows = iter(result.rows)
    outcomes = set()
    for k, value in enumerate(spec.grid):
        cfg_pt = replace(
            experiments._scenario_for_point(name, cfg, value),
            seed=point_seed(cfg.seed, k))
        for estimator in spec.estimators:
            espec = experiments._estimator_spec(name, estimator, value,
                                                spec.prior_std)
            alone = run_monte_carlo(cfg_pt, espec)
            shared = result.records[(value, estimator)]
            assert len(shared) == len(alone) == cfg.n_trials
            for a, b in zip(shared, alone):
                assert a.error == b.error
                assert a.converged == b.converged
                assert np.array_equal(a.batch.rho, b.batch.rho)
                assert np.array_equal(a.truth.as_vector(),
                                      b.truth.as_vector())
                if b.report is None:
                    assert a.report is None
                    outcomes.add(b.error)
                    continue
                assert np.array_equal(a.report.params.as_vector(),
                                      b.report.params.as_vector())
                assert a.report.iterations == b.report.iterations
                outcomes.add(b.converged)
            row = next(rows)
            assert (row.sweep_value, row.estimator) == (value, estimator)
            good = [r for r in alone if r.converged]
            theo, crl = _per_cell_theory(estimator, good, cfg_pt.bs)
            assert _same_float(row.theoretical_rmse, theo)
            assert _same_float(row.crlb_rmse, crl)
    return outcomes


class TestSharedDraws:
    """Every cell of run_experiment, which shares one draw per sweep value
    and solves and evaluates the theory of all its cells once per design
    family, against a standalone run_monte_carlo of the same cell and its
    own per-cell theory."""

    @pytest.mark.parametrize("name, grid", [
        ("speed-sweep", (1.0, 10.0)),
        ("velocity-deviation", (0.0, 2.0)),
        ("speed-compare", (0.1, 5.0)),   # nominal pvd draws its own
        ("circular", (10.0,)),           # truth-centred pvd shares
    ])
    @pytest.mark.parametrize("mixed", [False, True],
                             ids=("default", "mixed"))
    def test_cells_match_standalone_monte_carlo(self, monkeypatch, name,
                                                grid, mixed):
        if mixed:
            # Diverged trials between converged ones, so theory rows must
            # be selected by trial, not by position.  First steps are
            # about 1500 m on the 30 m square and 1500-1540 m on the
            # circular study's 100 m square; these guards split them.
            # Three iterations also cap some trials on the square; every
            # circular trial needs four.
            circular = name == "circular"
            solver_cfg = simulate.SolverConfig(
                max_iter=4 if circular else 3,
                divergence_guard=1520.0 if circular else 1499.4)
            real = simulate.solve_stack
            monkeypatch.setattr(simulate, "solve_stack",
                                lambda system, theta, cfg: real(
                                    system, theta, solver_cfg))
        spec, cfg = tiny(name, trials=30, grid=grid)
        outcomes = _cells_match_standalone(run_experiment(spec, cfg), cfg)
        if mixed:
            assert outcomes >= {True, "Diverged"}

    def test_cell_whose_stack_cannot_be_built_fails_alone(self):
        """Slots 1e148 s apart: at sigma 1e-160 the whitened ``dt / sigma``
        column overflows, so every window of those cells fails alone with
        DimensionMismatch; the sigma 0.1 cells, in the same uvd and pvd
        stacks, keep their per-window RankDeficient."""
        spec, cfg = tiny("noise-sweep-uvd-pvd", trials=6, grid=(1e-160, 0.1))
        cfg = replace(cfg, schedule=simulate.TdmaSchedule(
            bs_order=(0, 1, 2, 3), slot_interval=1e148))
        result = run_experiment(spec, cfg)
        assert {value: {cell.errors for (v, _), cell
                        in result.records.items() if v == value}
                for value in spec.grid} == {
            1e-160: {("DimensionMismatch",) * 6},
            0.1: {("RankDeficient",) * 6}}
        assert _cells_match_standalone(result, cfg) == {
            "DimensionMismatch", "RankDeficient"}


class TestWriteExperiment:
    def test_sweep_csv_schema(self, tmp_path):
        spec, cfg = tiny("stationary-noise", trials=30, grid=(0.1, 1.0))
        result = run_experiment(spec, cfg)
        files = write_experiment(result, tmp_path)
        csv = tmp_path / "stationary-noise.csv"
        assert csv in files
        lines = csv.read_text().splitlines()
        assert lines[0] == ("sweep_value,estimator,empirical_rmse_m,"
                            "theoretical_rmse_m,crlb_rmse_m,trials,"
                            "non_converged")
        assert len(lines) == 1 + len(result.rows)
        assert (tmp_path / "stationary-noise_run.json").exists()

    def test_circular_outputs(self, tmp_path):
        spec, cfg = tiny("circular", trials=8)
        result = run_experiment(spec, cfg)
        write_experiment(result, tmp_path)
        summary = (tmp_path / "circular_summary.csv").read_text().splitlines()
        assert summary[0] == ("estimator,rmse_x_m,rmse_y_m,rmse_pos_m,"
                              "crlb_rmse_m,fixes,non_converged")
        assert len(summary) == 5  # header + 4 estimators
        cdf = (tmp_path / "circular_cdf.csv").read_text().splitlines()
        assert cdf[0] == "estimator,error_m,cum_fraction"
        assert cdf[-1].split(",")[2] == "1"

    def test_byte_identical_across_runs(self, tmp_path):
        spec, cfg = tiny("velocity-deviation", trials=40, grid=(0.0, 1.0))
        out = []
        for sub in ("a", "b", "c"):
            result = run_experiment(spec, cfg)
            write_experiment(result, tmp_path / sub)
            out.append((tmp_path / sub / "velocity-deviation.csv")
                       .read_bytes())
        assert out[0] == out[1] == out[2]

    def test_svg_written_when_requested(self, tmp_path):
        spec, cfg = tiny("speed-sweep", trials=25, grid=(1.0, 5.0))
        result = run_experiment(spec, cfg)
        files = write_experiment(result, tmp_path, svg=True)
        svg = tmp_path / "speed-sweep.svg"
        assert svg in files
        text = svg.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
