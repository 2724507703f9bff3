"""Experiment harness: the six study configurations, empirical statistics,
result tables and deterministic CSV/SVG emission.

Experiments (one CSV per sweep, written with 9 significant digits):

* ``stationary-noise``     noise sweep, stationary UD, known-velocity
  solver vs the drift-only baseline, CRLB columns attached.
* ``speed-sweep``          speed sweep at sigma = 0.1 m; the drift-only
  theoretical column carries the movement-bias curve.
* ``velocity-deviation``   known-velocity solver fed a deliberately wrong
  speed; theoretical column carries the deviated-velocity curve.
* ``noise-sweep-uvd-pvd``  joint and MAP solvers vs their CRLBs.
* ``speed-compare``        known/MAP/joint solvers across speeds.
* ``circular``             the drone-style arc run; emits a per-axis
  summary table and the position-error CDF samples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis
from .errors import ConfigError, EmptyInput, SeqlocError
from .model import BsConstellation
from .simulate import (
    Circular,
    ClockModel,
    EstimatorSpec,
    RNG_ALGORITHM,
    RandomPlacement,
    ScenarioConfig,
    TdmaSchedule,
    TrialRecord,
    run_monte_carlo,
    with_seed,
    with_sigma,
    with_speed,
)
from .svgplot import line_chart

EXPERIMENT_NAMES = (
    "stationary-noise",
    "speed-sweep",
    "velocity-deviation",
    "noise-sweep-uvd-pvd",
    "speed-compare",
    "circular",
)

RESULT_COLUMNS = ("sweep_value", "estimator", "empirical_rmse_m",
                  "theoretical_rmse_m", "crlb_rmse_m", "trials",
                  "non_converged")

_SIGMA_GRID = tuple(float(s) for s in np.logspace(-2, 0, 5))
_SPEED_GRID = (0.1, 1.0, 5.0, 10.0, 20.0)
_DEVIATION_GRID = (0.0, 0.5, 1.0, 2.0, 5.0)

_DEFAULT_GRIDS = {
    "stationary-noise": _SIGMA_GRID,
    "speed-sweep": _SPEED_GRID,
    "velocity-deviation": _DEVIATION_GRID,
    "noise-sweep-uvd-pvd": _SIGMA_GRID,
    "speed-compare": _SPEED_GRID,
    "circular": (10.0,),
}

_DEFAULT_ESTIMATORS = {
    "stationary-noise": ("kvd", "d"),
    "speed-sweep": ("kvd", "d"),
    "velocity-deviation": ("kvd",),
    "noise-sweep-uvd-pvd": ("uvd", "pvd"),
    "speed-compare": ("kvd", "pvd", "uvd"),
    "circular": ("kvd", "pvd", "uvd", "d"),
}

DEFAULT_SEED = 20260808
CIRCULAR_DURATION_S = 360.0


@dataclass(frozen=True)
class RmseResult:
    rmse: float
    per_axis: tuple


def empirical_rmse(errors) -> RmseResult:
    """Root mean squared Euclidean error plus per-axis components."""
    arr = np.atleast_2d(np.asarray(list(errors), dtype=float))
    if arr.size == 0:
        raise EmptyInput("no errors to aggregate")
    rmse = float(np.sqrt(np.mean(np.sum(arr**2, axis=1))))
    per_axis = tuple(float(v) for v in np.sqrt(np.mean(arr**2, axis=0)))
    return RmseResult(rmse=rmse, per_axis=per_axis)


def rmse_standard_error(errors) -> float:
    """Delta-method standard error of the empirical RMSE."""
    arr = np.atleast_2d(np.asarray(list(errors), dtype=float))
    if arr.size == 0:
        raise EmptyInput("no errors to aggregate")
    sq = np.sum(arr**2, axis=1)
    n = sq.size
    if n < 2:
        return float("inf")
    mean_sq = float(np.mean(sq))
    if mean_sq == 0.0:
        return 0.0
    se_mean = math.sqrt(float(np.var(sq, ddof=1)) / n)
    return se_mean / (2.0 * math.sqrt(mean_sq))


def error_cdf(values):
    """Empirical CDF as (value, cumulative fraction) pairs, deduplicated,
    right-continuous, ending at fraction 1."""
    vals = sorted(float(v) for v in values)
    if not vals:
        raise EmptyInput("no samples for a CDF")
    n = len(vals)
    pairs = []
    for i, v in enumerate(vals):
        if i + 1 < n and vals[i + 1] == v:
            continue
        pairs.append((v, (i + 1) / n))
    return pairs


@dataclass(frozen=True)
class ExperimentSpec:
    """One named study: sweep grid, estimators, MAP prior width, output
    location, optional SVG charts."""

    name: str
    grid: tuple
    estimators: tuple
    prior_std: float = 2.0
    out_dir: Path | None = None
    svg: bool = False

    def __post_init__(self):
        if self.name not in EXPERIMENT_NAMES:
            raise ConfigError(f"unknown experiment {self.name!r}")
        grid = tuple(float(g) for g in self.grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("grid must be nonempty and strictly increasing")
        ests = tuple(self.estimators)
        if not ests:
            raise ConfigError("need at least one estimator")
        if self.prior_std <= 0:
            raise ConfigError("prior_std must be positive")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "estimators", ests)


def default_spec(name: str, **overrides) -> ExperimentSpec:
    if name not in EXPERIMENT_NAMES:
        raise ConfigError(f"unknown experiment {name!r}")
    base = dict(name=name, grid=_DEFAULT_GRIDS[name],
                estimators=_DEFAULT_ESTIMATORS[name])
    base.update(overrides)
    return ExperimentSpec(**base)


def canonical_clock() -> ClockModel:
    # 5 ppm oscillator drift expressed in range-rate units.
    return ClockModel(b0=30.0, d=1498.96229)


def default_scenario(name: str | None = None, seed: int = DEFAULT_SEED,
                     trials: int = 1000) -> ScenarioConfig:
    """Baseline scenario for an experiment: the 30 m four-BS square with a
    randomly placed UD, or the 100 m square with the circular arc."""
    schedule = TdmaSchedule(bs_order=(0, 1, 2, 3), slot_interval=0.01)
    if name == "circular":
        n_fixes = int(round(CIRCULAR_DURATION_S / (8 * schedule.slot_interval)))
        return ScenarioConfig(
            bs=BsConstellation([[0, 0], [100, 0], [100, 100], [0, 100]]),
            trajectory=Circular(center=[50, 50], radius=30.0,
                                angular_rate=10.0 / 30.0),
            clock=canonical_clock(),
            schedule=schedule,
            m_per_fix=8,
            sigma=0.1,
            seed=seed,
            n_trials=n_fixes,
            # The reference table for this scenario is only reproducible
            # with the epoch on the second reception of each window.
            epoch_slot_offset=1,
        )
    speed = 0.0 if name == "stationary-noise" else 5.0
    return ScenarioConfig(
        bs=BsConstellation([[0, 0], [30, 0], [30, 30], [0, 30]]),
        trajectory=RandomPlacement(center=[15, 15], half_side=5.0,
                                   speed=speed),
        clock=canonical_clock(),
        schedule=schedule,
        m_per_fix=8,
        sigma=0.1,
        seed=seed,
        n_trials=trials,
    )


@dataclass(frozen=True)
class ResultRow:
    sweep_value: float
    estimator: str
    empirical_rmse: float
    theoretical_rmse: float
    crlb_rmse: float
    trials: int
    non_converged: int


@dataclass(frozen=True)
class ExperimentResult:
    spec: ExperimentSpec
    scenario: ScenarioConfig
    rows: tuple
    records: dict


def point_seed(seed: int, point_index: int) -> int:
    """Stable sub-seed for sweep point ``point_index``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(point_index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _scenario_for_point(name: str, cfg: ScenarioConfig,
                        value: float) -> ScenarioConfig:
    if name in ("stationary-noise", "noise-sweep-uvd-pvd"):
        return with_sigma(cfg, value)
    if name in ("speed-sweep", "speed-compare"):
        return with_speed(cfg, value)
    return cfg


def _estimator_spec(name: str, estimator: str, value: float,
                    prior_std: float) -> EstimatorSpec:
    if estimator == "kvd" and name == "velocity-deviation":
        return EstimatorSpec(kind="kvd", speed_deviation=value)
    if estimator == "pvd":
        centering = "truth" if name == "circular" else "nominal"
        return EstimatorSpec(kind="pvd", prior_std=prior_std,
                             prior_centering=centering)
    return EstimatorSpec(kind=estimator)


def _record_theory(kind: str, rec: TrialRecord, bs: BsConstellation):
    """(theoretical RMSE, CRLB RMSE) for one trial, both at the truth."""
    if kind == "d":
        budget = analysis.bias_drift_only(rec.batch, bs, rec.truth)
        return budget.rmse, float(np.sqrt(np.trace(budget.variance)))
    if kind == "kvd":
        deviated = rec.v_assumed is not None and not np.array_equal(
            rec.v_assumed, np.asarray(rec.truth.v))
        if deviated:
            budget = analysis.bias_deviated_velocity(rec.batch, bs, rec.truth,
                                                     rec.v_assumed)
            return budget.rmse, float(np.sqrt(np.trace(budget.variance)))
        budget = analysis.theoretical_rmse("kvd", rec.batch, bs, rec.truth)
        return budget.rmse, budget.rmse
    budget = analysis.theoretical_rmse(kind, rec.batch, bs, rec.truth,
                                       prior=rec.prior)
    return budget.rmse, budget.rmse


def run_experiment(spec: ExperimentSpec, cfg: ScenarioConfig | None = None,
                   threads: int = 1) -> ExperimentResult:
    """Execute the sweep and aggregate per (sweep value, estimator).

    Non-converged or failed trials are excluded from the empirical RMSE
    and reported through the ``non_converged`` column.  Theory columns
    aggregate the per-trial true-parameter values as root mean squares,
    over the converged trials whose theory is defined at the truth.
    """
    if cfg is None:
        cfg = default_scenario(spec.name)
    rows = []
    records: dict = {}
    for k, value in enumerate(spec.grid):
        cfg_pt = with_seed(_scenario_for_point(spec.name, cfg, value),
                           point_seed(cfg.seed, k))
        for estimator in spec.estimators:
            espec = _estimator_spec(spec.name, estimator, value,
                                    spec.prior_std)
            recs = run_monte_carlo(cfg_pt, espec, threads=threads)
            records[(value, estimator)] = recs
            good = [r for r in recs if r.converged]
            emp = theo = crl = float("nan")
            if good:
                emp = empirical_rmse([r.position_error for r in good]).rmse
            theory = []
            for r in good:
                try:
                    theory.append(_record_theory(estimator, r, cfg_pt.bs))
                except SeqlocError:
                    pass  # no theory at this truth; its error still counts
            if theory:
                theo = float(np.sqrt(np.mean([t[0] ** 2 for t in theory])))
                crl = float(np.sqrt(np.mean([t[1] ** 2 for t in theory])))
            rows.append(ResultRow(
                sweep_value=float(value), estimator=estimator,
                empirical_rmse=emp, theoretical_rmse=theo, crlb_rmse=crl,
                trials=len(recs), non_converged=len(recs) - len(good)))
    return ExperimentResult(spec=spec, scenario=cfg, rows=tuple(rows),
                            records=records)


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_sweep_csv(result: ExperimentResult, out_dir: Path) -> Path:
    lines = [",".join(RESULT_COLUMNS)]
    for r in result.rows:
        lines.append(",".join([
            _fmt(r.sweep_value), r.estimator, _fmt(r.empirical_rmse),
            _fmt(r.theoretical_rmse), _fmt(r.crlb_rmse), str(r.trials),
            str(r.non_converged)]))
    path = out_dir / f"{result.spec.name}.csv"
    _write_lines(path, lines)
    return path


def _write_circular_csvs(result: ExperimentResult, out_dir: Path):
    value = result.spec.grid[0]
    summary = ["estimator,rmse_x_m,rmse_y_m,rmse_pos_m,crlb_rmse_m,"
               "fixes,non_converged"]
    cdf_lines = ["estimator,error_m,cum_fraction"]
    for row in result.rows:
        recs = result.records[(value, row.estimator)]
        good = [r for r in recs if r.converged]
        stats = empirical_rmse([r.position_error for r in good])
        summary.append(",".join([
            row.estimator, _fmt(stats.per_axis[0]), _fmt(stats.per_axis[1]),
            _fmt(stats.rmse), _fmt(row.crlb_rmse), str(row.trials),
            str(row.non_converged)]))
        norms = [float(np.linalg.norm(r.position_error)) for r in good]
        for err, frac in error_cdf(norms):
            cdf_lines.append(f"{row.estimator},{_fmt(err)},{_fmt(frac)}")
    s_path = out_dir / "circular_summary.csv"
    c_path = out_dir / "circular_cdf.csv"
    _write_lines(s_path, summary)
    _write_lines(c_path, cdf_lines)
    return [s_path, c_path]


def _write_manifest(result: ExperimentResult, out_dir: Path) -> Path:
    spec = result.spec
    cfg = result.scenario
    manifest = {
        "experiment": spec.name,
        "grid": list(spec.grid),
        "estimators": list(spec.estimators),
        "prior_std": spec.prior_std,
        "seed": cfg.seed,
        "trials": cfg.n_trials,
        "m_per_fix": cfg.m_per_fix,
        "epoch_slot_offset": cfg.epoch_slot_offset,
        "rng": RNG_ALGORITHM,
    }
    path = out_dir / f"{spec.name}_run.json"
    _write_lines(path, [json.dumps(manifest, sort_keys=True, indent=2)])
    return path


def _axis_labels(name: str):
    if name in ("stationary-noise", "noise-sweep-uvd-pvd"):
        return "measurement noise sigma (m)", True
    if name in ("speed-sweep", "speed-compare"):
        return "UD speed (m/s)", False
    return "assumed speed deviation (m/s)", False


def _write_svg(result: ExperimentResult, out_dir: Path) -> Path:
    path = out_dir / f"{result.spec.name}.svg"
    if result.spec.name == "circular":
        value = result.spec.grid[0]
        series = []
        for row in result.rows:
            recs = result.records[(value, row.estimator)]
            norms = [float(np.linalg.norm(r.position_error))
                     for r in recs if r.converged]
            pairs = error_cdf(norms)
            series.append((row.estimator, [p[0] for p in pairs],
                           [p[1] for p in pairs]))
        line_chart(series, path, title="position error CDF",
                   x_label="position error (m)", y_label="fraction")
        return path
    x_label, log_x = _axis_labels(result.spec.name)
    series = []
    for estimator in result.spec.estimators:
        rows = [r for r in result.rows if r.estimator == estimator]
        xs = [r.sweep_value for r in rows]
        series.append((f"{estimator} empirical", xs,
                       [r.empirical_rmse for r in rows]))
        series.append((f"{estimator} theory", xs,
                       [r.theoretical_rmse for r in rows]))
    line_chart(series, path, title=result.spec.name, x_label=x_label,
               y_label="position RMSE (m)", log_x=log_x, log_y=True)
    return path


def write_experiment(result: ExperimentResult, out_dir,
                     svg: bool | None = None) -> list:
    """Emit the CSV results (plus manifest, plus optional SVG chart);
    byte-identical for identical (spec, scenario, seed)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    if result.spec.name == "circular":
        files.extend(_write_circular_csvs(result, out_dir))
    else:
        files.append(_write_sweep_csv(result, out_dir))
    files.append(_write_manifest(result, out_dir))
    want_svg = result.spec.svg if svg is None else svg
    if want_svg:
        files.append(_write_svg(result, out_dir))
    return files
