"""Experiment harness: the six study configurations, empirical statistics,
result tables and deterministic CSV/SVG emission.  A study's (sweep
value, estimator) cells are solved, and their theory computed, once per
design family; a trial whose numbers fail fails alone.
Each cell is aggregated from its ``TrialCell`` columns (``simulate``):
no per-trial object is built between the draw and the CSV.

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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import analysis
from .errors import ConfigError, EmptyInput
from .model import BsConstellation, prior_variance
from .simulate import (
    Circular,
    ClockModel,
    EstimatorSpec,
    PRIOR_STD,
    RNG_ALGORITHM,
    RandomPlacement,
    ScenarioConfig,
    TdmaSchedule,
    _joined,
    draw_points,
    drift_from_ppm,
    solve_cells,
)
# Unused here but stays bound in this namespace: perfbench/tracer.py
# patches run_monte_carlo by module path.
from .simulate import run_monte_carlo  # noqa: F401
from .svgplot import line_chart

RESULT_COLUMNS = ("sweep_value", "estimator", "empirical_rmse_m",
                  "theoretical_rmse_m", "crlb_rmse_m", "trials",
                  "non_converged")

_SIGMA_GRID = tuple(float(s) for s in np.logspace(-2, 0, 5))
_SPEED_GRID = (0.1, 1.0, 5.0, 10.0, 20.0)
_DEVIATION_GRID = (0.0, 0.5, 1.0, 2.0, 5.0)

# Each study's default sweep grid and estimators, and what the grid sweeps.
_DEFAULTS = {
    "stationary-noise": (_SIGMA_GRID, ("kvd", "d"), "sigma"),
    "speed-sweep": (_SPEED_GRID, ("kvd", "d"), "speed"),
    "velocity-deviation": (_DEVIATION_GRID, ("kvd",), "deviation"),
    "noise-sweep-uvd-pvd": (_SIGMA_GRID, ("uvd", "pvd"), "sigma"),
    "speed-compare": (_SPEED_GRID, ("kvd", "pvd", "uvd"), "speed"),
    "circular": ((10.0,), ("kvd", "pvd", "uvd", "d"), None),
}
EXPERIMENT_NAMES = tuple(_DEFAULTS)
_AXIS_LABELS = {  # the SVG x axis of each swept quantity: label, log scale
    "sigma": ("measurement noise sigma (m)", True),
    "speed": ("UD speed (m/s)", False),
    "deviation": ("assumed speed deviation (m/s)", False),
}

DEFAULT_SEED = 20260808
CIRCULAR_DURATION_S = 360.0


class RmseResult(NamedTuple):
    rmse: float
    per_axis: tuple


def empirical_rmse(errors) -> RmseResult:
    """Root mean squared Euclidean error plus per-axis components of the
    position errors (G, N) (an array or a list of rows)."""
    arr = np.atleast_2d(np.asarray(errors, dtype=float))
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
    return [(v, (i + 1) / n) for i, v in enumerate(vals)
            if i + 1 == n or vals[i + 1] != v]


@dataclass(frozen=True)
class ExperimentSpec:
    """One named study: sweep grid, estimators and MAP prior width."""

    name: str
    grid: tuple
    estimators: tuple
    prior_std: float = PRIOR_STD

    def __post_init__(self):
        if self.name not in EXPERIMENT_NAMES:
            raise ConfigError(f"unknown experiment {self.name!r}")
        grid = tuple(float(g) for g in self.grid)
        if (not grid or not all(map(math.isfinite, grid))
                or any(b <= a for a, b in zip(grid, grid[1:]))):
            raise ConfigError("grid must be nonempty, finite and strictly "
                              "increasing")
        if _DEFAULTS[self.name][2] is None and len(grid) != 1:
            raise ConfigError(f"the {self.name} study takes one grid value")
        ests = tuple(self.estimators)
        if not ests:
            raise ConfigError("need at least one estimator")
        # EstimatorSpec rejects an unknown kind.
        if len(set(map(EstimatorSpec, ests))) < len(ests):
            raise ConfigError(f"repeated estimator in {list(ests)}")
        prior_variance(self.prior_std, ConfigError)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "estimators", ests)


def default_spec(name: str, **overrides) -> ExperimentSpec:
    if name not in EXPERIMENT_NAMES:
        raise ConfigError(f"unknown experiment {name!r}")
    grid, estimators, _ = _DEFAULTS[name]
    return ExperimentSpec(**{"name": name, "grid": grid,
                             "estimators": estimators, **overrides})


def default_constellation(name: str | None = None) -> BsConstellation:
    """The base stations of ``default_scenario(name)``: a four-BS square,
    100 m for the circular study and 30 m otherwise."""
    side = 100 if name == "circular" else 30
    return BsConstellation([[0, 0], [side, 0], [side, side], [0, side]])


def default_scenario(name: str | None = None, seed: int = DEFAULT_SEED,
                     trials: int = 1000) -> ScenarioConfig:
    """Baseline scenario for an experiment: the 30 m four-BS square with a
    randomly placed UD, or the 100 m square with the circular arc."""
    schedule = TdmaSchedule(bs_order=(0, 1, 2, 3), slot_interval=0.01)
    common = dict(clock=ClockModel(b0=30.0, d=drift_from_ppm(5.0)),
                  schedule=schedule, m_per_fix=8, sigma=0.1, seed=seed,
                  bs=default_constellation(name))
    if name == "circular":
        n_fixes = int(round(CIRCULAR_DURATION_S / (8 * schedule.slot_interval)))
        return ScenarioConfig(
            trajectory=Circular(center=[50, 50], radius=30.0,
                                angular_rate=10.0 / 30.0),
            n_trials=n_fixes,
            # The reference table for this scenario is only reproducible
            # with the epoch on the second reception of each window.
            epoch_slot_offset=1, **common)
    speed = 0.0 if name == "stationary-noise" else 5.0
    return ScenarioConfig(
        trajectory=RandomPlacement(center=[15, 15], half_side=5.0,
                                   speed=speed),
        n_trials=trials, **common)


class ResultRow(NamedTuple):
    sweep_value: float
    estimator: str
    empirical_rmse: float
    theoretical_rmse: float
    crlb_rmse: float
    trials: int
    non_converged: int


class ExperimentResult(NamedTuple):
    spec: ExperimentSpec
    scenario: ScenarioConfig
    rows: tuple
    records: dict


def point_seed(seed: int, point_index: int) -> int:
    """Stable sub-seed for sweep point ``point_index``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(point_index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _scenario_for_point(name: str, cfg: ScenarioConfig, value: float,
                        **changes) -> ScenarioConfig:
    """``cfg`` at sweep value ``value``, with ``changes``, in one replace."""
    swept = _DEFAULTS[name][2]
    if swept == "sigma":
        changes["sigma"] = float(value)
    elif swept == "speed":
        if not isinstance(cfg.trajectory, RandomPlacement):
            raise ConfigError("speed sweeps need a RandomPlacement trajectory")
        changes["trajectory"] = replace(cfg.trajectory, speed=float(value))
    return replace(cfg, **changes) if changes else cfg


def _estimator_spec(name: str, estimator: str, value: float,
                    prior_std: float) -> EstimatorSpec:
    if estimator == "kvd" and _DEFAULTS[name][2] == "deviation":
        return EstimatorSpec(kind="kvd", speed_deviation=value)
    if estimator == "pvd":
        centering = "truth" if name == "circular" else "nominal"
        return EstimatorSpec(kind="pvd", prior_std=prior_std,
                             prior_centering=centering)
    return EstimatorSpec(kind=estimator)


def _theory_columns(cells: list) -> list:
    """The (theoretical, CRLB) RMSE columns of each TrialCell of
    ``cells``: root mean squares of the per-trial values at the truth over
    the converged trials whose theory is defined, else NaN.  One stacked
    call per design family: kvd's deviation bias and d's movement bias
    from the kvd projectors of their distinct draws, computed once;
    ``theoretical_rmse_stack`` for uvd and pvd."""
    columns = {}
    for family, kinds in (("kvd", ("kvd", "d")), ("uvd", ("uvd",)),
                          ("pvd", ("pvd",))):
        part = [cell for cell in cells
                if cell.spec.kind in kinds and cell.converged.any()]
        if not part:
            continue
        bs = part[0].draws.scenario.bs
        win = _joined([cell.draws.win for cell in part])
        truth = _joined([cell.draws.truth for cell in part])
        if family == "kvd":
            draws = list({id(c.draws): c.draws for c in part}.values())
            first = dict(zip(map(id, draws), np.cumsum(
                [0] + [len(d.truth) for d in draws]).tolist()))
            rows = np.concatenate([first[id(c.draws)] + np.arange(len(c))
                                   for c in part])
            projector, inverse, failures = analysis.kvd_projectors(
                _joined([d.win for d in draws]), bs,
                _joined([d.truth for d in draws]))
            budgets = analysis.bias_deviated_velocity_stack(
                win, bs, truth, _joined([c.v_assumed for c in part]),
                analysis.KvdProjectors(
                    projector[rows], inverse[rows],
                    [failures[r] for r in rows.tolist()]))
        else:
            budgets = analysis.theoretical_rmse_stack(
                family, win, bs, truth, _joined([c.prior for c in part]))
        # The CRLB column is the zero-bias part of the budget.
        bound = np.sqrt(np.trace(budgets.variance, axis1=-2, axis2=-1))
        start = 0
        for cell in part:
            ok = [k for k in (np.flatnonzero(cell.converged) + start).tolist()
                  if budgets.failures[k] is None]
            start += len(cell)
            if ok:
                # Python's t ** 2 can differ from numpy's square in the
                # last bit; the CSVs are pinned to the former.
                columns[cell] = tuple(float(np.sqrt(np.mean(
                    [t ** 2 for t in values[ok].tolist()])))
                    for values in (budgets.rmse, bound))
    return [columns.get(cell, (math.nan, math.nan)) for cell in cells]


def run_experiment(spec: ExperimentSpec,
                   cfg: ScenarioConfig) -> ExperimentResult:
    """Execute the sweep and aggregate per (sweep value, estimator).

    Every sweep point's trials are drawn once for all its cells
    (``draw_points``: a nominal-prior pvd cell reads the same streams
    further); all cells are solved in one ``solve_cells`` and their
    theory columns are computed per design family (``_theory_columns``).
    ``records`` maps (sweep value, estimator) to the cell's
    ``TrialCell``.  Non-converged or failed trials are excluded from the
    empirical RMSE and reported through the ``non_converged`` column.
    """
    especs = [[_estimator_spec(spec.name, estimator, value, spec.prior_std)
               for estimator in spec.estimators] for value in spec.grid]
    points = draw_points(
        [_scenario_for_point(spec.name, cfg, value,
                             seed=point_seed(cfg.seed, k))
         for k, value in enumerate(spec.grid)],
        [[espec.nominal_prior_std for espec in row] for row in especs])
    keys, cells = [], []
    for value, row, draws in zip(spec.grid, especs, points):
        for estimator, espec in zip(spec.estimators, row):
            keys.append((value, estimator))
            cells.append((espec, draws[espec.nominal_prior_std]))
    cells = solve_cells(cells)
    rows = []
    for (value, estimator), cell, (theo, crl) in zip(
            keys, cells, _theory_columns(cells)):
        good = np.count_nonzero(cell.converged)
        # Without a converged trial there is no empirical RMSE.
        emp = (empirical_rmse(cell.position_errors()).rmse if good
               else float("nan"))
        rows.append(ResultRow(
            sweep_value=float(value), estimator=estimator,
            empirical_rmse=emp, theoretical_rmse=theo, crlb_rmse=crl,
            trials=len(cell), non_converged=len(cell) - good))
    return ExperimentResult(spec=spec, scenario=cfg, rows=tuple(rows),
                            records=dict(zip(keys, cells)))


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _write_lines(path: Path, lines) -> Path:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _write_sweep_csv(result: ExperimentResult, out_dir: Path) -> Path:
    lines = [",".join(RESULT_COLUMNS)]
    for r in result.rows:
        lines.append(",".join([
            _fmt(r.sweep_value), r.estimator, _fmt(r.empirical_rmse),
            _fmt(r.theoretical_rmse), _fmt(r.crlb_rmse), str(r.trials),
            str(r.non_converged)]))
    return _write_lines(out_dir / f"{result.spec.name}.csv", lines)


def _circular_errors(result: ExperimentResult, row: ResultRow):
    """The position errors (G, N) of the converged fixes of ``row`` and
    the CDF of their Euclidean norms (``np.linalg.norm`` of each row: the
    square root of its dot product with itself), empty when G is 0."""
    cell = result.records[(result.spec.grid[0], row.estimator)]
    errors = cell.position_errors()
    if not len(errors):
        return errors, []
    norms = np.sqrt((errors[:, None, :] @ errors[:, :, None])[:, 0, 0])
    return errors, error_cdf(norms.tolist())


def _write_circular_csvs(result: ExperimentResult, out_dir: Path):
    summary = ["estimator,rmse_x_m,rmse_y_m,rmse_pos_m,crlb_rmse_m,"
               "fixes,non_converged"]
    cdf_lines = ["estimator,error_m,cum_fraction"]
    for row in result.rows:
        errors, cdf = _circular_errors(result, row)
        # Without a converged fix there is no empirical RMSE.
        stats = (empirical_rmse(errors) if cdf else
                 RmseResult(math.nan, (math.nan,) * errors.shape[1]))
        summary.append(",".join([
            row.estimator, _fmt(stats.per_axis[0]), _fmt(stats.per_axis[1]),
            _fmt(stats.rmse), _fmt(row.crlb_rmse), str(row.trials),
            str(row.non_converged)]))
        for err, frac in cdf:
            cdf_lines.append(f"{row.estimator},{_fmt(err)},{_fmt(frac)}")
    return [_write_lines(out_dir / "circular_summary.csv", summary),
            _write_lines(out_dir / "circular_cdf.csv", cdf_lines)]


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
    return _write_lines(out_dir / f"{spec.name}_run.json",
                        [json.dumps(manifest, sort_keys=True, indent=2)])


def _write_svg(result: ExperimentResult, out_dir: Path) -> Path:
    path = out_dir / f"{result.spec.name}.svg"
    if result.spec.name == "circular":
        series = []
        for row in result.rows:
            pairs = _circular_errors(result, row)[1]
            series.append((row.estimator, [p[0] for p in pairs],
                           [p[1] for p in pairs]))
        line_chart(series, path, title="position error CDF",
                   x_label="position error (m)", y_label="fraction")
        return path
    x_label, log_x = _AXIS_LABELS[_DEFAULTS[result.spec.name][2]]
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
                     svg: bool = False) -> list:
    """Emit the CSV results and the manifest, plus an SVG chart when
    ``svg``; byte-identical for identical (spec, scenario, seed)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    if result.spec.name == "circular":
        files.extend(_write_circular_csvs(result, out_dir))
    else:
        files.append(_write_sweep_csv(result, out_dir))
    files.append(_write_manifest(result, out_dir))
    if svg:
        files.append(_write_svg(result, out_dir))
    return files
