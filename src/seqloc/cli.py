"""Command-line front end.

Subcommands:

* ``simulate``    emit one synthesized measurement batch as CSV
* ``solve``       run one estimator on a batch CSV, print key=value lines
* ``crlb``        print the theoretical error budgets for a scenario
* ``experiment``  run a named study sweep and write result CSVs

Batch CSV format: UTF-8, with an optional byte order mark; the header
``bs_index,t,rho,sigma`` is required and blank lines are skipped; times
in seconds, distances in meters.  Exit status 0 when the requested work
completed (individual Monte Carlo trial failures are counted in the
outputs, not fatal); 1 on configuration or I/O errors; 2 on usage errors.

The parser tree is built once, at import.  ``main`` parses an argv whose
first word names a subcommand with that subcommand's own parser alone,
and any other argv (none, ``-h``, an unknown command) with the whole
tree: the top-level pass would only classify the subcommand's options and
hand them on to be parsed again.  Both give the same Namespace, output
and exit status.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .errors import ConfigError, SeqlocError
from .experiments import (
    EXPERIMENT_NAMES,
    default_constellation,
    run_experiment,
    write_experiment,
)
# Unused here but stays bound in this namespace: perfbench/tracer.py
# patches default_scenario by module path.
from .experiments import default_scenario  # noqa: F401
from .config import load_config, scenario_from_config
from .model import MeasurementBatch, VelocityPrior
from .simulate import (ESTIMATOR_KINDS, PRIOR_STD, _integer,
                       synthesize_batch, trial_rng)
from .solvers import (
    solve_drift_only,
    solve_joint_velocity,
    solve_known_velocity,
    solve_prior_velocity,
)

BATCH_COLUMNS = "bs_index,t,rho,sigma"


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The ``seqloc`` parser and its subparsers by command name."""
    parser = argparse.ArgumentParser(
        prog="seqloc",
        description="sequential-pseudorange localization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        # A value such as "-1,0" or "-1e-3" is a value, not an option:
        # CPython 3.13's argparse pattern, which reads any "-" before a
        # digit or ".digit" so; drop this once requires-python is >=3.13.
        p._negative_number_matcher = re.compile(r"-\.?\d")
        p.add_argument("--config", type=Path, default=None,
                       help="JSON scenario/experiment config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the RNG seed")

    p_sim = sub.add_parser("simulate", help="emit one batch as CSV")
    common(p_sim)
    p_sim.add_argument("--fix", type=int, default=0,
                       help="fix index along the TDMA schedule")
    p_sim.add_argument("--out", type=Path, default=None,
                       help="directory for batch.csv (default: stdout)")

    p_solve = sub.add_parser("solve", help="solve one batch")
    common(p_solve)
    p_solve.add_argument("--batch", type=Path, required=True,
                         help="batch CSV (bs_index,t,rho,sigma)")
    p_solve.add_argument("--estimator", choices=ESTIMATOR_KINDS,
                         required=True)
    p_solve.add_argument("--velocity", type=str, default=None,
                         help="known velocity 'vx,vy[,vz]' (kvd)")
    p_solve.add_argument("--prior-mean", type=str, default=None,
                         help="prior mean velocity 'vx,vy[,vz]' (pvd)")
    p_solve.add_argument("--prior-std", type=float, default=None,
                         help="per-axis prior std in m/s (pvd)")
    p_solve.add_argument("--epoch", type=float, default=None,
                         help="localization epoch (default: first time)")

    p_crlb = sub.add_parser("crlb", help="theoretical error budgets only")
    common(p_crlb)
    p_crlb.add_argument("--prior-std", type=float, default=PRIOR_STD)

    p_exp = sub.add_parser("experiment", help="run a named study")
    p_exp.add_argument("name", choices=EXPERIMENT_NAMES)
    common(p_exp)
    p_exp.add_argument("--out", type=Path, default=Path("results"),
                       help="output directory (default: ./results)")
    p_exp.add_argument("--trials", type=int, default=None,
                       help="Monte Carlo trials per sweep point")
    p_exp.add_argument("--svg", action="store_true",
                       help="also write an SVG chart")
    return parser, sub.choices


def _scenario(args, experiment: str | None = None, trials: int | None = None):
    """(ScenarioConfig, ExperimentSpec or None) of the ``--config`` file,
    or of an empty config without one, with ``--seed`` and ``trials``."""
    raw = {} if args.config is None else load_config(args.config)
    return scenario_from_config(raw, experiment=experiment, seed=args.seed,
                                trials=trials)


def _parse_vector(text: str, what: str) -> np.ndarray:
    try:
        vec = np.array([float(x) for x in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} {text!r}") from exc
    if vec.size not in (2, 3):
        raise ConfigError(f"{what} must have 2 or 3 components")
    return vec


def _batch_csv_lines(batch: MeasurementBatch):
    lines = [BATCH_COLUMNS]
    for i in range(batch.m):
        lines.append(f"{batch.bs_index[i]},{batch.t[i]:.17g},"
                     f"{batch.rho[i]:.17g},{batch.sigma[i]:.17g}")
    return lines


def _read_batch_csv(path: Path, epoch: float | None) -> MeasurementBatch:
    try:
        text = path.read_bytes().decode().removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read batch {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != BATCH_COLUMNS:
        raise ConfigError(f"batch CSV must start with '{BATCH_COLUMNS}'")
    rows = []
    for ln in lines[1:]:
        try:
            idx, t, rho, sigma = ln.split(",")
            rows.append((int(idx), float(t), float(rho), float(sigma)))
        except ValueError as exc:
            raise ConfigError(f"malformed batch row: {ln!r}") from exc
    if not rows:
        raise ConfigError("batch CSV has no measurements")
    try:  # zip(*rows): the bs_index, t, rho and sigma columns
        return MeasurementBatch(*zip(*rows),
                                t_l=rows[0][1] if epoch is None else epoch)
    except OverflowError as exc:
        raise ConfigError("batch references a BS index out of range") from exc


def _cmd_simulate(args) -> int:
    cfg, _ = _scenario(args)
    # Fix k draws from trial k's stream, which takes no negative index.
    rng = trial_rng(cfg.seed, _integer(args.fix, "fix index"))
    traj = cfg.trajectory.realize(rng)
    batch, _ = synthesize_batch(cfg, args.fix, rng, trajectory=traj)
    lines = _batch_csv_lines(batch)
    if args.out is None:
        print("\n".join(lines))
    else:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / "batch.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


def _print_report(estimator: str, report, n_dim: int) -> None:
    params = report.params
    axes = "xyz"[:n_dim]
    lines = [f"estimator={estimator}",
             f"converged={str(report.converged).lower()}",
             f"iterations={report.iterations}",
             f"final_step_norm={report.final_step_norm:.9g}"]
    lines += [f"p{axis}={value:.9g}"
              for axis, value in zip(axes, params.p.tolist())]
    lines += [f"clock_offset_m={params.b:.9g}",
              f"clock_drift_mps={params.d:.9g}"]
    if hasattr(params, "v"):
        lines += [f"v{axis}={value:.9g}"
                  for axis, value in zip(axes, params.v.tolist())]
    pos_var = report.covariance[:n_dim, :n_dim].trace().item()
    lines.append(f"pos_std_m={math.sqrt(pos_var):.9g}")
    sys.stdout.write("\n".join(lines) + "\n")


def _cmd_solve(args) -> int:
    # A vector flag the estimator does not read would be silently ignored.
    if args.velocity is not None and args.estimator != "kvd":
        raise ConfigError("--velocity applies only to --estimator kvd")
    if args.prior_mean is not None and args.estimator != "pvd":
        raise ConfigError("--prior-mean applies only to --estimator pvd")
    if args.prior_std is not None and args.estimator != "pvd":
        raise ConfigError("--prior-std applies only to --estimator pvd")
    if args.config is not None:
        bs = _scenario(args)[0].bs
    else:
        # Solving draws nothing, but a bad --seed is still an error.
        if args.seed is not None:
            _integer(args.seed, "seed")
        bs = DEFAULT_BS
    batch = _read_batch_csv(args.batch, args.epoch)
    n = bs.n_dim
    if args.estimator == "kvd":
        v = (np.zeros(n) if args.velocity is None
             else _parse_vector(args.velocity, "velocity"))
        report = solve_known_velocity(batch, bs, v)
    elif args.estimator == "d":
        report = solve_drift_only(batch, bs)
    elif args.estimator == "uvd":
        report = solve_joint_velocity(batch, bs)
    else:
        mean = (np.zeros(n) if args.prior_mean is None
                else _parse_vector(args.prior_mean, "prior mean"))
        prior = VelocityPrior.isotropic(
            mean, PRIOR_STD if args.prior_std is None else args.prior_std)
        report = solve_prior_velocity(batch, bs, prior)
    _print_report(args.estimator, report, n)
    return 0


def _cmd_crlb(args) -> int:
    cfg, _ = _scenario(args)
    rng = trial_rng(cfg.seed, 0)
    traj = cfg.trajectory.realize(rng)
    batch, truth = synthesize_batch(cfg, 0, trajectory=traj)
    prior = VelocityPrior.isotropic(truth.v, args.prior_std)
    budgets = {
        "kvd": analysis.theoretical_rmse("kvd", batch, cfg.bs, truth),
        "uvd": analysis.theoretical_rmse("uvd", batch, cfg.bs, truth),
        "pvd": analysis.theoretical_rmse("pvd", batch, cfg.bs, truth,
                                         prior=prior),
        "d": analysis.bias_drift_only(batch, cfg.bs, truth),
    }
    for kind in ("kvd", "pvd", "uvd", "d"):
        budget = budgets[kind]
        crlb_rmse = float(np.sqrt(np.trace(budget.variance)))
        print(f"{kind}_crlb_rmse_m={crlb_rmse:.9g}")
        print(f"{kind}_theoretical_rmse_m={budget.rmse:.9g}")
    return 0


def _cmd_experiment(args) -> int:
    cfg, spec = _scenario(args, experiment=args.name, trials=args.trials)
    result = run_experiment(spec, cfg)
    files = write_experiment(result, args.out, svg=args.svg)
    for row in result.rows:
        print(f"{row.estimator} @ {row.sweep_value:g}: "
              f"rmse {row.empirical_rmse:.6g} m "
              f"(theory {row.theoretical_rmse:.6g}, "
              f"crlb {row.crlb_rmse:.6g}, "
              f"{row.non_converged}/{row.trials} non-converged)")
    for path in files:
        print(f"wrote {path}")
    return 0


# Built once per process: building it costs about ten times as much as a
# parse, and parse_args keeps no state between calls.  The default
# constellation is immutable too, so it is built once as well.
PARSER, SUBPARSERS = build_parser()
DEFAULT_BS = default_constellation()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # PARSER.parse_args(argv), through the subcommand's own parser when
    # argv[0] names one (see the module docstring).
    sub = SUBPARSERS.get(argv[0]) if argv else None
    if sub is None:
        args = PARSER.parse_args(argv)
    else:
        args, extra = sub.parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if extra:
            PARSER.error(f"unrecognized arguments: {' '.join(extra)}")
    handlers = {
        "simulate": _cmd_simulate,
        "solve": _cmd_solve,
        "crlb": _cmd_crlb,
        "experiment": _cmd_experiment,
    }
    try:
        return handlers[args.command](args)
    except (SeqlocError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
