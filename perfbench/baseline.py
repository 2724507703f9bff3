"""One-off reproduction of the ROADMAP's performance baseline.

    python3 perfbench/baseline.py [--trials 1000] [--out perfbench/baseline.json]

Records, with the machine, the numpy version and the git SHA:

* the wall time of each of the six default studies at ``--trials`` trials
  per sweep cell (run_experiment + write_experiment), with the
  acceptance tolerances checked wherever they are statistically safe;
* the harness-path cost per solve of each estimator: run_monte_carlo on
  the speed-sweep scenario, as wall time per trial and as traced time
  inside the solve call, with the mean iteration count.

Times are raw wall-clock figures, as in the ROADMAP, next to the
reference kernel's speed measured alongside (see reference.py).  This is
not one of the gated workloads; run it by hand when the baseline needs
re-recording.
"""

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

from run import BENCH_DIR, OUT, environment, load_seqloc, reference

# The ROADMAP's figures at the re-anchor (2-core box, numpy 2.4, 1000
# trials), for the gap column.
ROADMAP_STUDY_S = {
    "stationary-noise": 14.0, "speed-sweep": 12.2, "velocity-deviation": 6.2,
    "noise-sweep-uvd-pvd": 15.1, "speed-compare": 23.9, "circular": 30.1,
}
ROADMAP_SOLVE_MS = {"kvd": 1.08, "uvd": 1.08, "pvd": 1.33, "d": 0.92}


def study_checks(workloads, name, result):
    if name == "circular":
        rmse = {row.estimator: row.empirical_rmse for row in result.rows}
        return workloads.ordering_failures(rmse), "ordering"
    failures, checked, skipped = workloads.sweep_tolerance(result)
    return failures, f"{checked} rows checked, {skipped} not safe at this size"


def run_studies(workloads, trials):
    from seqloc import experiments
    rows = {}
    for name in experiments.EXPERIMENT_NAMES:
        spec = experiments.default_spec(name)
        cfg = experiments.default_scenario(name, trials=trials)
        ref_before = reference.kernel_seconds()
        start = time.perf_counter()
        result = experiments.run_experiment(spec, cfg)
        experiments.write_experiment(result, OUT / "baseline")
        wall = time.perf_counter() - start
        ref_after = reference.kernel_seconds()
        failures, how = study_checks(workloads, name, result)
        rows[name] = {
            "wall_s": wall,
            "trials": sum(row.trials for row in result.rows),
            "non_converged": sum(row.non_converged for row in result.rows),
            "roadmap_s": ROADMAP_STUDY_S[name],
            "ratio_to_roadmap": wall / ROADMAP_STUDY_S[name],
            "reference_kernel_s": (ref_before + ref_after) / 2,
            "checks": how,
            "failures": failures,
        }
        print(f"{name:20s} {wall:7.2f} s (ROADMAP {ROADMAP_STUDY_S[name]} s) "
              f"{how}; {'ok' if not failures else failures}", flush=True)
    return rows


def run_solves(tracing, trials):
    from seqloc import experiments, simulate
    cfg = experiments.default_scenario("speed-sweep", trials=trials)
    rows = {}
    for kind in ("kvd", "uvd", "pvd", "d"):
        spec = simulate.EstimatorSpec(kind=kind)
        start = time.perf_counter()
        records = simulate.run_monte_carlo(cfg, spec)
        wall = time.perf_counter() - start
        tracer = tracing.Tracer()
        tracer.install()
        try:
            simulate.run_monte_carlo(cfg, spec)
        finally:
            tracer.restore()
        summary = tracer.summary()
        name = f"solvers.solve.{kind}"
        iterations = [r.report.iterations for r in records if r.report]
        rows[kind] = {
            "harness_ms_per_trial": wall * 1e3 / len(records),
            "traced_solve_ms": summary.mean_us(name) / 1e3,
            "iterations_mean": statistics.fmean(iterations),
            "non_converged": sum(not r.converged for r in records),
            "roadmap_ms": ROADMAP_SOLVE_MS[kind],
        }
        print(f"{kind:4s} harness {rows[kind]['harness_ms_per_trial']:.3f} "
              f"ms/trial, solve {rows[kind]['traced_solve_ms']:.3f} ms "
              f"traced, {rows[kind]['iterations_mean']:.2f} iterations "
              f"(ROADMAP {ROADMAP_SOLVE_MS[kind]} ms)", flush=True)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--out", type=Path,
                        default=BENCH_DIR / "baseline.json")
    args = parser.parse_args()
    load_seqloc()
    import tracer as tracing
    import workloads

    env = environment()
    studies = run_studies(workloads, args.trials)
    solves = run_solves(tracing, args.trials)
    total = sum(row["wall_s"] for row in studies.values())
    env["loadavg_end"] = list(os.getloadavg())
    record = {
        "what": "ROADMAP baseline reproduction: six default studies and "
                "harness-path solves",
        "trials": args.trials,
        "env": env,
        "reference_kernel_nominal_s": reference.NOMINAL_S,
        "studies": studies,
        "studies_total_s": total,
        "solves": solves,
    }
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"six studies: {total:.1f} s (ROADMAP about 100 s); "
          f"wrote {args.out}")
    failed = any(row["failures"] for row in studies.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
