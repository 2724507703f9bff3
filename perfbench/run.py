"""seqloc benchmark: one workload per invocation, one process, one thread.

    python3 perfbench/run.py --workload sweep-3state --seed 1 --seconds 25 --trace 0

Builds the workload from ``--seed``, runs one untimed warm-up pass (for
the sweeps, at the recorded seed, whose CSV digest must match
expected.json), then repeats identical timed passes for ``--seconds``
seconds and checks their outputs.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics from spans recorded around seqloc's public
functions (see tracer.py).  The last line of standard output is the
result as one JSON object.  Files go to perfbench/out/.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is imported, here
# and in the set-up probes this process starts.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import reference  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_PROBES = 9          # fresh processes timed for setup_s per run
MIN_PASSES = 3            # timed passes per run, whatever --seconds says
GAUGE_EVERY = 8           # ops between reference timings inside a pass
BOUNDARY_RUNS = 4         # reference timings averaged between passes
PROBE_TIMEOUT_S = 60


def load_seqloc():
    """Put this checkout's src/ first on sys.path and import seqloc from
    there; any other copy would measure the wrong code."""
    init = SRC / "seqloc" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no seqloc package at {init}")
    sys.path.insert(0, str(SRC))
    import seqloc
    if Path(seqloc.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported {seqloc.__file__}, "
                         f"not {init}")
    return seqloc


def setup_seconds(workload: str, seed: int) -> float:
    """Import plus set-up time of one fresh process (setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload,
         str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        env=os.environ.copy(), check=False)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def tail_percentile(n: int) -> float:
    """p99 when at least 10 samples lie beyond it; otherwise the highest
    percentile that leaves 10 beyond, and the maximum for n <= 20."""
    if n >= 1000:
        return 99.0
    if n > 20:
        return 100.0 * (n - 10) / n
    return 100.0


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "seqloc").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "loadavg": list(os.getloadavg()),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def warm_up(workloads, wl, args) -> list:
    """The untimed first pass; for the sweeps it runs at the recorded
    seed and its CSV must match the recorded digest.  Returns failures."""
    if args.workload not in workloads.SWEEPS:
        return wl.check(wl.run_pass())
    ref = workloads.make(args.workload, workloads.RECORDED_SEED, OUT)
    res = ref.run_pass()
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    want = expected["csv_sha256"][args.workload]
    failures = ref.check(res)
    if res.detail is None:
        return failures
    if expected["trials_per_cell"] != workloads.SWEEP_TRIALS:
        failures.append("expected.json was recorded at another run size")
    elif res.digest != want:
        failures.append(f"CSV at the recorded seed has sha256 "
                        f"{res.digest}, recorded {want}")
    return failures


def gauged_pass(wl, tracer=None, inner=True):
    """One pass with the reference kernel timed before and after it and,
    with ``inner`` (fix-stream and cli-solve only), after every
    GAUGE_EVERY ops.  Each op's scale interpolates the kernel's speed to
    that op; the pass scale is the time-weighted mean of its ops' scales.
    A traced pass is never gauged inside, so its spans hold seqloc only."""
    marks = [(-0.5, boundary_reference())]
    done = 0

    def between():
        nonlocal done
        done += 1
        if done % GAUGE_EVERY == 0:
            marks.append((done - 0.5, reference.kernel_seconds()))

    if tracer is None:
        res = wl.run_pass(between=between if inner else None)
    else:
        tracer.install()
        try:
            res = wl.run_pass(tracer.span)
        finally:
            tracer.restore()
    marks.append((len(res.op_ns) - 0.5, boundary_reference()))
    where, seconds = zip(*marks)
    if res.op_ns:
        speed = numpy.interp(numpy.arange(len(res.op_ns)), where, seconds)
        res.op_scale = list(reference.NOMINAL_S / speed)
        res.scale = (sum(ns * f for ns, f in zip(res.op_ns, res.op_scale))
                     / res.wall_ns)
    else:
        res.scale = reference.NOMINAL_S / ((seconds[0] + seconds[-1]) / 2)
    return res


def boundary_reference() -> float:
    return statistics.fmean(reference.kernel_seconds()
                            for _ in range(BOUNDARY_RUNS))


def timed_passes(wl, seconds: float, tracer=None, probe=None):
    """Repeat passes until the next one would end after the deadline.
    With a tracer, passes alternate untraced and traced, and both kinds
    are gauged only between passes so that their times compare.  With
    ``probe``, SETUP_PROBES set-up probes run between passes, spread over
    the run so that their median samples the same time as the passes.
    Returns (untraced passes, traced passes, set-up seconds)."""
    untraced, traced, setup = [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        if tracer is not None and len(traced) < len(untraced):
            res, kept = gauged_pass(wl, tracer), traced
        else:
            res, kept = gauged_pass(wl, inner=tracer is None), untraced
        if kept:
            res.detail = None  # only a run's first pass is checked in full
        kept.append(res)
        due = start + len(setup) * seconds / SETUP_PROBES
        if probe is not None and time.perf_counter() >= due:
            setup.append(probe())
        have_both = tracer is None or (untraced and traced)
        if (len(untraced) + len(traced) >= MIN_PASSES and have_both
                and time.perf_counter() + res.wall_ns / 1e9 > deadline):
            break
    while probe is not None and len(setup) < SETUP_PROBES:
        setup.append(probe())
    return untraced, traced, setup


def timings(workloads, args, passes, scaled: bool):
    """(pass seconds, pass ops/s, op microsecond samples, what a sample
    is), at nominal speed when ``scaled``."""
    walls = [p.wall_ns / 1e9 * (p.scale if scaled else 1.0) for p in passes]
    rates = [p.ops / w for p, w in zip(passes, walls)]
    if args.workload in workloads.SWEEPS:
        samples = [w * 1e6 / p.ops for p, w in zip(passes, walls)]
        kind = "per-trial mean of each pass"
    else:
        samples = [ns / 1e3 * (f if scaled else 1.0) for p in passes
                   for ns, f in zip(p.op_ns, p.op_scale)]
        kind = "one per op"
    return walls, rates, samples, kind


def end_to_end(workloads, args, passes, setup):
    """Each metric as (value, unit, note); the timing metrics are at
    nominal speed and the note gives the raw figure."""
    walls, rates, samples, kind = timings(workloads, args, passes, True)
    raw_walls, raw_rates, raw_samples, _ = timings(workloads, args, passes,
                                                   False)
    tail = tail_percentile(len(samples))
    n = len(passes)

    def pct(values, q):
        return float(numpy.percentile(values, q))

    return {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh-process set-ups, raw"),
        "wall_s": (statistics.median(walls), "s",
                   f"median of {n} passes; raw "
                   f"{statistics.median(raw_walls):.6g}"),
        "ops_per_s": (statistics.median(rates), "1/s",
                      f"median of {n} passes of {passes[0].ops} ops; raw "
                      f"{statistics.median(raw_rates):.6g}"),
        "op_us_p50": (pct(samples, 50), "us",
                      f"{len(samples)} samples, {kind}; raw "
                      f"{pct(raw_samples, 50):.6g}"),
        "op_us_p99": (pct(samples, tail), "us",
                      f"p{tail:.4g} of {len(samples)} samples; raw "
                      f"{pct(raw_samples, tail):.6g}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", "ru_maxrss of this process"),
    }


FAILURE_REASONS = ("RankDeficient", "Diverged", "DegenerateGeometry",
                   "max_iter")


def per_layer(traced, untraced, tracer):
    """Per-layer metrics as {name: (value, unit)}, plus the counts of
    solve exceptions outside FAILURE_REASONS."""
    s = tracer.summary()
    n_pass = len(traced)
    solve_names = [f"solvers.solve.{k}" for k in ("kvd", "uvd", "pvd", "d")]
    solves = sum(s.calls[n] for n in solve_names)
    solver_builds = sum(s.calls_under[("model.build_design", n)]
                        for n in solve_names)
    trials = s.calls_under[("simulate.synthesize_batch",
                            "simulate.run_monte_carlo")]
    traced_wall = statistics.median(p.wall_ns / 1e9 * p.scale
                                    for p in traced)
    untraced_wall = statistics.median(p.wall_ns / 1e9 * p.scale
                                      for p in untraced)
    # Span times are converted to nominal speed with the traced passes'
    # median factor.
    k = statistics.median(p.scale for p in traced)
    total_ns = sum(p.wall_ns for p in traced)
    attempted = sum(p.ops for p in traced)
    m = {}

    def count(name, value):
        m[name] = (value / n_pass, "count")

    count("simulate.synthesize_batch.calls",
          s.calls["simulate.synthesize_batch"])
    m["simulate.synthesize_batch.us"] = (
        k * s.mean_us("simulate.synthesize_batch"), "us")
    m["simulate.run_monte_carlo.self_us_per_trial"] = (
        k * s.self_ns["simulate.run_monte_carlo"] / 1e3 / trials
        if trials else 0.0, "us")
    for layer in ("model.build_design", "model.residual", "solvers.wls_step"):
        count(f"{layer}.calls", s.calls[layer])
        m[f"{layer}.us"] = (k * s.mean_us(layer), "us")
    m["model.builds_per_solve"] = (solver_builds / solves if solves else 0.0,
                                   "builds/solve")
    for name in solve_names:
        kind = name.rsplit(".", 1)[1]
        count(f"{name}.calls", s.calls[name])
        m[f"{name}.us"] = (k * s.mean_us(name), "us")
        m[f"{name}.self_us"] = (k * s.mean_self_us(name), "us")
        iters = [it for it, _ in s.outcomes[name]]
        m[f"solvers.iterations_mean.{kind}"] = (
            sum(iters) / len(iters) if iters else 0.0, "iter/solve")
    reasons = Counter()
    for (name, error), n in s.errors.items():
        if name in solve_names:
            reasons[error] += n
    for name in solve_names:
        reasons["max_iter"] += sum(1 for _, ok in s.outcomes[name] if not ok)
    for reason in FAILURE_REASONS:
        count(f"solvers.failed.{reason}", reasons.pop(reason, 0))
    for fn in ("theoretical_rmse", "bias_deviated_velocity", "fim"):
        count(f"analysis.{fn}.calls", s.calls[f"analysis.{fn}"])
        m[f"analysis.{fn}.us"] = (k * s.mean_us(f"analysis.{fn}"), "us")
    m["experiments.run_experiment.self_s"] = (
        k * s.self_ns["experiments.run_experiment"] / 1e9 / n_pass, "s")
    m["experiments.write_experiment.s"] = (
        k * s.total_ns["experiments.write_experiment"] / 1e9 / n_pass,
        "s")
    m["cli.main.self_us"] = (k * s.mean_self_us("cli.main"), "us")
    m["bench.wall_s.traced"] = (traced_wall, "s")
    m["bench.wall_s.untraced"] = (untraced_wall, "s")
    m["bench.trace_overhead_s"] = (traced_wall - untraced_wall, "s")
    m["bench.unattributed_frac"] = (s.self_ns["bench.pass"] / total_ns,
                                    "fraction")
    m["bench.fail_frac"] = (sum(p.failed for p in traced) / attempted,
                            "fraction")
    return m, dict(reasons)


def pass_failures(wl, passes) -> list:
    """Every timed pass must reproduce the first one's outputs exactly,
    and the first must pass the workload's checks."""
    failures = [f"pass {i} output differs from pass 0"
                for i, p in enumerate(passes) if p.digest != passes[0].digest]
    return failures + wl.check(passes[0])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_seqloc()
    import tracer as tracing
    import workloads
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")

    env = environment()
    OUT.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, OUT)
    failures = warm_up(workloads, wl, args)

    tracer = tracing.Tracer() if args.trace else None
    probe = None if args.trace else functools.partial(
        setup_seconds, args.workload, args.seed)
    untraced, traced, setup = timed_passes(wl, args.seconds, tracer, probe)
    passes = untraced + traced
    failures += pass_failures(wl, untraced)
    if traced:
        failures += pass_failures(wl, traced)
        if traced[0].digest != untraced[0].digest:
            failures.append("traced output differs from untraced")

    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    errors = sum((p.errors for p in passes), start=Counter())
    if failures:
        failed = attempted
    correct = failed == 0

    env["loadavg_end"] = list(os.getloadavg())
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(passes)}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics, other = per_layer(traced, untraced, tracer)
        notes = {}
        if other:
            print(f"other solve exceptions: {other}")
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write_spans(spans_path)
        print(f"spans: {len(tracer.spans)} written to "
              f"{spans_path.relative_to(ROOT)}")
    else:
        full = end_to_end(workloads, args, untraced, setup)
        metrics = {k: (v, u) for k, (v, u, _) in full.items()}
        notes = {k: n for k, (_, _, n) in full.items()}
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {value:.6g} {unit}{note}")
    print(f"fail_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted} ops; {dict(errors) or 'no failures'})")
    for failure in failures:
        print(f"check FAILED: {failure}")
    if not failures:
        print("checks: ok")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, env=env, failures=failures,
                  errors=dict(errors))
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
