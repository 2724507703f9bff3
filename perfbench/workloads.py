"""The benchmark's four workloads and their output checks.

Each workload is a closed loop with one caller.  Its inputs come from the
seed alone, and one pass is a fixed amount of work, so every pass of a run
repeats the same computation: outputs and counts must be identical from
pass to pass, and timings are medians over passes.

* ``sweep-3state``  the ``speed-sweep`` study (kvd + d) through
  ``run_experiment`` + ``write_experiment``: 3-state solves and the
  drift-only bias projector.
* ``sweep-5state``  the ``noise-sweep-uvd-pvd`` study (uvd + pvd with
  nominal prior centering): 5-state solves, prior rows, FIM theory.
* ``fix-stream``    consecutive fixes of the ``circular`` scenario, each a
  ``synthesize_batch`` plus the four public ``solve_*`` calls, timed per
  fix; no harness and no theory.
* ``cli-solve``     in-process ``seqloc.cli.main(["solve", ...])`` over
  batch CSVs written at set-up, rotating the estimator.

Every call into seqloc goes through a module attribute looked up at call
time, so the tracer's patches see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import seqloc
import seqloc.cli
import seqloc.experiments

# The seed whose sweep CSV digests are recorded in expected.json; it is the
# package's default experiment seed.
RECORDED_SEED = seqloc.experiments.DEFAULT_SEED

SWEEP_TRIALS = 50        # trials per (sweep value, estimator) cell
FIX_COUNT = 250          # consecutive circular fixes per pass (~1 lap)
CLI_BATCHES = 40         # batch files written at set-up
CLI_CALLS = 200          # solve calls per pass, cycling through the files
PRIOR_STD = 2.0          # m/s, the studies' default velocity prior width

# Acceptance-suite tolerance on empirical RMSE over theory, checked only
# where it is statistically safe: TOLERANCE >= SAFETY_Z standard errors.
TOLERANCE = 0.10
SAFETY_Z = 4.0

# A CLI or fix-stream estimate farther than this from the truth is wrong
# (the largest honest error, drift-only at 5 m/s, is a few decimetres).
SANITY_ERROR_M = 1.0

KINDS = ("kvd", "pvd", "uvd", "d")


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


@dataclass
class PassResult:
    """One pass: its wall time, ops attempted and failed (with exception
    or failure names), per-op latencies where ops are timed one by one,
    a digest of its outputs, the objects the checks read, and the factors
    that convert its raw pass and op times to nominal speed (see
    reference.py)."""

    wall_ns: int
    ops: int
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    op_ns: list = field(default_factory=list)
    digest: str = ""
    detail: object = None
    scale: float = 1.0
    op_scale: list = field(default_factory=list)


def direct(name, fn, *args, **kwargs):
    """Span hook for untraced passes: just call."""
    return fn(*args, **kwargs)


class Sweep:
    """One default study at SWEEP_TRIALS trials per cell; an op is a
    trial."""

    def __init__(self, name: str, study: str, seed: int, out_root: Path):
        self.name = name
        self.study = study
        self.spec = seqloc.experiments.default_spec(study)
        self.cfg = seqloc.experiments.default_scenario(
            study, seed=seed, trials=SWEEP_TRIALS)
        self.out_dir = out_root / name
        self.planned = (len(self.spec.grid) * len(self.spec.estimators)
                        * SWEEP_TRIALS)

    def _body(self, span):
        result = span("experiments.run_experiment",
                      seqloc.experiments.run_experiment, self.spec, self.cfg)
        span("experiments.write_experiment",
             seqloc.experiments.write_experiment, result, self.out_dir)
        return result

    def run_pass(self, span=direct, between=None) -> PassResult:
        """``between`` is unused: the trials run inside run_experiment,
        so a sweep pass has no op boundary to call it at."""
        start = time.perf_counter_ns()
        try:
            result = span("bench.pass", self._body, span)
        except Exception as exc:  # recorded as failed ops, run goes on
            wall = time.perf_counter_ns() - start
            return PassResult(wall, self.planned, self.planned,
                              Counter({type(exc).__name__: self.planned}))
        wall = time.perf_counter_ns() - start
        csv = (self.out_dir / f"{self.study}.csv").read_bytes()
        errors = Counter(rec.error or "max_iter"
                         for recs in result.records.values()
                         for rec in recs if not rec.converged)
        ops = sum(row.trials for row in result.rows)
        return PassResult(wall, ops, sum(errors.values()), errors,
                          digest=digest([csv]), detail=result)

    def check(self, res: PassResult) -> list[str]:
        if res.detail is None:
            return [f"pass raised {dict(res.errors)}"]
        failures, _, _ = sweep_tolerance(res.detail)
        return failures


def sweep_tolerance(result):
    """Check every row whose empirical RMSE is known to within
    TOLERANCE / SAFETY_Z (relative standard error) against its theory
    column: the CRLB for kvd/uvd/pvd, the bias curve for d and for a
    deviated kvd.  Returns (failures, rows checked, rows skipped)."""
    failures, checked, skipped = [], 0, 0
    for row in result.rows:
        recs = result.records[(row.sweep_value, row.estimator)]
        errs = [r.position_error for r in recs if r.converged]
        if not errs:
            skipped += 1
            continue
        rel_se = (seqloc.rmse_standard_error(errs) / row.empirical_rmse
                  if row.empirical_rmse > 0 else math.inf)
        if SAFETY_Z * rel_se > TOLERANCE:
            skipped += 1
            continue
        checked += 1
        ratio = row.empirical_rmse / row.theoretical_rmse
        if not 1 - TOLERANCE <= ratio <= 1 + TOLERANCE:
            failures.append(f"{row.estimator} @ {row.sweep_value:g}: "
                            f"RMSE/theory {ratio:.3f}")
    return failures, checked, skipped


def ordering_failures(rmse: dict) -> list[str]:
    """The circular study's strict ordering kvd < pvd < uvd < d."""
    values = [rmse[k] for k in KINDS]
    if all(a < b for a, b in zip(values, values[1:])):
        return []
    return ["ordering kvd < pvd < uvd < d violated: "
            + ", ".join(f"{k}={rmse[k]:.4f}" for k in KINDS)]


class FixStream:
    """Consecutive fixes of the circular scenario; an op is one fix:
    synthesis plus the four solves, timed as a unit."""

    name = "fix-stream"

    def __init__(self, seed: int):
        self.cfg = seqloc.experiments.default_scenario("circular", seed=seed)

    def _fix(self, k: int):
        cfg = self.cfg
        rng = seqloc.trial_rng(cfg.seed, k)
        batch, truth = seqloc.synthesize_batch(cfg, k, rng)
        prior = seqloc.VelocityPrior.isotropic(truth.v, PRIOR_STD)
        return truth, (
            seqloc.solve_known_velocity(batch, cfg.bs, truth.v),
            seqloc.solve_prior_velocity(batch, cfg.bs, prior),
            seqloc.solve_joint_velocity(batch, cfg.bs),
            seqloc.solve_drift_only(batch, cfg.bs),
        )

    def _body(self, out, between):
        for k in range(FIX_COUNT):
            start = time.perf_counter_ns()
            try:
                fix = self._fix(k)
            except Exception as exc:  # recorded as a failed op
                out.errors[type(exc).__name__] += 1
            else:
                out.detail.append(fix)
            out.op_ns.append(time.perf_counter_ns() - start)
            if between is not None:
                between()

    def run_pass(self, span=direct, between=None) -> PassResult:
        """``between``, if given, is called after every op, outside the
        op's time; the pass time is the sum of the op times."""
        out = PassResult(0, FIX_COUNT, detail=[])
        span("bench.pass", self._body, out, between)
        out.wall_ns = sum(out.op_ns)
        chunks = []
        for truth, reports in out.detail:
            if not all(rep.converged for rep in reports):
                out.errors["max_iter"] += 1
            for rep in reports:
                chunks.append(rep.params.as_vector().tobytes())
                chunks.append(rep.iterations.to_bytes(4, "little"))
        out.failed = sum(out.errors.values())
        out.digest = digest(chunks)
        return out

    def check(self, res: PassResult) -> list[str]:
        if not res.detail:
            return [f"no fix succeeded: {dict(res.errors)}"]
        errs = {k: [] for k in KINDS}
        for truth, reports in res.detail:
            for kind, rep in zip(KINDS, reports):
                errs[kind].append(np.asarray(rep.params.p) - truth.p)
        rmse = {k: seqloc.empirical_rmse(v).rmse for k, v in errs.items()}
        failures = ordering_failures(rmse)
        worst = max(float(np.linalg.norm(e)) for v in errs.values()
                    for e in v)
        if worst > SANITY_ERROR_M:
            failures.append(f"a fix is {worst:.3f} m from the truth")
        return failures


def _csv_vector(vec) -> str:
    return ",".join(f"{x:.17g}" for x in vec)


class CliSolve:
    """``seqloc solve`` called in-process on batch CSVs written at set-up;
    an op is one call.  Batches come from the CLI's default scenario
    (random placement at 5 m/s), one trial stream per file.  Call k reads
    file k mod CLI_BATCHES, and the estimator rotates so that each file
    meets every estimator."""

    name = "cli-solve"

    def __init__(self, seed: int, out_root: Path):
        cfg = seqloc.experiments.default_scenario(None, seed=seed)
        out_dir = out_root / self.name / f"seed{seed}"
        out_dir.mkdir(parents=True, exist_ok=True)
        self.bs = cfg.bs
        batches = []
        for k in range(CLI_BATCHES):
            rng = seqloc.trial_rng(seed, k)
            traj = cfg.trajectory.realize(rng)
            batch, truth = seqloc.synthesize_batch(cfg, 0, rng,
                                                   trajectory=traj)
            path = out_dir / f"batch{k:03d}.csv"
            lines = ["bs_index,t,rho,sigma"] + [
                f"{i},{t:.17g},{r:.17g},{s:.17g}"
                for i, t, r, s in zip(batch.bs_index, batch.t, batch.rho,
                                      batch.sigma)]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            batches.append((path, batch, truth))
        self.calls = []
        for k in range(CLI_CALLS):
            path, batch, truth = batches[k % CLI_BATCHES]
            kind = KINDS[(k + k // CLI_BATCHES) % len(KINDS)]
            argv = ["solve", "--batch", str(path), "--estimator", kind]
            if kind == "kvd":
                argv.append(f"--velocity={_csv_vector(truth.v)}")
            elif kind == "pvd":
                argv += [f"--prior-mean={_csv_vector(truth.v)}",
                         "--prior-std", repr(PRIOR_STD)]
            self.calls.append((kind, argv, batch, truth))

    def _body(self, out, span, between):
        for _, argv, _, _ in self.calls:
            buf = io.StringIO()
            start = time.perf_counter_ns()
            try:
                with contextlib.redirect_stdout(buf), \
                        contextlib.redirect_stderr(buf):
                    code = span("cli.main", seqloc.cli.main, argv)
            except Exception as exc:  # recorded as a failed op
                code = type(exc).__name__
            out.op_ns.append(time.perf_counter_ns() - start)
            out.detail.append((code, buf.getvalue()))
            if between is not None:
                between()

    def run_pass(self, span=direct, between=None) -> PassResult:
        """As FixStream.run_pass."""
        out = PassResult(0, CLI_CALLS, detail=[])
        span("bench.pass", self._body, out, span, between)
        out.wall_ns = sum(out.op_ns)
        for code, text in out.detail:
            if code != 0:
                out.errors[code if isinstance(code, str)
                           else f"exit{code}"] += 1
            elif "converged=true" not in text.splitlines():
                out.errors["max_iter"] += 1
        out.failed = sum(out.errors.values())
        out.digest = digest(text.encode() for _, text in out.detail)
        return out

    def _reference(self, kind, batch, truth):
        bs = self.bs
        if kind == "kvd":
            return seqloc.solve_known_velocity(batch, bs, truth.v)
        if kind == "pvd":
            prior = seqloc.VelocityPrior.isotropic(truth.v, PRIOR_STD)
            return seqloc.solve_prior_velocity(batch, bs, prior)
        if kind == "uvd":
            return seqloc.solve_joint_velocity(batch, bs)
        return seqloc.solve_drift_only(batch, bs)

    def check(self, res: PassResult) -> list[str]:
        """Each printed position equals the library's solve of the same
        batch (to the printed 9 digits) and sits near the truth."""
        failures = []
        for (kind, _, batch, truth), (code, text) in zip(self.calls,
                                                         res.detail):
            if code != 0:
                continue
            fields = dict(line.split("=", 1) for line in text.splitlines()
                          if "=" in line)
            printed = np.array([float(fields[f"p{a}"])
                                for a in "xyz"[:self.bs.n_dim]])
            try:
                expected = np.asarray(self._reference(kind, batch, truth)
                                      .params.p)
            except Exception as exc:  # reported, the run goes on
                failures.append(f"{kind}: the library solve raised "
                                f"{type(exc).__name__}: {exc}")
                continue
            if not np.allclose(printed, expected, rtol=1e-8, atol=1e-9):
                failures.append(f"{kind}: printed {printed} but the "
                                f"library gives {expected}")
            elif np.linalg.norm(printed - truth.p) > SANITY_ERROR_M:
                failures.append(f"{kind}: {printed} is far from the "
                                f"truth {truth.p}")
        return failures


SWEEPS = {"sweep-3state": "speed-sweep", "sweep-5state": "noise-sweep-uvd-pvd"}
NAMES = tuple(SWEEPS) + (FixStream.name, CliSolve.name)


def make(name: str, seed: int, out_root: Path):
    """Build a workload's inputs: the set-up that ``setup_s`` times."""
    if name in SWEEPS:
        return Sweep(name, SWEEPS[name], seed, out_root)
    if name == FixStream.name:
        return FixStream(seed)
    if name == CliSolve.name:
        return CliSolve(seed, out_root)
    raise ValueError(f"unknown workload {name!r}")
