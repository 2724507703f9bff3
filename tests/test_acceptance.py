"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see
them).  Tolerances and runtime caps are fixed here, not configurable.
"""

import time

import numpy as np

from seqloc import (
    BsConstellation,
    FullParams,
    KvdParams,
    VelocityPrior,
    analysis,
    build_design_kvd,
    build_design_pvd,
    build_design_uvd,
    default_scenario,
    default_spec,
    predict_batch,
    rmse_standard_error,
    run_experiment,
    solve_joint_velocity,
    solve_known_velocity,
    solve_prior_velocity,
    synthesize_batch,
    trial_rng,
)
from seqloc.cli import main as cli_main
from seqloc.experiments import ExperimentSpec
from seqloc.model import WeightModel
from seqloc.solvers import design_condition

from conftest import DRIFT_MPS, canonical_batch, make_batch, random_geometry


def _report(name, failures, elapsed, limit):
    status = "PASS" if not failures and elapsed < limit else "FAIL"
    print(f"{status} {name} ({elapsed:.1f}s, limit {limit:.0f}s)")
    for item in failures:
        print(f"      {item}")
    assert not failures, f"{name}: {failures}"
    assert elapsed < limit, f"{name}: took {elapsed:.1f}s"


def _row(result, estimator, value):
    return next(r for r in result.rows
                if r.estimator == estimator and r.sweep_value == value)


def test_criterion_01_jacobian_finite_differences():
    """Analytic design rows match central differences (1e-6 relative)."""
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(101)
    step = 1e-6
    for variant in ("kvd", "uvd", "pvd"):
        worst = 0.0
        for trial in range(100):
            n = 2 if trial % 2 == 0 else 3
            n_bs = 4 if n == 2 else 5
            bs = BsConstellation(rng.uniform(0, 30, (n_bs, n)))
            batch = make_batch(np.arange(8) % n_bs, 0.01 * np.arange(8),
                               rho=np.zeros(8))
            full = FullParams(p=rng.uniform(5, 25, n),
                              b=rng.uniform(-50, 50),
                              d=rng.uniform(-2000, 2000),
                              v=rng.uniform(-10, 10, n))

            def h_of(vec):
                if variant == "kvd":
                    at = KvdParams.from_vector(vec)
                    probe = FullParams(at.p, at.b, at.d, full.v)
                else:
                    probe = FullParams.from_vector(vec)
                return predict_batch(batch, bs, probe)

            if variant == "kvd":
                vec = full.kvd_part().as_vector()
                analytic = build_design_kvd(batch, bs, full.kvd_part(),
                                            full.v).matrix
            elif variant == "uvd":
                vec = full.as_vector()
                analytic = build_design_uvd(batch, bs, full).matrix
            else:
                vec = full.as_vector()
                analytic = build_design_pvd(batch, bs, full).matrix[:8, :]
            numeric = np.zeros_like(analytic)
            for j in range(vec.size):
                basis = np.zeros(vec.size)
                basis[j] = step
                numeric[:, j] = (h_of(vec + basis)
                                 - h_of(vec - basis)) / (2 * step)
            rel = np.abs(numeric - analytic) / np.maximum(np.abs(analytic),
                                                          1.0)
            worst = max(worst, float(np.max(rel)))
        if worst >= 1e-6:
            failures.append(f"{variant}: worst relative error {worst:.2e}")
    _report("criterion 1 (jacobian vs finite differences)", failures,
            time.perf_counter() - t0, 1.0)


def test_criterion_02_noise_free_recovery():
    """All three solvers hit the truth to 1e-6 m in at most 10 iterations."""
    t0 = time.perf_counter()
    failures = []
    bs = BsConstellation([[0, 0], [30, 0], [30, 30], [0, 30]])
    truth = FullParams(p=[15.0, 15.0], b=30.0, d=DRIFT_MPS, v=[5.0, 0.0])
    batch = canonical_batch(bs, truth)
    prior = VelocityPrior.isotropic(truth.v, 2.0)
    runs = {
        "known-velocity": solve_known_velocity(batch, bs, truth.v),
        "joint-velocity": solve_joint_velocity(batch, bs),
        "prior-velocity": solve_prior_velocity(batch, bs, prior),
    }
    for label, report in runs.items():
        err = float(np.linalg.norm(report.params.p - truth.p))
        if not report.converged:
            failures.append(f"{label}: did not converge")
        if report.iterations > 10:
            failures.append(f"{label}: {report.iterations} iterations")
        if err >= 1e-6:
            failures.append(f"{label}: position error {err:.2e}")
    _report("criterion 2 (noise-free recovery)", failures,
            time.perf_counter() - t0, 1.0)


def test_criterion_03_stationary_noise_sweep():
    """Stationary 1000-trial sweep: RMSE/CRLB in [0.9, 1.1]; the
    known-velocity and drift-only CRLB columns agree to 1e-12."""
    t0 = time.perf_counter()
    failures = []
    spec = ExperimentSpec(name="stationary-noise", grid=(0.01, 0.1, 1.0),
                          estimators=("kvd", "d"))
    result = run_experiment(spec, default_scenario("stationary-noise"))
    for sigma in spec.grid:
        kvd = _row(result, "kvd", sigma)
        drift = _row(result, "d", sigma)
        ratio = kvd.empirical_rmse / kvd.crlb_rmse
        if not 0.9 <= ratio <= 1.1:
            failures.append(f"sigma {sigma}: kvd RMSE/CRLB {ratio:.3f}")
        if abs(kvd.crlb_rmse - drift.crlb_rmse) > 1e-12 * kvd.crlb_rmse:
            failures.append(f"sigma {sigma}: CRLB columns differ")
    _report("criterion 3 (stationary noise sweep)", failures,
            time.perf_counter() - t0, 30.0)


def test_criterion_04_speed_sweep():
    """Speed sweep at sigma 0.1: known-velocity tracks the CRLB within
    10%; drift-only tracks its bias curve within 10% and is
    nondecreasing."""
    t0 = time.perf_counter()
    failures = []
    result = run_experiment(default_spec("speed-sweep"),
                            default_scenario("speed-sweep"))
    drift_curve = []
    for speed in (0.1, 1.0, 5.0, 10.0, 20.0):
        kvd = _row(result, "kvd", speed)
        drift = _row(result, "d", speed)
        ratio = kvd.empirical_rmse / kvd.crlb_rmse
        if not 0.9 <= ratio <= 1.1:
            failures.append(f"speed {speed}: kvd RMSE/CRLB {ratio:.3f}")
        ratio = drift.empirical_rmse / drift.theoretical_rmse
        if not 0.9 <= ratio <= 1.1:
            failures.append(f"speed {speed}: drift-only vs theory {ratio:.3f}")
        drift_curve.append(drift.empirical_rmse)
    if not all(b >= a for a, b in zip(drift_curve, drift_curve[1:])):
        failures.append(f"drift-only RMSE not nondecreasing: {drift_curve}")
    _report("criterion 4 (speed sweep)", failures,
            time.perf_counter() - t0, 60.0)


def test_criterion_05_velocity_deviation():
    """Deviated assumed speed: empirical RMSE tracks the deviated-velocity
    theory within 10% at every deviation."""
    t0 = time.perf_counter()
    failures = []
    result = run_experiment(default_spec("velocity-deviation"),
                            default_scenario("velocity-deviation"))
    for deviation in (0.0, 0.5, 1.0, 2.0, 5.0):
        row = _row(result, "kvd", deviation)
        ratio = row.empirical_rmse / row.theoretical_rmse
        if not 0.9 <= ratio <= 1.1:
            failures.append(f"deviation {deviation}: ratio {ratio:.3f}")
    _report("criterion 5 (velocity deviation)", failures,
            time.perf_counter() - t0, 60.0)


def test_criterion_06_speed_compare_ordering():
    """Joint and MAP solvers reach their CRLB within 10% across speeds;
    empirical ordering known <= prior <= joint holds (2 combined standard
    errors of slack)."""
    t0 = time.perf_counter()
    failures = []
    result = run_experiment(default_spec("speed-compare"),
                            default_scenario("speed-compare"))
    for speed in (0.1, 1.0, 5.0, 10.0, 20.0):
        rows = {est: _row(result, est, speed)
                for est in ("kvd", "pvd", "uvd")}
        for est in ("uvd", "pvd"):
            ratio = rows[est].empirical_rmse / rows[est].crlb_rmse
            if not 0.9 <= ratio <= 1.1:
                failures.append(f"speed {speed}: {est} RMSE/CRLB {ratio:.3f}")
        se = {}
        for est in ("kvd", "pvd", "uvd"):
            recs = result.records[(speed, est)]
            se[est] = rmse_standard_error(
                [r.position_error for r in recs if r.converged])
        for low, high in (("kvd", "pvd"), ("pvd", "uvd")):
            gap = rows[low].empirical_rmse - rows[high].empirical_rmse
            slack = 2.0 * float(np.hypot(se[low], se[high]))
            if gap > 0 and gap >= slack:
                failures.append(
                    f"speed {speed}: {low} {rows[low].empirical_rmse:.4f} "
                    f"above {high} {rows[high].empirical_rmse:.4f}")
    _report("criterion 6 (speed compare + ordering)", failures,
            time.perf_counter() - t0, 120.0)


def test_criterion_07_circular_reference_table():
    """Circular scenario reproduces the reference per-estimator RMSE table
    within +/-20% with strict empirical ordering."""
    t0 = time.perf_counter()
    failures = []
    result = run_experiment(default_spec("circular"),
                            default_scenario("circular"))
    reference_cm = {"kvd": 7.8, "pvd": 9.7, "uvd": 12.0, "d": 26.9}
    measured = {}
    for est, expected in reference_cm.items():
        row = _row(result, est, 10.0)
        measured[est] = row.empirical_rmse * 100.0
        ratio = measured[est] / expected
        if not 0.8 <= ratio <= 1.2:
            failures.append(f"{est}: {measured[est]:.1f} cm vs "
                            f"{expected} cm (ratio {ratio:.2f})")
    if not (measured["kvd"] < measured["pvd"] < measured["uvd"]
            < measured["d"]):
        failures.append(f"ordering violated: {measured}")
    _report("criterion 7 (circular reference table)", failures,
            time.perf_counter() - t0, 120.0)


def test_criterion_08_covariance_ordering_random_geometries():
    """Loewner ordering of the three covariances on 1000 random full-rank
    geometries (difference eigenvalues above -1e-10)."""
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(808)
    batch = make_batch(np.arange(8) % 4, 0.01 * np.arange(8),
                       rho=np.zeros(8))
    checked = 0
    while checked < 1000:
        bs, truth = random_geometry(rng)
        # full-rank geometry: keep the weighted design comfortably
        # conditioned so exact-zero eigenvalues stay above the floor
        design = build_design_uvd(batch, bs, truth)
        if design_condition(design, WeightModel.from_batch(batch).w_rho) > 1e4:
            continue
        checked += 1
        prior = VelocityPrior.isotropic(truth.v, 2.0)
        check = analysis.check_crlb_ordering(batch, bs, truth, prior)
        if not check.ordered:
            failures.append(
                f"geometry {checked}: eigs {check.min_eig_prior_minus_known:.2e} "
                f"{check.min_eig_joint_minus_prior:.2e}")
    _report("criterion 8 (covariance ordering, 1000 geometries)", failures,
            time.perf_counter() - t0, 10.0)


def test_criterion_09_bias_lower_bound_and_slope():
    """Quadratic bias lower bound with alpha = min eigenvalue holds (5%
    slack) for deviations up to 1 m/s on 100 random geometries; log-log
    bias slope over [0.01, 0.5] m/s lies in [0.9, 1.1]."""
    t0 = time.perf_counter()
    failures = []
    # Moderate speeds: the bound's sensitivity matrix linearizes the LOS
    # at the undisplaced position, its first-order regime.
    rng = np.random.default_rng(909)
    batch = make_batch(np.arange(8) % 4, 0.01 * np.arange(8),
                       rho=np.zeros(8))
    mags = np.array([0.01, 0.02, 0.05, 0.1, 0.2, 0.5])
    for geom in range(100):
        bs, truth = random_geometry(rng, max_speed=5.0, min_range=1.0)
        heading = rng.uniform(0, 2 * np.pi)
        direction = np.array([np.cos(heading), np.sin(heading)])
        deviations = [m * direction for m in (0.1, 0.5, 1.0)]
        deviations += [np.array([0.7, -0.7])]
        bound = analysis.bias_linear_lower_bound(batch, bs, truth,
                                                 deviations)
        if bound.alpha <= 0:
            failures.append(f"geometry {geom}: alpha {bound.alpha:.2e}")
        for check in bound.checks:
            if not check.holds:
                failures.append(
                    f"geometry {geom}: dv {check.deviation} bias^2 "
                    f"{check.bias_norm_sq:.3e} < bound {check.bound:.3e}")
        norms = [np.linalg.norm(analysis.bias_deviated_velocity(
            batch, bs, truth, truth.v + m * direction).bias) for m in mags]
        slope = float(np.polyfit(np.log(mags), np.log(norms), 1)[0])
        if not 0.9 <= slope <= 1.1:
            failures.append(f"geometry {geom}: slope {slope:.3f}")
    _report("criterion 9 (bias lower bound + slope)", failures,
            time.perf_counter() - t0, 10.0)


def test_criterion_10_prior_limit_degenerations():
    """Near-delta prior reproduces the known-velocity solution and
    near-flat the joint solution within 1e-6 m on 100 random batches."""
    t0 = time.perf_counter()
    failures = []
    cfg = default_scenario("speed-compare", seed=1010)
    for trial in range(100):
        rng = trial_rng(cfg.seed, trial)
        traj = cfg.trajectory.realize(rng)
        batch, truth = synthesize_batch(cfg, 0, rng, trajectory=traj)
        kvd = solve_known_velocity(batch, cfg.bs, truth.v)
        uvd = solve_joint_velocity(batch, cfg.bs)
        delta = solve_prior_velocity(
            batch, cfg.bs, VelocityPrior(truth.v, 1e-12 * np.eye(2)))
        flat = solve_prior_velocity(
            batch, cfg.bs, VelocityPrior(truth.v, 1e12 * np.eye(2)))
        gap_delta = float(np.linalg.norm(delta.params.p - kvd.params.p))
        gap_flat = float(np.linalg.norm(flat.params.p - uvd.params.p))
        if gap_delta >= 1e-6:
            failures.append(f"trial {trial}: delta-limit gap {gap_delta:.2e}")
        if gap_flat >= 1e-6:
            failures.append(f"trial {trial}: flat-limit gap {gap_flat:.2e}")
    _report("criterion 10 (prior limit degenerations)", failures,
            time.perf_counter() - t0, 5.0)


def test_criterion_11_deterministic_outputs(tmp_path, capsys):
    """Same seed gives byte-identical result CSVs across three repeat
    runs."""
    t0 = time.perf_counter()
    failures = []
    outputs = {}
    for label in ("a", "b", "c"):
        code = cli_main(["experiment", "velocity-deviation",
                         "--trials", "100", "--seed", "1111",
                         "--out", str(tmp_path / label)])
        if code != 0:
            failures.append(f"run {label}: exit {code}")
        outputs[label] = (tmp_path / label
                          / "velocity-deviation.csv").read_bytes()
    capsys.readouterr()
    if not (outputs["a"] == outputs["b"] == outputs["c"]):
        failures.append("CSV bytes differ between runs")
    _report("criterion 11 (deterministic CSV output)", failures,
            time.perf_counter() - t0, 60.0)
