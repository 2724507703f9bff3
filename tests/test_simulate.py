"""Scenario synthesis and the Monte Carlo driver."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from seqloc import (
    Circular,
    ClockModel,
    ConfigError,
    ConstantVelocity,
    EstimatorSpec,
    FullParams,
    RandomPlacement,
    ScenarioConfig,
    SeqlocError,
    SolverConfig,
    TdmaSchedule,
    predict_pseudorange,
    run_monte_carlo,
    solve_drift_only,
    solve_joint_velocity,
    solve_known_velocity,
    solve_prior_velocity,
    synthesize_batch,
    trial_rng,
    truth_state,
)

from conftest import DRIFT_MPS

STATIONARY = ConstantVelocity(p0=[15, 15], v=[0.0, 0.0])  # a stationary UD


class TestTrajectories:
    def test_stationary(self):
        traj = ConstantVelocity(p0=[3.0, 4.0], v=[0.0, 0.0])
        for t in (0.0, 10.0, -2.5):
            p, v = traj.state_at(t)
            assert np.array_equal(p, [3.0, 4.0])
            assert np.all(v == 0)

    def test_constant_velocity(self):
        traj = ConstantVelocity(p0=[15.0, 15.0], v=[5.0, 0.0])
        p, v = traj.state_at(0.07)
        assert np.allclose(p, [15.35, 15.0])
        assert np.allclose(v, [5.0, 0.0])

    def test_circular_start(self):
        traj = Circular(center=[50.0, 50.0], radius=30.0,
                        angular_rate=1.0 / 3.0)
        p, v = traj.state_at(0.0)
        assert np.allclose(p, [80.0, 50.0])
        assert np.allclose(v, [0.0, 10.0])
        assert np.linalg.norm(v) == pytest.approx(10.0)

    def test_circular_speed_constant(self):
        traj = Circular(center=[50.0, 50.0], radius=30.0,
                        angular_rate=1.0 / 3.0, phase=0.3)
        for t in np.linspace(0.0, 200.0, 50):
            _, v = traj.state_at(t)
            assert np.linalg.norm(v) == pytest.approx(10.0, abs=1e-12)

    def test_random_placement_bounds(self):
        sampler = RandomPlacement(center=[15, 15], half_side=5.0, speed=5.0)
        rng = np.random.default_rng(1)
        for _ in range(100):
            traj = sampler.realize(rng)
            assert np.all(np.abs(traj.p0 - 15.0) <= 5.0)
            assert np.linalg.norm(traj.v) == pytest.approx(5.0)


class TestClock:
    def test_exact_linearity(self):
        clock = ClockModel(b0=30.0, d=DRIFT_MPS)
        for t1, t2 in ((0.0, 0.08), (1.5, 300.0), (-3.0, 7.0)):
            delta = clock.offset_at(t2) - clock.offset_at(t1)
            assert delta == pytest.approx(clock.d * (t2 - t1), rel=1e-12)


class TestSchedule:
    def test_requires_permutation(self):
        with pytest.raises(ConfigError):
            TdmaSchedule(bs_order=(0, 1, 1, 3))
        with pytest.raises(ConfigError):
            TdmaSchedule(bs_order=(0, 1), slot_interval=0.0)

    def test_round_robin_coverage(self, scenario):
        batch, _ = synthesize_batch(scenario, 0, trial_rng(1, 0),
                                    trajectory=STATIONARY)
        idx = np.asarray(batch.bs_index)
        for start in range(batch.m - 4 + 1):
            window = idx[start:start + 4]
            assert sorted(window) == [0, 1, 2, 3]


class TestSynthesizeBatch:
    def test_noiseless_matches_forward_model(self, scenario):
        traj = ConstantVelocity(p0=[14.0, 16.0], v=[3.0, -4.0])
        batch, truth = synthesize_batch(scenario, 2, trajectory=traj)
        for i in range(batch.m):
            state = truth_state(traj, scenario.clock, batch.t[i])
            instant = FullParams(state.p, state.b, state.d, np.zeros(2))
            q = scenario.bs.positions[batch.bs_index[i]]
            assert batch.rho[i] == pytest.approx(
                predict_pseudorange(q, instant, 0.0), abs=1e-9)

    def test_slots_and_epoch(self, scenario):
        traj = ConstantVelocity(p0=[15, 15], v=[0.0, 0.0])
        batch, truth = synthesize_batch(scenario, 3, trajectory=traj)
        assert np.allclose(np.diff(batch.t), 0.01)
        assert batch.t[0] == pytest.approx(3 * 8 * 0.01)
        assert batch.t_l == batch.t[0]
        assert np.array_equal(batch.bs_index, np.arange(8) % 4)
        assert truth.b == pytest.approx(
            scenario.clock.offset_at(batch.t_l), rel=1e-15)

    def test_epoch_slot_offset(self, scenario):
        shifted = replace(scenario, epoch_slot_offset=1)
        batch, truth = synthesize_batch(shifted, 0,
                                        trajectory=STATIONARY)
        assert batch.t_l == pytest.approx(0.01)
        assert batch.dt[0] == pytest.approx(-0.01)

    def test_noise_statistics(self, scenario):
        traj = ConstantVelocity(p0=[15, 15], v=[0.0, 0.0])
        clean, _ = synthesize_batch(scenario, 0, trajectory=traj)
        n_draws = 12500  # 12500 batches x 8 entries = 1e5 samples
        samples = np.empty((n_draws, 8))
        for k in range(n_draws):
            noisy, _ = synthesize_batch(scenario, 0, trial_rng(99, k),
                                        trajectory=traj)
            samples[k] = np.asarray(noisy.rho) - np.asarray(clean.rho)
        flat = samples.ravel()
        sigma = 0.1
        assert abs(flat.mean()) < 4 * sigma / np.sqrt(flat.size)
        assert abs(flat.var() / sigma**2 - 1.0) < 0.05

    def test_noise_independence(self):
        # per-trial streams drawn exactly as synthesize_batch draws them
        n_draws = 100_000
        samples = np.empty((n_draws, 8))
        for k in range(n_draws):
            samples[k] = trial_rng(7, k).standard_normal(8) * 0.1
        corr = np.corrcoef(samples, rowvar=False)
        off_diag = corr[~np.eye(8, dtype=bool)]
        assert np.max(np.abs(off_diag)) < 0.01

    def test_per_bs_sigma(self, bs_square, clock, schedule):
        cfg = ScenarioConfig(bs=bs_square, trajectory=STATIONARY,
                             clock=clock, schedule=schedule,
                             sigma=[0.1, 0.2, 0.3, 0.4], seed=1, n_trials=1)
        batch, _ = synthesize_batch(cfg, 0, trial_rng(1, 0))
        assert np.allclose(batch.sigma,
                           [0.1, 0.2, 0.3, 0.4, 0.1, 0.2, 0.3, 0.4])

    def test_sampler_must_be_realized(self, scenario):
        with pytest.raises(ConfigError):
            synthesize_batch(scenario, 0)

    @pytest.mark.parametrize("fix, message", [
        (-5, "fix index must be a non-negative integer, got -5"),
        (1.5, "fix index must be a non-negative integer, got 1.5"),
        (2**60, f"fix index {2**60} is too large"),
        (2**61, f"fix index {2**61} is too large"),
        (10**20, f"fix index {10**20} is too large"),
    ], ids=("negative", "fraction", "2**60", "2**61", "1e20"))
    def test_fix_index_must_keep_its_slots_in_int64(self, scenario, fix,
                                                     message):
        """Fix k's last slot (k + 1) * M - 1 must fit in int64: 2**61
        used to wrap around to fix 0's window, 2**60 to negative times."""
        with pytest.raises(ConfigError, match=message):
            synthesize_batch(scenario, fix, trajectory=STATIONARY)

    def test_last_fix_in_int64(self, scenario):
        last = 2**63 // scenario.m_per_fix - 1
        batch, _ = synthesize_batch(scenario, last,
                                    trajectory=STATIONARY)
        assert np.array_equal(batch.bs_index, np.arange(8) % 4)
        assert batch.t[0] == pytest.approx((2**63 - 8) * 0.01, rel=1e-15)


class TestMonteCarlo:
    def test_deterministic_repeat(self, scenario):
        scenario = replace(scenario, n_trials=40)
        a = run_monte_carlo(scenario, EstimatorSpec(kind="kvd"))
        b = run_monte_carlo(scenario, EstimatorSpec(kind="kvd"))
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.report.params.as_vector(),
                                  rb.report.params.as_vector())
            assert np.array_equal(np.asarray(ra.batch.rho),
                                  np.asarray(rb.batch.rho))

    def test_three_runs_bit_identical(self, scenario):
        runs = [run_monte_carlo(replace(scenario, n_trials=40),
                                EstimatorSpec(kind="uvd")) for _ in range(3)]
        for ra, rb, rc in zip(*runs):
            assert np.array_equal(ra.report.params.as_vector(),
                                  rb.report.params.as_vector())
            assert np.array_equal(ra.report.params.as_vector(),
                                  rc.report.params.as_vector())

    def test_near_zero_noise_recovers_truth(self, scenario):
        quiet = replace(scenario, sigma=1e-12, n_trials=25)
        records = run_monte_carlo(quiet, EstimatorSpec(kind="uvd"))
        for rec in records:
            assert rec.converged
            assert np.linalg.norm(rec.position_error) < 1e-6

    def test_fixed_trajectory_advances_fixes(self, fixed_scenario):
        records = run_monte_carlo(replace(fixed_scenario, n_trials=3),
                                  EstimatorSpec(kind="kvd"))
        epochs = [rec.batch.t_l for rec in records]
        assert epochs == [0.0, 0.08, 0.16]

    def test_sampler_restarts_at_fix_zero(self, scenario):
        records = run_monte_carlo(replace(scenario, n_trials=3),
                                  EstimatorSpec(kind="kvd"))
        assert all(rec.batch.t_l == 0.0 for rec in records)

    def test_failures_recorded_not_raised(self, bs_square, clock):
        # single-slot windows leave the solver underdetermined
        schedule = TdmaSchedule(bs_order=(0, 1, 2, 3), slot_interval=0.01)
        cfg = ScenarioConfig(bs=bs_square, trajectory=STATIONARY,
                             clock=clock, schedule=schedule, m_per_fix=2,
                             sigma=0.1, seed=3, n_trials=5)
        records = run_monte_carlo(cfg, EstimatorSpec(kind="kvd"))
        assert all(rec.report is None for rec in records)
        assert all(rec.error == "RankDeficient" for rec in records)

    @pytest.mark.parametrize("kind", ["kvd", "uvd", "pvd", "d"])
    def test_overflowing_start_recorded_without_warnings(self, scenario,
                                                         kind):
        # Pseudoranges near the float64 limit overflow the initial clock
        # offset: every trial fails as its single-window solve does.
        huge = replace(scenario, clock=ClockModel(b0=1.7e308, d=DRIFT_MPS))
        spec = EstimatorSpec(kind=kind, prior_centering="nominal")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = run_monte_carlo(replace(huge, n_trials=4), spec)
            for rec in records:
                with pytest.raises(SeqlocError) as alone:
                    _solve_alone(rec, huge.bs, kind, SolverConfig())
                assert rec.error == alone.type.__name__ == "DimensionMismatch"
                assert rec.report is None
        assert [str(w.message) for w in caught] == []

    def test_kvd_speed_deviation_feeds_assumed_velocity(self, fixed_scenario):
        records = run_monte_carlo(replace(fixed_scenario, n_trials=2),
                                  EstimatorSpec(kind="kvd",
                                                speed_deviation=2.0))
        for rec in records:
            direction = rec.truth.v / np.linalg.norm(rec.truth.v)
            assert np.allclose(rec.v_assumed, rec.truth.v + 2.0 * direction)

    def test_pvd_nominal_centering_draws_truth_from_prior(self, scenario):
        spec = EstimatorSpec(kind="pvd", prior_std=2.0,
                             prior_centering="nominal")
        records = run_monte_carlo(replace(scenario, n_trials=200), spec)
        gaps = [np.linalg.norm(np.asarray(rec.truth.v) - rec.prior.mean)
                for rec in records]
        # ||truth - mean|| is 2-sigma chi distributed: mean ~ 2*sqrt(pi/2)
        assert 2.0 < np.mean(gaps) < 3.0
        assert all(np.linalg.norm(rec.prior.mean) == pytest.approx(5.0)
                   for rec in records)

    def test_pvd_truth_centering(self, fixed_scenario):
        records = run_monte_carlo(replace(fixed_scenario, n_trials=2),
                                  EstimatorSpec(kind="pvd", prior_std=2.0))
        for rec in records:
            assert np.array_equal(rec.prior.mean, np.asarray(rec.truth.v))


def _solve_alone(rec, bs, kind, solver_cfg):
    """The single-window solve of one Monte Carlo record's own batch."""
    if kind == "kvd":
        return solve_known_velocity(rec.batch, bs, rec.v_assumed,
                                    cfg=solver_cfg)
    if kind == "d":
        return solve_drift_only(rec.batch, bs, cfg=solver_cfg)
    if kind == "uvd":
        return solve_joint_velocity(rec.batch, bs, cfg=solver_cfg)
    return solve_prior_velocity(rec.batch, bs, rec.prior, cfg=solver_cfg)


# Every first step is about 1500 m (the clock drift is 1499 m/s), spread
# over a few metres; a guard inside that spread diverges about half the
# trials, and three iterations leave some of the rest at the cap.
MIXED = SolverConfig(max_iter=3, divergence_guard=1499.4)


class TestMixedOutcomeCell:
    @pytest.mark.parametrize("spec", [
        EstimatorSpec(kind="kvd", speed_deviation=1.0),
        EstimatorSpec(kind="d"),
        EstimatorSpec(kind="uvd"),
        EstimatorSpec(kind="pvd", prior_centering="nominal"),
    ], ids=lambda spec: spec.kind)
    @pytest.mark.parametrize("solver_cfg", [
        MIXED, SolverConfig(divergence_guard=1499.4), SolverConfig(max_iter=2),
    ], ids=("mixed", "guard", "cap"))
    def test_records_match_single_window_solves(self, scenario, spec,
                                                solver_cfg):
        records = run_monte_carlo(replace(scenario, n_trials=60), spec,
                                  solver_cfg)
        outcomes = set()
        for rec in records:
            try:
                alone = _solve_alone(rec, scenario.bs, spec.kind, solver_cfg)
            except SeqlocError as exc:
                assert rec.error == type(exc).__name__
                assert rec.report is None
                outcomes.add(rec.error)
                continue
            assert rec.error is None
            np.testing.assert_allclose(rec.report.params.as_vector(),
                                       alone.params.as_vector(),
                                       rtol=0, atol=1e-9)
            assert rec.report.iterations == alone.iterations
            assert rec.report.converged == alone.converged
            outcomes.add("converged" if alone.converged else "max_iter")
        if solver_cfg is MIXED:
            assert outcomes == {"converged", "Diverged", "max_iter"}


class TestSingleWindowIdentity:
    """The harness and the public single-window path are one computation:
    every converged trial of a stacked cell equals, bit for bit, the public
    solve of that trial's batch, and that batch equals the one
    ``synthesize_batch`` makes from the trial's stream."""

    @pytest.mark.parametrize("study, spec", [
        (study, spec)
        for study in ("circular", "speed-sweep")
        for spec in (EstimatorSpec(kind="kvd"),
                     EstimatorSpec(kind="kvd", speed_deviation=0.5),
                     EstimatorSpec(kind="uvd"),
                     EstimatorSpec(kind="pvd"),
                     EstimatorSpec(kind="pvd", prior_centering="nominal"),
                     EstimatorSpec(kind="d"))
        # a nominal-centred prior needs a constant-velocity trajectory
        if study != "circular" or spec.nominal_prior_std is None
    ], ids=lambda x: x if isinstance(x, str) else (
        x.kind + ("-deviated" if x.speed_deviation else "")
        + ("-nominal" if x.nominal_prior_std else "")))
    def test_records_equal_public_solves(self, study, spec):
        from seqloc.experiments import default_scenario

        cfg = default_scenario(study, seed=20261018)
        records = run_monte_carlo(replace(cfg, n_trials=30), spec)
        sampler = not hasattr(cfg.trajectory, "state_at")
        converged = 0
        for rec in records:
            if spec.nominal_prior_std is None:
                rng = trial_rng(cfg.seed, rec.trial)
                traj = cfg.trajectory.realize(rng)
                batch, truth = synthesize_batch(
                    cfg, 0 if sampler else rec.trial, rng, trajectory=traj)
                for field in ("bs_index", "t", "rho", "sigma", "dt"):
                    assert np.array_equal(getattr(batch, field),
                                          getattr(rec.batch, field))
                assert batch.t_l == rec.batch.t_l
                assert np.array_equal(truth.as_vector(),
                                      rec.truth.as_vector())
            if not rec.converged:
                continue
            converged += 1
            alone = _solve_alone(rec, cfg.bs, spec.kind, SolverConfig())
            assert type(alone.params) is type(rec.report.params)
            assert np.array_equal(alone.params.as_vector(),
                                  rec.report.params.as_vector())
            assert alone.iterations == rec.report.iterations
            assert alone.converged
            assert alone.final_step_norm == rec.report.final_step_norm
            assert np.array_equal(alone.covariance, rec.report.covariance)
        assert converged > len(records) // 2

    def test_circular_positions_follow_state_at(self):
        traj = Circular(center=[50.0, 50.0], radius=30.0,
                        angular_rate=1.0 / 3.0, phase=0.25)
        times = np.linspace(-3.0, 40.0, 97).tolist()
        assert np.array_equal(np.array(traj.states(times)[0]),
                              np.array([traj.state_at(t)[0] for t in times]))


class TestShortWindows:
    def test_three_measurement_cell_fails_every_trial_in_the_rank_rule(
            self, scenario, monkeypatch):
        """Three pseudoranges cannot fix kvd's four parameters: every
        trial of the cell fails in ``solve_stack``'s rank rule with the
        message of the single-window solve, not in the constructor."""
        from seqloc import simulate
        from seqloc.errors import RankDeficient

        message = "need at least 4 measurements, got 3"
        cfg = replace(scenario, m_per_fix=3)
        failures = []
        real = simulate.solve_stack

        def solve(*args):
            sol = real(*args)
            failures.extend(sol.failures)
            return sol

        monkeypatch.setattr(simulate, "solve_stack", solve)
        cell = run_monte_carlo(replace(cfg, n_trials=20),
                               EstimatorSpec(kind="kvd"))
        assert len(failures) == 20
        assert all(type(f) is RankDeficient and str(f) == message
                   for f in failures)
        assert cell.errors == ("RankDeficient",) * 20
        assert not cell.converged.any()
        for rec in cell[:3]:
            with pytest.raises(RankDeficient) as alone:
                solve_known_velocity(rec.batch, cfg.bs, rec.v_assumed)
            assert str(alone.value) == message


class TestFailedMeansNotConverged:
    """A stationary UD on a BS at a noise of 1e-12 m: every solve converges
    onto the BS, where the design of its final iterate is degenerate."""

    CONFIG = {"trajectory": {"kind": "stationary", "position": [0, 30]},
              "noise": {"sigma": 1e-12}, "trials": 20}

    @pytest.mark.parametrize("kind", ["kvd", "d", "uvd"])
    def test_no_trial_is_both_converged_and_failed(self, kind):
        from seqloc.config import scenario_from_config

        cfg, _ = scenario_from_config(self.CONFIG)
        cell = run_monte_carlo(cfg, EstimatorSpec(kind=kind))
        assert cell.errors == ("DegenerateGeometry",) * 20
        assert not cell.converged.any()
        assert cell.position_errors().shape == (0, 2)
