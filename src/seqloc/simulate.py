"""Scenario synthesis: trajectories, drifting clock, TDMA schedule, noisy
sequential pseudorange batches and the Monte Carlo driver.

Reproducibility contract: trial ``k`` of a scenario draws everything from
``numpy.random.default_rng([seed, k])`` (PCG64 seeded through
SeedSequence), so its inputs do not depend on which other trials run with
it.  Within a trial the draw order is fixed: trajectory placement draws
first (when the trajectory is a random sampler), then the true velocity
(for a prior centred on the nominal one), then one standard normal per
measurement.

The Monte Carlo driver runs in two steps.  ``draw_trials`` makes these
draws trial by trial, then synthesizes and validates all windows as one
stack; ``solve_trials`` solves and records that stack for one estimator,
with the same floating-point operations per trial as the single-window
path, so a trial's outputs are bit-identical to solving it alone.  The
draws depend on the estimator only through a nominal-centred prior, so
the experiment harness draws once per sweep value and lets every other
estimator cell share that draw; a nominal-prior ``pvd`` cell draws its
own."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, SeqlocError
from .model import (
    BsConstellation,
    FullParams,
    MeasurementBatch,
    VelocityPrior,
    WhitenedSystem,
    _freeze,
    _frozen_array,
    _require_finite,
    _require_sigma,
    _row_norms,
    _trusted,
)
# The solve_* names are unused here but stay bound in this namespace:
# perfbench/tracer.py patches them by module path.
from .solvers import (  # noqa: F401
    EstimateReport,
    SolverConfig,
    initial_vectors,
    solve_drift_only,
    solve_joint_velocity,
    solve_known_velocity,
    solve_prior_velocity,
    solve_stack,
    window_report,
)

RNG_ALGORITHM = "numpy-pcg64/seedsequence([seed, trial])"

ESTIMATOR_KINDS = ("kvd", "uvd", "pvd", "d")


@dataclass(frozen=True)
class Stationary:
    """UD fixed at ``p0``."""

    p0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p0", _frozen_array(np.atleast_1d(self.p0)))

    def state_at(self, t: float):
        return self.p0, np.zeros_like(self.p0)

    def realize(self, rng) -> "Stationary":
        return self


@dataclass(frozen=True)
class ConstantVelocity:
    """UD at ``p0`` at ``t_ref`` moving with constant velocity ``v``."""

    p0: np.ndarray
    v: np.ndarray
    t_ref: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "p0", _frozen_array(np.atleast_1d(self.p0)))
        object.__setattr__(self, "v", _frozen_array(np.atleast_1d(self.v)))

    def state_at(self, t: float):
        return self.p0 + self.v * (t - self.t_ref), self.v

    def realize(self, rng) -> "ConstantVelocity":
        return self


@dataclass(frozen=True)
class Circular:
    """2-D circular motion around ``center`` with tangential speed
    ``radius * |angular_rate|``."""

    center: np.ndarray
    radius: float
    angular_rate: float
    phase: float = 0.0

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        if center.size != 2:
            raise ConfigError("circular trajectories are 2-D")
        if not (self.radius > 0 and np.isfinite(self.angular_rate)):
            raise ConfigError("radius must be positive and rate finite")
        object.__setattr__(self, "center", _frozen_array(center))

    def state_at(self, t: float):
        ang = self.angular_rate * t + self.phase
        p = self.center + self.radius * np.array([math.cos(ang), math.sin(ang)])
        v = self.radius * self.angular_rate * np.array(
            [-math.sin(ang), math.cos(ang)])
        return p, v

    def positions(self, times) -> list:
        """Positions ``[x, y]`` at the float ``times``: ``state_at``'s
        arithmetic in scalar ``math``, without its arrays."""
        cx, cy = self.center.tolist()
        rate, phase, radius = self.angular_rate, self.phase, self.radius
        out = []
        for t in times:
            ang = rate * t + phase
            out.append([cx + radius * math.cos(ang),
                        cy + radius * math.sin(ang)])
        return out

    def realize(self, rng) -> "Circular":
        return self


@dataclass(frozen=True)
class RandomPlacement:
    """Per-trial sampler: position uniform in a square around ``center``,
    heading uniform on the circle, fixed ``speed``.

    ``realize`` consumes three uniforms (x, y, heading) from the trial
    stream and yields a ConstantVelocity trajectory referenced to
    ``t_ref``.
    """

    center: np.ndarray
    half_side: float
    speed: float
    t_ref: float = 0.0

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        if center.size != 2:
            raise ConfigError("random placement samples a 2-D square")
        if self.half_side <= 0 or self.speed < 0:
            raise ConfigError("half_side must be positive and speed >= 0")
        object.__setattr__(self, "center", _frozen_array(center))

    def realize(self, rng) -> ConstantVelocity:
        offset = rng.uniform(-self.half_side, self.half_side, size=2)
        heading = rng.uniform(0.0, 2.0 * math.pi)
        v = self.speed * np.array([math.cos(heading), math.sin(heading)])
        return ConstantVelocity(p0=self.center + offset, v=v, t_ref=self.t_ref)


@dataclass(frozen=True)
class ClockModel:
    """Linear UD clock in range units: offset ``b0`` meters at ``t_ref``,
    constant drift ``d`` meters/second over the whole simulation."""

    b0: float
    d: float
    t_ref: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.b0) and np.isfinite(self.d)):
            raise ConfigError("clock parameters must be finite")

    def offset_at(self, t: float) -> float:
        return self.b0 + self.d * (t - self.t_ref)


@dataclass(frozen=True)
class TdmaSchedule:
    """Round-robin slot plan: BS ``bs_order[k % len]`` transmits in global
    slot ``k`` at ``start_time + k * slot_interval``."""

    bs_order: tuple
    slot_interval: float = 0.01
    start_time: float = 0.0

    def __post_init__(self):
        order = tuple(int(i) for i in self.bs_order)
        if len(order) < 1 or len(set(order)) != len(order):
            raise ConfigError("bs_order must list each BS exactly once")
        if self.slot_interval <= 0:
            raise ConfigError("slot_interval must be positive")
        object.__setattr__(self, "bs_order", order)

    def slot_times(self, first_slot: int, count: int) -> np.ndarray:
        slots = first_slot + np.arange(count)
        return self.start_time + slots * self.slot_interval

    def slot_bs(self, first_slot: int, count: int) -> np.ndarray:
        order = np.array(self.bs_order, dtype=int)
        return order[(first_slot + np.arange(count)) % order.size]


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to synthesize measurement batches: constellation,
    trajectory (or sampler), clock, schedule, batch size, noise level
    (scalar or per-BS), RNG seed and trial count.

    ``epoch_slot_offset`` selects which reception time of the window is the
    localization epoch (0 keeps the default, epoch = first measurement).
    """

    bs: BsConstellation
    trajectory: object
    clock: ClockModel
    schedule: TdmaSchedule
    m_per_fix: int = 8
    sigma: object = 0.1
    seed: int = 1
    n_trials: int = 1000
    epoch_slot_offset: int = 0

    def __post_init__(self):
        if self.m_per_fix < 1:
            raise ConfigError("m_per_fix must be at least 1")
        if self.n_trials < 1:
            raise ConfigError("n_trials must be at least 1")
        if not 0 <= self.epoch_slot_offset < self.m_per_fix:
            raise ConfigError("epoch_slot_offset must index into the window")
        try:
            sigma = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"sigma must be a number or a list of "
                              f"numbers, got {self.sigma!r}") from exc
        if sigma.ndim != 1:
            raise ConfigError("sigma must be scalar or one value per BS")
        _require_sigma(sigma, ConfigError)
        if sigma.size not in (1, self.bs.n_bs):
            raise ConfigError("sigma must be scalar or one value per BS")
        if sorted(self.schedule.bs_order) != list(range(self.bs.n_bs)):
            raise ConfigError("bs_order must be a permutation of all BSs")
        object.__setattr__(self, "sigma", _frozen_array(sigma))

    def sigma_for(self, bs_index: np.ndarray) -> np.ndarray:
        if self.sigma.size == 1:
            return np.full(bs_index.shape, self.sigma[0])
        return self.sigma[bs_index]


def truth_state(trajectory, clock: ClockModel, t: float) -> FullParams:
    """Exact UD state (position, clock, instantaneous velocity) at ``t``."""
    p, v = trajectory.state_at(t)
    return FullParams(p=p, b=clock.offset_at(t), d=clock.d, v=v)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The per-trial random stream; see RNG_ALGORITHM."""
    return np.random.default_rng([int(seed), int(trial)])


def _positions(trajectories, times: np.ndarray) -> np.ndarray:
    """UD positions (T, M, N): trial ``k``'s trajectory at its window times
    ``times[k]``, through the same arithmetic as its ``state_at``."""
    if all(type(traj) is ConstantVelocity for traj in trajectories):
        p0 = np.stack([traj.p0 for traj in trajectories])[:, None, :]
        v = np.stack([traj.v for traj in trajectories])[:, None, :]
        t_ref = np.array([traj.t_ref for traj in trajectories], dtype=float)
        return p0 + v * (times - t_ref[:, None])[..., None]
    if all(type(traj) is Circular for traj in trajectories):
        return np.array([traj.positions(row) for traj, row
                         in zip(trajectories, times.tolist())])
    return np.array([traj.state_at(t)[0]
                     for traj, row in zip(trajectories, times)
                     for t in row]).reshape(times.shape + (-1,))


class _Windows(NamedTuple):
    """T synthesized windows as stacked arrays: ``bs_index``, ``t``,
    ``rho``, ``sigma`` and ``dt`` (T, M), epochs ``t_l`` (T,)."""

    bs_index: np.ndarray
    t: np.ndarray
    rho: np.ndarray
    sigma: np.ndarray
    t_l: np.ndarray
    dt: np.ndarray


def _synthesize(cfg: ScenarioConfig, fix_index: np.ndarray, trajectories,
                noise: np.ndarray | None) -> _Windows:
    """Windows of fixes ``fix_index`` (T,) along ``trajectories`` (one
    realized trajectory per window), with the standard-normal draws
    ``noise`` (T, M) scaled by each measurement's sigma (noiseless when
    None)."""
    m = cfg.m_per_fix
    first_slot = (fix_index * m)[:, None]
    times = cfg.schedule.slot_times(first_slot, m)
    bs_idx = cfg.schedule.slot_bs(first_slot, m)
    sigma = cfg.sigma_for(bs_idx)
    positions = _positions(trajectories, times)
    ranges = _row_norms(cfg.bs.positions[bs_idx] - positions)
    offsets = cfg.clock.b0 + cfg.clock.d * (times - cfg.clock.t_ref)
    rho = ranges + offsets
    if noise is not None:
        rho = rho + noise * sigma
    t_l = times[:, cfg.epoch_slot_offset]
    return _Windows(bs_index=bs_idx, t=times, rho=rho, sigma=sigma, t_l=t_l,
                    dt=times - t_l[:, None])


def synthesize_batch(cfg: ScenarioConfig, fix_index: int,
                     rng: np.random.Generator | None = None,
                     trajectory=None,
                     noiseless: bool = False):
    """One measurement window (fix) and the true state at its epoch.

    Fix ``k`` occupies global slots ``k*m_per_fix .. k*m_per_fix + M - 1``
    (consecutive, non-overlapping windows).  The epoch is the reception
    time indexed by ``cfg.epoch_slot_offset`` (the first measurement by
    default).  Returns (MeasurementBatch, FullParams).
    """
    traj = cfg.trajectory if trajectory is None else trajectory
    if not hasattr(traj, "state_at"):
        raise ConfigError("trajectory sampler must be realized first")
    noise = None
    if not noiseless:
        if rng is None:
            raise ConfigError("noisy synthesis needs a random stream")
        noise = rng.standard_normal(cfg.m_per_fix)[None]
    win = _synthesize(cfg, np.array([fix_index]), [traj], noise)
    # Validated as arrays, as in draw_trials; sigma came from the scenario.
    _require_finite(win.t, "times")
    _require_finite(win.rho, "pseudoranges")
    t_l = float(win.t_l[0])
    batch = _trusted(MeasurementBatch, bs_index=_freeze(win.bs_index[0]),
                     t=_freeze(win.t[0]), rho=_freeze(win.rho[0]),
                     sigma=_freeze(win.sigma[0]), t_l=t_l,
                     dt=_freeze(win.dt[0]))
    return batch, truth_state(traj, cfg.clock, t_l)


@dataclass(frozen=True)
class EstimatorSpec:
    """Which solver to run per trial and how to feed it.

    ``speed_deviation`` offsets the velocity handed to the known-velocity
    solver along the true heading (used for the deviated-velocity study).
    ``prior_std`` is the per-axis prior standard deviation for the MAP
    solver.  ``prior_centering`` picks how the prior relates to the truth:

    * ``"truth"``   -- prior mean equals the true velocity (fixed
      trajectories, e.g. the circular study);
    * ``"nominal"`` -- the trial's true velocity is drawn from the prior:
      mean at the sampled nominal velocity, per-axis std ``prior_std``.
      This is the setting under which the MAP estimator attains its CRLB.
    """

    kind: str
    speed_deviation: float = 0.0
    prior_std: float = 2.0
    prior_centering: str = "truth"

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ConfigError(f"unknown estimator kind {self.kind!r}")
        if self.prior_std <= 0:
            raise ConfigError("prior_std must be positive")
        if self.prior_centering not in ("truth", "nominal"):
            raise ConfigError("prior_centering must be 'truth' or 'nominal'")

    @property
    def nominal_prior_std(self) -> float | None:
        """The prior width this estimator's trial draws depend on: set only
        for ``pvd`` centred on the nominal velocity, whose truth is drawn
        from the prior; None for every estimator that shares the plain
        draws."""
        if self.kind == "pvd" and self.prior_centering == "nominal":
            return self.prior_std
        return None


def assumed_velocities(v: np.ndarray, deviation: float) -> np.ndarray:
    """True velocities ``v`` (T, N) offset by ``deviation`` m/s along their
    own headings (the x-axis for a stationary UD)."""
    if deviation == 0.0:
        return np.array(v)
    speed = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
    moving = speed > 0
    direction = np.zeros_like(v)
    direction[:, 0] = 1.0
    direction[moving] = v[moving] / speed[moving, None]
    return v + deviation * direction


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one Monte Carlo trial, with the inputs kept for the
    theory columns (the analysis is always evaluated at the truth)."""

    trial: int
    batch: MeasurementBatch
    truth: FullParams
    report: EstimateReport | None
    error: str | None
    v_assumed: np.ndarray | None = None
    prior: VelocityPrior | None = None

    @property
    def converged(self) -> bool:
        return self.report is not None and self.report.converged

    @property
    def position_error(self) -> np.ndarray | None:
        if self.report is None:
            return None
        return np.asarray(self.report.params.p) - np.asarray(self.truth.p)


class TrialDraws(NamedTuple):
    """The trials of one scenario after their random draws: the stacked
    windows, the true velocities at their epochs (T, N), one read-only
    MeasurementBatch and one FullParams truth per trial, and for a draw
    made for a nominal-prior pvd its prior width and the nominal
    velocities (the prior means).  Every array is validated and
    read-only, so any number of estimator cells can share one draw."""

    scenario: ScenarioConfig
    win: _Windows
    truth_v: np.ndarray
    batches: list
    truths: list
    nominal_std: float | None
    nominal_v: np.ndarray | None


def draw_trials(cfg: ScenarioConfig, n_trials: int | None = None,
                nominal_std: float | None = None) -> TrialDraws:
    """Draw, synthesize and validate ``n_trials`` (default
    ``cfg.n_trials``) trials of ``cfg``.

    Each trial makes its draws from its own stream, in the order of the
    module contract; then all trials are synthesized as one stack.  With
    ``nominal_std`` (see ``EstimatorSpec.nominal_prior_std``) each trial's
    true velocity is drawn from a prior of that width around its nominal
    one, which costs one more normal vector per trial.
    """
    n = cfg.n_trials if n_trials is None else int(n_trials)
    if n < 1:
        raise ConfigError("need at least one trial")
    n_dim, m = cfg.bs.n_dim, cfg.m_per_fix
    trajectories, nominal_v = [], []
    noise = np.empty((n, m))
    for k in range(n):
        rng = trial_rng(cfg.seed, k)
        traj = cfg.trajectory.realize(rng)
        if nominal_std is not None:
            # The realized velocity becomes the prior mean; the actual
            # truth is then drawn from that prior (one normal vector,
            # before the measurement noise draws).
            if not isinstance(traj, ConstantVelocity):
                raise ConfigError(
                    "nominal prior centering needs a constant-velocity "
                    "trajectory or sampler")
            nominal_v.append(traj.v)
            true_v = traj.v + nominal_std * rng.standard_normal(n_dim)
            traj = ConstantVelocity(p0=traj.p0, v=true_v, t_ref=traj.t_ref)
        trajectories.append(traj)
        noise[k] = rng.standard_normal(m)

    # Fixed trajectories advance through the TDMA schedule; per-trial
    # samplers restart the window at fix 0.
    sampler = not hasattr(cfg.trajectory, "state_at")
    win = _synthesize(cfg, np.zeros(n, dtype=int) if sampler else np.arange(n),
                      trajectories, noise)
    t_l = win.t_l.tolist()
    states = [traj.state_at(t) for traj, t in zip(trajectories, t_l)]
    truth_p = np.array([p for p, _ in states])
    truth_v = np.array([v for _, v in states])
    truth_b = cfg.clock.b0 + cfg.clock.d * (win.t_l - cfg.clock.t_ref)
    for arr, what in ((win.t, "times"), (win.rho, "pseudoranges"),
                      (truth_p, "position"), (truth_v, "velocity"),
                      (truth_b, "clock offset")):
        _require_finite(arr, what)
    nominal = None if nominal_std is None else np.array(nominal_v)
    for arr in (*win, truth_p, truth_v, nominal):
        if arr is not None:
            arr.setflags(write=False)
    d = float(cfg.clock.d)
    b = truth_b.tolist()
    # Rows of arrays validated as stacks; no per-trial re-validation.
    batches = [_trusted(MeasurementBatch, bs_index=win.bs_index[k],
                        t=win.t[k], rho=win.rho[k], sigma=win.sigma[k],
                        t_l=t_l[k], dt=win.dt[k]) for k in range(n)]
    truths = [_trusted(FullParams, p=truth_p[k], b=b[k], d=d, v=truth_v[k])
              for k in range(n)]
    return TrialDraws(cfg, win, truth_v, batches, truths, nominal_std,
                      nominal)


def solve_trials(spec: EstimatorSpec, draws: TrialDraws,
                 solver_cfg: SolverConfig = SolverConfig()
                 ) -> list[TrialRecord]:
    """Solve every trial of ``draws`` with the estimator ``spec`` as one
    stack (``solvers.solve_stack``) and record them in trial order.

    ``draws`` must come from ``draw_trials`` with ``spec``'s
    ``nominal_prior_std``.  A trial the single-window solve would reject
    is recorded with that exception's name in ``error`` and no report; it
    never aborts the others.
    """
    if draws.nominal_std != spec.nominal_prior_std:
        raise ConfigError("trials were drawn for a different velocity prior")
    bs, win = draws.scenario.bs, draws.win
    n, n_dim = len(draws.batches), bs.n_dim
    v_known = root = mean = covariance = None
    if spec.kind == "kvd":
        v_known = assumed_velocities(draws.truth_v, spec.speed_deviation)
    elif spec.kind == "d":
        v_known = np.zeros((n, n_dim))
    elif spec.kind == "pvd":
        mean = draws.truth_v if draws.nominal_v is None else draws.nominal_v
        covariance = _frozen_array(
            spec.prior_std * spec.prior_std * np.eye(n_dim))
        root = np.broadcast_to(
            np.linalg.cholesky(np.linalg.inv(covariance)).T, (n, n_dim, n_dim))
    try:
        system = WhitenedSystem(bs, win.bs_index, win.dt, win.rho, win.sigma,
                                v_known, root, mean)
    except SeqlocError as exc:  # no window of this length can be solved
        sol, failures = None, [exc] * n
    else:
        v0 = None
        if v_known is None:
            v0 = np.zeros((n, n_dim)) if mean is None else mean
        sol = solve_stack(system, initial_vectors(bs, win.bs_index, win.rho,
                                                  v0), solver_cfg)
        failures = sol.failures
    return _records(spec, draws, sol, failures, v_known, mean, covariance)


def run_monte_carlo(cfg: ScenarioConfig, spec: EstimatorSpec,
                    solver_cfg: SolverConfig = SolverConfig(),
                    n_trials: int | None = None) -> list[TrialRecord]:
    """Independent trials of one estimator over one scenario, in trial
    order: ``draw_trials`` then ``solve_trials``."""
    return solve_trials(
        spec, draw_trials(cfg, n_trials, spec.nominal_prior_std), solver_cfg)


def _records(spec, draws, sol, failures, v_known, mean,
             covariance) -> list[TrialRecord]:
    """One TrialRecord per trial over read-only rows of the stacked arrays,
    which were validated as stacks."""
    for arr in (v_known, mean):
        if arr is not None:
            arr.setflags(write=False)
    n = draws.scenario.bs.n_dim
    records = []
    for k, (batch, truth, failure) in enumerate(
            zip(draws.batches, draws.truths, failures)):
        report = None if failure is not None else window_report(sol, k, n)
        prior = (None if mean is None else
                 _trusted(VelocityPrior, mean=mean[k], covariance=covariance))
        records.append(TrialRecord(
            trial=k, batch=batch, truth=truth, report=report,
            error=None if failure is None else type(failure).__name__,
            v_assumed=v_known[k] if spec.kind == "kvd" else None,
            prior=prior))
    return records


def with_speed(cfg: ScenarioConfig, speed: float) -> ScenarioConfig:
    """Scenario copy with the sampler speed replaced."""
    if not isinstance(cfg.trajectory, RandomPlacement):
        raise ConfigError("speed sweeps need a RandomPlacement trajectory")
    return replace(cfg, trajectory=replace(cfg.trajectory, speed=float(speed)))


def with_sigma(cfg: ScenarioConfig, sigma: float) -> ScenarioConfig:
    """Scenario copy with the noise level replaced."""
    return replace(cfg, sigma=float(sigma))


def with_seed(cfg: ScenarioConfig, seed: int) -> ScenarioConfig:
    return replace(cfg, seed=int(seed))
