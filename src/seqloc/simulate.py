"""Scenario synthesis: trajectories, drifting clock, TDMA schedule, noisy
sequential pseudorange batches and the Monte Carlo driver.

Reproducibility contract: trial ``k`` of a scenario draws everything from
``numpy.random.default_rng([seed, k])`` (PCG64 seeded through
SeedSequence), so its inputs do not depend on which other trials run with
it; ``trial_seeds`` hashes the seeds of all a study's trials at once
into the same streams.  Within a trial the draw order is fixed:
trajectory placement draws first (when the trajectory is a random
sampler: two position uniforms, then the heading uniform), then the
true velocity (for a prior centred on the nominal one), then one
standard normal per measurement.

A Monte Carlo cell is columnar: ``draw_trials`` synthesizes a scenario's
``n_trials`` trials as ``(T, ...)`` arrays and ``solve_cells`` solves
(estimator, draw) cells into ``TrialCell`` columns, one stack per design
family, with the floating-point operations of the single-window path, so
each trial is bit-identical to solving it alone, and a trial whose
numbers overflow fails alone.  Indexing a cell builds one
``TrialRecord``.  Estimator cells can share a draw; ``draw_points``
draws a sweep point once for all its cells, a nominal-prior ``pvd``
cell reading the same streams further."""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DimensionMismatch
from .model import (
    BsConstellation,
    FullParams,
    MeasurementBatch,
    PriorRows,
    VelocityPrior,
    WhitenedSystem,
    WindowStack,
    _freeze,
    _require_finite,
    _require_sigma,
    _row_norms,
    _trusted_params,
    information_root,
    prior_variance,
)
# The solve_* names are unused here but stay bound in this namespace:
# perfbench/tracer.py patches them by module path.
from .solvers import (  # noqa: F401
    EstimateReport,
    SolverConfig,
    StackSolution,
    covariances,
    initial_vectors,
    solve_drift_only,
    solve_joint_velocity,
    solve_known_velocity,
    solve_prior_velocity,
    solve_stack,
)

RNG_ALGORITHM = "numpy-pcg64/seedsequence([seed, trial])"

ESTIMATOR_KINDS = ("kvd", "uvd", "pvd", "d")


def _integer(value, what: str, low: int = 0) -> int:
    """``value`` as an int of at least ``low`` (0 or 1): an int, a numpy
    integer or an integral float.  Anything else, a bool included, is a
    ConfigError naming ``what``."""
    number = value
    if isinstance(number, float) and number.is_integer():
        number = int(number)
    if (isinstance(number, bool) or not isinstance(number, (int, np.integer))
            or number < low):
        sign = "non-negative" if low == 0 else "positive"
        raise ConfigError(f"{what} must be a {sign} integer, got {value!r}")
    return int(number)


@dataclass(frozen=True)
class ConstantVelocity:
    """UD at ``p0`` at ``t_ref`` moving with constant velocity ``v``; with
    ``p0`` and ``v`` of shape (T, N), T such UDs at once."""

    p0: np.ndarray
    v: np.ndarray
    t_ref: float = 0.0

    def __post_init__(self):
        for name in ("p0", "v"):
            object.__setattr__(self, name, _freeze(
                np.array(getattr(self, name), dtype=float, ndmin=1)))

    def state_at(self, t: float):
        return self.p0 + self.v * (t - self.t_ref), self.v

    def states(self, times):
        """Positions and velocities (..., M, N) at the ``times`` (..., M),
        as ``state_at`` computes them; UD k moves along row k of the
        times."""
        v = self.v[..., None, :]
        p = self.p0[..., None, :] + v * (times - self.t_ref)[..., None]
        return p, np.broadcast_to(v, p.shape)

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
        center = np.array(self.center, dtype=float, ndmin=1)
        if center.size != 2:
            raise ConfigError("circular trajectories are 2-D")
        if not (0 < self.radius < math.inf and math.isfinite(self.phase)
                and math.isfinite(self.angular_rate)):
            raise ConfigError("radius must be positive and finite, rate "
                              "and phase finite")
        object.__setattr__(self, "center", _freeze(center))

    def state_at(self, t: float):
        return self.states(t)

    def states(self, times):
        """Positions and velocities (..., 2) at the float ``times`` (any
        shape), computed in scalar ``math``: numpy's cos and sin may
        differ in the last bit."""
        times = np.asarray(times, dtype=float)
        (cx, cy), radius = self.center.tolist(), self.radius
        rate, phase = self.angular_rate, self.phase
        speed = radius * rate
        rows = []
        try:
            for t in times.ravel().tolist():
                ang = rate * t + phase
                c, s = math.cos(ang), math.sin(ang)
                rows += (cx + radius * c, cy + radius * s, speed * -s,
                         speed * c)
        except ValueError as exc:  # math.cos(inf)
            raise DimensionMismatch("circular trajectory angle overflows") \
                from exc
        states = np.array(rows).reshape(times.shape + (2, 2))
        return states[..., 0, :], states[..., 1, :]

    def realize(self, rng) -> "Circular":
        return self


@dataclass(frozen=True)
class RandomPlacement:
    """Per-trial sampler: position uniform in a square around ``center``,
    heading uniform on the circle, fixed ``speed``.

    ``realize`` consumes three uniforms (x, y, heading) from the trial
    stream and yields a ConstantVelocity trajectory referenced to
    ``t_ref``: ``place`` of one trial.
    """

    center: np.ndarray
    half_side: float
    speed: float
    t_ref: float = 0.0

    def __post_init__(self):
        center = np.array(self.center, dtype=float, ndmin=1)
        if center.size != 2:
            raise ConfigError("random placement samples a 2-D square")
        # place() scales the uniforms by the range 2 * half_side.
        if not (all(map(math.isfinite, [*center.tolist(), self.t_ref,
                                        2.0 * self.half_side, self.speed]))
                and self.half_side > 0 and self.speed >= 0):
            raise ConfigError("random placement needs a finite center and "
                              "t_ref, half_side > 0 and speed >= 0, finite")
        object.__setattr__(self, "center", _freeze(center))

    def realize(self, rng) -> ConstantVelocity:
        placed = self.place(rng.random(3)[None])
        return ConstantVelocity(placed.p0[0], placed.v[0], self.t_ref)

    def place(self, uniforms: np.ndarray) -> ConstantVelocity:
        """T placements from the trials' uniforms (T, 3) in [0, 1), as
        ConstantVelocity rows (T, 2): ``rng.uniform(low, high)``'s
        ``low + (high - low) * random()``, headings in scalar ``math``."""
        h = self.half_side
        heading = (2.0 * math.pi) * uniforms[:, 2]
        return ConstantVelocity(
            p0=self.center + (-h + (h - -h) * uniforms[:, :2]),
            v=self.speed * np.array([[math.cos(a), math.sin(a)]
                                     for a in heading.tolist()]),
            t_ref=self.t_ref)


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


SPEED_OF_LIGHT_M_S = 299792458.0  # its only appearance in the package


def drift_from_ppm(ppm: float) -> float:
    """An oscillator drift of ``ppm`` parts per million in range-rate
    units (m/s), the ``d`` of ClockModel."""
    return ppm * 1e-6 * SPEED_OF_LIGHT_M_S


@dataclass(frozen=True)
class TdmaSchedule:
    """Round-robin slot plan: BS ``bs_order[k % len]`` transmits in global
    slot ``k`` at ``start_time + k * slot_interval``."""

    bs_order: tuple
    slot_interval: float = 0.01
    start_time: float = 0.0

    def __post_init__(self):
        try:
            if isinstance(self.bs_order, (str, bytes)):
                raise TypeError
            order = tuple(_integer(i, "a bs_order entry")
                          for i in self.bs_order)
        except TypeError as exc:
            raise ConfigError("bs_order must be a list of BS indices, got "
                              f"{self.bs_order!r}") from exc
        if len(order) < 1 or len(set(order)) != len(order):
            raise ConfigError("bs_order must list each BS exactly once")
        if not (0 < self.slot_interval < math.inf
                and math.isfinite(self.start_time)):
            raise ConfigError("slot_interval must be positive and finite, "
                              "start_time finite")
        object.__setattr__(self, "bs_order", order)

    def slots(self, first_slot, count: int):
        """The transmitting BSs and the times of the ``count`` slots from
        ``first_slot`` on (an int or an array of them, (T, 1))."""
        slots = first_slot + np.arange(count)
        order = np.array(self.bs_order, dtype=int)
        return (order[slots % order.size],
                self.start_time + slots * self.slot_interval)


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
        for name, low in (("m_per_fix", 1), ("n_trials", 1),
                          ("epoch_slot_offset", 0), ("seed", 0)):
            object.__setattr__(self, name,
                               _integer(getattr(self, name), name, low))
        if not self.epoch_slot_offset < self.m_per_fix:
            raise ConfigError("epoch_slot_offset must index into the window")
        try:
            sigma = np.array(self.sigma, dtype=float, ndmin=1)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"sigma must be a number or a list of "
                              f"numbers, got {self.sigma!r}") from exc
        if sigma.ndim != 1 or sigma.size not in (1, self.bs.n_bs):
            raise ConfigError("sigma must be scalar or one value per BS")
        _require_sigma(sigma, ConfigError)
        if sorted(self.schedule.bs_order) != list(range(self.bs.n_bs)):
            raise ConfigError("bs_order must be a permutation of all BSs")
        dims = {getattr(self.trajectory, name).size
                for name in ("p0", "v", "center")
                if hasattr(self.trajectory, name)}
        if dims != {self.bs.n_dim}:
            raise ConfigError(f"the trajectory must be {self.bs.n_dim}-D "
                              f"like the base stations")
        object.__setattr__(self, "sigma", _freeze(sigma))


def truth_state(trajectory, clock: ClockModel, t: float) -> FullParams:
    """Exact UD state (position, clock, instantaneous velocity) at ``t``."""
    p, v = trajectory.state_at(t)
    return FullParams(p=p, b=clock.offset_at(t), d=clock.d, v=v)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The per-trial random stream; see RNG_ALGORITHM."""
    return np.random.default_rng([int(seed), int(trial)])


# numpy's SeedSequence: a pool of 4 uint32 words, filled and mixed through
# hashmix calls whose multipliers follow a fixed sequence (INIT_A times
# powers of MULT_A), then read out through a second one (INIT_B, MULT_B).
_POOL = 4
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _powers(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**i`` mod 2**32 for i < count, as uint32."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


def _hash_a(count: int) -> np.ndarray:
    return _powers(0x43B0D7E5, 0x931E8875, count)


# hashmix call i xors with constant i and multiplies by constant i + 1.  The
# pool fill and the all-pairs mix make 16 calls; each entropy word beyond
# the pool makes 4 more, so this covers seeds below 2**(32 * 15);
# trial_seeds makes a longer one for larger seeds.
_HASH_A = _hash_a(64 + 1)


def _mix_rounds() -> np.ndarray:
    """The xor and multiply constants (2, 4, 4) of the all-pairs mix,
    which hashes pool word ``src`` once for each other word: row ``src``
    holds them in the columns of those words (its own column unused)."""
    rounds = np.zeros((2, _POOL, _POOL), dtype=np.uint32)
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        call = _POOL + 3 * src + np.arange(3)
        rounds[:, src, dst] = _HASH_A[call], _HASH_A[call + 1]
    return rounds


_MIX_ROUNDS = _mix_rounds()
_HASH_B = _powers(0x8B51F9DD, 0x58F38DED, 2 * _POOL + 1)


def _hashmix(value: np.ndarray, xor, mult) -> np.ndarray:
    """SeedSequence's hashmix over uint32 arrays (which wrap silently)."""
    value = value ^ xor
    value *= mult
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = x * _MIX_L - y * _MIX_R
    mixed ^= mixed >> 16
    return mixed


def trial_seeds(seed, n: int, first: int = 0) -> np.ndarray:
    """The PCG64 seed words (n, 4) uint64 of trials ``first`` to
    ``first + n - 1``: the row of trial ``k`` is
    ``SeedSequence([seed, k]).generate_state(4, np.uint64)``, the state
    ``trial_rng(seed, k)`` starts from, hashed for all trials at once.
    A list or tuple of seeds gives rows (len(seed), n, 4) in one pass for
    the seeds of up to three 32-bit words (with the trial index they fit
    SeedSequence's pool, whose fill pads them with zeros) and one per
    longer width.  A study hashes once, then reads each sweep point's
    streams in one generator pass (``draw_points``)."""
    if first + n > 2**32:
        raise ConfigError("at most 2**32 trials: a trial index is one "
                          "32-bit word of its seed")
    one = isinstance(seed, (int, np.integer))
    index = np.arange(first, first + n, dtype=np.uint32)
    widths: dict = {}  # entropy width -> (row, little-endian seed words)
    for row, value in enumerate(map(int, [seed] if one else seed)):
        words = [value >> shift & 0xFFFFFFFF
                 for shift in range(0, max(value.bit_length(), 1), 32)]
        widths.setdefault(max(len(words) + 1, _POOL), []).append((row, words))
    out = np.empty((1 if one else len(seed), n, 4), dtype=np.uint64)
    for width, members in widths.items():
        entropy = np.zeros((len(members), n, width), dtype=np.uint32)
        for part, (_, words) in zip(entropy, members):
            part[:, :len(words)], part[:, len(words)] = words, index
        out[[row for row, _ in members]] = _seed_state(
            entropy.reshape(-1, width)).reshape(len(members), n, 4)
    return out[0] if one else out


def _seed_state(entropy: np.ndarray) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of the entropy rows (R, E >= 4)."""
    calls = 4 * entropy.shape[1]
    consts = _HASH_A if calls < len(_HASH_A) else _hash_a(calls + 1)
    pool = _hashmix(entropy[:, :_POOL], consts[:_POOL], consts[1:_POOL + 1])
    # Mix every word into every other, one source word at a time.
    for src in range(_POOL):
        hashed = _hashmix(pool[:, src, None], _MIX_ROUNDS[0, src],
                          _MIX_ROUNDS[1, src])
        mixed = _mix(pool, hashed)
        mixed[:, src] = pool[:, src]
        pool = mixed
    # Entropy beyond the pool is mixed into every word.
    for src in range(_POOL, entropy.shape[1]):
        call = 4 * src
        pool = _mix(pool, _hashmix(entropy[:, src, None],
                                   consts[call:call + _POOL],
                                   consts[call + 1:call + _POOL + 1]))
    # generate_state: 8 words cycling over the pool, paired little-endian.
    state = _hashmix(np.concatenate([pool, pool], axis=1), _HASH_B[:-1],
                     _HASH_B[1:])
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seed_words() -> type:
    """The seed sequence that stands for one row of ``trial_seeds``: PCG64
    reads its seed as ``generate_state(4, np.uint64)`` and gets the row.
    Defined on first use, so that importing seqloc does not import
    numpy.random (numpy loads it on first access)."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


@np.errstate(over="ignore", invalid="ignore")
def _synthesize(cfg: ScenarioConfig, fix_index: np.ndarray, trajectory,
                noise: np.ndarray | None):
    """Windows of fixes ``fix_index`` (T,) along ``trajectory`` (its
    ``states``), with the standard-normal draws ``noise`` (T, M) scaled by
    each measurement's sigma (noiseless when None), and their true states
    ``[p, b, d, v]`` (T, 2N+2) at the epochs: a WindowStack and an array,
    validated finite and read-only.  A value that overflows fails with
    DimensionMismatch instead of a warning."""
    m, e, clock = cfg.m_per_fix, cfg.epoch_slot_offset, cfg.clock
    bs_idx, times = cfg.schedule.slots((fix_index * m)[:, None], m)
    # One noise level for every BS wraps to index 0.
    sigma = cfg.sigma.take(bs_idx, mode="wrap")
    _require_finite(times, "times")
    dt = times - times[:, e, None]
    _require_finite(dt, "times from the epoch")
    positions, velocities = trajectory.states(times)
    offsets = clock.offset_at(times)
    rho = _row_norms(cfg.bs.positions.take(bs_idx, 0) - positions) + offsets
    if noise is not None:
        rho = rho + noise * sigma
    _require_finite(rho, "pseudoranges")
    # The true state at the epoch is the window's epoch column.
    truth = np.concatenate([positions[:, e], offsets[:, e, None],
                            np.full((len(times), 1), clock.d),
                            velocities[:, e]], axis=1)
    _require_finite(truth, "velocity")
    win = WindowStack(bs_idx, times, rho, sigma, times[:, e], dt)
    for arr in (*win, truth):
        arr.setflags(write=False)
    return win, truth


def synthesize_batch(cfg: ScenarioConfig, fix_index: int,
                     rng: np.random.Generator | None = None,
                     trajectory=None):
    """One measurement window (fix) and the true state at its epoch.

    Fix ``k`` occupies global slots ``k*m_per_fix .. k*m_per_fix + M - 1``
    (consecutive, non-overlapping windows), so ``k`` is a non-negative
    integer whose last slot fits in int64.  The epoch is the reception
    time indexed by ``cfg.epoch_slot_offset`` (the first measurement by
    default).  The noise is drawn from ``rng``; without one the window is
    noiseless.  Returns (MeasurementBatch, FullParams).
    """
    fix_index = _integer(fix_index, "fix index")
    if (fix_index + 1) * cfg.m_per_fix > 2**63:  # slots are int64
        raise ConfigError(f"fix index {fix_index} is too large: its slots "
                          "overflow a 64-bit integer")
    traj = cfg.trajectory if trajectory is None else trajectory
    if not hasattr(traj, "states"):
        raise ConfigError("trajectory sampler must be realized first")
    noise = None if rng is None else rng.standard_normal(cfg.m_per_fix)[None]
    win, truth = _synthesize(cfg, np.array([fix_index]), traj, noise)
    return win.batch(0), _trusted_params(truth[0], cfg.bs.n_dim)


PRIOR_STD = 2.0  # default per-axis pvd velocity prior std (m/s)


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
    prior_std: float = PRIOR_STD
    prior_centering: str = "truth"

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ConfigError(f"unknown estimator kind {self.kind!r}")
        prior_variance(self.prior_std, ConfigError)
        if self.prior_centering not in ("truth", "nominal"):
            raise ConfigError("prior_centering must be 'truth' or 'nominal'")

    @property
    def nominal_prior_std(self) -> float | None:
        """The prior width this estimator's trial draws depend on: set only
        for ``pvd`` centred on the nominal velocity, whose truth is drawn
        from the prior; None for the estimators that share plain draws."""
        if self.kind == "pvd" and self.prior_centering == "nominal":
            return self.prior_std
        return None


@np.errstate(over="ignore")
def assumed_velocities(v: np.ndarray, deviation: float) -> np.ndarray:
    """True velocities ``v`` (T, N) offset by ``deviation`` m/s along their
    own headings (the x-axis for a stationary UD).  An offset velocity
    beyond float64 is inf, which fails its trial in the solve."""
    if deviation == 0.0:
        return np.array(v)
    speed = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
    moving = speed > 0
    direction = np.zeros_like(v)
    direction[:, 0] = 1.0
    direction[moving] = v[moving] / speed[moving, None]
    # Above about 1.3e154 m/s the square overflows: scale those rows down.
    fast = speed == np.inf
    if fast.any():
        u = v[fast] / np.abs(v[fast]).max(axis=1, keepdims=True)
        direction[fast] = u / _row_norms(u)[:, None]
    return v + deviation * direction


class TrialRecord(NamedTuple):
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
    windows, the true states ``[p, b, d, v]`` at their epochs (T, 2N+2),
    and for a draw made for a nominal-prior pvd its prior width and the
    nominal velocities (the prior means).  Every array is validated and
    read-only, so any number of estimator cells can share one draw."""

    scenario: ScenarioConfig
    win: WindowStack
    truth: np.ndarray
    nominal_std: float | None
    nominal_v: np.ndarray | None


def draw_trials(cfg: ScenarioConfig,
                nominal_std: float | None = None) -> TrialDraws:
    """Draw, synthesize and validate the ``cfg.n_trials`` trials of ``cfg``
    as one stack: the one-cell case of ``draw_points``.  With
    ``nominal_std`` (see ``EstimatorSpec.nominal_prior_std``) each trial's
    true velocity is drawn from a prior of that width around its nominal
    one, which costs one more normal vector per trial."""
    return draw_points([cfg], [[nominal_std]])[0][nominal_std]


def draw_points(cfgs: list, widths: list) -> list:
    """Per scenario of ``cfgs`` (of one trial count), a dict from each nominal
    prior width of its ``widths`` entry (None: the plain draw) to
    ``draw_trials(cfg, width)``, from one ``trial_seeds`` call for all and
    one generator pass per scenario, which places its trajectories once.
    A trial reads ``random(3)`` for a sampler, then ``standard_normal(N +
    M)`` when a width is set, else ``standard_normal(M)``: the plain
    draw's noise is the first M normals, a nominal draw's velocity the
    first N and its noise the next M, the streams each reads alone."""
    n = cfgs[0].n_trials
    if any(cfg.n_trials != n for cfg in cfgs):
        raise ConfigError("the scenarios of one draw must share a trial count")
    seeds = trial_seeds([cfg.seed for cfg in cfgs], n)
    generator, pcg64 = np.random.Generator, np.random.PCG64
    seed_words = _seed_words()
    points = []
    for cfg, stds, rows in zip(cfgs, widths, seeds):
        traj, n_dim, m = cfg.trajectory, cfg.bs.n_dim, cfg.m_per_fix
        sampler = isinstance(traj, RandomPlacement)
        stds = dict.fromkeys(stds)
        nominal = any(std is not None for std in stds)
        if nominal and not (sampler or isinstance(traj, ConstantVelocity)):
            raise ConfigError("nominal prior centering needs a "
                              "constant-velocity trajectory or sampler")
        uniforms = np.empty((n, 3))
        normals = np.empty((n, m + n_dim * nominal))
        for k, words in enumerate(rows):
            rng = generator(pcg64(seed_words(words)))
            if sampler:
                rng.random(out=uniforms[k])
            rng.standard_normal(out=normals[k])
        # Fixed trajectories advance through the TDMA schedule; per-trial
        # samplers restart the window at fix 0.
        fixes = np.zeros(n, dtype=int) if sampler else np.arange(n)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = traj.place(uniforms) if sampler else traj
            mean = np.broadcast_to(traj.v, (n, n_dim)) if nominal else None
            for std in stds:
                # A nominal draw's truth is drawn from the prior around
                # the sampled velocity, which becomes the prior mean.
                skip = 0 if std is None else n_dim
                truth = traj if std is None else ConstantVelocity(
                    traj.p0, traj.v + std * normals[:, :n_dim], traj.t_ref)
                stds[std] = TrialDraws(cfg, *_synthesize(
                    cfg, fixes, truth, normals[:, skip:skip + m]), std,
                    None if std is None else mean)
        points.append(stds)
    return points


class TrialCell(Sequence):
    """The trials of one estimator over one draw as read-only columns:
    final parameter vectors ``theta`` (T, P), iteration counts,
    convergence flags, last step norms, per trial None or the name of the
    exception its single-window solve raises, the kvd or d assumed
    velocities (T, N) and the pvd PriorRows, or None; and covariances
    (T, P, P), formed when read.  Indexing builds one TrialRecord."""

    __slots__ = ("spec", "draws", "theta", "iterations", "converged",
                 "step_norm", "errors", "v_assumed", "prior", "_covariance")

    def __init__(self, spec: EstimatorSpec, draws: TrialDraws,
                 sol: StackSolution, v_assumed=None,
                 prior: PriorRows | None = None):
        for arr in sol[:4]:
            arr.setflags(write=False)
        self.spec, self.draws = spec, draws
        self.theta, self.iterations, self.converged, self.step_norm = sol[:4]
        self.errors = tuple(None if f is None else type(f).__name__
                            for f in sol.failures)
        self.v_assumed, self.prior = v_assumed, prior
        self._covariance = None

    @property
    def covariance(self) -> np.ndarray:
        """The single-window solves' covariances, bit for bit (NaN for a
        failed trial), from one SVD of the final designs on the first read."""
        if self._covariance is None:
            with np.errstate(all="ignore"):
                self._covariance = covariances(WhitenedSystem(
                    self.draws.scenario.bs, self.draws.win, self.v_assumed,
                    self.prior), self.theta,
                    np.flatnonzero([e is None for e in self.errors]))
        return self._covariance

    def __len__(self) -> int:
        return len(self.theta)

    def __getitem__(self, k):
        rows = range(len(self))[k]
        if isinstance(rows, range):
            return [self._record(i) for i in rows]
        return self._record(rows)

    def _record(self, k: int) -> TrialRecord:
        n = self.draws.scenario.bs.n_dim
        error = self.errors[k]
        prior = (None if self.prior is None else VelocityPrior.isotropic(
            self.prior.mean[k], self.spec.prior_std))
        # A trial that did not fail has finite params: not validated again.
        report = None if error is not None else EstimateReport(
            _trusted_params(self.theta[k], n), self.iterations.item(k),
            self.converged.item(k), self.covariance[k],
            self.step_norm.item(k))
        return TrialRecord(
            trial=k, batch=self.draws.win.batch(k),
            truth=_trusted_params(self.draws.truth[k], n), report=report,
            error=error,
            v_assumed=None if self.v_assumed is None else self.v_assumed[k],
            prior=prior)

    def position_errors(self) -> np.ndarray:
        """Position errors (G, N) of the G converged trials, in order."""
        n = self.draws.scenario.bs.n_dim
        return (self.theta[self.converged, :n]
                - self.draws.truth[self.converged, :n])


def _cell_inputs(spec: EstimatorSpec, draws: TrialDraws):
    """The known velocities (T, N) and the PriorRows that the solve of
    ``draws`` with ``spec`` takes, each None when it takes none."""
    if draws.nominal_std != spec.nominal_prior_std:
        raise ConfigError("trials were drawn for a different velocity prior")
    n, n_dim = len(draws.truth), draws.scenario.bs.n_dim
    truth_v = draws.truth[:, n_dim + 2:]
    if spec.kind in ("kvd", "d"):  # the drift-only baseline assumes zero
        return _freeze(assumed_velocities(truth_v, spec.speed_deviation)
                       if spec.kind == "kvd" else np.zeros((n, n_dim))), None
    if spec.kind == "uvd":
        return None, None
    root = information_root(spec.prior_std * spec.prior_std * np.eye(n_dim))
    return None, PriorRows(np.broadcast_to(root, (n, n_dim, n_dim)), truth_v
                           if draws.nominal_v is None else draws.nominal_v)


def _joined(parts: list):
    """The arrays, or tuples of arrays, ``parts`` joined along their trial
    axis: the part itself when there is one, None when they are None."""
    if len(parts) > 1 and isinstance(parts[0], tuple):
        return type(parts[0])(*map(_joined, zip(*parts)))
    return (parts[0] if len(parts) == 1 or parts[0] is None
            else np.concatenate(parts))


@np.errstate(all="ignore")
def solve_cells(cells: list,
                solver_cfg: SolverConfig = SolverConfig()) -> list:
    """One TrialCell per (EstimatorSpec, TrialDraws) of ``cells``, each
    draw made by ``draw_trials`` with its spec's ``nominal_prior_std``.
    The cells of one design family (known velocity: kvd and d; joint:
    uvd; prior rows: pvd), constellation and window length run as one
    ``solve_stack`` over their joined windows, keeping each trial's
    floating-point operations.  A trial's failure is its own: a trial the
    single-window solve would reject keeps that exception's name in
    ``errors``, and the other trials of its family keep their outcomes.
    No harness output reads a covariance, so the solve forms none."""
    inputs = [_cell_inputs(spec, draws) for spec, draws in cells]
    families: dict = {}
    for i, ((_, draws), (v, prior)) in enumerate(zip(cells, inputs)):
        families.setdefault((v is None, prior is None, id(draws.scenario.bs),
                             draws.win.rho.shape[1]), []).append(i)
    solved = [None] * len(cells)
    for members in families.values():
        draws = [cells[i][1] for i in members]
        bs, win = draws[0].scenario.bs, _joined([d.win for d in draws])
        v_known, prior = map(_joined, zip(*(inputs[i] for i in members)))
        system = WhitenedSystem(bs, win, v_known, prior)
        sol = solve_stack(system, initial_vectors(
            bs, win.bs_index, win.rho, system.v_start), solver_cfg)
        ends = np.cumsum([len(d.truth) for d in draws]).tolist()
        for i, start, end in zip(members, [0] + ends, ends):
            solved[i] = TrialCell(*cells[i], StackSolution(*(
                column[start:end] for column in sol)), *inputs[i])
    return solved


def solve_trials(spec: EstimatorSpec, draws: TrialDraws,
                 solver_cfg: SolverConfig = SolverConfig()) -> TrialCell:
    """Solve every trial of ``draws`` with the estimator ``spec`` as one
    stack: the one-cell case of ``solve_cells``."""
    return solve_cells([(spec, draws)], solver_cfg)[0]


def run_monte_carlo(cfg: ScenarioConfig, spec: EstimatorSpec,
                    solver_cfg: SolverConfig = SolverConfig()) -> TrialCell:
    """The ``cfg.n_trials`` independent trials of one estimator over one
    scenario, in trial order: ``draw_trials`` then ``solve_trials``."""
    return solve_trials(spec, draw_trials(cfg, spec.nominal_prior_std),
                        solver_cfg)
