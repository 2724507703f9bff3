"""Shared fixtures: the canonical four-BS square geometry used throughout."""

import numpy as np
import pytest

from seqloc import (
    BsConstellation,
    ClockModel,
    ConstantVelocity,
    FullParams,
    MeasurementBatch,
    RandomPlacement,
    ScenarioConfig,
    TdmaSchedule,
)

DRIFT_MPS = 1498.96229  # 5 ppm oscillator in range-rate units


@pytest.fixture
def bs_square():
    return BsConstellation([[0, 0], [30, 0], [30, 30], [0, 30]])


@pytest.fixture
def clock():
    return ClockModel(b0=30.0, d=DRIFT_MPS)


@pytest.fixture
def schedule():
    return TdmaSchedule(bs_order=(0, 1, 2, 3), slot_interval=0.01)


def make_batch(bs_index, times, t_l=0.0, rho=None, sigma=0.1):
    """Batch with placeholder pseudoranges unless given."""
    bs_index = np.asarray(bs_index, dtype=int)
    times = np.asarray(times, dtype=float)
    if rho is None:
        rho = np.zeros(times.size)
    return MeasurementBatch(bs_index=bs_index, t=times, rho=rho,
                            sigma=np.full(times.size, sigma), t_l=t_l)


def canonical_batch(bs, truth, m=8, sigma=0.1, slot=0.01):
    """Noise-free batch synthesized directly from the forward model."""
    times = slot * np.arange(m)
    bs_idx = np.arange(m) % bs.n_bs
    pos = truth.p[None, :] + times[:, None] * truth.v[None, :]
    ranges = np.linalg.norm(bs.positions[bs_idx] - pos, axis=1)
    rho = ranges + truth.b + truth.d * times
    return make_batch(bs_idx, times, t_l=0.0, rho=rho, sigma=sigma)


def stack_covariance(system, sol):
    """The covariances (T, P, P) of ``solve_stack``'s solution ``sol`` of
    ``system``, NaN for a failed window: formed as a Monte Carlo cell forms
    them when read (``TrialCell.covariance``), since the stack forms none."""
    from seqloc.solvers import covariances

    with np.errstate(all="ignore"):
        return covariances(system, sol.theta, np.flatnonzero(
            [f is None for f in sol.failures]))


@pytest.fixture
def moving_truth():
    return FullParams(p=[15.0, 15.0], b=30.0, d=DRIFT_MPS, v=[5.0, 0.0])


@pytest.fixture
def stationary_truth():
    return FullParams(p=[15.0, 15.0], b=30.0, d=DRIFT_MPS, v=[0.0, 0.0])


@pytest.fixture
def moving_batch(bs_square, moving_truth):
    return canonical_batch(bs_square, moving_truth)


@pytest.fixture
def scenario(bs_square, clock, schedule):
    return ScenarioConfig(
        bs=bs_square,
        trajectory=RandomPlacement(center=[15, 15], half_side=5.0, speed=5.0),
        clock=clock, schedule=schedule, sigma=0.1, seed=1234, n_trials=200)


@pytest.fixture
def fixed_scenario(bs_square, clock, schedule):
    return ScenarioConfig(
        bs=bs_square,
        trajectory=ConstantVelocity(p0=[15, 15], v=[5, 0]),
        clock=clock, schedule=schedule, sigma=0.1, seed=77, n_trials=50)


def random_geometry(rng, n_bs=4, max_speed=20.0, min_range=0.0):
    """Random full-rank-ish constellation/truth draw inside the 30 m box."""
    while True:
        positions = rng.uniform(0.0, 30.0, (n_bs, 2))
        p = rng.uniform(10.0, 20.0, 2)
        if min_range and np.min(np.linalg.norm(positions - p, axis=1)) < min_range:
            continue
        heading = rng.uniform(0.0, 2.0 * np.pi)
        speed = rng.uniform(0.0, max_speed)
        v = speed * np.array([np.cos(heading), np.sin(heading)])
        truth = FullParams(p=p, b=30.0, d=DRIFT_MPS, v=v)
        return BsConstellation(positions), truth
