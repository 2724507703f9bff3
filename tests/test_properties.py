"""Property tests: noise-free windows over random constellations and truths
are recovered by every estimator whose model holds exactly."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from seqloc import (
    BsConstellation,
    ClockModel,
    ConstantVelocity,
    ScenarioConfig,
    TdmaSchedule,
    VelocityPrior,
    solve_drift_only,
    solve_joint_velocity,
    solve_known_velocity,
    solve_prior_velocity,
    synthesize_batch,
)

RECOVERY_M = 1e-6

unit = st.floats(min_value=-1.0, max_value=1.0)


@st.composite
def scenarios(draw, stationary=False):
    """A noise-free scenario: 4-6 BSs jittered around a circle (a convex
    polygon, so no three are collinear and none coincide), visited in a
    random round-robin order, and a UD inside it with a random clock and,
    unless ``stationary``, a random velocity up to 20 m/s."""
    n_bs = draw(st.integers(min_value=4, max_value=6))
    radius = draw(st.floats(min_value=30.0, max_value=100.0))
    step = 2.0 * math.pi / n_bs
    angles = [k * step + 0.3 * step * draw(unit) for k in range(n_bs)]
    radii = [radius * (1.0 + 0.2 * draw(unit)) for _ in range(n_bs)]
    bs = BsConstellation([[r * math.cos(a), r * math.sin(a)]
                          for r, a in zip(radii, angles)])
    p0 = [0.4 * radius * draw(unit), 0.4 * radius * draw(unit)]
    speed = 0.0 if stationary else draw(st.floats(0.0, 20.0))
    heading = draw(st.floats(0.0, 2.0 * math.pi))
    v = [speed * math.cos(heading), speed * math.sin(heading)]
    clock = ClockModel(b0=draw(st.floats(-1e3, 1e3)),
                       d=draw(st.floats(-2e3, 2e3)))
    order = draw(st.permutations(range(n_bs)))
    return ScenarioConfig(
        bs=bs, trajectory=ConstantVelocity(p0=p0, v=v), clock=clock,
        schedule=TdmaSchedule(bs_order=tuple(order), slot_interval=0.01),
        m_per_fix=8, sigma=0.1, n_trials=1)


def _position_error(report, truth):
    return float(np.linalg.norm(np.asarray(report.params.p) - truth.p))


PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


@PROPERTY
@given(scenarios())
def test_moving_ud_recovered_by_kvd_uvd_pvd(cfg):
    batch, truth = synthesize_batch(cfg, 0, noiseless=True)
    reports = {
        "kvd": solve_known_velocity(batch, cfg.bs, truth.v),
        "uvd": solve_joint_velocity(batch, cfg.bs),
        "pvd": solve_prior_velocity(batch, cfg.bs,
                                    VelocityPrior.isotropic(truth.v, 2.0)),
    }
    for kind, report in reports.items():
        assert report.converged, kind
        assert _position_error(report, truth) < RECOVERY_M, kind


@PROPERTY
@given(scenarios(stationary=True))
def test_stationary_ud_recovered_by_drift_only(cfg):
    batch, truth = synthesize_batch(cfg, 0, noiseless=True)
    report = solve_drift_only(batch, cfg.bs)
    assert report.converged
    assert _position_error(report, truth) < RECOVERY_M
