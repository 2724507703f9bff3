"""The single-window trajectory API and the theory entry points share one
implementation with the columnar Monte Carlo draw.

``RandomPlacement.realize`` is ``place`` of one trial and must still make
``rng.uniform``'s numbers; ``Circular.state_at`` is ``states`` at one time
and must still be the textbook formula; and the ``*_stack`` theory gives
a draw's arrays the budgets of the stacks built from its trial
records."""

import math

import numpy as np
import pytest

from seqloc import (
    Circular,
    EstimatorSpec,
    RandomPlacement,
    VelocityPrior,
    analysis,
    trial_rng,
)
from seqloc.experiments import default_scenario
from seqloc.model import WindowStack, prior_rows
from seqloc.simulate import draw_trials, solve_cells


@pytest.mark.parametrize("seed", [0, 7, 20260808])
def test_realize_makes_rng_uniform_numbers(seed):
    sampler = RandomPlacement(center=[15, 15], half_side=5.0, speed=3.0,
                              t_ref=0.25)
    for k in range(20):
        rng = trial_rng(seed, k)
        offset = rng.uniform(-5.0, 5.0, size=2)
        heading = rng.uniform(0.0, 2.0 * math.pi)
        after = rng.standard_normal()
        rng = trial_rng(seed, k)
        traj = sampler.realize(rng)
        assert np.array_equal(traj.p0, sampler.center + offset)
        assert np.array_equal(traj.v, 3.0 * np.array([math.cos(heading),
                                                      math.sin(heading)]))
        assert traj.t_ref == 0.25
        # realize leaves the stream where the uniforms left it.
        assert rng.standard_normal() == after


def test_circular_state_at_is_the_textbook_formula():
    traj = Circular(center=[50, 50], radius=30.0, angular_rate=1 / 3,
                    phase=0.4)
    for t in np.linspace(0.0, 360.0, 97).tolist():
        ang = traj.angular_rate * t + traj.phase
        p, v = traj.state_at(t)
        assert np.array_equal(p, traj.center + traj.radius * np.array(
            [math.cos(ang), math.sin(ang)]))
        assert np.array_equal(v, traj.radius * traj.angular_rate * np.array(
            [-math.sin(ang), math.cos(ang)]))


@pytest.fixture(scope="module")
def pvd_cell():
    cfg = default_scenario("speed-compare", seed=11, trials=2)
    spec = EstimatorSpec("pvd", prior_std=0.7, prior_centering="nominal")
    return cfg, solve_cells([(spec, draw_trials(cfg, nominal_std=0.7))])[0]


def _budgets_equal(a, b):
    return (np.array_equal(a.bias, b.bias)
            and np.array_equal(a.variance, b.variance)
            and np.array_equal(a.rmse, b.rmse) and a.failures == b.failures)


def test_draw_arrays_give_the_budgets_of_the_records(pvd_cell):
    """Two windows: the draw's WindowStack, truths and PriorRows give the
    budgets of the stacks built from the cell's TrialRecords (their
    MeasurementBatch, FullParams and VelocityPrior), bit for bit."""
    cfg, cell = pvd_cell
    records = list(cell)
    priors = [r.prior for r in records]
    assert len(priors) == 2 and all(isinstance(p, VelocityPrior)
                                    for p in priors)
    stack, truth = cell.draws.win, cell.draws.truth
    assert isinstance(stack, WindowStack)
    batches = WindowStack.of([r.batch for r in records])
    truths = np.stack([r.truth.as_vector() for r in records])
    assert truths.tobytes() == truth.tobytes()
    from_records = analysis.theoretical_rmse_stack(
        "pvd", batches, cfg.bs, truths, prior_rows(priors, cfg.bs.n_dim))
    assert from_records.failures == [None, None]
    assert _budgets_equal(
        analysis.theoretical_rmse_stack("pvd", stack, cfg.bs, truth,
                                        cell.prior), from_records)
    v = truth[:, cfg.bs.n_dim + 2:] + 0.5
    assert _budgets_equal(
        analysis.bias_deviated_velocity_stack(stack, cfg.bs, truth, v),
        analysis.bias_deviated_velocity_stack(batches, cfg.bs, truths, v))
