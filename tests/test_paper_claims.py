"""The paper's robustness claim: LSPM-KVD has the smallest error when it is
given the true velocity, while LSPM-PVD and LSPM-UVD are more robust when
the prior knowledge of the UD velocity is limited.

On the velocity-deviation study's default draw (a 5 m/s UD at sigma
0.1 m, 1000 trials, the first grid point's seed), kvd is fed the true
velocity offset along its heading by the study's deviations; pvd has a
nominal prior of width ``PRIOR_STD`` and uvd estimates the velocity.  The
theory must rank kvd < pvd < uvd at the true velocity and let kvd's RMSE
rise past pvd's and uvd's between 1 and 5 m/s; the Monte Carlo must
agree with it."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from seqloc import EstimatorSpec, analysis, default_scenario, default_spec
from seqloc.experiments import empirical_rmse, point_seed, rmse_standard_error
from seqloc.simulate import PRIOR_STD, draw_trials, solve_cells

STUDY = "velocity-deviation"
SEPARATION_SE = 4.0  # empirical order is checked beyond this many SEs
THEORY_REL_TOL = 0.10  # the acceptance suite's empirical-vs-theory band
TIME_LIMIT_S = 5.0


def _theory_rmse(budgets, cell) -> float:
    """The root mean square of the per-trial theoretical RMSEs over the
    converged trials whose theory is defined, as the study reports it."""
    ok = [i for i in np.flatnonzero(cell.converged).tolist()
          if budgets.failures[i] is None]
    return math.sqrt(float(np.mean(budgets.rmse[ok] ** 2)))


@pytest.fixture(scope="module")
def study():
    start = time.perf_counter()
    cfg = default_scenario(STUDY)
    cfg = replace(cfg, seed=point_seed(cfg.seed, 0))
    draws = draw_trials(cfg)
    win, truth, bs = draws.win, draws.truth, cfg.bs
    n = bs.n_dim
    true_v = truth[:, n + 2:]
    heading = true_v / np.linalg.norm(true_v, axis=1)[:, None]
    projectors = analysis.kvd_projectors(win, bs, truth)

    cells, theory = {}, {}
    for deviation in default_spec(STUDY).grid:
        cell = solve_cells(
            [(EstimatorSpec("kvd", speed_deviation=deviation), draws)])[0]
        assert np.allclose(cell.v_assumed, true_v + deviation * heading)
        cells["kvd", deviation] = cell
        theory["kvd", deviation] = _theory_rmse(
            analysis.bias_deviated_velocity_stack(
                win, bs, truth, cell.v_assumed, projectors), cell)
    uvd = cells["uvd"] = solve_cells([(EstimatorSpec("uvd"), draws)])[0]
    theory["uvd"] = _theory_rmse(
        analysis.theoretical_rmse_stack("uvd", win, bs, truth), uvd)
    pvd_spec = EstimatorSpec("pvd", prior_std=PRIOR_STD,
                             prior_centering="nominal")
    pvd_draws = draw_trials(cfg, nominal_std=pvd_spec.nominal_prior_std)
    pvd = cells["pvd"] = solve_cells([(pvd_spec, pvd_draws)])[0]
    theory["pvd"] = _theory_rmse(analysis.theoretical_rmse_stack(
        "pvd", pvd_draws.win, bs, pvd_draws.truth, priors=pvd.prior), pvd)

    def kvd_theory(deviation):
        """kvd's theoretical RMSE at any deviation, on the same trials."""
        budgets = analysis.bias_deviated_velocity_stack(
            win, bs, truth, true_v + deviation * heading, projectors)
        return _theory_rmse(budgets, cells["kvd", 0.0])

    return cells, theory, kvd_theory, time.perf_counter() - start


def _crossover(kvd_theory, level, low=0.0, high=10.0) -> float:
    """The deviation at which kvd's theoretical RMSE reaches ``level``
    (bisection; kvd's RMSE rises with the deviation)."""
    for _ in range(40):
        mid = 0.5 * (low + high)
        low, high = (mid, high) if kvd_theory(mid) < level else (low, mid)
    return 0.5 * (low + high)


def test_theory_ranks_kvd_first_and_crosses_over(study):
    _, theory, kvd_theory, _ = study
    grid = default_spec(STUDY).grid
    kvd = [theory["kvd", d] for d in grid]
    assert all(a < b for a, b in zip(kvd, kvd[1:])), kvd
    assert theory["kvd", 0.0] < theory["pvd"] < theory["uvd"]
    pvd_cross = _crossover(kvd_theory, theory["pvd"])
    uvd_cross = _crossover(kvd_theory, theory["uvd"])
    assert 1.0 < pvd_cross < uvd_cross < 5.0, (pvd_cross, uvd_cross)


def test_monte_carlo_agrees_with_theory(study):
    cells, theory, _, elapsed = study
    errors = {key: cell.position_errors() for key, cell in cells.items()}
    empirical = {key: empirical_rmse(e).rmse for key, e in errors.items()}
    se = {key: rmse_standard_error(e) for key, e in errors.items()}
    for key in cells:
        assert abs(empirical[key] / theory[key] - 1.0) < THEORY_REL_TOL, key
    pairs = [("pvd", "uvd")] + [(("kvd", d), other)
                                for d in default_spec(STUDY).grid
                                for other in ("pvd", "uvd")]
    checked = 0
    for a, b in pairs:
        gap = theory[a] - theory[b]
        if abs(gap) > SEPARATION_SE * math.hypot(se[a], se[b]):
            checked += 1
            assert (empirical[a] - empirical[b]) * gap > 0, (a, b)
    # Only kvd against pvd near their crossover (2 m/s) is too close to call.
    assert checked >= len(pairs) - 1
    assert elapsed < TIME_LIMIT_S, f"took {elapsed:.1f}s"
