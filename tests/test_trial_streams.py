"""``draw_trials`` seeds every trial's stream in one vectorized pass
(``simulate.trial_seeds``); the streams must stay those of
``trial_rng(seed, k)``, which is ``default_rng([seed, k])``."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from seqloc import ConstantVelocity, synthesize_batch, trial_rng
from seqloc.errors import ConfigError
from seqloc.simulate import draw_trials, trial_seeds


def _seed_sequence_words(seed, k):
    return np.random.SeedSequence([seed, k]).generate_state(4, np.uint64)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**160 - 1)),
       k=st.integers(0, 2**32 - 3))
def test_trial_seeds_are_the_seed_sequence_words(seed, k):
    words = trial_seeds(seed, 3, first=k)
    assert words.dtype == np.uint64 and words.shape == (3, 4)
    for row in range(3):
        assert np.array_equal(words[row], _seed_sequence_words(seed, k + row))


# Seeds of one, two and three 32-bit words, and of four or more.
_SEED_WIDTHS = (st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                st.integers(2**64, 2**96 - 1), st.integers(2**96, 2**300))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seeds=st.tuples(*_SEED_WIDTHS, st.lists(st.one_of(*_SEED_WIDTHS),
                                               max_size=4)).flatmap(
           lambda widths: st.permutations([*widths[:4], *widths[4]])),
       k=st.integers(0, 2**32 - 3))
@example(seeds=[2**95 + 3, 0, 2**96, 2**64 - 1, 2**32, 7], k=2**32 - 3)
def test_one_call_over_mixed_seed_widths(seeds, k):
    """One call over seeds of every width (those of up to three words
    share one pass, each longer width takes its own) gives each seed the
    rows it gets alone, word for word."""
    words = trial_seeds(seeds, 3, first=k)
    assert words.dtype == np.uint64 and words.shape == (len(seeds), 3, 4)
    for seed, rows in zip(seeds, words):
        for row in range(3):
            assert np.array_equal(rows[row],
                                  _seed_sequence_words(seed, k + row))


@pytest.mark.parametrize("seed", [0, 20260808, 2**32 - 1, 2**64, 2**96 - 1,
                                  2**96, 2**200, 3**400])
def test_trial_seeds_from_zero_across_seed_word_counts(seed):
    """Seeds of one to many 32-bit words, the longer ones (with the trial
    index, more words than SeedSequence's pool of 4) through the
    extra-entropy rounds."""
    words = trial_seeds(seed, 40)
    for k in range(40):
        assert np.array_equal(words[k], _seed_sequence_words(seed, k))


def test_more_than_2_to_the_32_trials_is_a_config_error(scenario):
    with pytest.raises(ConfigError, match="2\\*\\*32"):
        trial_seeds(1, 2**32 + 1)
    with pytest.raises(ConfigError, match="2\\*\\*32"):
        trial_seeds(1, 1, first=2**32)
    assert np.array_equal(trial_seeds(1, 1, first=2**32 - 1)[0],
                          _seed_sequence_words(1, 2**32 - 1))
    # Rejected before any array of that length is allocated.
    with pytest.raises(ConfigError, match="2\\*\\*32"):
        draw_trials(replace(scenario, n_trials=2**32 + 1))


def _assert_draw_row(draws, k, batch, truth):
    win = draws.win
    assert np.array_equal(win.rho[k], batch.rho)
    assert np.array_equal(win.t[k], batch.t)
    assert np.array_equal(win.bs_index[k], batch.bs_index)
    assert win.t_l[k] == batch.t_l
    assert np.array_equal(draws.truth[k], truth.as_vector())


def test_random_placement_rows_are_trial_rng_draws(scenario):
    draws = draw_trials(replace(scenario, n_trials=25))
    for k in range(25):
        rng = trial_rng(scenario.seed, k)
        traj = scenario.trajectory.realize(rng)
        batch, truth = synthesize_batch(scenario, 0, rng, trajectory=traj)
        _assert_draw_row(draws, k, batch, truth)


def test_fixed_trajectory_rows_are_trial_rng_draws(fixed_scenario):
    draws = draw_trials(fixed_scenario)
    for k in range(fixed_scenario.n_trials):
        batch, truth = synthesize_batch(fixed_scenario, k,
                                        trial_rng(fixed_scenario.seed, k))
        _assert_draw_row(draws, k, batch, truth)


def test_nominal_prior_rows_are_trial_rng_draws(scenario):
    std = 0.7
    draws = draw_trials(replace(scenario, n_trials=25), nominal_std=std)
    for k in range(25):
        rng = trial_rng(scenario.seed, k)
        nominal = scenario.trajectory.realize(rng)
        traj = ConstantVelocity(nominal.p0, nominal.v
                                + std * rng.standard_normal(2), nominal.t_ref)
        batch, truth = synthesize_batch(scenario, 0, rng, trajectory=traj)
        _assert_draw_row(draws, k, batch, truth)
        assert np.array_equal(draws.nominal_v[k], nominal.v)
