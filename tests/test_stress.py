"""Stress gate of the finite-difference suites.

The three suites that check the Hessian identity against the stencil of
``verify.mixed_second_derivative`` run at ten times their acceptance trial
count, on every dimension from 2 to 8, for three seeds, with their own
tolerances.  Steps that do not scale with the state's smallest eigenvalue
fail ``lemma-commuting`` here.
"""

import pytest

from qig import verify as vf

STRESS_FACTOR = 10
STRESS_DIMS = tuple(range(2, 9))
STRESS_SEEDS = (3, 5, 11)


@pytest.mark.parametrize("seed", STRESS_SEEDS)
@pytest.mark.parametrize("name", ["hessian", "lemma-commuting", "lemma-cross"])
def test_finite_difference_suite_passes_the_stress_profile(name, seed):
    trials = STRESS_FACTOR * vf._SUITES[name].trials
    rep = vf.run_suite(name, trials=trials, seed=seed, dims=STRESS_DIMS)
    assert rep.trials == trials
    assert rep.failures == []
    assert rep.max_residual <= vf._SUITES[name].residual_tol
