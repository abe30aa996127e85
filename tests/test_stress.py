"""Stress gates: suites at ten times their acceptance trial count, dims 2..8.

The three suites that check the Hessian identity against the stencil of
``verify.mixed_second_derivative`` run at ten times their acceptance trial
count, on every dimension from 2 to 8, for three seeds, with their own
tolerances.  Steps that do not scale with the state's smallest eigenvalue
fail ``lemma-commuting`` here.

``test_every_suite_passes_the_stress_profile`` runs all 13 suites the same
way.  It is marked ``stress`` and left out of the default run (a few seconds
per seed); run it with ``python -m pytest -m stress tests/test_stress.py``.
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


@pytest.mark.stress
@pytest.mark.parametrize("seed", STRESS_SEEDS)
def test_every_suite_passes_the_stress_profile(seed):
    failing = {}
    for name, row in vf._SUITES.items():
        rep = vf.run_suite(
            name,
            trials=STRESS_FACTOR * row.trials,
            seed=seed,
            dims=STRESS_DIMS,
            tolerances={"margin": row.margin_tol, "residual": row.residual_tol},
        )
        assert rep.trials == STRESS_FACTOR * row.trials
        if rep.failures:
            failing[name] = rep.failures[:3]
    assert failing == {}
