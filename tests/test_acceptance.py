"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import numpy as np
import pytest

from qig import channels as ch, functions as fn, quantities as qt, verify as vf

QUBIT = np.diag([0.75, 0.25]).astype(complex)
FLIP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_skew_identity_suite():
    rep = vf.run_suite("skew-identity", seed=11)
    ok = rep.passed and rep.max_residual <= 1e-9
    _report(1, f"skew-identity: {rep.trials} trials, max residual <= 1e-9", ok,
            f"max residual {rep.max_residual:.3e}")


def test_criterion_2_hessian_theorem():
    rep = vf.run_suite("hessian", seed=7)
    lhs, rhs, _ = vf.hessian_vs_skew(fn.sld(), QUBIT, FLIP)
    golden = abs(lhs - 0.5) <= 1e-6 and abs(rhs - 0.5) <= 1e-6
    ok = rep.passed and rep.max_residual <= 1e-5 and golden
    _report(2, f"Hessian identity: {rep.trials} trials relative error <= 1e-5, qubit golden 0.5 within 1e-6",
            ok, f"max relerr {rep.max_residual:.3e}, golden lhs {lhs:.8f}")


def test_criterion_3_wyd_consistency():
    rep = vf.run_suite("wyd-consistency", seed=3)
    golden = 1.0 - np.sqrt(3.0) / 2.0
    direct = qt.wyd_direct(0.5, QUBIT, FLIP)
    spectral = qt.skew_info(fn.wyd(0.5), QUBIT, FLIP)
    golden_ok = abs(direct - golden) <= 1e-12 and abs(spectral - golden) <= 1e-12
    ok = rep.passed and rep.max_residual <= 1e-9 and golden_ok
    _report(3, "WYD commutator form vs spectral skew information <= 1e-9, golden 1-sqrt(3)/2 within 1e-12",
            ok, f"max residual {rep.max_residual:.3e}")


def test_criterion_4_monotonicity_suite():
    rep = vf.run_suite("monotonicity", seed=5)
    ident = ch.KrausChannel((np.eye(2, dtype=complex),))
    rng = np.random.default_rng(0)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    D1 = vf.random_density(2, 0.05, 1)
    D2 = vf.random_density(2, 0.05, 2)
    identity_margin = ch.monotonicity_margin(fn.power_kernel(0.5), A, D1, D2, ident)
    ok = rep.passed and rep.min_margin >= -1e-8 and abs(identity_margin) <= 1e-10
    _report(4, f"monotonicity under channels: {rep.trials} trials margin >= -1e-8, identity channel margin 0",
            ok, f"min margin {rep.min_margin:.3e}, identity {identity_margin:.1e}")


def test_criterion_5_joint_concavity_suite():
    rep = vf.run_suite("concavity", seed=6)
    ok = rep.passed and rep.min_margin >= -1e-8
    _report(5, f"joint concavity: {rep.trials} trials, mixing weights 0.1..0.9, margin >= -1e-8",
            ok, f"min margin {rep.min_margin:.3e}")


def test_criterion_6_determinant_uncertainty():
    rep = vf.run_suite("det-uncertainty", seed=8)
    det_c, _, det_2g = vf._gram_determinants(fn.sld(), fn.sld(), QUBIT, [FLIP])
    m_two = det_c - det_2g
    golden_ok = abs(m_two - 0.75) <= 1e-10
    ok = rep.passed and rep.min_margin >= -1e-9 and golden_ok
    _report(6, f"determinant uncertainty: {rep.trials} trials, m in 1..3, scaled margins >= -1e-9, "
               "qubit golden 0.75",
            ok, f"min scaled margin {rep.min_margin:.3e}, golden {m_two:.12f}")


def test_criterion_7_derivative_lemmas():
    rep_comm = vf.run_suite("lemma-commuting", seed=9)
    rep_cross = vf.run_suite("lemma-cross", seed=10)
    # the quadratic commutator identity, standalone over 50 instances
    worst_quad = 0.0
    for i in range(50):
        rng = np.random.default_rng(np.random.SeedSequence([14, i]))
        n = int(rng.integers(2, 5))
        F = (fn.power_kernel(2.0), fn.power_kernel(0.5), fn.neglog_kernel(), fn.sld())[i % 4]
        D = vf.random_density(n, min(0.2, 0.8 / n), rng)
        X = vf.random_hermitian(n, rng)
        B = qt.commutator_direction(D, X)
        worst_quad = max(worst_quad, vf._fd_defect(F, D, B, B, None))
    ok = (
        rep_comm.passed and rep_comm.max_residual <= 1e-6
        and rep_cross.passed and rep_cross.max_residual <= 1e-6
        and worst_quad <= 1e-6
    )
    _report(7, f"derivative lemmas: commuting, cross, and quadratic residuals <= 1e-6 over "
               f"{rep_comm.trials}, {rep_cross.trials} and 50 instances",
            ok, f"{rep_comm.max_residual:.2e} / {rep_cross.max_residual:.2e} / {worst_quad:.2e}")


def _catalog_standard_functions():
    return (
        fn.sld(),
        fn.harmonic(),
        fn.kubo_mori(),
        fn.wyd(0.25),
        fn.wyd(0.5),
        fn.wyd(0.75),
        fn.extremal_metric(0.0),
        fn.extremal_metric(0.3),
        fn.extremal_metric(0.7),
        fn.extremal_metric(1.0),
        fn.hansen_mixture(fn.DiscreteMeasure((0.0, 1.0), (0.5, 0.5))),
        fn.hansen_mixture(fn.DiscreteMeasure((0.2, 0.6, 0.9), (0.3, 0.5, 0.2))),
    )


def test_criterion_8_function_theory():
    transformed_ok = True
    worst_violation = 0.0
    worst_loewner = np.inf
    for k, f in enumerate(_catalog_standard_functions()):
        ft = fn.covariance_kernel(f)
        std = fn.check_standard(ft)
        mono = fn.check_operator_monotone(ft, seed=100 + k, trials=25, dim=3)
        worst_violation = max(worst_violation, std.max_violation)
        worst_loewner = min(worst_loewner, mono.loewner_margin)
        transformed_ok = transformed_ok and std.max_violation <= 1e-9 and mono.loewner_margin >= -1e-8

    x = fn.probe_grid()
    lams = np.linspace(0.0, 1.0, 21)
    kernels = [fn.extremal_kernel(lam)(x) for lam in lams]
    decreasing_ok = all(np.all(lo >= hi - 1e-12) for lo, hi in zip(kernels, kernels[1:]))

    delta_ok = True
    for lam in (0.0, 1.0):
        mix = fn.hansen_mixture(fn.dirac(lam))
        kernel = fn.extremal_kernel(lam)(x)
        delta_ok = delta_ok and np.max(np.abs(mix(x) - 1.0 / kernel)) <= 1e-14 * np.max(
            np.abs(1.0 / kernel)
        )

    pool = _catalog_standard_functions()
    gibi_min = min(
        fn.scalar_inequality_check(f, g).min_margin for f in pool for g in pool
    )
    gibi_ok = gibi_min >= -1e-10

    ok = transformed_ok and decreasing_ok and delta_ok and gibi_ok
    _report(8, "function theory: transformed kernels standard+monotone, extremal family decreasing, "
               "point masses reproduce extremal kernels, scalar inequality over all pairs",
            ok, f"std {worst_violation:.1e}, loewner {worst_loewner:.1e}, gibi {gibi_min:.1e}")


def test_criterion_9_oracle_equivalence():
    rep = vf.run_suite("oracle-equivalence", seed=12)
    ok = rep.passed and rep.max_residual <= 1e-10
    _report(9, "structured vs dense modular calculus and power-kernel trace identity <= 1e-10",
            ok, f"max deviation {rep.max_residual:.3e}")


def test_criterion_10_renyi_limit():
    rep = vf.run_suite("renyi-limit", seed=17)
    ok = rep.passed and rep.min_margin >= -1e-12 and rep.max_residual <= 1e-2
    _report(10, "Renyi order -> 0 limit: first-order remainder rem(0.01) > 10^1.5 rem(0.001), "
                "final gap <= 1e-2",
            ok, f"final gap {rep.max_residual:.3e}")
