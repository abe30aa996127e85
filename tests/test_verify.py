import copy
import json
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qig import channels, functions as fn, linalg, quantities as qt, verify as vf
from qig.errors import DomainError, InvariantViolation, VerificationError


def test_random_density_scalar_case():
    assert_allclose(vf.random_density(1, 0.5, 0), [[1.0]])


def test_random_density_floor_and_determinism():
    for seed in range(100):
        D = vf.random_density(4, 0.05, seed)
        assert np.linalg.eigvalsh(D)[0] >= 0.05 - 1e-12
        assert np.trace(D).real == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(vf.random_density(3, 0.02, 7), vf.random_density(3, 0.02, 7))


def test_random_density_returns_its_state():
    for n in (1, 3):
        D = vf.random_density(n, 0.05, 2)
        assert isinstance(D, linalg.State)
        assert linalg.state(D) is D
        assert np.array_equal(np.asarray(D), D.matrix)


def test_random_density_floor_domain(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("nothing may be drawn for an invalid size or floor")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    with pytest.raises(DomainError):
        vf.random_density(4, 0.3, 0)
    with pytest.raises(DomainError):
        vf.random_density(4, 0.0, 0)
    for n in (0, -2, 2.5, True):
        with pytest.raises(DomainError, match="dimension must be at least 1"):
            vf.random_density(n)


def test_step_schedule_validation():
    vf.StepSchedule()
    with pytest.raises(InvariantViolation):
        vf.StepSchedule((1e-3, 1e-2))
    with pytest.raises(InvariantViolation):
        vf.StepSchedule((1e-2, 1e-6))
    with pytest.raises(InvariantViolation):
        vf.StepSchedule(())


@pytest.mark.parametrize("steps", [(0.6, 1e-2), (0.5 + 1e-12,), (1.0, 0.4)])
def test_step_schedule_refuses_a_first_fraction_above_one_half(steps):
    with pytest.raises(InvariantViolation, match="at most 0.5"):
        vf.StepSchedule(steps)
    vf.StepSchedule((0.5,) + steps[1:])


@pytest.mark.parametrize("steps", [(math.nan,), (1e-2, math.nan), (math.nan, 1e-3)])
def test_step_schedule_rejects_nan_steps(steps):
    with pytest.raises(InvariantViolation):
        vf.StepSchedule(steps)


def _ginibre_as_drawn(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_complex(n, rng):
    """A unit operand drawn as the suites draw one."""
    return vf._unit_operands(linalg.draw_ginibre(rng, (n, n)))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_draws_build_the_per_matrix_values_and_leave_the_generator_there(n):
    # the per-matrix construction written out: a Ginibre square per density,
    # a Ginibre matrix per unit operand and per channel isometry
    floor = 0.5 / n
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        D = vf.random_density(n, floor, rng)
        if n == 1:
            expected = np.array([[1.0 + 0.0j]])
        else:
            G = _ginibre_as_drawn(ref, (n, n))
            rho = G @ G.conj().T
            rho /= np.trace(rho).real
            expected = (1.0 - n * floor) * rho + floor * np.eye(n)
        assert np.array_equal(D.matrix, linalg.as_hermitian(expected))
        A = _random_complex(n, rng)
        G = _ginibre_as_drawn(ref, (n, n))
        assert np.array_equal(A, G / vf._norms(G))
        c = channels.random_channel(n, 2, n, seed=rng)
        Q = linalg.phase_fixed_qr(_ginibre_as_drawn(ref, (2 * n, n)))
        assert all(np.array_equal(K, Q[2 * i : 2 * i + 2]) for i, K in enumerate(c.kraus_ops))
        assert rng.random() == ref.random()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_count_of_raw_draws_is_the_stream_of_that_many_draws_in_turn(n):
    rng, ref = np.random.default_rng(n), np.random.default_rng(n)
    many = vf._draw_density(n, rng, 4)
    assert many.shape == (4, 2, n, n)
    assert np.array_equal(many, np.stack([vf._draw_density(n, ref) for _ in range(4)]))
    assert rng.random() == ref.random()  # at n = 1 neither drew anything
    m = 2 * n  # observables need n >= 2
    assert np.array_equal(vf._draw_observables(m, 3, rng), np.stack([linalg.draw_ginibre(ref, (m, m)) for _ in range(3)]))
    assert rng.random() == ref.random()


def test_a_groups_power_kernels_are_one_spec_per_distinct_exponent():
    alphas = [0.25, 0.5, 0.25, 0.75, 0.5]
    F = vf._power_kernels(alphas)
    assert F[0] is F[2] and F[1] is F[4] and len({id(f) for f in F}) == 3
    assert [(f.name, f.fn.keywords) for f in F] == [(fn.power_kernel(a).name, {"alpha": a}) for a in alphas]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_stacked_builders_equal_the_one_draw_builders(n):
    rng = np.random.default_rng(n)
    floor = vf._margin_floor(n)
    raw_rho = np.stack([vf._draw_density(n, rng) for _ in range(6)]).reshape(2, 3, 2, n, n)
    built = vf._densities(raw_rho, floor)
    assert built.shape == (2, 3, n, n)
    raw = np.stack([linalg.draw_ginibre(rng, (n, n)) for _ in range(5)])
    units = vf._unit_operands(raw)
    A = linalg.ginibre(raw)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(built[idx], vf._densities(raw_rho[idx], floor))
    for j in range(5):
        assert np.array_equal(units[j], A[j] / vf._norms(A[j]))


def test_mixed_second_derivative_zero_direction(qubit_state):
    val, err = vf.mixed_second_derivative(fn.power_kernel(2.0), qubit_state, np.zeros((2, 2)), np.zeros((2, 2)))
    assert val == 0.0 and err == 0.0


def test_mixed_second_derivative_linear_kernel_vanishes(qubit_state, flip):
    B = 1j * linalg.commutator(qubit_state, flip)
    val, _ = vf.mixed_second_derivative(fn.power_kernel(1.0), qubit_state, B, B)
    assert abs(val) <= 1e-10


def test_mixed_second_derivative_commuting_square_kernel():
    # S for the square kernel on commuting directions has mixed derivative
    # -2 Tr D^{-1} A B; here that is -8
    D = np.diag([0.5, 0.5]).astype(complex)
    A = np.diag([1.0, -1.0]).astype(complex)
    val, err = vf.mixed_second_derivative(fn.power_kernel(2.0), D, A, A)
    assert val == pytest.approx(-8.0, abs=1e-7)
    # the estimate is the removed correction, a conservative bound on the true error
    assert abs(val + 8.0) <= err
    assert err < 1e-4


def test_mixed_second_derivative_requires_traceless(qubit_state):
    with pytest.raises(InvariantViolation):
        vf.mixed_second_derivative(fn.power_kernel(2.0), qubit_state, np.eye(2), np.eye(2))


def test_hessian_vs_skew_refuses_an_observable_of_another_shape(qubit_state):
    wide = np.zeros((3, 3), dtype=complex)
    with pytest.raises(InvariantViolation, match=r"^observable shape \(3, 3\) does not match state \(2, 2\)"):
        vf.hessian_vs_skew(fn.sld(), qubit_state, wide)


@pytest.mark.parametrize("extra", [1, -1], ids=["longer", "shorter"])
@pytest.mark.parametrize("batch", [(), (2,)], ids=["2-D", "stack"])
def test_mixed_second_derivative_refuses_a_kernel_tuple_of_another_length(batch, extra):
    rng, count = np.random.default_rng(62), math.prod(batch)
    D = np.stack([np.asarray(vf.random_density(3, 0.2, rng)) for _ in range(count)]).reshape(batch + (3, 3))
    A = _traceless_stack(count, 3, rng).reshape(batch + (3, 3))
    grid = re.escape(str(batch + (3, 3)))
    with pytest.raises(InvariantViolation, match=rf"^{count + extra} kernels do not match .* of shape {grid}$"):
        vf.mixed_second_derivative((fn.sld(),) * (count + extra), D, A, A)


def test_every_stencil_point_keeps_half_the_smallest_eigenvalue(monkeypatch):
    # a near-degenerate small pair, directions that move one small eigenvalue by
    # sqrt(2/3) h (the most a unit traceless direction can at n = 3), random ones,
    # and the largest first fraction the schedule admits
    rng = np.random.default_rng(4)
    D = np.stack(
        [np.diag([0.6, 0.2, 0.2]), np.diag([0.98, 0.01 + 1e-9, 0.01 - 1e-9])]
        + [np.asarray(vf.random_density(3, 0.01, rng)) for _ in range(4)]
    ).astype(complex)
    S = linalg.state(D)
    down = np.diag([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    A = np.stack([down, down] + [vf.random_hermitian(3, rng) for _ in range(4)])
    A -= np.trace(A, axis1=1, axis2=2).real[:, None, None] * np.eye(3) / 3
    B = np.stack([-down, down] + [vf.random_hermitian(3, rng) for _ in range(4)])
    B -= np.trace(B, axis1=1, axis2=2).real[:, None, None] * np.eye(3) / 3
    # the stacks of stencil points mixed_second_derivative validates, [member, step, direction, sign, n, n]
    seen = []
    original = linalg.state

    def recording(D, *args, **kwargs):
        if not isinstance(D, linalg.State) and np.ndim(D) == 6:
            seen.append(D)
        return original(D, *args, **kwargs)

    monkeypatch.setattr(linalg, "state", recording)
    sched = vf.StepSchedule((0.5, 0.05))
    value, _ = vf.mixed_second_derivative(fn.power_kernel(2.0), S, A, B, sched)
    (pts,) = seen
    assert pts.shape == (6, 2, 2, 2, 3, 3)
    w_min = np.linalg.eigvalsh(pts)[..., 0].reshape(6, -1).min(axis=1)
    assert np.all(w_min >= S.eigenvalues[:, 0] / 2)
    exact = vf.exact_mixed_derivative(fn.power_kernel(2.0), S, A, B)
    assert_allclose(value, exact, rtol=1e-3)  # the coarse schedule leaves a truncation error of ~3e-4


def test_mixed_second_derivative_refuses_a_smallest_step_below_min_step():
    # the default's last fraction is 0.003: lambda_min 3e-3 gives a 9e-6 step, 4e-3 one of 1.2e-5
    A = np.diag([1.0, -0.5, -0.5]).astype(complex)
    for w in (1e-9, 1e-4, 3e-3):
        D = np.diag([1.0 - 2 * w, w, w]).astype(complex)
        with pytest.raises(VerificationError, match=r"exhausted before extrapolation: smallest step .* below 1e-05"):
            vf.mixed_second_derivative(fn.power_kernel(2.0), D, A, A)
        # a zero direction takes no step, so it is not refused
        assert vf.mixed_second_derivative(fn.power_kernel(2.0), D, A, np.zeros((3, 3))) == (0.0, 0.0)
    D = np.diag([1.0 - 8e-3, 4e-3, 4e-3]).astype(complex)
    val, _ = vf.mixed_second_derivative(fn.power_kernel(2.0), D, A, A)
    assert val == pytest.approx(vf.exact_mixed_derivative(fn.power_kernel(2.0), D, A, A), rel=1e-6)
    # a coarser schedule admits the state the default refuses
    D = np.diag([1.0 - 2e-3, 1e-3, 1e-3]).astype(complex)
    val, _ = vf.mixed_second_derivative(fn.power_kernel(2.0), D, A, A, vf.StepSchedule((0.5, 0.05)))
    assert val == pytest.approx(vf.exact_mixed_derivative(fn.power_kernel(2.0), D, A, A), rel=1e-4)


def test_mixed_second_derivative_decomposes_the_schedule_in_one_call(eig_calls):
    # all 4 points of both default steps go through one eigh; the value equals
    # the stencil written out with 8 quasi-entropy calls, bit for bit, at the
    # steps the schedule's fractions of the smallest eigenvalue give
    F = fn.power_kernel(0.5)
    D = vf.random_density(3, 0.2, 5)
    rng = np.random.default_rng(6)
    A = vf._commuting_units(D, rng.standard_normal(3))
    B = 1j * linalg.commutator(D.matrix, vf.random_hermitian(3, rng))
    B = (B + B.conj().T) / 2
    before = eig_calls["eigh"]
    val, err = vf.mixed_second_derivative(F, D, A, B)
    assert eig_calls["eigh"] - before == 1

    # the normalization mixed_second_derivative applies to its directions
    na, nb = vf._norms(A), vf._norms(B)
    An = (A - (np.trace(A).real / 3) * np.eye(3)) / na
    Bn = (B - (np.trace(B).real / 3) * np.eye(3)) / nb

    def stencil(h):
        def g(t, s):
            return qt.quasi_entropy(F, np.eye(3), D.matrix + t * An, D.matrix + s * Bn)

        return (g(h, h) - g(h, -h) - g(-h, h) + g(-h, -h)) / (4.0 * h * h)

    w_min = D.eigenvalues[0]
    assert 0.2 - 1e-12 <= w_min
    h1, h2 = (w_min * c for c in vf.StepSchedule().steps)
    s1, s2 = stencil(h1), stencil(h2)
    x1, x2 = h1 * h1, h2 * h2
    expected = (x2 * s1 - x1 * s2) / (x2 - x1)
    assert val == float(expected * na * nb)
    assert err == float(abs(expected - s2) * na * nb)


def test_mixed_stencil_is_second_order():
    # halving the step shrinks the raw stencil error by about 4x
    D = np.diag([0.5, 0.3, 0.2]).astype(complex)
    rng = np.random.default_rng(3)
    a = rng.standard_normal(3)
    a -= a.mean()
    A = np.diag(a).astype(complex)
    exact = -2.0 * np.trace(np.linalg.inv(D) @ A @ A).real

    def stencil(h):
        def g(t, s):
            return qt.quasi_entropy(fn.power_kernel(2.0), np.eye(3), D + t * A, D + s * A)

        return (g(h, h) - g(h, -h) - g(-h, h) + g(-h, -h)) / (4 * h * h)

    e1 = abs(stencil(2e-2) - exact)
    e2 = abs(stencil(1e-2) - exact)
    assert e1 / e2 == pytest.approx(4.0, rel=0.2)


def test_neville_three_steps_exact_on_polynomial_in_h2():
    steps = (0.5, 0.25, 0.125)
    x = [h * h for h in steps]
    value, err = vf._neville(x, [1.0 + 2.0 * t + 3.0 * t * t for t in x])
    assert value == pytest.approx(1.0, abs=1e-12)
    # the two-point extrapolation through the finer steps leaves 3 h1^2 h2^2
    assert err == pytest.approx(3.0 * x[1] * x[2], rel=1e-9)


@pytest.mark.parametrize(
    "F", [fn.power_kernel(2.0), fn.power_kernel(0.5), fn.neglog_kernel()], ids=lambda F: F.name
)
def test_lemma_commuting_three_step_schedule(F):
    D = vf.random_density(4, 0.2, 5)
    rng = np.random.default_rng(1)
    A, B = vf._commuting_units(D, rng.standard_normal((2, 4)))
    sched = vf.StepSchedule((1e-2, 5e-3, 2.5e-3))
    assert vf.lemma_commuting_residual(F, D, A, B, sched) <= 1e-9


def test_lemma_commuting_residual_examples():
    D = np.diag([0.5, 0.5]).astype(complex)
    A = np.diag([1.0, -1.0]).astype(complex)
    assert vf.lemma_commuting_residual(fn.power_kernel(2.0), D, A, A) <= 1e-6
    assert vf.lemma_commuting_residual(fn.power_kernel(1.0), D, A, A) <= 1e-9


def test_lemma_commuting_residual_neglog_random():
    rng = np.random.default_rng(5)
    D = vf.random_density(3, 0.2, rng)
    dec = linalg.eig_hermitian(D)
    a = rng.standard_normal(3)
    a -= a.mean()
    b = rng.standard_normal(3)
    b -= b.mean()
    A = (dec.eigenvectors * a) @ dec.eigenvectors.conj().T
    B = (dec.eigenvectors * b) @ dec.eigenvectors.conj().T
    assert vf.lemma_commuting_residual(fn.neglog_kernel(), D, A, B) <= 1e-6


def test_lemma_commuting_requires_commuting(qubit_state, flip):
    with pytest.raises(InvariantViolation):
        vf.lemma_commuting_residual(fn.power_kernel(2.0), qubit_state, flip, flip)


def _cross_defect(F, D, A, X):
    """``|FD - exact|`` along A and ``1j[D, X]``, the defect the lemma-cross suite measures."""
    return vf._fd_defect(F, D, A, qt.commutator_direction(D, X), None)


def test_cross_defect_trivial_and_random(qubit_state, flip):
    A = np.diag([1.0, -1.0]).astype(complex)
    commuting_X = np.diag([0.3, -0.3]).astype(complex)
    assert _cross_defect(fn.power_kernel(2.0), qubit_state, A, commuting_X) <= 1e-12
    rng = np.random.default_rng(6)
    D = vf.random_density(2, 0.2, rng)
    dec = linalg.eig_hermitian(D)
    a = np.array([1.0, -1.0])
    A = (dec.eigenvectors * a) @ dec.eigenvectors.conj().T
    X = vf.random_hermitian(2, rng)
    assert _cross_defect(fn.power_kernel(3.0), D, A, X) <= 1e-6
    D4 = vf.random_density(4, 0.15, rng)
    dec4 = linalg.eig_hermitian(D4)
    a4 = rng.standard_normal(4)
    a4 -= a4.mean()
    A4 = (dec4.eigenvectors * a4) @ dec4.eigenvectors.conj().T
    X4 = vf.random_hermitian(4, rng)
    assert _cross_defect(fn.sld(), D4, A4, X4) <= 1e-6


def test_quadratic_defect_random():
    rng = np.random.default_rng(7)
    for F in (fn.power_kernel(2.0), fn.neglog_kernel(), fn.sld()):
        D = vf.random_density(3, 0.2, rng)
        B = qt.commutator_direction(D, vf.random_hermitian(3, rng))
        assert vf._fd_defect(F, D, B, B, None) <= 1e-6


def test_hessian_vs_skew_golden_qubit(qubit_state, flip):
    lhs, rhs, relerr = vf.hessian_vs_skew(fn.sld(), qubit_state, flip)
    assert lhs == pytest.approx(0.5, abs=1e-6)
    assert rhs == pytest.approx(0.5, abs=1e-12)
    assert relerr <= 1e-5


def test_hessian_vs_skew_commuting_direction(qubit_state):
    X = vf.center_observable(qubit_state, np.diag([1.0, 0.0]))
    lhs, rhs, relerr = vf.hessian_vs_skew(fn.wyd(0.3), qubit_state, X)
    assert abs(lhs) <= 1e-10 and abs(rhs) <= 1e-12 and relerr <= 1e-6


def test_hessian_vs_skew_random_instance():
    rng = np.random.default_rng(8)
    D = vf.random_density(3, 0.2, rng)
    X = vf.center_observable(D, vf.random_hermitian(3, rng))
    lhs, rhs, relerr = vf.hessian_vs_skew(fn.wyd(0.3), D, X)
    assert relerr <= 1e-5


def test_hessian_vs_skew_preconditions(qubit_state, flip):
    with pytest.raises(DomainError):
        vf.hessian_vs_skew(fn.harmonic(), qubit_state, flip)  # f(0) = 0
    with pytest.raises(InvariantViolation):
        vf.hessian_vs_skew(fn.sld(), qubit_state, np.diag([1.0, 0.0]))  # uncentered


_HESSIAN_KERNELS = (
    fn.power_kernel(0.5),
    fn.power_kernel(2.0),
    fn.neglog_kernel(),
    fn.sld(),
    fn.kubo_mori(),
    fn.wyd(0.3),
    fn.extremal_metric(0.4),
    fn.hansen_mixture(fn.DiscreteMeasure((0.2, 0.7), (0.4, 0.6))),
    fn.covariance_kernel(fn.wyd(0.3)),
    fn.renyi_kernel(0.5),
)


def _traceless_stack(m, n, rng):
    H = np.stack([vf.random_hermitian(n, rng) for _ in range(m)])
    return H - (np.trace(H, axis1=-2, axis2=-1).real / n)[:, None, None] * np.eye(n)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_exact_mixed_derivative_equals_the_finite_difference_value(n):
    rng = np.random.default_rng(40 + n)
    m = len(_HESSIAN_KERNELS)
    S = linalg.state(np.stack([np.asarray(vf.random_density(n, vf._fd_floor(n), rng)) for _ in range(m)]))
    A, B = _traceless_stack(m, n, rng), _traceless_stack(m, n, rng)
    exact = vf.exact_mixed_derivative(_HESSIAN_KERNELS, S, A, B)
    fd, _ = vf.mixed_second_derivative(_HESSIAN_KERNELS, S, A, B, vf.StepSchedule((1e-2, 5e-3, 2.5e-3)))
    assert np.all(np.abs(fd - exact) <= 1e-6 * np.maximum(1.0, np.abs(exact)))
    for j, F in enumerate(_HESSIAN_KERNELS):
        assert exact[j] == vf.exact_mixed_derivative(F, S[j], A[j], B[j])


@pytest.mark.parametrize("F", _HESSIAN_KERNELS, ids=lambda F: F.name)
def test_exact_mixed_derivative_along_commuting_directions_is_the_diagonal_formula(F):
    rng = np.random.default_rng(9)
    D = vf.random_density(4, 0.1, rng)
    A, B = vf._commuting_units(D, rng.standard_normal((2, 4)))
    D_inv = linalg.apply_matrix_function(lambda x: 1.0 / x, D)
    expected = -fn.second_derivative_at_one(F) * np.trace(D_inv @ A @ B).real
    assert vf.exact_mixed_derivative(F, D, A, B) == pytest.approx(expected, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("F", _HESSIAN_KERNELS, ids=lambda F: F.name)
def test_exact_mixed_derivative_along_commutator_directions_is_the_trace_form(F):
    # 2 F(1) Tr D X^2 - 2 S_F^X(D, D) for B = 1j[D, X]
    rng = np.random.default_rng(10)
    D = vf.random_density(4, 0.1, rng)
    X = vf.random_hermitian(4, rng)
    B = qt.commutator_direction(D, X)
    f1 = float(np.asarray(F(1.0)))
    expected = 2.0 * f1 * np.trace(D @ X @ X).real - 2.0 * float(qt.quasi_entropy(F, X, D, D))
    assert vf.exact_mixed_derivative(F, D, B, B) == pytest.approx(expected, rel=1e-10, abs=1e-13)


@pytest.mark.parametrize("n", [2, 4, 8, 16, 64])
def test_exact_mixed_derivative_of_a_covariance_kernel_is_f0_times_fisher(n):
    rng = np.random.default_rng(n)
    D = vf.random_density(n, 0.1 / n, rng)
    X = vf.center_observable(D, vf.random_hermitian(n, rng))
    B = qt.commutator_direction(D, X)
    for f in (fn.sld(), fn.wyd(0.3), fn.extremal_metric(0.4), _HESSIAN_KERNELS[7]):
        exact = vf.exact_mixed_derivative(fn.covariance_kernel(f), D, B, B)
        assert exact == pytest.approx(f.value_at_zero * qt.fisher(f, D, B, B).real, rel=1e-12)


def test_exact_mixed_derivative_refuses_a_kernel_without_second_derivative(qubit_state, flip):
    bare = fn.ScalarFunctionSpec("x^3", lambda x: x**3, 0.0)
    with pytest.raises(DomainError, match="no second derivative"):
        vf.exact_mixed_derivative(bare, qubit_state, flip, flip)
    with pytest.raises(DomainError, match="no second derivative"):
        vf._fd_defect(bare, qubit_state, flip, flip, None)


def test_cov_gram_single_observable(qubit_state, flip):
    G = vf.cov_gram(fn.sld(), qubit_state, [flip])
    assert_allclose(G, [[1.0]], atol=1e-12)


def test_cov_gram_commuting_observables_are_kernel_independent():
    rng = np.random.default_rng(9)
    D = vf.random_density(3, 0.05, rng)
    dec = linalg.eig_hermitian(D)
    obs = []
    for _ in range(2):
        a = rng.standard_normal(3)
        A = (dec.eigenvectors * a) @ dec.eigenvectors.conj().T
        obs.append(vf.center_observable(D, A))
    g1 = vf.cov_gram(fn.sld(), D, obs)
    g2 = vf.cov_gram(fn.wyd(0.3), D, obs)
    assert_allclose(g1, g2, atol=1e-10)


def test_cov_gram_duplicate_observables_singular(qubit_state, flip):
    G = vf.cov_gram(fn.sld(), qubit_state, [flip, flip])
    assert abs(np.linalg.det(G)) <= 1e-12


def test_cov_gram_rejects_uncentered(qubit_state, flip):
    for observables in ([np.diag([1.0, 0.0])], [flip, np.diag([1.0, 0.0])]):
        with pytest.raises(InvariantViolation, match="centered"):
            vf.cov_gram(fn.sld(), qubit_state, observables)


def test_gram_matrices_positive_semidefinite():
    rng = np.random.default_rng(10)
    D = vf.random_density(4, 0.04, rng)
    obs = vf.orthonormal_centered_observables(D, 3, rng)
    for G in (vf.cov_gram(fn.wyd(0.4), D, obs), vf.skew_gram(fn.wyd(0.4), D, obs)):
        w = np.linalg.eigvalsh(G)
        assert w[0] >= -1e-10 * (1.0 + w[-1])


def test_skew_gram_qubit_value_and_diagonal(qubit_state, flip):
    S = vf.skew_gram(fn.sld(), qubit_state, [flip])
    assert_allclose(S, [[0.25]], atol=1e-12)
    # diagonal reproduces the skew information
    rng = np.random.default_rng(11)
    D = vf.random_density(3, 0.05, rng)
    obs = vf.orthonormal_centered_observables(D, 2, rng)
    S = vf.skew_gram(fn.wyd(0.3), D, obs)
    for k, A in enumerate(obs):
        assert S[k, k].real == pytest.approx(qt.skew_info(fn.wyd(0.3), D, A), abs=1e-10)


def test_skew_gram_commuting_observables_vanish():
    rng = np.random.default_rng(12)
    D = vf.random_density(3, 0.05, rng)
    dec = linalg.eig_hermitian(D)
    a = rng.standard_normal(3)
    A = vf.center_observable(D, (dec.eigenvectors * a) @ dec.eigenvectors.conj().T)
    S = vf.skew_gram(fn.wyd(0.3), D, [A])
    assert_allclose(S, np.zeros((1, 1)), atol=1e-11)


def test_skew_gram_duplicated_observable_rank_one(qubit_state, flip):
    S = vf.skew_gram(fn.sld(), qubit_state, [flip, flip])
    w = np.linalg.eigvalsh(S)
    assert abs(w[0]) <= 1e-12  # rank <= 1


def test_det_margins_golden_qubit(qubit_state, flip):
    det_c, det_fg, det_2g = vf._gram_determinants(fn.sld(), fn.sld(), qubit_state, [flip])
    assert det_c - det_2g == pytest.approx(0.75, abs=1e-10)
    assert det_c - det_fg == pytest.approx(15.0 / 16.0, abs=1e-10)


def test_det_margins_zero_at_zero_kernel(qubit_state, flip):
    # g(0) = 0 zeroes both right-hand determinants
    det_c, det_fg, det_2g = vf._gram_determinants(fn.wyd(0.3), fn.harmonic(), qubit_state, [flip])
    C = vf.cov_gram(fn.harmonic(), qubit_state, [flip])
    assert det_c - det_fg == pytest.approx(np.linalg.det(C).real, abs=1e-12)
    assert det_c - det_2g == pytest.approx(np.linalg.det(C).real, abs=1e-12)


def test_det_margins_random_instances():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        D = vf.random_density(n, 0.05, rng)
        obs = vf.orthonormal_centered_observables(D, m, rng)
        det_c, det_fg, det_2g = vf._gram_determinants(fn.wyd(0.4), fn.sld(), D, obs)
        m_prod, m_two = det_c - det_fg, det_c - det_2g
        assert m_prod >= -1e-9 and m_two >= -1e-9
        assert m_two <= m_prod + 1e-12  # the factor-2 bound is the stronger one


@pytest.mark.parametrize("n, m", [(2, 1), (3, 3), (4, 2)])
def test_gram_matrices_equal_the_elementwise_pairings(n, m):
    D = vf.random_density(n, 0.5 / n, 9)
    obs = vf.orthonormal_centered_observables(D, m, np.random.default_rng(m))
    g, f = fn.wyd(0.3), fn.extremal_metric(0.4)
    ft = fn.covariance_kernel(f)
    C = np.array([[qt.gen_cov(g, D, a, b) for b in obs] for a in obs])
    S = np.array([[qt.sym_cov(D, a, b) - qt.gen_cov(ft, D, a, b) for b in obs] for a in obs])
    assert (vf.cov_gram(g, D, obs) == (C + C.conj().T) / 2).all()
    assert (vf.skew_gram(f, D, obs) == (S + S.conj().T) / 2).all()


def test_scalar_case_of_det_bound_on_probe_grid():
    # pointwise, g >= 2 g(0) ((1+x)/2 - transformed f) backs the 1x1 case
    x = fn.probe_grid()
    for f, g in ((fn.wyd(0.3), fn.sld()), (fn.sld(), fn.wyd(0.6)), (fn.extremal_metric(0.4), fn.kubo_mori())):
        ft = fn.covariance_kernel(f)
        lhs = np.asarray(g(x), dtype=float)
        rhs = 2.0 * g.value_at_zero * ((1.0 + x) / 2.0 - np.asarray(ft(x), dtype=float))
        assert np.min(lhs - rhs) >= -1e-10


@pytest.mark.parametrize(
    "m, message",
    [(4, "at most 3 independent centered observables exist, got m=4"), (0, "m must be positive, got m=0")],
)
def test_draw_observables_refuses_a_count_outside_one_to_n_squared_less_one(m, message):
    rng = np.random.default_rng(3)
    with pytest.raises(DomainError) as exc:
        vf._draw_observables(2, m, rng)
    assert str(exc.value) == message
    assert rng.random() == np.random.default_rng(3).random()


def test_orthonormal_sequence_gives_up_after_a_hundred_candidates_per_observable(monkeypatch):
    D = vf.random_density(3, 0.1, 0)
    seen = []

    def collapsing(D, A):
        seen.append(A)
        return np.zeros_like(A)

    monkeypatch.setattr(vf, "center_observable", collapsing)
    rng = np.random.default_rng(4)
    raw = vf._draw_observables(3, 2, rng)
    with pytest.raises(VerificationError, match="could not orthonormalize"):
        vf._orthonormal_sequence(D, 2, raw, rng)
    # the two raw candidates, then 198 drawn from the generator
    assert len(seen) == 200
    ref = np.random.default_rng(4)
    for _ in range(200):
        linalg.draw_ginibre(ref, (3, 3))
    assert rng.random() == ref.random()


def test_orthonormal_centered_observables_properties():
    rng = np.random.default_rng(14)
    D = vf.random_density(4, 0.04, rng)
    obs = vf.orthonormal_centered_observables(D, 3, rng)
    for i, A in enumerate(obs):
        assert abs(np.trace(D @ A)) <= 1e-10
        for j, B in enumerate(obs):
            expected = 1.0 if i == j else 0.0
            assert np.sum(np.conj(A) * B).real == pytest.approx(expected, abs=1e-10)


# the kernel pools as if-chains on one integer draw, written out
def _standard_chain(rng):
    k = int(rng.integers(0, 8))
    if k == 0:
        return fn.sld()
    if k == 1:
        return fn.harmonic()
    if k == 2:
        return fn.kubo_mori()
    if k == 3:
        return fn.wyd(float(rng.uniform(0.05, 0.95)))
    if k == 4:
        return fn.extremal_metric(float(rng.uniform(0.0, 1.0)))
    if k == 5:
        return fn.hansen_mixture(vf._random_measure(rng))
    if k == 6:
        return fn.covariance_kernel(fn.wyd(float(rng.uniform(0.1, 0.9))))
    return fn.covariance_kernel(fn.extremal_metric(float(rng.uniform(0.0, 1.0))))


def _positive_at_zero_chain(rng):
    k = int(rng.integers(0, 4))
    if k == 0:
        return fn.sld()
    if k == 1:
        return fn.wyd(float(rng.uniform(0.08, 0.92)))
    if k == 2:
        return fn.extremal_metric(float(rng.uniform(0.05, 1.0)))
    return fn.hansen_mixture(vf._random_measure(rng, min_atom=0.05))


def _smooth_chain(rng):
    k = int(rng.integers(0, 4))
    if k == 0:
        return fn.power_kernel(2.0)
    if k == 1:
        return fn.power_kernel(0.5)
    if k == 2:
        return fn.neglog_kernel()
    return fn.sld()


def _skew_identity_chain(rng):
    k = int(rng.integers(0, 4))
    if k == 0:
        return fn.sld()
    if k == 1:
        return fn.wyd(0.3)
    if k == 2:
        return fn.wyd(0.5)
    return fn.hansen_mixture(vf._random_measure(rng, min_atom=0.05))


def _oracle_chain(rng):
    k = int(rng.integers(0, 5))
    if k == 0:
        return fn.power_kernel(1.0)
    if k == 1:
        return fn.power_kernel(0.5)
    if k == 2:
        return fn.power_kernel(float(rng.uniform(0.1, 0.9)))
    if k == 3:
        return fn.neglog_kernel()
    return fn.sld()


@pytest.mark.parametrize(
    "draw, chain, size",
    [
        (vf._standard_pool, _standard_chain, 8),
        (lambda rng: vf._pick(rng, vf._POSITIVE_AT_ZERO_POOL)(rng), _positive_at_zero_chain, 4),
        (lambda rng: vf._pick(rng, vf._SMOOTH_POOL)(rng), _smooth_chain, 4),
        (lambda rng: vf._pick(rng, vf._SKEW_IDENTITY_POOL)(rng), _skew_identity_chain, 4),
        (lambda rng: vf._pick(rng, vf._ORACLE_POOL)(rng), _oracle_chain, 5),
    ],
    ids=["standard", "positive-at-zero", "smooth", "skew-identity", "oracle"],
)
def test_kernel_pool_tables_draw_the_if_chains_stream(draw, chain, size):
    seeds = range(256)
    # every branch of the chain is taken by some seed
    assert {int(np.random.default_rng(s).integers(0, size)) for s in seeds} == set(range(size))
    for seed in seeds:
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert draw(a).name == chain(b).name
        assert a.random() == b.random()


def test_run_suite_unknown_name():
    with pytest.raises(DomainError):
        vf.run_suite("nope", trials=1)


_TOLERANCE_REFUSAL = "tolerance '%s' must be a real number or infinite"


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"seed": -1}, "suite seed must be nonnegative, got -1"),
        ({"seed": 3.9}, "suite seed must be an integer, got 3.9"),
        ({"seed": True}, "suite seed must be an integer, got True"),
        ({"trials": 2.7}, "trials must be an integer, got 2.7"),
        ({"trials": -3}, "trials must be nonnegative, got -3"),
        ({"dims": (2.5,)}, "dims must be positive integers, got (2.5,)"),
        ({"dims": "23"}, "dims must be positive integers, got '23'"),
        ({"dims": (math.nan,)}, "dims must be positive integers, got (nan,)"),
        ({"dims": ()}, "dims must be positive integers, got ()"),
        ({"dims": 3}, "dims must be positive integers, got 3"),
        ({"tolerances": {"residual": math.nan}}, f"{_TOLERANCE_REFUSAL % 'residual'}, got nan"),
        ({"tolerances": {"residual": "x"}}, f"{_TOLERANCE_REFUSAL % 'residual'}, got 'x'"),
        ({"tolerances": {"margin": None}}, f"{_TOLERANCE_REFUSAL % 'margin'}, got None"),
        ({"tolerances": {"margin": True}}, f"{_TOLERANCE_REFUSAL % 'margin'}, got True"),
    ],
)
def test_run_suite_refuses_malformed_arguments_before_drawing(kwargs, message, monkeypatch):
    row = vf._SUITES["wyd-consistency"]

    def draw(rng, dims):
        raise AssertionError("nothing may be drawn for a malformed argument")

    monkeypatch.setitem(vf._SUITES, "wyd-consistency", row._replace(draw=draw))
    with pytest.raises(DomainError) as exc:
        vf.run_suite("wyd-consistency", **{"trials": 2, **kwargs})
    assert str(exc.value) == message


def test_run_suite_refuses_bool_dimensions():
    # bool is an int subclass; True would otherwise run the suite at n = 1
    with pytest.raises(DomainError, match=r"^dims must be positive integers, got \(True,\)$"):
        vf.run_suite("renyi-limit", trials=2, dims=(True,))


def test_run_suite_takes_numpy_integers_and_infinite_tolerances():
    wide = {"margin": math.inf, "residual": -math.inf}
    a = vf.run_suite(
        "wyd-consistency", trials=np.int64(3), seed=np.int64(3), dims=np.array([2, 3]), tolerances=wide
    )
    b = vf.run_suite("wyd-consistency", trials=3, seed=3, dims=(2, 3), tolerances=wide)
    assert json.dumps(a.to_dict() | {"elapsed": 0}) == json.dumps(b.to_dict() | {"elapsed": 0})
    assert [f["seed"] for f in a.failures] == ["3:0", "3:1", "3:2"]


def test_run_suite_zero_trials_passes():
    rep = vf.run_suite("skew-identity", trials=0)
    assert rep.passed and rep.trials == 0
    assert rep.min_margin is None and rep.max_residual is None
    assert rep.failures == []


def test_run_suite_deterministic():
    a = vf.run_suite("wyd-consistency", trials=10, seed=3, dims=(2, 3))
    b = vf.run_suite("wyd-consistency", trials=10, seed=3, dims=(2, 3))
    assert a.max_residual == b.max_residual
    assert a.failures == b.failures


def test_run_suite_tolerance_override_triggers_failures():
    rep = vf.run_suite("wyd-consistency", trials=5, seed=1, dims=(3,), tolerances={"residual": 0.0})
    assert not rep.passed
    assert len(rep.failures) == 5
    for fail in rep.failures:
        assert set(fail) == {"seed", "digest", "value"}
    with pytest.raises(DomainError):
        vf.run_suite("wyd-consistency", trials=1, tolerances={"bogus": 1.0})


@pytest.mark.parametrize("error", [VerificationError, InvariantViolation])
def test_run_suite_records_a_raising_trial_and_runs_the_rest(error, monkeypatch):
    row = vf._SUITES["wyd-consistency"]
    seen = []

    def raising(rng, dims):
        seen.append(len(seen))
        if len(seen) == 2:
            raise error("no finite-difference step keeps the states positive definite")
        return row.draw(rng, dims)

    clean = vf.run_suite("wyd-consistency", trials=4, seed=3, dims=(2, 3))
    monkeypatch.setitem(vf._SUITES, "wyd-consistency", row._replace(draw=raising))
    rep = vf.run_suite("wyd-consistency", trials=4, seed=3, dims=(2, 3))
    assert seen == [0, 1, 2, 3] and rep.trials == 4 and not rep.passed
    assert rep.failures == [
        {
            "seed": "3:1",
            "error": error.__name__,
            "message": "no finite-difference step keeps the states positive definite",
        }
    ]
    assert rep.max_residual <= clean.max_residual


def test_pick_draws_the_stream_of_choice():
    for seed in range(200):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for seq in ((2, 3, 4), (2, 3, 4, 5), vf._ALPHAS, vf._MIX_WEIGHTS):
            assert vf._pick(a, seq) == b.choice(np.asarray(seq))
        assert a.random() == b.random()


@pytest.mark.parametrize("name", vf.SUITE_NAMES)
def test_suites_digest_only_failing_trials(name, monkeypatch):
    calls = []
    original = qt.digest_inputs

    def counted(*parts):
        calls.append(parts)
        return original(*parts)

    monkeypatch.setattr(qt, "digest_inputs", counted)
    monkeypatch.setattr(vf, "digest_inputs", counted)
    assert vf.run_suite(name, trials=3, seed=0, dims=(2, 3)).passed
    assert calls == []
    # with both bounds at -inf every trial fails, and each is digested once
    every = {"margin": -math.inf, "residual": -math.inf}
    rep = vf.run_suite(name, trials=3, seed=0, dims=(2, 3), tolerances=every)
    assert len(rep.failures) == len(calls) == 3


def test_trial_report_failure_invariant():
    # failures are nonempty exactly when a bound is violated
    clean = vf.run_suite("skew-identity", trials=10, seed=2, dims=(2, 3))
    assert clean.passed == (
        (clean.min_margin is None or clean.min_margin >= -clean.margin_tolerance)
        and (clean.max_residual is None or clean.max_residual <= clean.residual_tolerance)
    )
    dirty = vf.run_suite("skew-identity", trials=10, seed=2, dims=(2, 3), tolerances={"residual": 0.0})
    assert dirty.failures and dirty.max_residual > dirty.residual_tolerance


def test_trial_report_to_dict_round_trips_infinite_tolerances():
    rep = vf.run_suite("monotonicity", trials=2, seed=0, dims=(2,))
    d = rep.to_dict()
    assert d["tolerances"]["residual"] is None
    assert d["tolerances"]["margin"] == pytest.approx(1e-8)


@pytest.mark.parametrize("name", vf.SUITE_NAMES)
def test_every_suite_passes_briefly(name):
    rep = vf.run_suite(name, trials=8, seed=5, dims=(2, 3))
    assert rep.passed, (name, rep.failures)


DENSITY_SUITES = (
    "skew-identity", "hessian", "lemma-commuting", "lemma-cross", "monotonicity", "concavity",
    "det-uncertainty", "oracle-equivalence", "wyd-consistency", "renyi-limit",
)


@pytest.mark.parametrize("name", DENSITY_SUITES)
def test_density_suites_validate_each_state_by_its_decomposition(name, eig_calls):
    # every drawn or perturbed density is decomposed once and never re-probed with eigvalsh
    vf.run_suite(name, trials=3, seed=0, dims=(2, 3))
    assert eig_calls["eigvalsh"] == 0 and eig_calls["eigh"] > 0


def test_det_uncertainty_builds_each_gram_pair_once(monkeypatch):
    calls = {"cov_gram": 0, "skew_gram": 0}
    for name in calls:
        original = getattr(vf, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(vf, name, counted)
    # one Gram pair per (n, m) group of trials, built as one stack
    vf.run_suite("det-uncertainty", trials=12, seed=0, dims=(2, 3))
    groups = {vf._draw_det_uncertainty(_trial_rng(0, i), (2, 3))[0] for i in range(12)}
    assert len(groups) < 12
    assert calls == {"cov_gram": len(groups), "skew_gram": len(groups)}


# ---------------------------------------------------------------------------
# batched suites against the per-trial 2-D computation


def _trial_records(name, **kwargs) -> dict:
    """Every trial's failure record, keyed by its seed.

    With margin and residual tolerances of -inf every trial fails, so its
    record carries its margin or residual (``value``) and the digest.
    """
    rep = vf.run_suite(name, tolerances={"margin": -math.inf, "residual": -math.inf}, **kwargs)
    assert len(rep.failures) == rep.trials
    return {f["seed"]: f for f in rep.failures}


def _trial_rng(seed: int, i: int) -> np.random.Generator:
    # numpy's own SeedSequence: the independent oracle of run_suite's trial generators
    return np.random.default_rng(np.random.SeedSequence([seed, i]))


def _helper_rng(seed: int, i: int) -> np.random.Generator:
    words = vf._trial_seed_words(seed, i + 1)
    return np.random.Generator(np.random.PCG64(vf._seed_words_type()(words[i])))


# the last two seeds take more entropy words than numpy's pool of 4
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "seed", [0, 1, 17, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 1, 2**160 + 7, np.uint64(2**63 + 5)]
)
def test_trial_seed_words_equal_numpys_seed_sequence(seed):
    words = vf._trial_seed_words(seed, 1000)
    assert words.dtype == np.uint64 and words.shape == (1000, 4)
    for i in range(1000):
        expected = np.random.SeedSequence([int(seed), i]).generate_state(4, np.uint64)
        assert np.array_equal(words[i], expected), i


@pytest.mark.filterwarnings("error")
def test_trial_seed_words_of_zero_trials_is_empty():
    words = vf._trial_seed_words(17, 0)
    assert words.shape == (0, 4) and words.dtype == np.uint64


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed, i", [(17, 0), (17, 999), (2**160 + 7, 41)])
def test_trial_generator_draws_the_seed_sequence_stream(seed, i):
    rng = _helper_rng(seed, i)
    reference = _trial_rng(seed, i)
    assert np.array_equal(rng.standard_normal(50), reference.standard_normal(50))
    clone = copy.deepcopy(rng)
    expected = reference.standard_normal(20)
    assert np.array_equal(clone.standard_normal(20), expected)
    assert np.array_equal(rng.standard_normal(20), expected)


@pytest.mark.parametrize("args", [(4,), (8, np.uint32), (2, np.uint64), (4, np.uint32)])
def test_trial_seed_words_serve_only_pcg64s_request(args):
    seeds = vf._seed_words_type()(vf._trial_seed_words(3, 1)[0])
    with pytest.raises(InvariantViolation, match="generate_state"):
        seeds.generate_state(*args)


def test_run_suite_refuses_more_than_two_to_the_32_trials_before_allocating(monkeypatch):
    def unreachable(seed, trials):
        raise AssertionError("no seed words may be built for a refused trial count")

    monkeypatch.setattr(vf, "_trial_seed_words", unreachable)
    with pytest.raises(DomainError, match=r"^trials must be at most 2\*\*32"):
        vf.run_suite("renyi-limit", trials=2**32 + 1)


@pytest.mark.parametrize("name", vf.SUITE_NAMES)
def test_run_suite_never_builds_a_seed_sequence(name, monkeypatch):
    reference = vf.run_suite(name, trials=3, seed=5)

    def refuse(*args, **kwargs):
        raise AssertionError("run_suite must seed its trials from _trial_seed_words")

    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    rep = vf.run_suite(name, trials=3, seed=5)
    assert json.dumps(rep.to_dict() | {"elapsed": 0}) == json.dumps(reference.to_dict() | {"elapsed": 0})


def _concavity_by_trial(rng, dims):
    """One concavity trial drawn and evaluated alone, with the public 2-D margin."""
    n = vf._dim(rng, dims)
    F = fn.power_kernel(vf._pick(rng, vf._ALPHAS))
    lam = vf._pick(rng, vf._MIX_WEIGHTS)
    A = _random_complex(n, rng)
    floor = min(0.03, 0.5 / n)
    a1, a2, b1, b2 = (vf.random_density(n, floor, rng) for _ in range(4))
    margin = channels.concavity_margin(F, A, (a1, a2), (b1, b2), lam)
    return margin, qt.digest_inputs(F.name, lam, A, a1, a2, b1, b2)


def _monotonicity_by_trial(rng, dims):
    """One monotonicity trial drawn and evaluated alone, resampling as the suite does."""
    n_in = vf._dim(rng, dims)
    n_out = vf._dim(rng, dims)
    k = int(rng.integers(1, 4))
    k = max(k, -(-n_in // n_out), -(-n_out // n_in))
    F = fn.power_kernel(vf._pick(rng, vf._ALPHAS))
    A = _random_complex(n_out, rng)
    floor = min(0.03, 0.5 / n_in)
    for _ in range(40):
        c = channels.random_channel(n_in, n_out, k, seed=rng)
        D1 = vf.random_density(n_in, floor, rng)
        D2 = vf.random_density(n_in, floor, rng)
        try:
            margin = channels.monotonicity_margin(F, A, D1, D2, c)
        except InvariantViolation:
            continue
        return margin, qt.digest_inputs(F.name, A, D1, D2, *c.kraus_ops)
    raise VerificationError("could not sample a channel instance with invertible outputs")


def _hessian_by_trial(rng, dims):
    """One hessian trial drawn and evaluated alone, with the public 2-D functions."""
    n = vf._dim(rng, dims)
    f = vf._pick(rng, vf._POSITIVE_AT_ZERO_POOL)(rng)
    D = vf.random_density(n, vf._fd_floor(n), rng)
    (X,) = _orthonormal_by_hand(D, 1, rng)
    _, _, relerr = vf.hessian_vs_skew(f, D, X)
    return relerr, qt.digest_inputs(f.name, D, X)


def _commuting_by_hand(D, rng):
    """Unit traceless observable diagonal in D's eigenbasis, written out for one state."""
    U = D.eigenvectors
    a = rng.standard_normal(D.shape[0])
    a -= a.mean()
    A = (U * a) @ U.conj().T
    A = (A + A.conj().T) / 2
    nrm = vf._norms(A)
    return A if nrm < 1e-12 else A / nrm


def _smooth_trial(rng, dims):
    """Dimension, smooth kernel and density of a lemma trial, drawn in the suites' order."""
    n = vf._dim(rng, dims)
    F = vf._pick(rng, vf._SMOOTH_POOL)(rng)
    return n, F, vf.random_density(n, vf._fd_floor(n), rng)


def _lemma_commuting_by_trial(rng, dims):
    _, F, D = _smooth_trial(rng, dims)
    A = _commuting_by_hand(D, rng)
    B = _commuting_by_hand(D, rng)
    return vf.lemma_commuting_residual(F, D, A, B), qt.digest_inputs(F.name, D, A, B)


def _lemma_cross_by_trial(rng, dims):
    n, F, D = _smooth_trial(rng, dims)
    A = _commuting_by_hand(D, rng)
    X = vf.random_hermitian(n, rng)
    B = qt.commutator_direction(D, X)
    r = max(_cross_defect(F, D, A, X), vf._fd_defect(F, D, B, B, None))
    return r, qt.digest_inputs(F.name, D, A, X)


def _skew_identity_by_trial(rng, dims):
    n = vf._dim(rng, dims)
    k = int(rng.integers(0, 4))
    if k < 3:
        f = (fn.sld(), fn.wyd(0.3), fn.wyd(0.5))[k]
    else:
        f = fn.hansen_mixture(vf._random_measure(rng, min_atom=0.05))
    D = vf.random_density(n, min(0.02, 0.5 / n), rng)
    (X,) = _orthonormal_by_hand(D, 1, rng)
    return qt.skew_identity_residual(f, D, X), qt.digest_inputs(f.name, D, X)


def _orthonormal_by_hand(D, m, rng):
    """Sequential Gram-Schmidt over fresh draws, skipping a candidate of norm at most 1e-6."""
    obs = []
    while len(obs) < m:
        H = vf.center_observable(D, vf.random_hermitian(D.shape[0], rng, unit=False))
        for prev in obs:
            H = H - np.sum(np.conj(prev) * H).real * prev
        nrm = vf._norms(H)
        if nrm > 1e-6:
            obs.append(H / nrm)
    return obs


def _det_uncertainty_by_trial(rng, dims):
    n = vf._dim(rng, dims)
    m = int(rng.integers(1, 4))
    f = vf._standard_pool(rng)
    g = vf._standard_pool(rng)
    D = vf.random_density(n, min(0.05, 0.5 / n), rng)
    obs = _orthonormal_by_hand(D, m, rng)
    C, S = vf.cov_gram(g, D, obs), vf.skew_gram(f, D, obs)
    scaled = (f.value_at_zero * g.value_at_zero * S, 2.0 * g.value_at_zero * S)
    det_c, det_fg, det_2g = (float(np.linalg.det(M).real) for M in (C, *scaled))
    assert vf._gram_determinants(f, g, D, obs) == (det_c, det_fg, det_2g)
    scale = max(1.0, abs(det_c), abs(det_fg), abs(det_2g))
    margin = min(det_c - det_fg, det_c - det_2g) / scale
    return margin, qt.digest_inputs(f.name, g.name, D, *obs)


def _oracle_equivalence_by_trial(rng, dims):
    n = vf._dim(rng, dims)
    k = int(rng.integers(0, 5))
    if k == 2:
        F = fn.power_kernel(float(rng.uniform(0.1, 0.9)))
    else:
        F = {0: fn.power_kernel(1.0), 1: fn.power_kernel(0.5), 3: fn.neglog_kernel(), 4: fn.sld()}[k]
    D1, D2 = (vf.random_density(n, min(0.05, 0.5 / n), rng) for _ in range(2))
    A = _random_complex(n, rng)
    r1 = float(np.max(np.abs(linalg.relmod_apply(F, D1, D2, A) - linalg.relmod_dense(F, D1, D2, A))))
    alpha = float(rng.uniform(0.1, 0.9))
    q = complex(qt.quasi_entropy(fn.power_kernel(alpha), A, D1, D2))
    D2a = linalg.apply_matrix_function(lambda x: x ** alpha, D2)
    D1b = linalg.apply_matrix_function(lambda x: x ** (1.0 - alpha), D1)
    r2 = abs(q - complex(np.trace(A.conj().T @ D2a @ A @ D1b)))
    return max(r1, r2), qt.digest_inputs(F.name, alpha, D1, D2, A)


def _wyd_consistency_by_trial(rng, dims):
    n = vf._dim(rng, dims)
    p = float(rng.uniform(0.05, 0.95))
    D = vf.random_density(n, min(0.03, 0.5 / n), rng)
    X = vf.random_hermitian(n, rng)
    return abs(qt.skew_info(fn.wyd(p), D, X) - qt.wyd_direct(p, D, X)), qt.digest_inputs(p, D, X)


def _standardness_by_trial(rng, dims):
    f = vf._standard_pool(rng)
    return fn.check_standard(f).max_violation, qt.digest_inputs(f.name)


def _operator_monotone_report(rng, dims):
    """One operator-monotone trial's function and its 2-D report, drawn in the suite's order."""
    f = vf._standard_pool(rng)
    seed = int(rng.integers(2**32))
    return f, fn.check_operator_monotone(f, seed=seed, trials=4, dim=vf._dim(rng, dims))


def _operator_monotone_by_trial(rng, dims):
    f, rep = _operator_monotone_report(rng, dims)
    return rep.loewner_margin, qt.digest_inputs(f.name)


def _scalar_gibi_by_trial(rng, dims):
    f = vf._standard_pool(rng)
    g = vf._standard_pool(rng)
    return fn.scalar_inequality_check(f, g).min_margin, qt.digest_inputs(f.name, g.name)


def _renyi_limit_by_trial(rng, dims):
    """One renyi-limit trial drawn and evaluated alone: the first-order remainders of R_a at 0."""
    n = vf._dim(rng, dims)
    D1, D2 = (vf.random_density(n, min(0.03, 0.5 / n), rng) for _ in range(2))
    s = qt.umegaki(D1, D2)
    c1 = s - qt.quasi_entropy(lambda x: np.log(x) ** 2, np.eye(n), D1, D2) / 2.0
    rem = {a: abs(qt.renyi(a, D1, D2) - s - a * c1) for a in (0.01, 0.001)}
    return float(rem[0.01] - 10.0 ** 1.5 * rem[0.001]), qt.digest_inputs(D1, D2)


_BY_TRIAL = {
    "standardness": _standardness_by_trial,
    "operator-monotone": _operator_monotone_by_trial,
    "scalar-gibi": _scalar_gibi_by_trial,
    "monotonicity": _monotonicity_by_trial,
    "concavity": _concavity_by_trial,
    "hessian": _hessian_by_trial,
    "lemma-commuting": _lemma_commuting_by_trial,
    "lemma-cross": _lemma_cross_by_trial,
    "skew-identity": _skew_identity_by_trial,
    "det-uncertainty": _det_uncertainty_by_trial,
    "oracle-equivalence": _oracle_equivalence_by_trial,
    "wyd-consistency": _wyd_consistency_by_trial,
    "renyi-limit": _renyi_limit_by_trial,
}


def _assert_batched_equals_by_trial(name, seed, trials, dims):
    batched = _trial_records(name, trials=trials, seed=seed, dims=dims)
    for i in range(trials):
        key = f"{seed}:{i}"
        try:
            margin, digest = _BY_TRIAL[name](_trial_rng(seed, i), dims)
        except (VerificationError, InvariantViolation) as exc:
            assert batched[key] == {"seed": key, "error": type(exc).__name__, "message": str(exc)}
            continue
        assert type(margin) is float
        assert batched[key] == {"seed": key, "digest": digest, "value": margin}
    return batched


@pytest.mark.parametrize("name", sorted(_BY_TRIAL))
@pytest.mark.parametrize("dims", [(2, 3, 4), (2, 3, 4, 5, 6, 7, 8)], ids=["2-4", "2-8"])
def test_batched_margins_and_digests_equal_the_two_d_ones(name, dims):
    _assert_batched_equals_by_trial(name, seed=7, trials=120, dims=dims)


def test_batched_renyi_residuals_equal_the_two_d_gaps():
    # with the margin bound open, every trial's record carries |R_0.001 - S|
    seed, trials, dims = 7, 120, (1, 2, 3, 4, 5, 6, 7, 8)
    rep = vf.run_suite(
        "renyi-limit", trials=trials, seed=seed, dims=dims,
        tolerances={"margin": math.inf, "residual": -math.inf},
    )
    assert len(rep.failures) == trials
    for i, record in enumerate(rep.failures):
        rng = _trial_rng(seed, i)
        n = vf._dim(rng, dims)
        D1, D2 = (vf.random_density(n, min(0.03, 0.5 / n), rng) for _ in range(2))
        gap = abs(qt.renyi(0.001, D1, D2) - qt.umegaki(D1, D2))
        assert record == {"seed": f"{seed}:{i}", "digest": qt.digest_inputs(D1, D2), "value": gap}


@pytest.mark.parametrize("scale", [0.0, 0.9, 1.1, 2.0])
def test_renyi_limit_fails_every_trial_when_the_first_order_term_is_wrong(monkeypatch, scale):
    # a wrong c1 leaves a remainder that shrinks only 10-fold from a = 0.01 to 0.001
    log_squared = vf._log_squared
    monkeypatch.setattr(vf, "_log_squared", lambda x: scale * log_squared(x))
    for seed in (3, 17):
        rep = vf.run_suite("renyi-limit", seed=seed)
        assert len(rep.failures) == rep.trials and rep.min_margin < -5e-5


@pytest.mark.parametrize("seed", [3, 5, 11])
def test_renyi_limit_passes_at_ten_times_its_trials_and_dims_up_to_eight(seed):
    row = vf._SUITES["renyi-limit"]
    rep = vf.run_suite("renyi-limit", trials=10 * row.trials, seed=seed, dims=tuple(range(2, 9)))
    assert rep.passed, rep.failures


@pytest.mark.parametrize("dims", [(2, 3, 4), (2, 3, 4, 5, 6, 7, 8)], ids=["2-4", "2-8"])
def test_batched_pick_residuals_equal_the_two_d_ones(dims):
    # with the margin bound open, every trial's record carries its Pick residual
    seed, trials = 7, 120
    rep = vf.run_suite(
        "operator-monotone", trials=trials, seed=seed, dims=dims,
        tolerances={"margin": math.inf, "residual": -math.inf},
    )
    assert len(rep.failures) == trials
    for i, record in enumerate(rep.failures):
        f, two_d = _operator_monotone_report(_trial_rng(seed, i), dims)
        residual = 0.0 if two_d.pick_margin is None else max(0.0, -two_d.pick_margin)
        assert record == {"seed": f"{seed}:{i}", "digest": qt.digest_inputs(f.name), "value": residual}


def test_stacked_checks_flag_exactly_the_member_that_is_not_operator_monotone():
    # x^2 is neither standard nor operator monotone; the other members share families
    fs = (
        fn.sld(), fn.wyd(0.3), fn.extremal_metric(0.4), fn.power_kernel(2.0), fn.wyd(0.6),
        fn.extremal_metric(0.9), fn.covariance_kernel(fn.wyd(0.4)), fn.kubo_mori(),
    )
    seeds = tuple(range(30, 30 + len(fs)))
    mono = fn.check_operator_monotone(fs, seed=seeds, trials=6, dim=3)
    std = fn.check_standard(fs)
    flagged = [f.name == "power:2" for f in fs]
    assert (~mono.passed).tolist() == flagged and (~std.passed).tolist() == flagged
    assert mono.loewner_margin[3] < -1e-8 and mono.pick_margin[3] < -1e-10
    for j, f in enumerate(fs):
        one = fn.check_operator_monotone(f, seed=seeds[j], trials=6, dim=3)
        assert (mono.loewner_margin[j], mono.pick_margin[j], mono.passed[j]) == (
            one.loewner_margin, one.pick_margin, one.passed
        )
        alone = fn.check_standard(f)
        assert (std.symmetry[j], std.normalization[j], std.max_violation[j], std.passed[j]) == (
            alone.symmetry, alone.normalization, alone.max_violation, alone.passed
        )
    # the standard members paired with themselves in reverse order
    pairs_f = tuple(f for f, bad in zip(fs, flagged) if not bad)
    pairs_g = pairs_f[::-1]
    gibi = fn.scalar_inequality_check(pairs_f, pairs_g)
    for j, (f, g) in enumerate(zip(pairs_f, pairs_g)):
        assert gibi.min_margin[j] == fn.scalar_inequality_check(f, g).min_margin


def _collapsing_channels(monkeypatch, always: bool = False, fault: float = 0.0) -> list:
    """Let ``isometry_channel`` build channels with singular outputs where the shape allows.

    Kraus block ``i // r`` sends input direction i to output direction
    ``i % r``, so every output lives on the first ``r`` directions.  Such a
    channel replaces about half of the built members (all, with
    ``always``), and a build that holds a member in the ``fault`` share
    raises instead.  A member's coin is the phase of its first raw Ginibre
    entry, uniform on [0, 1), so it comes from the trial's own stream both
    in the stacked build and in :func:`~qig.channels.random_channel`.
    Returns the number of members of every build.
    """
    original = channels.isometry_channel
    calls = []

    def build(raw, k):
        c = original(raw, k)
        first = linalg.ginibre(raw)[..., 0, 0]
        calls.append(first.size)
        coin = (np.angle(first) + np.pi) / (2.0 * np.pi)
        if (coin < fault).any():
            raise InvariantViolation("the drawn channel is rejected")
        n_out, n_in = c.dim_out, c.dim_in
        r = -(-n_in // k)
        collapse = always | (coin < 0.5)
        if r < n_out and collapse.any():
            K = np.zeros((k, n_out, n_in), dtype=complex)
            for i in range(n_in):
                K[i // r, i % r, i] = 1.0
            mask = collapse[..., None, None]
            ops = (np.where(mask, Kc, Ko) for Kc, Ko in zip(K, c.kraus_ops))
            return channels.KrausChannel(tuple(ops))
        return c

    monkeypatch.setattr(channels, "isometry_channel", build)
    return calls


def test_monotonicity_resamples_from_each_trials_own_stream(monkeypatch):
    # a channel build that raises on a later attempt makes its group rerun trial
    # by trial, and each rerun must resample the same stream again
    calls = _collapsing_channels(monkeypatch, fault=0.05)
    records = _assert_batched_equals_by_trial("monotonicity", seed=3, trials=60, dims=(2,))
    assert any("error" in r for r in records.values())
    assert sum(calls) > 2 * 60 + 20  # reference and batched runs, and resamples


def test_monotonicity_group_with_some_collapsed_outputs_equals_the_trial_by_trial_records(monkeypatch):
    # about half the channels collapse, so a group holds members with good and with
    # singular outputs; the group is rerun one trial at a time and each trial resamples
    _collapsing_channels(monkeypatch)
    _assert_batched_equals_by_trial("monotonicity", seed=3, trials=60, dims=(2, 3))


def test_monotonicity_records_each_trial_that_exhausts_its_attempts(monkeypatch):
    _collapsing_channels(monkeypatch, always=True)
    records = _assert_batched_equals_by_trial("monotonicity", seed=3, trials=6, dims=(2, 4))
    exhausted = [r for r in records.values() if r.get("error") == "VerificationError"]
    assert 0 < len(exhausted) < len(records)
    assert {r["message"] for r in exhausted} == {
        "could not sample a channel instance with invertible outputs"
    }


#: where each batched sampling suite's drawn inputs keep a raw density
_RAW_DENSITY = {
    "concavity": lambda inputs: inputs[2][2],
    "skew-identity": lambda inputs: inputs[1],
    "det-uncertainty": lambda inputs: inputs[2],
    "oracle-equivalence": lambda inputs: inputs[1][1],
    "wyd-consistency": lambda inputs: inputs[1],
}


def _assert_a_raising_trial_fails_alone(monkeypatch, name, seed, trials, dims, broken):
    row = vf._SUITES[name]
    seen = []

    def draw(rng, dims):
        key, inputs = row.draw(rng, dims)
        seen.append(key)
        if len(seen) == broken + 1:
            # a NaN in one raw density makes the group's state call raise
            _RAW_DENSITY[name](inputs)[0, 0, 1] = np.nan
        return key, inputs

    clean = _trial_records(name, trials=trials, seed=seed, dims=dims)
    monkeypatch.setitem(vf._SUITES, name, row._replace(draw=draw))
    with np.errstate(invalid="ignore"):  # the normalization divides by the NaN trace
        rep = vf.run_suite(name, trials=trials, seed=seed, dims=dims)
    with pytest.raises(InvariantViolation, match="non-finite") as exc:
        linalg.as_hermitian(np.full((2, 2), np.nan))
    failure = {"seed": f"{seed}:{broken}", "error": "InvariantViolation", "message": str(exc.value)}
    assert seen.count(seen[broken]) > 1
    assert rep.failures == [failure]
    seen.clear()
    with np.errstate(invalid="ignore"):
        records = _trial_records(name, trials=trials, seed=seed, dims=dims)
    assert records == {**clean, failure["seed"]: failure}


def test_a_raising_trial_inside_a_batched_group_fails_alone(monkeypatch):
    # one dimension and three alphas: the broken trial shares its group with others
    _assert_a_raising_trial_fails_alone(monkeypatch, "concavity", seed=4, trials=40, dims=(2,), broken=5)


@pytest.mark.parametrize("name", ["skew-identity", "det-uncertainty", "oracle-equivalence", "wyd-consistency"])
def test_a_raising_trial_fails_alone_in_the_batched_sampling_suites(monkeypatch, name):
    _assert_a_raising_trial_fails_alone(monkeypatch, name, seed=8, trials=30, dims=(3,), broken=7)


def test_stacked_mixed_second_derivative_equals_the_two_d_calls_member_by_member(monkeypatch):
    # member 2 sits just above the smallest eigenvalue the default schedule admits
    # (its last step is 1.2e-5), so the members' steps differ 50-fold; member 3 has
    # a zero direction
    rng = np.random.default_rng(12)
    D = np.stack(
        [np.asarray(vf.random_density(3, 0.2, rng)) for _ in range(2)]
        + [np.diag([0.992, 0.004, 0.004]).astype(complex), np.asarray(vf.random_density(3, 0.2, rng))]
    )
    S = linalg.state(D)
    A = np.stack([vf.random_hermitian(3, rng) for _ in range(4)])
    A -= np.trace(A, axis1=1, axis2=2).real[:, None, None] * np.eye(3) / 3
    B = qt.commutator_direction(S, np.stack([vf.random_hermitian(3, rng) for _ in range(4)]))
    B[3] = 0.0
    kernels = (fn.power_kernel(0.5), fn.neglog_kernel(), fn.covariance_kernel(fn.wyd(0.3)), fn.sld())
    calls = []
    original = vf.mixed_second_derivative

    def counted(F, D, A, B, schedule=None):
        calls.append(np.shape(D))
        return original(F, D, A, B, schedule)

    monkeypatch.setattr(vf, "mixed_second_derivative", counted)
    for F in (kernels, kernels[0]):
        calls.clear()
        value, err = vf.mixed_second_derivative(F, S, A, B)
        assert value.shape == err.shape == (4,)
        # one stacked call: member 2's small steps and member 3's zero direction stay inside it
        assert calls == [(4, 3, 3)]
        for j in range(4):
            Fj = F[j] if isinstance(F, tuple) else F
            assert (value[j], err[j]) == original(Fj, S[j], A[j], B[j])
    assert (value[3], err[3]) == (0.0, 0.0)
    exact = vf.exact_mixed_derivative(kernels[0], S[:3], A[:3], B[:3])
    assert_allclose(value[:3], exact, rtol=1e-6)
    # a member below that eigenvalue makes the stacked call refuse, as its 2-D call does
    D[2] = np.diag([0.994, 0.003, 0.003])
    for operands in ((D, A, B), (D[2], A[2], B[2])):
        with pytest.raises(VerificationError, match="exhausted"):
            original(kernels[2], *operands)


def test_stacked_identities_equal_the_two_d_calls_member_by_member():
    rng = np.random.default_rng(21)
    S = linalg.state(np.stack([np.asarray(vf.random_density(4, 0.2, rng)) for _ in range(3)]))
    A, B = vf._commuting_units(S, rng.standard_normal((2, 3, 4)))
    X = np.stack([_orthonormal_by_hand(S[j], 1, rng)[0] for j in range(3)])
    F = (fn.power_kernel(2.0), fn.neglog_kernel(), fn.sld())
    f = (fn.wyd(0.4), fn.extremal_metric(0.3), fn.sld())
    commuting = vf.lemma_commuting_residual(F, S, A, B)
    C = qt.commutator_direction(S, X)
    cross = _cross_defect(F, S, A, X)
    quadratic = vf._fd_defect(F, S, C, C, None)
    hessian = vf.hessian_vs_skew(f, S, X)
    for j in range(3):
        assert commuting[j] == vf.lemma_commuting_residual(F[j], S[j], A[j], B[j])
        assert cross[j] == _cross_defect(F[j], S[j], A[j], X[j])
        Cj = qt.commutator_direction(S[j], X[j])
        assert quadratic[j] == vf._fd_defect(F[j], S[j], Cj, Cj, None)
        assert tuple(h[j] for h in hessian) == vf.hessian_vs_skew(f[j], S[j], X[j])
    with pytest.raises(InvariantViolation, match="commute"):
        vf.lemma_commuting_residual(F, S, A, np.stack([A[0], A[1], X[2]]))


def test_a_hessian_trial_whose_trace_identity_fails_is_recorded_alone(monkeypatch):
    # one dimension: every trial shares the broken trial's group
    seed, trials, dims, broken = 6, 12, (3,), 4
    clean = _trial_records("hessian", trials=trials, seed=seed, dims=dims)
    key, (_, raw, _, _) = vf._SUITES["hessian"].draw(_trial_rng(seed, broken), dims)
    target = linalg.state(vf._densities(raw, vf._fd_floor(key))).matrix
    original = qt.fisher

    def skewed(f, D, A, B):
        hit = np.all(D.matrix == target, axis=(-2, -1))
        return original(f, D, A, B) + np.where(hit, 1.0, 0.0)

    monkeypatch.setattr(qt, "fisher", skewed)
    with pytest.raises(VerificationError, match=r"f\(0\) times the metric") as exc:
        _hessian_by_trial(_trial_rng(seed, broken), dims)
    failure = {"seed": f"{seed}:{broken}", "error": "VerificationError", "message": str(exc.value)}
    records = _trial_records("hessian", trials=trials, seed=seed, dims=dims)
    assert records == {**clean, failure["seed"]: failure}


def _assert_rejected_centered_draws_are_redrawn(monkeypatch, name):
    # about a third of all centered draws collapse to zero; both the stacked
    # builder and the written-out loop must go on drawing from the same stream
    original = vf.center_observable
    rejected = []

    def collapsing(D, A):
        X = original(D, A)
        coin = (np.angle(np.asarray(A)[..., 0, 1]) + np.pi) / (2.0 * np.pi)
        rejected.append(int(np.sum(coin < 0.35)))
        return np.where((coin < 0.35)[..., None, None], 0.0, X)

    monkeypatch.setattr(vf, "center_observable", collapsing)
    # each group is evaluated twice, as a group that raises is rerun: the
    # redraws must leave the drawn generators as they were
    row = vf._SUITES[name]

    def twice(key, trials):
        row.evaluate(key, trials)
        return row.evaluate(key, trials)

    monkeypatch.setitem(vf._SUITES, name, row._replace(evaluate=twice))
    _assert_batched_equals_by_trial(name, seed=9, trials=40, dims=(2, 3))
    assert sum(rejected) > 10


def test_a_rejected_centered_observable_is_redrawn_from_the_trials_own_stream(monkeypatch):
    _assert_rejected_centered_draws_are_redrawn(monkeypatch, "hessian")


def test_a_rejected_skew_identity_observable_is_redrawn_from_the_trials_own_stream(monkeypatch):
    _assert_rejected_centered_draws_are_redrawn(monkeypatch, "skew-identity")


def test_a_det_uncertainty_rejection_reruns_the_sequential_loop(monkeypatch):
    # a member whose Gram-Schmidt meets a collapsed candidate reruns it one
    # candidate at a time, the next draw of its stream taking that one's place
    _assert_rejected_centered_draws_are_redrawn(monkeypatch, "det-uncertainty")
    # the public builder takes the same sequence from its generator
    D = vf.random_density(3, 0.1, 5)
    a, b = np.random.default_rng(6), np.random.default_rng(6)
    got = vf.orthonormal_centered_observables(D, 3, a)
    assert all(np.array_equal(x, y) for x, y in zip(got, _orthonormal_by_hand(D, 3, b), strict=True))
    assert a.random() == b.random()


@pytest.mark.parametrize("field", ["margin", "residual"])
def test_a_nan_margin_or_residual_fails_its_trial(monkeypatch, field):
    name = "concavity" if field == "margin" else "wyd-consistency"
    row = vf._SUITES[name]
    clean = vf.run_suite(name, trials=10, seed=2, dims=(2,))
    clean_records = _trial_records(name, trials=10, seed=2, dims=(2,))
    values = [r["value"] for r in clean_records.values()]
    assert clean.passed
    assert (clean.min_margin, clean.max_residual) == (
        (min(values), None) if field == "margin" else (None, max(values))
    )
    summaries = []
    for broken in (0, 5, 9):
        # one trial of the single group returns NaN, first, inside or last
        def poisoned(key, trials, _broken=broken):
            margins, residuals, parts = row.evaluate(key, trials)
            values = np.array(margins if field == "margin" else residuals)
            values[_broken] = math.nan
            return (values, residuals, parts) if field == "margin" else (margins, values, parts)

        monkeypatch.setitem(vf._SUITES, name, row._replace(evaluate=poisoned))
        rep = vf.run_suite(name, trials=10, seed=2, dims=(2,))
        assert [f["seed"] for f in rep.failures] == [f"2:{broken}"]
        assert math.isnan(rep.failures[0]["value"])
        # with -inf tolerances every trial still fails, the NaN one among them
        records = _trial_records(name, trials=10, seed=2, dims=(2,))
        assert [k for k, r in records.items() if math.isnan(r["value"])] == [f"2:{broken}"]
        summaries.append(json.dumps((rep.min_margin, rep.max_residual)))
        monkeypatch.setitem(vf._SUITES, name, row)
    # the summary does not depend on where the NaN sits: NaN for the poisoned value
    assert summaries == [json.dumps((math.nan, None) if field == "margin" else (None, math.nan))] * 3
