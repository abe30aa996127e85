import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qig import channels as ch, functions as fn, linalg
from qig.errors import DomainError, InvariantViolation
from qig.verify import random_density, random_hermitian

_PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def test_channel_construction_validates_trace_preservation():
    ch.KrausChannel((np.eye(2, dtype=complex),))
    with pytest.raises(InvariantViolation):
        ch.KrausChannel((0.5 * np.eye(2, dtype=complex),))
    with pytest.raises(InvariantViolation):
        ch.KrausChannel(())
    with pytest.raises(InvariantViolation, match="trace preservation"):
        ch.KrausChannel((np.full((2, 2), np.nan, dtype=complex),))


def test_channel_construction_refuses_operators_of_mixed_shapes():
    for ops in ((np.eye(2), np.eye(3)), (np.eye(2), np.eye(2)[:1]), (np.ones(2),)):
        with pytest.raises(InvariantViolation, match=r"^Kraus operators must share one \(n_out, n_in\) shape$"):
            ch.KrausChannel(ops)


def test_isometry_channel_stacks_random_channel():
    rng = np.random.default_rng(8)
    G = np.stack([ch.draw_channel(3, 2, 2, rng) for _ in range(5)])
    stack = ch.isometry_channel(G, 2)
    rng = np.random.default_rng(8)
    for j in range(5):
        one = ch.random_channel(3, 2, 2, seed=rng)
        assert all(np.array_equal(K[j], K1) for K, K1 in zip(stack.kraus_ops, one.kraus_ops))


def test_random_channel_is_trace_preserving_and_unital():
    c = ch.random_channel(3, 2, 3, seed=0)
    acc = sum(K.conj().T @ K for K in c.kraus_ops)
    assert_allclose(acc, np.eye(3), atol=1e-10)
    assert_allclose(ch.apply_dual(c, np.eye(2)), np.eye(3), atol=1e-10)


def test_random_channel_single_block_is_unitary():
    c = ch.random_channel(3, 3, 1, seed=4)
    (K,) = c.kraus_ops
    assert_allclose(K @ K.conj().T, np.eye(3), atol=1e-10)


def test_random_channel_is_deterministic():
    a = ch.random_channel(2, 2, 2, seed=123)
    b = ch.random_channel(2, 2, 2, seed=123)
    for Ka, Kb in zip(a.kraus_ops, b.kraus_ops):
        assert np.array_equal(Ka, Kb)


@pytest.mark.parametrize("n_in, n_out, k", [(4, 2, 2), (3, 3, 1), (2, 3, 1)])
def test_channels_at_the_smallest_isometry_are_unaffected_by_the_row_check(n_in, n_out, k):
    # k * n_out rows may equal n_in: the isometry is then square
    raw = ch.draw_channel(n_in, n_out, k, np.random.default_rng(5))
    assert raw.shape == (2, k * n_out, n_in)
    c = ch.isometry_channel(raw, k)
    assert_allclose(sum(K.conj().T @ K for K in c.kraus_ops), np.eye(n_in), atol=1e-10)


def test_random_channel_infeasible_dimensions():
    with pytest.raises(InvariantViolation):
        ch.random_channel(5, 2, 2, seed=0)


def test_depolarizing_kraus_set_sends_everything_to_maximally_mixed():
    c = ch.KrausChannel(tuple(s / 2.0 for s in _PAULI))
    rng = np.random.default_rng(7)
    D = random_density(2, 0.05, rng)
    assert_allclose(ch.apply_state(c, D), np.eye(2) / 2.0, atol=1e-12)


def test_apply_state_unitary_preserves_spectrum():
    rng = np.random.default_rng(8)
    c = ch.random_channel(3, 3, 1, seed=9)
    D = random_density(3, 0.05, rng)
    out = ch.apply_state(c, D)
    assert_allclose(np.linalg.eigvalsh(out), np.linalg.eigvalsh(D), atol=1e-11)


def test_apply_state_preserves_trace():
    rng = np.random.default_rng(10)
    for seed in range(10):
        c = ch.random_channel(3, 2, 2, seed=seed)
        D = random_density(3, 0.05, rng)
        assert np.trace(ch.apply_state(c, D)).real == pytest.approx(1.0, abs=1e-12)


def test_apply_dual_unitary_channel():
    c = ch.random_channel(3, 3, 1, seed=11)
    (U,) = c.kraus_ops
    A = random_hermitian(3, np.random.default_rng(12))
    assert_allclose(ch.apply_dual(c, A), U.conj().T @ A @ U, atol=1e-12)


def test_channel_actions_refuse_a_matrix_of_another_dimension():
    c = ch.random_channel(3, 2, 2, seed=0)
    with pytest.raises(InvariantViolation, match=r"^state shape \(2, 2\) does not match channel input dimension 3$"):
        ch.apply_state(c, np.eye(2) / 2)
    with pytest.raises(InvariantViolation, match=r"^operand shape \(3, 3\) does not match channel output"):
        ch.apply_dual(c, np.eye(3))


def test_duality_of_state_and_dual_actions():
    rng = np.random.default_rng(14)
    for seed in range(20):
        c = ch.random_channel(3, 2, 2, seed=seed)
        D = random_density(3, 0.04, rng)
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = np.sum(np.conj(ch.apply_dual(c, A)) * D)
        rhs = np.sum(np.conj(A) * ch.apply_state(c, D))
        assert_allclose(lhs, rhs, atol=1e-10)


def test_monotonicity_margin_identity_channel_is_exactly_zero():
    rng = np.random.default_rng(15)
    ident = ch.KrausChannel((np.eye(3, dtype=complex),))
    D1 = random_density(3, 0.05, 1)
    D2 = random_density(3, 0.05, 2)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    margin = ch.monotonicity_margin(fn.power_kernel(0.5), A, D1, D2, ident)
    assert abs(margin) <= 1e-10


def test_monotonicity_margin_linear_kernel_identity_operand():
    # F(t) = t with A = I compares Tr of transformed vs original second state
    c = ch.random_channel(3, 3, 2, seed=16)
    D1 = random_density(3, 0.05, 3)
    D2 = random_density(3, 0.05, 4)
    margin = ch.monotonicity_margin(fn.power_kernel(1.0), np.eye(3), D1, D2, c)
    assert abs(margin) <= 1e-12


def test_monotonicity_margin_unitary_channel_is_equality():
    # conjugating both states undoes the dual rotation of the operand exactly
    c = ch.random_channel(3, 3, 1, seed=21)
    rng = np.random.default_rng(22)
    D1 = random_density(3, 0.05, rng)
    D2 = random_density(3, 0.05, rng)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    margin = ch.monotonicity_margin(fn.power_kernel(0.25), A, D1, D2, c)
    assert abs(margin) <= 1e-10


def test_monotonicity_margin_random_instances():
    rng = np.random.default_rng(17)
    worst = np.inf
    for seed in range(50):
        c = ch.random_channel(2, 2, 2, seed=seed)
        D1 = random_density(2, 0.05, rng)
        D2 = random_density(2, 0.05, rng)
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        worst = min(worst, ch.monotonicity_margin(fn.power_kernel(0.5), A, D1, D2, c))
    assert worst >= -1e-8


def test_monotonicity_refuses_unflagged_kernels(qubit_state):
    ident = ch.KrausChannel((np.eye(2, dtype=complex),))
    with pytest.raises(DomainError):
        ch.monotonicity_margin(fn.neglog_kernel(), np.eye(2), qubit_state, qubit_state, ident)


def test_margins_refuse_a_kernel_negative_at_zero(qubit_state):
    F = dataclasses.replace(fn.power_kernel(0.5), value_at_zero=-1.0)
    assert F.claims_operator_monotone
    ident = ch.KrausChannel((np.eye(2, dtype=complex),))
    pair = (qubit_state, qubit_state)
    with pytest.raises(DomainError, match=r"^this margin needs a kernel with F\(0\) >= 0$"):
        ch.monotonicity_margin(F, np.eye(2), qubit_state, qubit_state, ident)
    with pytest.raises(DomainError, match=r"^this margin needs a kernel with F\(0\) >= 0$"):
        ch.concavity_margin(F, np.eye(2), pair, pair, 0.5)


def test_concavity_margin_degenerate_weights():
    rng = np.random.default_rng(18)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    pair_a = (random_density(2, 0.05, 1), random_density(2, 0.05, 2))
    pair_b = (random_density(2, 0.05, 3), random_density(2, 0.05, 4))
    F = fn.power_kernel(0.5)
    assert ch.concavity_margin(F, A, pair_a, pair_b, 0.0) == 0.0
    assert ch.concavity_margin(F, A, pair_a, pair_b, 1.0) == 0.0
    assert abs(ch.concavity_margin(F, A, pair_a, pair_a, 0.4)) <= 1e-12


def test_concavity_margin_random_instances():
    rng = np.random.default_rng(19)
    worst = np.inf
    for _ in range(50):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        pairs = [random_density(3, 0.04, rng) for _ in range(4)]
        lam = float(rng.uniform(0.1, 0.9))
        worst = min(
            worst,
            ch.concavity_margin(fn.power_kernel(0.75), A, pairs[:2], pairs[2:], lam),
        )
    assert worst >= -1e-8


def test_concavity_rejects_bad_weight(qubit_state):
    with pytest.raises(DomainError):
        ch.concavity_margin(
            fn.power_kernel(0.5),
            np.eye(2),
            (qubit_state, qubit_state),
            (qubit_state, qubit_state),
            1.5,
        )


def test_stacked_channel_calls_equal_the_two_d_calls_member_by_member():
    rng = np.random.default_rng(21)
    n_in, n_out, k, m = 3, 2, 2, 5
    chans = [ch.random_channel(n_in, n_out, k, seed=rng) for _ in range(m)]
    stack = ch.KrausChannel(tuple(np.stack(ops) for ops in zip(*(c.kraus_ops for c in chans))))
    assert (stack.dim_in, stack.dim_out) == (n_in, n_out)

    def densities():
        return linalg.state(np.stack([random_density(n_in, 0.05, rng) for _ in range(m)]))

    D1, D2 = densities(), densities()
    A = rng.standard_normal((m, n_out, n_out)) + 1j * rng.standard_normal((m, n_out, n_out))
    F = fn.power_kernel(0.5)
    out, dual = ch.apply_state(stack, D1.matrix), ch.apply_dual(stack, A)
    margins = ch.monotonicity_margin(F, A, D1, D2, stack)
    pairs = [densities() for _ in range(4)]
    B = rng.standard_normal((m, n_in, n_in)) + 1j * rng.standard_normal((m, n_in, n_in))
    lam = rng.uniform(size=m)
    mixes = ch.concavity_margin(F, B, pairs[:2], pairs[2:], lam)
    assert margins.shape == mixes.shape == (m,)
    for j, c in enumerate(chans):
        assert np.array_equal(out[j], ch.apply_state(c, D1.matrix[j]))
        assert np.array_equal(dual[j], ch.apply_dual(c, A[j]))
        assert margins[j] == ch.monotonicity_margin(F, A[j], D1[j], D2[j], c)
        a, b = (pairs[0][j], pairs[1][j]), (pairs[2][j], pairs[3][j])
        assert mixes[j] == ch.concavity_margin(F, B[j], a, b, float(lam[j]))


def test_stacked_channel_validates_every_member():
    good = ch.random_channel(2, 2, 1, seed=0).kraus_ops[0]
    with pytest.raises(InvariantViolation, match="trace preservation"):
        ch.KrausChannel((np.stack([good, 0.5 * good]),))
    with pytest.raises(InvariantViolation, match="trace preservation"):
        ch.KrausChannel((np.stack([good, np.full((2, 2), np.nan, dtype=complex)]),))
    with pytest.raises(DomainError, match="mixing weight"):
        ch.concavity_margin(
            fn.power_kernel(0.5), np.eye(2), (np.eye(2) / 2,) * 2, (np.eye(2) / 2,) * 2,
            np.array([0.5, 1.5]),
        )
