import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from qig import functions as fn, linalg, quantities as qt
from qig.errors import DomainError, InvariantViolation
from qig.verify import center_observable, random_density, random_hermitian


def _classical_kl(p, q):
    return float(sum(pi * np.log(pi / qi) for pi, qi in zip(p, q)))


def test_quasi_entropy_equal_states_neglog_vanishes(qubit_state):
    r = qt.quasi_entropy(fn.neglog_kernel(), np.eye(2), qubit_state, qubit_state)
    assert abs(r) < 1e-14


def test_quasi_entropy_neglog_matches_classical_kl():
    D1 = np.diag([0.5, 0.5]).astype(complex)
    D2 = np.diag([0.75, 0.25]).astype(complex)
    r = qt.quasi_entropy(fn.neglog_kernel(), np.eye(2), D1, D2)
    assert r == pytest.approx(_classical_kl([0.5, 0.5], [0.75, 0.25]), abs=1e-12)
    assert r == pytest.approx(0.5 * np.log(4.0 / 3.0), abs=1e-12)


def test_quasi_entropy_matches_relmod_route():
    rng = np.random.default_rng(21)
    D1 = random_density(3, 0.05, rng)
    D2 = random_density(3, 0.05, rng)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    direct = qt.quasi_entropy(np.sqrt, A, D1, D2)
    AD = A @ linalg.apply_matrix_function(np.sqrt, D1)
    via_relmod = np.sum(np.conj(AD) * linalg.relmod_apply(np.sqrt, D1, D2, AD))
    assert_allclose(direct, via_relmod, atol=1e-12)


def test_quasi_entropy_power_kernel_is_a_trace():
    rng = np.random.default_rng(22)
    D1 = random_density(4, 0.05, rng)
    D2 = random_density(4, 0.05, rng)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    alpha = 0.37
    val = qt.quasi_entropy(fn.power_kernel(alpha), A, D1, D2)
    direct = np.trace(
        A.conj().T
        @ linalg.apply_matrix_function(lambda x: x**alpha, D2)
        @ A
        @ linalg.apply_matrix_function(lambda x: x ** (1 - alpha), D1)
    )
    assert_allclose(val, direct, atol=1e-12)


def test_quasi_entropy_imag_leakage_is_tiny(qubit_state, flip):
    # the spectral sum of a real kernel grid against |<u_i, A v_j>|^2 is real by construction
    r = qt.quasi_entropy(fn.sld(), flip, qubit_state, qubit_state)
    assert isinstance(r, np.float64)


def test_quasi_entropy_propagates_kernel_domain_errors(qubit_state):
    # log(ratio - 2) is undefined on part of the ratio range
    with pytest.raises(DomainError):
        qt.quasi_entropy(lambda x: np.log(x - 2.0), np.eye(2), qubit_state, qubit_state)


def test_digest_hashes_a_state_as_its_matrix():
    D = random_density(3, 0.05, 1)
    assert qt.digest_inputs("f", D, 0.5) == qt.digest_inputs("f", D.matrix, 0.5)


def test_umegaki_examples(qubit_state):
    assert qt.umegaki(qubit_state, qubit_state) == pytest.approx(0.0, abs=1e-13)
    D1 = np.diag([0.5, 0.5]).astype(complex)
    assert qt.umegaki(D1, qubit_state) == pytest.approx(0.14384103622589045, abs=1e-12)


def test_umegaki_agrees_with_quasi_entropy_and_is_nonnegative():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        D1 = random_density(n, 0.03, rng)
        D2 = random_density(n, 0.03, rng)
        u = qt.umegaki(D1, D2)
        q = qt.quasi_entropy(fn.neglog_kernel(), np.eye(n), D1, D2)
        assert abs(u - q) <= 1e-9
        assert u >= -1e-12


def test_renyi_rejects_bad_alpha(qubit_state):
    for alpha in (0.0, 1.0, -1.0, 1.5):
        with pytest.raises(DomainError):
            qt.renyi(alpha, qubit_state, qubit_state)


def test_renyi_equal_states_vanish(qubit_state):
    assert qt.renyi(0.5, qubit_state, qubit_state) == pytest.approx(0.0, abs=1e-13)


def test_renyi_commuting_matches_scalar_formula():
    p = [0.2, 0.3, 0.5]
    q = [0.5, 0.25, 0.25]
    D1 = np.diag(p).astype(complex)
    D2 = np.diag(q).astype(complex)
    for alpha in (-0.5, 0.25, 0.5, 0.75):
        scalar = (1.0 - sum(qi**alpha * pi ** (1 - alpha) for pi, qi in zip(p, q))) / (
            alpha * (1 - alpha)
        )
        assert qt.renyi(alpha, D1, D2) == pytest.approx(scalar, abs=1e-12)


def test_renyi_limit_approaches_umegaki():
    rng = np.random.default_rng(17)
    D1 = random_density(3, 0.05, rng)
    D2 = random_density(3, 0.05, rng)
    u = qt.umegaki(D1, D2)
    gaps = [abs(qt.renyi(a, D1, D2) - u) for a in (0.1, 0.01, 0.001)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 1e-2


_RENYI_TEST_ALPHAS = (-0.9, -0.5, 0.25, 0.5, 0.75)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_stacked_divergences_equal_the_two_d_calls_bit_for_bit(n):
    rng = np.random.default_rng(60 + n)
    s1, s2 = (
        linalg.state(np.stack([np.asarray(random_density(n, 0.5 / n, rng)) for _ in range(4)]))
        for _ in range(2)
    )
    u = qt.umegaki(s1, s2)
    assert u.shape == (4,) and u.dtype == float
    for alpha in _RENYI_TEST_ALPHAS + (0.01, 0.001):
        r = qt.renyi(alpha, s1.matrix, s2)
        assert r.shape == (4,)
        for j in range(4):
            assert r[j] == qt.renyi(alpha, s1[j], s2[j].matrix)
    for j in range(4):
        two_d = qt.umegaki(s1.matrix[j], s2[j])
        assert type(two_d) is float and u[j] == two_d


def test_divergences_match_the_matrix_function_trace_formulas():
    # the formulas umegaki and renyi computed before they became quasi-entropies
    rng = np.random.default_rng(14)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        D1, D2 = (random_density(n, 0.2 / n, rng) for _ in range(2))
        L1 = linalg.apply_matrix_function(np.log, D1)
        L2 = linalg.apply_matrix_function(np.log, D2)
        relative_entropy = float(np.trace(D1.matrix @ (L1 - L2)).real)
        assert qt.umegaki(D1, D2) == pytest.approx(relative_entropy, rel=1e-13, abs=0.0)
        for alpha in _RENYI_TEST_ALPHAS:
            D2a = linalg.apply_matrix_function(lambda x: x ** alpha, D2)
            D1b = linalg.apply_matrix_function(lambda x: x ** (1.0 - alpha), D1)
            expected = float((1.0 - np.trace(D2a @ D1b).real) / (alpha * (1.0 - alpha)))
            assert qt.renyi(alpha, D1, D2) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_sym_cov_examples(qubit_state, flip):
    assert qt.sym_cov(qubit_state, np.eye(2), np.eye(2)) == pytest.approx(0.0, abs=1e-14)
    assert qt.sym_cov(qubit_state, flip, flip).real == pytest.approx(1.0, abs=1e-14)


def test_sym_cov_commuting_matches_classical_covariance():
    p = [0.1, 0.3, 0.6]
    a = [1.0, -2.0, 0.5]
    b = [0.3, 0.4, -1.0]
    D = np.diag(p).astype(complex)
    mean_a = sum(pi * ai for pi, ai in zip(p, a))
    mean_b = sum(pi * bi for pi, bi in zip(p, b))
    classical = sum(pi * ai * bi for pi, ai, bi in zip(p, a, b)) - mean_a * mean_b
    val = qt.sym_cov(D, np.diag(a).astype(complex), np.diag(b).astype(complex))
    assert val.real == pytest.approx(classical, abs=1e-12)
    assert abs(val.imag) < 1e-12


def test_gen_cov_sld_equals_sym_cov():
    rng = np.random.default_rng(41)
    D = random_density(4, 0.03, rng)
    A = random_hermitian(4, rng)
    B = random_hermitian(4, rng)
    assert_allclose(qt.gen_cov(fn.sld(), D, A, B), qt.sym_cov(D, A, B), atol=1e-12)


def test_gen_cov_harmonic_hand_value(qubit_state, flip):
    assert qt.gen_cov(fn.harmonic(), qubit_state, flip, flip).real == pytest.approx(0.75, abs=1e-13)


def test_gen_cov_commutant_is_kernel_independent():
    rng = np.random.default_rng(42)
    D = random_density(4, 0.03, rng)
    dec = linalg.eig_hermitian(D)
    a = rng.standard_normal(4)
    b = rng.standard_normal(4)
    A = (dec.eigenvectors * a) @ dec.eigenvectors.conj().T
    B = (dec.eigenvectors * b) @ dec.eigenvectors.conj().T
    expected = np.trace(D @ A @ B) - np.trace(D @ A) * np.trace(D @ B)
    for f in (fn.sld(), fn.harmonic(), fn.wyd(0.3), fn.kubo_mori()):
        assert_allclose(qt.gen_cov(f, D, A, B), expected, atol=1e-10)


def test_restriction_consistency_on_commuting_instances():
    # on the commutant both forms reduce to kernel-independent classical values
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        D = random_density(n, 0.03, rng)
        dec = linalg.eig_hermitian(D)
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        A = (dec.eigenvectors * a) @ dec.eigenvectors.conj().T
        B = (dec.eigenvectors * b) @ dec.eigenvectors.conj().T
        f = (fn.sld(), fn.harmonic(), fn.wyd(0.4), fn.kubo_mori())[int(rng.integers(0, 4))]
        cov_classical = np.trace(D @ A @ B) - np.trace(D @ A) * np.trace(D @ B)
        fisher_classical = np.trace(np.linalg.inv(D) @ A @ B)
        worst = max(worst, abs(qt.gen_cov(f, D, A, B) - cov_classical))
        worst = max(worst, abs(qt.fisher(f, D, A, B) - fisher_classical))
    assert worst <= 1e-10


def test_gen_cov_monotone_in_kernel():
    # pointwise order of kernels carries over to the quadratic form
    rng = np.random.default_rng(43)
    D = random_density(4, 0.03, rng)
    A = random_hermitian(4, rng)
    low = qt.gen_cov(fn.harmonic(), D, A, A).real
    high = qt.gen_cov(fn.sld(), D, A, A).real
    assert low <= high + 1e-12


def test_gen_cov_requires_standard_kernel(qubit_state, flip):
    with pytest.raises(DomainError):
        qt.gen_cov(fn.power_kernel(0.5), qubit_state, flip, flip)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_gen_cov_and_fisher_sesquilinear(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    D = random_density(n, 0.03, rng)
    A = random_hermitian(n, rng)
    B = random_hermitian(n, rng)
    C = random_hermitian(n, rng)
    z = complex(rng.standard_normal(), rng.standard_normal())
    f = fn.wyd(0.4)
    lhs = qt.gen_cov(f, D, A, z * B + C)
    rhs = z * qt.gen_cov(f, D, A, B) + qt.gen_cov(f, D, A, C)
    assert_allclose(lhs, rhs, atol=1e-12)
    lhs = qt.fisher(f, D, z * A + C, B)
    rhs = np.conj(z) * qt.fisher(f, D, A, B) + qt.fisher(f, D, C, B)
    assert_allclose(lhs, rhs, atol=1e-12)


def test_fisher_commutant_reduces_to_inverse_weighted_trace():
    rng = np.random.default_rng(44)
    D = random_density(3, 0.05, rng)
    dec = linalg.eig_hermitian(D)
    a = rng.standard_normal(3)
    A = (dec.eigenvectors * a) @ dec.eigenvectors.conj().T
    D_inv = linalg.apply_matrix_function(lambda x: 1.0 / x, D)
    expected = np.trace(D_inv @ A @ A)
    for f in (fn.sld(), fn.harmonic(), fn.wyd(0.7)):
        assert_allclose(qt.fisher(f, D, A, A), expected, atol=1e-10)


def test_fisher_hand_value_on_commutator(qubit_state, flip):
    B = 1j * linalg.commutator(qubit_state, flip)
    assert qt.fisher(fn.sld(), qubit_state, B, B).real == pytest.approx(1.0, abs=1e-13)


def test_fisher_orthogonality_of_commutant_and_commutators(qubit_state, flip):
    A = np.diag([1.0, -1.0]).astype(complex)  # commutes with the state
    B = 1j * linalg.commutator(qubit_state, flip)
    assert abs(qt.fisher(fn.wyd(0.3), qubit_state, A, B)) < 1e-12
    assert abs(qt.gen_cov(fn.wyd(0.3), qubit_state, A, B)) < 1e-12


def test_fisher_positive_definite():
    rng = np.random.default_rng(45)
    D = random_density(4, 0.03, rng)
    A = random_hermitian(4, rng)
    assert qt.fisher(fn.kubo_mori(), D, A, A).real > 0.0


def test_fisher_singular_kernel_refused(qubit_state, flip):
    vanish = fn.ScalarFunctionSpec("vanish", lambda x: x - x, 0.0, None, True, False)
    with pytest.raises(DomainError):
        qt.fisher(vanish, qubit_state, flip, flip)


def test_skew_info_examples(qubit_state, flip):
    assert qt.skew_info(fn.sld(), qubit_state, np.diag([1.0, -1.0])) == pytest.approx(0.0, abs=1e-14)
    assert qt.skew_info(fn.sld(), qubit_state, flip) == pytest.approx(0.25, abs=1e-13)
    expected = 1.0 - np.sqrt(3.0) / 2.0
    assert qt.skew_info(fn.wyd(0.5), qubit_state, flip) == pytest.approx(expected, abs=1e-13)


def test_skew_info_matches_fisher_on_commutator():
    rng = np.random.default_rng(46)
    D = random_density(4, 0.03, rng)
    X = random_hermitian(4, rng)
    B = 1j * linalg.commutator(D, X)
    f = fn.wyd(0.35)
    direct = qt.skew_info(f, D, X)
    via_fisher = 0.5 * f.value_at_zero * qt.fisher(f, D, B, B).real
    assert direct == pytest.approx(via_fisher, abs=1e-11)


def test_skew_info_unitary_covariance():
    rng = np.random.default_rng(47)
    D = random_density(4, 0.03, rng)
    X = random_hermitian(4, rng)
    U = linalg.phase_fixed_qr(linalg.ginibre(linalg.draw_ginibre(rng, (4, 4))))
    f = fn.wyd(0.6)
    assert qt.skew_info(f, U @ D @ U.conj().T, U @ X @ U.conj().T) == pytest.approx(
        qt.skew_info(f, D, X), abs=1e-9
    )


def test_wyd_direct_examples(qubit_state, flip):
    assert qt.wyd_direct(0.5, qubit_state, np.diag([2.0, 3.0])) == pytest.approx(0.0, abs=1e-14)
    expected = (np.sqrt(3.0) / 2.0 - 0.5) ** 2
    assert qt.wyd_direct(0.5, qubit_state, flip) == pytest.approx(expected, abs=1e-13)
    with pytest.raises(DomainError):
        qt.wyd_direct(0.0, qubit_state, flip)


def test_wyd_direct_p_symmetry():
    rng = np.random.default_rng(48)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        D = random_density(n, 0.03, rng)
        X = random_hermitian(n, rng)
        p = float(rng.uniform(0.05, 0.95))
        assert qt.wyd_direct(p, D, X) == pytest.approx(qt.wyd_direct(1.0 - p, D, X), abs=1e-12)


def test_wyd_direct_matches_skew_info():
    rng = np.random.default_rng(49)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        D = random_density(n, 0.03, rng)
        X = random_hermitian(n, rng)
        p = float(rng.uniform(0.05, 0.95))
        assert abs(qt.skew_info(fn.wyd(p), D, X) - qt.wyd_direct(p, D, X)) <= 1e-9


def test_skew_identity_hand_case(qubit_state, flip):
    # f(0) gamma = 1/2, 2 Cov = 2, 2 qCov with the covariance kernel = 3/2
    assert qt.skew_identity_residual(fn.sld(), qubit_state, flip) <= 1e-12


def test_skew_identity_commuting_case(qubit_state):
    X = center_observable(qubit_state, np.diag([1.0, 0.0]))
    assert qt.skew_identity_residual(fn.wyd(0.3), qubit_state, X) <= 1e-12


def test_skew_identity_random_instances():
    rng = np.random.default_rng(50)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        D = random_density(n, 0.02, rng)
        X = center_observable(D, random_hermitian(n, rng))
        f = (fn.sld(), fn.wyd(0.3), fn.wyd(0.5))[int(rng.integers(0, 3))]
        worst = max(worst, qt.skew_identity_residual(f, D, X))
    assert worst <= 1e-9


def test_skew_identity_preconditions(qubit_state):
    uncentered = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(InvariantViolation):
        qt.skew_identity_residual(fn.sld(), qubit_state, uncentered)
    centered = center_observable(qubit_state, uncentered)
    with pytest.raises(DomainError):
        qt.skew_identity_residual(fn.harmonic(), qubit_state, centered)


def test_commutator_direction_is_the_hermitian_part_of_i_commutator(qubit_state, flip):
    # i[D, X] with X the flip matrix gives [[0, i/2], [-i/2, 0]]
    B = qt.commutator_direction(qubit_state, flip)
    assert_allclose(B, [[0.0, 0.5j], [-0.5j, 0.0]], atol=1e-15)
    assert np.array_equal(B, B.conj().T)


def test_center_observable_values(qubit_state):
    out = center_observable(qubit_state, np.diag([1.0, 0.0]))
    assert_allclose(out, np.diag([0.25, -0.75]), atol=1e-14)
    assert_allclose(center_observable(qubit_state, np.eye(2)), np.zeros((2, 2)), atol=1e-14)
    already = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert_allclose(center_observable(qubit_state, already), already, atol=1e-14)


def _quantity_calls(D1, D2, X, A):
    f = fn.wyd(0.3)
    return {
        "skew_info": lambda: qt.skew_info(f, D1, X),
        "gen_cov": lambda: qt.gen_cov(f, D1, X, A),
        "fisher": lambda: qt.fisher(f, D1, X, A),
        "quasi_entropy": lambda: qt.quasi_entropy(fn.power_kernel(0.5), A, D1, D2),
        "umegaki": lambda: qt.umegaki(D1, D2),
        "renyi": lambda: qt.renyi(0.4, D1, D2),
        "sym_cov": lambda: qt.sym_cov(D1, X, A),
        "wyd_direct": lambda: qt.wyd_direct(0.3, D1, X),
        "skew_identity_residual": lambda: qt.skew_identity_residual(
            f, D1, center_observable(D1, X)
        ),
        "relmod_apply": lambda: linalg.relmod_apply(np.sqrt, D1, D2, A),
    }


_rng = np.random.default_rng(8)
_INSTANCE = (
    np.asarray(random_density(3, 0.05, _rng)),
    np.asarray(random_density(3, 0.05, _rng)),
    random_hermitian(3, _rng),
    _rng.standard_normal((3, 3)) + 1j * _rng.standard_normal((3, 3)),
)


@pytest.mark.parametrize(
    "name, eighs", [("skew_info", 1), ("gen_cov", 1), ("fisher", 1), ("quasi_entropy", 2)]
)
def test_pairings_decompose_each_state_once(name, eighs, eig_calls):
    _quantity_calls(*_INSTANCE)[name]()
    assert eig_calls == {"eigh": eighs, "eigvalsh": 0}


@pytest.mark.parametrize("name", list(_quantity_calls(*_INSTANCE)))
def test_state_input_is_bit_identical_and_skips_decomposition(name, monkeypatch):
    D1, D2, X, A = _INSTANCE
    expected = _quantity_calls(D1, D2, X, A)[name]()
    S1, S2 = linalg.state(D1), linalg.state(D2)
    call = _quantity_calls(S1, S2, X, A)[name]

    def refuse(*args, **kwargs):
        raise AssertionError("a State must not be decomposed again")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert np.array_equal(call(), expected)


def _two_d_sums(F, f, s1, s2, A, B):
    """quasi-entropy, gen_cov, sym_cov and fisher of one member as plain 2-D numpy sums."""
    W, (M,) = linalg.relmod_grid(F, s1, s2, A)
    quasi = np.sum(W * (np.abs(M) ** 2) * s1.eigenvalues[None, :])
    Wf, (At, Bt) = linalg.relmod_grid(f, s1, s1, A, B)
    w = s1.eigenvalues
    quad = np.sum(np.conj(At) * Bt * (w[None, :] * Wf))
    cov = quad - np.sum(w * np.conj(np.diagonal(At))) * np.sum(w * np.diagonal(Bt))
    D, Ah = s1.matrix, A.conj().T
    P, Q = D @ Ah, D @ B
    sym = 0.5 * (np.sum(P * B.T) + np.sum(Q * Ah.T)) - np.trace(P) * np.trace(Q)
    metric = np.sum(np.conj(At) * Bt / (w[None, :] * Wf))
    return complex(quasi), complex(cov), complex(sym), complex(metric)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_stacked_sums_equal_the_two_d_sums_member_by_member(n):
    rng = np.random.default_rng(n)
    s1 = linalg.state(np.stack([np.asarray(random_density(n, 0.5 / n, rng)) for _ in range(3)]))
    s2 = linalg.state(np.stack([np.asarray(random_density(n, 0.5 / n, rng)) for _ in range(2)]))
    A = np.stack([rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(3)])
    B = random_hermitian(n, rng)
    F, f = fn.power_kernel(0.3), fn.wyd(0.4)
    # (3, 1) states against (1, 2) states; operands broadcast over the first axis
    quasi = qt.quasi_entropy(F, A[:, None], s1[:, None], s2[None, :])
    cov = qt.gen_cov(f, s1, A, B)
    sym = qt.sym_cov(s1, A, B)
    metric = qt.fisher(f, s1, A, B)
    # one kernel per member of the stack
    kernels = (f, fn.sld(), fn.covariance_kernel(fn.extremal_metric(0.6)))
    per_member = qt.fisher(kernels, s1, A, B)
    comm = linalg.commutator(s1.matrix, A)
    assert quasi.shape == (3, 2) and cov.shape == sym.shape == metric.shape == (3,)
    assert per_member.shape == (3,) and per_member.dtype == complex
    for i in range(3):
        for j in range(2):
            q, c, s, m = _two_d_sums(F, f, s1[i], s2[j], A[i], B)
            assert quasi[i, j] == q.real
            assert cov[i] == c and sym[i] == s and metric[i] == m
            assert qt.gen_cov(f, s1[i], A[i], B) == c and qt.sym_cov(s1[i], A[i], B) == s
            assert qt.quasi_entropy(F, A[i], s1[i], s2[j]) == q
            assert qt.fisher(f, s1[i], A[i], B) == m
        assert np.array_equal(comm[i], linalg.commutator(s1[i].matrix, A[i]))
        assert per_member[i] == qt.fisher(kernels[i], s1[i], A[i], B)
        assert per_member[i] == _two_d_sums(F, kernels[i], s1[i], s2[0], A[i], B)[3]


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_stacked_skew_quantities_and_relmod_maps_equal_the_two_d_calls_member_by_member(n):
    rng = np.random.default_rng(40 + n)
    s1, s2 = (
        linalg.state(np.stack([np.asarray(random_density(n, 0.5 / n, rng)) for _ in range(3)]))
        for _ in range(2)
    )
    X = np.stack([random_hermitian(n, rng) for _ in range(3)])
    Xc = center_observable(s1, X)
    A = np.stack([rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(3)])
    f = (fn.wyd(0.3), fn.sld(), fn.hansen_mixture(fn.DiscreteMeasure((0.2, 0.7), (0.6, 0.4))))
    F = (fn.power_kernel(0.3), fn.neglog_kernel(), fn.sld())
    p = (0.2, 0.45, 0.85)
    skew, shared = qt.skew_info(f, s1, X), qt.skew_info(f[0], s1, X)
    residual = qt.skew_identity_residual(f, s1, Xc)
    wyd, wyd_shared = qt.wyd_direct(p, s1, X), qt.wyd_direct(0.3, s1, X)
    mapped, oracle = linalg.relmod_apply(F, s1, s2, A), linalg.relmod_dense(F, s1, s2, A)
    for values in (skew, shared, residual, wyd, wyd_shared):
        assert values.shape == (3,) and values.dtype == float
    assert mapped.shape == oracle.shape == (3, n, n)
    for j in range(3):
        assert skew[j] == qt.skew_info(f[j], s1[j], X[j])
        assert shared[j] == qt.skew_info(f[0], s1[j], X[j])
        assert residual[j] == qt.skew_identity_residual(f[j], s1[j], Xc[j])
        assert wyd[j] == qt.wyd_direct(p[j], s1[j], X[j])
        assert wyd_shared[j] == qt.wyd_direct(0.3, s1[j], X[j])
        assert np.array_equal(mapped[j], linalg.relmod_apply(F[j], s1[j], s2[j], A[j]))
        assert np.array_equal(oracle[j], linalg.relmod_dense(F[j], s1[j], s2[j], A[j]))
    with pytest.raises(DomainError, match="p must lie inside"):
        qt.wyd_direct((0.3, 1.0, 0.5), s1, X)
    with pytest.raises(DomainError, match="f\\(0\\) != 0"):
        qt.skew_identity_residual((f[0], fn.harmonic(), f[2]), s1, Xc)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_wyd_direct_takes_every_spelling_of_a_scalar_exponent_alike(n):
    rng = np.random.default_rng(60 + n)
    s = linalg.state(np.stack([np.asarray(random_density(n, 0.5 / n, rng)) for _ in range(3)]))
    X = np.stack([random_hermitian(n, rng) for _ in range(3)])
    for p in (0.5, 0.3):
        two_d = [qt.wyd_direct(p, s[j], X[j]) for j in range(3)]
        for spelling in (p, np.float64(p), np.array(p)):
            assert qt.wyd_direct(spelling, s, X).tolist() == two_d
            assert qt.wyd_direct(spelling, s[0], X[0]) == two_d[0]
    for bad in (np.nan, (0.5, np.nan, 0.5), np.array([0.3, 0.4, 0.6])):  # an array is not a tuple of exponents
        with pytest.raises(DomainError, match="p must lie inside"):
            qt.wyd_direct(bad, s, X)


def test_a_tuple_of_kernels_is_refused_when_any_is_not_standard():
    s = linalg.state(np.stack([np.asarray(random_density(2, 0.1, k)) for k in range(2)]))
    X = np.stack([np.eye(2, dtype=complex)] * 2)
    with pytest.raises(DomainError, match="standard kernel"):
        qt.fisher((fn.sld(), fn.power_kernel(0.5)), s, X, X)


def _bytes(value) -> bytes:
    return np.asarray(value).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_identity_operand_none_equals_the_identity_matrix_bit_for_bit(n):
    rng = np.random.default_rng(80 + n)

    def densities(*shape):
        k = int(np.prod(shape))
        return np.stack([np.asarray(random_density(n, 0.5 / n, rng)) for _ in range(k)]).reshape(*shape, n, n)

    eye = np.eye(n)
    D1, D2 = densities(4), densities(4)
    kernels = (fn.neglog_kernel(), fn.renyi_kernel(-0.4), fn.power_kernel(0.5), fn.wyd(0.3), np.sqrt)
    for F in kernels:
        assert _bytes(qt.quasi_entropy(F, None, D1[0], D2[0])) == _bytes(qt.quasi_entropy(F, eye, D1[0], D2[0]))
        assert _bytes(qt.quasi_entropy(F, None, D1, D2)) == _bytes(qt.quasi_entropy(F, eye, D1, D2))
    per_member = kernels[:4]
    assert _bytes(qt.quasi_entropy(per_member, None, D1, D2)) == _bytes(qt.quasi_entropy(per_member, eye, D1, D2))
    # the finite-difference stencil's broadcast: (m, S, 2, 1, n, n) x (m, S, 1, 2, n, n)
    pts = linalg.state(densities(3, 2, 2, 2))
    first, second = pts[:, :, 0, :, None], pts[:, :, 1, None, :]
    for F in (fn.power_kernel(2.0), (fn.neglog_kernel(), fn.wyd(0.3), fn.power_kernel(0.7))):
        g = qt.quasi_entropy(F, None, first, second)
        assert g.shape == (3, 2, 2, 2)
        assert _bytes(g) == _bytes(qt.quasi_entropy(F, eye, first, second))


def _record_threads(monkeypatch) -> list:
    """The threads started from now on, through ``threading.Thread``."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return started


@pytest.mark.parametrize("n", [47, 48, 64, 256])
def test_two_state_quantities_of_arrays_equal_two_sequential_state_calls_bit_for_bit(n, monkeypatch):
    for name in linalg.BLAS_THREAD_VARIABLES:
        monkeypatch.setenv(name, "1")
    started = _record_threads(monkeypatch)
    rng = np.random.default_rng(90 + n)
    D1, D2 = (np.asarray(random_density(n, 0.5 / n, rng)) for _ in range(2))
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    F = fn.power_kernel(0.5)
    threads = threading.active_count()
    for quantity in (
        lambda D1, D2: qt.quasi_entropy(F, A, D1, D2),
        qt.umegaki,
        lambda D1, D2: qt.renyi(-0.4, D1, D2),
        lambda D1, D2: linalg.relmod_apply(F, D1, D2, A),
    ):
        linalg._forget_states()
        expected = _bytes(quantity(linalg.state(D1, "first state"), linalg.state(D2, "second state")))
        linalg._forget_states()  # the arrays are unseen: the call decomposes both
        assert _bytes(quantity(D1, D2)) == expected
        assert threading.active_count() == threads
    # the pair is decomposed in turn on the caller's thread, and one operand has nothing to overlap
    assert started == []


@pytest.mark.parametrize("threads", [None, "2", "0", ""])
def test_nothing_runs_on_a_thread_unless_every_blas_variable_pins_one_thread(threads, monkeypatch):
    for name in linalg.BLAS_THREAD_VARIABLES:
        monkeypatch.setenv(name, "1")
    # one variable that is unset or not "1" leaves BLAS free to run threads of its own
    if threads is None:
        monkeypatch.delenv(linalg.BLAS_THREAD_VARIABLES[1])
    else:
        monkeypatch.setenv(linalg.BLAS_THREAD_VARIABLES[1], threads)
    started = _record_threads(monkeypatch)
    rng = np.random.default_rng(7)
    D1, D2 = (np.asarray(random_density(64, 0.5 / 64, rng)) for _ in range(2))
    assert _bytes(qt.umegaki(D1, D2)) == _bytes(qt.umegaki(linalg.state(D1), linalg.state(D2)))
    # the products of one call at the crossover: two unseen operands, wyd_direct's two sides
    n = linalg.PRODUCT_THREAD_DIM
    D, X = np.asarray(random_density(n, 0.5 / n, rng)), np.asarray(random_hermitian(n, rng))
    qt.gen_cov(fn.sld(), D, X, 1j * X)
    qt.wyd_direct(0.3, D, X)
    assert started == []


def _product_calls(n: int, seed: int) -> list:
    """``(name, call, threads it starts from the crossover on)`` for every call site of overlapped products.

    In this order on one density: gen_cov rotates two operands it has not
    seen, fisher finds both rotations, finds one of two and rotates the
    other in turn, and rotates two operands it has not seen; sym_cov's two
    matmuls run in turn; wyd_direct takes its two sides (a matrix power
    and its product with X) on two threads.
    """
    rng = np.random.default_rng(seed)
    D, X = np.asarray(random_density(n, 0.5 / n, rng)), np.asarray(random_hermitian(n, rng))
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    f = fn.wyd(0.3)
    return [
        ("gen_cov", lambda: qt.gen_cov(fn.sld(), D, X, A), 1),
        ("fisher remembered", lambda: qt.fisher(f, D, X, A), 0),
        ("fisher one remembered", lambda: qt.fisher(f, D, A, 2.0 * X), 0),
        ("fisher unseen", lambda: qt.fisher(f, D, A.conj(), 3.0 * X), 1),
        ("sym_cov", lambda: qt.sym_cov(D, X, A), 0),
        ("wyd_direct", lambda: qt.wyd_direct(0.3, D, X), 1),
    ]


@pytest.mark.parametrize("n", [linalg.PRODUCT_THREAD_DIM - 1, linalg.PRODUCT_THREAD_DIM, 256])
def test_products_overlapped_from_the_crossover_equal_the_products_in_turn_bit_for_bit(n, monkeypatch):
    monkeypatch.setenv(linalg.BLAS_THREAD_VARIABLES[0], "2")  # in turn at any n
    linalg._forget_states()
    in_turn = [_bytes(call()) for _, call, _ in _product_calls(n, 290 + n)]
    for name in linalg.BLAS_THREAD_VARIABLES:
        monkeypatch.setenv(name, "1")
    linalg._forget_states()
    started = _record_threads(monkeypatch)
    threads = threading.active_count()
    for (name, call, overlapped), expected in zip(_product_calls(n, 290 + n), in_turn):
        before = len(started)
        assert _bytes(call()) == expected, name
        assert len(started) - before == (overlapped if n >= linalg.PRODUCT_THREAD_DIM else 0), name
        assert threading.active_count() == threads and not any(t.is_alive() for t in started)


def _sym_cov_products(D, A, B):
    """sym_cov as the products it once formed: ``D(A*B + BA*)``, ``DA*`` and ``DB``, then their traces."""
    Ah = linalg.dagger(A)
    quad = 0.5 * (D @ (Ah @ B + B @ Ah)).trace(axis1=-2, axis2=-1)
    return quad - qt._product((D @ Ah).trace(axis1=-2, axis2=-1), (D @ B).trace(axis1=-2, axis2=-1))


def _wyd_direct_products(p, D, X):
    """wyd_direct as ``-Tr (AX - XA)(BX - XB) / 2`` with ``A = D^p``, ``B = D^{1-p}``: two products per commutator, and theirs."""
    A = linalg.apply_matrix_function(lambda x: x ** p, D)
    B = linalg.apply_matrix_function(lambda x: x ** (1.0 - p), D)
    return -0.5 * ((A @ X - X @ A) @ (B @ X - X @ B)).trace(axis1=-2, axis2=-1).real


@pytest.mark.parametrize("n", [2, 5, 64, 256])
def test_trace_forms_agree_with_the_explicit_products_and_stacks_with_their_members(n):
    rng = np.random.default_rng(330 + n)
    D = np.stack([np.asarray(random_density(n, 0.5 / n, rng)) for _ in range(3)])
    X = np.stack([random_hermitian(n, rng) for _ in range(3)])
    A = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    sym, wyd = qt.sym_cov(D, A, X), qt.wyd_direct(0.3, D, X)
    assert_allclose(sym, _sym_cov_products(D, A, X), rtol=1e-14, atol=0)
    assert_allclose(wyd, _wyd_direct_products(0.3, D, X), rtol=1e-14, atol=0)
    for j in range(3):
        assert sym[j] == qt.sym_cov(D[j], A[j], X[j]) and wyd[j] == qt.wyd_direct(0.3, D[j], X[j])
    ps = (0.3, 0.55, 0.8)
    per_member = qt.wyd_direct(ps, D, X)
    for j, p in enumerate(ps):
        assert_allclose(per_member[j], _wyd_direct_products(p, D[j], X[j]), rtol=1e-14, atol=0)
        assert per_member[j] == qt.wyd_direct(p, D[j], X[j])


@pytest.mark.parametrize("n", [2, 64, linalg.PRODUCT_THREAD_DIM, 256])
def test_sym_cov_starts_no_thread_even_with_blas_pinned(n, monkeypatch):
    for name in linalg.BLAS_THREAD_VARIABLES:
        monkeypatch.setenv(name, "1")
    started = _record_threads(monkeypatch)
    rng = np.random.default_rng(370 + n)
    D = np.asarray(random_density(n, 0.5 / n, rng))
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    qt.sym_cov(D, A, random_hermitian(n, rng))
    qt.sym_cov(np.stack([D, D]), A, A)
    assert started == []


def _raising_on(sides: set, original):
    """original, raising ``RuntimeError(side)`` instead on the threads of ``sides`` ("caller", "worker")."""

    def call(*args):
        side = "caller" if threading.current_thread() is threading.main_thread() else "worker"
        if side in sides:
            raise RuntimeError(side)
        return original(*args)

    return call


@pytest.mark.parametrize("sides", [{"caller"}, {"worker"}, {"caller", "worker"}], ids=["caller", "worker", "both"])
def test_a_raising_branch_raises_the_callers_exception_first_and_joins_its_thread(sides, monkeypatch):
    for name in linalg.BLAS_THREAD_VARIABLES:
        monkeypatch.setenv(name, "1")
    started = _record_threads(monkeypatch)
    threads = threading.active_count()
    expected = "caller" if "caller" in sides else "worker"
    with pytest.raises(RuntimeError, match=f"^{expected}$"):
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "PRODUCT_THREAD_DIM", 1)
            linalg._both(_raising_on(sides, lambda: 1), _raising_on(sides, lambda: 2), 1)
    calls = {name: call for name, call, _ in _product_calls(linalg.PRODUCT_THREAD_DIM, 390)}
    # gen_cov rotates the second operand on the worker, wyd_direct takes its second matrix power there
    for name, call in (("_rotate", calls["gen_cov"]), ("apply_matrix_function", calls["wyd_direct"])):
        linalg._forget_states()
        with monkeypatch.context() as patch:
            patch.setattr(linalg, name, _raising_on(sides, getattr(linalg, name)))
            with pytest.raises(RuntimeError, match=f"^{expected}$"):
                call()
    assert len(started) == 3 and threading.active_count() == threads
    assert not any(t.is_alive() for t in started)
