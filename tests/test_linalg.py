import dataclasses
import functools
import itertools
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from qig import functions as fn, linalg, quantities
from qig.errors import DomainError, InvariantViolation
from qig.verify import random_density, random_hermitian


def test_as_hermitian_symmetrizes_roundoff():
    M = np.array([[1.0, 0.5 + 1e-14j], [0.5 - 2e-14j, 2.0]])
    H = linalg.as_hermitian(M)
    assert_allclose(H, H.conj().T)


def test_as_hermitian_rejects_asymmetry():
    with pytest.raises(InvariantViolation):
        linalg.as_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_as_hermitian_rejects_nan():
    # a NaN asymmetry compares false against any tolerance
    with pytest.raises(InvariantViolation):
        linalg.as_hermitian(np.array([[np.nan, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)], ids=["nan", "inf", "-inf", "inf-j"]
)
def test_as_hermitian_names_non_finite_entries_without_warning(bad):
    M = np.array([[bad, 1.0], [1.0, 0.0]], dtype=complex)
    stack = np.stack([np.eye(2), M, np.eye(2)]).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for given in (M, stack):
            with pytest.raises(InvariantViolation, match="^matrix has non-finite entries$"):
                linalg.as_hermitian(given)


def _densities(k: int, n: int) -> np.ndarray:
    return np.stack([np.asarray(random_density(n, 0.5 / n, seed)) for seed in range(k)])


@pytest.mark.parametrize("n", [2, 3, 5])
def test_state_of_a_stack_equals_per_matrix_state(n, eig_calls):
    Ds = _densities(6, n).reshape(2, 3, n, n)
    before = eig_calls["eigh"]
    stacked = linalg.state(Ds)
    assert eig_calls["eigh"] - before == 1
    assert stacked.shape == (2, 3, n, n) and stacked.eigenvalues.shape == (2, 3, n)
    for i in range(2):
        for j in range(3):
            single = linalg.state(Ds[i, j])
            member = stacked[i, j]
            assert np.array_equal(member.eigenvalues, single.eigenvalues)
            assert np.array_equal(member.eigenvectors, single.eigenvectors)
            assert np.array_equal(member.matrix, single.matrix)


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[0.5, 0.5], [0.0, 0.5]]),
        np.diag([0.6, 0.6]),
        np.diag([1.0, 0.0]),
        np.diag([np.nan, 0.5]),
    ],
    ids=["non-hermitian", "non-unit-trace", "below-floor", "nan"],
)
def test_stack_with_one_bad_member_is_rejected_like_the_member(bad):
    Ds = _densities(3, 2)
    Ds[1] = bad
    with pytest.raises(InvariantViolation) as single:
        linalg.state(bad)
    for validate in (linalg.state, linalg.as_density):
        with pytest.raises(InvariantViolation) as got:
            validate(Ds)
        assert str(got.value) == str(single.value)


def test_only_a_stack_of_states_is_indexed():
    with pytest.raises(InvariantViolation):
        linalg.state(np.diag([0.5, 0.5]))[0]


def test_as_density_trace_and_floor():
    with pytest.raises(InvariantViolation):
        linalg.as_density(np.diag([0.6, 0.6]))
    with pytest.raises(InvariantViolation):
        linalg.as_density(np.diag([1.0, 0.0]))
    D = linalg.as_density(np.diag([0.75, 0.25]))
    assert_allclose(np.trace(D).real, 1.0)


@pytest.mark.parametrize(
    "M",
    [
        np.array([[0.5, 0.5], [0.0, 0.5]]),
        np.diag([0.6, 0.6]),
        np.diag([1.0, 0.0]),
        np.diag([np.nan, 0.5]),
    ],
    ids=["non-hermitian", "non-unit-trace", "below-floor", "nan"],
)
def test_state_rejects_like_as_density(M):
    with pytest.raises(InvariantViolation) as expected:
        linalg.as_density(M)
    with pytest.raises(InvariantViolation) as got:
        linalg.state(M)
    assert str(got.value) == str(expected.value)


def test_state_holds_validated_density_and_its_decomposition():
    D = np.asarray(random_density(3, 0.05, 4))
    s = linalg.state(D)
    assert np.array_equal(s.matrix, linalg.as_density(D)) and s.shape == (3, 3)
    dec = linalg.eig_hermitian(D)
    assert np.array_equal(s.eigenvalues, dec.eigenvalues)
    assert np.array_equal(s.eigenvectors, dec.eigenvectors)
    assert linalg.state(s) is s and linalg.eig_hermitian(s) is s
    assert linalg.as_density(s) is s.matrix


def test_state_reads_as_a_fresh_copy_of_its_matrix():
    s = linalg.state(np.diag([0.25, 0.75]).astype(complex))
    a = np.asarray(s)
    a[0, 0] = 7.0
    assert s.matrix[0, 0] == 0.25
    # numpy 1.x calls __array__ with no copy argument
    b = s.__array__()
    assert np.array_equal(b, s.matrix) and b is not s.matrix
    assert s.__array__(copy=False) is s.matrix


def test_states_and_decompositions_compare_and_hash_by_identity():
    s, t = linalg.state(np.asarray(random_density(3, 0.05, 5))), linalg.state(np.asarray(random_density(3, 0.05, 6)))
    same = linalg.State(s.eigenvalues, s.eigenvectors, s.matrix)  # equal fields, another object
    assert (s == t) is False and (s != t) is True and (s == same) is False and s == s
    assert s not in [t, same] and s in [t, s] and len({s, t, same, s}) == 3
    dec = linalg.eig_hermitian(np.eye(2))
    assert dec != linalg.SpectralDecomposition(dec.eigenvalues, dec.eigenvectors) and dec in {dec}


def test_eig_identity():
    dec = linalg.eig_hermitian(np.eye(2))
    assert_allclose(dec.eigenvalues, [1.0, 1.0])


def test_eig_diagonal_sorted():
    dec = linalg.eig_hermitian(np.diag([3.0, 1.0]))
    assert_allclose(dec.eigenvalues, [1.0, 3.0])


def test_eig_2x2_hand_case():
    # characteristic polynomial of [[2,1],[1,2]] gives 1 and 3 with (1, -1)/sqrt(2)
    # and (1, 1)/sqrt(2) eigenvectors
    H = np.array([[2.0, 1.0], [1.0, 2.0]])
    dec = linalg.eig_hermitian(H)
    assert_allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-12)
    v0, v1 = dec.eigenvectors[:, 0], dec.eigenvectors[:, 1]
    assert_allclose(np.abs(v0 @ np.array([1, -1]) / np.sqrt(2)), 1.0, atol=1e-12)
    assert_allclose(np.abs(v1 @ np.array([1, 1]) / np.sqrt(2)), 1.0, atol=1e-12)


@given(st.integers(0, 2**31 - 1), st.integers(2, 6))
@settings(max_examples=25, deadline=None)
def test_eig_invariants(seed, n):
    H = random_hermitian(n, np.random.default_rng(seed))
    dec = linalg.eig_hermitian(H)
    U, w = dec.eigenvectors, dec.eigenvalues
    assert np.all(np.diff(w) >= 0)
    assert_allclose((U * w) @ U.conj().T, H, atol=1e-10)
    assert_allclose(U.conj().T @ U, np.eye(n), atol=1e-10)


def test_apply_matrix_function_identity_and_square():
    H = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert_allclose(linalg.apply_matrix_function(lambda x: x, H), H, atol=1e-12)
    assert_allclose(
        linalg.apply_matrix_function(lambda x: x**2, np.diag([1.0, 2.0])),
        np.diag([1.0, 4.0]),
        atol=1e-12,
    )


def test_apply_matrix_function_sqrt():
    # the square root must square back to the input
    H = np.array([[2.0, 1.0], [1.0, 2.0]])
    R = linalg.apply_matrix_function(np.sqrt, H)
    assert_allclose(R @ R, H, atol=1e-12)
    assert_allclose(np.linalg.eigvalsh(R), [1.0, np.sqrt(3.0)], atol=1e-12)


def test_apply_matrix_function_domain_error():
    with pytest.raises(DomainError):
        linalg.apply_matrix_function(np.log, np.diag([1.0, -1.0]))


def test_a_constant_function_gives_an_array_of_the_points_shape():
    x = np.array([[0.5, 2.0], [1.0, 3.0]])
    vals = linalg.eval_scalar(lambda x: 1.0, x)
    assert vals.shape == x.shape and vals.dtype == float and (vals == 1.0).all()
    assert np.array_equal(linalg.apply_matrix_function(lambda x: 1.0, np.eye(2)), np.eye(2))
    stack = np.stack([np.eye(3), np.diag([0.2, 0.3, 0.5])])
    out = linalg.apply_matrix_function((lambda x: 2.0, lambda x: 3.0), stack)
    assert np.array_equal(out, np.stack([2.0 * np.eye(3), 3.0 * np.eye(3)]))
    with pytest.raises(DomainError):
        linalg.eval_scalar(lambda x: np.nan, x)


def test_eval_scalar_drops_roundoff_imaginary_parts_and_refuses_larger_ones():
    x = np.array([0.5, 1.0, 2.0])
    vals = linalg.eval_scalar(lambda x: x + 1e-12j, x)
    assert vals.dtype == float and np.array_equal(vals, x)
    with pytest.raises(DomainError, match="must be real-valued"):
        linalg.eval_scalar(lambda x: x + 1e-3j, x)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_stacked_apply_matrix_function_equals_the_two_d_call(n):
    stack = _densities(6, n).reshape(2, 3, n, n)
    for h in (np.log, np.sqrt, lambda x: x**0.3):
        out = linalg.apply_matrix_function(h, stack)
        assert out.shape == stack.shape
        for idx in np.ndindex(2, 3):
            assert np.array_equal(out[idx], linalg.apply_matrix_function(h, stack[idx]))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_stacked_phase_fixed_qr_equals_haar_unitary_member_by_member(n):
    for rows in (n, n + 1, 3 * n):
        rng = np.random.default_rng(10 * n + rows)
        raw = np.stack([linalg.draw_ginibre(rng, (rows, n)) for _ in range(4)])
        Q = linalg.phase_fixed_qr(linalg.ginibre(raw))
        assert Q.shape == (4, rows, n)
        assert_allclose(linalg.dagger(Q) @ Q, np.broadcast_to(np.eye(n), (4, n, n)), atol=1e-12)
        rng = np.random.default_rng(10 * n + rows)
        for member in Q:
            one = linalg.phase_fixed_qr(linalg.ginibre(linalg.draw_ginibre(rng, (rows, n))))
            assert np.array_equal(member, one)


@given(st.integers(0, 2**31 - 1), st.integers(2, 5))
@settings(max_examples=25, deadline=None)
def test_spectral_mapping(seed, n):
    H = random_hermitian(n, np.random.default_rng(seed))
    out = linalg.apply_matrix_function(np.exp, H)
    assert_allclose(
        np.sort(np.linalg.eigvalsh(out)),
        np.sort(np.exp(np.linalg.eigvalsh(H))),
        atol=1e-10,
    )


def test_relmod_identity_kernel_is_sandwich():
    D2 = np.diag([0.75, 0.25]).astype(complex)
    D1 = np.diag([0.5, 0.5]).astype(complex)
    A = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    out = linalg.relmod_apply(lambda x: x, D1, D2, A)
    assert_allclose(out, [[0.0, 1.5], [0.5, 0.0]], atol=1e-12)


def test_relmod_fixed_point_on_commutant(qubit_state):
    # [D, A] = 0 and F(1) = 1 leave A untouched
    A = np.diag([2.0, -1.0]).astype(complex)
    out = linalg.relmod_apply(lambda x: np.sqrt(x), qubit_state, qubit_state, A)
    assert_allclose(out, A, atol=1e-12)


def test_relmod_dense_scalar_case():
    one = np.array([[1.0]])
    out = linalg.relmod_dense(lambda x: x, one, one, [[2.0 - 1.0j]])
    assert out.shape == (1, 1)
    assert_allclose(out, [[2.0 - 1.0j]], atol=1e-12)


def test_relmod_dense_identity_kernel_is_kron():
    # the identity kernel gives D2 A D1^{-1}, the action of the Kronecker product D1^{-T} (x) D2
    rng = np.random.default_rng(5)
    D1 = random_density(3, 0.05, rng)
    D2 = random_density(3, 0.05, rng)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    out = linalg.relmod_dense(lambda x: x, D1, D2, A)
    assert_allclose(out, D2 @ A @ np.linalg.inv(D1), atol=1e-10)
    kron = np.kron(np.linalg.inv(D1).T, D2)
    assert_allclose(out.T.reshape(-1), kron @ A.T.reshape(-1), atol=1e-10)


def test_relmod_dense_matches_structured():
    rng = np.random.default_rng(11)
    D1 = random_density(3, 0.05, rng)
    D2 = random_density(3, 0.05, rng)
    for _ in range(10):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        dense = linalg.relmod_dense(np.sqrt, D1, D2, A)
        assert_allclose(linalg.relmod_apply(np.sqrt, D1, D2, A), dense, atol=1e-10)


@pytest.mark.parametrize("members", [1, 2])
def test_relmod_dense_in_chunks_equals_the_unchunked_call_bit_for_bit(members, monkeypatch):
    n, rng = 3, np.random.default_rng(12)
    D1 = _densities(6, n)
    D1, D2 = D1.reshape(2, 3, n, n), D1[::-1].reshape(2, 3, n, n)
    A = rng.standard_normal((2, 3, n, n)) + 1j * rng.standard_normal((2, 3, n, n))
    one, per_member, bad = fn.power_kernel(0.3), (fn.wyd(0.3),) * 3 + (fn.sld(),) * 3, (fn.sld(),) * 3
    flat = (M.reshape(6, n, n) for M in (D1, D2, A))
    cases = [(one, D1, D2, A), (one, D1[0], D2[0], A[0]), (per_member, *flat), (one, D1[1, 2], D2[1, 2], A[1, 2])]
    cases.append((per_member[2:4], D1, D2, A))  # a tuple pairs with the first axis: each row keeps its kernel
    whole = [linalg.relmod_dense(*case) for case in cases]
    with pytest.raises(InvariantViolation, match="^3 kernels do not match") as unchunked:
        linalg.relmod_dense(bad, D1, D2, A)
    superoperators, original = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda H: superoperators.append(H.shape) or original(H))
    monkeypatch.setattr(linalg, "DENSE_CHUNK_BYTES", members * 16 * n**4)  # room for `members` members
    for case, expected in zip(cases, whole):
        out = linalg.relmod_dense(*case)
        assert out.shape == expected.shape and out.tobytes() == np.ascontiguousarray(expected).tobytes()
    with pytest.raises(InvariantViolation, match="^3 kernels do not match") as chunked:
        linalg.relmod_dense(bad, D1, D2, A)
    assert str(chunked.value) == str(unchunked.value)
    chunks = lambda m: [(min(members, m - i), n * n, n * n) for i in range(0, m, members)]
    assert [s for s in superoperators if s[-1] == n * n] == chunks(6) + chunks(3) + chunks(6) + chunks(1) + chunks(6)


@pytest.mark.parametrize("kind", ["non-hermitian", "nan", "off-trace", "below-floor", "other-dimension"])
def test_relmod_dense_refuses_a_bad_second_density_as_relmod_apply_does(kind):
    D = np.asarray(random_density(3, 0.05, 13))
    bad = {
        "non-hermitian": D + np.triu(np.full((3, 3), 1e-3), 1),
        "nan": np.where(np.eye(3) == 1, np.nan, D),
        "off-trace": 1.1 * D,
        "below-floor": np.diag([1.0 - 2e-11, 1e-11, 1e-11]),
        "other-dimension": np.eye(2) / 2,
    }[kind]
    refusals = []
    for relmod in (linalg.relmod_apply, linalg.relmod_dense):
        with pytest.raises(InvariantViolation) as raised:
            relmod(fn.sld(), D, bad, np.eye(3))
        refusals.append(str(raised.value))
    assert refusals[0] == refusals[1]


def test_relmod_dense_dimension_guard():
    D = np.eye(33) / 33
    with pytest.raises(InvariantViolation, match="limited to dimension 32"):
        linalg.relmod_dense(lambda x: x, D, D, np.eye(33))


@given(st.integers(0, 2**31 - 1), st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_hs_inner_conjugate_symmetry_and_positivity(seed, n):
    # the relative modular map is self-adjoint and positive for the pairing Tr A* B
    rng = np.random.default_rng(seed)
    D1, D2 = (random_density(n, 0.5 / n, rng) for _ in range(2))
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    def hs(X, Y):
        return np.sum(np.conj(X) * Y)

    def delta(X):
        return linalg.relmod_apply(lambda x: x, D1, D2, X)

    assert_allclose(hs(A, delta(B)), np.conj(hs(B, delta(A))), atol=1e-10)
    assert hs(A, delta(A)).real >= 0.0


def test_commutator_examples():
    A = np.diag([2.0, 5.0])
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert_allclose(linalg.commutator(A, X), [[0.0, -3.0], [3.0, 0.0]], atol=1e-12)
    assert_allclose(linalg.commutator(X, X), np.zeros((2, 2)), atol=1e-15)
    assert_allclose(linalg.commutator(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])), np.zeros((2, 2)))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_relmod_grid_with_a_kernel_per_member_equals_each_kernels_grid(n):
    kernels = (fn.wyd(0.3), fn.power_kernel(0.5), fn.covariance_kernel(fn.extremal_metric(0.4)))
    s1 = linalg.state(_densities(3, n))
    s2 = linalg.state(_densities(6, n)[3:])
    A = np.random.default_rng(n).standard_normal((3, n, n)) + 0j
    W, (M,) = linalg.relmod_grid(kernels, s1, s2, A)
    assert W.shape == (3, n, n)
    for j, f in enumerate(kernels):
        Wj, (Mj,) = linalg.relmod_grid(f, s1[j], s2[j], A[j])
        assert np.array_equal(W[j], Wj) and np.array_equal(M[j], Mj)
    with pytest.raises(InvariantViolation, match="2 kernels"):
        linalg.relmod_grid(kernels[:2], s1, s2)
    with pytest.raises(InvariantViolation, match="3 kernels"):
        linalg.relmod_grid(kernels, s1[0], s2[0])


def _hansen_atoms(k: int, seed):
    """A Hansen mixture of k atoms drawn from the seed (or from a generator, which advances)."""
    rng = np.random.default_rng(seed)
    atoms = tuple(float(a) for a in rng.uniform(0.05, 1.0, size=k))
    return fn.hansen_mixture(fn.DiscreteMeasure(atoms, tuple(float(w) for w in rng.dirichlet(np.ones(k)))))


def _catalog_kernels():
    """Every catalog family, the scalar-exponent fast paths and repeats, for the grouped grids."""
    rng = np.random.default_rng(21)

    def hansen(k):
        return _hansen_atoms(k, rng)

    return (
        fn.sld(), fn.harmonic(), fn.kubo_mori(), fn.wyd(0.5), fn.wyd(0.3), fn.wyd(0.71),
        fn.extremal_metric(0.2), fn.extremal_metric(0.9), fn.extremal_metric(1.0),
        hansen(1), hansen(2), hansen(3), hansen(4), hansen(2), fn.hansen_mixture(fn.dirac(0.0)),
        fn.covariance_kernel(fn.wyd(0.4)), fn.covariance_kernel(fn.wyd(0.62)),
        fn.covariance_kernel(fn.extremal_metric(0.3)), fn.covariance_kernel(fn.extremal_metric(0.8)),
        fn.covariance_kernel(fn.harmonic()), fn.covariance_kernel(hansen(3)),
        fn.power_kernel(0.5), fn.power_kernel(1.0), fn.power_kernel(2.0), fn.power_kernel(0.3),
        fn.power_kernel(0.77), fn.neglog_kernel(), fn.renyi_kernel(0.5), fn.renyi_kernel(-0.4),
        fn.renyi_kernel(0.2), fn.wyd(0.3), fn.power_kernel(0.5), fn.sld(), fn.kubo_mori(),
        fn.extremal_kernel(0.4), fn.extremal_kernel(0.6), np.sqrt, lambda x: x * x,
    )


def _ratio_grids(m, n, rng):
    """``w_i / w_j`` grids with an exact diagonal of 1 and a pair of eigenvalues inside the series window."""
    w = rng.uniform(0.01, 1.0, size=(m, n))
    w[:, 1] = w[:, 0] * (1.0 + 3e-5)
    return w[:, :, None] / w[:, None, :]


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("order", range(4))
def test_grouped_kernel_grid_equals_each_kernels_call_bit_for_bit(order, monkeypatch):
    rng = np.random.default_rng(order)
    kernels = _catalog_kernels()
    if order:
        kernels = tuple(kernels[i] for i in rng.permutation(len(kernels)))
    x = _ratio_grids(len(kernels), 4, rng)
    assert np.all(np.diagonal(x, axis1=-2, axis2=-1) == 1.0)
    calls = []
    original = linalg.eval_scalar

    def counted(h, points):
        # a lone member's grid comes as it is, a group's as a stack
        calls.append(len(points) if np.ndim(points) == x.ndim else 1)
        return original(h, points)

    monkeypatch.setattr(linalg, "eval_scalar", counted)
    W = linalg._kernel_grid(kernels, x)
    # fewer calls than members: each family, and each repeated function, is one call
    assert sum(calls) == len(kernels) and len(calls) < len(kernels) - 12
    for j, f in enumerate(kernels):
        assert _bits(W[j]) == _bits(original(f, x[j])), getattr(f, "name", f)
    # a stack of matrices with one function per member, through the same groups
    H = np.stack([np.asarray(random_density(3, 0.05, rng)) for _ in kernels])
    out = linalg.apply_matrix_function(kernels, H)
    for j, f in enumerate(kernels):
        assert out[j].tobytes() == linalg.apply_matrix_function(f, H[j]).tobytes()


def test_grouped_kernel_grid_evaluates_a_family_in_one_call(monkeypatch):
    calls = []
    original = linalg.eval_scalar
    monkeypatch.setattr(linalg, "eval_scalar", lambda h, x: calls.append(len(x)) or original(h, x))
    ps = np.random.default_rng(2).uniform(0.05, 0.95, size=8)
    linalg._kernel_grid(tuple(fn.wyd(float(p)) for p in ps), _ratio_grids(8, 3, np.random.default_rng(3)))
    assert calls == [8]
    calls.clear()
    # equal parameters at a fast path keep their scalar: one call for the repeats, one for the rest
    kernels = (fn.power_kernel(0.5), fn.power_kernel(0.3), fn.power_kernel(0.5), fn.power_kernel(0.8))
    linalg._kernel_grid(kernels, _ratio_grids(4, 3, np.random.default_rng(4)))
    assert sorted(calls) == [2, 2]


def test_grouped_kernel_grid_raises_each_members_domain_error():
    x = _ratio_grids(3, 3, np.random.default_rng(5))
    x[1, 0, 2] = -0.5
    for bad in (fn.neglog_kernel(), fn.power_kernel(0.3), fn.renyi_kernel(0.4)):
        with pytest.raises(DomainError) as alone:
            linalg.eval_scalar(bad, x[1])
        kernels = (fn.power_kernel(0.7), bad, fn.sld())
        with pytest.raises(DomainError) as grouped:
            linalg._kernel_grid(kernels, x)
        assert str(grouped.value) == str(alone.value) == "scalar function is undefined on part of the spectrum"


def test_commutator_times_i_is_hermitian():
    rng = np.random.default_rng(3)
    A = random_hermitian(4, rng)
    B = random_hermitian(4, rng)
    C = 1j * linalg.commutator(A, B)
    assert_allclose(C, C.conj().T, atol=1e-12)


def test_superoperator_apply_matches_vec_convention():
    # each member of a stack of operands goes through its own member's map
    rng = np.random.default_rng(9)
    D1, D2 = (
        linalg.state(np.stack([np.asarray(random_density(2, 0.05, rng)) for _ in range(3)]))
        for _ in range(2)
    )
    A = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    expected = D2.matrix @ A @ np.linalg.inv(D1.matrix)
    assert_allclose(linalg.relmod_dense(lambda x: x, D1, D2, A), expected, atol=1e-10)


def _outcome(check, M):
    """What ``check(M)`` does: the exception type and message, or the bytes of its arrays."""
    try:
        out = check(M)
    except Exception as exc:  # noqa: BLE001  (the refusal itself is compared)
        return "raised", type(exc), str(exc)
    if isinstance(out, linalg.State):
        return "accepted", out.eigenvalues.tobytes(), out.eigenvectors.tobytes(), out.matrix.tobytes()
    return "accepted", out.tobytes()


def _member(check):
    """``check`` of a one-member stack, reduced to its member like a 2-D call."""
    return lambda M: check(M[None])[0]


_SINGLE_MATRICES = {
    "asymmetric": np.array([[0.5, 1e-3], [0.0, 0.5]]),
    "within-roundoff": np.array([[0.5, 0.1 + 1e-14j], [0.1 - 3e-14j, 0.5]]),
    "inf": np.array([[np.inf, 0.0], [0.0, 0.5]]),
    "imaginary-inf": np.array([[0.5, complex(0.0, np.inf)], [0.0, 0.5]]),
    "nan": np.array([[0.5, np.nan], [np.nan, 0.5]]),
    "off-trace": np.diag([0.6, 0.5]),
    "nan-trace": np.diag([np.nan, 0.5]),
    "below-floor": np.diag([1.0 - 1e-11, 1e-11]),
    "negative": np.diag([1.5, -0.5]),
    "density": np.asarray(random_density(4, 0.05, 8)),
}


@pytest.mark.parametrize("name", list(_SINGLE_MATRICES))
@pytest.mark.parametrize("check", [linalg.as_hermitian, linalg.as_density, linalg.state])
def test_a_single_matrix_is_decided_as_a_one_member_stack(check, name):
    # one matrix is decided on Python floats, by the stack's checks and with its messages
    M = _SINGLE_MATRICES[name].astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(check, M) == _outcome(_member(check), M)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_accepted_single_matrices_equal_the_stack_path_bit_for_bit(n):
    rng = np.random.default_rng(70 + n)
    for _ in range(5):
        D = np.asarray(random_density(n, 0.5 / n, rng))
        # roundoff asymmetry that both paths absorb
        D = D + 1e-15 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        for check in (linalg.as_hermitian, linalg.as_density, linalg.state):
            single = _outcome(check, D)
            assert single[0] == "accepted" and single == _outcome(_member(check), D)


def test_relmod_grid_spells_the_identity_operand_none():
    s1 = linalg.state(_densities(3, 4))
    s2 = linalg.state(_densities(6, 4)[3:])
    for F in (fn.power_kernel(0.5), (fn.sld(), fn.wyd(0.3), fn.harmonic())):
        W, (M,) = linalg.relmod_grid(F, s1, s2, None)
        W_eye, (M_eye,) = linalg.relmod_grid(F, s1, s2, np.eye(4))
        assert W.tobytes() == W_eye.tobytes() and M.tobytes() == M_eye.tobytes()


def _exponents(h) -> list:
    """The exponents (``p``, ``alpha``) of a called partial and of the partials among its parameters."""
    if not isinstance(h, functools.partial):
        return []
    own = [v for name, v in h.keywords.items() if name in ("p", "alpha")]
    return own + [e for v in h.keywords.values() for e in _exponents(v)]


def test_multiplicative_and_function_parameters_stack_and_exponents_keep_fast_scalars(monkeypatch):
    kernels = (
        fn.covariance_kernel(fn.sld()),  # f0 = 0.5 and the function base=_sld
        fn.hansen_mixture(fn.dirac(0.3)),  # weight 1.0
        fn.wyd(0.5),
        fn.extremal_metric(0.5),
        fn.power_kernel(0.5),
        fn.covariance_kernel(fn.sld()),
        fn.hansen_mixture(fn.dirac(0.8)),
        fn.wyd(0.3),
        fn.extremal_metric(0.25),
        fn.power_kernel(2.0),
        fn.power_kernel(0.3),
        fn.hansen_mixture(fn.DiscreteMeasure((0.2, 0.7), (0.5, 0.5))),
        fn.hansen_mixture(fn.DiscreteMeasure((0.4, 0.9), (0.25, 0.75))),
        fn.wyd(0.5),  # built apart from the first: one call with the scalar p
        _hansen_atoms(3, 1), _hansen_atoms(4, 2), _hansen_atoms(3, 3), _hansen_atoms(4, 4),
        fn.covariance_kernel(fn.wyd(0.5)), fn.covariance_kernel(fn.wyd(0.5)),
        fn.hessian_kernel(fn.power_kernel(0.5)), fn.hessian_kernel(fn.power_kernel(0.5)),
        fn.renyi_kernel(0.2), fn.renyi_kernel(-0.4),
        # a bare partial and a hand-made spec group by identity: one call each
        fn.extremal_kernel(0.4), fn.extremal_kernel(0.6),
        fn.ScalarFunctionSpec("hand-made", functools.partial(fn._power, alpha=0.3), 0.0),
    )
    x = _ratio_grids(len(kernels), 4, np.random.default_rng(11))
    calls = []
    original = linalg.eval_scalar

    def counted(h, points):
        calls.append((h, len(points) if np.ndim(points) == x.ndim else 1))
        return original(h, points)

    monkeypatch.setattr(linalg, "eval_scalar", counted)
    W = linalg._kernel_grid(kernels, x)
    for j, f in enumerate(kernels):
        assert _bits(W[j]) == _bits(original(f, x[j])), getattr(f, "name", f)
    # pairs: cov[sld], the Dirac mixtures, wyd:0.5, the extremal metrics, the mixtures of 2, 3
    # and 4 atoms, cov[wyd:0.5], hessian[power:0.5] and the renyi kernels; every other one alone
    assert sorted(size for _, size in calls) == [1] * 7 + [2] * 10
    # exponents at numpy's fast values keep their scalar, also inside a base; others stack
    exponents = [e for h, _ in calls for e in _exponents(h)]
    assert sorted(e for e in exponents if np.ndim(e) == 0 and e in fn._FAST_EXPONENTS) == [0.5] * 4 + [2.0]
    assert not any(np.isin(e, fn._FAST_EXPONENTS).any() for e in exponents if np.ndim(e))
    assert sum(np.ndim(e) > 0 for e in exponents) == 1  # the renyi pair's alpha


def test_catalog_constructors_give_equal_family_keys_exactly_to_members_that_may_stack():
    same = [
        (fn.wyd(0.3), fn.wyd(0.7)),
        (fn.wyd(0.5), fn.wyd(0.5)),
        (fn.extremal_metric(0.2), fn.extremal_metric(1.0)),
        (_hansen_atoms(3, 1), _hansen_atoms(3, 2)),
        (fn.covariance_kernel(fn.wyd(0.3)), fn.covariance_kernel(fn.wyd(0.6))),
        (fn.covariance_kernel(fn.wyd(0.5)), fn.covariance_kernel(fn.wyd(0.5))),
        (fn.covariance_kernel(fn.extremal_metric(0.3)), fn.covariance_kernel(fn.extremal_metric(0.8))),
        (fn.covariance_kernel(fn.sld()), fn.covariance_kernel(fn.sld())),
        (fn.hessian_kernel(fn.power_kernel(0.3)), fn.hessian_kernel(fn.power_kernel(0.7))),
        (fn.hessian_kernel(fn.neglog_kernel()), fn.hessian_kernel(fn.neglog_kernel())),
        (fn.hessian_kernel(_hansen_atoms(2, 1)), fn.hessian_kernel(_hansen_atoms(2, 2))),
        (fn.power_kernel(0.3), fn.power_kernel(1.5)),
        (fn.power_kernel(2.0), fn.power_kernel(2.0)),
        (fn.renyi_kernel(0.2), fn.renyi_kernel(-0.4)),
    ]
    different = [
        (fn.wyd(0.5), fn.wyd(0.3)),  # a fast exponent keeps its scalar
        (fn.power_kernel(0.5), fn.power_kernel(2.0)),
        (fn.power_kernel(1.0), fn.power_kernel(0.3)),
        (fn.renyi_kernel(0.5), fn.renyi_kernel(0.4)),
        (_hansen_atoms(3, 1), _hansen_atoms(4, 1)),  # the atom count
        (_hansen_atoms(1, 1), _hansen_atoms(2, 1)),
        (fn.covariance_kernel(fn.wyd(0.5)), fn.covariance_kernel(fn.wyd(0.3))),
        (fn.covariance_kernel(fn.wyd(0.3)), fn.covariance_kernel(fn.extremal_metric(0.3))),
        (fn.covariance_kernel(fn.sld()), fn.hessian_kernel(fn.sld())),
        (fn.hessian_kernel(fn.power_kernel(0.5)), fn.hessian_kernel(fn.power_kernel(0.3))),
        (fn.hessian_kernel(fn.neglog_kernel()), fn.hessian_kernel(fn.sld())),
        (fn.wyd(0.3), fn.power_kernel(0.3)),
        (fn.power_kernel(0.3), fn.renyi_kernel(0.3)),
    ]
    for a, b in same:
        assert type(a.family) is tuple and a.family == b.family and hash(a.family) == hash(b.family), a.name
    for a, b in different:
        assert a.family != b.family, (a.name, b.name)
    # functions without parameters, cov[f] of f(0) = 0 and hand-made specs declare none
    for f in (fn.sld(), fn.harmonic(), fn.kubo_mori(), fn.neglog_kernel(), fn.covariance_kernel(fn.harmonic()),
              fn.ScalarFunctionSpec("hand-made", functools.partial(fn._power, alpha=0.3), 0.0)):
        assert f.family is None, f.name



def _counted_grid(kernels, x, monkeypatch) -> tuple:
    """``_kernel_grid(kernels, x)`` and the functions of its eval_scalar calls with each call's member count."""
    calls = []
    original = linalg.eval_scalar

    def counted(h, points):
        calls.append((h, len(points) if np.ndim(points) == x.ndim else 1))
        return original(h, points)

    monkeypatch.setattr(linalg, "eval_scalar", counted)
    W = linalg._kernel_grid(kernels, x)
    monkeypatch.setattr(linalg, "eval_scalar", original)
    for j, f in enumerate(kernels):
        assert _bits(W[j]) == _bits(original(f, x[j])), getattr(f, "name", f)
    return W, calls


def test_bare_callables_and_hand_made_specs_group_by_their_functions_identity(monkeypatch):
    shared = functools.partial(fn._power, alpha=0.3)
    twin = functools.partial(fn._power, alpha=0.3)  # equal but another object
    kernels = (
        shared, twin, shared,
        fn.ScalarFunctionSpec("hand-made", shared, 0.0),
        fn.ScalarFunctionSpec("hand-made", functools.partial(fn._power, alpha=0.7), 0.0),
        fn.sld().fn, fn.sld(),
    )
    x = _ratio_grids(len(kernels), 4, np.random.default_rng(8))
    _, calls = _counted_grid(kernels, x, monkeypatch)
    # one object is one call of that object itself, never a stacked partial
    assert sorted(size for _, size in calls) == [1, 1, 2, 3]
    assert [h for h, size in calls if size == 3] == [shared]
    assert [h for h, size in calls if size == 2] == [fn.sld().fn]
    assert sum(h is twin for h, _ in calls) == 1


def test_grouping_reads_only_the_family_key_a_spec_declares(monkeypatch):
    base = fn.wyd(0.3)
    other = fn.wyd(0.7)
    # a hand-made spec of the family stacks with it once it declares the key
    declared = fn.ScalarFunctionSpec("hand-made wyd", other.fn, other.value_at_zero, family=base.family)
    undeclared = fn.ScalarFunctionSpec("hand-made wyd", other.fn, other.value_at_zero)
    x = _ratio_grids(3, 4, np.random.default_rng(9))
    _, calls = _counted_grid((base, declared, undeclared), x, monkeypatch)
    assert sorted(size for _, size in calls) == [1, 2]
    (stacked,) = [h for h, size in calls if size == 2]
    assert stacked.func is fn._wyd and np.shape(stacked.keywords["p"]) == (2, 1, 1)
    # the key is a field the constructor sets once; a copy of the spec keeps it
    assert dataclasses.replace(base, name="renamed").family is base.family

@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
@pytest.mark.parametrize("check", [linalg.as_hermitian, linalg.as_density, linalg.state])
def test_a_zero_dimension_is_refused(check, shape):
    with pytest.raises(InvariantViolation, match=r"must have a nonzero dimension, got shape \(.*0, 0\)"):
        check(np.zeros(shape))


def _pair_inputs(n: int) -> dict:
    """A density, one whose ``eigh`` the test makes fail, and one rejected input of each kind."""
    rng = np.random.default_rng(80 + n)
    good, stuck = (np.asarray(random_density(n, 0.5 / n, rng)) for _ in range(2))
    asymmetric, nan = good.copy(), good.copy()
    asymmetric[0, 1] += 1e-3
    nan[0, 1] = nan[1, 0] = np.nan
    below_floor = np.diag(np.r_[1e-11, np.full(n - 1, (1.0 - 1e-11) / (n - 1))])
    return {
        "good": good, "stuck": stuck, "asymmetric": asymmetric, "nan": nan,
        "off-trace": 1.1 * good, "below-floor": below_floor, "not-square": good[:, :-1],
        "empty": np.zeros((0, 0)), "text": "x", "ragged": [[1.0, 0.0], [0.0]],
    }


def _pair_outcome(call, D1, D2):
    """What ``call(D1, D2)`` does: the exception type and message, or the bytes of its States or array."""
    try:
        out = call(D1, D2)
    except Exception as exc:  # noqa: BLE001  (the refusal itself is compared)
        return "raised", type(exc), str(exc)
    if isinstance(out, tuple):
        return "accepted", [(s.eigenvalues.tobytes(), s.eigenvectors.tobytes(), s.matrix.tobytes()) for s in out]
    return "accepted", np.asarray(out).tobytes()


def _pair_in_turn(D1, D2):
    """What ``state_pair`` does in turn: validate D1, check D2 against it as an operand, validate D2."""
    s1 = linalg.state(D1, "first state")
    linalg._operand(D2, s1, "second state")
    return s1, linalg.state(D2, "second state")


@pytest.mark.parametrize("n", [3, linalg.PAIR_THREAD_DIM])
def test_a_rejected_pair_raises_what_two_sequential_state_calls_raise(n, monkeypatch):
    for name in linalg.BLAS_THREAD_VARIABLES:
        monkeypatch.setenv(name, "1")
    inputs = _pair_inputs(n)
    linalg._forget_states()  # random_density decomposed "stuck" before eigh fails on it
    original = np.linalg.eigh

    def eigh(H):
        if np.array_equal(H, inputs["stuck"]):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return original(H)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    F, A = fn.power_kernel(0.5), np.eye(n)
    calls = [
        (linalg.state_pair, _pair_in_turn),
        (lambda D1, D2: linalg.relmod_apply(F, D1, D2, A), lambda D1, D2: linalg.relmod_apply(F, *_pair_in_turn(D1, D2), A)),
        (quantities.umegaki, lambda D1, D2: quantities.umegaki(*_pair_in_turn(D1, D2))),
    ]
    threads = threading.active_count()
    for (k1, D1), (k2, D2) in itertools.product(inputs.items(), repeat=2):
        for call, sequential in calls:
            outcome = _pair_outcome(call, D1, D2)
            assert outcome == _pair_outcome(sequential, D1, D2), (k1, k2)
            assert outcome[0] == ("accepted" if k1 == k2 == "good" else "raised")
            # a ragged or text density is refused as one, not with numpy's conversion error
            assert outcome[0] == "accepted" or outcome[1] in (InvariantViolation, np.linalg.LinAlgError), (k1, k2)
            assert threading.active_count() == threads
