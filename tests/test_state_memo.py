"""``linalg.state`` remembers a working set of the single densities it accepted, and ``relmod_grid`` two rotations and a byte budget of kernel grids by them."""

import dataclasses
import functools
import sys
import threading

import numpy as np
import pytest

from qig import functions as fn, linalg, quantities as qt
from qig.errors import InvariantViolation
from qig.verify import random_hermitian


def _densities(n: int, k: int, seed: int) -> list:
    """k density arrays, drawn without a decomposition, and an empty memo."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(k):
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = G @ G.conj().T
        out.append(0.5 * rho / np.trace(rho).real + 0.5 * np.eye(n) / n)
    linalg._forget_states()
    return out


def _state_bits(s: linalg.State) -> tuple:
    return s.eigenvalues.tobytes(), s.eigenvectors.tobytes(), s.matrix.tobytes()


@pytest.fixture
def hermitian_calls(monkeypatch) -> list:
    """The shapes of the matrices that ``linalg.as_hermitian`` validates during the test."""
    calls, original = [], linalg.as_hermitian
    monkeypatch.setattr(linalg, "as_hermitian", lambda M: calls.append(np.shape(M)) or original(M))
    return calls


@pytest.fixture
def two_states(monkeypatch):
    """``linalg.state``'s memo holds two States at most, so that a third density evicts one."""
    monkeypatch.setattr(linalg, "_REMEMBERED", 2)


def test_a_repeated_density_is_not_decomposed_again_and_a_third_evicts_the_one_used_longest_ago(two_states, eig_calls):
    D1, D2, D3 = _densities(4, 3, 1)
    s1 = linalg.state(D1)
    assert eig_calls["eigh"] == 1
    assert linalg.state(D1.copy()) is s1 and eig_calls["eigh"] == 1
    s2 = linalg.state(D2)
    assert linalg.state(D2) is s2 and linalg.state(D1) is s1 and eig_calls["eigh"] == 2
    linalg.state(D3)  # D2 was used longest ago
    assert eig_calls["eigh"] == 3
    assert linalg.state(D1) is s1 and eig_calls["eigh"] == 3
    again = linalg.state(D2)
    assert again is not s2 and _state_bits(again) == _state_bits(s2) and eig_calls["eigh"] == 4


def test_inputs_that_differ_only_in_the_sign_of_a_zero_miss(eig_calls):
    D = np.diag([0.75, 0.25]).astype(complex)
    signed = D.copy()
    signed[0, 1] = complex(0.0, -0.0)  # the validated matrix keeps the imaginary -0.0
    assert np.array_equal(linalg.as_hermitian(D), linalg.as_hermitian(signed))
    assert linalg.as_hermitian(D).tobytes() != linalg.as_hermitian(signed).tobytes()
    s, t = linalg.state(D), linalg.state(signed)
    assert s is not t and eig_calls["eigh"] == 2
    assert s.matrix.tobytes() == linalg.as_hermitian(D).tobytes()
    assert t.matrix.tobytes() == linalg.as_hermitian(signed).tobytes()


def test_an_array_changed_in_place_misses(eig_calls, hermitian_calls):
    (D,) = _densities(3, 1, 2)
    original = D.copy()
    s = linalg.state(D)
    D[0, 1] += 1e-3
    D[1, 0] += 1e-3
    t = linalg.state(D)
    assert t is not s and eig_calls["eigh"] == 2 and hermitian_calls == [D.shape] * 2
    assert t.matrix.tobytes() == linalg.as_hermitian(D).tobytes()
    assert s.matrix.tobytes() == linalg.as_hermitian(original).tobytes()


def _outcome(D) -> tuple:
    try:
        linalg.state(D)
    except Exception as exc:  # noqa: BLE001  (the refusal itself is compared)
        return type(exc), str(exc)
    return ("accepted",)


def test_a_refused_density_raises_the_same_message_every_time(monkeypatch, hermitian_calls):
    (good,) = _densities(3, 1, 3)
    asymmetric = good.copy()
    asymmetric[0, 1] += 1e-3
    refused = {
        "off-trace": 1.1 * good,
        "below-floor": np.diag([1e-11, 0.5, 0.5 - 1e-11]),
        "asymmetric": asymmetric,
        "nan": np.where(np.eye(3) > 0, np.nan, good),
    }
    for D in refused.values():
        first = _outcome(D)
        assert first[0] is InvariantViolation
        assert [_outcome(D) for _ in range(3)] == [first] * 3
    assert linalg._state_memo.entries == [] and hermitian_calls == [(3, 3)] * 4 * len(refused)  # validated every time

    def eigh(H):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    for D in (good, refused["off-trace"], refused["below-floor"]):
        outcomes = [_outcome(D) for _ in range(3)]
        assert outcomes == [(np.linalg.LinAlgError, "eigendecomposition did not converge for state with shape (3, 3)")] * 3
    assert linalg._state_memo.entries == []


def test_remembered_arrays_refuse_writes():
    (D,) = _densities(3, 1, 4)
    s = linalg.state(D)
    for a in (s.eigenvalues, s.eigenvectors, s.matrix):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    assert D.flags.writeable and linalg.state(D) is s


def test_a_repeated_stack_is_decomposed_each_time_and_a_state_passes_through(eig_calls):
    stack = np.stack(_densities(3, 4, 5))
    s, t = linalg.state(stack), linalg.state(stack)
    assert s is not t and eig_calls["eigh"] == 2 and linalg._state_memo.entries == []
    assert s.matrix.flags.writeable and _state_bits(s) == _state_bits(t)
    assert linalg.state(s) is s and linalg.state(s[1]).matrix.base is not None
    assert eig_calls["eigh"] == 2 and linalg._state_memo.entries == []


def test_a_density_over_the_byte_cap_is_not_kept(monkeypatch, eig_calls):
    # exactly Hermitian: the remembered matrix is a view of the key, so it costs nothing more
    D1, D2 = (np.array(linalg.as_hermitian(D)) for D in _densities(3, 2, 6))
    one = 2 * D1.nbytes  # the key and the eigenvectors of one n = 3 state
    monkeypatch.setattr(linalg, "STATE_MEMO_BYTES", one - 1)
    s, t = linalg.state(D1), linalg.state(D1)
    assert s is not t and eig_calls["eigh"] == 2 and linalg._state_memo.entries == []
    assert s.matrix.flags.writeable and _state_bits(s) == _state_bits(t)
    monkeypatch.setattr(linalg, "STATE_MEMO_BYTES", one)  # room for one state only
    s1 = linalg.state(D1)
    s2 = linalg.state(D2)
    assert linalg.state(D2) is s2 and eig_calls["eigh"] == 4
    assert linalg.state(D1) is not s1 and eig_calls["eigh"] == 5


@pytest.mark.parametrize("n", [2, 16, 64])
def test_warm_and_cold_calls_give_the_same_bits(n, monkeypatch, eig_calls):
    # BLAS pinned to one thread, the setting in which _both may overlap products
    for name in linalg.BLAS_THREAD_VARIABLES:
        monkeypatch.setenv(name, "1")
    D1, D2 = _densities(n, 2, 7 + n)
    rng = np.random.default_rng(n)
    X = np.asarray(random_hermitian(n, rng))
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    F, f = fn.power_kernel(0.3), fn.wyd(0.3)
    calls = [
        lambda: qt.quasi_entropy(F, A, D1, D2),
        lambda: linalg.relmod_apply(F, D1, D2, A),
        lambda: qt.gen_cov(fn.sld(), D1, X, A),
        lambda: qt.fisher(fn.kubo_mori(), D1, X, A),
        lambda: qt.skew_info(f, D1, X),
        lambda: qt.umegaki(D1, D2),
        lambda: qt.renyi(-0.4, D1, D2),
        lambda: qt.wyd_direct(0.3, D1, X),
    ]
    for call in calls:
        linalg._forget_states()
        cold = np.asarray(call()).tobytes()
        decomposed = eig_calls["eigh"]
        assert np.asarray(call()).tobytes() == cold
        assert eig_calls["eigh"] == decomposed


def test_two_threads_alternating_over_three_densities_get_bit_identical_states(two_states):
    densities = _densities(8, 3, 8)
    expected = [_state_bits(linalg.state(D)) for D in densities]
    linalg._forget_states()
    start, seen = threading.Barrier(2), [[], []]

    def run(k: int):
        start.wait()
        for i in range(150):
            j = (i + k) % 3
            seen[k].append((j, _state_bits(linalg.state(densities[j]))))

    workers = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert all(bits == expected[j] for calls in seen for j, bits in calls)
    assert len(seen[0]) == len(seen[1]) == 150 and len(linalg._state_memo.entries) == 2


def _consistent(memo) -> bool:
    """The memo's index and order hold the same entries, within the count, and its byte total is theirs."""
    entries = memo.entries
    indexed = [entry for bucket in memo.index.values() for entry in bucket]
    return (
        len(entries) <= linalg._REMEMBERED
        and sorted(map(id, entries)) == sorted(map(id, indexed))
        and all(linalg._hashed(entry[0]) == h for h, bucket in memo.index.items() for entry in bucket)
        and memo.bytes == sum(size for _, _, size in entries)
    )


@pytest.mark.parametrize("count", [None, 4], ids=["default-count", "count-4"])
def test_three_threads_with_a_short_switch_interval_over_six_densities_get_bit_identical_states(count, monkeypatch):
    if count is not None:  # fewer than the densities: threads evict while others find without the lock
        monkeypatch.setattr(linalg, "_REMEMBERED", count)
    densities = _densities(8, 6, 10)
    expected = [_state_bits(linalg.state(D)) for D in densities]
    linalg._forget_states()
    start, wrong, broken, done = threading.Barrier(3), [], [], []

    def run(k: int):
        start.wait()
        for i in range(150):
            j = (i + 2 * k) % 6
            if _state_bits(linalg.state(densities[j])) != expected[j]:
                wrong.append(j)
            with linalg._memo_lock:
                if not _consistent(linalg._state_memo):
                    broken.append(i)
        done.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(k,)) for k in range(3)]  # more threads than cores
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers) and sorted(done) == [0, 1, 2]
    assert wrong == [] and broken == [] and _consistent(linalg._state_memo)
    assert len(linalg._state_memo.entries) == (6 if count is None else count)


def test_a_state_dropped_by_another_thread_as_it_is_found_is_a_hit_all_the_same(eig_calls):
    (D,) = _densities(3, 1, 11)
    s = linalg.state(D)

    class Order(type(linalg._state_memo.order)):
        def move_to_end(self, key, last=True):
            linalg._forget_states()  # what another thread may do between the lookup and the move
            return super().move_to_end(key, last)

    memo = linalg._state_memo
    original, memo.order = memo.order, Order(memo.order)
    try:
        assert linalg.state(D) is s and eig_calls["eigh"] == 1 and memo.entries == []
    finally:
        memo.order = original
        linalg._forget_states()


def test_bits_decomposed_on_two_threads_at_once_are_remembered_once(monkeypatch):
    (D,) = _densities(3, 1, 9)
    both_in_eigh, original = threading.Barrier(2, timeout=10), np.linalg.eigh

    def eigh(H):
        both_in_eigh.wait()  # each thread has missed before either remembers
        return original(H)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    out = [None, None]

    def run(k: int):
        out[k] = linalg.state(D.copy())

    workers = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert out[0] is out[1] and len(linalg._state_memo.entries) == 1


def test_as_density_of_a_remembered_density_makes_no_decomposition(eig_calls):
    (D,) = _densities(4, 1, 20)
    s = linalg.state(D)
    assert eig_calls == {"eigh": 1, "eigvalsh": 0}
    out = linalg.as_density(D.copy())
    assert eig_calls == {"eigh": 1, "eigvalsh": 0}
    assert out.tobytes() == s.matrix.tobytes()


def test_a_density_validated_by_as_density_is_remembered_by_state(eig_calls):
    (D,) = _densities(4, 1, 21)
    M = linalg.as_density(D)
    assert eig_calls == {"eigh": 1, "eigvalsh": 0}
    assert linalg.state(D).matrix is M and eig_calls == {"eigh": 1, "eigvalsh": 0}


def test_a_hit_neither_validates_nor_decomposes(eig_calls, hermitian_calls):
    (D,) = _densities(4, 1, 22)
    s = linalg.state(D)
    assert eig_calls["eigh"] == 1 and hermitian_calls == [(4, 4)]
    assert linalg.state(D) is s and linalg.state(D.copy()) is s and linalg.as_density(D) is s.matrix
    assert eig_calls["eigh"] == 1 and hermitian_calls == [(4, 4)]


def test_an_exactly_hermitian_complex_array_shares_its_bytes_and_another_keeps_its_validated_matrix_too():
    (D,) = _densities(3, 1, 23)
    exact = np.array(linalg.as_hermitian(D))  # validation leaves its bytes unchanged
    s, t = linalg.state(exact), linalg.state(D)
    assert [size for _, _, size in linalg._state_memo.entries] == [2 * D.nbytes, 3 * D.nbytes]
    assert s.matrix.tobytes() == exact.tobytes() and not s.matrix.flags.writeable
    assert t.matrix.tobytes() == linalg.as_hermitian(D).tobytes() and not t.matrix.flags.writeable


def test_a_real_array_and_its_complex_cast_are_two_entries_with_the_same_bits(eig_calls, hermitian_calls):
    real = np.diag([0.5, 0.3, 0.2]) + 0.05 * (np.ones((3, 3)) - np.eye(3))
    cast = real.astype(complex)
    s, t = linalg.state(real), linalg.state(cast)
    assert s is not t and eig_calls["eigh"] == 2 and len(linalg._state_memo.entries) == 2
    assert _state_bits(s) == _state_bits(t)
    assert linalg.state(real) is s and linalg.state(cast) is t and eig_calls["eigh"] == 2
    assert hermitian_calls == [(3, 3)] * 2


def test_fortran_ordered_and_strided_arrays_with_the_same_values_give_the_same_state(eig_calls):
    (D,) = _densities(5, 1, 24)
    padded = np.zeros((10, 10), dtype=complex)
    padded[::2, ::2] = D
    strided = padded[::2, ::2]
    assert not strided.flags.c_contiguous and np.asfortranarray(D).flags.f_contiguous
    cold = []
    for A in (D, np.asfortranarray(D), strided):
        linalg._forget_states()
        cold.append(_state_bits(linalg.state(A)))
    assert cold == [cold[0]] * 3 and eig_calls["eigh"] == 3
    s = linalg.state(strided)  # remembered by the last cold call
    assert linalg.state(D) is s and linalg.state(np.asfortranarray(D)) is s and eig_calls["eigh"] == 3


def test_a_list_is_validated_every_time_and_never_remembered(eig_calls, hermitian_calls):
    (D,) = _densities(3, 1, 25)
    first = linalg.state(D.tolist())
    again = linalg.state(D.tolist())
    assert again is not first and _state_bits(again) == _state_bits(first)
    assert eig_calls["eigh"] == 2 and hermitian_calls == [(3, 3)] * 2 and linalg._state_memo.entries == []
    assert first.matrix.flags.writeable
    assert _state_bits(linalg.state(D)) == _state_bits(first)


def test_two_sweeps_over_eight_densities_decompose_each_once_with_the_cold_bits(eig_calls):
    densities = _densities(64, 8, 26)
    first = [linalg.state(D) for D in densities]
    assert eig_calls["eigh"] == 8 and len(linalg._state_memo.entries) == 8
    again = [linalg.state(D.copy()) for D in densities]
    assert all(t is s for s, t in zip(first, again)) and eig_calls["eigh"] == 8
    for s in again:
        assert not any(a.flags.writeable for a in (s.eigenvalues, s.eigenvectors, s.matrix))
    for D, s in zip(densities, first):
        linalg._forget_states()
        assert _state_bits(linalg.state(D)) == _state_bits(s)


def test_the_count_binds_for_small_densities_and_evicts_the_one_used_longest_ago(eig_calls):
    densities = _densities(2, linalg._REMEMBERED + 1, 27)
    states = [linalg.state(D) for D in densities[:-1]]
    assert linalg.state(densities[0]) is states[0]  # now the newest; densities[1] was used longest ago
    linalg.state(densities[-1])
    assert len(linalg._state_memo.entries) == linalg._REMEMBERED and eig_calls["eigh"] == linalg._REMEMBERED + 1
    assert linalg.state(densities[0]) is states[0] and linalg.state(densities[2]) is states[2]
    assert eig_calls["eigh"] == linalg._REMEMBERED + 1
    assert linalg.state(densities[1]) is not states[1] and eig_calls["eigh"] == linalg._REMEMBERED + 2


def test_the_byte_cap_still_evicts_the_one_used_longest_ago(monkeypatch, eig_calls):
    D1, D2, D3, D4 = (np.array(linalg.as_hermitian(D)) for D in _densities(3, 4, 28))
    monkeypatch.setattr(linalg, "STATE_MEMO_BYTES", 3 * 2 * D1.nbytes)  # room for three shared states
    s1, s2, s3 = linalg.state(D1), linalg.state(D2), linalg.state(D3)
    assert linalg.state(D1) is s1 and eig_calls["eigh"] == 3  # D2 is now the one used longest ago
    linalg.state(D4)
    assert [size for _, _, size in linalg._state_memo.entries] == [2 * D1.nbytes] * 3
    assert linalg._state_memo.bytes == 3 * 2 * D1.nbytes
    assert linalg.state(D1) is s1 and linalg.state(D3) is s3 and eig_calls["eigh"] == 4
    assert linalg.state(D2) is not s2 and eig_calls["eigh"] == 5


def test_two_densities_with_the_same_hashed_prefix_are_two_entries_and_never_a_false_hit(eig_calls):
    (D1,) = _densities(64, 1, 29)
    D2 = D1.copy()
    D2[2, 3] += 1e-3  # the first row, and so the hashed prefix of the bytes, is unchanged
    D2[3, 2] += 1e-3
    k1, k2 = linalg._memo_key(D1), linalg._memo_key(D2)
    assert D1.shape[1] * D1.itemsize > linalg._HASHED_BYTES and linalg._hashed(k1) == linalg._hashed(k2) and k1 != k2
    s1, s2 = linalg.state(D1), linalg.state(D2)
    assert s1 is not s2 and eig_calls["eigh"] == 2 and len(linalg._state_memo.entries) == 2
    assert s1.matrix.tobytes() == linalg.as_hermitian(D1).tobytes()
    assert s2.matrix.tobytes() == linalg.as_hermitian(D2).tobytes()
    assert linalg.state(D1.copy()) is s1 and linalg.state(D2.copy()) is s2 and eig_calls["eigh"] == 2


def test_stacks_lists_and_hits_take_no_lock(monkeypatch, eig_calls):
    taken = []

    class Lock:
        def __enter__(self):
            taken.append(1)

        def __exit__(self, *exc):
            return False

    small, large = np.stack(_densities(3, 2, 31)), np.stack(_densities(48, 2, 32))
    monkeypatch.setattr(linalg, "_memo_lock", Lock())
    for name in linalg.BLAS_THREAD_VARIABLES:  # a pinned process takes the same paths
        monkeypatch.setenv(name, "1")
    linalg.state(small), linalg.state(small[0].tolist()), linalg.state_pair(small, small[::-1])
    linalg.state_pair(large, large[::-1])
    assert eig_calls["eigh"] == 6 and taken == []
    s, t = linalg.state(small[0]), linalg.state(large[0])
    assert taken == [1, 1]  # the two keeps
    assert linalg.state(small[0].copy()) is s and linalg.state_pair(small[0], small[0].copy()) == (s, s)
    assert linalg.state_pair(large[0], large[0].copy()) == (t, t) and eig_calls["eigh"] == 8 and taken == [1, 1]


# ``relmod_grid`` remembers the rotation ``U2* A V`` of a single operand while both States are remembered


@pytest.fixture
def rotations(monkeypatch) -> list:
    """One entry per rotation computed (its two matmuls) during the test, with ``state``'s memo emptied first."""
    linalg._forget_states()
    calls, original = [], linalg._rotate
    monkeypatch.setattr(linalg, "_rotate", lambda s1, s2, A: calls.append(np.shape(A)) or original(s1, s2, A))
    return calls


def _bits(value) -> bytes:
    return np.asarray(value).tobytes()


@pytest.mark.parametrize("n", [4, 64])
def test_a_remembered_rotation_gives_the_cold_bits_and_makes_no_matmul(n, rotations):
    D1, D2 = _densities(n, 2, 30 + n)
    rng = np.random.default_rng(n)
    X = np.asarray(random_hermitian(n, rng))
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    F, f = fn.power_kernel(0.3), fn.wyd(0.3)
    chains = {
        # gen_cov rotates X and A by D1; fisher and skew_info find both
        2: [lambda: qt.gen_cov(fn.sld(), D1, X, A), lambda: qt.fisher(f, D1, X, A), lambda: qt.skew_info(f, D1, X)],
        # quasi_entropy rotates A by (D2, D1); relmod_apply finds it
        1: [lambda: qt.quasi_entropy(F, A, D1, D2), lambda: linalg.relmod_apply(F, D1, D2, A)],
    }
    for rotated, chain in chains.items():
        cold = []
        for call in chain:
            linalg._forget_states()
            cold.append(_bits(call()))
        linalg._forget_states()
        del rotations[:]
        assert [_bits(call()) for call in chain] == cold
        assert len(rotations) == rotated
        assert [_bits(call()) for call in chain] == cold and len(rotations) == rotated


def test_an_operand_changed_in_place_or_in_the_sign_of_a_zero_misses(rotations):
    (D,) = _densities(3, 1, 40)
    A = np.array([[0.5, 0.0, 0.1j], [0.2, 0.3, 0.0], [0.0, 0.4, 0.1]], dtype=complex)
    f = fn.sld()
    first = qt.fisher(f, D, A, A)
    assert len(rotations) == 1 and qt.fisher(f, D, A, A) == first and len(rotations) == 1
    A[0, 0] += 1e-3
    changed = _bits(qt.fisher(f, D, A, A))
    assert len(rotations) == 2
    signed = A.copy()
    signed[0, 1] = complex(-0.0, 0.0)
    assert np.array_equal(signed, A) and signed.tobytes() != A.tobytes()
    qt.fisher(f, D, signed, signed)
    assert len(rotations) == 3
    assert [key[5] for key, _, _ in linalg._rotation_memo.entries] == [A.tobytes(), signed.tobytes()]
    linalg._forget_states()
    assert _bits(qt.fisher(f, D, A, A)) == changed


def test_stacks_unheld_states_and_lists_are_never_kept(rotations):
    densities = _densities(3, 3, 41)
    stack = np.stack(densities)
    rng = np.random.default_rng(41)
    X = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    f = fn.sld()
    first = qt.fisher(f, stack, X, X[::-1].copy())
    assert _bits(qt.fisher(f, stack, X, X[::-1].copy())) == _bits(first)
    assert len(rotations) == 4 and linalg._rotation_memo.entries == []
    s = linalg.state(densities[0])
    unheld = linalg.State(s.eigenvalues, s.eigenvectors, s.matrix)  # equal to a remembered State, but not it
    for _ in range(2):
        linalg.relmod_grid(f, unheld, unheld, X[0])
        linalg.relmod_grid(f, s, linalg.state(stack), X[0])
        linalg.relmod_grid(f, s, s, X[0].tolist())
    assert len(rotations) == 4 + 2 * 3 and linalg._rotation_memo.entries == []


def test_an_operand_of_another_layout_is_an_entry_of_its_own(rotations):
    (D,) = _densities(4, 1, 46)
    rng = np.random.default_rng(46)
    C = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    padded = np.zeros((4, 8), dtype=complex)
    padded[:, ::2] = C
    layouts = {"C": C, "F": np.asfortranarray(C), "strided": padded[:, ::2]}
    f, cold = fn.sld(), {}
    for name, A in layouts.items():
        linalg._forget_states()
        s = linalg.state(D)
        cold[name] = linalg.relmod_grid(f, s, s, A)[1][0].tobytes()
    linalg._forget_states()
    s = linalg.state(D)
    del rotations[:]
    _, (c,) = linalg.relmod_grid(f, s, s, C)
    _, (fo,) = linalg.relmod_grid(f, s, s, layouts["F"])  # the same bytes in C order, other strides: a miss
    assert len(rotations) == 2 and c.tobytes() == cold["C"] and fo.tobytes() == cold["F"]
    assert linalg.relmod_grid(f, s, s, C.copy())[1][0] is c
    assert linalg.relmod_grid(f, s, s, np.asfortranarray(C.copy()))[1][0] is fo and len(rotations) == 2
    _, (st,) = linalg.relmod_grid(f, s, s, layouts["strided"])
    assert len(rotations) == 3 and st.tobytes() == cold["strided"]
    assert linalg.relmod_grid(f, s, s, padded.copy()[:, ::2])[1][0] is st and len(rotations) == 3


def test_a_rotation_lives_while_state_remembers_both_of_its_states(two_states, rotations):
    D1, D2, D3 = _densities(3, 3, 42)
    A = np.random.default_rng(42).standard_normal((3, 3)) + 0j
    F = fn.power_kernel(0.5)
    qt.quasi_entropy(F, A, D1, D2)
    assert len(rotations) == 1 and len(linalg._rotation_memo.entries) == 1
    linalg.state(D2), linalg.state(D1)  # found: nothing leaves the memo
    linalg.relmod_apply(F, D1, D2, A)
    assert len(rotations) == 1 and len(linalg._rotation_memo.entries) == 1
    linalg.state(D3)  # D2 leaves the memo, and its rotation with it
    assert linalg._rotation_memo.entries == []
    linalg.relmod_apply(F, D1, D2, A)  # D2 decomposed again: a new State, rotated anew
    assert len(rotations) == 2 and len(linalg._rotation_memo.entries) == 1
    linalg._forget_states()
    assert linalg._state_memo.entries == [] and linalg._rotation_memo.entries == []


@pytest.mark.parametrize("n", [4, 64])
def test_renyi_after_umegaki_finds_the_identity_rotation_with_the_cold_bits(n, rotations):
    D1, D2 = _densities(n, 2, 60 + n)
    chain = [lambda: qt.umegaki(D1, D2), lambda: qt.renyi(-0.4, D1, D2), lambda: qt.renyi(0.7, D1, D2),
             lambda: qt.quasi_entropy(fn.power_kernel(0.3), None, D1, D2)]
    cold = []
    for call in chain:
        linalg._forget_states()
        cold.append(_bits(call()))
    linalg._forget_states()
    del rotations[:]
    assert [_bits(call()) for call in chain] == cold and rotations == [()]
    s1, s2 = linalg.state(D1), linalg.state(D2)
    # keyed by the two States alone, and counting only the rotation's bytes
    assert [(key, size) for key, _, size in linalg._rotation_memo.entries] == [((s1, s2, b""), 16 * n * n)]
    kept = linalg._rotation_memo.entries[0][1]
    assert linalg.relmod_grid(fn.sld(), s1, s2, None, D1)[1][0] is kept and rotations == [(), (n, n)]
    qt.umegaki(D2, D1)  # the other order is another rotation
    assert rotations == [(), (n, n), ()] and len(linalg._rotation_memo.entries) == 2


def test_an_identity_rotation_lives_while_state_remembers_both_of_its_states(two_states, rotations):
    D1, D2, D3 = _densities(3, 3, 62)
    first = qt.umegaki(D1, D2)
    assert rotations == [()] and len(linalg._rotation_memo.entries) == 1
    linalg.state(D2), linalg.state(D1)  # found: nothing leaves the memo
    qt.renyi(0.5, D1, D2)
    assert rotations == [()]
    with pytest.raises(ValueError, match="read-only"):
        linalg._rotation_memo.entries[0][1][0, 0] = 0.0
    linalg.state(D3)  # D2 leaves the memo, and the identity rotation with it
    assert linalg._rotation_memo.entries == []
    assert qt.umegaki(D1, D2) == first and rotations == [(), ()] and len(linalg._rotation_memo.entries) == 1
    linalg.state(D3)  # now D1, used longest ago, leaves, and the rotation with it
    assert linalg._rotation_memo.entries == []


def test_identity_rotations_of_stacks_and_unheld_states_are_never_kept(rotations):
    densities = _densities(3, 3, 63)
    stack = np.stack(densities)
    first = qt.umegaki(stack, stack[::-1].copy())
    assert _bits(qt.umegaki(stack, stack[::-1].copy())) == _bits(first)
    assert rotations == [(), ()] and linalg._rotation_memo.entries == []
    s = linalg.state(densities[0])
    unheld = linalg.State(s.eigenvalues, s.eigenvectors, s.matrix)  # equal to a remembered State, but not it
    for _ in range(2):
        qt.umegaki(unheld, s)
        qt.umegaki(s, linalg.state(stack))
        qt.renyi(0.5, linalg.state(stack), s)
    assert len(rotations) == 2 + 2 * 3 and linalg._rotation_memo.entries == []


def test_a_rotation_whose_state_leaves_the_memo_while_it_is_rotated_is_not_kept(two_states, monkeypatch):
    D1, D2, D3 = _densities(3, 3, 47)
    A = np.random.default_rng(47).standard_normal((3, 3)) + 0j
    s1, s2 = linalg.state(D1), linalg.state(D2)
    original = linalg._rotate

    def rotate(s1, s2, A):
        linalg.state(D3)  # D1, used longest ago, leaves the memo; D2 stays
        return original(s1, s2, A)

    monkeypatch.setattr(linalg, "_rotate", rotate)
    _, (M,) = linalg.relmod_grid(fn.sld(), s1, s2, A)
    held = [entry[1] for entry in linalg._state_memo.entries]
    assert s1 not in held and s2 in held
    assert linalg._rotation_memo.entries == [] and M.flags.writeable
    monkeypatch.setattr(linalg, "_rotate", original)
    assert linalg.relmod_grid(fn.sld(), s1, s2, A)[1][0].tobytes() == M.tobytes()


def test_a_density_decomposed_to_be_remembered_holds_no_rotation_through_its_eigh(monkeypatch):
    D1, D2 = _densities(3, 2, 49)
    A = np.random.default_rng(49).standard_normal((3, 3)) + 0j
    s = linalg.state(D1)
    linalg.relmod_grid(fn.sld(), s, s, A)
    assert len(linalg._rotation_memo.entries) == 1
    held, original = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda H: held.append(len(linalg._rotation_memo.entries)) or original(H))
    linalg.state(D2.tolist())  # never remembered: the rotation stays
    assert held == [1] and len(linalg._rotation_memo.entries) == 1
    with pytest.raises(InvariantViolation, match="unit trace"):
        linalg.state(1.1 * D2)  # refused after its eigh, which held no rotation
    assert held == [1, 0] and linalg._rotation_memo.entries == []


def test_a_rotation_kept_during_an_eigh_leaves_with_the_state_that_eigh_drops(two_states, monkeypatch):
    D1, D2, D3 = _densities(3, 3, 51)
    A = np.random.default_rng(51).standard_normal((3, 3)) + 0j
    s1, _ = linalg.state(D1), linalg.state(D2)
    kept, original = [], np.linalg.eigh

    def eigh(H):  # what another thread may do while this one decomposes D3
        linalg.relmod_grid(fn.sld(), s1, s1, A)
        kept.append(len(linalg._rotation_memo.entries))
        return original(H)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    linalg.state(D3)  # D1, used longest ago, leaves the memo
    assert kept == [1] and s1 not in [entry[1] for entry in linalg._state_memo.entries]
    assert linalg._rotation_memo.entries == []


def test_a_rotation_over_the_byte_cap_is_not_kept(monkeypatch, rotations):
    (D,) = _densities(3, 1, 48)
    rng = np.random.default_rng(48)
    X, Y = (np.asarray(random_hermitian(3, rng)) for _ in range(2))
    s = linalg.state(D)  # kept under the default cap, and held whatever the cap becomes
    one = 2 * X.nbytes  # the key's bytes and the rotation of one n = 3 complex operand
    monkeypatch.setattr(linalg, "STATE_MEMO_BYTES", one - 1)
    _, (M,) = linalg.relmod_grid(fn.sld(), s, s, X)
    _, (again,) = linalg.relmod_grid(fn.sld(), s, s, X)
    assert again is not M and len(rotations) == 2 and linalg._rotation_memo.entries == []
    assert M.flags.writeable and again.tobytes() == M.tobytes()
    monkeypatch.setattr(linalg, "STATE_MEMO_BYTES", one)  # room for one rotation only
    _, (Mx,) = linalg.relmod_grid(fn.sld(), s, s, X)
    _, (My,) = linalg.relmod_grid(fn.sld(), s, s, Y)
    assert [size for _, _, size in linalg._rotation_memo.entries] == [one] and len(rotations) == 4
    assert linalg.relmod_grid(fn.sld(), s, s, Y)[1][0] is My and len(rotations) == 4
    assert linalg.relmod_grid(fn.sld(), s, s, X)[1][0] is not Mx and len(rotations) == 5


def test_remembered_rotations_refuse_writes(rotations):
    (D,) = _densities(3, 1, 43)
    s = linalg.state(D)
    X = np.asarray(random_hermitian(3, np.random.default_rng(43)))
    _, (first,) = linalg.relmod_grid(fn.sld(), s, s, X)
    _, (again,) = linalg.relmod_grid(fn.wyd(0.3), s, s, X.copy())
    assert again is first and len(rotations) == 1
    with pytest.raises(ValueError, match="read-only"):
        again[0, 0] = 0.0
    assert X.flags.writeable


@pytest.mark.parametrize("stacked", [False, True], ids=["2-D", "stack"])
def test_one_operand_given_twice_is_rotated_once(stacked, rotations):
    densities = _densities(4, 3, 44)
    rng = np.random.default_rng(44)
    D = np.stack(densities) if stacked else densities[0]
    X = rng.standard_normal(np.shape(D)) + 1j * rng.standard_normal(np.shape(D))
    s, f = linalg.state(D), fn.sld()
    _, (At, Bt) = linalg.relmod_grid(f, s, s, X, X)
    assert At is Bt and len(rotations) == 1
    linalg._forget_states()
    _, (Ac, Bc) = linalg.relmod_grid(f, linalg.state(D), linalg.state(D), X, X.copy())
    assert Ac.tobytes() == At.tobytes() and Bc.tobytes() == Bt.tobytes()
    assert _bits(qt.gen_cov(f, s, X, X)) == _bits(qt.gen_cov(f, linalg.state(D), X, X.copy()))


def test_two_threads_alternating_over_three_pairs_get_bit_identical_results():
    densities = _densities(8, 3, 45)
    rng = np.random.default_rng(45)
    operands = [rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)) for _ in range(3)]
    f, F = fn.wyd(0.3), fn.power_kernel(0.4)

    def values(j: int) -> tuple:
        D, A = densities[j], operands[j]
        nxt = densities[(j + 1) % 3]
        return _bits(qt.fisher(f, D, A, A)), _bits(qt.quasi_entropy(F, A, D, nxt)), _bits(linalg.relmod_apply(F, D, nxt, A))

    expected = []
    for j in range(3):
        linalg._forget_states()
        expected.append(values(j))
    linalg._forget_states()
    start, seen = threading.Barrier(2), [[], []]

    def run(k: int):
        start.wait()
        for i in range(120):
            j = (i + k) % 3
            seen[k].append((j, values(j)))

    workers = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert all(bits == expected[j] for calls in seen for j, bits in calls)
    assert len(seen[0]) == len(seen[1]) == 120


def test_three_threads_with_a_short_switch_interval_keep_only_rotations_of_held_states():
    densities = _densities(4, 3, 50)
    rng = np.random.default_rng(50)
    operands = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(3)]
    f = fn.sld()

    def value(j: int) -> bytes:
        return _bits(qt.gen_cov(f, densities[j], operands[j], operands[(j + 1) % 3]))

    expected = []
    for j in range(3):
        linalg._forget_states()
        expected.append(value(j))
    linalg._forget_states()
    start, wrong, unheld = threading.Barrier(3), [], []

    def run(k: int):
        start.wait()
        for i in range(150):
            j = (i + k) % 3
            if value(j) != expected[j]:
                wrong.append(j)
            with linalg._memo_lock:  # the lifetime rule holds whenever the lock is free
                held = [entry[1] for entry in linalg._state_memo.entries]
                unheld.extend(key for key, _, _ in linalg._rotation_memo.entries if key[0] not in held or key[1] not in held)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(k,)) for k in range(3)]  # more threads than cores
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert wrong == [] and unheld == []


# ``relmod_grid`` remembers the grid ``F(mu_i / lam_j)`` of one kernel, by its value, while both States are remembered


@pytest.fixture
def grids(monkeypatch) -> list:
    """The shape of each kernel grid evaluated during the test, with every memo emptied first."""
    linalg._forget_states()
    calls, original = [], linalg._kernel_grid
    monkeypatch.setattr(linalg, "_kernel_grid", lambda F, x, *rest: calls.append(x.shape) or original(F, x, *rest))
    return calls


@pytest.mark.parametrize("n", [4, 64])
def test_a_remembered_grid_gives_the_cold_bits_evaluates_no_kernel_and_refuses_writes(n, grids):
    D1, D2 = _densities(n, 2, 70 + n)
    rng = np.random.default_rng(70 + n)
    X = np.asarray(random_hermitian(n, rng))
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    # gen_cov, fisher and skew_info of one kernel and density share a grid, and so do the two of one pair
    chain = [lambda: qt.gen_cov(fn.wyd(0.3), D1, X, A), lambda: qt.fisher(fn.wyd(0.3), D1, X, A),
             lambda: qt.skew_info(fn.wyd(0.3), D1, X), lambda: qt.quasi_entropy(fn.power_kernel(0.3), A, D1, D2),
             lambda: linalg.relmod_apply(fn.power_kernel(0.3), D1, D2, A)]
    cold = []
    for call in chain:
        linalg._forget_states()
        cold.append(_bits(call()))
    linalg._forget_states()
    linalg.state(D1), linalg.state(D2)  # a density decomposed to be remembered drops every grid
    del grids[:]
    assert [_bits(call()) for call in chain] == cold and len(grids) == 2
    assert [_bits(call()) for call in chain] == cold and len(grids) == 2
    s = linalg.state(D1)
    W, _ = linalg.relmod_grid(fn.wyd(0.3), s, s)
    assert len(grids) == 2 and [entry[1] for entry in linalg._grid_memo.entries][0] is W
    linalg._forget_states()
    s = linalg.state(D1)
    cold_W, _ = linalg.relmod_grid(fn.wyd(0.3), s, s)
    assert cold_W.tobytes() == W.tobytes() and [size for _, _, size in linalg._grid_memo.entries] == [8 * n * n + 1024]
    with pytest.raises(ValueError, match="read-only"):
        W[0, 0] = 0.0


def test_kernels_built_anew_find_their_grid_by_value_and_another_parameter_misses(grids):
    D1, D2 = _densities(4, 2, 71)
    cold = {}
    for a in (0.5, 0.7):
        linalg._forget_states()
        cold[a] = qt.renyi(a, D1, D2)
    linalg._forget_states()
    del grids[:]
    assert qt.renyi(0.5, D1, D2) == cold[0.5] and qt.renyi(0.5, D1, D2) == cold[0.5] and len(grids) == 1
    assert qt.renyi(0.7, D1, D2) == cold[0.7] and len(grids) == 2  # renyi_kernel(a) is built in every call
    assert qt.renyi(0.5, D1, D2) == cold[0.5] and len(grids) == 2
    s = linalg.state(D1)
    first, _ = linalg.relmod_grid(fn.wyd(0.3), s, s)
    assert linalg.relmod_grid(fn.wyd(0.3), s, s)[0] is first and len(grids) == 3
    other, _ = linalg.relmod_grid(fn.wyd(0.4), s, s)
    assert other.tobytes() != first.tobytes() and len(grids) == 4
    h = linalg.relmod_grid(fn.hessian_kernel(fn.wyd(0.3)), s, s)[0]  # a partial among the parameters
    assert linalg.relmod_grid(fn.hessian_kernel(fn.wyd(0.3)), s, s)[0] is h and len(grids) == 5
    linalg.relmod_grid(fn.hessian_kernel(fn.wyd(0.4)), s, s)
    linalg.relmod_grid(fn.covariance_kernel(fn.wyd(0.3)), s, s)
    assert len(grids) == 7 and len(linalg._grid_memo.entries) == 7


def test_a_zero_parameter_of_either_sign_is_a_grid_of_its_own(grids):
    (D,) = _densities(3, 1, 78)
    s = linalg.state(D)
    F = fn.extremal_metric(1.0)  # F''(1) is -0.0: its Hessian kernel is 0.0 at ratio 1, and -0.0 with F''(1) = 0.0
    signed = fn.hessian_kernel(dataclasses.replace(F, second_derivative_at_one=0.0))
    W, _ = linalg.relmod_grid(fn.hessian_kernel(F), s, s)
    Ws, _ = linalg.relmod_grid(signed, s, s)
    assert np.array_equal(W, Ws) and W.tobytes() != Ws.tobytes() and len(grids) == 2
    assert linalg.relmod_grid(signed, s, s)[0] is Ws and len(grids) == 2


def test_tuples_stacks_unheld_states_bare_callables_and_arrays_are_never_kept(grids):
    densities = _densities(3, 3, 72)
    stack = np.stack(densities[:2])
    rng = np.random.default_rng(72)
    X = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    f, g = fn.wyd(0.3), fn.sld()
    for _ in range(2):
        qt.fisher((f, g), stack, X, X)
        qt.fisher(f, stack, X, X)
    assert len(grids) == 4 and linalg._grid_memo.entries == []
    s = linalg.state(densities[0])
    unheld = linalg.State(s.eigenvalues, s.eigenvectors, s.matrix)  # equal to a remembered State, but not it
    listed = linalg.state(densities[2].tolist())  # never remembered
    array_parameter = fn.ScalarFunctionSpec("scaled", functools.partial(np.multiply, np.array(2.0)), 1.0)
    del grids[:]
    for _ in range(2):
        linalg.relmod_grid(f, unheld, unheld)
        linalg.relmod_grid(f, s, unheld)
        linalg.relmod_grid(f, listed, listed)
        linalg.relmod_grid(f.fn, s, s)
        linalg.relmod_grid(lambda x: x, s, s)
        linalg.relmod_grid(array_parameter, s, s)
    assert len(grids) == 2 * 6 and linalg._grid_memo.entries == []


def test_a_grid_lives_while_state_remembers_both_of_its_states(two_states, grids, monkeypatch):
    D1, D2, D3 = _densities(3, 3, 73)
    F = fn.power_kernel(0.5)
    qt.quasi_entropy(F, None, D1, D2)
    assert len(grids) == 1 and len(linalg._grid_memo.entries) == 1
    linalg.state(D2), linalg.state(D1)  # found: nothing leaves the memo
    qt.quasi_entropy(F, None, D1, D2)
    assert len(grids) == 1
    held, original = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda H: held.append(len(linalg._grid_memo.entries)) or original(H))
    linalg.state(D3.tolist())  # never remembered: the grid stays
    assert held == [1] and len(linalg._grid_memo.entries) == 1
    linalg.state(D3)  # D2 leaves the memo, and the grid with it, before the eigh
    assert held == [1, 0] and linalg._grid_memo.entries == []
    qt.quasi_entropy(F, None, D1, D3)
    assert len(grids) == 2 and len(linalg._grid_memo.entries) == 1
    linalg._forget_states()
    assert linalg._grid_memo.entries == []


def test_a_grid_whose_state_leaves_the_memo_while_it_is_evaluated_is_not_kept(two_states, monkeypatch):
    D1, D2, D3 = _densities(3, 3, 76)
    s1, s2 = linalg.state(D1), linalg.state(D2)
    original = linalg._kernel_grid

    def kernel_grid(F, x, *rest):
        linalg.state(D3)  # D1, used longest ago, leaves the memo; D2 stays
        return original(F, x, *rest)

    monkeypatch.setattr(linalg, "_kernel_grid", kernel_grid)
    W, _ = linalg.relmod_grid(fn.wyd(0.3), s1, s2)
    held = [entry[1] for entry in linalg._state_memo.entries]
    assert s1 not in held and s2 in held
    assert linalg._grid_memo.entries == [] and W.flags.writeable


def test_a_grid_kept_during_an_eigh_leaves_with_the_state_that_eigh_drops(two_states, monkeypatch):
    D1, D2, D3 = _densities(3, 3, 77)
    s1, _ = linalg.state(D1), linalg.state(D2)
    kept, original = [], np.linalg.eigh

    def eigh(H):  # what another thread may do while this one decomposes D3
        linalg.relmod_grid(fn.wyd(0.3), s1, s1)
        kept.append(len(linalg._grid_memo.entries))
        return original(H)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    linalg.state(D3)  # D1, used longest ago, leaves the memo
    assert kept == [1] and s1 not in [entry[1] for entry in linalg._state_memo.entries]
    assert linalg._grid_memo.entries == []


def test_a_grid_over_the_budget_is_not_kept_and_a_new_one_evicts_the_oldest(monkeypatch, grids):
    (D,) = _densities(3, 1, 74)
    s = linalg.state(D)
    one = 8 * 3 * 3 + 1024  # an n = 3 grid and its fixed overhead
    monkeypatch.setattr(linalg, "GRID_MEMO_BYTES", one - 1)
    W, _ = linalg.relmod_grid(fn.wyd(0.3), s, s)
    again, _ = linalg.relmod_grid(fn.wyd(0.3), s, s)
    assert again is not W and len(grids) == 2 and linalg._grid_memo.entries == [] and W.flags.writeable
    monkeypatch.setattr(linalg, "GRID_MEMO_BYTES", 2 * one)  # room for two grids
    kept = {p: linalg.relmod_grid(fn.wyd(p), s, s)[0] for p in (0.3, 0.4, 0.5)}
    assert [entry[1] for entry in linalg._grid_memo.entries] == [kept[0.4], kept[0.5]]
    assert linalg._grid_memo.bytes == 2 * one and len(grids) == 5
    assert linalg.relmod_grid(fn.wyd(0.5), s, s)[0] is kept[0.5] and len(grids) == 5
    first = linalg.relmod_grid(fn.wyd(0.3), s, s)[0]
    assert first is not kept[0.3] and first.tobytes() == kept[0.3].tobytes() and len(grids) == 6


def test_threads_alternating_over_pairs_and_parameters_get_the_cold_grids():
    densities = _densities(4, 3, 75)
    params = (0.2, 0.3, 0.6)

    def grids(j: int) -> tuple:
        s1, s2 = linalg.state(densities[j]), linalg.state(densities[(j + 1) % 3])
        return tuple(linalg.relmod_grid(kernel, s1, s2)[0].tobytes()
                     for p in params for kernel in (fn.wyd(p), fn.renyi_kernel(p)))

    expected = []
    for j in range(3):
        linalg._forget_states()
        expected.append(grids(j))
    linalg._forget_states()
    start, wrong, unheld = threading.Barrier(3), [], []

    def run(k: int):
        start.wait()
        for i in range(100):
            j = (i + k) % 3
            if grids(j) != expected[j]:
                wrong.append(j)
            with linalg._memo_lock:  # the lifetime rule holds whenever the lock is free
                held = [entry[1] for entry in linalg._state_memo.entries]
                unheld.extend(key for key, _, _ in linalg._grid_memo.entries if key[0] not in held or key[1] not in held)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(k,)) for k in range(3)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert wrong == [] and unheld == [] and len(linalg._grid_memo.entries) == 3 * 2 * len(params)
