"""One rule for a tuple of kernels at every function that takes a kernel.

A tuple pairs with the first axis of the state stack, and every other axis
of the grid belongs to that member: on a ``(T1, T2, n, n)`` stack with T1
kernels, member ``(i, j)`` equals the 2-D call with kernel i, bit for bit
(``wyd_direct`` takes a tuple of exponents the same way).  A tuple of
another length, or with a 2-D state, is refused with
``InvariantViolation("<k> kernels do not match the first axis of a grid of
shape <shape>")``.  A stack with no members gives an empty result.
"""

import numpy as np
import pytest

from qig import channels as ch, functions as fn, linalg, quantities as qt, verify as vf
from qig.errors import InvariantViolation

T1, T2, N = 2, 3, 3


def _members(draw) -> np.ndarray:
    """A ``(T1, T2, ...)`` stack of draws, one per member."""
    return np.stack([draw() for _ in range(T1 * T2)]).reshape(T1, T2, *draw().shape)


_RNG = np.random.default_rng(34)
S1, S2 = (linalg.state(_members(lambda: np.asarray(vf.random_density(N, 0.5 / N, _RNG)))) for _ in range(2))
A, B = (_members(lambda: vf._unit_operands(linalg.draw_ginibre(_RNG, (N, N)))) for _ in range(2))
X = _members(lambda: vf.random_hermitian(N, _RNG))
XC = vf.center_observable(S1, X)  # Tr D X = 0
OBS = np.stack([XC, vf.center_observable(S1, _members(lambda: vf.random_hermitian(N, _RNG)))], axis=2)
P, Q = (M - np.trace(M, axis1=-2, axis2=-1)[..., None, None] * np.eye(N) / N for M in (X, XC))  # traceless
C1, C2 = (vf._commuting_units(S1, _RNG.standard_normal((T1, T2, N))) for _ in range(2))  # commute with S1
_CHANNEL = ch.random_channel(N, N, 2, 7)

_ANY = (fn.power_kernel(0.3), fn.neglog_kernel())
_STANDARD = (fn.wyd(0.3), fn.sld())  # f(0) != 0 too
_MONOTONE = (fn.power_kernel(0.3), fn.sld())

# (intake, one kernel per member of the first axis, call(kernels, at) with every stacked argument read through at)
_CASES = [
    ("quasi_entropy", _ANY, lambda F, at: qt.quasi_entropy(F, at(A), at(S1), at(S2))),
    ("gen_cov", _STANDARD, lambda F, at: qt.gen_cov(F, at(S1), at(A), at(B))),
    ("fisher", _STANDARD, lambda F, at: qt.fisher(F, at(S1), at(A), at(B))),
    ("skew_info", _STANDARD, lambda F, at: qt.skew_info(F, at(S1), at(X))),
    ("skew_identity_residual", _STANDARD, lambda F, at: qt.skew_identity_residual(F, at(S1), at(XC))),
    ("wyd_direct", (0.3, 0.5), lambda p, at: qt.wyd_direct(p, at(S1), at(X))),
    ("relmod_apply", _ANY, lambda F, at: linalg.relmod_apply(F, at(S1), at(S2), at(A))),
    ("relmod_dense", _ANY, lambda F, at: linalg.relmod_dense(F, at(S1), at(S2), at(A))),
    ("apply_matrix_function", _ANY, lambda F, at: linalg.apply_matrix_function(F, at(S1))),
    ("mixed_second_derivative", _ANY, lambda F, at: vf.mixed_second_derivative(F, at(S1), at(P), at(Q))),
    ("exact_mixed_derivative", _ANY, lambda F, at: vf.exact_mixed_derivative(F, at(S1), at(P), at(Q))),
    ("lemma_commuting_residual", _ANY, lambda F, at: vf.lemma_commuting_residual(F, at(S1), at(C1), at(C2))),
    ("hessian_vs_skew", _STANDARD, lambda F, at: vf.hessian_vs_skew(F, at(S1), at(XC))),
    ("cov_gram", _STANDARD, lambda F, at: vf.cov_gram(F, at(S1), at(OBS))),
    ("skew_gram", _STANDARD, lambda F, at: vf.skew_gram(F, at(S1), at(OBS))),
    ("monotonicity_margin", _MONOTONE, lambda F, at: ch.monotonicity_margin(F, at(A), at(S1), at(S2), _CHANNEL)),
    ("concavity_margin", _MONOTONE,
     lambda F, at: ch.concavity_margin(F, at(A), (at(S1), at(S2)), (at(S2), at(S1)), 0.3)),
]
_PARAMS = [pytest.param(kernels, call, id=name) for name, kernels, call in _CASES]


def _values(result) -> tuple:
    """The arrays of a result, or of each part of a tuple of results."""
    return tuple(map(np.asarray, result if isinstance(result, tuple) else (result,)))


def _refusal(count: int, shape: str) -> str:
    return rf"^{count} kernels do not match the first axis of a grid of shape \({shape}\)$"


@pytest.mark.parametrize("kernels, call", _PARAMS)
def test_each_member_equals_its_two_d_call_with_the_kernel_of_its_row(kernels, call):
    whole = _values(call(kernels, lambda M: M))
    for i, j in np.ndindex(T1, T2):
        member = _values(call(kernels[i], lambda M: M[i, j]))
        assert [v.shape for v in member] == [v[i, j].shape for v in whole]
        assert [v.tobytes() for v in member] == [np.ascontiguousarray(v[i, j]).tobytes() for v in whole]


@pytest.mark.parametrize("count", [T1 - 1, T2, T1 * T2], ids=["short", "second-axis", "flattened"])
@pytest.mark.parametrize("kernels, call", _PARAMS)
def test_a_tuple_of_another_length_is_refused_with_the_one_message(kernels, call, count):
    with pytest.raises(InvariantViolation, match=_refusal(count, rf"{T1}, {T2}, {N}(, {N})?")):
        call((kernels * count)[:count], lambda M: M)


@pytest.mark.parametrize("kernels, call", _PARAMS)
def test_a_tuple_with_a_two_d_state_is_refused_with_the_one_message(kernels, call):
    with pytest.raises(InvariantViolation, match=_refusal(T1, rf"{N},( {N})?")):
        call(kernels, lambda M: M[0, 0])


_EMPTY = np.empty((0, 2, 2), complex)


def _probe_fields() -> np.ndarray:
    """Every field of the three probe checks of empty tuples, refused unless flags are bool and margins float."""
    reports = (fn.check_standard(()), fn.scalar_inequality_check((), ()), fn.check_operator_monotone((), seed=()))
    fields = {(type(r).__name__, name): v for r in reports for name, v in vars(r).items()}
    flags = ("passed", "pick_skipped")
    assert {k: v.dtype for k, v in fields.items()} == {k: np.dtype(bool if k[1] in flags else float) for k in fields}
    return np.concatenate(list(fields.values()))


@pytest.mark.parametrize(
    "call, shape",
    [
        pytest.param(lambda E: qt.quasi_entropy((), None, E, E), (0,), id="quasi_entropy-tuple"),
        pytest.param(lambda E: qt.quasi_entropy(fn.sld(), None, E, E), (0,), id="quasi_entropy"),
        pytest.param(lambda E: qt.gen_cov(fn.sld(), E, E, E), (0,), id="gen_cov"),
        pytest.param(lambda E: qt.fisher(fn.sld(), E, E, E), (0,), id="fisher"),
        pytest.param(lambda E: qt.skew_info(fn.sld(), E, E), (0,), id="skew_info"),
        pytest.param(lambda E: qt.wyd_direct(0.3, E, E), (0,), id="wyd_direct"),
        pytest.param(lambda E: qt.wyd_direct((), E, E), (0,), id="wyd_direct-tuple"),
        pytest.param(lambda E: linalg.apply_matrix_function((), E), (0, 2, 2), id="apply_matrix_function-tuple"),
        pytest.param(lambda E: linalg.relmod_apply((), E, E, E), (0, 2, 2), id="relmod_apply-tuple"),
        pytest.param(lambda E: linalg.relmod_dense(fn.sld(), E, E, E), (0, 2, 2), id="relmod_dense"),
        pytest.param(lambda E: vf.mixed_second_derivative(fn.sld(), E, E, E)[0], (0,), id="mixed_second_derivative"),
        pytest.param(lambda E: fn.check_standard(()).max_violation, (0,), id="check_standard-tuple"),
        pytest.param(lambda E: fn.scalar_inequality_check((), ()).min_margin, (0,), id="scalar_inequality_check-tuple"),
        pytest.param(lambda E: fn.check_operator_monotone((), seed=()).loewner_margin, (0,),
                     id="check_operator_monotone-tuple"),
        pytest.param(lambda E: _probe_fields(), (0,), id="probe-check-dtypes"),
    ],
)
def test_a_stack_with_no_members_gives_an_empty_result(call, shape):
    assert np.shape(call(_EMPTY)) == shape
