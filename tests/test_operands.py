"""One shape rule for every argument that meets a state, with one refusal message.

Every public entry point that pairs a state with an operand, observable,
direction, perturbation or second density refuses an argument of another
shape with ``InvariantViolation("<what> shape <shape> does not match state
<shape>")`` before anything else about the argument is checked: on a 2-D
state and on a stack, for an argument of another n and for a 1-D argument,
and where the whole shape must match, for a stack against a 2-D state.
An argument numpy cannot read as a complex array (ragged, or not numeric)
is refused with ``InvariantViolation("<what> is not a numeric array")``.
"""

import re

import numpy as np
import pytest

from qig import channels as ch, functions as fn, linalg, quantities as qt, verify as vf
from qig.errors import InvariantViolation

_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)  # Hermitian, traceless, centered for diagonal states
_STATES = {
    "2-D": np.diag([0.75, 0.25]).astype(complex),
    "stack": np.stack([np.diag([0.75, 0.25]), np.diag([0.4, 0.6])]).astype(complex),
}
_F, _KERNEL, _CHANNEL = fn.sld(), fn.power_kernel(0.5), ch.random_channel(2, 2, 2, 0)


def _good(D):
    return np.broadcast_to(_FLIP, D.shape).copy()


def _gram_observables(D, X):
    """The observables of a Gram call on D whose refused member is X."""
    if D.ndim == 2:
        return [_FLIP, X]
    return X[..., None, :, :] if X.ndim == 3 else X  # (T, 1, n, n): one observable per member


# (entry point, what the message calls the argument, rule, call(D, X) with X in that argument's place);
# rules: "operand" (last two axes), "exact" (whole shape), "second" (a second density by its last two axes)
_CASES = [
    ("quasi_entropy", "operand", "operand", lambda D, X: qt.quasi_entropy(_KERNEL, X, D, D)),
    ("sym_cov A", "first observable", "operand", lambda D, X: qt.sym_cov(D, X, _good(D))),
    ("sym_cov B", "second observable", "operand", lambda D, X: qt.sym_cov(D, _good(D), X)),
    ("gen_cov A", "first observable", "operand", lambda D, X: qt.gen_cov(_F, D, X, _good(D))),
    ("gen_cov B", "second observable", "operand", lambda D, X: qt.gen_cov(_F, D, _good(D), X)),
    ("fisher A", "first direction", "operand", lambda D, X: qt.fisher(_F, D, X, _good(D))),
    ("fisher B", "second direction", "operand", lambda D, X: qt.fisher(_F, D, _good(D), X)),
    ("skew_info", "observable", "exact", lambda D, X: qt.skew_info(_F, D, X)),
    ("wyd_direct", "observable", "exact", lambda D, X: qt.wyd_direct(0.5, D, X)),
    ("skew_identity_residual", "observable", "exact", lambda D, X: qt.skew_identity_residual(_F, D, X)),
    ("center_observable", "observable", "exact", lambda D, X: vf.center_observable(D, X)),
    ("exact_mixed_derivative A", "first direction", "exact",
     lambda D, X: vf.exact_mixed_derivative(_KERNEL, D, X, _good(D))),
    ("exact_mixed_derivative B", "second direction", "exact",
     lambda D, X: vf.exact_mixed_derivative(_KERNEL, D, _good(D), X)),
    ("lemma_commuting_residual A", "first direction", "exact",
     lambda D, X: vf.lemma_commuting_residual(_KERNEL, D, X, _good(D))),
    ("lemma_commuting_residual B", "second direction", "exact",
     lambda D, X: vf.lemma_commuting_residual(_KERNEL, D, _good(D), X)),
    ("hessian_vs_skew", "observable", "exact", lambda D, X: vf.hessian_vs_skew(_F, D, X)),
    ("mixed_second_derivative A", "first perturbation", "exact",
     lambda D, X: vf.mixed_second_derivative(_KERNEL, D, X, _good(D))),
    ("mixed_second_derivative B", "second perturbation", "exact",
     lambda D, X: vf.mixed_second_derivative(_KERNEL, D, _good(D), X)),
    ("cov_gram", "observable", "exact", lambda D, X: vf.cov_gram(_F, D, _gram_observables(D, X))),
    ("skew_gram", "observable", "exact", lambda D, X: vf.skew_gram(_F, D, _gram_observables(D, X))),
    ("relmod_apply A", "operand", "exact", lambda D, X: linalg.relmod_apply(_KERNEL, D, D, X)),
    ("relmod_dense A", "operand", "exact", lambda D, X: linalg.relmod_dense(_KERNEL, D, D, X)),
    ("relmod_apply D2", "second state", "exact second", lambda D, X: linalg.relmod_apply(_KERNEL, D, X, _good(D))),
    ("relmod_dense D2", "second state", "exact second", lambda D, X: linalg.relmod_dense(_KERNEL, D, X, _good(D))),
    ("state_pair", "second state", "second", lambda D, X: linalg.state_pair(D, X)),
    ("umegaki", "second state", "second", lambda D, X: qt.umegaki(D, X)),
    ("renyi", "second state", "second", lambda D, X: qt.renyi(0.5, D, X)),
    ("quasi_entropy D2", "second state", "second", lambda D, X: qt.quasi_entropy(_KERNEL, None, D, X)),
    ("monotonicity_margin", "second state", "second",
     lambda D, X: ch.monotonicity_margin(_KERNEL, np.eye(2), D, X, _CHANNEL)),
    ("concavity_margin", "second state", "second",
     lambda D, X: ch.concavity_margin(_KERNEL, np.eye(2), (D, D), (X, X), 0.5)),
]


def _refused(rule: str, D) -> dict:
    """The refused arguments of a rule on D: another n, 1-D, and for a whole-shape rule a stack on a 2-D state."""
    lead = D.shape[:-2]
    if "second" in rule:  # valid densities but for their shape
        bad = {"other n": np.broadcast_to(np.eye(3) / 3, lead + (3, 3)), "1-D": np.full(2, 0.5)}
        stack = _STATES["stack"]
    else:
        bad = {"other n": np.zeros(lead + (3, 3), dtype=complex), "1-D": np.zeros(2, dtype=complex)}
        stack = np.stack([_FLIP, _FLIP])
    if "exact" in rule and D.ndim == 2:
        bad["stack"] = stack
    return bad


_PARAMS = [
    pytest.param(call, what, D, X, id=f"{name}-{kind}-{variant}")
    for name, what, rule, call in _CASES
    for kind, D in _STATES.items()
    for variant, X in _refused(rule, D).items()
]


_RAGGED = [[1.0, 0.0], [0.0]]


@pytest.mark.parametrize(
    "call, what, X",
    [pytest.param(call, what, _RAGGED, id=name) for name, what, _, call in _CASES]
    + [
        pytest.param(lambda D, X: linalg.state(X), "Hermitian matrix", _RAGGED, id="state"),
        pytest.param(lambda D, X: linalg.state(X), "Hermitian matrix", "x", id="state-text"),
        pytest.param(lambda D, X: linalg.as_hermitian(X), "Hermitian matrix", [[object(), 1], [1, 0]],
                     id="as_hermitian-object"),
    ],
)
def test_a_ragged_or_non_numeric_argument_is_refused_as_not_a_numeric_array(call, what, X):
    with pytest.raises(InvariantViolation, match=rf"^{what} is not a numeric array$"):
        call(_STATES["2-D"], X)


@pytest.mark.parametrize("call, what, D, X", _PARAMS)
def test_an_argument_of_another_shape_is_refused_with_the_one_message(call, what, D, X):
    message = rf"^{what} shape {re.escape(str(X.shape))} does not match state {re.escape(str(D.shape))}$"
    with pytest.raises(InvariantViolation, match=message):
        call(D, X)

