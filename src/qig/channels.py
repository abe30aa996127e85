"""Completely positive trace-preserving maps in Kraus form.

A channel stores Kraus operators of one common (n_out, n_in) shape with
``sum_i K_i* K_i = I`` on the input space.  ``apply_state`` is the
trace-preserving action on densities, ``apply_dual`` the unital dual on
observables of the output space; unital completely positive maps satisfy
the Schwarz inequality, which makes these duals a rich valid family for
the monotonicity and joint-concavity margins of quasi-entropies.

Stacks: a channel's Kraus operators may carry leading axes, shape
``(..., n_out, n_in)`` with the same leading axes for every operator, and
then describe one channel per member.  :func:`apply_state`,
:func:`apply_dual`, :func:`monotonicity_margin` and
:func:`concavity_margin` broadcast such a channel, stacked states and
operands (and an array of mixing weights) over their leading axes, and
return an array over them; the Kraus sum runs over the operators in order,
so every member equals the 2-D call bit for bit.  :func:`random_channel`
is :func:`isometry_channel` applied to one :func:`draw_channel` draw; a
sampling harness stacks such draws and builds one stacked channel from
them with one QR call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, quantities
from .errors import DomainError, InvariantViolation

KRAUS_TOL = 1e-10


@dataclass(frozen=True)
class KrausChannel:
    """Kraus operators of a trace-preserving completely positive map."""

    kraus_ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.asarray(K, dtype=complex) for K in self.kraus_ops)
        if not ops:
            raise InvariantViolation("a channel needs at least one Kraus operator")
        shape = ops[0].shape
        if len(shape) < 2 or any(K.shape != shape for K in ops):
            raise InvariantViolation("Kraus operators must share one (n_out, n_in) shape")
        object.__setattr__(self, "kraus_ops", ops)
        acc = sum(linalg.dagger(K) @ K for K in ops)
        dev = float(np.max(np.abs(acc - np.eye(shape[-1]))))
        if not dev <= KRAUS_TOL:  # NaN entries fail too
            raise InvariantViolation(
                f"Kraus operators must satisfy sum K*K = I (trace preservation); "
                f"deviation {dev:.3e}"
            )

    @property
    def dim_in(self) -> int:
        return self.kraus_ops[0].shape[-1]

    @property
    def dim_out(self) -> int:
        return self.kraus_ops[0].shape[-2]


def draw_channel(n_in: int, n_out: int, kraus_count: int, rng: np.random.Generator) -> np.ndarray:
    """Raw draw of the Ginibre matrix :func:`random_channel` builds its channel from.

    See :func:`~qig.linalg.draw_ginibre`.  Raises before drawing: with
    ``DomainError`` when a dimension or ``kraus_count`` is not an integer of
    at least 1 (``bool`` included), and with ``InvariantViolation`` when
    ``kraus_count * n_out < n_in``.
    """
    linalg.require_dimension(n_in)
    linalg.require_dimension(n_out)
    if isinstance(kraus_count, bool) or not isinstance(kraus_count, (int, np.integer)) or kraus_count < 1:
        raise DomainError(f"Kraus count must be at least 1 and an integer, got {kraus_count!r}")
    if kraus_count * n_out < n_in:
        raise InvariantViolation(
            f"infeasible dimensions: {kraus_count} Kraus operators with output "
            f"dimension {n_out} cannot carry input dimension {n_in}"
        )
    return linalg.draw_ginibre(rng, (kraus_count * n_out, n_in))


def isometry_channel(raw, kraus_count: int) -> KrausChannel:
    """Channel whose Kraus operators are the row blocks of a Haar isometry.

    ``raw`` is a :func:`draw_channel` draw or a stack of them, shape
    ``(..., 2, kraus_count * n_out, n_in)``.  The phase-fixed QR factors of
    its Ginibre matrices are cut into ``kraus_count`` blocks of ``n_out``
    rows, one stacked channel per member.
    """
    Q = linalg.phase_fixed_qr(linalg.ginibre(raw))
    n_out = Q.shape[-2] // kraus_count
    return KrausChannel(tuple(Q[..., i * n_out : (i + 1) * n_out, :] for i in range(kraus_count)))


def random_channel(n_in: int, n_out: int, kraus_count: int, seed) -> KrausChannel:
    """Kraus blocks of a Haar-random isometry from n_in into kraus_count * n_out.

    Deterministic for a fixed integer seed; also accepts a Generator.
    """
    raw = draw_channel(n_in, n_out, kraus_count, np.random.default_rng(seed))
    return isometry_channel(raw, kraus_count)


def apply_state(ch: KrausChannel, D) -> np.ndarray:
    """Trace-preserving action ``sum_i K_i D K_i*``.

    The output is Hermitian with the same trace; it may graze the density
    invertibility floor, in which case the caller re-validates (and a
    sampling harness resamples).
    """
    D = np.asarray(D, dtype=complex)
    if D.shape[-2:] != (ch.dim_in, ch.dim_in):
        raise InvariantViolation(
            f"state shape {D.shape} does not match channel input dimension {ch.dim_in}"
        )
    out = sum(K @ D @ linalg.dagger(K) for K in ch.kraus_ops)
    return (out + linalg.dagger(out)) / 2


def apply_dual(ch: KrausChannel, A) -> np.ndarray:
    """Unital dual ``sum_i K_i* A K_i`` on observables of the output space."""
    A = np.asarray(A, dtype=complex)
    if A.shape[-2:] != (ch.dim_out, ch.dim_out):
        raise InvariantViolation(
            f"operand shape {A.shape} does not match channel output dimension {ch.dim_out}"
        )
    return sum(linalg.dagger(K) @ A @ K for K in ch.kraus_ops)


def _require_monotone_kernel(F) -> None:
    """Refuse a kernel, or any kernel of a per-member tuple, outside the margins' hypotheses."""
    for G in F if isinstance(F, tuple) else (F,):
        if not getattr(G, "claims_operator_monotone", False):
            raise DomainError(
                "this margin is stated for operator monotone increasing kernels; "
                f"{getattr(G, 'name', 'kernel')!r} is not flagged as one"
            )
        if not getattr(G, "value_at_zero", -math.inf) >= 0.0:
            raise DomainError("this margin needs a kernel with F(0) >= 0")


def monotonicity_margin(F, A, D1, D2, ch: KrausChannel) -> float:
    """Gain of the quasi-entropy under coarse-graining.

    Returns ``S_F^A(ch(D1), ch(D2)) - S_F^{dual(A)}(D1, D2)``, which is
    nonnegative for operator monotone increasing kernels with F(0) >= 0.
    A lives on the channel output space.  Kernels without the monotone
    flag are refused; channel outputs that lose invertibility raise, so a
    sampling harness can resample.  A float for 2-D input, an array over
    the leading axes of a stacked channel, states and operand.  D2 must
    have D1's n (:func:`~qig.linalg.state_pair`).
    """
    _require_monotone_kernel(F)
    D1, D2 = linalg.state_pair(D1, D2)
    E = linalg.state(apply_state(ch, np.stack(np.broadcast_arrays(D1.matrix, D2.matrix))))
    lhs = quantities.quasi_entropy(F, A, E[0], E[1])
    rhs = quantities.quasi_entropy(F, apply_dual(ch, A), D1, D2)
    return quantities._real(lhs - rhs)


def concavity_margin(F, A, pair_a, pair_b, lam: float) -> float:
    """Joint-concavity margin of the quasi-entropy at mixing weight lam.

    ``S_F^A(lam a1 + (1-lam) b1, lam a2 + (1-lam) b2)
      - lam S_F^A(a1, a2) - (1-lam) S_F^A(b1, b2)``; nonnegative under the
    same kernel hypotheses as :func:`monotonicity_margin`.  With stacked
    states lam may be an array over their leading axes, one weight each.
    A density of ``pair_b`` must have the n of its counterpart in ``pair_a``,
    and ``a2`` that of ``a1`` (second densities, :func:`~qig.linalg.state_pair`).
    """
    _require_monotone_kernel(F)
    weights = np.asarray(lam, dtype=float)
    if not ((0.0 <= weights) & (weights <= 1.0)).all():
        raise DomainError(f"mixing weight must lie in [0, 1], got {lam!r}")
    a1, b1 = linalg.state_pair(pair_a[0], pair_b[0])
    a2, b2 = linalg.state_pair(pair_a[1], pair_b[1])
    w = weights[..., None, None]
    mix1 = w * a1.matrix + (1.0 - w) * b1.matrix
    mix2 = w * a2.matrix + (1.0 - w) * b2.matrix

    def s(d1, d2):
        return quantities.quasi_entropy(F, A, d1, d2)

    return quantities._real(s(mix1, mix2) - weights * s(a1, a2) - (1.0 - weights) * s(b1, b2))
