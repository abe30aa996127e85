"""Information-geometric quantities of density matrices.

Every quantity is evaluated as a double sum over the eigenbasis of the
state(s); the dense superoperator route exists only as a test oracle.
Every density, :func:`sym_cov`'s too, is validated by
:func:`~qig.linalg.state`.  A density given as a :class:`~qig.linalg.State`
is neither validated nor decomposed again, nor is a 2-D density array
that :func:`~qig.linalg.state` remembers (a working set of up to 128, so
quantities interleaved over a few densities decompose each once), and an
operand whose rotation ``U* A U`` :func:`~qig.linalg.relmod_grid`
remembers is not rotated again, nor is the identity operand of a
remembered pair (:func:`renyi` after :func:`umegaki`), nor is a kernel
evaluated again on the grid of a remembered pair (:func:`gen_cov`,
:func:`fisher` and :func:`skew_info` of one kernel and density share one
grid; a kernel is known by its value, so :func:`renyi`, which builds its
kernel in every call, finds it too).  All bit for bit, by the rules of
``qig.linalg._Memo``; stacks are decomposed, and their kernels evaluated,
on every call.
:func:`quasi_entropy`, :func:`gen_cov`, :func:`fisher`
and :func:`sym_cov` also take ``(..., n, n)`` stacks of states and
operands, broadcast over their leading axes, and reduce over the last two
axes only; :func:`skew_info`, :func:`skew_identity_residual` and
:func:`wyd_direct` take equal-shape stacks of states and observables.
Operands (``A``, ``B``) and second densities must match the state's last
two axes, observables ``X`` its whole shape (the one shape rule and
message of :mod:`qig.linalg`).  A single matrix gives a scalar, a stack
the array of its members' values, each equal bit for bit to the 2-D call.
A kernel, and :func:`wyd_direct`'s exponent, may be a tuple of one per
member of the stack's first axis (the one rule of :mod:`qig.linalg`).
:func:`umegaki` and :func:`renyi` are quasi-entropies of the identity
operand and take stacks of states too.
Quantities that are real in exact arithmetic keep their full complex value
where the signature allows it, so imaginary leakage stays visible as a
cheap numerical diagnostic instead of being discarded; the quasi-entropy
sum is real term by term and is returned real.

Centering is the caller's job: operations that require ``Tr D X = 0``
check the precondition and refuse, they never center silently.  The
commutator direction ``1j [D, X]`` of every skew and Hessian identity is
built by :func:`commutator_direction`.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import DomainError, InvariantViolation
from .functions import covariance_kernel, neglog_kernel, power_kernel, renyi_kernel

_NEGLOG = neglog_kernel()


def digest_inputs(*parts) -> str:
    """Short stable hash of arrays, states (as their matrix) and parameters, for reports."""
    import hashlib  # on first use: only the harness's reports need it
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, linalg.State):
            p = p.matrix
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()[:12]


def _require_standard(f, what: str) -> None:
    """Refuse a kernel, or any kernel of a per-member tuple, that does not claim standardness."""
    for g in f if isinstance(f, tuple) else (f,):
        if not getattr(g, "claims_standard", False):
            raise DomainError(f"{what} needs a standard kernel")


def _trace_of_product(X, Y):
    """``Tr XY`` over the last two axes without forming ``XY``: ``sum_ij X_ij Y_ji``."""
    return (X * Y.swapaxes(-1, -2)).sum(axis=(-2, -1))


def _require_centered(s: linalg.State, X: np.ndarray) -> None:
    """Refuse an observable, or any member of a stack, with ``Tr D X != 0``."""
    if (np.abs(_trace_of_product(s.matrix, X)) > 1e-10).any():
        raise InvariantViolation("observable must be centered: Tr(D X) = 0")


def commutator_direction(D, X) -> np.ndarray:
    """Hermitian part of ``1j [D, X]``, the tangent of ``D`` along the unitary orbit of X."""
    B = 1j * linalg.commutator(linalg.state(D).matrix, X)
    return (B + linalg.dagger(B)) / 2


def _metric_denominator(w: np.ndarray, W: np.ndarray) -> np.ndarray:
    denom = w[..., None, :] * W
    if float(denom.min(initial=np.inf)) <= 0.0:  # an empty stack has no ratio
        raise DomainError("singular metric: the kernel vanishes on a spectrum ratio")
    return denom


def _product(a, b):
    """``a * b`` of complex scalars or arrays, rounded as the scalar product is.

    numpy's array loop for complex multiplication may fuse a multiply into
    an add and round differently from the product of two complex scalars;
    spelled out, a stack member's value stays bit-identical to the 2-D call.
    """
    return (a.real * b.real - a.imag * b.imag) + 1j * (a.real * b.imag + a.imag * b.real)


def _scalar(value):
    """A Python complex for one matrix, the complex array of a stack's members."""
    return complex(value) if value.ndim == 0 else value.astype(complex)


def _real(value):
    """A Python float for one matrix, the float array of a stack's members."""
    return float(value) if np.ndim(value) == 0 else np.asarray(value, dtype=float)


def _each(get, F):
    """``get(F)`` for one kernel, the tuple of ``get(f)`` for a per-member tuple of kernels."""
    return tuple(get(f) for f in F) if isinstance(F, tuple) else get(F)


def _at_zero(f, ndim: int):
    """``f(0)`` of one kernel; of a per-member tuple, shaped to scale an array of ``ndim`` axes along its first."""
    if not isinstance(f, tuple):
        return f.value_at_zero
    return np.array([g.value_at_zero for g in f]).reshape((-1,) + (1,) * (ndim - 1))


def quasi_entropy(F, A, D1, D2) -> np.ndarray:
    """``<A D1^{1/2}, F(relative modular map of (D1, D2))(A D1^{1/2})>``.

    Computed as the spectral double sum
    ``sum_ij F(mu_i/lam_j) |<u_i, A v_j>|^2 lam_j`` over the eigenbases of
    D2 (mu, u) and D1 (lam, v).  A real numpy scalar for 2-D input, or an
    array over the broadcast leading axes of stacked states and operands.
    ``A = None`` is the one spelling of the identity operand: the values of
    ``A = I`` bit for bit, with no identity matrix built or multiplied.
    """
    s1, s2 = linalg.state_pair(D1, D2)
    A = None if A is None else linalg._operand(A, s1)
    W, (M,) = linalg.relmod_grid(F, s1, s2, A)
    return (W * (np.abs(M) ** 2) * s1.eigenvalues[..., None, :]).sum(axis=(-2, -1))


def umegaki(D1, D2):
    """Relative entropy ``Tr D1 (log D1 - log D2)`` (natural log), the quasi-entropy of ``-log x``."""
    return _real(quasi_entropy(_NEGLOG, None, D1, D2))


def renyi(alpha: float, D1, D2):
    """``Tr (I - D2^a D1^{-a}) D1 / (a(1-a))``, the quasi-entropy of ``renyi_kernel(a)``.

    The boundary a = 0 of (-1, 1) is rejected rather than special-cased:
    conflating it with the relative-entropy limit would hide convergence
    behaviour.
    """
    return _real(quasi_entropy(renyi_kernel(alpha), None, D1, D2))


def sym_cov(D, A, B):
    """Symmetrized covariance ``Tr(D(A*B + BA*))/2 - (Tr DA*)(Tr DB)``.

    Two matmuls, ``P = D A*`` and ``Q = D B``: the quadratic term is
    ``(Tr PB + Tr QA*)/2`` and the means are ``Tr P`` and ``Tr Q``, each
    trace of a product taken as the elementwise sum ``Tr XY = sum_ij X_ij Y_ji``.
    """
    D = linalg.as_density(D)
    A = linalg._operand(A, D, "first observable")
    B = linalg._operand(B, D, "second observable")
    Ah = linalg.dagger(A)
    P, Q = D @ Ah, D @ B
    quad = 0.5 * (_trace_of_product(P, B) + _trace_of_product(Q, Ah))
    return _scalar(quad - _product(P.trace(axis1=-2, axis2=-1), Q.trace(axis1=-2, axis2=-1)))


def gen_cov(f, D, A, B):
    """Generalized covariance with standard kernel f.

    In the eigenbasis ``(w, U)`` of D the quadratic part is
    ``sum_ij conj(At_ij) Bt_ij w_j f(w_i/w_j)`` with ``At = U* A U``;
    sesquilinear (conjugate-linear in A, linear in B), and f-independent on
    operators commuting with D.
    """
    _require_standard(f, "generalized covariance")
    s = linalg.state(D)
    A = linalg._operand(A, s, "first observable")
    B = linalg._operand(B, s, "second observable")
    W, (At, Bt) = linalg.relmod_grid(f, s, s, A, B)
    w = s.eigenvalues
    quad = (np.conj(At) * Bt * (w[..., None, :] * W)).sum(axis=(-2, -1))
    mean_a = (w * np.conj(At.diagonal(axis1=-2, axis2=-1))).sum(axis=-1)
    mean_b = (w * Bt.diagonal(axis1=-2, axis2=-1)).sum(axis=-1)
    return _scalar(quad - _product(mean_a, mean_b))


def fisher(f, D, A, B):
    """Monotone-metric pairing ``sum_ij conj(At_ij) Bt_ij / (w_j f(w_i/w_j))``.

    Positive definite in ``A = B`` and f-independent (equal to
    ``Tr D^{-1} A* B``) on operators commuting with D.  A complex for one
    matrix, the complex array of a stack's members otherwise.
    """
    _require_standard(f, "the quantum Fisher information")
    s = linalg.state(D)
    A = linalg._operand(A, s, "first direction")
    B = linalg._operand(B, s, "second direction")
    W, (At, Bt) = linalg.relmod_grid(f, s, s, A, B)
    denom = _metric_denominator(s.eigenvalues, W)
    return _scalar((np.conj(At) * Bt / denom).sum(axis=(-2, -1)))


def skew_info(f, D, X):
    """Skew information ``(f(0)/2)`` times the metric on the commutator direction.

    Diagonal formula in the eigenbasis of D:
    ``(f(0)/2) sum_ij (w_i - w_j)^2 / (w_j f(w_i/w_j)) |Xt_ij|^2``, equal to
    ``(f(0)/2) fisher(f, D, 1j[D,X], 1j[D,X])``.
    """
    _require_standard(f, "skew information")
    s = linalg.state(D)
    X = linalg._observable(X, s)
    W, (Xt,) = linalg.relmod_grid(f, s, s, X)
    w = s.eigenvalues
    denom = _metric_denominator(w, W)
    num = (w[..., :, None] - w[..., None, :]) ** 2
    return _real(0.5 * _at_zero(f, w.ndim - 1) * (num / denom * np.abs(Xt) ** 2).sum(axis=(-2, -1)))


def wyd_direct(p, D, X):
    """Commutator form ``-Tr [D^p, X][D^{1-p}, X] / 2`` for p in (0, 1).

    For stacked states and observables p may also be a tuple of one
    exponent per member, evaluated as tuples of
    :func:`~qig.functions.power_kernel` specs; a member's value then equals
    the 2-D call's.  Each commutator takes one product: for Hermitian
    ``A = D^p`` and X, ``XA = (AX)*``, so ``[A, X] = P - P*`` with
    ``P = AX``.  From dimension :data:`~qig.linalg.PRODUCT_THREAD_DIM` on,
    with BLAS pinned to one thread, the two sides (matrix power and
    product) are computed concurrently (:func:`~qig.linalg._both`), with
    the bits of the two in turn; the trace of the commutators' product is
    an elementwise sum, with no product formed.
    """
    ps = p if isinstance(p, tuple) else (p,)
    if not all(np.ndim(v) == 0 and 0.0 < v < 1.0 for v in ps):  # NaN fails too
        raise DomainError(f"p must lie inside (0, 1), one number or a tuple of one per member, got {p!r}")
    if isinstance(p, tuple):
        hp, hq = tuple(map(power_kernel, p)), tuple(power_kernel(1.0 - v) for v in p)
    else:
        hp, hq = (lambda x: x ** p), (lambda x: x ** (1.0 - p))
    s = linalg.state(D)
    X = linalg._observable(X, s)

    def commutator_with_x(h):
        P = linalg.apply_matrix_function(h, s) @ X
        P -= linalg.dagger(P)  # in place: dagger(P) is a new array, so no third n x n one is needed
        return P

    Cp, Cq = linalg._both(lambda: commutator_with_x(hp), lambda: commutator_with_x(hq), s.shape[-1])
    return _real(-0.5 * _trace_of_product(Cp, Cq).real)


def skew_identity_residual(f, D, X):
    """Defect of the covariance representation of skew information.

    For centered Hermitian X (``Tr D X = 0``) and standard f with
    ``f(0) != 0``, returns
    ``| f(0) fisher(f, D, 1j[D,X], 1j[D,X]) - 2 sym_cov(D, X, X)
       + 2 gen_cov(cov_kernel(f), D, X, X) |``,
    which vanishes in exact arithmetic.
    """
    s = linalg.state(D)
    X = linalg._observable(X, s)
    _require_centered(s, X)
    f0 = _at_zero(f, X.ndim - 2)
    if np.any(f0 == 0.0):
        raise DomainError("the identity needs f(0) != 0")
    B = commutator_direction(s, X)
    lhs = f0 * fisher(f, s, B, B)
    c = sym_cov(s, X, X)
    q = gen_cov(_each(covariance_kernel, f), s, X, X)
    z = lhs - 2.0 * c + 2.0 * q
    # hypot rounds as abs() of a Python complex does; np.abs of a complex array need not
    return _real(np.hypot(z.real, z.imag))
