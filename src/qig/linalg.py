"""Hermitian matrix algebra on finite-dimensional state spaces.

Everything rests on a single primitive, the eigendecomposition of a
Hermitian matrix.  Matrix functions and the relative modular map
``A -> D2 A D1^{-1}`` together with scalar functions of it are spectral
calculus on top of it.

The spectral core works on stacks: :func:`as_hermitian`,
:func:`as_density`, :func:`state` and :func:`relmod_grid` take arrays of
shape ``(..., n, n)``, treat the leading axes as a batch of independent
matrices (broadcast against each other where two are combined) and
validate and decompose the whole batch with one ``np.linalg.eigh`` call.
A 2-D input is a batch of none and behaves as a single matrix.  Validation
raises on the first rejected member.

Every function that takes a kernel takes a tuple of kernels by one rule
(:func:`_check_kernels`): the tuple pairs with the first axis of the state
stack, and every other axis of the grid belongs to that member; any other
tuple is refused with one message.  :func:`relmod_grid`, the one place
kernels are evaluated, evaluates a tuple with one call per group of
members.  Only specs stack: the members of one family that a constructor
in :mod:`qig.functions` declares (``wyd``, ``extremal``, Hansen mixtures
of one atom count, covariance and Hessian kernels of one family,
``x^alpha``, ...) share a call with the parameters in which they differ
stacked, and any other function shares a call only with repeats of itself
(see :func:`_kernel_grid`).  :func:`relmod_apply`, the dense oracle
:func:`relmod_dense` (same arguments, same result) and :func:`commutator`
take equal-shape stacks.

:func:`state` validates every density (:func:`as_density` is its matrix).
It remembers the States of its last two 2-D arrays, and :func:`relmod_grid`
the last two rotations of 2-D operands by them, as :class:`_Memo` says.

Every two-state quantity (:func:`relmod_apply` here, and the
quasi-entropies, Umegaki and Renyi divergences) validates and decomposes
its densities through :func:`state_pair`.  When the environment pins BLAS
to one thread, one call at large n runs two independent pieces of work
concurrently through one helper, :func:`_both`, the second on a thread
that is joined before the call returns or raises: :func:`state_pair`'s two
densities from dimension :data:`PAIR_THREAD_DIM` on and, from
:data:`PRODUCT_THREAD_DIM` on, the rotations of two distinct operands of
:func:`relmod_grid`, in both cases when neither is remembered (see
:class:`_Memo`), and the two commutators of ``wyd_direct`` in
:mod:`qig.quantities`.
The values, exceptions and messages are those of the two in turn.

Operands meet their state through one shape rule, :func:`_require_shape`,
checked before anything else about them, with one message, ``"<what>
shape <shape> does not match state <shape>"``: an operand (:func:`_operand`)
and a second density (:func:`state_pair`) by their last two axes, an
observable, direction or perturbation (:func:`_observable`) by its whole shape.

:func:`apply_matrix_function` takes stacks too, through that one ``eigh``
call, and a tuple of functions as :func:`relmod_grid` takes a tuple of
kernels.  :func:`phase_fixed_qr` takes stacks as well: it turns a stack of
Ginibre matrices (built by :func:`ginibre` from raw :func:`draw_ginibre`
draws) into Haar isometries in one ``np.linalg.qr`` call.  Every member
equals the 2-D call bit for bit.

All values are immutable after construction and every operation is a pure
function of its inputs; the memos of :func:`state` and :func:`relmod_grid`
change what a call costs, never the values it returns.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvariantViolation

HERMITIAN_TOL = 1e-12
DENSITY_TRACE_TOL = 1e-12
DENSITY_EIG_FLOOR = 1e-10
DENSE_DIM_LIMIT = 32
#: :func:`relmod_dense` builds a stack's superoperators in chunks of members that
#: take at most this many bytes together (four at n = 32, a whole group at n <= 5)
DENSE_CHUNK_BYTES = 64 * 2**20
#: from this dimension on, :func:`state_pair` decomposes its two densities
#: concurrently; below it, starting a thread costs more than the overlap saves
#: (``umegaki_arrays_threaded_over_sequential`` of ``scripts/layer_times.py``,
#: with BLAS on one thread)
PAIR_THREAD_DIM = 48
#: from this dimension on, :func:`relmod_grid` rotates two operands it has not
#: seen concurrently, and :mod:`qig.quantities` builds the two commutators of
#: ``wyd_direct`` concurrently; below it, the thread costs more than the
#: overlap of its matmuls saves (the ``*_overlapped_over_in_turn`` rows of
#: ``scripts/layer_times.py``, with BLAS on one thread)
PRODUCT_THREAD_DIM = 128
#: the thread-count variables of OpenBLAS, OpenMP and MKL; :func:`_both`
#: overlaps two pieces of work only when all of them are "1"
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: the bytes that the entries of each memo (see :class:`_Memo`) take at most together
#: (two remembered densities at n = 512)
STATE_MEMO_BYTES = 16 * 2**20
_REMEMBERED = 2


class _Memo:
    """The last two entries ``(key, value, bytes counted)`` of a memo, oldest first: the rules of both memos.

    :func:`state` remembers States, and :func:`relmod_grid` rotations by
    them, of 2-D ``np.ndarray`` inputs only; a value is a function of its
    key, so a hit has a miss's bits.  :meth:`keep` drops the oldest entries
    until the new one makes at most two within :data:`STATE_MEMO_BYTES`
    (one over that alone is not kept) and makes its arrays read-only.  A
    State found becomes the newest; a rotation hit takes no lock, one scan
    and one bytes compare.  A rotation is kept only while :func:`state`
    holds both of its States: it is kept with both held, and a density
    decomposed to be remembered drops every rotation before its ``eigh``
    and again once kept (in case one was kept meanwhile on another thread).
    ``_memo_lock`` guards keep, clear and a State's find, never an ``eigh``
    or matmul.
    """

    def __init__(self):
        self.entries: list = []

    def find(self, key, newest: bool = False):
        """The value kept under ``key`` (None if none); with ``newest``, under the lock, its entry becomes the newest."""
        for entry in self.entries:
            if entry[0] == key:
                if newest and entry is not self.entries[-1]:
                    self.entries.remove(entry)  # found by identity: no entry before it has its key
                    self.entries.append(entry)
                return entry[1]
        return None

    def keep(self, key, value, size: int, *arrays: np.ndarray) -> None:
        """Keep ``value``, whose ``arrays`` become read-only, under ``key`` if its ``size`` in bytes fits."""
        if size > STATE_MEMO_BYTES:
            return
        entries = self.entries
        while entries and (len(entries) == _REMEMBERED or sum(e[2] for e in entries) + size > STATE_MEMO_BYTES):
            entries.pop(0)
        for a in arrays:
            a.setflags(write=False)
        entries.append((key, value, size))

    def clear(self) -> None:
        self.entries.clear()


_state_memo = _Memo()  # keys: see _memo_key
_rotation_memo = _Memo()  # keys: see _rotation_key
_memo_lock = threading.Lock()


def _square(M, what: str = "matrix") -> np.ndarray:
    try:
        M = np.asarray(M, dtype=complex)
    except (TypeError, ValueError) as exc:  # ragged, or not numeric
        raise InvariantViolation(f"{what} is not a numeric array") from exc
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise InvariantViolation(f"{what} must be square, got shape {M.shape}")
    if M.shape[-1] == 0:
        raise InvariantViolation(f"{what} must have a nonzero dimension, got shape {M.shape}")
    return M


def dagger(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return M.swapaxes(-1, -2).conj()


def _all(mask) -> bool:
    # a numpy bool scalar's .all() costs microseconds; bool() does not
    return mask if type(mask) is bool else bool(mask) if mask.ndim == 0 else bool(mask.all())


def _first_rejected(ok, *values) -> list:
    """Each of ``values`` at the first False entry of a per-matrix mask (one matrix: a scalar mask)."""
    i = np.unravel_index(np.argmin(ok), np.shape(ok))
    return [np.asarray(v)[i] for v in values]


def _matrix_max(A: np.ndarray):
    """Maximum over the last two axes: a Python float for one matrix, an array for a stack."""
    return float(A.max()) if A.ndim == 2 else A.max(axis=(-2, -1))


def as_hermitian(M) -> np.ndarray:
    """Validate Hermiticity up to roundoff and return the symmetrized matrix.

    Asymmetry within ``1e-12 * (1 + max|entry|)`` is absorbed by averaging
    with the conjugate transpose; anything larger, and any non-finite
    entry, raises.  Accepts a ``(..., n, n)`` stack; a single matrix is
    decided on Python floats, with the same checks and messages.
    """
    M = _square(M, "Hermitian matrix")
    allowed = HERMITIAN_TOL * (1.0 + _matrix_max(np.abs(M)))
    finite = allowed < np.inf  # false when an entry is infinite or NaN (or its modulus overflows)
    if not _all(finite):
        # zeroed before any arithmetic warns; the member is refused below
        M = np.where(np.expand_dims(finite, (-2, -1)), M, 0.0)
    Mh = dagger(M)
    dev = _matrix_max(np.abs(M - Mh))
    ok = finite & (dev <= allowed)
    if not _all(ok):
        dev, allowed = _first_rejected(ok, dev, allowed)
        if not allowed < np.inf:
            raise InvariantViolation("matrix has non-finite entries")
        raise InvariantViolation(
            f"matrix is not Hermitian: max asymmetry {dev:.3e} exceeds {allowed:.3e}"
        )
    return (M + Mh) / 2


def _check_density(H: np.ndarray, wmin) -> None:
    """Refuse the first matrix that fails the unit-trace or eigenvalue-floor check (one matrix: on floats)."""
    tr = H.trace(axis1=-2, axis2=-1).real
    if H.ndim == 2:
        tr, wmin = float(tr), float(wmin)
    # comparisons with NaN are false, so NaN entries fail the checks
    ok = (abs(tr - 1.0) <= DENSITY_TRACE_TOL) & (wmin >= DENSITY_EIG_FLOOR)
    if _all(ok):
        return
    tr, wmin = _first_rejected(ok, tr, wmin)
    if not abs(tr - 1.0) <= DENSITY_TRACE_TOL:
        raise InvariantViolation(f"density matrix must have unit trace, got {float(tr)!r}")
    raise InvariantViolation(
        f"density matrix must be invertible: smallest eigenvalue "
        f"{float(wmin):.3e} is below {DENSITY_EIG_FLOOR:.0e}"
    )


def as_density(M) -> np.ndarray:
    """``state(M).matrix``: a density or a stack validated (and remembered) by :func:`state`."""
    return state(M).matrix


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ascending eigenvalues with a matching orthonormal eigenbasis; compared and hashed by identity."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True, eq=False)
class State(SpectralDecomposition):
    """Validated density matrix with its eigendecomposition, built by :func:`state`.

    A stack of densities is one State whose arrays carry the same leading
    axes; indexing a State indexes those axes.  numpy functions and array
    arithmetic read a State as a copy of its ``matrix``.
    """

    matrix: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.matrix.shape

    def __getitem__(self, index) -> "State":
        if self.matrix.ndim == 2:
            raise InvariantViolation("only a stack of states can be indexed")
        return State(self.eigenvalues[index], self.eigenvectors[index], self.matrix[index])

    def __array__(self, dtype=None, copy=None):
        # a fresh array unless copy=False; numpy 1.x passes no copy argument
        dtype = self.matrix.dtype if dtype is None else dtype
        return self.matrix.astype(dtype, copy=copy is not False)


def _eigh(H: np.ndarray, label: str) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigendecomposition did not converge for {label} with shape {H.shape}"
        ) from exc


def _memo_key(D):
    """``(dtype, shape, bytes)`` of a 2-D numeric ndarray whose key and eigenvectors fit the memo, or None."""
    ok = type(D) is np.ndarray and D.ndim == 2 and D.dtype.kind in "biufc"
    return (D.dtype, D.shape, D.tobytes()) if ok and D.nbytes + 16 * D.size <= STATE_MEMO_BYTES else None


def _forget_states() -> None:
    """Empty both memos, so that the next call decomposes every density and rotates every operand."""
    with _memo_lock:
        _state_memo.clear()
        _rotation_memo.clear()


def _decompose(D, label: str, key) -> State:
    """Validate and decompose D; remember the State under ``key`` (None: never) as :class:`_Memo` says."""
    if key is not None and _rotation_memo.entries:
        with _memo_lock:
            _rotation_memo.clear()
    H = as_hermitian(D)
    w, U = _eigh(H, label)
    _check_density(H, w[..., 0])
    if key is None:
        return State(w, U, H)
    bits = H.tobytes() if key[0] == H.dtype else None
    shared = bits == key[2]  # validation left the caller's bytes unchanged: the matrix is a view of the key
    if shared:
        # keep this copy, not the lookup's: keeping one made before validation tripled a miss's page faults
        key, H = (key[0], key[1], bits), np.frombuffer(bits, H.dtype).reshape(H.shape)
    new = State(w, U, H)
    with _memo_lock:
        found = _state_memo.find(key, newest=True)  # decomposed meanwhile on another thread
        if found is not None:
            return found
        _state_memo.keep(key, new, len(key[2]) + U.nbytes + (0 if shared else H.nbytes), w, U, H)
        _rotation_memo.clear()
    return new


def state(D, label: str = "state") -> State:
    """Validate a density or a stack, keeping the eigendecomposition.

    A density is Hermitian with unit trace and no eigenvalue below
    :data:`DENSITY_EIG_FLOOR` (rank-deficient input is an error, never
    regularized); a stack is refused at its first rejected member.
    A 2-D numeric ``np.ndarray`` density's State is remembered as
    :class:`_Memo` says, keyed by dtype, shape and C-order bytes, counting
    the key, eigenvectors and validated matrix (unless it shares the key's
    bytes, as an exactly Hermitian complex128 array does).
    """
    if isinstance(D, State):
        return D
    key = _memo_key(D)
    with _memo_lock:
        found = _state_memo.find(key, newest=True)
    return found if found is not None else _decompose(D, label, key)


def _blas_pinned() -> bool:
    """Whether the environment pins BLAS to one thread: every one of :data:`BLAS_THREAD_VARIABLES` is ``"1"``."""
    return all(os.environ.get(name) == "1" for name in BLAS_THREAD_VARIABLES)


def _both(first, second, n: int, crossover: int) -> tuple:
    """``(first(), second())`` of two independent thunks; from dimension ``crossover`` on, the second runs on a thread.

    The two overlap only when n, the caller's matrix dimension, is at least
    ``crossover`` and :func:`_blas_pinned` holds; otherwise they run in turn
    on the caller's thread.  Below the crossover starting a thread costs
    more than the overlap saves, and a multi-threaded BLAS already uses the
    cores.  The thread is started per call (numpy releases the GIL inside
    BLAS and LAPACK, so the two overlap there) and joined before anything
    is returned or raised, and ``first``'s exception, if any, is raised
    before ``second``'s.
    """
    if n < crossover or not _blas_pinned():
        return first(), second()
    out = []

    def run_second():
        try:
            out.append(second())
        except BaseException as exc:  # raised on the caller's thread after first's outcome
            out.append(exc)

    worker = threading.Thread(target=run_second)
    worker.start()
    try:
        result = first()
    finally:
        worker.join()
    if isinstance(out[0], BaseException):
        raise out[0]
    return result, out[0]


def state_pair(D1, D2) -> tuple[State, State]:
    """``(state(D1), state(D2))`` for a second density D2 of D1's dimension.

    D1 is validated first, then D2 is refused unless its last two axes are
    D1's (:func:`_require_shape`; stacks broadcast over the leading axes),
    and only then validated: the States, exceptions and messages of
    ``state(D1, "first state")``, that rule and ``state(D2, "second state")``
    in turn.  When D1 is an array of dimension :data:`PAIR_THREAD_DIM` or
    more, D2 an array with D1's last two axes, neither is remembered by
    :func:`state` (both are looked up first) and the environment pins BLAS
    to one thread (every one of :data:`BLAS_THREAD_VARIABLES` set to
    ``"1"``), D2 is decomposed concurrently with D1 (:func:`_both`).
    Otherwise the two run in turn: a remembered density leaves nothing to
    overlap, and a multi-threaded BLAS loses it.
    """
    if not (
        isinstance(D1, np.ndarray)
        and isinstance(D2, np.ndarray)
        and D1.ndim >= 2
        and D1.shape[-1] >= PAIR_THREAD_DIM
        and D2.shape[-2:] == D1.shape[-2:]
        and _blas_pinned()
    ):
        s1 = state(D1, "first state")
        if isinstance(D2, (np.ndarray, State)):
            _require_shape("second state", D2.shape, s1)
        else:  # read as an operand, so that a ragged or non-numeric D2 is refused as one
            _operand(D2, s1, "second state")
        return s1, state(D2, "second state")
    k1, k2 = _memo_key(D1), _memo_key(D2)
    with _memo_lock:
        s1, s2 = _state_memo.find(k1, newest=True), _state_memo.find(k2, newest=True)
    if s1 is not None or s2 is not None:
        return s1 or _decompose(D1, "first state", k1), s2 or _decompose(D2, "second state", k2)
    return _both(
        lambda: _decompose(D1, "first state", k1),
        lambda: _decompose(D2, "second state", k2),
        D1.shape[-1],
        PAIR_THREAD_DIM,
    )


def _require_shape(what: str, shape: tuple, s, exact: bool = False) -> None:
    """The one shape rule of operands: refuse ``shape`` unless its last two axes are those of the state ``s``, or with ``exact`` its whole shape is s's."""
    if (shape != s.shape) if exact else (shape[-2:] != s.shape[-2:]):
        raise InvariantViolation(f"{what} shape {shape} does not match state {s.shape}")


def _operand(A, s, what: str = "operand", exact: bool = False) -> np.ndarray:
    """A as a complex array, refused first by :func:`_require_shape` against the state ``s``."""
    try:
        A = np.asarray(A, dtype=complex)
    except (TypeError, ValueError) as exc:  # ragged, or not numeric
        raise InvariantViolation(f"{what} is not a numeric array") from exc
    _require_shape(what, A.shape, s, exact)
    return A


def _observable(X, s, what: str = "observable") -> np.ndarray:
    """X of exactly the state ``s``'s shape (an observable, direction or perturbation), validated by :func:`as_hermitian`."""
    return as_hermitian(_operand(X, s, what, exact=True))


def eig_hermitian(H) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix (or a given one), eigenvalues ascending."""
    if isinstance(H, SpectralDecomposition):
        return H
    return SpectralDecomposition(*_eigh(as_hermitian(H), "matrix"))


def eval_scalar(h, x) -> np.ndarray:
    """Evaluate a scalar function (plain callable or spec carrying .fn) on an array.

    Non-finite or non-real results mean the argument left the function's
    domain and raise accordingly.  A function that returns one value for
    all the points (a constant) gives an array of the points' shape.
    """
    fn = getattr(h, "fn", h)
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        vals = np.asarray(fn(x))
    if np.iscomplexobj(vals):
        scale = 1.0 + float(np.max(np.abs(vals))) if vals.size else 1.0
        if vals.size and float(np.max(np.abs(vals.imag))) > 1e-12 * scale:
            raise DomainError("scalar function must be real-valued on the given points")
        vals = vals.real
    if not np.isfinite(vals).all():
        raise DomainError("scalar function is undefined on part of the spectrum")
    return vals if vals.shape == x.shape else np.broadcast_to(vals, x.shape).copy()


def apply_matrix_function(h, H) -> np.ndarray:
    """``U diag(h(w)) U*`` for the spectral data ``(w, U)`` of Hermitian ``H`` (or a stack).

    h may be a tuple of functions, one per member of the stack's first
    axis, evaluated as :func:`relmod_grid` evaluates a tuple of kernels.
    """
    dec = eig_hermitian(H)
    vals = _kernel_grid(h, dec.eigenvalues, core=1)
    U = dec.eigenvectors
    out = (U * vals[..., None, :]) @ U.conj().swapaxes(-1, -2)
    return (out + out.conj().swapaxes(-1, -2)) / 2


def _stacked(fns, shape: tuple):
    """One partial of the family of ``fns``, each parameter in which they differ stacked to ``shape``.

    The stack is in member order.  A parameter they share, such as an
    exponent that their family key holds, stays as it is; partials among
    the parameters are stacked in turn.
    """
    params = {}
    for name, v in fns[0].keywords.items():
        vals = [f.keywords[name] for f in fns]
        if all(u == v for u in vals):
            params[name] = v
        elif isinstance(v, functools.partial):
            params[name] = _stacked(vals, shape)
        elif isinstance(v, tuple):
            params[name] = tuple(np.array(c).reshape(shape) for c in zip(*vals))
        else:
            params[name] = np.array(vals).reshape(shape)
    return functools.partial(fns[0].func, **params)


def _check_kernels(F, shape: tuple, core: int) -> None:
    """Refuse a tuple of kernels unless the grid ``shape`` (``core`` axes a matrix) has one per member of its first axis."""
    if isinstance(F, tuple) and (len(shape) <= core or len(F) != shape[0]):
        raise InvariantViolation(f"{len(F)} kernels do not match the first axis of a grid of shape {shape}")


def _kernel_grid(F, x: np.ndarray, core: int = 2, evaluate=None) -> np.ndarray:
    """``F(x)``, or with a tuple of kernels each member of x's first axis by its own kernel.

    ``core`` is the number of trailing axes of one matrix's grid (axes
    between the first and those belong to the member, as the stencil axes
    of :mod:`qig.verify`), and ``evaluate(fn, x)``
    evaluates one function, :func:`eval_scalar` by default.  A tuple takes
    one call per group of members.  Specs group by the ``family`` key their
    constructor declares (see :class:`~qig.functions.ScalarFunctionSpec`),
    and a spec without one, or a bare callable, by its function's
    identity.  A group of one function object is one call of it; any
    other group is one call of :func:`_stacked`, with the parameters in
    which its members differ stacked as ``(m, 1, ...)`` arrays.  Each
    member's grid equals its own kernel's call bit for bit.
    """
    evaluate = eval_scalar if evaluate is None else evaluate
    if not isinstance(F, tuple):
        return evaluate(F, x)
    _check_kernels(F, x.shape, core)
    groups: dict = {}
    for i, f in enumerate(F):
        fn = getattr(f, "fn", f)
        idx, fns = groups.setdefault(getattr(f, "family", None) or id(fn), ([], []))
        idx.append(i)
        fns.append(fn)

    def group_function(fns: list):
        if all(f is fns[0] for f in fns):
            return fns[0]
        return _stacked(fns, (len(fns),) + (1,) * (x.ndim - 1))

    if len(groups) == 1:
        _, fns = groups.popitem()[1]
        return evaluate(group_function(fns), x)
    parts = []
    for idx, fns in groups.values():
        idx = idx[0] if len(idx) == 1 else idx  # a lone member's grid is a view, as in its own call
        parts.append((idx, evaluate(group_function(fns), x[idx])))
    out = np.empty(x.shape, np.result_type(*(vals for _, vals in parts)) if parts else float)
    for idx, vals in parts:
        out[idx] = vals
    return out


def _rotate(s1: SpectralDecomposition, s2: SpectralDecomposition, A) -> np.ndarray:
    """The matmuls of a rotation: ``U2* A V``, or ``U2* V`` for A None."""
    U2h = dagger(s2.eigenvectors)
    return U2h @ s1.eigenvectors if A is None else U2h @ A @ s1.eigenvectors


def _rotation_key(s1: SpectralDecomposition, s2: SpectralDecomposition, A: np.ndarray) -> tuple:
    """s1, s2 and the 2-D A's dtype, shape, strides (BLAS may round another layout otherwise) and C-order bytes."""
    return s1, s2, A.dtype, A.shape, A.strides, A.tobytes()


def _rotations(s1: SpectralDecomposition, s2: SpectralDecomposition, operands: tuple) -> list:
    """``[U2* A V for A in operands]`` as :func:`relmod_grid` says, remembered as :class:`_Memo` says."""
    if len(operands) == 1 and operands[0] is None:  # umegaki, renyi: the loop cost 4 % of their rate at n = 4
        return [_rotate(s1, s2, None)]
    if len(operands) == 2 and operands[1] is operands[0]:
        return _rotations(s1, s2, operands[:1]) * 2
    out, new = [], []
    for A in operands:
        keyed = type(A) is np.ndarray and A.ndim == 2
        M = _rotation_memo.find(_rotation_key(s1, s2, A)) if keyed and _rotation_memo.entries else None
        if M is None:
            new.append((len(out), A, keyed))
        out.append(M)
    if not new:
        return out
    if len(new) == 2:
        (i, A, _), (j, B, _) = new
        n = s1.eigenvectors.shape[-1]
        out[i], out[j] = _both(lambda: _rotate(s1, s2, A), lambda: _rotate(s1, s2, B), n, PRODUCT_THREAD_DIM)
    else:
        for i, A, _ in new:
            out[i] = _rotate(s1, s2, A)
    for i, A, keyed in new:
        if keyed:
            with _memo_lock:
                held = [entry[1] for entry in _state_memo.entries]
                if s1 in held and s2 in held:
                    key = _rotation_key(s1, s2, A)  # built again: a key held through the matmuls raised peak memory
                    _rotation_memo.keep(key, out[i], len(key[5]) + out[i].nbytes, out[i])
    return out


def relmod_grid(F, s1: SpectralDecomposition, s2: SpectralDecomposition, *operands):
    """Kernel grid and rotated operands shared by every spectral double sum.

    With spectral data ``(lam, V)`` of ``s1`` and ``(mu, U)`` of ``s2``
    returns ``W_ij = F(mu_i / lam_j)`` and ``[U* A V for A in operands]``.
    An operand None is the identity, rotated as ``U* V`` (bit for bit
    ``U* I V``), and two operands that are one object are rotated once.
    Stacked states and operands broadcast over their leading axes.  F is
    one kernel, or a tuple of kernels with one per member of the grid's
    first axis; each member's grid then equals that kernel's own.

    A 2-D ``np.ndarray`` operand's rotation by States that :func:`state`
    holds is remembered as :class:`_Memo` says, keyed by the two States (by
    identity) and the operand's dtype, shape, strides and C-order bytes.
    Two operands that it does not remember are rotated concurrently from
    :data:`PRODUCT_THREAD_DIM` on when BLAS is pinned (:func:`_both`).
    """
    W = _kernel_grid(F, s2.eigenvalues[..., :, None] / s1.eigenvalues[..., None, :])
    return W, _rotations(s1, s2, operands)


def _relmod_operands(F, D1, D2, A) -> tuple[State, State, np.ndarray]:
    """The validated states and operand of :func:`relmod_apply` and :func:`relmod_dense`, and F checked against them."""
    s1, s2 = state_pair(D1, D2)
    _require_shape("second state", s2.shape, s1, exact=True)  # relmod_dense reshapes the stacks
    A = _operand(A, s1, exact=True)
    _check_kernels(F, s1.shape, core=2)
    return s1, s2, A


def relmod_apply(F, D1, D2, A) -> np.ndarray:
    """Apply the scalar function F of the relative modular map of (D1, D2) to A.

    With spectral data ``D2 = sum_i mu_i u_i u_i*`` and
    ``D1 = sum_j lam_j v_j v_j*`` the result is
    ``sum_ij F(mu_i / lam_j) <u_i, A v_j> u_i v_j*``.  F = identity recovers
    ``D2 A D1^{-1}``.  Takes equal-shape stacks of states and operands, with
    F one kernel or a tuple of one per member of the first axis.
    """
    s1, s2, A = _relmod_operands(F, D1, D2, A)
    W, (M,) = relmod_grid(F, s1, s2, A)
    return s2.eigenvectors @ (W * M) @ dagger(s1.eigenvectors)


def relmod_dense(F, D1, D2, A) -> np.ndarray:
    """Brute-force oracle for :func:`relmod_apply`: the same arguments, the same result.

    The matrix of ``A -> D2 A D1^{-1}`` is a Kronecker product in the
    column-stacking convention (and Hermitian, since the map is
    self-adjoint for the Hilbert-Schmidt pairing), so F is applied through
    one big ``n^2 x n^2`` eigendecomposition instead of the structured
    double sum, and the resulting matrix acts on the column-stacked A.
    Equal-shape stacks of states and operands are decomposed in one call,
    with F one kernel or a tuple of one per member of the first axis, in
    chunks of members whose superoperators take at most
    :data:`DENSE_CHUNK_BYTES` together; each member's value is that of its
    own 2-D call.
    """
    s1, s2, A = _relmod_operands(F, D1, D2, A)
    n = s1.shape[-1]
    if n > DENSE_DIM_LIMIT:
        raise InvariantViolation(
            f"dense superoperator is limited to dimension {DENSE_DIM_LIMIT}, got {n}"
        )
    D1_inv_t = apply_matrix_function(lambda x: 1.0 / x, s1).swapaxes(-1, -2)
    lead = s1.shape[:-2]
    m = int(np.prod(lead))
    D1_inv_t, D2, A = (M.reshape(m, n, n) for M in (D1_inv_t, s2.matrix, A))
    F = tuple(F[i * len(F) // m] for i in range(m)) if isinstance(F, tuple) else F  # each member, its row's kernel
    chunk = max(1, DENSE_CHUNK_BYTES // (16 * n**4))  # members of complex n^2 x n^2 matrices
    out = np.empty((m, n, n), complex)
    for i in range(0, m, chunk):
        part = slice(i, i + chunk)
        # the Kronecker product D1^{-T} (x) D2 of each member
        delta = (D1_inv_t[part, :, None, :, None] * D2[part, None, :, None, :]).reshape(-1, n * n, n * n)
        delta = (delta + dagger(delta)) / 2
        w, V = np.linalg.eigh(delta)
        vals = _kernel_grid(F[part] if isinstance(F, tuple) else F, w, core=1)
        a = A[part].swapaxes(-1, -2).reshape(-1, n * n)
        b = (((V * vals[..., None, :]) @ dagger(V)) @ a[..., None])[..., 0]
        out[part] = b.reshape(-1, n, n).swapaxes(-1, -2)
    return out.reshape(lead + (n, n))


def commutator(A, B) -> np.ndarray:
    """``AB - BA`` (of each member of equal-shape stacks); 1j times it is Hermitian for Hermitian A, B."""
    A = _square(A)
    B = _square(B)
    if A.shape != B.shape:
        raise InvariantViolation(f"dimension mismatch: {A.shape} vs {B.shape}")
    return A @ B - B @ A


def require_dimension(n) -> None:
    """Refuse, with ``DomainError``, a matrix dimension that is not an integer of at least 1 (``bool`` included)."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"dimension must be at least 1 and an integer, got {n!r}")


def draw_ginibre(rng: np.random.Generator, shape) -> np.ndarray:
    """Raw draw of a complex Ginibre matrix of the 2-D ``shape``, for :func:`ginibre`.

    One standard normal array of shape ``(2, *shape)``: the real parts,
    then the imaginary parts, the stream of two draws of ``shape``.
    """
    return rng.standard_normal((2, *shape))


def ginibre(raw) -> np.ndarray:
    """Complex Ginibre matrices from a raw draw or a ``(..., 2, rows, cols)`` stack of them."""
    return raw[..., 0, :, :] + 1j * raw[..., 1, :, :]


def phase_fixed_qr(G) -> np.ndarray:
    """Q factor of G with the phases of R's diagonal moved into it.

    For a complex Ginibre G of shape ``(..., rows, n)`` with ``rows >= n``
    each member is a Haar-random ``rows x n`` isometry.
    """
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[..., None, :]
