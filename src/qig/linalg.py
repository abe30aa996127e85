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
It remembers the States of a working set of up to 128 2-D arrays, the one
used longest ago leaving first, and :func:`relmod_grid` the last two
rotations by them of 2-D operands or of the identity, and the kernel grids
by them of single kernels, keyed by the kernel's value, within
:data:`GRID_MEMO_BYTES`, as :class:`_Memo` says: a run of calls over a few
densities decomposes each once, and a call that repeats a kernel on a
remembered pair evaluates no kernel.

Every two-state quantity (:func:`relmod_apply` here, and the
quasi-entropies, Umegaki and Renyi divergences) validates and decomposes
its densities through :func:`state_pair`, in turn on the caller's thread.
When the environment pins BLAS to one thread, one call at large n runs
two independent products concurrently through one helper, :func:`_both`,
the second on a thread that is joined before the call returns or raises:
from :data:`PRODUCT_THREAD_DIM` on, the rotations of two distinct
operands of :func:`relmod_grid` when neither is remembered (see
:class:`_Memo`), and the two sides of ``wyd_direct`` in
:mod:`qig.quantities` (a matrix power and one product each).
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
function of its inputs (a kernel's ``fn`` too); the memos of :func:`state`
and :func:`relmod_grid` change what a call costs, never the values it
returns.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import threading
from collections import OrderedDict
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
#: from this dimension on, :func:`relmod_grid` rotates two operands it has not
#: seen concurrently, and :mod:`qig.quantities` takes the two sides of
#: ``wyd_direct`` (a matrix power and one product each) concurrently; below it,
#: the thread costs more than the overlap of its matmuls saves (the
#: ``*_overlapped_over_in_turn`` rows of ``scripts/layer_times.py``, with BLAS
#: on one thread: ``wyd_direct``'s is about 1 at n = 96 and about 0.8 at 128)
PRODUCT_THREAD_DIM = 128
#: the thread-count variables of OpenBLAS, OpenMP and MKL; :func:`_both`
#: overlaps two pieces of work only when all of them are "1"
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: the bytes that the entries of the State memo and of the rotation memo (see
#: :class:`_Memo`) each take at most together (eight shared States at n = 256,
#: where it binds before the count does)
STATE_MEMO_BYTES = 16 * 2**20
#: the bytes that :func:`relmod_grid`'s remembered kernel grids take at most
#: together, each counted as its grid's bytes and 1 KiB for its key and index (so
#: at most 1024 grids); a ``quantities-small`` pass cycles through up to 256 grids
#: at n <= 16 (about 0.25 MiB counted), and one n = 256 grid (0.5 MiB) fits, where
#: a budget of :data:`STATE_MEMO_BYTES` raised ``quantities-large`` ``peak_rss_mb``
#: by 11 % (83.8 to 93 MB)
GRID_MEMO_BYTES = 2**20
_REMEMBERED = 128  # States of state's memo at most: functools.lru_cache's default maxsize
_ROTATIONS_REMEMBERED = 2  # rotations of relmod_grid's memo at most: ~2 MiB each at n = 256
_HASHED_BYTES = 64  # of a key's bytes, the first this many are hashed: 4 complex entries


def _hashed(key: tuple) -> int:
    """The hash by which :class:`_Memo` indexes ``key``: that of the first :data:`_HASHED_BYTES` of its bytes, its last item.

    A full hash of the bytes of an n = 256 density costs seven times the
    compare that a hit makes anyway.
    """
    return hash(key[-1][:_HASHED_BYTES])


class _Memo:
    """The entries ``(key, value, bytes counted)`` of a memo, oldest first: the rules of the three memos.

    :func:`state` remembers States, and :func:`relmod_grid` rotations and
    kernel grids by them, of 2-D ``np.ndarray`` inputs only (and the
    identity operand's rotation ``U2* V`` of a 2-D pair, keyed by its two
    States alone; and the grid of one kernel with ``.fn`` by two States,
    keyed by them and the kernel's value, see :func:`_grid_key`); a value is
    a function of its key, so a hit has a miss's bits.  :meth:`keep` drops
    the oldest entries until the new one makes at most ``most``
    (:data:`_REMEMBERED` States, :data:`_ROTATIONS_REMEMBERED` rotations,
    grids bounded by their bytes alone) within ``budget`` bytes
    (:data:`STATE_MEMO_BYTES`, :data:`GRID_MEMO_BYTES` for grids; one over
    that alone is not kept, nor a key already present) and makes its arrays
    read-only.  A key is a tuple whose last item is bytes; an index by
    :func:`_hashed` finds its entry with one bytes compare, and an entry,
    known by its value's identity, becomes the newest or is dropped as the
    oldest in constant time.  A State found becomes the newest.  A hit takes
    no lock: it reads entries that are never changed and moves one with one
    call, so at worst it finds a value that another thread drops at that
    moment.  A rotation or grid is kept only while :func:`state` holds both
    of its States: it is kept with both held, and a density decomposed to
    be remembered drops every rotation and grid before its ``eigh`` and
    again once kept (in case one was kept meanwhile on another thread).
    ``_memo_lock`` guards keep and clear, with the find before a keep, never
    an ``eigh``, matmul or kernel evaluation.
    """

    def __init__(self):
        self.index: dict = {}  # _hashed(key) -> the entries of such keys
        self.order: OrderedDict = OrderedDict()  # id(value) -> its entry, oldest first
        self.bytes = 0

    @property
    def entries(self) -> list:
        """Every ``(key, value, bytes counted)``, oldest first."""
        return list(self.order.values())

    def find(self, key: tuple, newest: bool = False):
        """The value kept under ``key`` (None if none); with ``newest`` its entry becomes the newest."""
        for entry in self.index.get(_hashed(key), ()):
            if entry[0] == key:
                if newest:
                    try:
                        self.order.move_to_end(id(entry[1]))
                    except KeyError:  # dropped on another thread since it was found: a hit all the same
                        pass
                return entry[1]
        return None

    def holds(self, value) -> bool:
        """Whether ``value`` itself is the value of an entry (a live object's id is no other live object's)."""
        return id(value) in self.order

    def keep(self, key: tuple, value, size: int, budget: int, *arrays: np.ndarray, most=math.inf) -> None:
        """Keep ``value``, whose ``arrays`` become read-only, under a new ``key`` if its ``size`` in bytes fits ``budget``."""
        if size > budget or self.find(key) is not None:
            return
        order = self.order
        while order and (len(order) >= most or self.bytes + size > budget):
            old = order.popitem(last=False)[1]
            h = _hashed(old[0])
            rest = [entry for entry in self.index[h] if entry is not old]
            if rest:  # replaced, never emptied in place: a find without the lock reads the bucket it got
                self.index[h] = rest
            else:
                del self.index[h]
            self.bytes -= old[2]
        for a in arrays:
            a.setflags(write=False)
        entry = (key, value, size)
        self.index.setdefault(_hashed(key), []).append(entry)
        order[id(value)] = entry
        self.bytes += size

    def clear(self) -> None:
        self.index.clear()
        self.order.clear()
        self.bytes = 0


_state_memo = _Memo()  # keys: see _memo_key
_rotation_memo = _Memo()  # keys: see _rotation_key
_grid_memo = _Memo()  # keys: see _grid_key
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
    with the conjugate transpose; anything larger, any non-finite entry,
    and any entry whose modulus exceeds half the largest float (where the
    sum ``M + M*`` may overflow), raises.  Accepts a ``(..., n, n)`` stack;
    a single matrix is decided on Python floats, with the same checks and
    messages.
    """
    M = _square(M, "Hermitian matrix")
    top = _matrix_max(np.abs(M))
    fits = top <= sys.float_info.max / 2  # false when an entry is infinite, NaN or too large (or its modulus overflows)
    if not _all(fits):
        # zeroed before any arithmetic warns; the member is refused below
        M = np.where(np.expand_dims(fits, (-2, -1)), M, 0.0)
    allowed = HERMITIAN_TOL * (1.0 + top)
    Mh = dagger(M)
    dev = _matrix_max(np.abs(M - Mh))
    ok = fits & (dev <= allowed)
    if not _all(ok):
        top, dev, allowed = _first_rejected(ok, top, dev, allowed)
        if not top < np.inf:
            raise InvariantViolation("matrix has non-finite entries")
        if not top <= sys.float_info.max / 2:
            raise InvariantViolation(
                f"matrix entries are too large: max modulus {top:.3e} exceeds {sys.float_info.max / 2:.3e}"
            )
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
    """Empty every memo, so that the next call decomposes every density, rotates every operand and evaluates every kernel."""
    with _memo_lock:
        _state_memo.clear()
        _forget_pairs()


def _forget_pairs() -> None:
    """Drop every rotation and grid (their States may leave :func:`state`'s memo); the caller holds ``_memo_lock``."""
    _rotation_memo.clear()
    _grid_memo.clear()


def _decompose(D, label: str, key) -> State:
    """Validate and decompose D; remember the State under ``key`` (None: never) as :class:`_Memo` says."""
    if key is not None and (_rotation_memo.index or _grid_memo.index):
        with _memo_lock:
            _forget_pairs()
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
        size = len(key[2]) + U.nbytes + (0 if shared else H.nbytes)
        _state_memo.keep(key, new, size, STATE_MEMO_BYTES, w, U, H, most=_REMEMBERED)
        _forget_pairs()
    return new


def state(D, label: str = "state") -> State:
    """Validate a density or a stack, keeping the eigendecomposition.

    A density is Hermitian with unit trace and no eigenvalue below
    :data:`DENSITY_EIG_FLOOR` (rank-deficient input is an error, never
    regularized); a stack is refused at its first rejected member.
    A 2-D numeric ``np.ndarray`` density's State is remembered as
    :class:`_Memo` says, among up to :data:`_REMEMBERED` others within
    :data:`STATE_MEMO_BYTES`, keyed by dtype, shape and C-order bytes,
    counting the key, eigenvectors and validated matrix (unless it shares
    the key's bytes, as an exactly Hermitian complex128 array does).  Any
    other input is validated and decomposed with no lookup and no lock.
    """
    if isinstance(D, State):
        return D
    key = _memo_key(D)
    found = None if key is None else _state_memo.find(key, newest=True)  # None: never kept, so not looked up
    return found if found is not None else _decompose(D, label, key)


def _blas_pinned() -> bool:
    """Whether the environment pins BLAS to one thread: every one of :data:`BLAS_THREAD_VARIABLES` is ``"1"``."""
    return all(os.environ.get(name) == "1" for name in BLAS_THREAD_VARIABLES)


def _both(first, second, n: int) -> tuple:
    """``(first(), second())`` of two independent thunks; from dimension :data:`PRODUCT_THREAD_DIM` on, the second runs on a thread.

    The two overlap only when n, the caller's matrix dimension, is at least
    :data:`PRODUCT_THREAD_DIM` and :func:`_blas_pinned` holds; otherwise
    they run in turn on the caller's thread.  Below the crossover starting a
    thread costs more than the overlap saves, and a multi-threaded BLAS
    already uses the cores.  The thread is started per call (numpy releases
    the GIL inside BLAS, so the two overlap there) and joined before
    anything is returned or raised, and ``first``'s exception, if any, is
    raised before ``second``'s.
    """
    if n < PRODUCT_THREAD_DIM or not _blas_pinned():
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
    in turn, all on the caller's thread.
    """
    s1 = state(D1, "first state")
    if isinstance(D2, (np.ndarray, State)):
        _require_shape("second state", D2.shape, s1)
    else:  # read as an operand, so that a ragged or non-numeric D2 is refused as one
        _operand(D2, s1, "second state")
    return s1, state(D2, "second state")


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


def _rotation_key(s1: SpectralDecomposition, s2: SpectralDecomposition, A) -> tuple:
    """s1 and s2, then a 2-D A's dtype, shape, strides (BLAS may round another layout otherwise) and C-order bytes.

    The identity (A None) adds no bytes to the two States.
    """
    return (s1, s2, b"") if A is None else (s1, s2, A.dtype, A.shape, A.strides, A.tobytes())


def _keep_rotation(s1: SpectralDecomposition, s2: SpectralDecomposition, A, M: np.ndarray) -> None:
    """Keep M, the 2-D rotation of A (None: the identity) by s1 and s2, if :func:`state` holds both States."""
    with _memo_lock:
        if _state_memo.holds(s1) and _state_memo.holds(s2):
            key = _rotation_key(s1, s2, A)  # built again: a key held through the matmuls raised peak memory
            _rotation_memo.keep(key, M, M.nbytes + len(key[-1]), STATE_MEMO_BYTES, M, most=_ROTATIONS_REMEMBERED)


def _rotations(s1: SpectralDecomposition, s2: SpectralDecomposition, operands: tuple) -> list:
    """``[U2* A V for A in operands]`` as :func:`relmod_grid` says, remembered as :class:`_Memo` says.

    A rotation of more than two axes belongs to a stack, whose States
    :func:`state` never holds, and is not offered to the memo.
    """
    if len(operands) == 1 and operands[0] is None:  # umegaki, renyi: the loop below cost 3 % of their rate at n = 4
        M = _rotation_memo.find(_rotation_key(s1, s2, None)) if _rotation_memo.index else None
        if M is None:
            M = _rotate(s1, s2, None)
            if M.ndim == 2:
                _keep_rotation(s1, s2, None, M)
        return [M]
    if len(operands) == 2 and operands[1] is operands[0]:
        return _rotations(s1, s2, operands[:1]) * 2
    out, new = [], []
    for A in operands:
        keyed = A is None or type(A) is np.ndarray and A.ndim == 2
        M = _rotation_memo.find(_rotation_key(s1, s2, A)) if keyed and _rotation_memo.index else None
        if M is None:
            new.append((len(out), A, keyed))
        out.append(M)
    if not new:
        return out
    if len(new) == 2:
        (i, A, _), (j, B, _) = new
        n = s1.eigenvectors.shape[-1]
        out[i], out[j] = _both(lambda: _rotate(s1, s2, A), lambda: _rotate(s1, s2, B), n)
    else:
        for i, A, _ in new:
            out[i] = _rotate(s1, s2, A)
    for i, A, keyed in new:
        if keyed and out[i].ndim == 2:
            _keep_rotation(s1, s2, A, out[i])
    return out


def _kernel_value(v):
    """A kernel's function as a value that compares by its parameters, not by its identity.

    A ``functools.partial`` is its function, positional and keyword values
    (partials and tuples among them read in turn); a zero float also
    carries its sign, since ``-0.0 == 0.0`` but a kernel may round the two
    apart; anything else is itself.
    """
    t = type(v)
    if t is float:
        return v if v else (t, v, math.copysign(1.0, v))
    if t is functools.partial:
        args = _kernel_value(v.args) if v.args else ()
        return (v.func, args, tuple([(k, _kernel_value(u)) for k, u in v.keywords.items()]))
    if t is tuple:
        return tuple([_kernel_value(u) for u in v])
    return v


def _grid_key(F, s1: SpectralDecomposition, s2: SpectralDecomposition):
    """``(s1, s2, value, bytes of its hash)`` for one kernel with ``.fn`` by two States that :func:`state` holds, else None.

    The value is :func:`_kernel_value` of ``F.fn``, so that ``renyi(a)``'s
    kernel, built anew in every call, or ``wyd(p)`` built twice, is found;
    a held State is 2-D, so tuples, stacks, unheld States and bare
    callables get no key, nor does a kernel with an unhashable parameter
    (an array).
    """
    fn = getattr(F, "fn", None)
    if fn is None or not (_state_memo.holds(s1) and _state_memo.holds(s2)):
        return None
    value = _kernel_value(fn)
    try:
        h = hash((s1, s2, value))
    except TypeError:
        return None
    return (s1, s2, value, h.to_bytes(8, "little", signed=True))


def _keep_grid(key: tuple, W: np.ndarray) -> None:
    """Keep W, the grid of ``key``'s kernel and States, if :func:`state` holds both States."""
    with _memo_lock:
        if _state_memo.holds(key[0]) and _state_memo.holds(key[1]):
            _grid_memo.keep(key, W, W.nbytes + 1024, GRID_MEMO_BYTES, W)  # 1 KiB: the key, index and headers


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
    identity) and the operand's dtype, shape, strides and C-order bytes, and
    so is the identity's, keyed by the two States alone: ``renyi`` after
    ``umegaki`` on one pair rotates nothing.
    Two operands that it does not remember are rotated concurrently from
    :data:`PRODUCT_THREAD_DIM` on when BLAS is pinned (:func:`_both`).

    The grid of one kernel with ``.fn`` by States that :func:`state` holds
    is remembered too, keyed by the two States and the kernel's value
    (:func:`_grid_key`), within :data:`GRID_MEMO_BYTES`: a repeated call
    evaluates no kernel, and its grid, the array that the cold call
    returned, is read-only.  Tuples of kernels, stacks and bare callables
    are evaluated on every call.
    """
    key = _grid_key(F, s1, s2)
    W = _grid_memo.find(key) if key is not None and _grid_memo.index else None
    if W is None:
        W = _kernel_grid(F, s2.eigenvalues[..., :, None] / s1.eigenvalues[..., None, :])
        if key is not None:
            _keep_grid(key, W)
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
