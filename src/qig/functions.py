"""Standard operator monotone functions and their calculus.

A *standard* function is positive on (0, oo), fixes 1, and satisfies the
symmetry ``x f(1/x) = f(x)``; every operator monotone standard function is
pinched between the harmonic-mean kernel ``2x/(x+1)`` and the
arithmetic-mean kernel ``(1+x)/2``.  This module holds the named catalog
(the CLI grammar ``sld | harmonic | kubo-mori | wyd:<p> | extremal:<lambda>
| hansen:<file>``), the extremal kernel family and its probability
mixtures, the transform sending a metric function to its covariance
kernel, the Hessian kernel of a quasi-entropy, and grid/sampling
validators for standardness, operator monotonicity, and the scalar
uncertainty inequality.

Values at zero and second derivatives at 1 are stored analytically per
catalog entry, never estimated numerically: they enter whole identities
and the exact Hessian reference, so they must be exact.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import linalg
from .errors import DomainError, FileFormatError, InvariantViolation

#: half-width of the window around x = 1 where removable singularities are
#: evaluated by a second-order expansion instead of the raw formula
_SERIES_WINDOW = 1e-4
#: exponents the constructors accept that numpy applies by sqrt, copy or square
#: when the exponent is a scalar; in an exponent array they go through pow, so a
#: family key holds such a value and its members keep their scalar
_FAST_EXPONENTS = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class ScalarFunctionSpec:
    """A scalar function on the positive half-line with exact metadata.

    ``value_at_zero`` is the limit at 0+; ``second_derivative_at_one`` is
    the analytic value, carried by every catalog kernel; a spec without it
    (None) has no exact Hessian reference (:func:`hessian_kernel`).  The
    ``claims_*`` flags record what the construction guarantees; validators
    can only falsify them.

    A parametric constructor's ``fn`` is ``functools.partial(family,
    **params)`` of a module-level family function that is vectorized in
    its parameters: called with ``(m, 1, ...)`` parameter arrays it
    evaluates m members at once, each element as its scalar call does.
    The constructor declares which specs may share such a call in
    ``family``, a plain tuple: the family function, then each exponent's
    value where it is one of :data:`_FAST_EXPONENTS` and None otherwise
    (a Hansen mixture's atom count; a covariance or Hessian kernel's
    base's key, or the base's ``fn`` when the base has none).
    ``linalg._kernel_grid`` groups a tuple of kernels by ``family``; a
    spec without one (None) and a bare callable group by identity alone.
    ``fn`` leaves floating-point errors to its caller, which ignores them.
    """

    name: str
    fn: Callable
    value_at_zero: float
    second_derivative_at_one: float | None = None
    claims_standard: bool = False
    claims_operator_monotone: bool = False
    family: tuple | None = None

    def __call__(self, x):
        with np.errstate(all="ignore"):
            return self.fn(x)


_PROBE_GRID = np.sort(np.append(np.geomspace(1e-3, 1e3, 60), 1.0))
_PROBE_GRID.flags.writeable = False


def probe_grid() -> np.ndarray:
    """60 log-spaced points spanning [1e-3, 1e3] plus the symmetry pivot 1 (a fresh copy)."""
    return _PROBE_GRID.copy()


def _with_series(direct, series, x):
    """Evaluate ``direct`` away from 1 and ``series`` inside the window."""
    x = np.asarray(x)
    t = x - 1.0
    near = np.abs(t) < _SERIES_WINDOW
    return np.where(near, series(t), direct(np.where(near, 2.0, x)))[()]


def _sld(x):
    return (1.0 + x) / 2.0


def _harmonic(x):
    return 2.0 * x / (x + 1.0)


def _log_mean(x):
    return _with_series(lambda s: (s - 1.0) / np.log(s), lambda t: 1.0 + t / 2.0 - t * t / 12.0, x)


def _wyd(x, p, c0, c2):
    return _with_series(
        lambda s: c0 * (s - 1.0) ** 2 / ((s ** p - 1.0) * (s ** (1.0 - p) - 1.0)),
        lambda t: 1.0 + t / 2.0 + c2 * t * t,
        x,
    )


def _extremal_kernel(x, lam):
    return 0.5 * (1.0 + lam) * (1.0 / (x + lam) + 1.0 / (1.0 + x * lam))


def _extremal_metric(x, lam, scale):
    return 2.0 * (x + lam) * (1.0 + x * lam) / (scale * (1.0 + x))


def _hansen(x, atoms, weights):
    """``1 / sum_k w_k g_{a_k}(x)`` over the charged atoms, summed in order."""
    acc = weights[0] * _extremal_kernel(x, atoms[0])
    for a, w in zip(atoms[1:], weights[1:]):
        acc = acc + w * _extremal_kernel(x, a)
    return 1.0 / acc


def _covariance(x, f0, base):
    return 0.5 * ((x + 1.0) - (x - 1.0) ** 2 * f0 / base(x))


def _hessian(x, base, d2):
    return _with_series(
        lambda r: -(r * base(1.0 / r) + base(r) - (r + 1.0) * base(1.0)) / (r - 1.0) ** 2,
        lambda t: -d2 * (1.0 - t / 2.0),
        x,
    )


def _power(x, alpha):
    return x ** alpha


def _neglog(x):
    return -np.log(x)


def _renyi(x, alpha, c):
    return (1.0 - x ** alpha) / c


def sld() -> ScalarFunctionSpec:
    """Arithmetic-mean function ``(1+x)/2``, the largest standard function."""
    return ScalarFunctionSpec(
        name="sld",
        fn=_sld,
        value_at_zero=0.5,
        second_derivative_at_one=0.0,
        claims_standard=True,
        claims_operator_monotone=True,
    )


def harmonic() -> ScalarFunctionSpec:
    """Harmonic-mean function ``2x/(x+1)``, the smallest standard function."""
    return ScalarFunctionSpec(
        name="harmonic",
        fn=_harmonic,
        value_at_zero=0.0,
        second_derivative_at_one=-0.5,
        claims_standard=True,
        claims_operator_monotone=True,
    )


def kubo_mori() -> ScalarFunctionSpec:
    """``(x-1)/log x``, the logarithmic-mean function.

    The removable singularity at x = 1 is handled by the expansion
    ``1 + t/2 - t^2/12`` inside ``|x-1| < 1e-4`` to dodge catastrophic
    cancellation.
    """
    return ScalarFunctionSpec("kubo-mori", _log_mean, 0.0, -1.0 / 6.0, True, True)


def wyd(p: float) -> ScalarFunctionSpec:
    """``p(1-p)(x-1)^2 / ((x^p - 1)(x^{1-p} - 1))`` for p in (0, 1).

    The skew information of this function reproduces the commutator form
    ``-Tr [D^p, X][D^{1-p}, X] / 2``.  Limit values: 1 at x = 1 (removable,
    evaluated by series near 1) and ``p(1-p)`` at x = 0.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"wyd parameter must lie inside (0, 1), got {p!r}")
    c0 = p * (1.0 - p)
    fn = functools.partial(_wyd, p=p, c0=c0, c2=(p - p * p - 1.0) / 12.0)
    family = (_wyd, p if p in _FAST_EXPONENTS else None)
    return ScalarFunctionSpec(f"wyd:{p:g}", fn, c0, -(p * p - p + 1.0) / 6.0, True, True, family)


def extremal_kernel(lam: float) -> Callable:
    """Kernel ``((1+l)/2) (1/(x+l) + 1/(1+x l))`` for l in [0, 1].

    The family is pointwise decreasing in l, with largest member
    ``(x+1)/(2x)`` at l = 0 and smallest ``2/(x+1)`` at l = 1.
    """
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"extremal parameter must lie in [0, 1], got {lam!r}")
    return functools.partial(_extremal_kernel, lam=lam)


def extremal_metric(lam: float) -> ScalarFunctionSpec:
    """Standard function whose reciprocal is the extremal kernel at ``lam``.

    Closed form ``2(x+l)(1+xl) / ((1+l)^2 (1+x))`` with value
    ``2l/(1+l)^2`` at zero; l = 0 gives the harmonic-mean function and
    l = 1 the arithmetic-mean one.
    """
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"extremal parameter must lie in [0, 1], got {lam!r}")
    scale = (1.0 + lam) ** 2
    fn = functools.partial(_extremal_metric, lam=lam, scale=scale)
    d2 = -((1.0 - lam) ** 2) / (2.0 * scale)
    return ScalarFunctionSpec(f"extremal:{lam:g}", fn, 2.0 * lam / scale, d2, True, True, (_extremal_metric,))


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure on [0, 1]."""

    atoms: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if not self.atoms or len(self.atoms) != len(self.weights):
            raise InvariantViolation("measure needs matching, nonempty atom and weight lists")
        # negated comparisons: every comparison with NaN is false, so NaN fails
        if not all(0.0 <= a <= 1.0 for a in self.atoms):
            raise InvariantViolation("measure atoms must lie in [0, 1]")
        if not all(w >= 0.0 for w in self.weights):
            raise InvariantViolation("measure weights must be nonnegative")
        if not abs(sum(self.weights) - 1.0) <= 1e-12:
            raise InvariantViolation("measure weights must sum to one")

    @classmethod
    def from_pairs(cls, pairs) -> "DiscreteMeasure":
        try:
            return cls(tuple(float(a) for a, _ in pairs), tuple(float(w) for _, w in pairs))
        except OverflowError as exc:
            raise InvariantViolation(f"measure entry too large for a float: {exc}") from exc


def dirac(lam: float) -> DiscreteMeasure:
    """Point mass at ``lam``."""
    return DiscreteMeasure((float(lam),), (1.0,))


def hansen_mixture(measure: DiscreteMeasure) -> ScalarFunctionSpec:
    """Standard function built from a probability mixture of extremal kernels.

    The reciprocal of the result is ``sum_k w_k g_{a_k}``.  The value at
    zero comes analytically from ``g_a(0) = (1+a)^2 / (2a)``: it vanishes
    exactly when the measure charges the atom 0.  Its second derivative at
    1 is ``sum_k w_k f_{a_k}''(1)`` over the extremal metrics ``f_{a_k}``.
    """
    charged = [(a, w) for a, w in zip(measure.atoms, measure.weights) if w > 0.0]
    atoms, weights = zip(*charged)
    fn = functools.partial(_hansen, atoms=atoms, weights=weights)
    if any(a == 0.0 for a, _ in charged):
        f0 = 0.0
    else:
        f0 = 1.0 / sum(w * (1.0 + a) ** 2 / (2.0 * a) for a, w in charged)
    d2 = sum(-w * (1.0 - a) ** 2 / (2.0 * (1.0 + a) ** 2) for a, w in charged)
    label = ",".join(f"{a:g}:{w:g}" for a, w in zip(measure.atoms, measure.weights))
    return ScalarFunctionSpec(f"hansen[{label}]", fn, f0, d2, True, True, (_hansen, len(atoms)))


def covariance_kernel(f: ScalarFunctionSpec) -> ScalarFunctionSpec:
    """Covariance kernel ``((x+1) - (x-1)^2 f(0)/f(x)) / 2`` of a standard f.

    Generalized covariance with this kernel falls short of the symmetric
    covariance by exactly the skew information of f, so the transform turns
    a metric function into the matching covariance kernel.  It is standard
    and operator monotone again; its value at zero is 0 (or 1/2 when
    f(0) = 0, where the quadratic term drops and the kernel degenerates to
    ``(x+1)/2``), and its second derivative at 1 is ``-f(0)``.
    """
    if not f.claims_standard:
        raise DomainError(f"covariance kernel needs a standard function, got {f.name!r}")
    f0 = f.value_at_zero
    name = f"cov[{f.name}]"
    if f0 == 0.0:
        return ScalarFunctionSpec(name, _sld, 0.5, 0.0, True, True)
    fn = functools.partial(_covariance, f0=f0, base=f.fn)
    return ScalarFunctionSpec(name, fn, 0.0, -f0, True, True, (_covariance, f.family or f.fn))


def hessian_kernel(F: ScalarFunctionSpec) -> ScalarFunctionSpec:
    """Ratio kernel ``g(r) = -(r F(1/r) + F(r) - (r+1) F(1)) / (r-1)^2`` of the Hessian of ``S_F``.

    The mixed second derivative of ``(t, s) -> S_F(D + tA, D + sB)`` at 0 is
    ``sum_ab g(w_a/w_b) / w_b conj(At_ab) Bt_ab`` in D's eigenbasis (see
    :func:`~qig.verify.exact_mixed_derivative`).  Inside ``|r-1| < 1e-4``
    the kernel is the expansion ``-F''(1) (1 - t/2)``, ``t = r - 1``, which
    dodges the cancellation of the direct formula; a kernel without a
    carried ``F''(1)`` is refused.  ``F(1)`` is evaluated inside each call,
    and the limit at 0 is not tracked (NaN).
    """
    d2 = second_derivative_at_one(F)
    fn = functools.partial(_hessian, base=F.fn, d2=d2)
    return ScalarFunctionSpec(f"hessian[{F.name}]", fn, math.nan, family=(_hessian, F.family or F.fn))


def power_kernel(alpha: float) -> ScalarFunctionSpec:
    """``x^alpha``; operator monotone increasing exactly for alpha in (0, 1]."""
    if not 0.0 < alpha < math.inf:  # negated, so that NaN fails
        raise DomainError(f"power kernel needs a positive finite exponent, got {alpha!r}")
    return ScalarFunctionSpec(
        name=f"power:{alpha:g}",
        fn=functools.partial(_power, alpha=alpha),
        value_at_zero=0.0,
        second_derivative_at_one=alpha * (alpha - 1.0),
        claims_standard=False,
        claims_operator_monotone=0.0 < alpha <= 1.0,
        family=(_power, alpha if alpha in _FAST_EXPONENTS else None),
    )


def neglog_kernel() -> ScalarFunctionSpec:
    """``-log x``, the relative-entropy kernel (operator monotone decreasing)."""
    return ScalarFunctionSpec("neglog", _neglog, math.inf, 1.0, False, False)


def renyi_kernel(alpha: float) -> ScalarFunctionSpec:
    """``(1 - x^alpha)/(alpha(1-alpha))``, operator convex decreasing kernel.

    Defined for alpha in (-1, 1) without 0; the alpha -> 0 limit is -log x.
    """
    if not -1.0 < alpha < 1.0 or alpha == 0.0:
        raise DomainError("alpha must be nonzero and inside (-1, 1)")
    c = alpha * (1.0 - alpha)
    return ScalarFunctionSpec(
        name=f"renyi:{alpha:g}",
        fn=functools.partial(_renyi, alpha=alpha, c=c),
        value_at_zero=math.inf if alpha < 0.0 else 1.0 / c,
        second_derivative_at_one=1.0,
        claims_standard=False,
        claims_operator_monotone=False,
        family=(_renyi, alpha if alpha in _FAST_EXPONENTS else None),
    )


def _in_order_max(*values):
    """Elementwise ``max(*values)`` as Python picks it: a later value wins only when larger.

    So a NaN is kept in first place and skipped after it, as for floats.
    """
    out = values[0]
    for v in values[1:]:
        out = np.where(v > out, v, out)
    return out


def _unstacked(values: np.ndarray, stacked: bool):
    """The array of a stack's members, or the Python float (or bool) of one function's one member."""
    return values if stacked else values[0].item()


def _grid_values(fs: tuple, x: np.ndarray, dtype=float) -> np.ndarray:
    """``(m, len(x))`` values of the functions fs on the 1-D grid x, one kernel call per family.

    Unlike :func:`~qig.linalg.eval_scalar` the values are not checked.
    """

    def evaluate(fn, points):
        # a constant function may return one number for the whole grid
        with np.errstate(all="ignore"):
            vals = np.asarray(getattr(fn, "fn", fn)(points), dtype=dtype)
        return np.broadcast_to(vals, points.shape)

    return linalg._kernel_grid(fs, np.tile(x, (len(fs), 1)), core=1, evaluate=evaluate)


#: pass thresholds of the probe checks (and of their suites in ``qig.verify``): the worst
#: standardness violation, the Loewner and Pick margins, the scalar uncertainty margin
STANDARD_TOL = 1e-9
LOEWNER_TOL = 1e-8
PICK_TOL = 1e-10
SCALAR_INEQUALITY_TOL = 1e-10

#: probe points must lie in [1/PROBE_LIMIT, PROBE_LIMIT]: there ``(x - 1)^2``,
#: ``1/x`` and products of two standard kernels' values stay finite
PROBE_LIMIT = 1e150


def _probe_points(grid) -> np.ndarray:
    """The grid (the default probe grid for None), flat.

    Refuses an empty, non-positive or NaN grid, and points outside
    ``[1/PROBE_LIMIT, PROBE_LIMIT]``, where the checks would overflow.
    """
    x = np.asarray(_PROBE_GRID if grid is None else grid, dtype=float).reshape(-1)
    if x.size == 0 or not np.all(x > 0.0):  # negated, so that NaN fails
        raise DomainError("probe grid must be nonempty and strictly positive")
    if not np.all((x >= 1.0 / PROBE_LIMIT) & (x <= PROBE_LIMIT)):
        raise DomainError(f"probe grid points must lie in [{1.0 / PROBE_LIMIT:.0e}, {PROBE_LIMIT:.0e}]")
    return x


@dataclass(frozen=True)
class StandardnessReport:
    """Worst grid violations of the standardness contract (arrays for a tuple of functions)."""

    symmetry: float
    normalization: float
    lower_bound: float
    upper_bound: float
    passed: bool

    @property
    def max_violation(self) -> float:
        worst = _in_order_max(self.symmetry, self.normalization, self.lower_bound, self.upper_bound)
        return worst if np.ndim(worst) else worst.item()


def check_standard(f, grid=None) -> StandardnessReport:
    """Probe the standardness contract of f on a grid.

    Checks the symmetry ``x f(1/x) = f(x)``, the normalization f(1) = 1,
    and the two-sided bound ``2x/(x+1) <= f(x) <= (1+x)/2``; passes when
    every violation stays at or below :data:`STANDARD_TOL`.  A tuple of functions
    is checked with one kernel call per family and gives arrays of the
    members' fields, each equal to the member's own call.
    """
    x = _probe_points(grid)
    if not (np.any(x < 1.0) and np.any(x > 1.0)):
        raise DomainError("probe grid must contain points below and above 1")
    stacked = isinstance(f, tuple)
    vals = _grid_values(f if stacked else (f,), np.concatenate([x, 1.0 / x, [1.0]]))
    fx, finv = vals[:, : x.size], vals[:, x.size : -1]
    symmetry = np.max(np.abs(x * finv - fx), axis=-1)
    normalization = np.abs(vals[:, -1] - 1.0)
    lower = _in_order_max(0.0, np.max(2.0 * x / (x + 1.0) - fx, axis=-1))
    upper = _in_order_max(0.0, np.max(fx - (1.0 + x) / 2.0, axis=-1))
    passed = _in_order_max(symmetry, normalization, lower, upper) <= STANDARD_TOL
    fields = (symmetry, normalization, lower, upper, passed)
    return StandardnessReport(*(_unstacked(v, stacked) for v in fields))


#: fixed upper half-plane grid for the analytic (Pick) sub-check
_PICK_GRID = np.array(
    [
        a + 1j * b
        for b in (0.05, 0.3, 1.0, 4.0)
        for a in (-6.0, -2.5, -1.0, -0.4, 0.0, 0.4, 1.0, 2.5, 6.0)
    ]
)


@dataclass(frozen=True)
class MonotonicityReport:
    """Sampled margins for the matrix order and half-plane sub-checks.

    For a tuple of functions every field is an array over the members, with
    a NaN ``pick_margin`` where the sub-check is skipped.
    """

    loewner_margin: float
    pick_margin: float | None
    pick_skipped: bool
    passed: bool


def _pick_margins(fs: tuple) -> list:
    """Smallest imaginary part of each function on the Pick grid, None where it does not evaluate there."""
    try:
        with np.errstate(all="ignore"):
            vals = _grid_values(fs, _PICK_GRID, complex)
    except (TypeError, ValueError):
        if len(fs) == 1:
            return [None]
        return [m for f in fs for m in _pick_margins((f,))]
    return [float(np.min(v.imag)) if np.all(np.isfinite(v)) else None for v in vals]


def check_operator_monotone(f, seed=0, trials: int = 40, dim: int = 3) -> MonotonicityReport:
    """Sample the matrix-order and upper-half-plane behaviour of f.

    Loewner sub-check: draws ``trials`` pairs ``A <= B`` of Hermitian
    matrices with spectra inside [1e-3, 10] (``B = A + P`` with P positive
    semidefinite), in order from the seed's generator, then builds and
    checks them as one stack and records the smallest eigenvalue of
    ``f(B) - f(A)`` over the pairs.  Pick
    sub-check: evaluates f on a fixed grid in the open upper half-plane
    and records the smallest imaginary part; it is skipped and flagged
    when f does not evaluate on complex arguments.  Passes at margins of at
    least ``-LOEWNER_TOL`` and (unless skipped) ``-PICK_TOL``; numerics can
    only falsify monotonicity, never prove it.  A ``dim`` that is not an
    integer of at least 1 raises ``DomainError`` before anything is drawn.

    A tuple of functions takes a sequence of seeds, one per member: the
    pairs of all members are built and checked as one stack, with one
    kernel call per family, and every field is an array over the members,
    each equal to the member's own call.
    """
    linalg.require_dimension(dim)
    stacked = isinstance(f, tuple)
    fs, seeds = (f, tuple(seed)) if stacked else ((f,), (seed,))
    if len(seeds) != len(fs):
        raise DomainError(f"{len(fs)} functions need as many seeds, got {len(seeds)}")
    loewner = [math.inf] * len(fs)
    draws = [
        (
            rng.uniform(1e-3, 4.5, size=dim),
            linalg.draw_ginibre(rng, (dim, dim)),
            linalg.draw_ginibre(rng, (dim, dim)),
            rng.uniform(0.05, 1.0),
        )
        for rng in map(np.random.default_rng, seeds)
        for _ in range(max(0, int(trials)))
    ]
    if draws:
        w, raw_u, raw_p, shrink = (np.array(x) for x in zip(*draws))
        U = linalg.phase_fixed_qr(linalg.ginibre(raw_u))
        A = (U * w[:, None, :]) @ linalg.dagger(U)
        A = (A + linalg.dagger(A)) / 2
        G = linalg.ginibre(raw_p)
        P = G @ linalg.dagger(G)
        headroom = 10.0 - np.max(w, axis=-1)
        P *= (shrink * headroom / np.linalg.eigvalsh(P)[:, -1])[:, None, None]
        B = (A + P + linalg.dagger(A + P)) / 2
        # each function's pairs as (f, [B, A], pair): one eigh for all of them
        shape = (len(fs), -1, dim, dim)
        fBA = linalg.apply_matrix_function(fs, np.stack([B.reshape(shape), A.reshape(shape)], axis=1))
        diff = fBA[:, 0] - fBA[:, 1]
        diff = (diff + linalg.dagger(diff)) / 2
        loewner = [min(row) for row in np.linalg.eigvalsh(diff)[..., 0].tolist()]
    pick = _pick_margins(fs)
    passed = [
        (trials <= 0 or lo >= -LOEWNER_TOL) and (pm is None or pm >= -PICK_TOL)
        for lo, pm in zip(loewner, pick)
    ]
    if not stacked:
        return MonotonicityReport(loewner[0], pick[0], pick[0] is None, passed[0])
    skipped = np.array([pm is None for pm in pick])
    margins = np.array([math.nan if pm is None else pm for pm in pick])
    return MonotonicityReport(np.array(loewner), margins, skipped, np.array(passed))


@dataclass(frozen=True)
class ScalarInequalityReport:
    """Minimum of ``f g - f(0) g(0) (x-1)^2`` over the grid (arrays for tuples of functions)."""

    min_margin: float
    passed: bool


def scalar_inequality_check(f, g, grid=None) -> ScalarInequalityReport:
    """Grid check of ``f(x) g(x) >= f(0) g(0) (x-1)^2`` for standard f, g, to ``SCALAR_INEQUALITY_TOL``.

    Equal-length tuples of functions check the pairs ``(f_k, g_k)`` with one
    kernel call per family and give arrays, each member equal to its own call.
    """
    stacked = isinstance(f, tuple)
    fs, gs = (f, g) if stacked else ((f,), (g,))
    if len(fs) != len(gs):
        raise DomainError(f"{len(fs)} functions f need as many functions g, got {len(gs)}")
    if not all(h.claims_standard for h in fs + gs):
        raise DomainError("the scalar inequality is stated for standard functions only")
    x = _probe_points(grid)
    vals = _grid_values(fs + gs, x)
    at_zero = np.array([a.value_at_zero * b.value_at_zero for a, b in zip(fs, gs)])
    margin = vals[: len(fs)] * vals[len(fs) :] - at_zero[:, None] * (x - 1.0) ** 2
    m = np.min(margin, axis=-1)
    return ScalarInequalityReport(_unstacked(m, stacked), _unstacked(m >= -SCALAR_INEQUALITY_TOL, stacked))


def second_derivative_at_one(F) -> float:
    """The analytic second derivative of F at 1 that the spec carries; a kernel without one is refused."""
    carried = getattr(F, "second_derivative_at_one", None)
    if carried is None:
        raise DomainError(f"kernel {getattr(F, 'name', F)!r} carries no second derivative at 1")
    return float(carried)


def load_measure(path) -> DiscreteMeasure:
    """Read a measure file: a JSON list of [atom, weight] pairs."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    # type() rather than isinstance(): JSON true/false arrive as bool, an int subclass
    if not isinstance(raw, list) or not all(
        isinstance(pair, list) and len(pair) == 2 and all(type(x) in (int, float) for x in pair)
        for pair in raw
    ):
        raise FileFormatError(f"{path}: expected a JSON list of [atom, weight] pairs of numbers")
    return DiscreteMeasure.from_pairs(raw)


class _Spec(NamedTuple):
    """One spec name: its parameter (None if it takes none), constructor and listing."""

    param: str | None
    build: Callable
    summary: str
    kernel_only: bool = False


#: spec name -> parameter, constructor, ``qig list`` text, kernel only; a ``file``
#: parameter is passed through as a path, every other one parsed as a float
SPECS = {
    "sld": _Spec(None, sld, "f(0)=0.5"),
    "harmonic": _Spec(None, harmonic, "f(0)=0"),
    "kubo-mori": _Spec(None, kubo_mori, "f(0)=0"),
    "wyd": _Spec("p", wyd, "f(0)=p(1-p)"),
    "extremal": _Spec("lambda", extremal_metric, "f(0)=2*lambda/(1+lambda)^2"),
    "hansen": _Spec(
        "file", lambda path: hansen_mixture(load_measure(path)), "f(0)=1/sum_k w_k*(1+a_k)^2/(2*a_k)"
    ),
    "neglog": _Spec(None, neglog_kernel, "relative-entropy kernel -log x", True),
    "power": _Spec("alpha", power_kernel, "x^alpha, operator monotone for alpha in (0,1]", True),
    "identity": _Spec(None, lambda: power_kernel(1.0), "shorthand for power:1", True),
}


def parse_function_spec(token: str, allow_kernels: bool = False) -> ScalarFunctionSpec:
    """Parse ``sld | harmonic | kubo-mori | wyd:<p> | extremal:<lambda> |
    hansen:<file>``; with ``allow_kernels`` also ``neglog | power:<alpha> |
    identity``."""
    base, sep, arg = token.partition(":")
    key = base.strip().lower().replace("_", "-")
    spec = SPECS.get(key)
    if spec is None or (spec.kernel_only and not allow_kernels):
        raise DomainError(f"unknown function spec {token!r}")
    if spec.param is None:
        if sep:
            raise DomainError(f"{key} spec takes no parameter, got {token!r}")
        return spec.build()
    if not arg:
        raise DomainError(f"{key} spec needs a parameter, e.g. {key}:<{spec.param}>")
    if spec.param == "file":
        return spec.build(arg)
    try:
        value = float(arg)
    except ValueError as exc:
        raise DomainError(f"invalid {spec.param} in {key!r} spec: {arg!r}") from exc
    return spec.build(value)
