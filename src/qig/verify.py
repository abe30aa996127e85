"""Finite-difference and random-instance verification harness.

The mixed second derivative of the quasi-entropy along state perturbations
is estimated by a central stencil with Richardson extrapolation across a
step schedule, and computed exactly by :func:`exact_mixed_derivative`, the
Daleckii-Krein double sum over the state's eigenbasis.  The schedule's
steps are fractions of each state's smallest eigenvalue, so every stencil
point is a density by construction and the truncation error does not grow
with the dimension.  The derivative identities (commuting directions,
cross directions, the quadratic commutator identity) are each the gap
between the two; the Hessian form of skew information compares its
estimate with ``f(0)`` times the metric.
Determinant uncertainty margins and all sampling suites live here too; the
probe suites' pass thresholds are the constants of :mod:`~qig.functions`.

Suites are deterministic in ``(seed, trials, dims)``: every trial derives
its generator from the suite seed and the trial index.  Trial i draws the
``PCG64`` stream that ``np.random.SeedSequence([seed, i])`` seeds:
:func:`_trial_seed_words` runs numpy's seed hash for all trials at once,
and each trial's generator is seeded from its row when it is drawn.  A
trial index is one 32-bit entropy word, so a suite runs at most ``2**32``
trials.  :func:`run_suite` draws every trial first, then groups the drawn
trials by shape key: ``monotonicity`` ``(n_in, n_out, k)``,
``det-uncertainty`` ``(n, m)``, one group for all trials of
``standardness`` and ``scalar-gibi``, and ``n`` for the other nine suites.
Each trial keeps its own kernel: a group's kernel tuple pairs with the first
axis of its state stack (the one rule of :mod:`qig.linalg`).
Trials draw only random numbers, the raw Ginibre arrays,
commuting-direction coefficients and kernel parameters in stream order; a
group builds its densities, unit operands, observables and channel
isometries from those arrays as stacks, then validates, decomposes and
pairs them at once, one state ``eigh`` per group.
:func:`_orthonormal_group` makes the centered observables of ``hessian``,
``skew-identity`` (one each) and ``det-uncertainty`` (m each): a stacked
Gram-Schmidt in draw order, rerun sequentially for a member that meets a
candidate of norm at most :data:`MIN_CANDIDATE_NORM`.  A group's
finite-difference stencil is one ``eigh`` call, and each probe-grid suite
hands a group's tuple of functions to one probe check.
An evaluator returns its group's margins, residuals and digest parts, and
:func:`run_suite` alone builds the trial records, in trial order, digesting
the inputs of failing trials only.  A group whose evaluation raises
``VerificationError`` or ``InvariantViolation`` is rerun one trial at a
time, so the failure lands on the trial that raised.
"""

from __future__ import annotations

import copy
import itertools
import math
import numbers
import time
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable, NamedTuple

import numpy as np

from . import channels, functions, linalg, quantities
from .errors import DomainError, InvariantViolation, VerificationError
from .quantities import _each, _real, digest_inputs

#: smallest absolute finite-difference step, ``lambda_min * c``, that a member may take
MIN_STEP = 1e-5
#: Gram-Schmidt replaces a candidate observable of at most this norm after centering and projection
MIN_CANDIDATE_NORM = 1e-6


@dataclass(frozen=True)
class StepSchedule:
    """Strictly decreasing step fractions ``c_k`` of each state's smallest eigenvalue.

    A state D takes the steps ``h_k = c_k lambda_min(D)``.  The first
    fraction is at most 0.5, so every stencil point ``D +- h_k A`` along a
    unit direction (operator norm at most 1) keeps a smallest eigenvalue of
    at least ``lambda_min(D) / 2``.  The last is at least :data:`MIN_STEP`,
    below which no density has a usable step.
    """

    steps: tuple[float, ...] = (0.03, 0.003)

    def __post_init__(self):
        if not self.steps:
            raise InvariantViolation("step schedule must be nonempty")
        # negated comparisons, so that a NaN step fails them
        if not all(h > 0.0 for h in self.steps):
            raise InvariantViolation("steps must be positive")
        if not all(a > b for a, b in zip(self.steps, self.steps[1:])):
            raise InvariantViolation("steps must be strictly decreasing")
        if not self.steps[0] <= 0.5:
            raise InvariantViolation("the first step must be at most 0.5 of the smallest eigenvalue")
        if not self.steps[-1] >= MIN_STEP:
            raise InvariantViolation(f"smallest step must be at least {MIN_STEP:g}")


@dataclass
class TrialReport:
    """Aggregated outcome of one property suite."""

    suite: str
    trials: int
    min_margin: float | None
    max_residual: float | None
    failures: list = field(default_factory=list)
    elapsed: float = 0.0
    margin_tolerance: float = math.inf
    residual_tolerance: float = math.inf

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        def tol(v: float):
            return None if math.isinf(v) else v

        return {
            "suite": self.suite,
            "trials": self.trials,
            "min_margin": self.min_margin,
            "max_residual": self.max_residual,
            "failures": self.failures,
            "elapsed": self.elapsed,
            "tolerances": {
                "margin": tol(self.margin_tolerance),
                "residual": tol(self.residual_tolerance),
            },
        }


def random_density(n: int, floor: float = 0.01, seed=0) -> linalg.State:
    """Random invertible density: normalized Ginibre square mixed with identity.

    ``(1 - n*floor) * G G^*/Tr(G G^*) + floor * I`` keeps the smallest
    eigenvalue at or above ``floor``.  Refuses, before drawing, all but an
    integer ``n >= 1`` and ``0 < floor < 1/n``.  Returns the validated
    :class:`~qig.linalg.State`, which numpy reads as its matrix.
    """
    linalg.require_dimension(n)
    if not 0.0 < floor < 1.0 / n:
        raise DomainError(f"floor must lie in (0, 1/{n}), got {floor!r}")
    return linalg.state(_densities(_draw_density(n, np.random.default_rng(seed)), floor))


def _draw_density(n: int, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    """Raw draw of the Ginibre square :func:`random_density` builds from, or a ``(count, 2, n, n)`` stack of count.

    See :func:`~qig.linalg.draw_ginibre`; ``count`` draws take one
    ``standard_normal`` call, the stream of count draws in turn.  For
    ``n = 1`` draws nothing and returns zeros.  The density floor enters
    only when :func:`_densities` builds the density, so a suite states its
    floor once, in its evaluator.
    """
    shape = (2, n, n) if count is None else (count, 2, n, n)
    if n == 1:
        return np.zeros(shape)
    return rng.standard_normal(shape)


def _densities(raw: np.ndarray, floor: float) -> np.ndarray:
    """``(1 - n*floor) G G*/Tr(G G*) + floor I`` from a raw density draw or a stack of them."""
    G = linalg.ginibre(raw)
    n = G.shape[-1]
    if n == 1:
        return np.ones_like(G)
    rho = G @ linalg.dagger(G)
    rho /= rho.trace(axis1=-2, axis2=-1).real[..., None, None]
    rho *= 1.0 - n * floor  # in place: a group's stack is the largest array a suite holds
    rho += floor * np.eye(n)
    return rho


def _norms(M: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt norms over the last two axes (a numpy scalar for one matrix)."""
    return np.sqrt(np.sum(np.abs(M) ** 2, axis=(-2, -1)))


def _hermitians(raw: np.ndarray, unit: bool = True) -> np.ndarray:
    """Hermitian parts of the Ginibre matrices of a raw draw or a stack of them, unit norm by default."""
    G = linalg.ginibre(raw)
    H = (G + linalg.dagger(G)) / 2
    return H / _norms(H)[..., None, None] if unit else H


def random_hermitian(n: int, rng: np.random.Generator, unit: bool = True) -> np.ndarray:
    """Random Hermitian matrix, unit Hilbert-Schmidt norm by default."""
    return _hermitians(linalg.draw_ginibre(rng, (n, n)), unit)


def _unit_operands(raw: np.ndarray) -> np.ndarray:
    """Ginibre matrices of a raw draw or a stack of them, scaled to unit Hilbert-Schmidt norm."""
    G = linalg.ginibre(raw)
    return G / _norms(G)[..., None, None]


def center_observable(D, A) -> np.ndarray:
    """Subtract the mean: ``A - (Tr D A) I`` so that ``Tr D (result) = 0``.

    Takes a stack of states with an equal-shape stack of observables too.
    """
    D = linalg.as_density(D)
    A = linalg._observable(A, D)
    means = (D @ A).trace(axis1=-2, axis2=-1).real
    return A - means[..., None, None] * np.eye(D.shape[-1])


def _first(values, bad) -> float:
    """The value of the first member flagged by ``bad``, the value itself for one matrix."""
    return float(np.asarray(values)[bad].flat[0])


def mixed_second_derivative(F, D, A, B, schedule: StepSchedule | None = None):
    """Mixed second derivative of ``(t, s) -> S_F(D + tA, D + sB)`` at 0.

    Central stencil ``(g(h,h) - g(h,-h) - g(-h,h) + g(-h,-h)) / (4h^2)``
    with Richardson extrapolation across the schedule (directions are
    normalized to unit Hilbert-Schmidt norm internally and the result
    rescaled, so tolerances are scale-free).  Returns the value and an
    error estimate, the gap between the last two extrapolation levels.
    The steps are the schedule's fractions of D's smallest eigenvalue, so
    every stencil point is a density with at least half of it; a state
    whose smallest step ``lambda_min c_S`` falls below :data:`MIN_STEP`
    (``lambda_min < MIN_STEP / c_S``, 3.3e-3 for the default schedule)
    raises ``VerificationError``.

    D, A and B may be equal-shape ``(..., n, n)`` stacks, with F one kernel
    or a tuple of one per member of the first axis; the values and
    estimates are then arrays over the leading axes, each member on its own
    steps.  The ``4 S`` points of every member are validated and decomposed
    as one stack, and the four corners of every step of every member are
    paired in one call.  A member with a zero direction gets ``(0, 0)`` and
    takes no step.  Each member's value equals its 2-D call's.
    """
    D = linalg.state(D)
    A = linalg._observable(A, D, "first perturbation")
    B = linalg._observable(B, D, "second perturbation")
    for M in (A, B):
        if (abs(M.trace(axis1=-2, axis2=-1).real) > 1e-10).any():
            raise InvariantViolation("perturbations must be traceless")
    linalg._check_kernels(F, D.shape, core=2)
    sched = schedule if schedule is not None else StepSchedule()
    batch, n = D.shape[:-2], D.shape[-1]
    Dm, A, B = (M.reshape(-1, n, n) for M in (D.matrix, A, B))
    na, nb = _norms(A), _norms(B)
    live = np.flatnonzero((na != 0.0) & (nb != 0.0))
    # the unit directions [member, direction (A, B)] and steps [member, step] of the live members
    dirs = np.stack([A[live], B[live]], axis=1)
    dirs -= (dirs.trace(axis1=-2, axis2=-1).real / n)[..., None, None] * np.eye(n)
    dirs /= np.stack([na[live], nb[live]], axis=1)[..., None, None]
    hs = D.eigenvalues.reshape(-1, n)[live, :1] * np.asarray(sched.steps)
    short = hs[:, -1] < MIN_STEP
    if short.any():
        raise VerificationError(
            f"step schedule exhausted before extrapolation: smallest step "
            f"{_first(hs[:, -1], short):.3e} is below {MIN_STEP:g}"
        )
    # D + t M as [member, step, direction, sign (+h, -h)], every one a density by construction
    t = np.stack([hs, -hs], axis=-1)
    pts = linalg.state(Dm[live, None, None, None] + t[:, :, None, :, None, None] * dirs[:, None, :, None])
    # g[r, k, a, b] = S_F(first point a, second point b) of member r at step k
    F_live = tuple(F[i * len(F) // len(Dm)] for i in live) if isinstance(F, tuple) else F  # each row's kernel
    g = quantities.quasi_entropy(F_live, None, pts[:, :, 0, :, None], pts[:, :, 1, None, :])
    stencil = (g[..., 0, 0] - g[..., 0, 1] - g[..., 1, 0] + g[..., 1, 1]) / (4.0 * hs * hs)
    v, e = _neville((hs * hs).T, stencil.T)
    value, err = np.zeros(len(Dm)), np.zeros(len(Dm))
    value[live], err[live] = v * na[live] * nb[live], e * na[live] * nb[live]
    if not batch:
        return float(value[0]), float(err[0])
    return value.reshape(batch), err.reshape(batch)


def _neville(x, vals) -> tuple:
    """Neville extrapolation to x = 0 of a polynomial through ``(x_i, vals_i)``.

    The values may be arrays, extrapolated elementwise.  The error estimate
    is the gap between the last two extrapolation levels.
    """
    r = list(vals)
    for j in range(1, len(r)):
        for i in range(len(r) - j):
            r[i] = (x[i + j] * r[i] - x[i] * r[i + 1]) / (x[i + j] - x[i])
    return r[0], abs(r[0] - r[1])


def _require_commuting(D, A) -> None:
    dev = np.abs(linalg.commutator(D, A)).max(axis=(-2, -1))
    scale = 1.0 + np.abs(A).max(axis=(-2, -1))
    bad = dev > 1e-12 * scale
    if bad.any():
        raise InvariantViolation(
            f"operators must commute with the state; deviation {_first(dev, bad):.3e}"
        )


def exact_mixed_derivative(F, D, A, B):
    """Exact mixed second derivative of ``(t, s) -> S_F(D + tA, D + sB)`` at 0.

    The Daleckii-Krein double sum ``sum_ab g(w_a/w_b) / w_b conj(At_ab) Bt_ab``
    over D's eigenbasis ``(w, U)``, with ``At = U* A U`` and g the
    :func:`~qig.functions.hessian_kernel` of F (Bhatia, *Matrix Analysis*,
    ch. V); one decomposition and one ratio grid.  It holds for any
    Hermitian A, B; F must carry ``F''(1)``.  Takes stacks and per-member
    kernel tuples as :func:`mixed_second_derivative` does.
    """
    D = linalg.state(D)
    A = linalg._observable(A, D, "first direction")
    B = linalg._observable(B, D, "second direction")
    W, (At, Bt) = linalg.relmod_grid(_each(functions.hessian_kernel, F), D, D, A, B)
    return _real((np.conj(At) * Bt * (W / D.eigenvalues[..., None, :])).sum(axis=(-2, -1)).real)


def _fd_defect(F, D, A, B, schedule: StepSchedule | None):
    """``|FD - exact|`` along ``(A, B)`` per member; a kernel without ``F''(1)`` fails before the stencil."""
    exact = exact_mixed_derivative(F, D, A, B)
    fd, _ = mixed_second_derivative(F, D, A, B, schedule)
    return _real(abs(fd - exact))


def lemma_commuting_residual(F, D, A, B, schedule: StepSchedule | None = None):
    """Defect of the mixed derivative along directions commuting with D.

    For traceless Hermitian A, B commuting with D the exact value is
    ``-F''(1) Tr D^{-1} A B``; returns ``|FD - exact|`` against
    :func:`exact_mixed_derivative`.  Like every identity below it takes
    stacks as :func:`mixed_second_derivative` does, and then returns the
    array of its members' values.
    """
    D = linalg.state(D)
    A = linalg._observable(A, D, "first direction")
    B = linalg._observable(B, D, "second direction")
    for M in (A, B):
        _require_commuting(D.matrix, M)
    return _fd_defect(F, D, A, B, schedule)


def hessian_vs_skew(f, D, X, schedule: StepSchedule | None = None):
    """Hessian of the quasi-entropy with the covariance kernel vs skew information.

    For standard f with f(0) != 0 and centered Hermitian X, the mixed
    derivative of ``S_{cov_kernel(f)}`` along ``(1j[D,X], 1j[D,X])`` equals
    ``f(0)`` times the metric on that commutator direction.  Returns
    ``(lhs, rhs, relative error)`` with ``relerr = |lhs - rhs| / (1 + |rhs|)``,
    and raises ``VerificationError`` when the finite-difference lhs leaves
    ``rhs = f(0) gamma_f`` by more than ``max(1e-6, 10 x its error estimate)``.
    Stacks of states and observables, with f one function or one per
    member, give arrays; a member that fails that check makes the call raise.
    """
    quantities._require_standard(f, "the Hessian identity")
    D = linalg.state(D)
    f0 = quantities._at_zero(f, D.matrix.ndim - 2)
    if np.any(f0 == 0.0):
        raise DomainError("the Hessian identity needs f(0) != 0")
    X = linalg._observable(X, D)
    quantities._require_centered(D, X)
    ft = _each(functions.covariance_kernel, f)
    B = quantities.commutator_direction(D, X)
    lhs, err = mixed_second_derivative(ft, D, B, B, schedule)
    rhs = f0 * quantities.fisher(f, D, B, B).real
    relerr = abs(lhs - rhs) / (1.0 + abs(rhs))
    bad = abs(lhs - rhs) > np.maximum(1e-6, 10.0 * err)
    if bad.any():
        raise VerificationError(
            f"finite difference disagrees with f(0) times the metric: "
            f"{_first(lhs, bad)!r} vs {_first(rhs, bad)!r}"
        )
    return _real(lhs), _real(rhs), _real(relerr)


def _gram_operands(D, observables) -> tuple[linalg.State, np.ndarray, np.ndarray]:
    """The state and the observables ``(A_a, B_b)`` of every Gram entry, validated, centered and broadcast.

    One state takes a sequence of m observables; a stack of states takes a
    ``(..., m, n, n)`` array with the same leading axes.  ``A_a`` comes as
    ``(m, 1, ...)`` and ``B_b`` as ``(1, m, ...)``, ahead of the state's
    axes; the callers move the ``(m, m)`` axes last.
    """
    D = linalg.state(D)
    if D.matrix.ndim > 2:  # the m axis first; an array of fewer axes is one member, refused below
        observables = np.moveaxis(observables, -3, 0) if np.ndim(observables) > 2 else [observables]
    obs = [linalg._operand(A, D, "observable", exact=True) for A in observables]
    obs = linalg.as_hermitian(np.reshape(obs, (len(obs),) + D.shape))
    quantities._require_centered(D, obs)
    return D, obs[:, None], obs[None]


def cov_gram(g, D, observables) -> np.ndarray:
    """Gram matrix of generalized covariances of centered observables.

    A stack of states with a ``(..., m, n, n)`` stack of observables gives
    the ``(..., m, m)`` stack of Gram matrices; g may then be a tuple of one
    kernel per member of the first axis.
    """
    G = np.moveaxis(quantities.gen_cov(g, *_gram_operands(D, observables)), (0, 1), (-2, -1))
    return (G + linalg.dagger(G)) / 2


def skew_gram(f, D, observables) -> np.ndarray:
    """Gram matrix of covariance deficits: symmetric minus covariance-kernel form.

    The diagonal reproduces the skew informations of the observables.
    Takes stacks as :func:`cov_gram` does.
    """
    ft = _each(functions.covariance_kernel, f)
    D, A, B = _gram_operands(D, observables)
    G = np.moveaxis(quantities.sym_cov(D, A, B) - quantities.gen_cov(ft, D, A, B), (0, 1), (-2, -1))
    return (G + linalg.dagger(G)) / 2


def _gram_determinants(f, g, D, observables) -> tuple:
    """``(det C, det(f(0) g(0) S), det(2 g(0) S))`` from one Gram pair (of each member of a stack)."""
    quantities._require_standard(f, "a determinant margin")
    quantities._require_standard(g, "a determinant margin")
    D = linalg.state(D)
    C = cov_gram(g, D, observables)
    S = skew_gram(f, D, observables)
    f0, g0 = (quantities._at_zero(h, S.ndim) for h in (f, g))  # along the first axis of the Gram stack
    return tuple(_real(np.linalg.det(M).real) for M in (C, f0 * g0 * S, 2.0 * g0 * S))


def _draw_observables(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Raw Ginibre draws ``(m, 2, n, n)`` of m candidate observables, in one ``standard_normal`` call.

    Refuses dimension 1, where every centered observable is zero, and more
    than ``n^2 - 1`` observables.
    """
    if n < 2:
        raise DomainError("a nonzero centered observable needs dimension at least 2")
    if m > n * n - 1:
        raise DomainError(f"at most {n * n - 1} independent centered observables exist, got m={m}")
    if m < 1:
        raise DomainError(f"m must be positive, got m={m}")
    return rng.standard_normal((m, 2, n, n))


def _orthogonalized(D, H: np.ndarray, basis) -> tuple[np.ndarray, np.ndarray]:
    """H centered for D, less its Hilbert-Schmidt projections on the unit observables of basis, and its norm."""
    X = center_observable(D, H)
    for P in basis:
        X = X - np.sum(np.conj(P) * X, axis=(-2, -1)).real[..., None, None] * P
    return X, _norms(X)


def _orthonormal_observables(D, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt in draw order over the centered Hermitian parts of raw draws, for a state or a stack.

    ``raw`` holds each state's m draws, ``(..., m, 2, n, n)``.  Returns the
    ``(..., m, n, n)`` observables and the mask of the members whose every
    candidate kept a norm above :data:`MIN_CANDIDATE_NORM`; the others are not orthonormal.
    """
    H = _hermitians(raw, unit=False)
    obs, ok = [], True
    for k in range(H.shape[-3]):
        X, nrm = _orthogonalized(D, H[..., k, :, :], obs)
        ok = ok & (nrm > MIN_CANDIDATE_NORM)
        obs.append(X / np.where(nrm > MIN_CANDIDATE_NORM, nrm, 1.0)[..., None, None])
    return np.stack(obs, axis=-3), ok


def _orthonormal_sequence(D, m: int, raw: np.ndarray, rng: np.random.Generator) -> list[np.ndarray]:
    """Gram-Schmidt that replaces a candidate of norm at most :data:`MIN_CANDIDATE_NORM` by the next one.

    Takes the candidates of ``raw`` first, then draws from rng; gives up
    after ``100 m`` candidates.
    """
    n = D.shape[-1]
    draws = itertools.chain(raw, (linalg.draw_ginibre(rng, (n, n)) for _ in itertools.count()))
    obs: list[np.ndarray] = []
    for draw in itertools.islice(draws, 100 * m):
        X, nrm = _orthogonalized(D, _hermitians(draw, unit=False), obs)
        if nrm > MIN_CANDIDATE_NORM:
            obs.append(X / nrm)
            if len(obs) == m:
                return obs
    raise VerificationError("could not orthonormalize the requested observables")


def orthonormal_centered_observables(D, m: int, rng: np.random.Generator) -> list[np.ndarray]:
    """m centered Hermitian observables, orthonormal in the HS inner product.

    Orthonormalization keeps the Gram matrices well away from singular so
    determinant margins test more than 0 >= 0.  A candidate whose norm
    after centering and projection is at most :data:`MIN_CANDIDATE_NORM` is
    replaced by the next draw from rng.
    """
    D = linalg.state(D)
    return _orthonormal_sequence(D, m, _draw_observables(D.shape[-1], m, rng), rng)


def _orthonormal_group(D: linalg.State, raw: np.ndarray, rngs) -> np.ndarray:
    """Observables ``(T, m, n, n)`` of a group's T states from raw draws ``(T, m, 2, n, n)``.

    One stacked Gram-Schmidt; a member that meets a candidate of norm at
    most :data:`MIN_CANDIDATE_NORM` reruns it sequentially, taking the next
    draw from a copy of its own generator in place of that candidate, so a
    rerun of the group draws the same.
    """
    obs, ok = _orthonormal_observables(D, raw)
    for j in np.flatnonzero(~ok):
        obs[j] = _orthonormal_sequence(D[j], raw.shape[1], raw[j], copy.deepcopy(rngs[j]))
    return obs


# ---------------------------------------------------------------------------
# suite runners


_ALPHAS = (0.25, 0.5, 0.75)
_MIX_WEIGHTS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def _random_measure(rng: np.random.Generator, min_atom: float = 0.0) -> functions.DiscreteMeasure:
    k = int(rng.integers(1, 5))
    atoms = rng.uniform(min_atom, 1.0, size=k)
    weights = rng.dirichlet(np.ones(k))
    return functions.DiscreteMeasure(tuple(float(a) for a in atoms), tuple(float(w) for w in weights))


#: kernel pools: one constructor of the kernel and its random parameters per entry
_STANDARD_POOL = (
    lambda rng: functions.sld(),
    lambda rng: functions.harmonic(),
    lambda rng: functions.kubo_mori(),
    lambda rng: functions.wyd(float(rng.uniform(0.05, 0.95))),
    lambda rng: functions.extremal_metric(float(rng.uniform(0.0, 1.0))),
    lambda rng: functions.hansen_mixture(_random_measure(rng)),
    lambda rng: functions.covariance_kernel(functions.wyd(float(rng.uniform(0.1, 0.9)))),
    lambda rng: functions.covariance_kernel(functions.extremal_metric(float(rng.uniform(0.0, 1.0)))),
)
_POSITIVE_AT_ZERO_POOL = (
    lambda rng: functions.sld(),
    lambda rng: functions.wyd(float(rng.uniform(0.08, 0.92))),
    lambda rng: functions.extremal_metric(float(rng.uniform(0.05, 1.0))),
    lambda rng: functions.hansen_mixture(_random_measure(rng, min_atom=0.05)),
)
_SMOOTH_POOL = (
    lambda rng: functions.power_kernel(2.0),
    lambda rng: functions.power_kernel(0.5),
    lambda rng: functions.neglog_kernel(),
    lambda rng: functions.sld(),
)
_SKEW_IDENTITY_POOL = (
    lambda rng: functions.sld(),
    lambda rng: functions.wyd(0.3),
    lambda rng: functions.wyd(0.5),
    lambda rng: functions.hansen_mixture(_random_measure(rng, min_atom=0.05)),
)
_ORACLE_POOL = (
    lambda rng: functions.power_kernel(1.0),
    lambda rng: functions.power_kernel(0.5),
    lambda rng: functions.power_kernel(float(rng.uniform(0.1, 0.9))),
    lambda rng: functions.neglog_kernel(),
    lambda rng: functions.sld(),
)


def _standard_pool(rng: np.random.Generator):
    """Draw a catalog standard function with randomized parameters."""
    return _pick(rng, _STANDARD_POOL)(rng)


def _pick(rng: np.random.Generator, seq):
    """Uniform draw from a sequence; the same stream as ``rng.choice`` on it."""
    return seq[int(rng.integers(len(seq)))]


def _dim(rng: np.random.Generator, dims) -> int:
    return int(_pick(rng, dims))


def _fd_floor(n: int) -> float:
    return min(0.2, 0.8 / n)


def _draw_standardness(rng, dims):
    return None, _standard_pool(rng)


def _evaluate_standardness(key, fs):
    """Worst violations of all trials, from one probe-grid check."""
    return None, functions.check_standard(tuple(fs)).max_violation, (_names(fs),)


def _draw_operator_monotone(rng, dims):
    f = _standard_pool(rng)
    seed = int(rng.integers(2**32))
    return _dim(rng, dims), (f, seed)


def _evaluate_operator_monotone(n, trials):
    """Loewner margins and Pick residuals of one dimension group, its pairs checked as one stack."""
    fs, seeds = zip(*trials)
    rep = functions.check_operator_monotone(fs, seed=seeds, trials=4, dim=n)
    # -pick first: np.maximum(-0.0, 0.0) is 0.0, as Python's max(0.0, -0.0) is
    residuals = np.where(rep.pick_skipped, 0.0, np.maximum(-rep.pick_margin, 0.0))
    return rep.loewner_margin, residuals, (_names(fs),)


def _draw_scalar_gibi(rng, dims):
    return None, (_standard_pool(rng), _standard_pool(rng))


def _evaluate_scalar_gibi(key, trials):
    """Margins of all trials, from one probe-grid check of the pairs."""
    fs, gs = zip(*trials)
    return functions.scalar_inequality_check(fs, gs).min_margin, None, (_names(fs), _names(gs))


def _draw_fd(rng, dims, pool):
    """Dimension, kernel (picked from the table ``pool``) and raw density, a density trial's first draws."""
    n = _dim(rng, dims)
    F = _pick(rng, pool)(rng)
    return n, F, _draw_density(n, rng)


def _group_states(raw_densities, floor: float) -> linalg.State:
    """The validated stack of a group's densities, from their raw draws."""
    return linalg.state(_densities(np.stack(raw_densities), floor))


def _names(kernels) -> list[str]:
    return [F.name for F in kernels]


def _draw_centered(pool, rng, dims):
    """A ``hessian`` or ``skew-identity`` trial: kernel from ``pool``, raw density, one raw observable."""
    n, f, D = _draw_fd(rng, dims, pool)
    return n, (f, D, _draw_observables(n, 1, rng), rng)


def _evaluate_hessian(n, trials):
    """Relative errors of one dimension group."""
    fs, raw_D, raw_X, rngs = zip(*trials)
    D = _group_states(raw_D, _fd_floor(n))
    X = _orthonormal_group(D, np.stack(raw_X), rngs)[:, 0]
    return None, hessian_vs_skew(fs, D, X)[2], (_names(fs), D.matrix, X)


def _commuting_units(D, coeffs: np.ndarray) -> np.ndarray:
    """Traceless observables diagonal in D's eigenbasis, from coefficient vectors.

    Takes one state and one vector, or a stack of each; each member has
    unit norm, or stays zero when its centered coefficients vanish.
    """
    U = linalg.state(D).eigenvectors
    a = coeffs - coeffs.mean(axis=-1, keepdims=True)
    A = (U * a[..., None, :]) @ linalg.dagger(U)
    A = (A + linalg.dagger(A)) / 2
    nrm = _norms(A)
    return A / np.where(nrm < 1e-12, 1.0, nrm)[..., None, None]


def _draw_lemma_commuting(rng, dims):
    n, F, D = _draw_fd(rng, dims, _SMOOTH_POOL)
    return n, (F, D, rng.standard_normal((2, n)))


def _evaluate_lemma_commuting(n, trials):
    Fs, raw_D, coeffs = zip(*trials)
    D = _group_states(raw_D, _fd_floor(n))
    A, B = (_commuting_units(D, c) for c in np.stack(coeffs, axis=1))
    return None, lemma_commuting_residual(Fs, D, A, B), (_names(Fs), D.matrix, A, B)


def _draw_lemma_cross(rng, dims):
    n, F, D = _draw_fd(rng, dims, _SMOOTH_POOL)
    return n, (F, D, rng.standard_normal(n), linalg.draw_ginibre(rng, (n, n)))


def _evaluate_lemma_cross(n, trials):
    """The larger of each trial's cross and quadratic defects, both pairs in one stacked FD call."""
    Fs, raw_D, coeffs, raw_X = zip(*trials)
    D = _group_states(raw_D, _fd_floor(n))
    A = _commuting_units(D, np.stack(coeffs))
    X = _hermitians(np.stack(raw_X))
    _require_commuting(D.matrix, A)
    B = quantities.commutator_direction(D, X)
    twice = linalg.State(*(np.concatenate([a, a]) for a in (D.eigenvalues, D.eigenvectors, D.matrix)))
    pairs = _fd_defect(Fs + Fs, twice, np.concatenate([A, B]), np.concatenate([B, B]), None)
    return None, np.maximum(*pairs.reshape(2, -1)), (_names(Fs), D.matrix, A, X)


class _MonotonicityDraw(NamedTuple):
    """One drawn monotonicity trial: raw operand, channel and densities ``(2, 2, n, n)``, generator, kernel exponent."""

    A: np.ndarray
    channel: np.ndarray
    D: np.ndarray
    rng: np.random.Generator
    alpha: float


def _power_kernels(alphas) -> tuple:
    """The kernels ``x^alpha`` of a group's exponents: one spec per distinct exponent, shared by its trials."""
    specs = {a: functions.power_kernel(a) for a in set(alphas)}
    return tuple(specs[a] for a in alphas)


def _margin_floor(n: int) -> float:
    """Density floor of the monotonicity and concavity suites."""
    return min(0.03, 0.5 / n)


def _draw_attempt(A, rng, n_in: int, n_out: int, k: int, alpha: float) -> _MonotonicityDraw:
    """One sampling attempt of a monotonicity trial: a raw channel and two raw densities."""
    raw = channels.draw_channel(n_in, n_out, k, rng)
    return _MonotonicityDraw(A, raw, _draw_density(n_in, rng, 2), rng, alpha)


def _draw_monotonicity(rng, dims):
    n_in = _dim(rng, dims)
    n_out = _dim(rng, dims)
    k = int(rng.integers(1, 4))
    k = max(k, -(-n_in // n_out), -(-n_out // n_in))
    alpha = _pick(rng, _ALPHAS)
    A = linalg.draw_ginibre(rng, (n_out, n_out))
    return (n_in, n_out, k), _draw_attempt(A, rng, n_in, n_out, k, alpha)


def _evaluate_monotonicity(key, trials):
    """Margins of one ``(n_in, n_out, k)`` group, built, validated and paired as stacks.

    The group's channels are one stacked :func:`~qig.channels.isometry_channel`,
    and each trial keeps its own kernel ``x^alpha``.  A group whose channel
    outputs fail the density checks raises, and :func:`run_suite` reruns it
    trial by trial; a lone trial resamples its channel and densities from a
    copy of its own generator, continuing the stream where its last draw
    stopped, for at most 40 attempts in all.
    """
    n_in, n_out, k = key
    F = _power_kernels([c.alpha for c in trials])
    A = _unit_operands(np.stack([c.A for c in trials]))
    for _ in range(40):
        raw = np.stack([c.D for c in trials], axis=1)
        D = linalg.state(_densities(raw, _margin_floor(n_in)))
        ch = channels.isometry_channel(np.stack([c.channel for c in trials]), k)
        try:
            margins = channels.monotonicity_margin(F, A, D[0], D[1], ch)
        except InvariantViolation:
            if len(trials) > 1:
                raise
            (c,) = trials
            trials = [_draw_attempt(c.A, copy.deepcopy(c.rng), n_in, n_out, k, c.alpha)]
        else:
            return margins, None, (_names(F), A, *D.matrix, *ch.kraus_ops)
    raise VerificationError("could not sample a channel instance with invertible outputs")


def _draw_concavity(rng, dims):
    n = _dim(rng, dims)
    alpha = _pick(rng, _ALPHAS)
    lam = _pick(rng, _MIX_WEIGHTS)
    A = linalg.draw_ginibre(rng, (n, n))
    return n, (lam, A, _draw_density(n, rng, 4), alpha)


def _evaluate_concavity(n, trials):
    """Margins of one dimension group, one kernel per trial; its ``4 m`` densities are validated together."""
    lams, raw_operands, raw_densities, alphas = zip(*trials)
    Fs = _power_kernels(alphas)
    A = _unit_operands(np.stack(raw_operands))
    S = linalg.state(_densities(np.stack(raw_densities, axis=1), _margin_floor(n)))
    margins = channels.concavity_margin(Fs, A, (S[0], S[1]), (S[2], S[3]), np.array(lams))
    return margins, None, (_names(Fs), lams, A, *S.matrix)


def _evaluate_skew_identity(n, trials):
    fs, raw_D, raw_X, rngs = zip(*trials)
    D = _group_states(raw_D, min(0.02, 0.5 / n))
    X = _orthonormal_group(D, np.stack(raw_X), rngs)[:, 0]
    return None, quantities.skew_identity_residual(fs, D, X), (_names(fs), D.matrix, X)


def _draw_det_uncertainty(rng, dims):
    n = _dim(rng, dims)
    m = int(rng.integers(1, 4))
    f = _standard_pool(rng)
    g = _standard_pool(rng)
    D = _draw_density(n, rng)
    return (n, m), (f, g, D, _draw_observables(n, m, rng), rng)


def _evaluate_det_uncertainty(key, trials):
    """Margins of one ``(n, m)`` group, from one stacked Gram-Schmidt and one Gram pair per member."""
    n, _ = key
    fs, gs, raw_D, raw_obs, rngs = zip(*trials)
    D = _group_states(raw_D, min(0.05, 0.5 / n))
    obs = _orthonormal_group(D, np.stack(raw_obs), rngs)
    det_c, det_fg, det_2g = _gram_determinants(fs, gs, D, obs)
    scale = np.max([np.ones_like(det_c), abs(det_c), abs(det_fg), abs(det_2g)], axis=0)
    margins = np.minimum(det_c - det_fg, det_c - det_2g) / scale
    return margins, None, (_names(fs), _names(gs), D.matrix, *obs.swapaxes(0, 1))


def _draw_oracle_equivalence(rng, dims):
    n = _dim(rng, dims)
    F = _pick(rng, _ORACLE_POOL)(rng)
    D = _draw_density(n, rng, 2)
    A = linalg.draw_ginibre(rng, (n, n))
    return n, (F, D, A, float(rng.uniform(0.1, 0.9)))


def _evaluate_oracle_equivalence(n, trials):
    """Residuals of one dimension group, each the larger of two oracle gaps.

    The structured relative modular map against its dense superoperator,
    and the quasi-entropy of ``x^alpha`` against ``Tr A* D2^alpha A D1^(1-alpha)``.
    """
    Fs, raw_D, raw_A, alphas = zip(*trials)
    S = linalg.state(_densities(np.stack(raw_D, axis=1), min(0.05, 0.5 / n)))
    D1, D2 = S[0], S[1]
    A = _unit_operands(np.stack(raw_A))
    gap = linalg.relmod_apply(Fs, D1, D2, A) - linalg.relmod_dense(Fs, D1, D2, A)
    r1 = np.abs(gap).max(axis=(-2, -1))
    powers = tuple(map(functions.power_kernel, alphas))
    q = quantities.quasi_entropy(powers, A, D1, D2)
    D2a = linalg.apply_matrix_function(powers, D2)
    D1b = linalg.apply_matrix_function(tuple(functions.power_kernel(1.0 - a) for a in alphas), D1)
    d = q - quantities._trace_of_product(linalg.dagger(A) @ D2a @ A, D1b)
    r2 = np.hypot(d.real, d.imag)
    return None, np.maximum(r1, r2), (_names(Fs), alphas, D1.matrix, D2.matrix, A)


def _draw_wyd_consistency(rng, dims):
    n = _dim(rng, dims)
    p = float(rng.uniform(0.05, 0.95))
    D = _draw_density(n, rng)
    return n, (p, D, linalg.draw_ginibre(rng, (n, n)))


def _evaluate_wyd_consistency(n, trials):
    ps, raw_D, raw_X = zip(*trials)
    D = _group_states(raw_D, min(0.03, 0.5 / n))
    X = _hermitians(np.stack(raw_X))
    skew = quantities.skew_info(tuple(functions.wyd(p) for p in ps), D, X)
    return None, np.abs(skew - quantities.wyd_direct(ps, D, X)), (ps, D.matrix, X)


def _draw_renyi_limit(rng, dims):
    n = _dim(rng, dims)
    return n, _draw_density(n, rng, 2)


def _log_squared(x):
    return np.log(x) ** 2


def _evaluate_renyi_limit(n, trials):
    """Remainders of the first-order expansion ``R_a = S + a c1 + O(a^2)`` of one dimension group.

    ``S`` is the relative entropy and ``c1 = S - V/2``, with ``V`` the
    quasi-entropy of ``(log x)^2`` on the same pair.  The remainder
    ``rem(a) = |R_a - S - a c1|`` shrinks 100-fold from a = 0.01 to 0.001
    when c1 is right and 10-fold when it is not; the margin
    ``rem(0.01) - 10^1.5 rem(0.001)`` sits between the two, and the
    residual is ``|R_0.001 - S|``.
    """
    pair = linalg.state(_densities(np.stack(trials, axis=1), min(0.03, 0.5 / n)))
    D1, D2 = pair[0], pair[1]
    S = quantities.umegaki(D1, D2)
    c1 = S - quantities.quasi_entropy(_log_squared, None, D1, D2) / 2.0
    R = {a: quantities.renyi(a, D1, D2) for a in (0.01, 0.001)}
    rem = {a: abs(R[a] - S - a * c1) for a in R}
    return rem[0.01] - 10.0 ** 1.5 * rem[0.001], abs(R[0.001] - S), (D1.matrix, D2.matrix)


class _Suite(NamedTuple):
    """A suite's draw and group evaluator, default tolerances and acceptance-scale run.

    ``draw(rng, dims)`` takes everything a trial needs from the trial's
    generator and returns ``(shape key, inputs)``.  ``evaluate(key, inputs)``
    takes a sequence of one key's inputs and returns ``(margins, residuals,
    parts)``: the margins and the residuals one value per input, in input
    order, or None where the suite has none, and ``parts`` a tuple of
    sequences indexed like the inputs.  A failing trial j's digest is
    ``digest_inputs(*(p[j] for p in parts))``.
    """

    draw: Callable
    margin_tol: float
    residual_tol: float
    trials: int
    dims: tuple[int, ...]
    evaluate: Callable


_SUITES = {
    "standardness": _Suite(
        _draw_standardness, math.inf, functions.STANDARD_TOL, 200, (2, 3, 4), _evaluate_standardness
    ),
    "operator-monotone": _Suite(
        _draw_operator_monotone, functions.LOEWNER_TOL, functions.PICK_TOL, 100, (2, 3, 4),
        _evaluate_operator_monotone,
    ),
    "scalar-gibi": _Suite(
        _draw_scalar_gibi, functions.SCALAR_INEQUALITY_TOL, math.inf, 200, (2, 3, 4), _evaluate_scalar_gibi
    ),
    "skew-identity": _Suite(
        partial(_draw_centered, _SKEW_IDENTITY_POOL), math.inf, 1e-9, 200, (2, 3, 4, 5),
        _evaluate_skew_identity,
    ),
    "hessian": _Suite(
        partial(_draw_centered, _POSITIVE_AT_ZERO_POOL), math.inf, 1e-5, 100, (2, 3, 4), _evaluate_hessian
    ),
    "lemma-commuting": _Suite(
        _draw_lemma_commuting, math.inf, 1e-6, 50, (2, 3, 4), _evaluate_lemma_commuting
    ),
    "lemma-cross": _Suite(_draw_lemma_cross, math.inf, 1e-6, 50, (2, 3, 4), _evaluate_lemma_cross),
    "monotonicity": _Suite(
        _draw_monotonicity, 1e-8, math.inf, 500, (2, 3, 4), _evaluate_monotonicity
    ),
    "concavity": _Suite(_draw_concavity, 1e-8, math.inf, 500, (2, 3, 4), _evaluate_concavity),
    "det-uncertainty": _Suite(
        _draw_det_uncertainty, 1e-9, math.inf, 200, (2, 3, 4), _evaluate_det_uncertainty
    ),
    "oracle-equivalence": _Suite(
        _draw_oracle_equivalence, math.inf, 1e-10, 100, (2, 3, 4, 5), _evaluate_oracle_equivalence
    ),
    "wyd-consistency": _Suite(
        _draw_wyd_consistency, math.inf, 1e-9, 100, (2, 3, 4), _evaluate_wyd_consistency
    ),
    "renyi-limit": _Suite(_draw_renyi_limit, 1e-12, 1e-2, 20, (2, 3, 4), _evaluate_renyi_limit),
}

SUITE_NAMES = tuple(_SUITES)

# numpy's SeedSequence hash constants (NEP 19), on 32-bit words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _XSHIFT, _POOL_SIZE = 0xCA01F9DD, 0x4973F715, 16, 4
_MASK32 = 0xFFFFFFFF


def _trial_seed_words(seed: int, trials: int) -> np.ndarray:
    """``(trials, 4)`` uint64; row i is ``np.random.SeedSequence([seed, i]).generate_state(4, np.uint64)``.

    numpy's ``mix_entropy`` and ``generate_state`` run on uint32 arrays over
    the trial axis.  The entropy is the seed's little-endian 32-bit words
    (one word for 0), then i's one word, so ``trials`` is at most ``2**32``.
    Values stay arrays: uint32 scalar arithmetic warns on overflow.
    """
    seed = int(seed)
    shifts = range(0, max(seed.bit_length(), 1), 32)
    entropy = [np.full(trials, seed >> s & _MASK32, np.uint32) for s in shifts]
    entropy.append(np.arange(trials, dtype=np.uint32))
    entropy += [np.zeros(trials, np.uint32)] * (_POOL_SIZE - len(entropy))
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ hash_a
        hash_a = hash_a * _MULT_A & _MASK32
        value = value * hash_a
        return value ^ value >> _XSHIFT

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ result >> _XSHIFT

    pool = [hashmix(e) for e in entropy[:_POOL_SIZE]]
    for src, dst in itertools.permutations(range(_POOL_SIZE), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(e))
    hash_b, state = _INIT_B, []
    for k in range(2 * _POOL_SIZE):
        value = pool[k % _POOL_SIZE] ^ hash_b
        hash_b = hash_b * _MULT_B & _MASK32
        value = value * hash_b
        state.append((value ^ value >> _XSHIFT).astype(np.uint64))
    return np.stack(state[0::2], axis=1) | np.stack(state[1::2], axis=1) << 32


@cache
def _seed_words_type() -> type:
    """The ``ISeedSequence`` that hands ``PCG64`` one row of :func:`_trial_seed_words`.

    Made on first use: subclassing at import would load ``numpy.random``,
    which ``import numpy`` leaves lazy, into every ``import qig``.
    """

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise InvariantViolation(f"only generate_state(4, uint64) is served, got {n_words}, {dtype}")
            return self.words

    return SeedWords


_TRIAL_ERRORS = (VerificationError, InvariantViolation)


def _extreme(pick, values) -> float | None:
    """``pick`` (``min`` or ``max``) of the values, NaN if any is NaN, None for none.

    Python's ``min`` and ``max`` keep or skip a NaN depending on where it
    sits, so a NaN is looked for first.
    """
    if not values:
        return None
    return math.nan if any(math.isnan(v) for v in values) else pick(values)


def _group_outcomes(evaluate, key, inputs) -> list:
    """Each trial's ``(margins, residuals, parts, j)``, its group's values and its place j, or its exception.

    A group whose evaluation raises ``VerificationError`` or
    ``InvariantViolation`` is rerun one trial at a time; a lone trial's
    exception is its outcome.
    """
    try:
        values = evaluate(key, inputs)
    except _TRIAL_ERRORS as exc:
        if len(inputs) == 1:
            return [exc]
        return [outcome for x in inputs for outcome in _group_outcomes(evaluate, key, [x])]
    return [(*values, j) for j in range(len(inputs))]


def run_suite(name: str, trials: int | None = None, seed: int = 0, dims=None, tolerances=None) -> TrialReport:
    """Run a named property suite; deterministic in ``(seed, trials, dims)``.

    ``trials`` and ``dims`` default to the suite's acceptance-scale run.
    ``tolerances`` may override the per-suite defaults with keys
    ``margin`` and/or ``residual``.  Before drawing, refuses with
    ``DomainError`` a seed or trial count that is not a nonnegative integer
    (``int`` or ``np.integer``), more than ``2**32`` trials, dims that are
    not a nonempty sequence of positive integers, and a NaN, ``bool`` or
    non-numeric tolerance.  A trial fails when its margin drops below
    ``-margin_tolerance`` or its residual exceeds the residual tolerance;
    failures record the derived trial seed, an input digest (taken for
    failing trials only), and the offending value.  A trial that raises ``VerificationError`` or
    ``InvariantViolation`` is a failure recording its seed, the exception
    class (``error``) and its message; the remaining trials still run.
    Every trial is drawn before any is evaluated, and trials are evaluated
    one shape group at a time; a group that raises is rerun trial by trial.
    A NaN margin or residual makes ``min_margin`` or ``max_residual`` NaN.
    """
    if name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}")
    suite = _SUITES[name]
    trials = suite.trials if trials is None else trials
    for what, value in (("suite seed", seed), ("trials", trials)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise DomainError(f"{what} must be an integer, got {value!r}")
        if value < 0:
            raise DomainError(f"{what} must be nonnegative, got {value!r}")
    if trials > 2**32:
        raise DomainError(f"trials must be at most 2**32 (one 32-bit seed word per index), got {trials!r}")
    tol = {"margin": suite.margin_tol, "residual": suite.residual_tol}
    if tolerances:
        for key, value in tolerances.items():
            if key not in ("margin", "residual"):
                raise DomainError(f"unknown tolerance {key!r}")
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or math.isnan(value):
                raise DomainError(f"tolerance {key!r} must be a real number or infinite, got {value!r}")
            tol[key] = float(value)
    dims = suite.dims if dims is None else dims
    try:
        if not len(dims):
            raise DomainError("no dimensions")
        for d in dims:
            linalg.require_dimension(d)
    except (TypeError, DomainError):
        raise DomainError(f"dims must be positive integers, got {dims!r}") from None
    margins: list[float] = []
    residuals: list[float] = []
    failures: list[dict] = []
    start = time.perf_counter()
    outcomes: list = [None] * trials
    groups: dict = {}
    words, seed_words = _trial_seed_words(seed, trials), _seed_words_type()
    for i in range(trials):
        rng = np.random.Generator(np.random.PCG64(seed_words(words[i])))
        try:
            key, inputs = suite.draw(rng, dims)
        except _TRIAL_ERRORS as exc:
            outcomes[i] = exc
            continue
        groups.setdefault(key, []).append((i, inputs))
    for key, group in groups.items():
        idx, inputs = zip(*group)
        for i, outcome in zip(idx, _group_outcomes(suite.evaluate, key, inputs)):
            outcomes[i] = outcome
    for i, outcome in enumerate(outcomes):
        if isinstance(outcome, Exception):
            failures.append(
                {"seed": f"{seed}:{i}", "error": type(outcome).__name__, "message": str(outcome)}
            )
            continue
        group_margins, group_residuals, parts, j = outcome
        offending = None
        if group_margins is not None:
            margin = float(group_margins[j])
            margins.append(margin)
            if not margin >= -tol["margin"]:  # negated, so that a NaN margin fails
                offending = margin
        if group_residuals is not None:
            residual = float(group_residuals[j])
            residuals.append(residual)
            if not residual <= tol["residual"] and offending is None:
                offending = residual
        if offending is not None:
            digest = digest_inputs(*(p[j] for p in parts))
            failures.append({"seed": f"{seed}:{i}", "digest": digest, "value": offending})
    elapsed = time.perf_counter() - start
    return TrialReport(
        suite=name,
        trials=int(trials),
        min_margin=_extreme(min, margins),
        max_residual=_extreme(max, residuals),
        failures=failures,
        elapsed=elapsed,
        margin_tolerance=tol["margin"],
        residual_tolerance=tol["residual"],
    )
