"""Finite-difference and random-instance verification harness.

The mixed second derivative of the quasi-entropy along state perturbations
is estimated by a central stencil with Richardson extrapolation across a
step schedule; derivative identities (commuting directions, cross
directions, the quadratic commutator identity, and the Hessian form of
skew information) are then checked against their spectral counterparts.
Determinant uncertainty margins and all sampling suites live here too.

Suites are deterministic in ``(seed, trials, dims)``: every trial derives
its generator from the suite seed and the trial index.  :func:`run_suite`
draws every trial first, then groups the drawn trials by shape key and
evaluates each group in stacked calls; results go back in trial order.
``monotonicity`` (key ``(n_in, n_out, k, alpha)``) and ``concavity`` (key
``(n, alpha)``) draw only their random numbers, the raw Ginibre arrays in
stream order; a group builds its densities, unit operands and channel
isometries from those arrays as stacks, then validates, decomposes and
pairs them at once.  The other suites compute each trial as they draw it.
A group whose stacked evaluation raises ``VerificationError`` or
``InvariantViolation`` is rerun one trial at a time, so the failure lands
on the trial that raised.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import channels, functions, linalg, quantities
from .errors import DomainError, InvariantViolation, VerificationError
from .quantities import digest_inputs

MIN_STEP = 1e-5


@dataclass(frozen=True)
class StepSchedule:
    """Strictly decreasing finite-difference increments, none below 1e-5."""

    steps: tuple[float, ...] = (1e-2, 1e-3)

    def __post_init__(self):
        if not self.steps:
            raise InvariantViolation("step schedule must be nonempty")
        # negated comparisons, so that a NaN step fails them
        if not all(h > 0.0 for h in self.steps):
            raise InvariantViolation("steps must be positive")
        if not all(a > b for a, b in zip(self.steps, self.steps[1:])):
            raise InvariantViolation("steps must be strictly decreasing")
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
    eigenvalue at or above ``floor``; requires ``0 < floor < 1/n``.  Returns
    the validated :class:`~qig.linalg.State`, which numpy reads as its matrix.
    """
    return linalg.state(_densities(_draw_density(n, floor, np.random.default_rng(seed)), floor))


def _draw_density(n: int, floor: float, rng: np.random.Generator) -> np.ndarray:
    """Raw draw of the Ginibre square :func:`random_density` builds from.

    See :func:`~qig.linalg.draw_ginibre`.  Checks the floor first; for
    ``n = 1`` draws nothing and returns zeros.
    """
    if not 0.0 < floor < 1.0 / n:
        raise DomainError(f"floor must lie in (0, 1/{n}), got {floor!r}")
    if n == 1:
        return np.zeros((2, 1, 1))
    return linalg.draw_ginibre(rng, (n, n))


def _densities(raw: np.ndarray, floor: float) -> np.ndarray:
    """``(1 - n*floor) G G*/Tr(G G*) + floor I`` from a raw density draw or a stack of them."""
    G = linalg.ginibre(raw)
    n = G.shape[-1]
    if n == 1:
        return np.ones_like(G)
    rho = G @ linalg.dagger(G)
    rho /= rho.trace(axis1=-2, axis2=-1).real[..., None, None]
    return (1.0 - n * floor) * rho + floor * np.eye(n)


def random_hermitian(n: int, rng: np.random.Generator, unit: bool = True) -> np.ndarray:
    """Random Hermitian matrix, unit Hilbert-Schmidt norm by default."""
    G = linalg.ginibre(linalg.draw_ginibre(rng, (n, n)))
    H = (G + G.conj().T) / 2
    if unit:
        H = H / linalg.hs_norm(H)
    return H


def _unit_operands(raw: np.ndarray) -> np.ndarray:
    """Ginibre matrices of a raw draw or a stack of them, scaled to unit Hilbert-Schmidt norm."""
    G = linalg.ginibre(raw)
    norms = np.sqrt(np.sum(np.abs(G) ** 2, axis=(-2, -1)))
    return G / norms[..., None, None]


def _random_complex(n: int, rng: np.random.Generator) -> np.ndarray:
    return _unit_operands(linalg.draw_ginibre(rng, (n, n)))


def center_observable(D, A) -> np.ndarray:
    """Subtract the mean: ``A - (Tr D A) I`` so that ``Tr D (result) = 0``."""
    D = linalg.as_density(D)
    A = linalg.as_hermitian(A)
    if A.shape != D.shape:
        raise InvariantViolation(f"observable shape {A.shape} does not match state {D.shape}")
    return A - np.trace(D @ A).real * np.eye(D.shape[0])


def _centered_unit(D, rng: np.random.Generator) -> np.ndarray:
    n = D.shape[0]
    if n < 2:
        raise DomainError("a nonzero centered observable needs dimension at least 2")
    while True:
        X = center_observable(D, random_hermitian(n, rng, unit=False))
        nrm = linalg.hs_norm(X)
        if nrm > 1e-8:
            return X / nrm


def mixed_second_derivative(F, D, A, B, schedule: StepSchedule | None = None):
    """Mixed second derivative of ``(t, s) -> S_F(D + tA, D + sB)`` at 0.

    Central stencil ``(g(h,h) - g(h,-h) - g(-h,h) + g(-h,-h)) / (4h^2)``
    with Richardson extrapolation across the schedule (directions are
    normalized to unit Hilbert-Schmidt norm internally and the result
    rescaled, so tolerances are scale-free).  Returns the value and an
    error estimate, the gap between the last two extrapolation levels.
    Steps that push a perturbed state's smallest eigenvalue below 1e-9, or
    out of the densities, are rejected; a single usable step is halved once
    to get a second, and if that falls below 1e-5 or none is usable, raises.
    The ``4 S`` points of an ``S``-step schedule are validated and
    decomposed as one stack, and the four corners of every usable step are
    paired in one call.
    """
    D = linalg.as_density(D)
    A = linalg.as_hermitian(A)
    B = linalg.as_hermitian(B)
    n = D.shape[0]
    for M in (A, B):
        if M.shape != D.shape:
            raise InvariantViolation("perturbation shape does not match the state")
        if abs(np.trace(M).real) > 1e-10:
            raise InvariantViolation("perturbations must be traceless")
    sched = schedule if schedule is not None else StepSchedule()
    na, nb = linalg.hs_norm(A), linalg.hs_norm(B)
    if na == 0.0 or nb == 0.0:
        return 0.0, 0.0
    An = A - (np.trace(A).real / n) * np.eye(n)
    Bn = B - (np.trace(B).real / n) * np.eye(n)
    An, Bn = An / na, Bn / nb
    eye = np.eye(n)

    def points(hs: np.ndarray) -> np.ndarray:
        """``D + t M`` stacked as ``[step, direction (An, Bn), sign (+h, -h)]``."""
        t = np.stack([hs, -hs], axis=-1)
        return D + t[:, None, :, None, None] * np.stack([An, Bn])[None, :, None]

    def stencil(hs: np.ndarray, pts: linalg.State) -> np.ndarray:
        # g[k, a, b] = S_F(first point a, second point b) at step k
        g = quantities.quasi_entropy(F, eye, pts[:, 0, :, None], pts[:, 1, None, :])
        return (g[:, 0, 0] - g[:, 0, 1] - g[:, 1, 0] + g[:, 1, 1]) / (4.0 * hs * hs)

    hs = np.asarray(sched.steps)
    pts, ok = linalg.screened_state(points(hs))
    keep = (ok & (pts.eigenvalues[..., 0] >= 1e-9)).all(axis=(1, 2))
    if not keep.any():
        raise VerificationError("no finite-difference step keeps the states positive definite")
    hs, values = hs[keep], stencil(hs[keep], pts[keep])
    if len(hs) < 2:
        h = hs[-1:] / 2.0
        if h[0] < MIN_STEP:
            raise VerificationError("step schedule exhausted before extrapolation")
        hs, values = np.append(hs, h), np.append(values, stencil(h, linalg.state(points(h))))
    value, err = _neville(hs * hs, values)
    return float(value * na * nb), float(err * na * nb)


def _neville(x: list, vals: list) -> tuple[float, float]:
    """Neville extrapolation to x = 0 of a polynomial through ``(x_i, vals_i)``.

    The error estimate is the gap between the last two extrapolation levels.
    """
    r = list(vals)
    for j in range(1, len(r)):
        for i in range(len(r) - j):
            r[i] = (x[i + j] * r[i] - x[i] * r[i + 1]) / (x[i + j] - x[i])
    return r[0], abs(r[0] - r[1])


def _require_commuting(D, A) -> None:
    dev = float(np.max(np.abs(linalg.commutator(D, A))))
    scale = 1.0 + float(np.max(np.abs(A)))
    if dev > 1e-12 * scale:
        raise InvariantViolation(f"operators must commute with the state; deviation {dev:.3e}")


def lemma_commuting_residual(F, D, A, B, schedule: StepSchedule | None = None) -> float:
    """Defect of the commuting-direction derivative identity.

    For traceless Hermitian A, B commuting with D the mixed derivative
    equals ``-F''(1) Tr D^{-1} A B``; returns the absolute difference
    between the finite-difference value and that spectral formula.
    """
    D = linalg.state(D)
    A = linalg.as_hermitian(A)
    B = linalg.as_hermitian(B)
    _require_commuting(D.matrix, A)
    _require_commuting(D.matrix, B)
    fd, _ = mixed_second_derivative(F, D, A, B, schedule)
    d2 = functions.second_derivative_at_one(F)
    D_inv = linalg.apply_matrix_function(lambda x: 1.0 / x, D)
    expected = -d2 * float(np.trace(D_inv @ A @ B).real)
    return abs(fd - expected)


def lemma_cross_residual(F, D, A, X, schedule: StepSchedule | None = None) -> float:
    """Mixed derivative along a commuting direction and a commutator direction.

    The exact value is zero; returns the absolute finite-difference value.
    """
    D = linalg.state(D)
    A = linalg.as_hermitian(A)
    X = linalg.as_hermitian(X)
    _require_commuting(D.matrix, A)
    B = quantities.commutator_direction(D, X)
    fd, _ = mixed_second_derivative(F, D, A, B, schedule)
    return abs(fd)


def lemma_quadratic_residual(F, D, X, schedule: StepSchedule | None = None) -> float:
    """Defect of the commutator-direction quadratic identity.

    For Hermitian X the mixed derivative along ``(1j[D,X], 1j[D,X])``
    equals ``2 F(1) Tr D X^2 - 2 S_F^X(D, D)``; returns the absolute
    difference between the finite-difference value and that trace formula.
    """
    D = linalg.state(D)
    X = linalg.as_hermitian(X)
    B = quantities.commutator_direction(D, X)
    fd, _ = mixed_second_derivative(F, D, B, B, schedule)
    return abs(fd - _quadratic_trace_form(F, D, X))


def _quadratic_trace_form(F, D: linalg.State, X: np.ndarray) -> float:
    """``2 F(1) Tr D X^2 - 2 S_F^X(D, D)``, the exact commutator-direction derivative."""
    f1 = float(linalg.eval_scalar(F, np.asarray(1.0)))
    quad = quantities.quasi_entropy(F, X, D, D)
    return float(2.0 * f1 * float(np.trace(D.matrix @ X @ X).real) - 2.0 * quad)


def hessian_vs_skew(f, D, X, schedule: StepSchedule | None = None):
    """Hessian of the quasi-entropy with the covariance kernel vs skew information.

    For standard f with f(0) != 0 and centered Hermitian X, the mixed
    derivative of ``S_{cov_kernel(f)}`` along ``(1j[D,X], 1j[D,X])`` equals
    ``f(0)`` times the metric on that commutator direction.  Returns
    ``(lhs, rhs, relative error)`` with
    ``relerr = |lhs - rhs| / (1 + |rhs|)``; the finite-difference value is
    also cross-checked against the quadratic trace identity.
    """
    quantities._require_standard(f, "the Hessian identity")
    if f.value_at_zero == 0.0:
        raise DomainError("the Hessian identity needs f(0) != 0")
    D = linalg.state(D)
    X = linalg.as_hermitian(X)
    quantities._require_centered(D, X)
    ft = functions.covariance_kernel(f)
    B = quantities.commutator_direction(D, X)
    lhs, err = mixed_second_derivative(ft, D, B, B, schedule)
    rhs = f.value_at_zero * quantities.fisher(f, D, B, B).real
    relerr = abs(lhs - rhs) / (1.0 + abs(rhs))
    trace_form = _quadratic_trace_form(ft, D, X)
    if abs(lhs - trace_form) > max(1e-6, 10.0 * err):
        raise VerificationError(
            f"finite difference disagrees with the quadratic trace identity: "
            f"{lhs!r} vs {trace_form!r}"
        )
    return float(lhs), float(rhs), float(relerr)


def _observable_stack(D, observables) -> tuple[linalg.State, np.ndarray]:
    """The state and the ``(m, n, n)`` stack of validated centered observables."""
    D = linalg.state(D)
    obs = [np.asarray(A, dtype=complex) for A in observables]
    if any(A.shape != D.shape for A in obs):
        raise InvariantViolation("observable dimension does not match the state")
    obs = linalg.as_hermitian(np.reshape(obs, (len(obs),) + D.shape))
    quantities._require_centered(D, obs)
    return D, obs


def cov_gram(g, D, observables) -> np.ndarray:
    """Gram matrix of generalized covariances of centered observables."""
    D, obs = _observable_stack(D, observables)
    G = quantities.gen_cov(g, D, obs[:, None], obs[None, :])
    return (G + G.conj().T) / 2


def skew_gram(f, D, observables) -> np.ndarray:
    """Gram matrix of covariance deficits: symmetric minus covariance-kernel form.

    The diagonal reproduces the skew informations of the observables.
    """
    ft = functions.covariance_kernel(f)
    D, obs = _observable_stack(D, observables)
    A, B = obs[:, None], obs[None, :]
    G = quantities.sym_cov(D, A, B) - quantities.gen_cov(ft, D, A, B)
    return (G + G.conj().T) / 2


def det_inequality_margins(f, g, D, observables) -> tuple[float, float]:
    """Determinant uncertainty margins with both right-hand normalizations.

    Returns ``(det C - det(f(0) g(0) S), det C - det(2 g(0) S))`` where C
    is the covariance Gram matrix of g and S the skew Gram matrix of f.
    The two scalings are intentionally computed and reported separately;
    since f(0) <= 1/2, the second is the stronger statement.
    """
    det_c, det_fg, det_2g = _gram_determinants(f, g, D, observables)
    return det_c - det_fg, det_c - det_2g


def _gram_determinants(f, g, D, observables) -> tuple[float, float, float]:
    """``(det C, det(f(0) g(0) S), det(2 g(0) S))`` from one Gram pair."""
    quantities._require_standard(f, "a determinant margin")
    quantities._require_standard(g, "a determinant margin")
    D = linalg.state(D)
    C = cov_gram(g, D, observables)
    S = skew_gram(f, D, observables)
    f0, g0 = f.value_at_zero, g.value_at_zero
    return tuple(float(np.linalg.det(M).real) for M in (C, f0 * g0 * S, 2.0 * g0 * S))


def orthonormal_centered_observables(D, m: int, rng: np.random.Generator) -> list[np.ndarray]:
    """m centered Hermitian observables, orthonormal in the HS inner product.

    Orthonormalization keeps the Gram matrices well away from singular so
    determinant margins test more than 0 >= 0.
    """
    D = linalg.state(D)
    n = D.shape[0]
    if m > n * n - 1:
        raise DomainError(f"at most {n * n - 1} independent centered observables exist, got m={m}")
    obs: list[np.ndarray] = []
    attempts = 0
    while len(obs) < m:
        attempts += 1
        if attempts > 100 * m:
            raise VerificationError("could not orthonormalize the requested observables")
        H = center_observable(D, random_hermitian(n, rng, unit=False))
        for prev in obs:
            H = H - linalg.hs_inner(prev, H).real * prev
        nrm = linalg.hs_norm(H)
        if nrm > 1e-6:
            obs.append(H / nrm)
    return obs


# ---------------------------------------------------------------------------
# suite runners


_ALPHAS = (0.25, 0.5, 0.75)
_MIX_WEIGHTS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
_RENYI_ALPHAS = (0.1, 0.01, 0.001)


def _random_measure(rng: np.random.Generator, min_atom: float = 0.0) -> functions.DiscreteMeasure:
    k = int(rng.integers(1, 5))
    atoms = rng.uniform(min_atom, 1.0, size=k)
    weights = rng.dirichlet(np.ones(k))
    return functions.DiscreteMeasure(tuple(float(a) for a in atoms), tuple(float(w) for w in weights))


def _standard_pool(rng: np.random.Generator, positive_at_zero: bool = False):
    """Draw a catalog standard function with randomized parameters."""
    if positive_at_zero:
        k = int(rng.integers(0, 4))
        if k == 0:
            return functions.sld()
        if k == 1:
            return functions.wyd(float(rng.uniform(0.08, 0.92)))
        if k == 2:
            return functions.extremal_metric(float(rng.uniform(0.05, 1.0)))
        return functions.hansen_mixture(_random_measure(rng, min_atom=0.05))
    k = int(rng.integers(0, 8))
    if k == 0:
        return functions.sld()
    if k == 1:
        return functions.harmonic()
    if k == 2:
        return functions.kubo_mori()
    if k == 3:
        return functions.wyd(float(rng.uniform(0.05, 0.95)))
    if k == 4:
        return functions.extremal_metric(float(rng.uniform(0.0, 1.0)))
    if k == 5:
        return functions.hansen_mixture(_random_measure(rng))
    if k == 6:
        return functions.covariance_kernel(functions.wyd(float(rng.uniform(0.1, 0.9))))
    return functions.covariance_kernel(functions.extremal_metric(float(rng.uniform(0.0, 1.0))))


def _smooth_kernel(rng: np.random.Generator):
    k = int(rng.integers(0, 4))
    if k == 0:
        return functions.power_kernel(2.0)
    if k == 1:
        return functions.power_kernel(0.5)
    if k == 2:
        return functions.neglog_kernel()
    return functions.sld()


def _pick(rng: np.random.Generator, seq):
    """Uniform draw from a sequence; the same stream as ``rng.choice`` on it."""
    return seq[int(rng.integers(len(seq)))]


def _dim(rng: np.random.Generator, dims) -> int:
    return int(_pick(rng, dims))


def _fd_floor(n: int) -> float:
    return min(0.2, 0.8 / n)


def _run_standardness(rng, dims):
    f = _standard_pool(rng)
    rep = functions.check_standard(f)
    return None, rep.max_violation, digest_inputs(f.name)


def _run_operator_monotone(rng, dims):
    f = _standard_pool(rng)
    rep = functions.check_operator_monotone(
        f, seed=int(rng.integers(2**32)), trials=4, dim=_dim(rng, dims)
    )
    residual = 0.0 if rep.pick_margin is None else max(0.0, -rep.pick_margin)
    return rep.loewner_margin, residual, digest_inputs(f.name)


def _run_scalar_gibi(rng, dims):
    f = _standard_pool(rng)
    g = _standard_pool(rng)
    rep = functions.scalar_inequality_check(f, g)
    return rep.min_margin, None, digest_inputs(f.name, g.name)


def _run_skew_identity(rng, dims):
    n = _dim(rng, dims)
    k = int(rng.integers(0, 4))
    if k == 0:
        f = functions.sld()
    elif k == 1:
        f = functions.wyd(0.3)
    elif k == 2:
        f = functions.wyd(0.5)
    else:
        f = functions.hansen_mixture(_random_measure(rng, min_atom=0.05))
    D = random_density(n, floor=min(0.02, 0.5 / n), seed=rng)
    X = _centered_unit(D, rng)
    r = quantities.skew_identity_residual(f, D, X)
    return None, r, digest_inputs(f.name, D, X)


def _run_hessian(rng, dims):
    n = _dim(rng, dims)
    f = _standard_pool(rng, positive_at_zero=True)
    D = random_density(n, floor=_fd_floor(n), seed=rng)
    X = _centered_unit(D, rng)
    _, _, relerr = hessian_vs_skew(f, D, X)
    return None, relerr, digest_inputs(f.name, D, X)


def _commuting_traceless(D, rng: np.random.Generator) -> np.ndarray:
    U = linalg.state(D).eigenvectors
    a = rng.standard_normal(D.shape[0])
    a -= a.mean()
    A = (U * a) @ U.conj().T
    A = (A + A.conj().T) / 2
    nrm = linalg.hs_norm(A)
    return A if nrm < 1e-12 else A / nrm


def _run_lemma_commuting(rng, dims):
    n = _dim(rng, dims)
    F = _smooth_kernel(rng)
    D = random_density(n, floor=_fd_floor(n), seed=rng)
    A = _commuting_traceless(D, rng)
    B = _commuting_traceless(D, rng)
    r = lemma_commuting_residual(F, D, A, B)
    return None, r, digest_inputs(F.name, D, A, B)


def _run_lemma_cross(rng, dims):
    n = _dim(rng, dims)
    F = _smooth_kernel(rng)
    D = random_density(n, floor=_fd_floor(n), seed=rng)
    A = _commuting_traceless(D, rng)
    X = random_hermitian(n, rng)
    r_cross = lemma_cross_residual(F, D, A, X)
    r_quad = lemma_quadratic_residual(F, D, X)
    return None, max(r_cross, r_quad), digest_inputs(F.name, D, A, X)


class _MonotonicityDraw(NamedTuple):
    """One drawn monotonicity trial: raw operand, channel and densities, generator."""

    A: np.ndarray
    channel: np.ndarray
    D1: np.ndarray
    D2: np.ndarray
    rng: np.random.Generator


def _margin_floor(n: int) -> float:
    """Density floor of the monotonicity and concavity suites."""
    return min(0.03, 0.5 / n)


def _draw_attempt(A, rng, n_in: int, n_out: int, k: int) -> _MonotonicityDraw:
    """One sampling attempt of a monotonicity trial: a raw channel and two raw densities."""
    floor = _margin_floor(n_in)
    raw = channels.draw_channel(n_in, n_out, k, rng)
    D1, D2 = (_draw_density(n_in, floor, rng) for _ in range(2))
    return _MonotonicityDraw(A, raw, D1, D2, rng)


def _draw_monotonicity(rng, dims):
    n_in = _dim(rng, dims)
    n_out = _dim(rng, dims)
    k = int(rng.integers(1, 4))
    k = max(k, -(-n_in // n_out), -(-n_out // n_in))
    alpha = _pick(rng, _ALPHAS)
    A = linalg.draw_ginibre(rng, (n_out, n_out))
    return (n_in, n_out, k, alpha), _draw_attempt(A, rng, n_in, n_out, k)


def _evaluate_monotonicity(key, trials):
    """Margins of one ``(n_in, n_out, k, alpha)`` group, built, validated and paired as stacks.

    The group's channels are one stacked :func:`~qig.channels.isometry_channel`.
    A trial whose channel outputs fail the density checks resamples its
    channel and densities from a copy of its own generator, continuing the
    stream where its last draw stopped, for at most 40 attempts in all.
    """
    n_in, n_out, k, alpha = key
    F = functions.power_kernel(alpha)
    floor = _margin_floor(n_in)
    operands = _unit_operands(np.stack([c.A for c in trials]))
    results = [None] * len(trials)
    pending = dict(enumerate(trials))
    for _ in range(40):
        idx, drawn = list(pending), list(pending.values())
        raw = np.stack([[c.D1 for c in drawn], [c.D2 for c in drawn]])
        D = linalg.state(_densities(raw, floor))
        A = operands[idx]
        ch = channels.isometry_channel(np.stack([c.channel for c in drawn]), k)
        keep = np.arange(len(drawn))
        try:
            margins = channels.monotonicity_margin(F, A, D[0], D[1], ch)
        except InvariantViolation:
            # some outputs lose invertibility: pair the other trials, resample these
            _, ok = linalg.screened_state(channels.apply_state(ch, D.matrix))
            keep = np.flatnonzero(ok.all(axis=0))
            margins = ()
            if keep.size:
                kept = channels.KrausChannel(tuple(K[keep] for K in ch.kraus_ops))
                margins = channels.monotonicity_margin(F, A[keep], D[0, keep], D[1, keep], kept)
        for margin, j in zip(margins, keep):
            del pending[idx[j]]
            D1, D2 = D.matrix[:, j]
            kraus = (K[j] for K in ch.kraus_ops)
            results[idx[j]] = (float(margin), None, digest_inputs(F.name, A[j], D1, D2, *kraus))
        if not pending:
            return results
        for t, c in pending.items():
            pending[t] = _draw_attempt(c.A, copy.deepcopy(c.rng), n_in, n_out, k)
    raise VerificationError("could not sample a channel instance with invertible outputs")


def _draw_concavity(rng, dims):
    n = _dim(rng, dims)
    alpha = _pick(rng, _ALPHAS)
    lam = _pick(rng, _MIX_WEIGHTS)
    A = linalg.draw_ginibre(rng, (n, n))
    floor = _margin_floor(n)
    return (n, alpha), (lam, A, [_draw_density(n, floor, rng) for _ in range(4)])


def _evaluate_concavity(key, trials):
    """Margins of one ``(n, alpha)`` group; its ``4 m`` densities are built and validated together."""
    n, alpha = key
    F = functions.power_kernel(alpha)
    lams, raw_operands, raw_densities = zip(*trials)
    A = _unit_operands(np.stack(raw_operands))
    S = linalg.state(_densities(np.stack(raw_densities, axis=1), _margin_floor(n)))
    margins = channels.concavity_margin(F, A, (S[0], S[1]), (S[2], S[3]), np.array(lams))
    return [
        (float(margin), None, digest_inputs(F.name, lam, A[j], *S.matrix[:, j]))
        for j, (margin, lam) in enumerate(zip(margins, lams))
    ]


def _run_det_uncertainty(rng, dims):
    n = _dim(rng, dims)
    m = int(rng.integers(1, 4))
    f = _standard_pool(rng)
    g = _standard_pool(rng)
    D = random_density(n, floor=min(0.05, 0.5 / n), seed=rng)
    obs = orthonormal_centered_observables(D, m, rng)
    det_c, det_fg, det_2g = _gram_determinants(f, g, D, obs)
    scale = max(1.0, abs(det_c), abs(det_fg), abs(det_2g))
    margin = min(det_c - det_fg, det_c - det_2g) / scale
    return margin, None, digest_inputs(f.name, g.name, D, *obs)


def _run_oracle_equivalence(rng, dims):
    n = _dim(rng, dims)
    k = int(rng.integers(0, 5))
    if k == 0:
        F = functions.power_kernel(1.0)
    elif k == 1:
        F = functions.power_kernel(0.5)
    elif k == 2:
        F = functions.power_kernel(float(rng.uniform(0.1, 0.9)))
    elif k == 3:
        F = functions.neglog_kernel()
    else:
        F = functions.sld()
    floor = min(0.05, 0.5 / n)
    D1 = random_density(n, floor=floor, seed=rng)
    D2 = random_density(n, floor=floor, seed=rng)
    A = _random_complex(n, rng)
    dense = linalg.relmod_dense(F, D1, D2)
    r1 = float(np.max(np.abs(linalg.relmod_apply(F, D1, D2, A) - dense(A))))
    alpha = float(rng.uniform(0.1, 0.9))
    q = complex(quantities.quasi_entropy(functions.power_kernel(alpha), A, D1, D2))
    D2a = linalg.apply_matrix_function(lambda x: x ** alpha, D2)
    D1b = linalg.apply_matrix_function(lambda x: x ** (1.0 - alpha), D1)
    direct = complex(np.trace(A.conj().T @ D2a @ A @ D1b))
    r2 = abs(q - direct)
    return None, max(r1, r2), digest_inputs(F.name, alpha, D1, D2, A)


def _run_wyd_consistency(rng, dims):
    n = _dim(rng, dims)
    p = float(rng.uniform(0.05, 0.95))
    D = random_density(n, floor=min(0.03, 0.5 / n), seed=rng)
    X = random_hermitian(n, rng)
    r = abs(quantities.skew_info(functions.wyd(p), D, X) - quantities.wyd_direct(p, D, X))
    return None, r, digest_inputs(p, D, X)


def _run_renyi_limit(rng, dims):
    n = _dim(rng, dims)
    floor = min(0.03, 0.5 / n)
    D1 = random_density(n, floor=floor, seed=rng)
    D2 = random_density(n, floor=floor, seed=rng)
    u = quantities.umegaki(D1, D2)
    gaps = [abs(quantities.renyi(a, D1, D2) - u) for a in _RENYI_ALPHAS]
    margin = min(gaps[0] - gaps[1], gaps[1] - gaps[2])
    return margin, gaps[-1], digest_inputs(D1, D2)


def _per_trial(runner):
    """``draw`` of a suite that computes each trial as it draws it (with :func:`_drawn`)."""
    return lambda rng, dims: (None, runner(rng, dims))


def _drawn(key, results):
    """``evaluate`` of a per-trial suite: its draws are already the results."""
    return results


class _Suite(NamedTuple):
    """A suite's draw and group evaluator, default tolerances and acceptance-scale run.

    ``draw(rng, dims)`` takes everything a trial needs from the trial's
    generator and returns ``(shape key, inputs)``; ``evaluate(key, inputs)``
    maps a list of one key's inputs to their ``(margin, residual, digest)``.
    """

    draw: Callable
    margin_tol: float
    residual_tol: float
    trials: int
    dims: tuple[int, ...]
    evaluate: Callable = _drawn


_SUITES = {
    "standardness": _Suite(_per_trial(_run_standardness), math.inf, 1e-9, 200, (2, 3, 4)),
    "operator-monotone": _Suite(_per_trial(_run_operator_monotone), 1e-8, 1e-10, 100, (2, 3, 4)),
    "scalar-gibi": _Suite(_per_trial(_run_scalar_gibi), 1e-10, math.inf, 200, (2, 3, 4)),
    "skew-identity": _Suite(_per_trial(_run_skew_identity), math.inf, 1e-9, 200, (2, 3, 4, 5)),
    "hessian": _Suite(_per_trial(_run_hessian), math.inf, 1e-5, 100, (2, 3, 4)),
    "lemma-commuting": _Suite(_per_trial(_run_lemma_commuting), math.inf, 1e-6, 50, (2, 3, 4)),
    "lemma-cross": _Suite(_per_trial(_run_lemma_cross), math.inf, 1e-6, 50, (2, 3, 4)),
    "monotonicity": _Suite(
        _draw_monotonicity, 1e-8, math.inf, 500, (2, 3, 4), _evaluate_monotonicity
    ),
    "concavity": _Suite(_draw_concavity, 1e-8, math.inf, 500, (2, 3, 4), _evaluate_concavity),
    "det-uncertainty": _Suite(_per_trial(_run_det_uncertainty), 1e-9, math.inf, 200, (2, 3, 4)),
    "oracle-equivalence": _Suite(
        _per_trial(_run_oracle_equivalence), math.inf, 1e-10, 100, (2, 3, 4, 5)
    ),
    "wyd-consistency": _Suite(_per_trial(_run_wyd_consistency), math.inf, 1e-9, 100, (2, 3, 4)),
    "renyi-limit": _Suite(_per_trial(_run_renyi_limit), 1e-12, 1e-2, 20, (2, 3, 4)),
}

SUITE_NAMES = tuple(_SUITES)


_TRIAL_ERRORS = (VerificationError, InvariantViolation)


def _evaluate_alone(evaluate, key, inputs):
    """One trial's result, or the exception it raised."""
    try:
        return evaluate(key, [inputs])[0]
    except _TRIAL_ERRORS as exc:
        return exc


def run_suite(name: str, trials: int | None = None, seed: int = 0, dims=None, tolerances=None) -> TrialReport:
    """Run a named property suite; deterministic in ``(seed, trials, dims)``.

    ``trials`` and ``dims`` default to the suite's acceptance-scale run.
    ``tolerances`` may override the per-suite defaults with keys
    ``margin`` and/or ``residual``.  A trial fails when its margin drops
    below ``-margin_tolerance`` or its residual exceeds the residual
    tolerance; failures record the derived trial seed, an input digest,
    and the offending value.  A trial that raises ``VerificationError`` or
    ``InvariantViolation`` is a failure recording its seed, the exception
    class (``error``) and its message; the remaining trials still run.
    Every trial is drawn before any is evaluated, and trials are evaluated
    one shape group at a time; a group that raises is rerun trial by trial.
    """
    if name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}")
    if int(seed) < 0:
        raise DomainError("suite seed must be nonnegative")
    suite = _SUITES[name]
    trials = suite.trials if trials is None else int(trials)
    if trials < 0:
        raise DomainError(f"trials must be nonnegative, got {trials}")
    tol = {"margin": suite.margin_tol, "residual": suite.residual_tol}
    if tolerances:
        for key, value in tolerances.items():
            if key not in ("margin", "residual"):
                raise DomainError(f"unknown tolerance {key!r}")
            tol[key] = float(value)
    dims = suite.dims if dims is None else tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise DomainError(f"dims must be positive integers, got {dims!r}")
    margins: list[float] = []
    residuals: list[float] = []
    failures: list[dict] = []
    start = time.perf_counter()
    outcomes: list = [None] * trials
    groups: dict = {}
    for i in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), i]))
        try:
            key, inputs = suite.draw(rng, dims)
        except _TRIAL_ERRORS as exc:
            outcomes[i] = exc
            continue
        groups.setdefault(key, []).append((i, inputs))
    for key, group in groups.items():
        idx, inputs = zip(*group)
        try:
            results = suite.evaluate(key, inputs)
        except _TRIAL_ERRORS:
            results = [_evaluate_alone(suite.evaluate, key, x) for x in inputs]
        for i, result in zip(idx, results):
            outcomes[i] = result
    for i, outcome in enumerate(outcomes):
        if isinstance(outcome, Exception):
            failures.append(
                {"seed": f"{seed}:{i}", "error": type(outcome).__name__, "message": str(outcome)}
            )
            continue
        margin, residual, digest = outcome
        offending = None
        if margin is not None:
            margins.append(float(margin))
            if margin < -tol["margin"]:
                offending = float(margin)
        if residual is not None:
            residuals.append(float(residual))
            if residual > tol["residual"] and offending is None:
                offending = float(residual)
        if offending is not None:
            failures.append({"seed": f"{seed}:{i}", "digest": digest, "value": offending})
    elapsed = time.perf_counter() - start
    return TrialReport(
        suite=name,
        trials=trials,
        min_margin=min(margins) if margins else None,
        max_residual=max(residuals) if residuals else None,
        failures=failures,
        elapsed=elapsed,
        margin_tolerance=tol["margin"],
        residual_tolerance=tol["residual"],
    )
