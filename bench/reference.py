"""Reference values computed with numpy alone, apart from ``qig``.

Each function here restates a quantity from its defining formula (matrix
functions through ``numpy.linalg.eigh``, linear solves, Kronecker systems)
so that the benchmark can check what ``qig`` returns without trusting any of
its code.  Standard functions are written as symmetric means
``m_f(x, y) = y f(x / y)`` of two eigenvalues.
"""

from __future__ import annotations

import math

import numpy as np


def mfun(h, H) -> np.ndarray:
    """``h(H)`` for Hermitian H through its eigendecomposition."""
    w, U = np.linalg.eigh((H + H.conj().T) / 2)
    return (U * h(w)) @ U.conj().T


def power(H, a: float) -> np.ndarray:
    return mfun(lambda w: w ** a, H)


def logm(H) -> np.ndarray:
    return mfun(np.log, H)


# ---------------------------------------------------------------------------
# standard functions as means of two eigenvalues


def _off_diagonal(formula, x, y):
    """Evaluate ``formula`` off the diagonal; every standard mean is x on it."""
    same = np.abs(x - y) <= 1e-14 * np.maximum(x, y)
    safe_y = np.where(same, 2.0 * x, y)
    with np.errstate(all="ignore"):
        return np.where(same, x, formula(x, safe_y))


def mean_sld(x, y):
    return (x + y) / 2.0


def mean_harmonic(x, y):
    return 2.0 * x * y / (x + y)


def mean_kubo_mori(x, y):
    return _off_diagonal(lambda a, b: (a - b) / (np.log(a) - np.log(b)), x, y)


def mean_wyd(p: float):
    def m(x, y):
        return _off_diagonal(
            lambda a, b: p * (1 - p) * (a - b) ** 2 / ((a ** p - b ** p) * (a ** (1 - p) - b ** (1 - p))),
            x,
            y,
        )

    return m


def mean_extremal(lam: float):
    def m(x, y):
        return 2.0 * (x + lam * y) * (y + lam * x) / ((1.0 + lam) ** 2 * (x + y))

    return m


def mean_hansen(atoms, weights):
    def m(x, y):
        acc = 0.0
        for a, w in zip(atoms, weights):
            acc = acc + w * (1.0 + a) / 2.0 * (1.0 / (x + a * y) + 1.0 / (y + a * x))
        return 1.0 / acc

    return m


def hansen_f0(atoms, weights) -> float:
    if any(a == 0.0 and w > 0.0 for a, w in zip(atoms, weights)):
        return 0.0
    return 1.0 / sum(w * (1.0 + a) ** 2 / (2.0 * a) for a, w in zip(atoms, weights) if w > 0.0)


def mean_cov(m_f, f0: float):
    """Mean of the covariance kernel ``((x+1) - (x-1)^2 f(0)/f(x)) / 2``."""

    def m(x, y):
        return ((x + y) - (x - y) ** 2 * f0 / m_f(x, y)) / 2.0

    return m


# ---------------------------------------------------------------------------
# quantities


def _pairing(kernel, D, A, B):
    """``sum_ij conj(At_ij) Bt_ij kernel(w_i, w_j)`` and the sum of magnitudes."""
    w, U = np.linalg.eigh(D)
    At = U.conj().T @ A @ U
    Bt = U.conj().T @ B @ U
    K = kernel(w[:, None], w[None, :])
    terms = np.conj(At) * Bt * K
    return complex(np.sum(terms)), float(np.sum(np.abs(terms)))


def _norm(M) -> float:
    return float(np.linalg.norm(M))


def quasi_entropy(kernel: str, alpha: float, A, D1, D2):
    """``Tr A* D2^a A D1^(1-a)`` for ``power:a``; the two-log form for ``neglog``."""
    Ah = A.conj().T
    if kernel == "power":
        P2, P1 = power(D2, alpha), power(D1, 1.0 - alpha)
        value = np.trace(Ah @ P2 @ A @ P1)
        return complex(value), _norm(A) ** 2 * _norm(P2) * _norm(P1)
    L1, L2 = logm(D1), logm(D2)
    value = np.trace(Ah @ A @ D1 @ L1) - np.trace(Ah @ L2 @ A @ D1)
    return complex(value), _norm(A) ** 2 * (_norm(D1 @ L1) + _norm(L2) * _norm(D1))


def relmod(kernel: str, alpha: float, A, D1, D2):
    """``D2 A D1^-1`` by a linear solve for ``identity``; ``D2^a A D1^-a`` for ``power:a``."""
    if kernel == "identity":
        value = np.linalg.solve(D1.T, (D2 @ A).T).T
        return value, _norm(D2) * _norm(A) * _norm(power(D1, -1.0))
    P2, P1 = power(D2, alpha), power(D1, -alpha)
    return P2 @ A @ P1, _norm(P2) * _norm(A) * _norm(P1)


def gen_cov(m_f, D, A, B):
    quad, scale = _pairing(m_f, D, A, B)
    mean = np.trace(D @ A.conj().T) * np.trace(D @ B)
    return quad - complex(mean), scale + abs(complex(mean))


def fisher(m_f, D, A, B):
    return _pairing(lambda x, y: 1.0 / m_f(x, y), D, A, B)


def fisher_sld_kronecker(D, A, B) -> complex:
    """``Tr A* L`` with ``D L + L D = 2 B``, solved as one Kronecker system."""
    n = D.shape[0]
    eye = np.eye(n)
    S = np.kron(eye, D) + np.kron(D.T, eye)
    L = np.linalg.solve(S, 2.0 * B.reshape(-1, order="F")).reshape((n, n), order="F")
    return complex(np.vdot(A, L))


def skew_info(m_f, f0: float, D, X):
    value, scale = _pairing(lambda x, y: (x - y) ** 2 / m_f(x, y), D, X, X)
    return 0.5 * f0 * value.real, 0.5 * f0 * scale


def sym_cov(D, A, B):
    Ah = A.conj().T
    quad = 0.5 * np.trace(D @ (Ah @ B + B @ Ah))
    mean = np.trace(D @ Ah) * np.trace(D @ B)
    # the same trace over absolute values bounds the rounding error
    aD, aA, aB = np.abs(D), np.abs(Ah), np.abs(B)
    scale = 0.5 * np.trace(aD @ (aA @ aB + aB @ aA)) + abs(complex(mean))
    return complex(quad - mean), float(scale)


def umegaki(D1, D2):
    a, b = np.trace(D1 @ logm(D1)).real, np.trace(D1 @ logm(D2)).real
    return float(a - b), float(abs(a) + abs(b))


def renyi(alpha: float, D1, D2):
    t = float(np.trace(power(D2, alpha) @ power(D1, 1.0 - alpha)).real)
    c = alpha * (1.0 - alpha)
    return (1.0 - t) / c, (1.0 + abs(t)) / abs(c)


def wyd_direct(p: float, D, X):
    Dp, Dq = power(D, p), power(D, 1.0 - p)
    Cp, Cq = Dp @ X - X @ Dp, Dq @ X - X @ Dq
    return float(-0.5 * np.trace(Cp @ Cq).real), 0.5 * _norm(Cp) * _norm(Cq)


GOLDEN_SKEW_WYD_HALF = 1.0 - math.sqrt(3.0) / 2.0
"""``qig compute skew --fn wyd:0.5`` on ``diag(3/4, 1/4)`` with sigma_x."""
