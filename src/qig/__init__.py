"""Quantum information geometry on finite-dimensional density matrices.

Quasi-entropies, relative entropies, generalized covariances, monotone
quantum Fisher informations, and skew informations, plus a verification
harness that machine-checks their structural identities and inequalities
(Hessian identity, monotonicity under channels, joint concavity,
determinant uncertainty relations) on random instances; the harness and
``qig.channels`` load on first use.
"""

__version__ = "0.1.0"

from .errors import DomainError, FileFormatError, InvariantViolation, VerificationError
from .functions import (
    DiscreteMeasure,
    ScalarFunctionSpec,
    covariance_kernel,
    extremal_kernel,
    extremal_metric,
    hansen_mixture,
    harmonic,
    kubo_mori,
    neglog_kernel,
    power_kernel,
    probe_grid,
    sld,
    wyd,
)
from .linalg import (
    SpectralDecomposition,
    State,
    apply_matrix_function,
    as_density,
    as_hermitian,
    commutator,
    eig_hermitian,
    relmod_apply,
    relmod_dense,
    state,
)
from .quantities import (
    fisher,
    gen_cov,
    quasi_entropy,
    renyi,
    skew_identity_residual,
    skew_info,
    sym_cov,
    umegaki,
    wyd_direct,
)

#: names re-exported from the harness and channels, each module loaded on first use (PEP 562)
_LAZY = {
    "channels": ("KrausChannel", "apply_dual", "apply_state", "concavity_margin", "monotonicity_margin",
                 "random_channel"),
    "verify": ("SUITE_NAMES", "StepSchedule", "TrialReport", "center_observable", "cov_gram", "hessian_vs_skew",
               "mixed_second_derivative", "random_density", "run_suite", "skew_gram"),
}


def __getattr__(name: str):
    import importlib
    for module, names in _LAZY.items():
        if name == module or name in names:
            loaded = importlib.import_module(f"{__name__}.{module}")
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
