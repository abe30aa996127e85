"""Quantum information geometry on finite-dimensional density matrices.

Quasi-entropies, relative entropies, generalized covariances, monotone
quantum Fisher informations, and skew informations, plus a verification
harness that machine-checks their structural identities and inequalities
(Hessian identity, monotonicity under channels, joint concavity,
determinant uncertainty relations) on random instances.
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
from .channels import (
    KrausChannel,
    apply_dual,
    apply_state,
    concavity_margin,
    monotonicity_margin,
    random_channel,
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
from .verify import (
    SUITE_NAMES,
    StepSchedule,
    TrialReport,
    center_observable,
    cov_gram,
    hessian_vs_skew,
    mixed_second_derivative,
    random_density,
    run_suite,
    skew_gram,
)
