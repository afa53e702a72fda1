"""Resonances of randomly coupled half-line Jacobi operators.

The package samples tridiagonal beta ensembles, couples them to the free
half-line operator, and studies the resulting finite-rank perturbation
through a polynomial recursion: eigenvalues and resonances appear as the
zeros of a single monic polynomial, inside or outside the unit disk under
the Joukowsky map z + 1/z.  Supporting modules verify the coefficient
identities, the change-of-variables Jacobian, and the closed-form joint
zero density against direct Monte Carlo.
"""

from .density import (
    LogDensityValue,
    NormalizationConstants,
    SingularConfigurationError,
    log_density,
    log_density_batch,
    normalization_constants,
)
from .ensembles import (
    EnsembleParams,
    KappaDistribution,
    RandomStream,
    TridiagonalSample,
    UnsupportedVariantError,
    chi_sample,
    householder_tridiagonalize,
    normal_sample,
    sample_de_tridiagonal,
    sample_dense_gaussian,
    sample_kappa,
)
from .experiments import (
    ExperimentReport,
    SamplingResult,
    dense_vs_tridiagonal_test,
    density_mc_compare_n1,
    density_normalization_n1,
    identity_suite,
    jacobian_suite,
    ks_test,
    membership_suite,
    random_coefficients,
    roundtrip_suite,
    run_resonance_sampling,
    semicircle_moment_test,
    sum_zeros_test,
)
from .geronimo_case import (
    GCSequence,
    InversionError,
    RealPolynomial,
    gc_forward,
    gc_inverse,
    gc_inverse_rows,
    lstar_rows,
)
from .jacobi import (
    JacobiCoefficients,
    TruncatedOperator,
    assemble_coupled,
    eigenvalues_in_range,
    eigenvalues_outside_band,
    perturbation_order,
    tridiag_eigenvalues,
    truncate,
)
from .spectra import (
    EIGENVALUE,
    RESONANCE,
    ConjugationError,
    RootFindingError,
    SMembership,
    SpectrumConfiguration,
    canonicalize_conjugates,
    classify,
    is_in_S,
    joukowsky,
    polynomial_roots,
    resolve,
)

__version__ = "0.1.0"

__all__ = [
    "ConjugationError",
    "EIGENVALUE",
    "EnsembleParams",
    "ExperimentReport",
    "GCSequence",
    "InversionError",
    "JacobiCoefficients",
    "KappaDistribution",
    "LogDensityValue",
    "NormalizationConstants",
    "RESONANCE",
    "RandomStream",
    "RealPolynomial",
    "RootFindingError",
    "SMembership",
    "SamplingResult",
    "SingularConfigurationError",
    "SpectrumConfiguration",
    "TridiagonalSample",
    "TruncatedOperator",
    "UnsupportedVariantError",
    "assemble_coupled",
    "canonicalize_conjugates",
    "chi_sample",
    "classify",
    "dense_vs_tridiagonal_test",
    "density_mc_compare_n1",
    "density_normalization_n1",
    "eigenvalues_in_range",
    "eigenvalues_outside_band",
    "gc_forward",
    "gc_inverse",
    "gc_inverse_rows",
    "householder_tridiagonalize",
    "identity_suite",
    "is_in_S",
    "jacobian_suite",
    "joukowsky",
    "ks_test",
    "log_density",
    "log_density_batch",
    "lstar_rows",
    "membership_suite",
    "normal_sample",
    "normalization_constants",
    "perturbation_order",
    "polynomial_roots",
    "random_coefficients",
    "resolve",
    "roundtrip_suite",
    "run_resonance_sampling",
    "sample_de_tridiagonal",
    "sample_dense_gaussian",
    "sample_kappa",
    "semicircle_moment_test",
    "sum_zeros_test",
    "tridiag_eigenvalues",
    "truncate",
]
