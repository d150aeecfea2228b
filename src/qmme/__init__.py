"""Quasiperiodic Markovian master equations with a product-form solution.

The pipeline: a reduced model (base frequencies, unitary Fourier series p
with p(0) = I, averaged Hamiltonian, couplings, bath spectrum) is validated,
decomposed into transition-frequency jump operators, assembled into a single
constant generator X, and solved exactly as

    rho(t) = p(t) [ exp(t X) rho(0) ] p(t)^dag.

Stability, limit cycles, and complete positivity follow from the spectrum of
X and Choi matrices of the map.
"""

from .analysis import (
    CPTPCertificate,
    DecayFit,
    LimitCycle,
    StabilityReport,
    cptp_certificate,
    decay_rate_fit,
    limit_cycle,
    positive_invariant,
    spectrum_classification,
)
from .bohr import (
    BohrDecomposition,
    JumpOperatorSet,
    build_jump_operator_set,
    check_congruence_freedom,
    decompose,
    interaction_picture_coupling_series,
)
from .dynamics import (
    DynamicalMap,
    integrate_schrodinger_direct,
    rk4_path,
)
from .errors import (
    Defective,
    DimensionMismatch,
    InadmissibleModel,
    InsufficientDecay,
    NoConvergence,
    NotHermitian,
    NotHermitianZeta,
    NotPSD,
    NotUnitary,
    OrderViolation,
    Overflow,
    ParseError,
    QmmeError,
    SchemaVersionMismatch,
    SpectralViolation,
    UnknownFrequency,
)
from .fourier import (
    FourierOperatorSeries,
    check_rational_independence,
    frequency_vector,
    sample_times,
)
from .generator import (
    CovarianceCheck,
    GeneratorBundle,
    build_generator,
    check_covariance,
    cross_check_selection_rule,
)
from .io import dumps_canonical, load_model, save_model, write_trajectory_csv
from .linalg import Superoperator, choi_of, devectorize, trace_norm, vectorize
from .model import (
    BathSpectrum,
    ReducedModel,
    ValidationReport,
    bath_from_family,
    p_series_from_generator,
    p_series_from_profile_terms,
    synthesize_hamiltonian,
    validate_model,
)

__version__ = "0.1.0"


__all__ = [
    "__version__",
    # model
    "ReducedModel",
    "BathSpectrum",
    "bath_from_family",
    "ValidationReport",
    "validate_model",
    "synthesize_hamiltonian",
    "p_series_from_generator",
    "p_series_from_profile_terms",
    # series
    "FourierOperatorSeries",
    "frequency_vector",
    "check_rational_independence",
    "sample_times",
    # decomposition
    "BohrDecomposition",
    "decompose",
    "check_congruence_freedom",
    "interaction_picture_coupling_series",
    "JumpOperatorSet",
    "build_jump_operator_set",
    # generator
    "GeneratorBundle",
    "build_generator",
    "cross_check_selection_rule",
    "CovarianceCheck",
    "check_covariance",
    # dynamics
    "DynamicalMap",
    "integrate_schrodinger_direct",
    "rk4_path",
    # analysis
    "StabilityReport",
    "spectrum_classification",
    "positive_invariant",
    "LimitCycle",
    "limit_cycle",
    "DecayFit",
    "decay_rate_fit",
    "CPTPCertificate",
    "cptp_certificate",
    # linear algebra
    "Superoperator",
    "vectorize",
    "devectorize",
    "trace_norm",
    "choi_of",
    # io
    "load_model",
    "save_model",
    "dumps_canonical",
    "write_trajectory_csv",
    # errors
    "QmmeError",
    "DimensionMismatch",
    "NotHermitian",
    "NotHermitianZeta",
    "NotUnitary",
    "NotPSD",
    "NoConvergence",
    "Overflow",
    "UnknownFrequency",
    "OrderViolation",
    "SpectralViolation",
    "Defective",
    "InsufficientDecay",
    "InadmissibleModel",
    "ParseError",
    "SchemaVersionMismatch",
]
