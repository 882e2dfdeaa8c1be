"""Numerical laboratory for the quantum kicked top.

Builds and diagonalizes the kicked-top Floquet operator, simulates the
classical limit with Lyapunov-exponent analysis, and quantifies quantum
chaos through quasienergy spectral statistics and the multifractal
dimensions of SU(2) coherent states expanded in the Floquet eigenbasis.
"""

__version__ = "0.1.0"

from .classical import (
    AveragedLyapunov,
    ClassicalState,
    GridSpec,
    LyapunovField,
    averaged_lyapunov,
    classical_step,
    kappa_threshold,
    lyapunov_exponent,
    lyapunov_field,
    phase_portrait,
)
from .cache import cached_eigensystem
from .coeffstats import (
    DistanceReport,
    RescaledCoefficients,
    chisq_cdf,
    chisq_logpdf_form,
    chisq_pdf,
    distance_report,
    empirical_log_histogram,
    pool_rescaled,
)
from .floquet import (
    FloquetEigensystem,
    FloquetOperator,
    KickedTopParams,
    SectorEigensystem,
    build_floquet,
    diagonalize,
    evolve_state,
    parity_operator,
    wigner_d_matrix,
)
from .multifractal import (
    DqField,
    ExpansionCoefficients,
    MultifractalResult,
    ScalingFit,
    averaged_dq,
    coherent_weights,
    dq_field,
    expand_in_floquet_basis,
    fractal_dimensions,
    scaling_fit,
)
from .spectral import (
    BrodyFit,
    RatioStats,
    SpacingEnsemble,
    brody_pdf,
    fit_brody,
    ratio_stats,
    spacings_from_quasienergies,
)
from .spin import CoherentState, SpinBasis, angular_momentum, coherent_state
