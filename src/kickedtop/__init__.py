"""Numerical laboratory for the quantum kicked top.

Diagonalizes the kicked-top Floquet operator sector by sector, simulates the
classical limit with Lyapunov-exponent analysis, and quantifies quantum
chaos through quasienergy spectral statistics and the multifractal
dimensions of SU(2) coherent states expanded in the Floquet eigenbasis.
"""

__version__ = "0.1.0"

from .classical import (
    AveragedLyapunov,
    GridSpec,
    LyapunovField,
    averaged_lyapunov,
    kappa_threshold,
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
    KickedTopParams,
    SectorEigensystem,
    diagonalize,
)
from .multifractal import (
    DqField,
    MultifractalResult,
    ScalingFit,
    averaged_dq,
    coherent_weights,
    dq_field,
    renyi_dimensions,
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
from .spin import SpinBasis, angular_momentum, coherent_state_matrix
