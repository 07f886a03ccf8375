"""Skellam and fractional Skellam random fields on the plane.

Analytic point probabilities, generating functions and moments next to exact
samplers for the same laws, plus the statistical machinery to cross-verify
every identity at desk scale.
"""

from .errors import (
    ArgumentRangeError,
    ConvergenceGuardError,
    GammaDomainError,
    GammaPoleError,
    LatticeSpecError,
    QuadratureError,
    SeriesNonConvergenceError,
    SingularPgfError,
    SkellamFieldsError,
    UnknownSuiteError,
    ValidationError,
    WindowMismatchError,
)
from .specfun import WrightSpec, bessel_i, log_gamma, mittag_leffler2, mittag_leffler3, wright
from .rng import RngStream
from .sampling import (
    BoxRegion,
    PointProcessSample,
    count_at,
    sample_inverse_subordinator,
    sample_inverse_subordinator_path,
    sample_point_field,
    sample_poisson,
    sample_stable_unit,
)
from .skellam_field import (
    GridPoint,
    GsrfFieldSample,
    GsrfParams,
    InfinitesimalReport,
    LatticeSpec,
    PmfTable,
    SkellamParams,
    gsrf_compound_sample,
    gsrf_count,
    gsrf_moments,
    gsrf_superpose,
    lattice_sample,
    sample_gsrf_field,
    srf_infinitesimal_check,
    srf_pde_residual,
    srf_pgf,
    srf_pmf,
    srf_pmf_table,
)
from .fractional_field import (
    FracOrders,
    FsrfModel,
    fprf_moments,
    fprf_pmf,
    fprf_sample,
    fprf_sample_pair,
    fsrf1_moments,
    fsrf1_pgf_pde_residual,
    fsrf1_pmf,
    fsrf1_sample,
    fsrf2_moments,
    fsrf2_pgf,
    fsrf2_pmf,
    fsrf2_sample,
    fsrf3_moments,
    fsrf3_pmf,
    fsrf3_sample,
    singular_cov_integral,
)
from .field_integrals import (
    CfGrid,
    IntegralOrders,
    gsrf_integral_sample,
    gsrf_log_cf,
    levy_integral_cf,
    prf_integral_cf,
    prf_log_cf,
    rl_integral_moments,
    rl_integral_sample,
    scaled_compound_sample,
)
from .verification import (
    ComparisonReport,
    McConfig,
    Metric,
    convergence_study,
    covariance_z_check,
    empirical_cf,
    empirical_pmf,
    moment_z_check,
    sample_sharded,
    tv_distance,
    variance_z_check,
)

__version__ = "0.1.0"
