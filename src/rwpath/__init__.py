"""Short-time density-matrix approximations of polynomial convergence order.

The library builds approximate density-matrix kernels by replacing the
Brownian bridge of the path-average representation with small, carefully
calibrated Gaussian path systems, verifies their convergence order through
exact moment identities, and measures the order (and, for the splitting
kernel, the convergence constant) by dense matrix propagation.
"""

from .quadrature import (
    Rule1D,
    RuleKind,
    composite_legendre_01,
    endpoint_trapezoid,
    gauss_hermite,
    gauss_legendre_01,
    integrate_01,
    is_palindromic,
    tensor_gauss_hermite,
)
from .processes import (
    CovarianceKernel,
    LambdaSystem,
    PathBasis,
    covariance,
    exact_brownian,
    finite_kernel,
    make_custom,
    make_order3,
    make_order4,
    path_basis,
    variance_identity_error,
)
from .moments import (
    MomentIndex,
    MomentSpec,
    OrderReport,
    brownian_moment,
    continuous_spec,
    discrete_spec,
    enumerate_indices,
    mc_moment_oracle,
    moment,
    sample_spec_moments,
    verify_order,
)
from .calibration import (
    FAMILIES,
    CalibrationError,
    CalibrationResult,
    calibrate,
    calibrated_system,
    residual_order3,
    residual_order4,
)
from .potentials import Potential, custom_potential, harmonic, he_cage, quartic
from .kernels import (
    ContinuousReweightedKernel,
    DiscreteReweightedKernel,
    FreeParticleKernel,
    PhysicalParams,
    ShortTimeKernel,
    TrotterKernel,
    rho_fp,
    units_constant,
)
from .propagation import (
    DiagnosticsSeries,
    KernelMatrix,
    ReferenceZ,
    SpatialGrid,
    TrotterConstantSeries,
    build_matrix,
    dvr_eigenvalues,
    dvr_partition_function,
    matrix_power,
    mc_density_ratio,
    nmm_density_ratio,
    order_diagnostic,
    partition_function,
    reference_z,
    trotter_constant,
)

__version__ = "0.1.0"
