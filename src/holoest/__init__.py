"""Channel estimation for spatially dense dipole arrays.

Models a uniform planar array of thin dipoles with mutual coupling and
spatial correlation, and compares Bayesian and least-squares channel
estimators analytically and by Monte Carlo simulation.
"""

from .correlation import (
    AngularCluster,
    ClusterScenario,
    QuadratureError,
    QuadratureOptions,
    cluster_matrix,
    cluster_scattering,
    iso_entry,
    iso_matrix,
    isotropic_scattering,
    quadrature_entry,
    total_scattering,
)
from .coupling import (
    CouplingModel,
    coupling_model,
    dissipation_resistance,
    effective_correlation,
    impedance_matrix,
    mutual_impedance_collinear,
    mutual_impedance_echelon,
    mutual_impedance_side_by_side,
    self_impedance,
)
from .estimation import (
    ESTIMATOR_KINDS,
    LS,
    MMSE_COUPLING_AWARE_ISO,
    MMSE_ISO,
    MMSE_TRUE,
    EstimatorSpec,
    analytic_mse,
    error_covariance,
    ls_filter,
    mmse_filter,
    mse_eigen_expansion,
    verify_column_space,
)
from .experiments import (
    CouplingConfig,
    SweepConfig,
    SweepResult,
    default_cluster_scenario,
    gap_report,
    run_sweep,
)
from .geometry import Direction, UpaGeometry, array_response
from .linalg import (
    CovarianceMatrix,
    Eigendecomposition,
    hermitian_eig,
    principal_subspace,
    psd_clamp,
    psd_sqrt,
    subspace_contained,
)
from .special import cos_integral, log_alpha_magnitude, sin_integral

__version__ = "0.1.0"
