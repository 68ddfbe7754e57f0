"""qsdlab: quasistationary analysis of one-dimensional diffusions.

Boundary classification, principal eigenvalues and eigenfunctions of
absorbed/killed generators, quasistationary densities, Doob transforms of
the conditioned process, closed-form Bessel kernels, and killed-path Monte
Carlo for cross-validating the spectral predictions.
"""

from .boundary import (ClassificationResult, PositivityReport,
                       assumption1_check, classify, positivity_criterion)
from .expressions import ExpressionError, compile_expression
from .kernels import (bessel_kernel, bessel_kernel_plus,
                      bessel_transition_lebesgue, log_iv)
from .model import (CONVENTION_NOTE, DiffusionModel, ReductionForms,
                    ScalarField, SchrodingerPotential, Transform,
                    feller_transform, model_from_json, model_json_str,
                    model_to_json, reduce_unit_diffusion,
                    schrodinger_potential)
from .montecarlo import (DichotomyVerdict, EnsembleResult, SimConfig,
                         SurvivalCurve, dichotomy_probe, histogram_masses,
                         run_ensemble, survival_curve, tv_distance)
from .numerics import (BracketError, IndeterminateIntegralError,
                       IntegralVerdict, OdeTrajectory, QsdlabError,
                       StepUnderflowError, improper_integral)
from .spectral import (ClassificationMismatchError, DoobResult,
                       HeatKernelValue, PhiSolution, QsdDensity,
                       SpectralResult, USolution, build_phi, build_u,
                       doob_h_transform, eigen_fd_oracle, eigen_schrodinger,
                       eigen_shoot, heat_kernel, qsd_density)
from .zoo import ZOO, zoo_build

__version__ = "0.1.0"

__all__ = [
    "__version__", "CONVENTION_NOTE",
    # model layer
    "DiffusionModel", "ScalarField", "SchrodingerPotential",
    "ReductionForms", "Transform", "reduce_unit_diffusion",
    "schrodinger_potential", "feller_transform", "model_to_json",
    "model_from_json", "model_json_str", "compile_expression",
    # boundary layer
    "classify", "ClassificationResult", "positivity_criterion",
    "PositivityReport", "assumption1_check",
    # spectral layer
    "build_u", "build_phi", "USolution", "PhiSolution", "SpectralResult",
    "eigen_shoot", "eigen_fd_oracle", "eigen_schrodinger", "qsd_density",
    "QsdDensity", "doob_h_transform", "DoobResult", "heat_kernel",
    "HeatKernelValue",
    # kernels
    "log_iv", "bessel_kernel", "bessel_kernel_plus",
    "bessel_transition_lebesgue",
    # Monte Carlo
    "SimConfig", "EnsembleResult", "run_ensemble", "survival_curve",
    "SurvivalCurve", "histogram_masses", "tv_distance", "dichotomy_probe",
    "DichotomyVerdict",
    # numerics / errors
    "QsdlabError", "IndeterminateIntegralError", "BracketError",
    "StepUnderflowError", "IntegralVerdict", "improper_integral",
    "OdeTrajectory",
    "ExpressionError", "ZOO", "zoo_build",
]
