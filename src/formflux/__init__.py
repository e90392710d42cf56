"""Numerical laboratory for differential forms of low regularity.

The package builds simplicial integration functions I_omega of k-forms,
their Alexander-Spanier coboundaries dI_omega, and singular-kernel
seminorms of multifunctions, estimated by seeded, importance-sampled Monte
Carlo.  Theta sweeps extrapolate the theta -> 1 limits; experiment drivers
compare them against closed-form and sphere-norm targets.
"""

from .alexander_spanier import (
    CoboundaryMultifunction,
    DifferentialMultifunction,
    IntegrationMultifunction,
    Multifunction,
    StokesResult,
    UserMultifunction,
    as_differential,
    stokes_residual,
)
from .domains import (
    Annulus,
    AxisBox,
    Ball,
    SlitBox,
    domain_from_json,
)
from .errors import (
    ArgumentError,
    FormfluxError,
    InefficiencyError,
    UnsupportedOperationError,
)
from .estimates import Estimate, SeminormEstimate
from .exterior import Covector, sphere_norm
from .forms import (
    FormField,
    Mollifier,
    Polynomial,
    form_from_json,
    form_to_json,
    lp_norm,
    lp_sphere_norm,
    mollify,
)
from .seminorms import (
    DEFAULT_THETAS,
    SeminormConfig,
    SweepResult,
    bbm_constant,
    epsilon_theta,
    estimates_to_csv,
    fixed_theta_seminorm,
    near_far_split,
    theta_sweep,
    uniform_bound_check,
)
from .simplex import (
    SimplexQuadratureRule,
    default_rule,
    grundmann_moller_rule,
    integrate_form,
    monte_carlo_rule,
    stratified_segment_rule,
)
from .experiments import (
    EXPERIMENT_NAMES,
    ExperimentReport,
    ExperimentSpec,
    run_bbm,
    run_dd_zero_suite,
    run_experiment,
    run_mollifier_suite,
    run_diagonal_vanishing_check,
    run_stokes_suite,
    run_variant_ordering_check,
)

__version__ = "0.1.0"
