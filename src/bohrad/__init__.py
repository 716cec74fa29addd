"""Sharp generalized Bohr radii for bounded analytic functions on shifted disks."""

__version__ = "0.1.0"

from .bohr import (
    BohrReport,
    ExtremalMargin,
    extremal_margin,
    verify_up_to_radius,
)
from .harness import (
    SuiteConfig,
    SuiteReport,
    default_config,
    random_bounded_functions,
    run_inequality_suite,
    run_sharpness_suite,
)
from .operators import (
    apply_coefficient_form,
    operator_bohr_radius,
    operator_bound,
)
from .radius import (
    NoRootError,
    RadiusQuery,
    RadiusResult,
    gap,
    minimal_root,
    sharpness_window_check,
)
from .series import (
    BlaschkeComposed,
    BoundedFunction,
    CoefficientSeries,
    DomainParams,
    Extremal,
    Raw,
    lemma_bound_report,
)
from .weights import (
    AlphaCesaro,
    Bernardi,
    BetaCesaro,
    CustomFamily,
    EvenPowers,
    Linear,
    LinearPlusOne,
    MonomialFamily,
    OddPowers,
    OperatorFamily,
    PowerTail,
    Quadratic,
    WeightFamily,
    make_family,
    phi0,
    phi_k,
    tail_sum,
)

__all__ = [name for name in dir() if not name.startswith("_")]
