"""Limit-cycle toolkit for the perturbed Rayleigh-Lienard oscillator.

Exact canonical reduction of polynomial one-forms, higher-order Melnikov
functions along parameter arcs, Bautin ideal generators with Nakayama
certification, numerically certified period evaluation and zero counting
of the resulting elliptic integrals, and direct ODE cross-validation.
"""

from .bautin import (
    IdealGenerators,
    NakayamaCertificate,
    bautin_generators,
    nakayama_certify,
    predict_order,
    rescale_lambdas,
)
from .exactalg import MultiPoly, Poly, PolyU, PolyXY, Rational, rat, rat_str, solve_linear_exact
from .forms import (
    CASES,
    EIGHT_EXTERIOR,
    EIGHT_INTERIOR,
    GLOBAL_CENTER,
    TRUNCATED_PENDULUM,
    AnnulusCase,
    CanonicalDecomposition,
    DecompositionError,
    OneForm,
    exterior_derivative,
    get_case,
    perturbation_form,
    reduce,
    verify_decomposition,
)
from .elliptic import (
    PeriodValue,
    oval_geometry,
    periods_complex,
    periods_real,
    pf_residual,
    vanishing_cycle_periods,
    wronskians,
)
from .melnikov import (
    AllVanishedReport,
    MelnikovResult,
    ParamArc,
    center_conditions_order1,
    lemma1_product,
    melnikov,
)
from .simulate import (
    SimConfig,
    find_limit_cycles,
    melnikov_validation,
    poincare_return,
    poincare_scan,
)
from .zeros import (
    ContourSpec,
    VElement,
    ZeroReport,
    count_zeros_real,
    derivative_element,
    eval_V,
    winding_number_F,
)

__version__ = "0.1.0"
