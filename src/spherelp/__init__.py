"""Linear-programming energy bounds for weighted spherical codes and designs."""

from .bounds import (
    BoundReport,
    CheckResult,
    TestFunctionReport,
    design_ulb,
    design_uub,
    test_functions,
    ulb,
    ulb_for_weights,
    uub,
)
from .codes import (
    DesignCheckReport,
    WeightedCode,
    build_config,
    design_strength,
    energy,
    with_equal_weights,
)
from .hermite import hermite_interpolant, hermite_operator, verify_dominance
from .orthopoly import (
    GegenbauerSeries,
    from_gegenbauer,
    gegenbauer_eval,
    to_gegenbauer,
)
from .potentials import (
    Potential,
    classify,
    fejes_toth,
    gaussian,
    logarithmic,
    newton,
    parse_potential,
    potential_derivative,
    potential_eval,
    riesz,
    shifted,
)
from .quadrature import (
    LevenshteinPolynomial,
    QuadratureRule,
    compute_weights,
    dgs_bound,
    levenshtein_function,
    levenshtein_polynomial,
    select_degree_from_capacity,
    select_degree_from_s,
    solve_ulb_rule,
)

__version__ = "0.1.0"
