"""Linear-programming energy bounds for weighted spherical codes and designs."""

from .bounds import (
    BoundReport,
    CheckResult,
    TestFunctionReport,
    design_ulb,
    design_uub,
    test_functions,
    ulb,
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
from .potentials import (
    Potential,
    fejes_toth,
    gaussian,
    logarithmic,
    newton,
    parse_potential,
    potential_eval,
    riesz,
    shifted,
)
from .quadrature import dgs_bound

__version__ = "0.1.0"
