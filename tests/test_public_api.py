import importlib
import types
from pathlib import Path

import pytest

import spherelp

PUBLIC = {
    "ulb", "uub", "design_ulb", "design_uub", "test_functions", "BoundReport", "CheckResult", "TestFunctionReport",
    "WeightedCode", "DesignCheckReport", "build_config", "design_strength", "energy", "with_equal_weights",
    "Potential", "riesz", "newton", "gaussian", "logarithmic", "fejes_toth", "shifted", "parse_potential",
    "potential_eval",
    "dgs_bound",
}

# names the package no longer exports; each stays where it is defined
MODULE_ONLY = [
    ("hermite", "hermite_interpolant"),
    ("hermite", "hermite_operator"),
    ("hermite", "verify_dominance"),
    ("orthopoly", "GegenbauerSeries"),
    ("orthopoly", "from_gegenbauer"),
    ("orthopoly", "gegenbauer_eval"),
    ("orthopoly", "to_gegenbauer"),
    ("orthopoly", "value_at_one"),
    ("potentials", "classify"),
    ("potentials", "potential_derivative"),
    ("quadrature", "QuadratureRule"),
    ("quadrature", "compute_weights"),
    ("quadrature", "levenshtein_coefficients"),
    ("quadrature", "levenshtein_function"),
    ("quadrature", "levenshtein_polynomial"),
    ("quadrature", "select_degree_from_capacity"),
    ("quadrature", "select_degree_from_s"),
    ("quadrature", "solve_ulb_rule"),
]


def test_public_attributes_are_the_user_surface():
    names = {
        name for name, value in vars(spherelp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC


@pytest.mark.parametrize("module, name", MODULE_ONLY, ids=[name for _, name in MODULE_ONLY])
def test_unexported_names_stay_in_their_defining_module(module, name):
    value = getattr(importlib.import_module(f"spherelp.{module}"), name)
    assert callable(value) and value.__module__ == f"spherelp.{module}"
    assert not hasattr(spherelp, name)


def test_readme_names_the_public_surface():
    # the table after the quick start: one row per module, each name exported from there
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("`spherelp` exports exactly these names", 1)[1].split("\n\n", 2)[1]
    listed = {}
    for line in table.splitlines():
        if line.startswith("| `"):
            module, names = (cell.strip() for cell in line.strip("|").split("|"))
            for name in names.split(", "):
                listed[name.strip("`")] = module.strip("`")
    assert set(listed) == PUBLIC
    for name, module in listed.items():
        assert getattr(spherelp, name) is getattr(importlib.import_module(f"spherelp.{module}"), name)
