import importlib
import pkgutil
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


# the library's functools caches, each kept for a cost of removal that a workload
# of perfbench/ measures (CHANGES.md); one not listed here needs such a measurement
CACHES = {
    "bounds._fixed_table", "bounds._ulb_setup", "codes._projection_axis", "hermite._slope_factors",
    "orthopoly._dimension_arrays", "orthopoly._dimension_steps", "orthopoly._physical_memory",
    "orthopoly._times_t_matrix", "quadrature._jacobi_matrix", "quadrature.validity_interval",
}


def test_every_functools_cache_is_listed_and_bounded():
    # at module level or in a class body; a cached_property lives and dies with its instance
    found = {}
    for info in pkgutil.iter_modules(spherelp.__path__):
        module = importlib.import_module(f"spherelp.{info.name}")
        classes = [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == module.__name__]
        for owner in (module, *classes):
            for value in vars(owner).values():
                if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                    found[f"{info.name}.{value.__name__}"] = value.cache_parameters()["maxsize"]
    assert set(found) == CACHES
    assert [name for name, maxsize in found.items() if maxsize is None] == []
