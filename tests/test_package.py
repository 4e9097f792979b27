"""The package's public surface: what ``rapkit`` exports and what it leaves to the tests."""

import importlib
import pkgutil

import rapkit

# reference helpers that only the tests use; they live in tests/conftest.py
# or in the one test module that uses them
TEST_ONLY = (
    "AlternatingPath",
    "delete_column",
    "delete_row",
    "enumerate_optimal_assignments",
    "gcd_group_sum",
    "is_partial_cover",
    "symmetric_difference_paths",
    "transpose_instance",
    "uses_row",
)


def _modules():
    names = [info.name for info in pkgutil.iter_modules(rapkit.__path__)]
    return [rapkit, *(importlib.import_module(f"rapkit.{name}") for name in names)]


class TestPublicSurface:
    def test_all_is_sorted_and_every_name_resolves(self):
        assert rapkit.__all__ == sorted(set(rapkit.__all__))
        missing = [name for name in rapkit.__all__ if not hasattr(rapkit, name)]
        assert missing == []

    def test_test_only_helpers_are_not_in_the_package(self):
        modules = _modules()
        assert {m.__name__ for m in modules} >= {"rapkit.covers", "rapkit.solver", "rapkit.model"}
        found = [f"{m.__name__}.{name}" for m in modules for name in TEST_ONLY if hasattr(m, name)]
        assert found == []

    def test_benchmark_imports_resolve(self):
        # the names the benchmark harness (perfbench/) imports from the package
        imported = {
            "rapkit": (
                "cover_formula_value",
                "cover_profile",
                "cs_value",
                "insert_zero",
                "instance",
                "min_entry_usage_probability",
                "parisi_value",
                "row_inclusion_probability",
            ),
            "rapkit.model": ("instance",),
            "rapkit.montecarlo": ("sample_matrix",),
            "rapkit.solver": ("brute_force_k_assignment",),
        }
        missing = [
            f"{module}.{name}"
            for module, names in imported.items()
            for name in names
            if not hasattr(importlib.import_module(module), name)
        ]
        assert missing == []
