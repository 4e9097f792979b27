"""The package's public surface: what ``rapkit`` exports and what it leaves to the tests."""

import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import rapkit
import rapkit.montecarlo
from rapkit.model import instance, serialize_instance
from rapkit.montecarlo import estimate_value
from rapkit.oracle import EntryClassification

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

# names the package no longer defines: cover_lattice and max_independent_zeros
# are the whole König API, and Fractions are summed with sum()
REMOVED = ("column_maximal_cover", "min_cover", "row_maximal_cover", "_pairwise_sum")


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

    def test_removed_names_stay_removed(self):
        found = [f"{m.__name__}.{name}" for m in _modules() for name in REMOVED if hasattr(m, name)]
        assert found == []
        assert "labels" not in {field.name for field in dataclasses.fields(EntryClassification)}

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
        # perfbench/spans.py wraps this name as the montecarlo.lsa span
        solver = rapkit.montecarlo.linear_sum_assignment
        assert inspect.isfunction(solver)
        assert (solver.__module__, solver.__qualname__) == ("rapkit.montecarlo", "linear_sum_assignment")

    def test_solver_name_is_never_rebound(self, monkeypatch):
        """The first solve imports scipy's solver without replacing the
        module attribute, so a wrapper installed on it stays in place."""
        monkeypatch.setattr(rapkit.montecarlo, "_scipy_lsa", None)
        solver = rapkit.montecarlo.linear_sum_assignment
        estimate_value(instance(3, 3, 3), 10, 1)
        assert rapkit.montecarlo._scipy_lsa is not None
        assert rapkit.montecarlo.linear_sum_assignment is solver


def _run_fresh(script: str, *args: str):
    """Run `script` in a new interpreter that imports this rapkit; return its JSON line."""
    src = str(Path(rapkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout.splitlines()[-1])


_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"

# import the package, then run each command given as a JSON list of argv
# lists; print the scipy modules loaded after each step
_GUARD = f"""
import contextlib, io, json, sys
import rapkit, rapkit.cli
loaded = [["import", 0, {_LOADED}]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = rapkit.cli.main(argv)
    loaded.append([argv[0], code, {_LOADED}])
print(json.dumps(loaded))
"""

# run one command as the first thing after import, with the solver watched
# as the benchmark's tracer watches it; print its outputs and whether the
# first solve ran on the main thread
_FIRST = f"""
import contextlib, io, json, sys, threading
import rapkit.cli, rapkit.montecarlo as mc
before = {_LOADED}
solver, first = mc.linear_sum_assignment, []
def watched(cost):
    if not first:
        first.append(threading.current_thread() is threading.main_thread())
    return solver(cost)
mc.linear_sum_assignment = watched
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = rapkit.cli.main(sys.argv[1:])
print(json.dumps({{
    "before": before, "code": code, "outputs": json.loads(out.getvalue())["outputs"],
    "main_thread": first[0] if first else None, "cpus": mc._usable_cpus(),
}}))
"""

# the envelopes' outputs as the package gave them with scipy imported at start-up
_INTEGRAL_OUTPUTS = {"alpha": 1.0, "beta": 2.0, "value": 0.5822405264650125}
_SIMULATE_OUTPUTS = {
    "what": "value",
    "mean": 1.599595811962149,
    "stderr": 0.0166850340614096,
    "samples": 200,
    "seed": 7,
    "target": {
        "num": "33659238975573797429256624061",
        "den": "20852386088294732932920960000",
        "approx": "1.61416726283",
    },
    "within_3_sigma": True,
}


class TestScipyLoadedOnlyWhereCalled:
    def test_exact_commands_load_no_scipy(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(instance(3, 3, 2, [(0, 0), (0, 2)])))
        inst, trace = str(path), str(tmp_path / "trace.jsonl")
        commands = [
            ["value", inst],
            ["profile", inst],
            ["rowprob", inst, "--row", "1"],
            ["oracle", inst, "--trace", trace],
            ["verify", inst],
        ]
        loaded = _run_fresh(_GUARD, json.dumps(commands))
        assert loaded == [["import", 0, []]] + [[argv[0], 0, []] for argv in commands]
        assert Path(trace).read_text().count("\n") > 0

    @pytest.mark.parametrize(
        "argv, outputs",
        [
            (["integral", "--alpha", "1", "--beta", "2"], _INTEGRAL_OUTPUTS),
            (["simulate", "{inst}", "--samples", "200", "--seed", "7", "--threads", "2"], _SIMULATE_OUTPUTS),
        ],
        ids=["integral", "simulate"],
    )
    def test_scipy_commands_give_the_same_envelope_when_run_first(self, tmp_path, argv, outputs):
        # 32 x 32 at k = 32 pads to 1024 entries, so the chunks go to the pool
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(instance(32, 32, 32)))
        got = _run_fresh(_FIRST, *(a.format(inst=path) for a in argv))
        assert got["before"] == [] and got["code"] == 0
        assert got["outputs"] == outputs
        if argv[0] == "simulate" and got["cpus"] > 1:
            assert got["main_thread"] is False  # scipy was first imported on a pool thread
