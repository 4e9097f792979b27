"""The package's public surface: what ``rapkit`` exports and what it leaves to the tests."""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rapkit
import rapkit.cli
import rapkit.covers
import rapkit.montecarlo
import rapkit.oracle
from rapkit.covers import cover_lattice, forced_cover_lines, row_excluded_profile
from rapkit.formulas import cs_value, min_entry_usage_probability, parisi_value, row_inclusion_probability
from rapkit.model import ZeroPattern, insert_zero, instance, serialize_instance
from rapkit.montecarlo import (
    estimate_entry_usage,
    estimate_min_entry_usage,
    estimate_row_usage,
    estimate_value,
    sample_matrix,
)
from rapkit.oracle import EntryClassification, ExpRapState, LinearEntry, oracle_expected_value, oracle_node_count
from rapkit.solver import brute_force_k_assignment, solve_k_assignment

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
# are the whole König API, Fractions are summed with sum(), the oracle's
# evaluator conditions through condition_minimum itself, a state's
# constructor drops the variables its entries do not use, the CLI builds
# each envelope from plain values in one place, a conditioning step writes
# its template in one pass, the root enters the one recursive evaluator
# reduced, and the terminal test lives in the tests
REMOVED = (
    "column_maximal_cover", "min_cover", "row_maximal_cover", "_pairwise_sum", "_minimum_conditioning", "_gc",
    "FormulaReport", "METHODS", "CommandResult", "_Timer", "_default_threads",
    "_substitute", "_fresh_ids", "_evaluate_reduced", "is_terminal", "ExpVariable",
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

    def test_removed_names_stay_removed(self):
        found = [f"{m.__name__}.{name}" for m in _modules() for name in REMOVED if hasattr(m, name)]
        assert found == []
        assert "labels" not in {field.name for field in dataclasses.fields(EntryClassification)}
        assert not {"accumulated", "variables"} & {field.name for field in dataclasses.fields(ExpRapState)}
        # a state's variable table is one id -> intensity map, its intensities field
        assert not any(hasattr(ExpRapState, name) for name in ("_intensities", "intensity"))
        # a state's zero graph lives only in its cover lattice, read through _covers
        assert not any(hasattr(ExpRapState, name) for name in ("zero_pattern", "_masks", "_zeros"))
        assert "cover" not in {field.name for field in dataclasses.fields(EntryClassification)}
        assert not hasattr(LinearEntry, "is_zero")
        # the pair rule and the measure read one record of coefficient differences
        assert not any(hasattr(LinearEntry, name) for name in ("coeff", "variables"))
        # a reduced state scans its own entries for its lattice: no inherited one
        assert not hasattr(rapkit.covers.CoverLattice, "without_lines")
        assert not hasattr(ExpRapState, "_inherited")
        # test-only accessors: the tests build these from coefficients and positions
        assert not hasattr(rapkit.CoverProfile, "as_dict")
        assert not hasattr(rapkit.CoverProfile, "__getitem__")
        assert not hasattr(rapkit.Assignment, "position_set")

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
            # every oracle name perfbench/spans.py wraps that still exists
            # (its rapkit.oracle.row_maximal_cover target is long gone)
            "rapkit.oracle": (
                "canonical_key",
                "classify_entries",
                "condition_minimum",
                "condition_pair",
                "forced_cover_lines",
                "induction_measure",
                "max_independent_zeros",
                "oracle_expected_value",
                "reduce_state",
            ),
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
        """The first solve loads scipy's solver from its extension module
        without replacing the module attribute, so a wrapper installed on
        it stays in place."""
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

# solve once, then import the solver's module as scipy's own users would
_LATER_IMPORT = """
import json, numpy as np, rapkit.montecarlo as mc
mc.linear_sum_assignment(np.ones((2, 2)))
import scipy.optimize._lsap
print(json.dumps(scipy.optimize._lsap.linear_sum_assignment is mc._scipy_lsa is scipy.optimize.linear_sum_assignment))
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

    def test_sampling_commands_load_the_assignment_extension_alone(self, tmp_path):
        """Monte Carlo needs one function of scipy.optimize, and loads only
        the C extension that holds it, which it leaves out of sys.modules;
        the public fallback would list every scipy.optimize module here."""
        large, small = tmp_path / "large.json", tmp_path / "small.json"
        large.write_text(serialize_instance(instance(32, 32, 32)))  # pads to 1024 entries: the pool runs
        small.write_text(serialize_instance(instance(3, 3, 2, [(0, 0), (0, 2)])))
        commands = [
            ["simulate", str(large), "--samples", "200", "--seed", "7", "--threads", "2"],
            ["verify", str(small), "--samples", "200", "--seed", "7"],
        ]
        loaded = _run_fresh(_GUARD, json.dumps(commands))
        assert loaded == [["import", 0, []], ["simulate", 0, []], ["verify", 0, []]]

    def test_a_later_scipy_import_holds_the_same_solver(self):
        assert _run_fresh(_LATER_IMPORT) is True

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
            assert got["main_thread"] is False  # the solver was first loaded on a pool thread


_P = instance(3, 3, 2, [(0, 0)])
_Z = ZeroPattern(3, 4, ((0, 0), (0, 1), (0, 2)))
_M = [[3, 1, 2], [2, 2, 1], [1, 3, 3]]
_TWO_NODES = instance(2, 3, 2, [(0, 0)])  # the oracle evaluates two nodes

# every public integer argument, each called with the value v in its place
# and 2 a valid value for it
INTEGER_ARGUMENTS = {
    "instance.m": lambda v: instance(v, 3, 2),
    "instance.n": lambda v: instance(3, v, 2),
    "instance.k": lambda v: instance(3, 3, v),
    "parisi_value.k": lambda v: parisi_value(v),
    "cs_value.k": lambda v: cs_value(v, 3, 4),
    "cs_value.m": lambda v: cs_value(2, v, 4),
    "cs_value.n": lambda v: cs_value(2, 3, v),
    "min_entry_usage_probability.k": lambda v: min_entry_usage_probability(v, 3, 4),
    "min_entry_usage_probability.m": lambda v: min_entry_usage_probability(2, v, 4),
    "min_entry_usage_probability.n": lambda v: min_entry_usage_probability(2, 3, v),
    "solve_k_assignment.k": lambda v: solve_k_assignment(_M, v),
    "brute_force_k_assignment.k": lambda v: brute_force_k_assignment(_M, v),
    "row_inclusion_probability.row": lambda v: row_inclusion_probability(_P, v),
    "row_excluded_profile.row": lambda v: row_excluded_profile(_P, v),
    "estimate_row_usage.row": lambda v: estimate_row_usage(_P, v, 20, 1),
    "insert_zero.pos": lambda v: insert_zero(_P, (v, 1)),
    "estimate_entry_usage.pos": lambda v: estimate_entry_usage(_P, (1, v), 20, 1),
    "forced_cover_lines.size": lambda v: forced_cover_lines(cover_lattice(_Z), v),
    "oracle_expected_value.budget": lambda v: oracle_expected_value(_TWO_NODES, budget=v),
    "oracle_node_count.budget": lambda v: oracle_node_count(_TWO_NODES, budget=v),
    "estimate_value.samples": lambda v: estimate_value(_P, v, 1),
    "estimate_value.seed": lambda v: estimate_value(_P, 20, v),
    "estimate_value.threads": lambda v: estimate_value(_P, 20, 1, threads=v),
    "estimate_min_entry_usage.k": lambda v: estimate_min_entry_usage(v, 3, 3, 20, 1),
    "sample_matrix.seed": lambda v: sample_matrix(_P, v),
}


# load rapkit.oracle and what it imports, without the package's __init__
# (which loads Monte Carlo and numpy); print every module that loads
_ORACLE_IMPORTS = """
import json, sys, types
package = types.ModuleType("rapkit")
package.__path__ = [sys.argv[1]]
sys.modules["rapkit"] = package
before = set(sys.modules)
import rapkit.oracle
print(json.dumps(sorted(set(sys.modules) - before)))
"""


class TestOracleStartUp:
    def test_oracle_loads_only_the_standard_library_and_rapkit(self):
        """Every benchmark workload times its start-up, and the oracle is
        imported by each; it must bring in no third-party package."""
        loaded = _run_fresh(_ORACLE_IMPORTS, str(Path(rapkit.__file__).resolve().parent))
        assert {"rapkit.covers", "rapkit.model", "rapkit.oracle"} <= set(loaded)
        outside = [m for m in loaded if m.split(".")[0] not in (*sys.stdlib_module_names, "rapkit")]
        assert outside == []


class TestOneIntegerRule:
    """Every integer argument follows ``rapkit.model.checked_int``: an int or
    an integer type such as numpy.int64, never a bool, float or string."""

    @pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
    def test_numpy_integer_gives_the_same_result(self, name):
        call = INTEGER_ARGUMENTS[name]
        as_numpy, as_int = call(np.int64(2)), call(2)
        assert as_numpy == as_int
        assert repr(as_numpy) == repr(as_int)  # no numpy scalar leaks into the result

    @pytest.mark.parametrize("value", [True, 2.0, "2"], ids=["bool", "float", "str"])
    @pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
    def test_bool_float_and_string_are_refused(self, name, value):
        with pytest.raises(ValueError):
            INTEGER_ARGUMENTS[name](value)

    def test_no_hand_written_integer_check_outside_model(self):
        """A bool test is the mark of a hand-written integer check; only the
        rule in model.py may make one."""
        bool_test = re.compile(r"isinstance\([^)]*\bbool\b|type\([^)]*\)\s+is\s+(not\s+)?bool\b")
        found = [
            f"{path.name}:{number}"
            for path in sorted(Path(rapkit.__file__).parent.glob("*.py"))
            if path.name != "model.py"
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if bool_test.search(line)
        ]
        assert found == []


class TestOneMatchingRoutine:
    """Every matching in ``covers.py`` comes from ``_max_matching`` over row
    masks, so a second (say, list-based) König path cannot come back."""

    TREE = ast.parse(Path(rapkit.covers.__file__).read_text(encoding="utf-8"))
    FUNCTIONS = [node for node in ast.walk(TREE) if isinstance(node, ast.FunctionDef)]

    def _callers(self, name: str) -> list[str]:
        return sorted(
            f.name
            for f in self.FUNCTIONS
            for node in ast.walk(f)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
        )

    def test_one_augmenting_path_search(self):
        searches = sorted(f.name for f in self.FUNCTIONS if "match" in f.name or "augment" in f.name)
        assert searches == ["_augment", "_max_matching"]
        assert self._callers("_augment") == ["_max_matching"]

    def test_only_the_matching_routine_writes_a_matching(self):
        writers = sorted({
            f.name
            for f in self.FUNCTIONS
            for node in ast.walk(f)
            if isinstance(node, (ast.Assign, ast.AugAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Name)
            and target.value.id.startswith("match")
        })
        assert writers == ["_augment", "_max_matching"]

    def test_no_other_matching_is_called(self):
        assert self._callers("max_independent_zeros") == []  # the public wrapper checks its input
        imported = [
            alias.name
            for node in ast.walk(self.TREE)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        ]
        assert not [name for name in imported if re.search("match|assignment|networkx|scipy", name)]


class TestCommandsOnlyCompute:
    """``main`` loads the instance file and reads the clock, once each; no
    ``cmd_*`` in ``cli.py`` does either, so neither decision is written
    once per command."""

    TREE = ast.parse(Path(rapkit.cli.__file__).read_text(encoding="utf-8"))
    FUNCTIONS = [node for node in TREE.body if isinstance(node, ast.FunctionDef)]

    def _callers(self, name: str) -> list[str]:
        return sorted(
            f.name
            for f in self.FUNCTIONS
            if any(isinstance(node, ast.Call) and ast.unparse(node.func) == name for node in ast.walk(f))
        )

    def test_no_command_loads_or_reads_the_clock(self):
        assert len([f for f in self.FUNCTIONS if f.name.startswith("cmd_")]) == 10
        assert self._callers("load_instance") == ["main"]
        assert self._callers("_elapsed_ms") == ["main"]
        assert self._callers("time.perf_counter") == ["_elapsed_ms", "main"]


class TestCheckedEntries:
    """The oracle builds only states without their constructor's checks:
    every ``_trusted`` call in ``oracle.py`` builds an ``ExpRapState``, so
    each ``LinearEntry`` goes through its checking constructor."""

    TREE = ast.parse(Path(rapkit.oracle.__file__).read_text(encoding="utf-8"))

    def test_only_states_are_built_trusted(self):
        built = [
            ast.unparse(node.args[0]) if node.args else None
            for node in ast.walk(self.TREE)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_trusted"
        ]
        assert built and set(built) == {"ExpRapState"}


def _dict_writers(path: Path) -> list[str]:
    """The functions of the module at ``path``, by qualified name, that write
    one key into an object's ``__dict__``: ``x.__dict__[key] = ...`` or
    ``vars(x)[key] = ...``, or ``setdefault`` on either."""

    def is_dict(node: ast.AST) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "__dict__") or (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars"
        )

    def writes(node: ast.AST) -> bool:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            return any(
                isinstance(t, ast.Subscript) and is_dict(t.value)
                for target in targets
                for t in ast.walk(target)
            )
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "setdefault"
            and is_dict(node.func.value)
        )

    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
            else:
                if writes(child):
                    found.append(".".join((path.stem, *scope)))
                visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


class TestOneKeeperPerKey:
    """A value keeps derived data in its own ``__dict__`` from one place
    each: the pattern its zero graph, and a root or child state its cover
    lattice.  (``oracle._trusted`` fills a new state's fields in bulk; see
    TestCheckedEntries.)"""

    KEEPERS = ["covers._zero_graph", "oracle.Conditioning.build", "oracle.make_initial_state"]

    def test_only_the_keepers_write_into_a_dict(self):
        writers = [
            name
            for path in sorted(Path(rapkit.__file__).parent.glob("*.py"))
            for name in _dict_writers(path)
        ]
        assert sorted(writers) == self.KEEPERS

    def test_a_second_writer_is_found(self, tmp_path):
        module = tmp_path / "keeper.py"
        module.write_text(
            "def kept(z):\n"
            "    z.__dict__['_a'] = 1\n"
            "class Step:\n"
            "    def build(self, s):\n"
            "        vars(s)['_b'] = 2\n"
            "        return s.__dict__.setdefault('_c', 3)\n"
            "def reads(z):\n"
            "    return z.__dict__.get('_a'), vars(z)['_b']\n",
            encoding="utf-8",
        )
        assert _dict_writers(module) == ["keeper.kept", "keeper.Step.build", "keeper.Step.build"]
