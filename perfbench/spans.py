"""Span recorder for the traced run, and the layer metrics computed from spans.

The recorder wraps, from outside the program, the functions at each
module boundary: the names a caller module imports from a callee (for
example ``rapkit.formulas.cover_profile``), the oracle's module-level
stages, and the library entry points the benchmark itself calls.  A span
holds its name, start, end, parent span and op id.  Spans stay in memory
and are written as JSON lines when the run ends.

A wrapped name that no longer exists is reported as absent and skipped.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name).  The span name is "<callee module>.<function>".
TARGETS = [
    # cli -> everything it imports
    ("rapkit.cli", "main", "cli.main"),
    ("rapkit.cli", "load_instance", "model.load_instance"),
    ("rapkit.cli", "rational_to_json", "model.rational_to_json"),
    ("rapkit.cli", "cover_profile", "covers.cover_profile"),
    ("rapkit.cli", "cover_formula_value", "formulas.cover_formula_value"),
    ("rapkit.cli", "row_inclusion_probability", "formulas.row_inclusion_probability"),
    ("rapkit.cli", "cs_value", "formulas.cs_value"),
    ("rapkit.cli", "parisi_value", "formulas.parisi_value"),
    ("rapkit.cli", "min_entry_usage_probability", "formulas.min_entry_usage_probability"),
    ("rapkit.cli", "oracle_node_count", "oracle.oracle_node_count"),
    ("rapkit.cli", "estimate_value", "montecarlo.estimate_value"),
    ("rapkit.cli", "estimate_row_usage", "montecarlo.estimate_row_usage"),
    ("rapkit.cli", "estimate_entry_usage", "montecarlo.estimate_entry_usage"),
    ("rapkit.cli", "estimate_min_entry_usage", "montecarlo.estimate_min_entry_usage"),
    # formulas -> covers, model
    ("rapkit.formulas", "cover_profile", "covers.cover_profile"),
    ("rapkit.formulas", "row_excluded_profile", "covers.row_excluded_profile"),
    ("rapkit.formulas", "rational_to_json", "model.rational_to_json"),
    # oracle -> covers, and the oracle's own stages
    ("rapkit.oracle", "max_independent_zeros", "covers.max_independent_zeros"),
    ("rapkit.oracle", "forced_cover_lines", "covers.forced_cover_lines"),
    ("rapkit.oracle", "row_maximal_cover", "covers.row_maximal_cover"),
    ("rapkit.oracle", "reduce_state", "oracle.reduce_state"),
    ("rapkit.oracle", "canonical_key", "oracle.canonical_key"),
    ("rapkit.oracle", "classify_entries", "oracle.classify_entries"),
    ("rapkit.oracle", "induction_measure", "oracle.induction_measure"),
    ("rapkit.oracle", "condition_pair", "oracle.condition_pair"),
    ("rapkit.oracle", "condition_minimum", "oracle.condition_minimum"),
    # montecarlo -> numpy/scipy, formulas, model
    ("rapkit.montecarlo", "substream", "montecarlo.substream"),
    ("rapkit.montecarlo", "linear_sum_assignment", "montecarlo.lsa"),
    ("rapkit.montecarlo", "cover_formula_value", "formulas.cover_formula_value"),
    ("rapkit.montecarlo", "min_entry_usage_probability", "formulas.min_entry_usage_probability"),
    ("rapkit.montecarlo", "rational_to_json", "model.rational_to_json"),
    # library entry points the benchmark calls through the callee module
    ("rapkit.formulas", "cover_formula_value", "formulas.cover_formula_value"),
    ("rapkit.formulas", "cs_value", "formulas.cs_value"),
    ("rapkit.formulas", "parisi_value", "formulas.parisi_value"),
    ("rapkit.oracle", "oracle_expected_value", "oracle.oracle_expected_value"),
    ("rapkit.montecarlo", "estimate_value", "montecarlo.estimate_value"),
    ("rapkit.solver", "solve_k_assignment", "solver.solve_k_assignment"),
]

# Functions through which one module's work is entered; a module's self time
# is the time in these spans outside every wrapped call they make.
ENTRIES = {
    "cli": {"cli.main"},
    "formulas": {
        "formulas.cover_formula_value",
        "formulas.row_inclusion_probability",
        "formulas.cs_value",
        "formulas.parisi_value",
        "formulas.min_entry_usage_probability",
    },
    "oracle": {"oracle.oracle_node_count", "oracle.oracle_expected_value"},
    "montecarlo": {
        "montecarlo.estimate_value",
        "montecarlo.estimate_row_usage",
        "montecarlo.estimate_entry_usage",
        "montecarlo.estimate_min_entry_usage",
    },
}


class Recorder:
    """Records nested spans of a single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, name, start, end, parent, op]
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.op: str | None = None
        self.absent: list[str] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            spans.append(rec)
            stack.append(rec[0])
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return wrapper

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, name in targets:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def read_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Seconds of each span not covered by the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, s["start"]), min(end, s["end"])
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def slot_breakdown(spans: list[dict], ops: dict[str, dict], top: int = 3) -> dict[str, list]:
    """Per slot, the span names with the largest shares of its ops' self time."""
    selfs = self_times(spans)
    by_slot: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        slot = ops.get(s["op"], {}).get("slot")
        if slot is not None:
            by_slot[slot][s["name"]] += selfs[s["id"]]
    out = {}
    for slot, names in by_slot.items():
        total = sum(names.values())
        ranked = sorted(names.items(), key=lambda kv: -kv[1])[:top]
        out[slot] = [[name, seconds / total if total else 0.0] for name, seconds in ranked]
    return out


# ---------------------------------------------------------------------------
# Layer metrics
# ---------------------------------------------------------------------------

# name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "covers.cover_profile.calls": "count",
    "covers.cover_profile.ms": "ms",
    "covers.row_excluded_profile.ms": "ms",
    "formulas.self_ms": "ms",
    "covers.max_independent_zeros.calls": "count",
    "covers.max_independent_zeros.ms": "ms",
    "covers.forced_cover_lines.calls": "count",
    "covers.forced_cover_lines.ms": "ms",
    "covers.row_maximal_cover.calls": "count",
    "covers.row_maximal_cover.ms": "ms",
    "oracle.canonical_key.calls": "count",
    "oracle.canonical_key.ms": "ms",
    "oracle.classify_entries.calls": "count",
    "oracle.classify_entries.ms": "ms",
    "oracle.reduce_state.ms": "ms",
    "oracle.induction_measure.ms": "ms",
    "oracle.condition_pair.calls": "count",
    "oracle.condition_minimum.calls": "count",
    "oracle.condition.ms": "ms",
    "oracle.self_ms": "ms",
    "oracle.ms_per_node": "ms",
    "oracle.nodes": "count",
    "oracle.cache_hits": "count",
    "oracle.cache_hit_ratio": "ratio",
    "oracle.trace_bytes": "bytes",
    "oracle.budget_exhausted": "count",
    "montecarlo.samples": "count",
    "montecarlo.samples_per_s": "1/s",
    "montecarlo.substream.calls": "count",
    "montecarlo.substream.ms": "ms",
    "montecarlo.self_ms": "ms",
    "montecarlo.us_per_sample.3x3": "us",
    "montecarlo.us_per_sample.8x8": "us",
    "montecarlo.csv_bytes": "bytes",
    "montecarlo.lsa.calls": "count",
    "montecarlo.lsa.ms": "ms",
    "montecarlo.us_per_sample.100x100": "us",
    "montecarlo.target.ms": "ms",
    "solver.solve_k_assignment.calls": "count",
    "solver.solve_k_assignment.ms": "ms",
    "solver.ms_per_solve.10x10": "ms",
    "solver.ms_per_solve.40x40": "ms",
    "cli.self_ms": "ms",
    "cli.ops": "count",
    "model.load_instance_ms": "ms",
    "model.rational_to_json_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(spans: list[dict], ops: dict[str, dict], counters: dict) -> dict[str, float]:
    """Per-layer numbers from one traced run.

    ``ops`` maps op id to {"kind", "dims", "samples"}; ``counters`` holds
    what the ops reported themselves: oracle nodes, trace and CSV bytes,
    budget exhaustions.  ``trace.overhead_frac`` is filled in by the caller.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    for s in spans:
        calls[s["name"]] += 1
        total[s["name"]] += s["end"] - s["start"]
    by_id = {s["id"]: s for s in spans}

    def ms(name: str) -> float:
        return total[name] * 1000.0

    def module_self_ms(module: str) -> float:
        return 1000.0 * sum(selfs[s["id"]] for s in spans if s["name"] in ENTRIES[module])

    def entry_seconds(module: str, predicate) -> float:
        return sum(s["end"] - s["start"] for s in spans
                   if s["name"] in ENTRIES[module] and predicate(ops.get(s["op"], {})))

    def mc_us_per_sample(dims: str) -> float:
        match = lambda o: o.get("dims") == dims and o.get("samples")
        samples = sum(o["samples"] for o in ops.values() if match(o))
        return 1e6 * entry_seconds("montecarlo", match) / samples if samples else 0.0

    def solve_ms(dims: str) -> float:
        picked = [s for s in spans if s["name"] == "solver.solve_k_assignment"
                  and ops.get(s["op"], {}).get("dims") == dims]
        return 1000.0 * sum(s["end"] - s["start"] for s in picked) / len(picked) if picked else 0.0

    def is_formula_root(s: dict) -> bool:
        parent = by_id.get(s["parent"])
        return s["name"].startswith("formulas.") and not (parent and parent["name"].startswith("formulas."))

    nodes = counters.get("oracle_nodes", 0)
    key_calls = calls["oracle.canonical_key"]
    hits = max(key_calls - nodes, 0)
    mc_ops = {oid for oid, o in ops.items() if o.get("samples")}
    samples = sum(ops[oid]["samples"] for oid in mc_ops)
    mc_seconds = entry_seconds("montecarlo", lambda o: bool(o.get("samples")))
    oracle_ms = 1000.0 * entry_seconds("oracle", lambda o: True)

    out = {
        "covers.cover_profile.calls": calls["covers.cover_profile"],
        "covers.cover_profile.ms": ms("covers.cover_profile"),
        "covers.row_excluded_profile.ms": ms("covers.row_excluded_profile"),
        "formulas.self_ms": module_self_ms("formulas"),
        "oracle.condition_pair.calls": calls["oracle.condition_pair"],
        "oracle.condition_minimum.calls": calls["oracle.condition_minimum"],
        "oracle.condition.ms": ms("oracle.condition_pair") + ms("oracle.condition_minimum"),
        "oracle.reduce_state.ms": ms("oracle.reduce_state"),
        "oracle.induction_measure.ms": ms("oracle.induction_measure"),
        "oracle.self_ms": module_self_ms("oracle"),
        "oracle.ms_per_node": oracle_ms / nodes if nodes else 0.0,
        "oracle.nodes": nodes,
        "oracle.cache_hits": hits,
        "oracle.cache_hit_ratio": hits / key_calls if key_calls else 0.0,
        "oracle.trace_bytes": counters.get("trace_bytes", 0),
        "oracle.budget_exhausted": counters.get("budget_exhausted", 0),
        "montecarlo.samples": samples,
        "montecarlo.samples_per_s": samples / mc_seconds if mc_seconds else 0.0,
        "montecarlo.self_ms": module_self_ms("montecarlo"),
        "montecarlo.us_per_sample.3x3": mc_us_per_sample("3x3"),
        "montecarlo.us_per_sample.8x8": mc_us_per_sample("8x8"),
        "montecarlo.us_per_sample.100x100": mc_us_per_sample("100x100"),
        "montecarlo.csv_bytes": counters.get("csv_bytes", 0),
        "montecarlo.target.ms": 1000.0 * sum(
            s["end"] - s["start"] for s in spans if s["op"] in mc_ops and is_formula_root(s)
        ),
        "solver.ms_per_solve.10x10": solve_ms("10x10"),
        "solver.ms_per_solve.40x40": solve_ms("40x40"),
        "cli.self_ms": module_self_ms("cli"),
        "cli.ops": calls["cli.main"],
        "model.load_instance_ms": ms("model.load_instance"),
        "model.rational_to_json_ms": ms("model.rational_to_json"),
    }
    for name in ("covers.max_independent_zeros", "covers.forced_cover_lines", "covers.row_maximal_cover",
                 "oracle.canonical_key", "oracle.classify_entries", "montecarlo.substream",
                 "montecarlo.lsa", "solver.solve_k_assignment"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.ms"] = ms(name)
    return {name: out[name] for name in LAYER_METRICS if name in out}
