"""Self-tests for the benchmark's own machinery (not for rapkit).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import types
import unittest
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import ladder  # noqa: E402
import spans  # noqa: E402
from run import slot_costed, tail  # noqa: E402


def _ops(workload: str, seed: int, pass_index: int = 0, seconds: float = 2.0):
    return [dataclasses.asdict(op) for op in ladder.pass_ops(workload, seed, pass_index, seconds)]


def _cli_op(argv, base="b", inst=None, params=None):
    inst = inst or {"m": 3, "n": 3, "k": 2, "zeros": [[0, 0]]}
    return ladder.Op("0.x", "x", 0, "cli", base, inst, list(argv), dict(params or {}))


def _envelope(command: str, outputs: dict) -> str:
    return json.dumps({"command": command, "inputs": {}, "outputs": outputs, "elapsed_ms": 0.0}) + "\n"


def _wire(value: Fraction) -> dict:
    return {"num": str(value.numerator), "den": str(value.denominator), "approx": str(float(value))}


GOLDEN = {"b": {"value": "2/9", "target": "2/9"}}


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in ladder.WORKLOADS:
            self.assertEqual(_ops(workload, 7, 1), _ops(workload, 7, 1), workload)

    def test_seed_changes_inputs(self):
        for workload in ladder.WORKLOADS:
            self.assertNotEqual(_ops(workload, 7), _ops(workload, 8), workload)

    def test_relabelling_keeps_the_pattern_shape(self):
        base = ladder.pool()["exact"]["value.band_10x10"][0]
        doc, rows, cols = ladder.relabel(base, __import__("random").Random(3))
        self.assertEqual(sorted(rows), list(range(base.m)))
        self.assertEqual(len(doc["zeros"]), len(base.zeros))
        self.assertEqual(sorted(map(tuple, doc["zeros"])), sorted((rows[r], cols[c]) for r, c in base.zeros))

    def test_no_instance_repeats_within_a_run(self):
        for workload in ("exact", "oracle", "sweep", "simulate"):
            seen: set = set()
            inputs = [
                json.dumps([op.inst, op.params.get("seed")], sort_keys=True)
                for p in range(ladder.pass_count(workload, 20.0))
                for op in ladder.pass_ops(workload, 5, p, 20.0, seen=seen)
            ]
            self.assertEqual(len(inputs), len(set(inputs)), workload)

    def test_zero_free_oracle_rungs_run_once(self):
        bases = ladder.pool()
        zero_free = {slot for slot, variants in bases["oracle"].items() if not variants[0].zeros}
        seen: set = set()
        first = {op.slot for op in ladder.pass_ops("oracle", 5, 0, 20.0, bases, seen)}
        second = {op.slot for op in ladder.pass_ops("oracle", 5, 1, 20.0, bases, seen)}
        self.assertTrue(zero_free <= first)
        self.assertFalse(zero_free & second)
        self.assertIn("oracle_trace.5x5_k3_1z", second)

    def test_sweep_passes_answer_every_4x4_class(self):
        classes = ladder.sweep_classes()
        self.assertEqual(len(classes), 317 * 3)  # 4x4 zero patterns up to permutation, k = 2..4
        seen: set = set()
        first = ladder.pass_ops("sweep", 5, 0, 20.0, seen=seen)
        self.assertEqual([op.slot for op in first], [b.key for b in ladder.sweep_bases()])
        second = ladder.pass_ops("sweep", 5, 1, 20.0, seen=seen)
        self.assertEqual([op.slot for op in second], [b.key for b in classes])
        third = {op.slot for op in ladder.pass_ops("sweep", 5, 2, 20.0, seen=seen)}
        one_labelling = {b.key for b in classes if len(b.zeros) in (0, 16)}  # no zeros, all zeros
        self.assertEqual(len(one_labelling), 6)
        self.assertEqual(third, {b.key for b in classes} - one_labelling)

    def test_pass_count_follows_seconds(self):
        self.assertLess(ladder.pass_count("sweep", 10), ladder.pass_count("sweep", 40))
        self.assertLess(ladder.pass_count("exact", 10), ladder.pass_count("exact", 40))


class CheckerTest(unittest.TestCase):
    def test_right_value_passes(self):
        op = _cli_op(["value", "f"])
        out = {"exit": 0, "stdout": _envelope("value", {"value": _wire(Fraction(2, 9))})}
        self.assertIsNone(checks.check(op, out, GOLDEN))

    def test_perturbed_golden_fraction_fails(self):
        op = _cli_op(["value", "f"])
        out = {"exit": 0, "stdout": _envelope("value", {"value": _wire(Fraction(2, 9) + Fraction(1, 10**30))})}
        self.assertIn("golden", checks.check(op, out, GOLDEN))

    def test_zero_free_closed_form_is_asserted(self):
        inst = {"m": 4, "n": 4, "k": 4, "zeros": []}
        golden = {"b": {"value": "1/3"}}  # wrong golden and wrong answer agree; closed form does not
        op = _cli_op(["value", "f"], inst=inst)
        out = {"exit": 0, "stdout": _envelope("value", {"value": _wire(Fraction(1, 3))})}
        self.assertIn("closed form", checks.check(op, out, golden))
        self.assertEqual(checks.parisi(4), Fraction(205, 144))

    def test_mismatch_exit_code_fails(self):
        op = _cli_op(["verify", "f"])
        out = {"exit": 2, "stdout": _envelope("verify", {"status": "mismatch"})}
        self.assertEqual(checks.check(op, out, GOLDEN), "exit code 2")

    def test_budget_exit_code_fails(self):
        op = _cli_op(["oracle", "f", "--trace", "t"])
        out = {"exit": 3, "stdout": _envelope("oracle", {"status": "budget-exhausted"})}
        self.assertEqual(checks.check(op, out, GOLDEN), "exit code 3")

    def test_raising_op_fails(self):
        self.assertIn("raised", checks.check(_cli_op(["value", "f"]), {"error": "ValueError()"}, GOLDEN))

    def test_monte_carlo_six_sigma_off_fails(self):
        target = Fraction(2, 9)
        op = _cli_op(["simulate", "f"], params={"samples": 1000})

        def outcome(sigmas: float) -> dict:
            outputs = {"mean": float(target) + sigmas * 0.01, "stderr": 0.01, "samples": 1000,
                       "target": _wire(target)}
            return {"exit": 0, "stdout": _envelope("simulate", outputs)}

        self.assertIsNone(checks.check(op, outcome(4.0), GOLDEN))
        self.assertIn("standard errors", checks.check(op, outcome(6.0), GOLDEN))
        self.assertIn("standard errors", checks.check(op, outcome(-6.0), GOLDEN))

    def test_csv_line_count_is_checked(self):
        target = Fraction(2, 9)
        op = _cli_op(["simulate", "f", "--csv", "c"], params={"samples": 10})
        outputs = {"mean": float(target), "stderr": 0.01, "samples": 10, "target": _wire(target)}
        out = {"exit": 0, "stdout": _envelope("simulate", outputs), "csv_lines": 10}
        self.assertIn("CSV", checks.check(op, out, GOLDEN))
        out["csv_lines"] = 11
        self.assertIsNone(checks.check(op, out, GOLDEN))

    def test_trace_line_count_is_checked(self):
        op = _cli_op(["oracle", "f", "--trace", "t"])
        outputs = {"status": "ok", "value": _wire(Fraction(2, 9)), "nodes": 3}
        out = {"exit": 0, "stdout": _envelope("oracle", outputs), "trace_lines": 2}
        self.assertIn("trace", checks.check(op, out, GOLDEN))


class SpanTest(unittest.TestCase):
    @staticmethod
    def _span(sid, name, start, end, parent, op="0.x"):
        return {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "op": op}

    def test_self_time_subtracts_the_union_of_children(self):
        tree = [
            self._span(0, "cli.main", 0.0, 10.0, None),
            self._span(1, "formulas.cover_formula_value", 1.0, 3.0, 0),
            self._span(2, "formulas.cs_value", 2.0, 5.0, 0),  # overlaps span 1
            self._span(3, "covers.cover_profile", 1.5, 2.5, 1),
            self._span(4, "model.load_instance", 6.0, 7.0, 0),
        ]
        selfs = spans.self_times(tree)
        self.assertAlmostEqual(selfs[0], 10.0 - 4.0 - 1.0)
        self.assertAlmostEqual(selfs[1], 2.0 - 1.0)
        self.assertAlmostEqual(selfs[3], 1.0)

    def test_layer_metrics_on_a_synthetic_tree(self):
        tree = [
            self._span(0, "cli.main", 0.0, 1.0, None),
            self._span(1, "formulas.cover_formula_value", 0.1, 0.9, 0),
            self._span(2, "covers.cover_profile", 0.2, 0.8, 1),
        ]
        ops = {"0.x": {"kind": "cli", "dims": "3x3", "samples": None}}
        got = spans.layer_metrics(tree, ops, {"oracle_nodes": 0})
        self.assertEqual(set(got), set(spans.LAYER_METRICS) - {"trace.overhead_frac"})
        self.assertAlmostEqual(got["cli.self_ms"], 200.0)
        self.assertAlmostEqual(got["formulas.self_ms"], 200.0)
        self.assertAlmostEqual(got["covers.cover_profile.ms"], 600.0)
        self.assertEqual(got["covers.cover_profile.calls"], 1)

    def test_recorder_nests_spans_and_reports_absent_names(self):
        module = types.ModuleType("perfbench_fake_module")
        module.outer = lambda: module.inner() + 1
        module.inner = lambda: 1
        sys.modules[module.__name__] = module
        try:
            rec = spans.Recorder()
            rec.install([(module.__name__, "outer", "fake.outer"), (module.__name__, "inner", "fake.inner"),
                         (module.__name__, "gone", "fake.gone")])
            rec.op = "0.x"
            self.assertEqual(module.outer(), 2)
            rec.uninstall()
            self.assertEqual(rec.absent, [f"{module.__name__}.gone"])
            (outer, inner) = rec.spans
            self.assertEqual((outer[1], inner[1], inner[4], inner[5]), ("fake.outer", "fake.inner", outer[0], "0.x"))
            self.assertEqual(module.outer(), 2)
            self.assertEqual(len(rec.spans), 2)  # uninstalled: nothing more recorded
        finally:
            del sys.modules[module.__name__]


class SummaryTest(unittest.TestCase):
    def test_slot_costed_uses_each_slots_median(self):
        ops = [{"slot": "a", "ref_ms": 1.0}, {"slot": "a", "ref_ms": 9.0}, {"slot": "a", "ref_ms": 2.0},
               {"slot": "b", "ref_ms": 5.0}]
        self.assertEqual(slot_costed(ops), [2.0, 2.0, 2.0, 5.0])

class TailTest(unittest.TestCase):
    def test_ten_ops_beyond_the_tail(self):
        latencies = list(range(1, 31))
        value, pct = tail(latencies)
        self.assertEqual(sum(1 for x in latencies if x > value), 10)
        self.assertAlmostEqual(pct, 100.0 * 20 / 30)


if __name__ == "__main__":
    unittest.main()
