"""One benchmark process: set up, answer the ladder for a while, check, report.

Started by ``run.py`` in a fresh interpreter whose environment pins the
numeric libraries to one thread.  It prints ``READY`` when set-up is done
(the parent times set-up up to that line) and ``SCALE`` with the speed
probe's reference time over its time just after set-up, then runs passes of the
workload's ladder in a closed loop with one client, checks every op
outside the timed interval and writes a JSON result file.

    python3 perfbench/worker.py --workload exact --seed 1 --seconds 12 \
        --trace 0 --src src --tmp .perfbench_tmp/x --result out.json
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

import numpy as np

import checks
import ladder
import spans as spanlib

# Probe part times on a quiet 2-CPU box; reference latencies are scaled to them.
REFERENCE_PROBE_S = {"_probe_python": 0.0015, "_probe_numpy": 0.0004}
# Passes whose instance files are written during set-up.
SETUP_PASSES = 8
# A ladder still unfinished after this many times --seconds fails the run.
OVERRUN = 3


def _import_program(src: str) -> None:
    import rapkit
    import rapkit.cli  # noqa: F401 - set-up includes importing the CLI

    here = os.path.realpath(os.path.dirname(rapkit.__file__))
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"rapkit was imported from {here}, not from {src}")


_PROBE_SIZE = 8000  # entries in the probe's table, a few MB: larger than the caches


def _probe_table() -> tuple[list, dict]:
    keys = [frozenset({(i % 97, i % 89), (i % 83, i % 7)}) for i in range(_PROBE_SIZE)]
    return keys, dict.fromkeys(keys, 1)


def _probe_python(keys: list, table: dict) -> None:
    """A fixed slice of interpreter work: set building, lookups scattered over
    a table, tuple hashing and Fractions."""
    acc = 0
    f = Fraction(0)
    for i in range(1500):
        key = frozenset({(i % 97, i % 89), (i % 83, i % 7)})
        acc += table.get(key, 0) + table[keys[(i * 7919) % _PROBE_SIZE]]
        acc += hash((i, i >> 3)) & 7
        if i % 16 == 0:
            f += Fraction(1, i + 1)


def _probe_numpy(keys: list, table: dict) -> None:
    """A fixed slice of small-array numpy work, as in per-sample Monte Carlo."""
    for i in range(20):
        np.random.Generator(np.random.Philox(key=i)).random((4, 4)).argmin()


# Probe parts whose time stands for the machine's speed on each workload:
# the interpreter for the exact, oracle, sweep and solver ladders, the
# interpreter plus small numpy calls for Monte Carlo.
PROBE_PARTS = {"simulate": (_probe_python, _probe_numpy)}
DEFAULT_PROBE = (_probe_python,)


class SpeedProbe:
    """Times a fixed probe between ops, at most every ``interval`` seconds.

    Each op's latency is also reported scaled by the probe's reference time
    over its median time around the op: the latency the op would have had
    while the machine ran the probe at its reference speed.
    """

    def __init__(self, parts, interval: float = 0.1):
        self.parts = parts
        self.interval = interval
        self.samples: list[tuple[float, float]] = []  # (when, seconds)
        self._data = _probe_table()

    def poll(self) -> None:
        now = time.perf_counter()
        if not self.samples or now - self.samples[-1][0] >= self.interval:
            self.measure()

    def measure(self) -> float:
        # Without the collector, so that the probe does not time a scan of
        # whatever heap the program left behind.
        gc.disable()
        try:
            for part in self.parts:  # warm
                part(*self._data)
            t0 = time.perf_counter()
            for part in self.parts:
                part(*self._data)
            self.samples.append((t0, time.perf_counter() - t0))
        finally:
            gc.enable()
        return self.samples[-1][1]

    def around(self, start: float, end: float, margin: float = 2.0) -> float:
        """Median probe time within ``margin`` seconds of an interval."""
        near = [s for t, s in self.samples if start - margin <= t <= end + margin]
        if not near:
            near = [min(self.samples, key=lambda ts: abs(ts[0] - start))[1]]
        return statistics.median(near)


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float, tmp: str, golden: dict, recorder=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tmp = tmp
        self.recorder = recorder
        self.bases = ladder.pool()
        recorded = [base for slots in self.bases.values() for variants in slots.values() for base in variants]
        if workload == "sweep":
            recorded += [*ladder.sweep_bases(), *ladder.sweep_classes()]
        for base in recorded:
            if golden.get(base.key, {}).get("instance") != base.doc():
                raise SystemExit(f"golden.json does not match base {base.key}; rerun golden.py")
        self.sweep_cache: dict = {}
        self.sweep_warm: dict | None = None  # the cache as the sweep's pass 0 left it
        self.seen: set[str] = set()  # inputs answered so far; none repeats within a run
        self.counters = {"oracle_nodes": 0, "trace_bytes": 0, "csv_bytes": 0, "budget_exhausted": 0}
        self.op_meta: dict[str, dict] = {}

    # -- inputs -----------------------------------------------------------

    def prepare(self, pass_index: int):
        """Ops of one pass with their files written and inputs materialised."""
        from rapkit.model import instance

        ops = ladder.pass_ops(self.workload, self.seed, pass_index, self.seconds, self.bases, self.seen)
        for op in ops:
            files = {}
            if op.kind == "cli":
                files["inst"] = os.path.join(self.tmp, f"{op.id}.json")
                with open(files["inst"], "w", encoding="utf-8") as fh:
                    json.dump(op.inst, fh)
                files["trace"] = os.path.join(self.tmp, f"{op.id}.trace.jsonl")
                files["csv"] = os.path.join(self.tmp, f"{op.id}.csv")
                op.argv = [a.format(**files) for a in op.argv]
            elif op.kind in ("sweep", "estimate"):
                doc = op.inst
                op.params["instance"] = instance(doc["m"], doc["n"], doc["k"], [tuple(z) for z in doc["zeros"]])
            op.params["files"] = files
        return ops

    def draw_matrices(self, ops) -> None:
        """Pre-draw the solver's sampled matrices, outside the timed interval."""
        from rapkit.model import instance
        from rapkit.montecarlo import sample_matrix

        for op in ops:
            if op.kind == "solve" and "matrix" not in op.params:
                p = instance(op.params["m"], op.params["n"], op.params["k"])
                op.params["sampled"] = sample_matrix(p, np.random.default_rng(op.params["seed"]))

    def start_pass(self, pass_index: int) -> None:
        """Each 4x4 pass of the sweep starts from the cache the 2x2 and 3x3 pass left."""
        if self.workload != "sweep" or pass_index == 0:
            return
        if self.sweep_warm is None:
            self.sweep_warm = dict(self.sweep_cache)
        self.sweep_cache = dict(self.sweep_warm)

    # -- one op -----------------------------------------------------------

    def run(self, op) -> tuple[float, dict]:
        """Time one op; returns (seconds, outcome)."""
        import rapkit.cli
        import rapkit.formulas as formulas
        import rapkit.montecarlo as montecarlo
        import rapkit.oracle as oracle
        import rapkit.solver as solver

        outcome: dict = {"error": None}
        if self.recorder is not None:
            self.recorder.op = op.id
        if op.kind == "cli":
            buf_out, buf_err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(buf_out), contextlib.redirect_stderr(buf_err):
                    t0 = time.perf_counter()
                    try:
                        code = rapkit.cli.main(list(op.argv))
                    except SystemExit as exc:
                        code = exc.code
                    seconds = time.perf_counter() - t0
            except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
                seconds = time.perf_counter() - t0
                outcome["error"] = repr(exc)
                code = None
            outcome.update(exit=code, stdout=buf_out.getvalue(), stderr=buf_err.getvalue())
        else:
            p = op.params.get("instance")
            t0 = time.perf_counter()
            try:
                if op.kind == "sweep":
                    before = len(self.sweep_cache)
                    result = (
                        formulas.cover_formula_value(p),
                        oracle.oracle_expected_value(p, cache=self.sweep_cache),
                    )
                elif op.kind == "estimate":
                    target = (
                        formulas.parisi_value(p.k) if p.m == p.n == p.k else formulas.cs_value(p.k, p.m, p.n)
                    )
                    result = montecarlo.estimate_value(
                        p, op.params["samples"], op.params["seed"], target=target
                    )
                else:  # solve
                    matrix = op.params.get("matrix") or op.params["sampled"]
                    result = solver.solve_k_assignment(matrix, op.params["k"])
                seconds = time.perf_counter() - t0
                outcome["result"] = result
            except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
                seconds = time.perf_counter() - t0
                outcome["error"] = repr(exc)
            if op.kind == "sweep":
                outcome["nodes"] = len(self.sweep_cache) - before
            if op.kind == "solve":
                matrix = op.params.get("matrix") or op.params["sampled"]
                outcome["matrix"] = matrix if isinstance(matrix, list) else matrix.entries
        if self.recorder is not None:
            self.recorder.op = None
        return seconds, outcome

    def observe(self, op, outcome: dict) -> None:
        """Read the op's side outputs (trace, CSV, node counts) into counters."""
        files = op.params.get("files", {})
        if op.kind == "cli" and outcome.get("stdout"):
            try:
                out = json.loads(outcome["stdout"].strip().splitlines()[-1])["outputs"]
            except (ValueError, KeyError, IndexError):
                out = {}
            nodes = out.get("oracle_nodes", out.get("nodes"))
            if op.argv[0] in ("verify", "oracle") and isinstance(nodes, int):
                self.counters["oracle_nodes"] += nodes
        if outcome.get("exit") == 3:  # the CLI's "budget exhausted" exit code
            self.counters["budget_exhausted"] += 1
        if op.kind == "sweep":
            self.counters["oracle_nodes"] += outcome.get("nodes", 0)
        if op.argv and op.argv[0] == "oracle" and os.path.exists(files.get("trace", "")):
            self.counters["trace_bytes"] += os.path.getsize(files["trace"])
            with open(files["trace"], encoding="utf-8") as fh:
                outcome["trace_lines"] = sum(1 for _ in fh)
        if "--csv" in op.argv and os.path.exists(files.get("csv", "")):
            self.counters["csv_bytes"] += os.path.getsize(files["csv"])
            with open(files["csv"], encoding="utf-8") as fh:
                outcome["csv_lines"] = sum(1 for _ in fh)
        for path in files.values():
            if os.path.exists(path):
                os.remove(path)

    def meta(self, op) -> dict:
        if op.inst is not None:
            dims = f"{op.inst['m']}x{op.inst['n']}"
        elif "m" in op.params:
            dims = f"{op.params['m']}x{op.params['n']}"
        else:
            dims = None
        samples = op.params.get("samples") if op.kind in ("cli", "estimate") else None
        return {"kind": op.kind, "slot": op.slot, "dims": dims, "samples": samples}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=ladder.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--src", required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    _import_program(args.src)
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)["values"]
    recorder = spanlib.Recorder() if args.trace else None
    runner = Runner(args.workload, args.seed, args.seconds, args.tmp, golden, recorder)
    passes = ladder.pass_count(args.workload, args.seconds)
    prepared = {p: runner.prepare(p) for p in range(min(SETUP_PASSES, passes))}
    print("READY", flush=True)
    # The parent scales set-up time by how fast the probe runs right after it.
    setup_probe = SpeedProbe(DEFAULT_PROBE)
    probe_s = statistics.median(setup_probe.measure() for _ in range(5))
    print(f"SCALE {REFERENCE_PROBE_S['_probe_python'] / probe_s!r}", flush=True)
    if args.setup_only:
        return 0

    if recorder is not None:
        recorder.install()
    ops_out: list[dict] = []
    parts = PROBE_PARTS.get(args.workload, DEFAULT_PROBE)
    probe = SpeedProbe(parts)
    reference_s = sum(REFERENCE_PROBE_S[part.__name__] for part in parts)
    spans_at: list[tuple[float, float]] = []
    pass_seconds: list[float] = []
    measured = 0.0
    for pass_index in range(passes):
        if measured > OVERRUN * args.seconds:
            raise SystemExit(f"ladder unfinished after {measured:.1f} s; it is sized for {args.seconds} s")
        ops = prepared.pop(pass_index, None) or runner.prepare(pass_index)
        runner.draw_matrices(ops)
        runner.start_pass(pass_index)
        this_pass = 0.0
        for op in ops:
            probe.poll()
            start = time.perf_counter()
            seconds, outcome = runner.run(op)
            spans_at.append((start, start + seconds))
            this_pass += seconds
            runner.observe(op, outcome)
            reason = checks.check(op, outcome, golden)
            runner.op_meta[op.id] = runner.meta(op)
            ops_out.append({"id": op.id, "slot": op.slot, "pass": pass_index, "ms": seconds * 1000.0,
                            "samples": runner.op_meta[op.id]["samples"], "failed": reason})
        pass_seconds.append(this_pass)
        measured += this_pass
    if recorder is not None:
        recorder.uninstall()

    probe.poll()
    for o, (start, end) in zip(ops_out, spans_at):
        o["ref_ms"] = o["ms"] * reference_s / probe.around(start, end)
    result = {
        "ops": ops_out,
        "pass_seconds": pass_seconds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "counters": runner.counters,
    }
    if recorder is not None:
        span_path = os.path.join(args.tmp, "spans.jsonl")
        recorder.write(span_path)
        result["absent"] = recorder.absent
        recorded = spanlib.read_spans(span_path)
        result["layers"] = spanlib.layer_metrics(recorded, runner.op_meta, runner.counters)
        result["breakdown"] = spanlib.slot_breakdown(recorded, runner.op_meta)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
