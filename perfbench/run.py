"""Run one workload of the rapkit benchmark and print its metrics.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout (the directory holding ``src/rapkit``).
Workloads: exact, oracle, sweep, simulate, solve (see DESIGN.md).

With ``--trace 0`` it measures set-up several times and the ladder once,
untraced, and reports the end-to-end metrics.  With ``--trace 1`` it runs
the ladder's first pass untraced, then the whole run with spans recorded
at every module boundary, and reports the per-layer metrics.

Every process it starts is a fresh interpreter with the numeric libraries
pinned to one thread and ``RAP_THREADS`` unset; they run one at a time.
Instance files, traces and CSVs go to a temporary directory inside the
checkout, removed at the end.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ladder  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402

SETUPS = 3  # set-up is measured this many times per run; the median is reported
TIME_LIMIT = 170.0  # seconds for all of a run's workers together
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark itself could not run."""


def child_env(root: str, tmp: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "RAP_THREADS" and not k.startswith("PYTHON")}
    env.update(PINNED)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["TMPDIR"] = tmp
    return env


def start_worker(root: str, tmp: str, args: list[str], deadline: float) -> tuple[dict | None, float]:
    """Run one worker to completion.

    Returns its result and its set-up time: seconds from spawn to READY,
    scaled by the speed probe the worker runs right after set-up.
    """
    os.makedirs(tmp, exist_ok=True)
    result_path = os.path.join(tmp, "result.json")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), *args,
            "--src", os.path.join(root, "src"), "--tmp", tmp, "--result", result_path]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=root, env=child_env(root, tmp), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        second = proc.stdout.readline()
        try:
            _, err = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("worker timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or not second.startswith("SCALE ") or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): {(first + second + err).strip()[-2000:]}")
    setup = ready * float(second.split()[1])
    if "--setup-only" in args:
        return None, setup
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh), setup


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) of the highest percentile with at least 10 ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def slot_costed(ops: list[dict]) -> list[float]:
    """Each op's reference latency replaced by its slot's median across passes.

    A slot's ops do the same work in every pass (relabelled instances, or
    zero-free variants of about the same cost), so the median keeps a run's
    figures from following a short slow spell of the machine.  A slot
    answered once, such as every sweep op, keeps its own latency.
    """
    by_slot: dict[str, list[float]] = {}
    for o in ops:
        by_slot.setdefault(o["slot"], []).append(o["ref_ms"])
    medians = {slot: statistics.median(ms) for slot, ms in by_slot.items()}
    return [medians[o["slot"]] for o in ops]


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, and extra facts for the summary."""
    ops = result["ops"]
    measured = [o["ms"] for o in ops]
    costed = slot_costed(ops)
    tail_ms, tail_pct = tail(costed)
    mc = [o for o in ops if o["samples"]]
    mc_seconds = sum(o["ms"] for o in mc) / 1000.0
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": sum(costed) / 1000.0,
        "op_p50_ms": statistics.median_low(costed),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    failed = sum(1 for o in ops if o["failed"])
    extra = {
        "tail_percentile": tail_pct,
        "ops": len(ops),
        "passes": len(result["pass_seconds"]),
        "measured_run_s": sum(measured) / 1000.0,
        "measured_p50_ms": statistics.median_low(measured),
        "measured_tail_ms": tail(measured)[0],
        "failed_frac": failed / len(ops),
        "samples_per_s": sum(o["samples"] for o in mc) / mc_seconds if mc_seconds else None,
    }
    return metrics, extra


def summarize(workload: str, metrics: dict, units: dict, extra: dict, result: dict) -> None:
    print(f"rapkit benchmark: workload {workload}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    for name, value in extra.items():
        if value is not None:
            print(f"  {name:<36} {value:>14.6g}")
    for o in result["ops"]:
        if o["failed"]:
            print(f"  FAILED {o['id']}: {o['failed']}")
    for name in result.get("absent", ()):
        print(f"  absent (not traced): {name}")
    for slot, shares in sorted(result.get("breakdown", {}).items()):
        if not slot.startswith("w"):  # the sweep's thousands of slots, one pattern each
            print(f"  self time of {slot}: " + ", ".join(f"{name} {100 * share:.0f}%" for name, share in shares))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rapkit benchmark")
    parser.add_argument("--workload", choices=ladder.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rapkit", "__init__.py")):
        print("run.py: no src/rapkit here; run it from the root of a rapkit checkout", file=sys.stderr)
        return 2
    tmp_root = os.path.join(root, ".perfbench_tmp", f"{os.getpid()}")
    deadline = time.perf_counter() + TIME_LIMIT
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        if args.trace:
            plain, _ = start_worker(root, os.path.join(tmp_root, "plain"), common, deadline)
            result, _ = start_worker(root, os.path.join(tmp_root, "traced"), common + ["--trace", "1"], deadline)
            metrics = dict(result["layers"])
            plain_s = sum(o["ref_ms"] for o in plain["ops"]) / 1000.0
            traced_s = sum(o["ref_ms"] for o in result["ops"]) / 1000.0
            metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
            units = LAYER_METRICS
            extra = {"untraced_run_s": plain_s, "traced_run_s": traced_s}
            runs = [plain, result]
        else:
            setups = []
            for i in range(SETUPS - 1):
                _, ready = start_worker(root, os.path.join(tmp_root, f"setup{i}"), common + ["--setup-only"], deadline)
                setups.append(ready)
            result, ready = start_worker(root, os.path.join(tmp_root, "run"), common, deadline)
            setups.append(ready)
            metrics, extra = end_to_end(result, setups)
            units = E2E_UNITS
            runs = [result]
    except (BenchError, OSError, KeyError, ValueError, ZeroDivisionError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp_root))
        except OSError:
            pass

    attempted = sum(len(r["ops"]) for r in runs)
    failed = sum(1 for r in runs for o in r["ops"] if o["failed"])
    summarize(args.workload, metrics, units, extra, result)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
