"""Correctness checks for every op, run outside the timed interval.

Each check returns ``None`` when the op's output is right and a short
reason otherwise.  Exact answers are compared with the golden values
recorded in ``golden.json``; where an independent closed form exists it
is asserted as well, computed here without calling the program.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

MC_SIGMAS = 5  # Monte Carlo estimates must land within this many standard errors
SOLVE_RTOL = 1e-9


# ---------------------------------------------------------------------------
# Independent closed forms (no program code)
# ---------------------------------------------------------------------------


def parisi(k: int) -> Fraction:
    return sum((Fraction(1, d * d) for d in range(1, k + 1)), Fraction(0))


def coppersmith_sorkin(k: int, m: int, n: int) -> Fraction:
    return sum(
        (Fraction(1, (m - i) * (n - j)) for i in range(k) for j in range(k - i)), Fraction(0)
    )


def zero_free_profile(k: int, m: int, n: int) -> list[list]:
    """Without zeros every line set of fewer than k lines is a partial cover."""
    return [
        [i, j, str(math.comb(m, i) * math.comb(n, j))]
        for i in range(min(m, k - 1) + 1)
        for j in range(min(n, k - 1 - i) + 1)
    ]


def zero_free_value(inst: dict) -> Fraction:
    m, n, k = inst["m"], inst["n"], inst["k"]
    return parisi(k) if m == n == k else coppersmith_sorkin(k, m, n)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def wire(doc) -> Fraction:
    """A {"num", "den", ...} rational from an envelope."""
    if not isinstance(doc, dict):
        raise ValueError(f"not a rational: {doc!r}")
    return Fraction(int(doc["num"]), int(doc["den"]))


def _envelope(outcome: dict, command: str) -> dict:
    env = json.loads(outcome["stdout"].strip().splitlines()[-1])
    if env.get("command") != command:
        raise ValueError(f"envelope command {env.get('command')!r}, expected {command!r}")
    return env["outputs"]


def mc_reason(mean: float, stderr: float, target: Fraction) -> str | None:
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        return "non-finite estimate"
    if abs(mean - float(target)) > MC_SIGMAS * stderr:
        return f"estimate {mean} is more than {MC_SIGMAS} standard errors ({stderr}) from {float(target)}"
    return None


# ---------------------------------------------------------------------------
# Per-kind checks
# ---------------------------------------------------------------------------


def check(op, outcome: dict, golden: dict) -> str | None:
    """Why the op's outcome is wrong, or None when it is right."""
    if outcome.get("error"):
        return f"raised {outcome['error']}"
    try:
        if op.kind == "cli":
            return _check_cli(op, outcome, golden)
        if op.kind == "sweep":
            return _check_sweep(op, outcome, golden)
        if op.kind == "estimate":
            return _check_estimate(op, outcome, golden)
        if op.kind == "solve":
            return _check_solve(op, outcome)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"unreadable output: {exc!r}"
    return f"unknown op kind {op.kind!r}"


def _check_cli(op, outcome: dict, golden: dict) -> str | None:
    if outcome["exit"] != 0:
        return f"exit code {outcome['exit']}"
    g = golden[op.base]
    inst = op.inst
    zero_free = not inst["zeros"]
    command = op.argv[0]
    out = _envelope(outcome, command)
    if command == "value":
        got = wire(out["value"])
        if got != Fraction(g["value"]):
            return f"value {got} != golden {g['value']}"
        if zero_free and got != zero_free_value(inst):
            return f"value {got} != closed form {zero_free_value(inst)}"
    elif command == "profile":
        if out["d"] != g["profile"]:
            return "profile table differs from golden"
        if zero_free and out["d"] != zero_free_profile(inst["k"], inst["m"], inst["n"]):
            return "profile table differs from the zero-free closed form"
    elif command == "rowprob":
        got = wire(out["value"])
        want = Fraction(g["rows"][str(op.params["base_row"])])
        if got != want:
            return f"row probability {got} != golden {want}"
        if zero_free and got != Fraction(inst["k"], inst["m"]):
            return f"row probability {got} != k/m"
    elif command == "verify":
        if out["status"] != "ok" or not out["agree"]:
            return f"verify status {out['status']}"
        formula, oracle = wire(out["formula"]), wire(out["oracle"])
        if formula != oracle or formula != Fraction(g["value"]):
            return f"formula {formula}, oracle {oracle}, golden {g['value']}"
        if zero_free and formula != zero_free_value(inst):
            return f"value {formula} != closed form {zero_free_value(inst)}"
    elif command == "oracle":
        if out["status"] != "ok":
            return f"oracle status {out['status']}"
        got = wire(out["value"])
        if got != Fraction(g["value"]):
            return f"oracle value {got} != golden {g['value']}"
        if outcome.get("trace_lines") != out["nodes"]:
            return f"trace has {outcome.get('trace_lines')} lines for {out['nodes']} nodes"
    elif command == "simulate":
        target = wire(out["target"])
        if target != Fraction(g["target"]):
            return f"target {target} != golden {g['target']}"
        if out["samples"] != op.params["samples"]:
            return f"{out['samples']} samples, asked for {op.params['samples']}"
        reason = mc_reason(out["mean"], out["stderr"], target)
        if reason:
            return reason
        if "csv_lines" in outcome and outcome["csv_lines"] != op.params["samples"] + 1:
            return f"CSV has {outcome['csv_lines']} lines, expected {op.params['samples'] + 1}"
    else:
        return f"unchecked command {command!r}"
    return None


def _check_sweep(op, outcome: dict, golden: dict) -> str | None:
    formula, oracle = outcome["result"]
    if formula != oracle:
        return f"formula {formula} != oracle {oracle}"
    if op.base is not None and formula != Fraction(golden[op.base]["value"]):
        return f"value {formula} != golden {golden[op.base]['value']}"
    return None


def _check_estimate(op, outcome: dict, golden: dict) -> str | None:
    report = outcome["result"]
    want = Fraction(golden[op.base]["target"])
    if report.target != want:
        return f"target {report.target} != golden {want}"
    if report.samples != op.params["samples"]:
        return f"{report.samples} samples, asked for {op.params['samples']}"
    return mc_reason(report.mean, report.stderr, want)


def _check_solve(op, outcome: dict) -> str | None:
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    result = outcome["result"]
    matrix = outcome["matrix"]
    k = op.params["k"]
    a = np.array([[float(x) for x in row] for row in matrix], dtype=float)
    m, n = a.shape
    if len(result.positions) != k:
        return f"{len(result.positions)} positions for k={k}"
    if len({r for r, _ in result.positions}) != k or len({c for _, c in result.positions}) != k:
        return "positions are not independent"
    if abs(sum(a[r, c] for r, c in result.positions) - float(result.cost)) > SOLVE_RTOL * max(1.0, abs(float(result.cost))):
        return "reported cost is not the sum of the chosen entries"
    padded = np.concatenate([a, np.zeros((m, m - k))], axis=1) if k < m else a
    rows, cols = linear_sum_assignment(padded)
    ref = float(sum(a[r, c] for r, c in zip(rows, cols) if c < n))
    if abs(float(result.cost) - ref) > SOLVE_RTOL * max(1.0, abs(ref)):
        return f"cost {result.cost} != scipy {ref}"
    if "matrix" in op.params:  # tie-heavy integers: lexicographic optimum
        from rapkit.solver import brute_force_k_assignment

        brute = brute_force_k_assignment(matrix, k)
        if tuple(result.positions) != tuple(brute.positions) or result.cost != brute.cost:
            return f"positions {result.positions} != brute force {brute.positions}"
    return None
