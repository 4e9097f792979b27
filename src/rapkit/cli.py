"""Batch command-line front end.

Every subcommand prints one JSON envelope on stdout:

    {"command": ..., "inputs": ..., "outputs": ..., "elapsed_ms": ...}

or, with ``--pretty``, a small human-readable table.  Exit codes:
0 success, 1 usage or parse error, 2 verification mismatch, 3 oracle
node budget or cover-profile subset budget exhausted.  Randomized
subcommands require an explicit ``--seed``; ``--threads`` falls back to
the RAP_THREADS environment variable, then to every usable CPU, and never
changes any output, only wall-clock time.
"""

from __future__ import annotations

import argparse
import functools
import importlib.resources
import json
import os
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, NoReturn

from .covers import cover_profile
from .formulas import (
    FormulaReport,
    cs_value,
    cover_formula_value,
    min_entry_usage_probability,
    parisi_value,
    row_inclusion_probability,
    triangle_integral,
)
from .model import (
    BudgetExceededError,
    RapError,
    RapInstance,
    insert_zero,
    load_instance,
    rational_to_json,
)
from .montecarlo import (
    estimate_entry_usage,
    estimate_min_entry_usage,
    estimate_row_usage,
    estimate_value,
)
from .oracle import DEFAULT_NODE_BUDGET, oracle_node_count

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_BUDGET = 3


@dataclass(frozen=True)
class CommandResult:
    """The envelope every subcommand emits."""

    command: str
    inputs: dict
    outputs: dict
    elapsed_ms: float

    def to_json_obj(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "elapsed_ms": self.elapsed_ms,
        }


def load_schema(command: str) -> dict:
    """The standalone JSON schema (Draft 2020-12) of one subcommand's envelope.

    The shipped ``schemas/envelopes.json`` writes the envelope frame and
    every shared shape once under ``$defs``, and each command's outputs
    under ``commands``, keyed by the command name, which is also the
    envelope's ``command``.  Raises KeyError for an unknown command.
    """
    ref = importlib.resources.files("rapkit.schemas").joinpath("envelopes.json")
    doc = json.loads(ref.read_text(encoding="utf-8"))
    return {
        "$schema": doc["$schema"],
        "$defs": doc["$defs"],
        "title": f"rapkit {command} result envelope",
        "$ref": "#/$defs/envelope",
        "properties": {"command": {"const": command}, "outputs": doc["commands"][command]},
    }


class _Timer:
    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed_ms = round((time.perf_counter() - self._start) * 1000.0, 3)


def _echo_instance(path: str, p: RapInstance) -> dict:
    return {
        "path": path,
        "m": p.m,
        "n": p.n,
        "k": p.k,
        "zeros": [list(z) for z in p.zeros],
    }


# ---------------------------------------------------------------------------
# Command implementations (pure: parsed arguments in, envelope and exit code out)
# ---------------------------------------------------------------------------


def cmd_value(args: argparse.Namespace) -> tuple[CommandResult, int]:
    """Exact expected optimal cost of the instance, by the cover formula."""
    p = load_instance(args.instance)
    with _Timer() as t:
        value = cover_formula_value(p)
    report = FormulaReport("cover-formula", p.k, p.m, p.n, value)
    inputs = _echo_instance(args.instance, p)
    return CommandResult("value", inputs, report.to_json_obj(), t.elapsed_ms), EXIT_OK


def cmd_profile(args: argparse.Namespace) -> tuple[CommandResult, int]:
    """Cover-coefficient table d_{i,j} of the instance."""
    p = load_instance(args.instance)
    with _Timer() as t:
        profile = cover_profile(p)
    outputs = {"m": p.m, "n": p.n, **profile.to_json_obj()}
    return CommandResult("profile", _echo_instance(args.instance, p), outputs, t.elapsed_ms), EXIT_OK


def cmd_verify(args: argparse.Namespace) -> tuple[CommandResult, int]:
    """Cross-check the cover formula against the oracle and optionally Monte Carlo.

    The exit code is 0 when all enabled checks agree, 2 on an exact
    mismatch, 3 when the oracle budget runs out.
    """
    if args.samples is not None and args.seed is None:
        raise ValueError("--samples requires an explicit --seed")
    p = load_instance(args.instance)
    inputs = _echo_instance(args.instance, p) | {
        "oracle": args.oracle,
        "budget": args.budget,
        "samples": args.samples,
        "seed": args.seed,
    }
    code = EXIT_OK
    with _Timer() as t:
        formula = cover_formula_value(p)
        outputs: dict = {
            "status": "ok",
            "formula": rational_to_json(formula),
            "oracle": None,
            "oracle_nodes": None,
            "delta": None,
            "agree": True,
            "montecarlo": None,
            "mc_within_3_sigma": None,
        }
        if args.oracle:
            try:
                oracle_value, nodes = oracle_node_count(p, budget=args.budget)
            except BudgetExceededError as exc:
                outputs["status"] = "budget-exhausted"
                outputs["oracle_nodes"] = exc.nodes
                outputs["agree"] = False
                code = EXIT_BUDGET
            else:
                outputs["oracle"] = rational_to_json(oracle_value)
                outputs["oracle_nodes"] = nodes
                outputs["delta"] = rational_to_json(formula - oracle_value)
                if oracle_value != formula:
                    outputs["status"] = "mismatch"
                    outputs["agree"] = False
                    code = EXIT_MISMATCH
        if args.samples is not None and code == EXIT_OK:
            est = estimate_value(p, args.samples, args.seed, threads=args.threads, target=formula)
            outputs["montecarlo"] = est.to_json_obj()
            outputs["mc_within_3_sigma"] = est.within_3_sigma()
    return CommandResult("verify", inputs, outputs, t.elapsed_ms), code


def cmd_parisi(args: argparse.Namespace) -> tuple[CommandResult, int]:
    """Exact expected cost of the zero-free k-by-k instance."""
    with _Timer() as t:
        value = parisi_value(args.k)
    report = FormulaReport("parisi", args.k, args.k, args.k, value)
    return CommandResult("parisi", {"k": args.k}, report.to_json_obj(), t.elapsed_ms), EXIT_OK


def cmd_cs(args: argparse.Namespace) -> tuple[CommandResult, int]:
    """Exact expected cost of the zero-free m-by-n instance with k assigned."""
    k, m, n = args.k, args.m, args.n
    with _Timer() as t:
        value = cs_value(k, m, n)
    report = FormulaReport("coppersmith-sorkin", k, m, n, value)
    inputs = {"k": k, "m": m, "n": n}
    return CommandResult("cs", inputs, report.to_json_obj(), t.elapsed_ms), EXIT_OK


def cmd_rowprob(args: argparse.Namespace) -> tuple[CommandResult, int]:
    """Exact probability that the optimal assignment uses zero-free row r."""
    p = load_instance(args.instance)
    with _Timer() as t:
        value = row_inclusion_probability(p, args.row)
    report = FormulaReport("row-inclusion", p.k, p.m, p.n, value)
    outputs = {"row": args.row, **report.to_json_obj()}
    inputs = _echo_instance(args.instance, p) | {"row": args.row}
    return CommandResult("rowprob", inputs, outputs, t.elapsed_ms), EXIT_OK


def cmd_minprob(args: argparse.Namespace) -> tuple[CommandResult, int]:
    """Exact probability that the smallest entry of a zero-free instance is used."""
    k, m, n = args.k, args.m, args.n
    with _Timer() as t:
        value = min_entry_usage_probability(k, m, n)
    report = FormulaReport("min-entry-usage", k, m, n, value)
    inputs = {"k": k, "m": m, "n": n}
    return CommandResult("minprob", inputs, report.to_json_obj(), t.elapsed_ms), EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> tuple[CommandResult, int]:
    """Monte Carlo estimate of a cost or usage statistic, with exact target.

    The arguments are checked and the exact target computed before the
    CSV file is opened, so a command that fails there leaves no file.
    """
    p = load_instance(args.instance)
    what, row, pos = args.what, args.row, args.pos
    with _Timer() as t:
        if what == "value":
            target = cover_formula_value(p)
            estimate = functools.partial(estimate_value, p)
        elif what == "row":
            if row is None:
                raise ValueError("--row is required with --what row")
            target = row_inclusion_probability(p, row)
            estimate = functools.partial(estimate_row_usage, p, row)
        elif what == "entry":
            if pos is None:
                raise ValueError("--pos is required with --what entry")
            target = cover_formula_value(p) - cover_formula_value(insert_zero(p, pos))
            estimate = functools.partial(estimate_entry_usage, p, pos)
        elif what == "min":
            if p.zeros:
                raise ValueError("--what min requires an instance without zeros")
            target = min_entry_usage_probability(p.k, p.m, p.n)
            estimate = functools.partial(estimate_min_entry_usage, p.k, p.m, p.n)
        else:
            raise ValueError(f"unknown statistic {what!r}")
        with open(args.csv, "w", encoding="utf-8") if args.csv is not None else nullcontext() as csv_out:
            est = estimate(args.samples, args.seed, threads=args.threads, csv_out=csv_out, target=target)
    inputs = _echo_instance(args.instance, p) | {
        "what": what,
        "samples": args.samples,
        "seed": args.seed,
        "row": row,
        "pos": pos,
        "csv": args.csv,
    }
    outputs = {"what": what, **est.to_json_obj(), "within_3_sigma": est.within_3_sigma()}
    return CommandResult("simulate", inputs, outputs, t.elapsed_ms), EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> tuple[CommandResult, int]:
    """Exact expected cost by symbolic conditioning, with node accounting."""
    p = load_instance(args.instance)
    inputs = _echo_instance(args.instance, p) | {"budget": args.budget, "trace": args.trace}
    with open(args.trace, "w", encoding="utf-8") if args.trace is not None else nullcontext() as trace:
        with _Timer() as t:
            try:
                value, nodes = oracle_node_count(p, budget=args.budget, trace=trace)
                outputs = {"status": "ok", "value": rational_to_json(value), "nodes": nodes}
                code = EXIT_OK
            except BudgetExceededError as exc:
                outputs = {"status": "budget-exhausted", "value": None, "nodes": exc.nodes}
                code = EXIT_BUDGET
    return CommandResult("oracle", inputs, outputs, t.elapsed_ms), code


def cmd_integral(args: argparse.Namespace) -> tuple[CommandResult, int]:
    """Numeric value of the limiting triangular-support integral."""
    alpha, beta = args.alpha, args.beta
    with _Timer() as t:
        value = triangle_integral(alpha, beta)
    outputs = {"alpha": alpha, "beta": beta, "value": value}
    return CommandResult("integral", {"alpha": alpha, "beta": beta}, outputs, t.elapsed_ms), EXIT_OK


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _fmt_scalar(value) -> str:
    if isinstance(value, dict) and {"num", "den", "approx"} <= value.keys():
        return f"{value['num']}/{value['den']} ({value['approx']})"
    return json.dumps(value) if isinstance(value, (dict, list)) else str(value)


def _render_pretty(result: CommandResult, out: IO[str]) -> None:
    out.write(f"{result.command}\n")
    for key, value in result.outputs.items():
        if key == "d" and isinstance(value, list):
            out.write("  d[i,j]:\n")
            for i, j, count in value:
                out.write(f"    {i:>3} {j:>3}  {count}\n")
        else:
            out.write(f"  {key}: {_fmt_scalar(value)}\n")
    out.write(f"  elapsed_ms: {result.elapsed_ms}\n")


def _emit(result: CommandResult, pretty: bool, out: IO[str]) -> None:
    if pretty:
        _render_pretty(result, out)
    else:
        out.write(json.dumps(result.to_json_obj()) + "\n")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; remap to 1."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _default_threads(parser: argparse.ArgumentParser) -> int | None:
    """RAP_THREADS, or None (every usable CPU) when it is unset."""
    raw = os.environ.get("RAP_THREADS")
    if raw is None:
        return None
    try:
        return _positive_int(raw)
    except (ValueError, argparse.ArgumentTypeError):
        parser.error(f"RAP_THREADS: expected a positive integer, got {raw!r}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _sample_count(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 samples for a standard error, got {text!r}")
    return value


def _seed_int(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must fit in 64 bits, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    style = common.add_mutually_exclusive_group()
    style.add_argument("--json", action="store_true", default=True, help="JSON envelope output (default)")
    style.add_argument("--pretty", action="store_true", help="human-readable tables instead of JSON")

    parser = _Parser(prog="rapkit", description="Exact and simulated random-assignment values.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("value", parents=[common], help="expected optimal cost by the cover formula")
    sp.set_defaults(run=cmd_value)
    sp.add_argument("instance", help="instance JSON file")

    sp = sub.add_parser("profile", parents=[common], help="cover-coefficient table of an instance")
    sp.set_defaults(run=cmd_profile)
    sp.add_argument("instance", help="instance JSON file")

    sp = sub.add_parser("verify", parents=[common], help="cross-check formula, oracle, Monte Carlo")
    sp.set_defaults(run=cmd_verify)
    sp.add_argument("instance", help="instance JSON file")
    sp.add_argument("--oracle", action=argparse.BooleanOptionalAction, default=True,
                    help="run the symbolic oracle (default on)")
    sp.add_argument("--budget", type=_positive_int, default=DEFAULT_NODE_BUDGET,
                    help="oracle recursion-node budget")
    sp.add_argument("--samples", type=_sample_count, help="add a Monte Carlo check with this many samples")
    sp.add_argument("--seed", type=_seed_int, help="seed for the Monte Carlo check")
    sp.add_argument("--threads", type=_positive_int,
                    help="cap on sampling threads (default RAP_THREADS, else every usable CPU); "
                         "small matrices always run on one")

    sp = sub.add_parser("parisi", parents=[common], help="zero-free k-by-k expected cost")
    sp.set_defaults(run=cmd_parisi)
    sp.add_argument("--k", type=_positive_int, required=True)

    sp = sub.add_parser("cs", parents=[common], help="zero-free m-by-n k-assignment expected cost")
    sp.set_defaults(run=cmd_cs)
    sp.add_argument("--k", type=_positive_int, required=True)
    sp.add_argument("--m", type=_positive_int, required=True)
    sp.add_argument("--n", type=_positive_int, required=True)

    sp = sub.add_parser("rowprob", parents=[common], help="probability a zero-free row is used")
    sp.set_defaults(run=cmd_rowprob)
    sp.add_argument("instance", help="instance JSON file")
    sp.add_argument("--row", type=int, required=True)

    sp = sub.add_parser("minprob", parents=[common], help="probability the smallest entry is used")
    sp.set_defaults(run=cmd_minprob)
    sp.add_argument("--k", type=_positive_int, required=True)
    sp.add_argument("--m", type=_positive_int, required=True)
    sp.add_argument("--n", type=_positive_int, required=True)

    sp = sub.add_parser("simulate", parents=[common], help="Monte Carlo estimate with exact target")
    sp.set_defaults(run=cmd_simulate)
    sp.add_argument("instance", help="instance JSON file")
    sp.add_argument("--what", choices=("value", "row", "entry", "min"), default="value")
    sp.add_argument("--samples", type=_sample_count, required=True)
    sp.add_argument("--seed", type=_seed_int, required=True,
                    help="explicit 64-bit seed (no wall-clock seeding)")
    sp.add_argument("--row", type=int, help="row index for --what row")
    sp.add_argument("--pos", type=int, nargs=2, metavar=("R", "C"), help="position for --what entry")
    sp.add_argument("--csv", help="write per-sample statistics to this CSV file")
    sp.add_argument("--threads", type=_positive_int,
                    help="cap on sampling threads (default RAP_THREADS, else every usable CPU); "
                         "small matrices always run on one")

    sp = sub.add_parser("oracle", parents=[common], help="exact value by symbolic conditioning")
    sp.set_defaults(run=cmd_oracle)
    sp.add_argument("instance", help="instance JSON file")
    sp.add_argument("--budget", type=_positive_int, default=DEFAULT_NODE_BUDGET)
    sp.add_argument("--trace", help="write one JSON line per branching node to this file")

    sp = sub.add_parser("integral", parents=[common], help="limiting triangular-support integral")
    sp.set_defaults(run=cmd_integral)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for the process.

    Its defaults read no environment, so reuse is safe: ``--threads``
    defaults to None and ``main`` reads RAP_THREADS at each call.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "samples", None) is not None and args.threads is None:
        args.threads = _default_threads(parser)
    try:
        result, code = args.run(args)
    except BudgetExceededError as exc:  # the oracle's is reported in its envelope
        print(f"rapkit: error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (RapError, ValueError, IndexError, ArithmeticError, OSError) as exc:
        print(f"rapkit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(result, args.pretty, sys.stdout)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
