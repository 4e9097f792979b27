"""Batch command-line front end.

Every subcommand prints one JSON envelope on stdout:

    {"command": ..., "inputs": ..., "outputs": ..., "elapsed_ms": ...}

or, with ``--pretty``, a small human-readable table.  ``main`` loads the
instance file of the commands that take one and reads the clock; each
``cmd_*`` function takes the parsed arguments and that instance (None for
the commands without one) and returns plain values: the ``inputs`` and
``outputs`` dicts and the exit code.  ``elapsed_ms`` is the time of the
command call, so it leaves out argument parsing, loading the instance file
and writing the envelope.  ``main`` adds the command name and the time
and hands that one envelope dict to ``_emit``, the only code that writes
it.  Exit codes:
0 success, 1 usage or parse error, 2 verification mismatch, 3 oracle
node budget or cover-profile state budget exhausted.  Randomized
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
from fractions import Fraction
from typing import IO, NoReturn

from .covers import cover_profile
from .formulas import (
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

# what every cmd_* returns: inputs, outputs, exit code
Result = tuple[dict, dict, int]


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


def _elapsed_ms(start: float) -> float:
    """Milliseconds since ``start``, a ``time.perf_counter()`` reading, to the microsecond."""
    return round((time.perf_counter() - start) * 1000.0, 3)


def _echo_instance(args: argparse.Namespace, p: RapInstance, *names: str) -> dict:
    """The instance file and the instance, then the arguments ``names``, in that order."""
    echo = {"path": args.instance, "m": p.m, "n": p.n, "k": p.k, "zeros": [list(z) for z in p.zeros]}
    for name in names:
        echo[name] = getattr(args, name)
    return echo


def _formula(method: str, k: int, m: int, n: int, value: Fraction) -> dict:
    """The outputs of an exact formula command: the value and what it was computed for."""
    return {"method": method, "k": k, "m": m, "n": n, "value": rational_to_json(value)}


# ---------------------------------------------------------------------------
# Command implementations (parsed arguments and instance in, envelope parts and exit code out)
# ---------------------------------------------------------------------------


def cmd_value(args: argparse.Namespace, p: RapInstance) -> Result:
    """Exact expected optimal cost of the instance, by the cover formula."""
    return _echo_instance(args, p), _formula("cover-formula", p.k, p.m, p.n, cover_formula_value(p)), EXIT_OK


def cmd_profile(args: argparse.Namespace, p: RapInstance) -> Result:
    """Cover-coefficient table d_{i,j} of the instance."""
    return _echo_instance(args, p), {"m": p.m, "n": p.n, **cover_profile(p).to_json_obj()}, EXIT_OK


def cmd_verify(args: argparse.Namespace, p: RapInstance) -> Result:
    """Cross-check the cover formula against the oracle and optionally Monte Carlo.

    The exit code is 0 when all enabled checks agree, 2 on an exact
    mismatch, 3 when the oracle budget runs out.
    """
    if args.samples is not None and args.seed is None:
        raise ValueError("--samples requires an explicit --seed")
    code = EXIT_OK
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
    return _echo_instance(args, p, "oracle", "budget", "samples", "seed"), outputs, code


def cmd_parisi(args: argparse.Namespace, p: None) -> Result:
    """Exact expected cost of the zero-free k-by-k instance."""
    k = args.k
    return {"k": k}, _formula("parisi", k, k, k, parisi_value(k)), EXIT_OK


def cmd_cs(args: argparse.Namespace, p: None) -> Result:
    """Exact expected cost of the zero-free m-by-n instance with k assigned."""
    k, m, n = args.k, args.m, args.n
    return {"k": k, "m": m, "n": n}, _formula("coppersmith-sorkin", k, m, n, cs_value(k, m, n)), EXIT_OK


def cmd_rowprob(args: argparse.Namespace, p: RapInstance) -> Result:
    """Exact probability that the optimal assignment uses zero-free row r."""
    value = row_inclusion_probability(p, args.row)
    outputs = {"row": args.row, **_formula("row-inclusion", p.k, p.m, p.n, value)}
    return _echo_instance(args, p, "row"), outputs, EXIT_OK


def cmd_minprob(args: argparse.Namespace, p: None) -> Result:
    """Exact probability that the smallest entry of a zero-free instance is used."""
    k, m, n = args.k, args.m, args.n
    value = min_entry_usage_probability(k, m, n)
    return {"k": k, "m": m, "n": n}, _formula("min-entry-usage", k, m, n, value), EXIT_OK


def cmd_simulate(args: argparse.Namespace, p: RapInstance) -> Result:
    """Monte Carlo estimate of a cost or usage statistic, with exact target.

    The arguments are checked and the exact target computed before the
    CSV file is opened, so a command that fails there leaves no file.
    """
    what, row, pos = args.what, args.row, args.pos
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
    else:  # "min", the last of --what's choices
        if p.zeros:
            raise ValueError("--what min requires an instance without zeros")
        target = min_entry_usage_probability(p.k, p.m, p.n)
        estimate = functools.partial(estimate_min_entry_usage, p.k, p.m, p.n)
    with open(args.csv, "w", encoding="utf-8") if args.csv is not None else nullcontext() as csv_out:
        est = estimate(args.samples, args.seed, threads=args.threads, csv_out=csv_out, target=target)
    inputs = _echo_instance(args, p, "what", "samples", "seed", "row", "pos", "csv")
    return inputs, {"what": what, **est.to_json_obj(), "within_3_sigma": est.within_3_sigma()}, EXIT_OK


def cmd_oracle(args: argparse.Namespace, p: RapInstance) -> Result:
    """Exact expected cost by symbolic conditioning, with node accounting."""
    with open(args.trace, "w", encoding="utf-8") if args.trace is not None else nullcontext() as trace:
        try:
            value, nodes = oracle_node_count(p, budget=args.budget, trace=trace)
            outputs, code = {"status": "ok", "value": rational_to_json(value), "nodes": nodes}, EXIT_OK
        except BudgetExceededError as exc:
            outputs, code = {"status": "budget-exhausted", "value": None, "nodes": exc.nodes}, EXIT_BUDGET
    return _echo_instance(args, p, "budget", "trace"), outputs, code


def cmd_integral(args: argparse.Namespace, p: None) -> Result:
    """Numeric value of the limiting triangular-support integral."""
    inputs = {"alpha": args.alpha, "beta": args.beta}
    return inputs, {**inputs, "value": triangle_integral(args.alpha, args.beta)}, EXIT_OK


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _fmt_scalar(value) -> str:
    if isinstance(value, dict) and {"num", "den", "approx"} <= value.keys():
        return f"{value['num']}/{value['den']} ({value['approx']})"
    return json.dumps(value) if isinstance(value, (dict, list)) else str(value)


def _emit(envelope: dict, pretty: bool, out: IO[str]) -> None:
    """Write the envelope as one JSON line, or as the ``--pretty`` table of its outputs."""
    if not pretty:
        out.write(json.dumps(envelope) + "\n")
        return
    out.write(f"{envelope['command']}\n")
    for key, value in envelope["outputs"].items():
        if key == "d" and isinstance(value, list):
            out.write("  d[i,j]:\n")
            for i, j, count in value:
                out.write(f"    {i:>3} {j:>3}  {count}\n")
        else:
            out.write(f"  {key}: {_fmt_scalar(value)}\n")
    out.write(f"  elapsed_ms: {envelope['elapsed_ms']}\n")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; remap to 1."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _integer(low: int | None = None, high: int | None = None, out_of_range: str = ""):
    """The argparse type of an integer argument in [low, high), either end
    open when None.  A non-integer reads "expected an integer, got 'abc'";
    an integer out of range reads ``out_of_range``, then what was given."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if (low is not None and value < low) or (high is not None and value >= high):
            raise argparse.ArgumentTypeError(f"{out_of_range}, got {text!r}")
        return value

    return parse


_POSITIVE = _integer(1, out_of_range="expected a positive integer")
_SAMPLES = _integer(2, out_of_range="need at least 2 samples for a standard error")
_SEED = _integer(0, 2**64, "seed must fit in 64 bits")
_INDEX = _integer()  # checked against the instance later


def _add_sizes(sp: argparse.ArgumentParser, *names: str) -> None:
    """The required dimensions ``names`` of a zero-free instance, among k, m and n."""
    for name in names:
        sp.add_argument(f"--{name}", type=_POSITIVE, required=True)


def _add_threads(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--threads", type=_POSITIVE,
                    help="cap on sampling threads (default RAP_THREADS, else every usable CPU); "
                         "small matrices always run on one")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="human-readable tables instead of JSON")

    parser = _Parser(prog="rapkit", description="Exact and simulated random-assignment values.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name: str, run, help: str, instance: bool = True) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, parents=[common], help=help)
        sp.set_defaults(run=run, instance=None)
        if instance:
            sp.add_argument("instance", help="instance JSON file")
        return sp

    command("value", cmd_value, "expected optimal cost by the cover formula")

    command("profile", cmd_profile, "cover-coefficient table of an instance")

    sp = command("verify", cmd_verify, "cross-check formula, oracle, Monte Carlo")
    sp.add_argument("--oracle", action=argparse.BooleanOptionalAction, default=True,
                    help="run the symbolic oracle (default on)")
    sp.add_argument("--budget", type=_POSITIVE, default=DEFAULT_NODE_BUDGET,
                    help="oracle recursion-node budget")
    sp.add_argument("--samples", type=_SAMPLES, help="add a Monte Carlo check with this many samples")
    sp.add_argument("--seed", type=_SEED, help="seed for the Monte Carlo check")
    _add_threads(sp)

    sp = command("parisi", cmd_parisi, "zero-free k-by-k expected cost", instance=False)
    _add_sizes(sp, "k")

    sp = command("cs", cmd_cs, "zero-free m-by-n k-assignment expected cost", instance=False)
    _add_sizes(sp, "k", "m", "n")

    sp = command("rowprob", cmd_rowprob, "probability a zero-free row is used")
    sp.add_argument("--row", type=_INDEX, required=True)

    sp = command("minprob", cmd_minprob, "probability the smallest entry is used", instance=False)
    _add_sizes(sp, "k", "m", "n")

    sp = command("simulate", cmd_simulate, "Monte Carlo estimate with exact target")
    sp.add_argument("--what", choices=("value", "row", "entry", "min"), default="value")
    sp.add_argument("--samples", type=_SAMPLES, required=True)
    sp.add_argument("--seed", type=_SEED, required=True,
                    help="explicit 64-bit seed (no wall-clock seeding)")
    sp.add_argument("--row", type=_INDEX, help="row index for --what row")
    sp.add_argument("--pos", type=_INDEX, nargs=2, metavar=("R", "C"), help="position for --what entry")
    sp.add_argument("--csv", help="write per-sample statistics to this CSV file")
    _add_threads(sp)

    sp = command("oracle", cmd_oracle, "exact value by symbolic conditioning")
    sp.add_argument("--budget", type=_POSITIVE, default=DEFAULT_NODE_BUDGET)
    sp.add_argument("--trace", help="write one JSON line per branching node to this file")

    sp = command("integral", cmd_integral, "limiting triangular-support integral", instance=False)
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
        # RAP_THREADS, or None (every usable CPU) when it is unset
        raw = os.environ.get("RAP_THREADS")
        if raw is not None:
            try:
                args.threads = _POSITIVE(raw)
            except argparse.ArgumentTypeError:
                parser.error(f"RAP_THREADS: expected a positive integer, got {raw!r}")
    try:
        p = load_instance(args.instance) if args.instance is not None else None
        start = time.perf_counter()
        inputs, outputs, code = args.run(args, p)
        elapsed_ms = _elapsed_ms(start)
    except BudgetExceededError as exc:  # the oracle's is reported in its envelope
        print(f"rapkit: error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (RapError, ValueError, IndexError, ArithmeticError, OSError) as exc:
        print(f"rapkit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit({"command": args.command, "inputs": inputs, "outputs": outputs, "elapsed_ms": elapsed_ms},
          args.pretty, sys.stdout)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
