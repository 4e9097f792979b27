"""Command-line interface: envelopes, schemas, golden values, exit codes."""

import argparse
import copy
import hashlib
import io
import json
import os
import time
from collections import Counter

import jsonschema
import pytest

import rapkit.cli as cli
from rapkit.cli import EXIT_BUDGET, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, load_schema
from rapkit.formulas import parisi_value
from rapkit.model import rational_from_json


@pytest.fixture()
def inst_dir(tmp_path):
    """Instance files used across the CLI tests."""
    files = {}

    def put(name, m, n, k, zeros=()):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(
            {"m": m, "n": n, "k": k, "zeros": [list(z) for z in zeros]}))
        files[name] = str(path)

    put("full3", 3, 3, 3)
    put("rect32", 3, 3, 2, [(0, 0)])
    put("two", 2, 2, 2)
    put("indep", 3, 3, 2, [(0, 0), (1, 1)])
    (tmp_path / "broken.json").write_text("{not json")
    files["broken"] = str(tmp_path / "broken.json")
    return files


def run(capsys, argv):
    """Invoke the CLI in process; return (exit code, parsed envelope or None)."""
    code = cli.main(argv)
    out = capsys.readouterr().out
    if not out:
        return code, None
    envelope = json.loads(out)
    jsonschema.validate(envelope, load_schema(envelope["command"]))
    return code, envelope


def rational(obj):
    from fractions import Fraction

    return Fraction(int(obj["num"]), int(obj["den"]))


class TestFormulaCommands:
    def test_value_golden(self, capsys, inst_dir):
        code, env = run(capsys, ["value", inst_dir["full3"]])
        assert code == EXIT_OK
        assert rational(env["outputs"]["value"]) == pytest.approx(49 / 36)
        assert env["inputs"]["m"] == 3 and env["elapsed_ms"] >= 0

    def test_parisi_golden(self, capsys):
        code, env = run(capsys, ["parisi", "--k", "3"])
        assert code == EXIT_OK
        assert env["outputs"]["value"] == {"num": "49", "den": "36",
                                           "approx": env["outputs"]["value"]["approx"]}

    def test_parisi_value_past_4300_digits(self, capsys):
        """The k = 5000 value's numerator and denominator each run past
        CPython's default 4300-digit limit for int-to-str conversion."""
        code, env = run(capsys, ["parisi", "--k", "5000"])
        assert code == EXIT_OK
        value = env["outputs"]["value"]
        assert len(value["num"]) > 4300 and len(value["den"]) > 4300
        assert rational_from_json(value) == parisi_value(5000)

    def test_cs_golden(self, capsys):
        code, env = run(capsys, ["cs", "--k", "2", "--m", "2", "--n", "3"])
        assert code == EXIT_OK
        assert rational(env["outputs"]["value"]) == pytest.approx(3 / 4)

    def test_rowprob_golden(self, capsys, inst_dir):
        code, env = run(capsys, ["rowprob", inst_dir["rect32"], "--row", "1"])
        assert code == EXIT_OK
        assert rational(env["outputs"]["value"]) == pytest.approx(1 / 2)
        assert env["outputs"]["row"] == 1

    def test_minprob_golden(self, capsys):
        code, env = run(capsys, ["minprob", "--k", "3", "--m", "3", "--n", "3"])
        assert code == EXIT_OK
        assert rational(env["outputs"]["value"]) == pytest.approx(2 / 3)

    def test_integral_matches_library(self, capsys):
        from rapkit.formulas import triangle_integral

        code, env = run(capsys, ["integral", "--alpha", "1", "--beta", "2"])
        assert code == EXIT_OK
        assert env["outputs"]["value"] == pytest.approx(triangle_integral(1, 2),
                                                        abs=1e-12)

    def test_profile_table(self, capsys, inst_dir):
        code, env = run(capsys, ["profile", inst_dir["rect32"]])
        assert code == EXIT_OK
        d = {(i, j): int(v) for i, j, v in env["outputs"]["d"]}
        assert d == {(0, 0): 1, (1, 0): 1, (0, 1): 1}


class TestOracleCommand:
    def test_exact_value_and_nodes(self, capsys, inst_dir):
        code, env = run(capsys, ["oracle", inst_dir["two"]])
        assert code == EXIT_OK
        assert env["outputs"]["status"] == "ok"
        assert rational(env["outputs"]["value"]) == pytest.approx(1.25)
        assert env["outputs"]["nodes"] >= 1

    def test_budget_exhaustion_exit_code(self, capsys, inst_dir):
        code, env = run(capsys, ["oracle", inst_dir["full3"], "--budget", "2"])
        assert code == EXIT_BUDGET
        assert env["outputs"]["status"] == "budget-exhausted"
        assert env["outputs"]["value"] is None

    def test_trace_file_is_jsonl(self, capsys, inst_dir, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code, _ = run(capsys, ["oracle", inst_dir["rect32"], "--trace", str(trace)])
        assert code == EXIT_OK
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assert lines and all(
            {"node", "parent", "depth", "state", "rule", "weights"} <= set(l) for l in lines
        )
        depth = {}
        for line in lines:
            if line["parent"] is None:
                assert line["depth"] == 0
            else:
                assert line["parent"] in depth  # names an earlier node
                assert line["depth"] == depth[line["parent"]] + 1
            depth[line["node"]] = line["depth"]


class TestVerifyCommand:
    def test_agreement(self, capsys, inst_dir):
        code, env = run(capsys, ["verify", inst_dir["rect32"]])
        assert code == EXIT_OK
        out = env["outputs"]
        assert out["status"] == "ok" and out["agree"] is True
        assert rational(out["delta"]) == 0
        assert out["formula"] == out["oracle"]

    def test_montecarlo_section(self, capsys, inst_dir):
        code, env = run(capsys, ["verify", inst_dir["two"],
                                 "--samples", "5000", "--seed", "11"])
        assert code == EXIT_OK
        out = env["outputs"]
        assert out["montecarlo"]["samples"] == 5000
        assert out["mc_within_3_sigma"] is True

    def test_samples_require_seed(self, capsys, inst_dir):
        code = cli.main(["verify", inst_dir["two"], "--samples", "100"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert "seed" in captured.err

    def test_no_oracle_skips_comparison(self, capsys, inst_dir):
        code, env = run(capsys, ["verify", inst_dir["full3"], "--no-oracle"])
        assert code == EXIT_OK
        assert env["outputs"]["oracle"] is None

    def test_mismatch_exit_code(self, capsys, inst_dir, monkeypatch):
        from fractions import Fraction

        monkeypatch.setattr(cli, "oracle_node_count", lambda p, budget: (Fraction(9), 1))
        code, env = run(capsys, ["verify", inst_dir["two"]])
        assert code == EXIT_MISMATCH
        assert env["outputs"]["status"] == "mismatch"
        assert env["outputs"]["agree"] is False

    def test_budget_exhaustion(self, capsys, inst_dir):
        code, env = run(capsys, ["verify", inst_dir["full3"], "--budget", "1"])
        assert code == EXIT_BUDGET
        assert env["outputs"]["status"] == "budget-exhausted"


BAND16 = [[i, j] for i in range(16) for j in (i, i + 1) if j < 16]
"""Staircase zeros (i, i), (i, i+1) for i < 16: one component over 32
lines, with 16 independent zeros."""


class TestCoverBudget:
    """A cover profile over its subset budget exits 3 before any work."""

    @pytest.mark.parametrize("argv", [
        ["value", "band17"],
        ["profile", "band17"],
        ["verify", "band17"],
        ["simulate", "band17", "--samples", "10", "--seed", "1"],
        ["rowprob", "wrap26", "--row", "25"],
    ])
    def test_exit_code(self, capsys, tmp_path, argv):
        # band17: BAND16 in a 17x17 instance, k = 17, so its 16 independent
        # zeros leave partial covers to count over all 32 lines.  wrap26:
        # rows 0..24 hold (i, i mod 13), (i, i+1 mod 13), so at most 13 of
        # them are matched and all 25 are enumerated; row 25 is zero-free.
        bands = {
            "band17": (17, BAND16),
            "wrap26": (26, [[i, j % 13] for i in range(25) for j in (i, i + 1)]),
        }
        for name, (m, zeros) in bands.items():
            doc = {"m": m, "n": m, "k": m, "zeros": zeros}
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        t0 = time.perf_counter()
        code = cli.main([argv[0], str(tmp_path / f"{argv[1]}.json"), *argv[2:]])
        elapsed = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert code == EXIT_BUDGET and captured.out == ""
        assert "budget" in captured.err
        assert elapsed < 1.0


class TestIndependentZerosAnswered:
    """A pattern with k independent zeros is answered with 0 from one
    matching, never refused, however many subsets its lines have."""

    @pytest.mark.parametrize("command", [
        ["value"],
        ["profile"],
        ["verify"],
        ["simulate", "--samples", "10", "--seed", "1"],
    ], ids=lambda argv: argv[0])
    def test_band16_is_zero(self, capsys, tmp_path, matchings, command):
        path = tmp_path / "band16.json"
        path.write_text(json.dumps({"m": 16, "n": 16, "k": 16, "zeros": BAND16}))
        t0 = time.perf_counter()
        code, env = run(capsys, [command[0], str(path), *command[1:]])
        elapsed = time.perf_counter() - t0
        assert code == EXIT_OK
        out = env["outputs"]
        if command[0] == "value":
            assert rational(out["value"]) == 0
        elif command[0] == "profile":
            assert len(out["d"]) == 136 and {count for _, _, count in out["d"]} == {"0"}
        elif command[0] == "verify":
            assert rational(out["formula"]) == rational(out["oracle"]) == 0
            assert out["oracle_nodes"] == 0 and out["agree"] is True
        else:
            assert rational(out["target"]) == 0 and out["mean"] == 0
        assert elapsed < 1.0
        assert len(matchings) == 1


class TestSimulateCommand:
    def test_value(self, capsys, inst_dir):
        code, env = run(capsys, ["simulate", inst_dir["two"],
                                 "--samples", "10000", "--seed", "11"])
        assert code == EXIT_OK
        out = env["outputs"]
        assert out["what"] == "value"
        assert out["within_3_sigma"] is True
        assert rational(out["target"]) == pytest.approx(1.25)

    def test_row(self, capsys, inst_dir):
        code, env = run(capsys, ["simulate", inst_dir["rect32"], "--what", "row",
                                 "--row", "1", "--samples", "20000", "--seed", "6"])
        assert code == EXIT_OK
        assert env["outputs"]["within_3_sigma"] is True

    def test_entry(self, capsys, inst_dir):
        code, env = run(capsys, ["simulate", inst_dir["two"], "--what", "entry",
                                 "--pos", "0", "0", "--samples", "20000", "--seed", "8"])
        assert code == EXIT_OK
        assert rational(env["outputs"]["target"]) == pytest.approx(0.5)

    def test_min(self, capsys, inst_dir):
        code, env = run(capsys, ["simulate", inst_dir["full3"], "--what", "min",
                                 "--samples", "20000", "--seed", "14"])
        assert code == EXIT_OK
        assert env["outputs"]["within_3_sigma"] is True

    def test_min_rejects_patterns_with_zeros(self, capsys, inst_dir):
        code, env = run(capsys, ["simulate", inst_dir["rect32"], "--what", "min",
                                 "--samples", "100", "--seed", "1"])
        assert code == EXIT_USAGE and env is None

    def test_row_flag_required_for_row_statistic(self, capsys, inst_dir):
        code, env = run(capsys, ["simulate", inst_dir["rect32"], "--what", "row",
                                 "--samples", "100", "--seed", "1"])
        assert code == EXIT_USAGE and env is None

    def test_csv_written(self, capsys, inst_dir, tmp_path):
        csv = tmp_path / "out.csv"
        code, _ = run(capsys, ["simulate", inst_dir["two"], "--samples", "300",
                               "--seed", "2", "--csv", str(csv)])
        assert code == EXIT_OK
        lines = csv.read_text().splitlines()
        assert lines[0] == "sample,cost,statistic" and len(lines) == 301

    @pytest.mark.parametrize("what", [
        ["--what", "value"],
        ["--what", "row", "--row", "2"],
        ["--what", "entry", "--pos", "1", "2"],
    ])
    def test_csv_fields_are_float_reprs_in_sample_order(self, capsys, inst_dir, tmp_path, what):
        csv = tmp_path / "out.csv"
        code, _ = run(capsys, ["simulate", inst_dir["rect32"], *what, "--samples", "1100",
                               "--seed", "3", "--threads", "2", "--csv", str(csv)])
        assert code == EXIT_OK
        rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
        assert [int(i) for i, _, _ in rows] == list(range(1100))
        assert all(repr(float(f)) == f for _, cost, x in rows for f in (cost, x))
        if what[1] != "value":
            assert {x for _, _, x in rows} == {"0.0", "1.0"}

    @pytest.mark.parametrize("args, code", [
        (["{rect32}", "--what", "row", "--samples", "100"], EXIT_USAGE),
        (["{rect32}", "--what", "min", "--samples", "100"], EXIT_USAGE),
        (["{rect32}", "--what", "row", "--row", "0", "--samples", "100"], EXIT_USAGE),
        (["{two}", "--samples", "1"], EXIT_USAGE),
        (["{band17}", "--samples", "100"], EXIT_BUDGET),
    ], ids=["row-missing", "min-with-zeros", "row-holds-a-zero", "one-sample", "target-over-budget"])
    def test_failure_leaves_no_csv(self, capsys, inst_dir, tmp_path, args, code):
        band17 = tmp_path / "band17.json"  # over the subset budget (see TestCoverBudget)
        band17.write_text(json.dumps({"m": 17, "n": 17, "k": 17, "zeros": BAND16}))
        csv = tmp_path / "out.csv"
        argv = ["simulate", *(a.format(**inst_dir, band17=band17) for a in args),
                "--seed", "1", "--csv", str(csv)]
        try:
            got = cli.main(argv)
        except SystemExit as exc:  # a parse error
            got = exc.code
        assert got == code and capsys.readouterr().out == ""
        assert not csv.exists()

    def test_zero_cost_instance(self, capsys, inst_dir):
        code, env = run(capsys, ["simulate", inst_dir["indep"],
                                 "--samples", "100", "--seed", "1"])
        assert code == EXIT_OK
        assert env["outputs"]["mean"] == 0 and env["outputs"]["stderr"] == 0


class TestThreads:
    def test_env_fallback_matches_explicit_flag(self, capsys, inst_dir, monkeypatch):
        code, a = run(capsys, ["simulate", inst_dir["full3"], "--samples", "1024",
                               "--seed", "5", "--threads", "3"])
        assert code == EXIT_OK
        monkeypatch.setenv("RAP_THREADS", "3")
        code, b = run(capsys, ["simulate", inst_dir["full3"], "--samples", "1024",
                               "--seed", "5"])
        assert code == EXIT_OK
        assert a["outputs"] == b["outputs"]

    def test_env_is_read_at_each_call(self, capsys, inst_dir, monkeypatch):
        seen = []
        estimate_value = cli.estimate_value

        def spy(*args, threads, **kwargs):
            seen.append(threads)
            return estimate_value(*args, threads=threads, **kwargs)

        monkeypatch.setattr(cli, "estimate_value", spy)
        argv = ["simulate", inst_dir["two"], "--samples", "64", "--seed", "5"]
        monkeypatch.setenv("RAP_THREADS", "2")
        assert run(capsys, argv)[0] == EXIT_OK
        monkeypatch.setenv("RAP_THREADS", "3")
        assert run(capsys, argv)[0] == EXIT_OK
        assert run(capsys, argv + ["--threads", "1"])[0] == EXIT_OK
        monkeypatch.delenv("RAP_THREADS")
        assert run(capsys, argv)[0] == EXIT_OK
        assert seen == [2, 3, 1, None]

    @pytest.mark.parametrize("raw", ["abc", "0", "-2", "", "1.5"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "{two}", "--samples", "64", "--seed", "5"],
        ["verify", "{two}", "--samples", "64", "--seed", "5"],
    ], ids=["simulate", "verify"])
    def test_bad_env_is_a_usage_error(self, capsys, inst_dir, monkeypatch, raw, argv):
        monkeypatch.setenv("RAP_THREADS", raw)
        with pytest.raises(SystemExit) as exc:
            cli.main([a.format(**inst_dir) for a in argv])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"RAP_THREADS: expected a positive integer, got {raw!r}" in captured.err

    def test_env_is_read_only_when_sampling_without_the_flag(self, capsys, inst_dir, monkeypatch):
        monkeypatch.setenv("RAP_THREADS", "abc")
        assert run(capsys, ["verify", inst_dir["two"]])[0] == EXIT_OK
        assert run(capsys, ["simulate", inst_dir["two"], "--samples", "64", "--seed", "5",
                            "--threads", "2"])[0] == EXIT_OK


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_seed(self, capsys, inst_dir):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", inst_dir["two"], "--samples", "10"])
        assert exc.value.code == EXIT_USAGE

    def test_json_is_an_unknown_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["parisi", "--k", "2", "--json"])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --json" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_one_sample_is_a_parse_error(self, capsys, inst_dir, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, inst_dir["two"], "--samples", "1", "--seed", "1"])
        assert exc.value.code == EXIT_USAGE
        assert "at least 2 samples" in capsys.readouterr().err

    def test_bad_seed_value(self, capsys, inst_dir):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", inst_dir["two"], "--samples", "10", "--seed", "-4"])
        assert exc.value.code == EXIT_USAGE

    # each integer option: its command line with {} for the value, and a value out of range
    INTEGER_OPTIONS = {
        "--k": (["parisi", "--k", "{}"], "0", "expected a positive integer"),
        "--budget": (["oracle", "{two}", "--budget", "{}"], "0", "expected a positive integer"),
        "--samples": (["simulate", "{two}", "--samples", "{}", "--seed", "1"], "1",
                      "need at least 2 samples for a standard error"),
        "--seed": (["simulate", "{two}", "--samples", "10", "--seed", "{}"], str(2**64),
                   "seed must fit in 64 bits"),
        "--threads": (["simulate", "{two}", "--samples", "10", "--seed", "1", "--threads", "{}"], "-1",
                      "expected a positive integer"),
        # indices are checked against the instance, not by the parser
        "--row": (["rowprob", "{two}", "--row", "{}"], None, None),
        "--pos": (["simulate", "{two}", "--what", "entry", "--samples", "10", "--seed", "1", "--pos", "0", "{}"],
                  None, None),
    }

    def _last_error_line(self, capsys, inst_dir, argv, text) -> str:
        with pytest.raises(SystemExit) as exc:
            cli.main([a.format(text, **inst_dir) for a in argv])
        assert exc.value.code == EXIT_USAGE
        return capsys.readouterr().err.splitlines()[-1]

    @pytest.mark.parametrize("option", INTEGER_OPTIONS)
    @pytest.mark.parametrize("text", ["abc", "1.5", "", "0x10"])
    def test_non_integer_names_what_was_expected(self, capsys, inst_dir, option, text):
        argv = self.INTEGER_OPTIONS[option][0]
        last = self._last_error_line(capsys, inst_dir, argv, text)
        assert last == f"rapkit {argv[0]}: error: argument {option}: expected an integer, got {text!r}"

    @pytest.mark.parametrize("option", [name for name, (_, text, _) in INTEGER_OPTIONS.items() if text])
    def test_out_of_range_keeps_its_message(self, capsys, inst_dir, option):
        argv, text, message = self.INTEGER_OPTIONS[option]
        last = self._last_error_line(capsys, inst_dir, argv, text)
        assert last == f"rapkit {argv[0]}: error: argument {option}: {message}, got {text!r}"

    def test_missing_file(self, capsys):
        code = cli.main(["value", "/nonexistent/instance.json"])
        assert code == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_malformed_file(self, capsys, inst_dir):
        code = cli.main(["value", inst_dir["broken"]])
        assert code == EXIT_USAGE
        assert "error" in capsys.readouterr().err


class TestPrettyOutput:
    def test_value_table(self, capsys, inst_dir):
        code = cli.main(["value", inst_dir["full3"], "--pretty"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "49/36" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_simulate_table(self, capsys, inst_dir):
        code = cli.main(["simulate", inst_dir["two"], "--samples", "500",
                         "--seed", "3", "--pretty"])
        out = capsys.readouterr().out
        assert code == EXIT_OK and "mean" in out


class TestEmittedLine:
    @pytest.mark.parametrize(
        "argv",
        [
            ["value", "full3"],
            ["verify", "two", "--samples", "200", "--seed", "3"],
            ["simulate", "two", "--samples", "200", "--seed", "3"],
        ],
        ids=["value", "verify", "simulate"],
    )
    def test_one_json_line_with_the_stream_encoders_bytes(self, capsys, inst_dir, monkeypatch, argv):
        emitted = []
        real = cli._emit

        def recorded(envelope, pretty, out):
            emitted.append(envelope)
            real(envelope, pretty, out)

        monkeypatch.setattr(cli, "_emit", recorded)
        assert cli.main([argv[0], inst_dir[argv[1]], *argv[2:]]) == EXIT_OK
        (envelope,) = emitted
        assert list(envelope) == ["command", "inputs", "outputs", "elapsed_ms"]
        line = capsys.readouterr().out
        assert line == json.dumps(envelope) + "\n"
        streamed = io.StringIO()
        json.dump(envelope, streamed)
        assert line == streamed.getvalue() + "\n"


def _commands() -> list[str]:
    """Every subcommand the parser knows."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sorted(sub.choices)


# one run per subcommand whose envelope the negative schema tests mutate
ENVELOPE_ARGV = {
    "cs": ["cs", "--k", "2", "--m", "2", "--n", "3"],
    "integral": ["integral", "--alpha", "1", "--beta", "2"],
    "minprob": ["minprob", "--k", "2", "--m", "2", "--n", "3"],
    "oracle": ["oracle", "{rect32}"],
    "parisi": ["parisi", "--k", "3"],
    "profile": ["profile", "{rect32}"],
    "rowprob": ["rowprob", "{rect32}", "--row", "1"],
    "simulate": ["simulate", "{two}", "--samples", "200", "--seed", "1"],
    "value": ["value", "{rect32}"],
    "verify": ["verify", "{two}", "--samples", "200", "--seed", "1"],
}


def _rationals(obj):
    """Every rational wire object nested in obj."""
    if isinstance(obj, dict):
        if {"num", "den", "approx"} <= obj.keys():
            yield obj
        for value in obj.values():
            yield from _rationals(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _rationals(value)


class TestSchemas:
    def test_all_schemas_load_and_are_valid(self):
        for command in _commands():
            schema = load_schema(command)
            jsonschema.Draft202012Validator.check_schema(schema)

    def test_unknown_schema_rejected(self):
        with pytest.raises(KeyError):
            load_schema("nope")


class TestSchemaRejects:
    """Each command's schema rejects envelopes one mutation away from a real one."""

    @pytest.fixture(params=_commands())
    def case(self, request, capsys, inst_dir):
        argv = [arg.format(**inst_dir) for arg in ENVELOPE_ARGV[request.param]]
        code, env = run(capsys, argv)
        assert code == EXIT_OK and env["command"] == request.param
        validator = jsonschema.Draft202012Validator(load_schema(request.param))
        return env, validator.is_valid

    def test_other_command_name(self, case):
        env, valid = case
        for other in _commands():
            if other != env["command"]:
                assert not valid({**env, "command": other})

    def test_extra_output_key(self, case):
        env, valid = case
        assert not valid({**env, "outputs": {**env["outputs"], "extra": 1}})

    def test_required_output_key_removed(self, case):
        env, valid = case
        for key in env["outputs"]:
            outputs = {k: v for k, v in env["outputs"].items() if k != key}
            assert not valid({**env, "outputs": outputs})

    def test_negative_denominator(self, case):
        env, valid = case
        count = len(list(_rationals(env)))
        # profile counts and the integral are not rationals on the wire
        assert count or env["command"] in ("integral", "profile")
        for i in range(count):
            bad = copy.deepcopy(env)
            list(_rationals(bad))[i]["den"] = "-1"
            assert not valid(bad)


def _pinned_envelope(env: dict) -> bytes:
    """The envelope less its elapsed_ms, with inputs.path reduced to the file name."""
    env = {key: value for key, value in env.items() if key != "elapsed_ms"}
    if "path" in env["inputs"]:
        env["inputs"] = {**env["inputs"], "path": os.path.basename(env["inputs"]["path"])}
    return json.dumps(env).encode()


def _pinned_pretty(out: str) -> bytes:
    """The --pretty table less its elapsed_ms line."""
    lines = out.splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith("  elapsed_ms: ")).encode()


class TestPinnedEnvelopes:
    """SHA-256 digests of every ENVELOPE_ARGV envelope and of three --pretty
    tables, recorded before the envelope code was last rewritten; they pin
    key order and values, which the schema tests do not."""

    ENVELOPES = {
        "cs": "727758c788ba8bca2a2eed4b66689543659db0996fcd5694c879571eb9060efe",
        "integral": "468e2817466cf7bca87ddc746dbff80e17ed2eaf1f5bb7f5c3449a19c57800b6",
        "minprob": "c12a108d3d141fe20e8f1ded77cac35ac791f1454a17c5160b5c7663cfb73e4e",
        "oracle": "dd063e3b6fbcad57e1b3da2f4137dfc09483d2f15db156594e315307fd176d18",
        "parisi": "2daca0bb04d987bbfb8718883764edc081e7ecf3acde943934f7bf9226e07a40",
        "profile": "cf5df15ae9f8a3cc3f91cd72f77780a21d838c9bb776e57354c7cd65846bc0ec",
        "rowprob": "7271c906a6e29ee97671efe3a2744aacf5112500d55663d7471dfa4d933987f0",
        "simulate": "189e4dc49b3daa275d95e5a32156d9af1ab8ba6d3c973f39dc10e5cbf5b3f50a",
        "value": "ab9e9c3089cf8f48d66848ca4691244c1d594b28c64d2ba8b3c1fa762613557b",
        "verify": "6e67a1e53b2695dd020494977f9835f9994af86ed58b6a2e95cc99c64efee942",
    }
    PRETTY = {
        "profile": "0fd08d3f460574b1d82243f585765f7a1c6430a50573346cdec56601dae196f7",
        "value": "6494b4fb0bdf2c052bd898e72e2cbdc191b615d7afe18117884598e88e520821",
        "verify": "8bab90258bd406b0b22896a5186174c08461832e38d0bcc707053430807fc398",
    }

    @pytest.mark.parametrize("command", sorted(ENVELOPES))
    def test_envelope(self, capsys, inst_dir, command):
        code, env = run(capsys, [arg.format(**inst_dir) for arg in ENVELOPE_ARGV[command]])
        assert code == EXIT_OK
        assert hashlib.sha256(_pinned_envelope(env)).hexdigest() == self.ENVELOPES[command]

    @pytest.mark.parametrize("command", sorted(PRETTY))
    def test_pretty(self, capsys, inst_dir, command):
        assert cli.main([arg.format(**inst_dir) for arg in ENVELOPE_ARGV[command]] + ["--pretty"]) == EXIT_OK
        assert hashlib.sha256(_pinned_pretty(capsys.readouterr().out)).hexdigest() == self.PRETTY[command]


class TestInstanceLoadedOnce:
    """``main`` loads the instance file, once, before the clock starts; the
    commands without one load nothing."""

    INSTANCE_COMMANDS = ("oracle", "profile", "rowprob", "simulate", "value", "verify")

    @pytest.mark.parametrize("command", _commands())
    def test_load_count(self, capsys, inst_dir, monkeypatch, command):
        loaded = []
        load_instance = cli.load_instance

        def spy(path):
            loaded.append(path)
            return load_instance(path)

        monkeypatch.setattr(cli, "load_instance", spy)
        argv = [arg.format(**inst_dir) for arg in ENVELOPE_ARGV[command]]
        assert run(capsys, argv)[0] == EXIT_OK
        assert loaded == ([argv[1]] if command in self.INSTANCE_COMMANDS else [])

    def test_elapsed_ms_leaves_out_the_load(self, capsys, inst_dir, monkeypatch):
        load_instance = cli.load_instance

        def slow(path):
            time.sleep(0.2)
            return load_instance(path)

        monkeypatch.setattr(cli, "load_instance", slow)
        code, env = run(capsys, ["value", inst_dir["rect32"]])
        assert code == EXIT_OK and 0 <= env["elapsed_ms"] < 200


class TestBenchmarkSpans:
    """Every name the benchmark's span recorder wraps in ``rapkit.cli``
    (perfbench/spans.py, all but ``main``) is looked up there at call time,
    so a wrapper installed on it sees the calls."""

    WRAPPED = (
        "cover_formula_value",
        "cover_profile",
        "cs_value",
        "estimate_entry_usage",
        "estimate_min_entry_usage",
        "estimate_row_usage",
        "estimate_value",
        "load_instance",
        "min_entry_usage_probability",
        "oracle_node_count",
        "parisi_value",
        "rational_to_json",
        "row_inclusion_probability",
    )

    def test_every_wrapped_name_is_called(self, capsys, inst_dir, monkeypatch):
        calls = Counter()

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in self.WRAPPED:
            monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
        simulate = ENVELOPE_ARGV["simulate"]
        argvs = [*ENVELOPE_ARGV.values()] + [
            [*simulate, "--what", *what]
            for what in (["row", "--row", "1"], ["entry", "--pos", "0", "1"], ["min"])
        ]
        for argv in argvs:
            code, _ = run(capsys, [arg.format(**inst_dir) for arg in argv])
            assert code == EXIT_OK
        assert {name: calls[name] > 0 for name in self.WRAPPED} == dict.fromkeys(self.WRAPPED, True)
