"""Symbolic conditioning oracle: state machinery, rules, and exact values."""

import ast
import io
import json
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import rapkit.cli
import rapkit.covers
import rapkit.montecarlo
import rapkit.oracle
from rapkit.covers import LineCover
from rapkit.formulas import cover_formula_value
from rapkit.model import BudgetExceededError, instance
from rapkit.oracle import (
    ExpRapState,
    ExpVariable,
    LinearEntry,
    canonical_key,
    classify_entries,
    condition_minimum,
    condition_pair,
    induction_measure,
    is_terminal,
    make_initial_state,
    oracle_expected_value,
    oracle_node_count,
    reduce_state,
)

from conftest import (
    all_patterns,
    pattern_classes,
    random_instance,
    reference_condition_minimum,
    reference_reduce_state,
)


def entry(mapping) -> LinearEntry:
    return LinearEntry.of({v: Fraction(c) for v, c in mapping.items()})


def state(k, rows, intensities, accumulated=0) -> ExpRapState:
    variables = tuple(ExpVariable(v, Fraction(i)) for v, i in intensities.items())
    entries = tuple(tuple(entry(e) for e in row) for row in rows)
    return ExpRapState(k, entries, variables, Fraction(accumulated))


class TestGoldenValues:
    def test_one_by_one(self):
        assert oracle_expected_value(instance(1, 1, 1)) == 1

    def test_two_by_two(self):
        assert oracle_expected_value(instance(2, 2, 2)) == Fraction(5, 4)

    def test_two_by_two_single_zero(self):
        assert oracle_expected_value(instance(2, 2, 2, [(0, 0)])) == Fraction(3, 4)

    def test_three_by_three_full(self):
        assert oracle_expected_value(instance(3, 3, 3)) == Fraction(49, 36)

    def test_all_zero_pattern(self):
        zeros = [(r, c) for r in range(2) for c in range(2)]
        assert oracle_expected_value(instance(2, 2, 2, zeros)) == 0

    @pytest.mark.parametrize(
        "p, value, nodes",
        [
            (instance(4, 4, 4), Fraction(205, 144), 34),
            (instance(4, 5, 4), Fraction(145, 144), 34),
            (instance(5, 5, 4, [(0, 0), (1, 1)]), Fraction(37, 100), 17),
            # row 0 is forced at the slack size k-1 = 2 > nu = 1
            (instance(3, 4, 3, [(0, 0), (0, 1), (0, 2)]), Fraction(13, 24), 3),
            (instance(5, 5, 4), Fraction(281, 400), 34),
            (instance(5, 6, 4, [(0, 0)]), Fraction(1499, 3600), 33),
        ],
    )
    def test_pinned_value_and_node_count(self, p, value, nodes):
        """A cover that chose other lines would classify differently and change the node count."""
        assert oracle_node_count(p) == (value, nodes)

    def test_matches_cover_formula_on_random_instances(self, oracle_cache):
        rng = random.Random(41)
        for _ in range(40):
            p = random_instance(rng, max_m=3, max_n=4)
            assert oracle_expected_value(p, cache=oracle_cache) == cover_formula_value(p)


class TestLinearEntry:
    def test_comparable(self):
        assert entry({1: 1}).le(entry({1: 2}))
        assert not entry({1: 2}).le(entry({1: 1}))

    def test_incomparable(self):
        assert entry({1: 1}).incomparable(entry({2: 1}))
        assert not entry({1: 1}).incomparable(entry({1: 1, 2: 1}))

    def test_zero_entry(self):
        assert LinearEntry().is_zero
        assert LinearEntry().le(entry({1: 1}))

    def test_rejects_nonpositive_coefficients(self):
        with pytest.raises(ValueError):
            LinearEntry(((1, Fraction(-1)),))
        assert entry({1: 0}).is_zero  # zero coefficients dropped by .of


@pytest.fixture
def matchings(monkeypatch):
    """The zero sets of every maximum matching computed while the test runs."""
    calls = []
    real = rapkit.covers._max_matching

    def counted(zeros):
        zeros = tuple(zeros)
        calls.append(zeros)
        return real(zeros)

    monkeypatch.setattr(rapkit.covers, "_max_matching", counted)
    return calls


class TestReduce:
    def test_column_with_k_zeros_deleted(self):
        s = make_initial_state(instance(3, 3, 2, [(0, 0), (1, 0)]))
        reduced = reduce_state(s)
        assert (reduced.k, reduced.m, reduced.n) == (1, 3, 2)
        assert all(not e.is_zero for row in reduced.entries for e in row)

    def test_terminal_state_returned_as_is(self):
        s = make_initial_state(instance(2, 2, 2, [(0, 0), (1, 1)]))
        assert is_terminal(s)
        assert reduce_state(s) == s

    def test_no_forced_lines_fixed_point(self):
        s = make_initial_state(instance(3, 3, 2, [(0, 0)]))
        assert reduce_state(s) == s

    def test_idempotent(self):
        s = make_initial_state(instance(4, 4, 3, [(0, 0), (1, 0), (2, 0), (0, 1)]))
        once = reduce_state(s)
        assert reduce_state(once) == once

    def test_matches_one_line_per_pass_reference(self):
        """Every pattern up to 4x4 but 4x4 itself, then one 4x4 pattern per class, at every k."""
        cases = [
            (m, n, zp.zeros)
            for m in range(1, 5)
            for n in range(1, 5)
            if (m, n) != (4, 4)
            for zp in all_patterns(m, n)
        ] + [(4, 4, zeros) for zeros in pattern_classes(4, 4)]
        for m, n, zeros in cases:
            for k in range(1, min(m, n) + 1):
                s = make_initial_state(instance(m, n, k, zeros))
                got, ref = reduce_state(s), reference_reduce_state(s)
                assert (got.k, got.entries, got.variables) == (ref.k, ref.entries, ref.variables)

    def test_lines_forced_together_go_in_one_pass(self, matchings):
        # rows 0 and 1 are the only 2-cover; one at a time takes one more pass.
        # Each pass matches the zeros of the state it starts from once.
        s = make_initial_state(instance(3, 3, 3, [(r, c) for r in range(2) for c in range(3)]))
        reduced = reduce_state(s)
        assert [len(zeros) for zeros in matchings] == [6, 0]
        matchings.clear()
        assert reference_reduce_state(s) == reduced
        assert [len(zeros) for zeros in matchings] == [6, 3, 0]
        assert (reduced.k, reduced.m, reduced.n) == (1, 1, 3)


class TestClassify:
    def test_initial_state_all_standard(self):
        cls = classify_entries(make_initial_state(instance(2, 3, 2)))
        assert cls.non_covered_standard == tuple((r, c) for r in range(2) for c in range(3))
        assert cls.non_covered_nonstandard == ()

    def test_zero_label(self):
        # the zero's row is the cover, so the zero is in neither tuple
        cls = classify_entries(make_initial_state(instance(2, 2, 2, [(1, 0)])))
        assert cls.cover == LineCover(frozenset({1}), frozenset())
        assert cls.non_covered_standard == ((0, 0), (0, 1))
        assert cls.non_covered_nonstandard == ()

    def test_repeated_variable_is_nonstandard(self):
        s = state(1, [[{0: 1}, {0: 1}]], {0: 1})
        cls = classify_entries(s)
        assert cls.non_covered_standard == ()
        assert cls.non_covered_nonstandard == ((0, 0), (0, 1))

    def test_scaled_variable_is_nonstandard(self):
        s = state(1, [[{0: 2}, {1: 1}]], {0: 1, 1: 1})
        cls = classify_entries(s)
        assert (cls.non_covered_standard, cls.non_covered_nonstandard) == (((0, 1),), ((0, 0),))
        s = state(1, [[{0: 1}, {1: 1}]], {0: 2, 1: 1})
        cls = classify_entries(s)
        assert (cls.non_covered_standard, cls.non_covered_nonstandard) == (((0, 1),), ((0, 0),))

    def test_minimal_detected(self):
        rows = [[{0: 1}, {0: 1, 1: 1}], [{0: 1, 2: 1}, {0: 1, 1: 1, 2: 1}]]
        cls = classify_entries(state(2, rows, {0: 1, 1: 1, 2: 1}))
        assert cls.minimal == (0, 0)
        assert cls.first_incomparable_pair is None

    def test_incomparable_pair_detected_when_no_minimal(self):
        rows = [[{0: 1}, {1: 1}], [{1: 1}, {0: 1}]]
        cls = classify_entries(state(2, rows, {0: 1, 1: 1}))
        assert cls.minimal is None
        assert cls.first_incomparable_pair == ((0, 0), (0, 1))


class TestConditionPair:
    def test_equal_scaled_intensities_split_evenly(self):
        rows = [[{0: 2}, {1: 2}], [{1: 2}, {0: 2}]]
        s = state(2, rows, {0: 1, 1: 1})
        (w1, c1), (w2, c2) = condition_pair(s, (0, 0), (0, 1))
        assert w1 == w2 == Fraction(1, 2)

    def test_intensity_ratio_two_to_one(self):
        rows = [[{0: 1}, {1: 2}], [{1: 2}, {0: 1}]]
        s = state(2, rows, {0: 1, 1: 1})
        (w1, _), (w2, _) = condition_pair(s, (0, 0), (0, 1))
        assert (w1, w2) == (Fraction(2, 3), Fraction(1, 3))

    def test_children_share_y_coefficient(self):
        rows = [[{0: 2}, {1: 2}], [{1: 2}, {0: 2}]]
        s = state(2, rows, {0: 1, 1: 1})
        for _, child in condition_pair(s, (0, 0), (0, 1)):
            y_id = min(v.id for v in child.variables if v.id >= 2)
            e1 = child.entries[0][0]
            e2 = child.entries[0][1]
            assert e1.coeff(y_id) == e2.coeff(y_id) > 0

    def test_comparable_entries_rejected(self):
        s = state(1, [[{0: 1}, {0: 2}]], {0: 1})
        with pytest.raises(ValueError):
            condition_pair(s, (0, 0), (0, 1))

    def test_no_cost_extracted_and_accumulated_kept(self):
        rows = [[{0: 2}, {1: 2}], [{1: 2}, {0: 2}]]
        s = state(2, rows, {0: 1, 1: 1}, accumulated=Fraction(3, 7))
        for w, child in condition_pair(s, (0, 0), (0, 1)):
            assert child.accumulated == Fraction(3, 7)
            assert w > 0


class TestConditionMinimum:
    def test_one_by_one(self):
        extracted, children = condition_minimum(make_initial_state(instance(1, 1, 1)))
        assert extracted == 1
        assert len(children) == 1
        weight, child = children[0]
        assert weight == 1
        assert is_terminal(reduce_state(child))
        assert child.accumulated == 1

    def test_two_by_two_intensity_four(self):
        extracted, children = condition_minimum(make_initial_state(instance(2, 2, 2)))
        assert extracted == Fraction(1, 2)  # (k - |cover|) / I = 2/4
        assert [w for w, _ in children] == [Fraction(1, 4)] * 4

    def test_minimum_position_becomes_zero(self):
        _, children = condition_minimum(make_initial_state(instance(2, 2, 2)))
        positions = [(r, c) for r in range(2) for c in range(2)]
        for (weight, child), pos in zip(children, positions):
            assert child.entries[pos[0]][pos[1]].is_zero

    def test_accumulated_nondecreasing(self):
        parent = make_initial_state(instance(3, 3, 2, [(0, 0)]))
        extracted, children = condition_minimum(parent)
        assert extracted > 0
        for _, child in children:
            assert child.accumulated == parent.accumulated + extracted

    def test_weights_sum_to_one(self):
        _, children = condition_minimum(make_initial_state(instance(3, 4, 2, [(1, 2)])))
        assert sum(w for w, _ in children) == 1

    def test_doubly_covered_entries_gain_the_minimum(self):
        # one zero covered by a row; the crossing entries are doubly covered
        s = make_initial_state(instance(2, 2, 2, [(0, 0)]))
        # cover of {(0,0)} is {row 0}; no doubly covered cells (no cols);
        # a state with both a row and a column in the cover:
        s2 = make_initial_state(instance(3, 3, 3, [(0, 0), (0, 1), (1, 0), (2, 0)]))
        cover = classify_entries(s2).cover
        assert cover.rows and cover.cols
        _, children = condition_minimum(s2)
        for _, child in children:
            y_id = child.entries[0][0].variables()[0]  # doubly covered zero gains Y
            for r in cover.rows:
                for c in cover.cols:
                    assert child.entries[r][c].coeff(y_id) >= 1

    def test_measure_drops_at_branching(self):
        for p in (instance(2, 2, 2), instance(3, 3, 2, [(0, 0)]), instance(3, 3, 3)):
            parent = reduce_state(make_initial_state(p))
            before = induction_measure(parent)
            _, children = condition_minimum(parent)
            for _, child in children:
                assert induction_measure(child) < before


def _reached_minimum_states(instances):
    """The reduced, non-terminal states where minimum conditioning applies,
    with their classifications, that an oracle run on each of `instances`
    expands: one state per canonical key and instance, as its cache would."""
    for p in instances:
        seen = set()
        stack = [make_initial_state(p)]
        while stack:
            s = reduce_state(stack.pop())
            if is_terminal(s):
                continue
            key = canonical_key(s)
            if key in seen:
                continue
            seen.add(key)
            cls = classify_entries(s)
            if cls.non_covered_nonstandard and cls.minimal is None:
                branches = condition_pair(s, *cls.first_incomparable_pair)
            else:
                yield s, cls
                branches = condition_minimum(s)[1]
            stack.extend(child for _, child in branches)


def _every_small_instance():
    return (
        instance(m, m, k, zp.zeros)
        for m in (2, 3)
        for zp in all_patterns(m, m)
        for k in range(1, m + 1)
    )


def _every_four_by_four_class_at_k_four():
    return (instance(4, 4, 4, zeros) for zeros in pattern_classes(4, 4))


def _by_rank(s: ExpRapState):
    """The state with each variable id replaced by its rank among the ids."""
    rank = {v: i for i, v in enumerate(sorted(v.id for v in s.variables))}
    entries = tuple(tuple(tuple((rank[v], c) for v, c in e.terms) for e in row) for row in s.entries)
    return entries, tuple((rank[v.id], v.intensity) for v in s.variables)


class TestConditionMinimumAgainstReference:
    """One template per node gives the children the per-child substitution gave."""

    def _check(self, instances) -> int:
        checked = 0
        for s, cls in _reached_minimum_states(instances):
            extracted, children = condition_minimum(s)
            ref_extracted, ref_children = reference_condition_minimum(s, cls)
            assert extracted == ref_extracted
            assert [w for w, _ in children] == [w for w, _ in ref_children]
            for (_, got), (_, ref) in zip(children, ref_children):
                assert (got.k, got.accumulated) == (ref.k, ref.accumulated)
                assert canonical_key(got) == canonical_key(ref)
                assert induction_measure(got) == induction_measure(ref)
                # new ids keep the old ids' order, so every id tie-break is unchanged
                assert _by_rank(got) == _by_rank(ref)
            checked += 1
        return checked

    def test_every_two_by_two_and_three_by_three_instance(self):
        assert self._check(_every_small_instance()) > 600

    def test_every_four_by_four_class_at_k_four(self):
        assert self._check(_every_four_by_four_class_at_k_four()) > 600


class TestClassificationPartition:
    """The two position tuples split the cells outside the cover by kind."""

    @staticmethod
    def _check(instances) -> int:
        checked = 0
        for s, cls in _reached_minimum_states(instances):
            outside = [
                (r, c)
                for r in range(s.m)
                if r not in cls.cover.rows
                for c in range(s.n)
                if c not in cls.cover.cols
            ]
            standard, nonstandard = cls.non_covered_standard, cls.non_covered_nonstandard
            assert list(standard) == sorted(standard) and list(nonstandard) == sorted(nonstandard)
            assert sorted(standard + nonstandard) == outside
            occurrences = Counter(v for row in s.entries for e in row for v, _ in e.terms)
            for r, c in outside:
                terms = s.entries[r][c].terms
                is_standard = (
                    len(terms) == 1
                    and terms[0][1] == 1
                    and s.intensity(terms[0][0]) == 1
                    and occurrences[terms[0][0]] == 1
                )
                assert ((r, c) in standard) == is_standard
            checked += 1
        return checked

    def test_every_two_by_two_and_three_by_three_instance(self):
        assert self._check(_every_small_instance()) > 600

    def test_every_four_by_four_class_at_k_four(self):
        assert self._check(_every_four_by_four_class_at_k_four()) > 600


class TestOneLatticePerState:
    def test_one_matching_serves_every_stage(self, matchings):
        """The terminal test, reduction, classification and the measure all
        read the state's one cover lattice."""
        s = make_initial_state(instance(3, 3, 2, [(0, 0)]))
        assert not is_terminal(s)
        assert reduce_state(s) is s
        cls = classify_entries(s)
        induction_measure(s)
        assert cls.cover == LineCover(frozenset({0}), frozenset())
        assert len(matchings) == 1


def _rationals(state: ExpRapState):
    """Every coefficient and intensity of the state."""
    coefficients = [c for row in state.entries for e in row for _, c in e.terms]
    return coefficients + [v.intensity for v in state.variables]


class TestExactArithmetic:
    def test_integral_values_stored_as_ints(self):
        assert type(LinearEntry(((0, Fraction(2)),)).terms[0][1]) is int
        assert type(ExpVariable(0, Fraction(2)).intensity) is int
        assert type(LinearEntry(((0, Fraction(1, 2)),)).terms[0][1]) is Fraction
        assert type(ExpVariable(0, Fraction(1, 2)).intensity) is Fraction

    def test_integral_division_stays_exact(self):
        extracted, children = condition_minimum(make_initial_state(instance(2, 2, 2)))
        assert type(extracted) is Fraction and extracted == Fraction(1, 2)
        assert all(type(w) is Fraction for w, _ in children)
        for _, child in children:
            assert all(type(x) is int for x in _rationals(child))

    def test_pair_with_fractional_coefficients_and_intensities(self):
        rows = [[{0: Fraction(3, 2)}, {1: Fraction(1, 3)}], [{1: Fraction(1, 3)}, {0: Fraction(3, 2)}]]
        s = state(2, rows, {0: Fraction(2, 3), 1: Fraction(5, 2)})
        branches = condition_pair(s, (0, 0), (0, 1))
        assert all(type(w) is Fraction for w, _ in branches)
        # 3/2 X0 has intensity 4/9 and 1/3 X1 intensity 15/2
        assert [w for w, _ in branches] == [Fraction(8, 143), Fraction(135, 143)]
        assert sum(w for w, _ in branches) == 1
        for _, child in branches:
            assert all(type(x) in (int, Fraction) for x in _rationals(child))

    def test_minimum_with_fractional_coefficients_and_intensities(self):
        rows = [[{0: Fraction(3, 2)}, {1: 1}], [{2: 1}, {0: Fraction(3, 2), 3: Fraction(1, 3)}]]
        s = state(2, rows, {0: Fraction(2, 3), 1: 1, 2: 1, 3: Fraction(5, 2)})
        assert classify_entries(s).minimal == (0, 0)
        extracted, children = condition_minimum(s)
        # members 3/2 X0, X1, X2 with intensities 4/9, 1, 1; total 22/9
        assert type(extracted) is Fraction and extracted == Fraction(9, 11)
        assert all(type(w) is Fraction for w, _ in children)
        assert [w for w, _ in children] == [Fraction(2, 11), Fraction(9, 22), Fraction(9, 22)]
        assert sum(w for w, _ in children) == 1
        for _, child in children:
            assert all(type(x) in (int, Fraction) for x in _rationals(child))

    def test_trace_strings_are_exact_rationals(self, capsys, tmp_path):
        path, trace = tmp_path / "p.json", tmp_path / "trace.jsonl"
        path.write_text(json.dumps({"m": 4, "n": 4, "k": 4, "zeros": [[0, 0], [1, 2]]}))
        assert rapkit.cli.main(["oracle", str(path), "--trace", str(trace)]) == 0
        capsys.readouterr()
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assert lines
        for line in lines:
            for text in line["weights"] + [line["extracted"]]:
                assert re.fullmatch(r"\d+(/\d+)?", text), text
                assert Fraction(text) >= 0


class TestBudgetAndTrace:
    def test_budget_exhaustion_reports_nodes(self):
        with pytest.raises(BudgetExceededError) as exc:
            oracle_expected_value(instance(3, 3, 3), budget=3)
        assert exc.value.nodes == 4

    def test_budget_validation(self):
        for budget in (0, -1, True, 2.0):
            for evaluate in (oracle_expected_value, oracle_node_count):
                with pytest.raises(ValueError, match="budget must be a positive integer"):
                    evaluate(instance(2, 2, 2), budget=budget)

    def test_node_count(self):
        value, nodes = oracle_node_count(instance(2, 2, 2))
        assert value == Fraction(5, 4) and nodes >= 1

    def test_trace_lines_conserve_probability(self):
        buffer = io.StringIO()
        oracle_expected_value(instance(3, 3, 2, [(0, 0)]), trace=buffer)
        lines = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert lines
        depth = {}
        for line in lines:
            assert line["rule"] in ("pair", "minimum")
            weights = [Fraction(w) for w in line["weights"]]
            assert sum(weights) == 1 and all(w > 0 for w in weights)
            assert Fraction(line["extracted"]) >= 0
            if line["parent"] is None:
                assert line["depth"] == 0
            else:
                assert line["parent"] in depth  # names an earlier node
                assert line["depth"] == depth[line["parent"]] + 1
            depth[line["node"]] = line["depth"]
        assert [line["parent"] for line in lines].count(None) == 1

    def test_cache_reuse_across_calls(self):
        cache: dict = {}
        oracle_expected_value(instance(3, 3, 3), cache=cache)
        _, nodes = oracle_node_count(instance(3, 3, 3), cache=cache)
        assert nodes == 0  # everything served from the shared cache


class TestCanonicalKey:
    def test_invariant_under_row_and_column_permutation(self):
        a = make_initial_state(instance(3, 3, 2, [(0, 0)]))
        b = make_initial_state(instance(3, 3, 2, [(2, 2)]))
        c = make_initial_state(instance(3, 3, 2, [(1, 2)]))
        assert canonical_key(a) == canonical_key(b) == canonical_key(c)

    def test_distinguishes_different_structures(self):
        a = make_initial_state(instance(3, 3, 2, [(0, 0)]))
        b = make_initial_state(instance(3, 3, 2, [(0, 0), (1, 1)]))
        assert canonical_key(a) != canonical_key(b)

    def test_excludes_accumulated(self):
        s = make_initial_state(instance(2, 2, 2))
        shifted = ExpRapState(s.k, s.entries, s.variables, Fraction(7, 2))
        assert canonical_key(s) == canonical_key(shifted)


def _imports(module) -> list[str]:
    """Every module a source file imports, and every `module:name` it imports from one."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module_name = "." * node.level + (node.module or "")
            imported += [module_name] + [f"{module_name}:{alias.name}" for alias in node.names]
    assert imported  # the walk saw the module's imports
    return imported


class TestRouteIndependence:
    def test_oracle_never_imports_the_cover_formula(self):
        """The formula-vs-oracle checks mean something only while the oracle
        computes its value without the cover-counting route."""
        for name in _imports(rapkit.oracle):
            assert "formulas" not in name, name
            assert not name.endswith((":cover_profile", ":row_excluded_profile")), name

    def test_montecarlo_imports_neither_exact_route(self):
        """Monte Carlo checks a route only while it reuses none of either
        route's combinatorics; its exact targets come from the caller."""
        for name in _imports(rapkit.montecarlo):
            # ".formulas:cover_formula_value", "rapkit.covers", ".:oracle" ...
            assert not {"formulas", "covers", "oracle"} & set(re.split(r"[.:]", name)), name

    def test_oracle_uses_only_public_rapkit_names(self):
        """The oracle reaches covers only through public names, the ones the
        benchmark's span recorder wraps."""
        tree = ast.parse(Path(rapkit.oracle.__file__).read_text(encoding="utf-8"))
        modules = set()  # local names bound to rapkit modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("rapkit")):
                for alias in node.names:
                    assert not alias.name.startswith("_"), alias.name
                    if not node.module or node.module == "rapkit":
                        modules.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("rapkit"):
                        assert not any(part.startswith("_") for part in alias.name.split(".")), alias.name
                        modules.add(alias.asname or alias.name.split(".")[0])
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.endswith("__"):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                assert not (isinstance(root, ast.Name) and root.id in modules), node.attr
