"""Symbolic conditioning oracle: state machinery, rules, and exact values."""

import ast
import hashlib
import io
import json
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import conftest
import rapkit.cli
import rapkit.montecarlo
import rapkit.oracle
from rapkit.covers import LineCover, cover_lattice, forced_cover_lines, mask_cover_lattice
from rapkit.formulas import cover_formula_value, parisi_value
from rapkit.model import BudgetExceededError, instance
from rapkit.oracle import (
    DEFAULT_NODE_BUDGET,
    ExpRapState,
    LinearEntry,
    canonical_key,
    classify_entries,
    condition_minimum,
    condition_pair,
    induction_measure,
    make_initial_state,
    oracle_expected_value,
    oracle_node_count,
    reduce_state,
)

from conftest import (
    all_patterns,
    every_child,
    is_terminal,
    pattern_classes,
    random_instance,
    reference_canonical_key,
    reference_condition_minimum,
    reference_condition_pair,
    reference_expected_value,
    reference_initial_state,
    reference_reduce_state,
    scanned_pattern,
)


def entry(mapping) -> LinearEntry:
    return LinearEntry(tuple((v, Fraction(c)) for v, c in mapping.items() if c))


def state(k, rows, intensities) -> ExpRapState:
    entries = tuple(tuple(entry(e) for e in row) for row in rows)
    return ExpRapState(k, entries, {v: Fraction(i) for v, i in intensities.items()})


def _fields(s: ExpRapState):
    """k, the entries and the variable table in its order."""
    return s.k, s.entries, list(s.intensities.items())


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
        assert LinearEntry().terms == ()
        assert LinearEntry().le(entry({1: 1}))

    def test_rejects_nonpositive_coefficients(self):
        with pytest.raises(ValueError):
            LinearEntry(((1, Fraction(-1)),))
        assert entry({1: 0}) == LinearEntry()  # zero coefficients dropped by .of


class TestExpRapState:
    def test_ragged_entries_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            ExpRapState(1, ((LinearEntry(),), (LinearEntry(), LinearEntry())), {})

    def test_unused_variables_dropped_in_order(self):
        s = state(1, [[{3: 1}, {0: 1}], [{}, {3: 2}]], {2: 1, 3: 4, 1: 1, 0: 2})
        assert list(s.intensities.items()) == [(3, 4), (0, 2)]
        assert list(state(1, [[{0: 1}]], {0: 1}).intensities.items()) == [(0, 1)]

    @pytest.mark.parametrize("intensity", [0, -1, Fraction(-1, 2)])
    def test_nonpositive_intensity_rejected(self, intensity):
        with pytest.raises(ValueError, match=r"^intensity must be positive, got "):
            ExpRapState(1, ((entry({0: 1}),),), {0: intensity})

    def test_unknown_variable_named_first_in_row_major_order(self):
        # ids 3, 5 and 7 are unknown; 5 comes first in row-major order
        rows = [[{0: 1}, {5: 1, 7: 1}], [{3: 1}, {0: 1}]]
        with pytest.raises(ValueError, match=r"^entry references unknown variable 5$"):
            state(1, rows, {0: 1})


class TestReduce:
    def test_column_with_k_zeros_deleted(self):
        s = make_initial_state(instance(3, 3, 2, [(0, 0), (1, 0)]))
        reduced = reduce_state(s)
        assert (reduced.k, reduced.m, reduced.n) == (1, 3, 2)
        assert all(e.terms for row in reduced.entries for e in row)

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
                assert _fields(got) == _fields(ref)

    def test_lines_forced_together_go_in_one_pass(self, matchings):
        # rows 0 and 1 are the only 2-cover; one at a time takes one more pass.
        # The one pass matches the zeros of the state it starts from once,
        # and leaves the reduced state's lattice unbuilt; the reference
        # matches the zeros of each state it passes through.
        s = make_initial_state(instance(3, 3, 3, [(r, c) for r in range(2) for c in range(3)]))
        reduced = reduce_state(s)
        assert [len(zeros) for zeros in matchings] == [6]
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
        s = make_initial_state(instance(2, 2, 2, [(1, 0)]))
        cls = classify_entries(s)
        assert s._covers.row_max == LineCover(frozenset({1}), frozenset())
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

    def test_twin_lines(self):
        # rows 1 and 2 are plain and zero-free, row 0 holds the zero
        cls = classify_entries(make_initial_state(instance(3, 4, 2, [(0, 0)])))
        assert cls.row_twins == (0, 1, 1)
        assert cls.col_twins == (0, 1, 1, 1)

    def test_a_line_with_a_nonstandard_cell_has_no_twin(self):
        # rows 1 and 2 are zero-free, but row 2 and column 1 hold variable 4 twice
        rows = [[{}, {1: 1}], [{2: 1}, {3: 1}], [{4: 1}, {4: 1}]]
        cls = classify_entries(state(2, rows, {1: 1, 2: 1, 3: 1, 4: 1}))
        assert cls.row_twins == (0, 1, 2)
        assert cls.col_twins == (0, 1)
        # a scaled or a fast variable is nonstandard too
        for rows, intensities in (
            ([[{1: 1}, {2: 2}], [{3: 1}, {4: 1}]], {1: 1, 2: 1, 3: 1, 4: 1}),
            ([[{1: 1}, {2: 1}], [{3: 1}, {4: 1}]], {1: 1, 2: 3, 3: 1, 4: 1}),
        ):
            cls = classify_entries(state(2, rows, intensities))
            assert (cls.row_twins, cls.col_twins) == ((0, 1), (0, 1))


class TestConditionPair:
    def test_equal_scaled_intensities_split_evenly(self):
        rows = [[{0: 2}, {1: 2}], [{1: 2}, {0: 2}]]
        s = state(2, rows, {0: 1, 1: 1})
        weights = condition_pair(s, (0, 0), (0, 1)).weights
        assert weights == [Fraction(1, 2)] * 2

    def test_intensity_ratio_two_to_one(self):
        rows = [[{0: 1}, {1: 2}], [{1: 2}, {0: 1}]]
        s = state(2, rows, {0: 1, 1: 1})
        weights = condition_pair(s, (0, 0), (0, 1)).weights
        assert weights == [Fraction(2, 3), Fraction(1, 3)]

    def test_children_share_y_coefficient(self):
        rows = [[{0: 2}, {1: 2}], [{1: 2}, {0: 2}]]
        s = state(2, rows, {0: 1, 1: 1})
        for _, child in every_child(condition_pair(s, (0, 0), (0, 1)))[1]:
            y_id = min(v for v in child.intensities if v >= 2)
            e1 = child.entries[0][0]
            e2 = child.entries[0][1]
            assert dict(e1.terms).get(y_id, 0) == dict(e2.terms).get(y_id, 0) > 0

    def test_comparable_entries_rejected(self):
        s = state(1, [[{0: 1}, {0: 2}]], {0: 1})
        with pytest.raises(ValueError):
            condition_pair(s, (0, 0), (0, 1))

    def test_no_cost_extracted(self):
        rows = [[{0: 2}, {1: 2}], [{1: 2}, {0: 2}]]
        extracted, children = every_child(condition_pair(state(2, rows, {0: 1, 1: 1}), (0, 0), (0, 1)))
        weights = [w for w, _ in children]
        assert type(extracted) is Fraction and extracted == 0
        assert all(w > 0 for w in weights)


class TestConditionMinimum:
    def test_one_by_one(self):
        extracted, children = every_child(condition_minimum(make_initial_state(instance(1, 1, 1))))
        assert extracted == 1
        assert len(children) == 1
        weight, child = children[0]
        assert weight == 1
        assert is_terminal(reduce_state(child))

    def test_two_by_two_intensity_four(self):
        step = condition_minimum(make_initial_state(instance(2, 2, 2)))
        extracted, weights = step.extracted, step.weights
        assert extracted == Fraction(1, 2)  # (k - |cover|) / I = 2/4
        assert weights == [Fraction(1, 4)] * 4

    def test_minimum_position_becomes_zero(self):
        _, children = every_child(condition_minimum(make_initial_state(instance(2, 2, 2))))
        positions = [(r, c) for r in range(2) for c in range(2)]
        for (weight, child), pos in zip(children, positions):
            assert child.entries[pos[0]][pos[1]] == LinearEntry()

    def test_weights_sum_to_one(self):
        weights = condition_minimum(make_initial_state(instance(3, 4, 2, [(1, 2)]))).weights
        assert sum(weights) == 1

    def test_doubly_covered_entries_gain_the_minimum(self):
        # one zero covered by a row; the crossing entries are doubly covered
        s = make_initial_state(instance(2, 2, 2, [(0, 0)]))
        # cover of {(0,0)} is {row 0}; no doubly covered cells (no cols);
        # a state with both a row and a column in the cover:
        s2 = make_initial_state(instance(3, 3, 3, [(0, 0), (0, 1), (1, 0), (2, 0)]))
        cover = s2._covers.row_max
        assert cover.rows and cover.cols
        _, children = every_child(condition_minimum(s2))
        for _, child in children:
            y_id = child.entries[0][0].terms[0][0]  # doubly covered zero gains Y
            for r in cover.rows:
                for c in cover.cols:
                    assert dict(child.entries[r][c].terms).get(y_id, 0) >= 1

    def test_measure_drops_at_branching(self):
        for p in (instance(2, 2, 2), instance(3, 3, 2, [(0, 0)]), instance(3, 3, 3)):
            parent = reduce_state(make_initial_state(p))
            before = induction_measure(parent)
            _, children = every_child(condition_minimum(parent))
            for _, child in children:
                assert induction_measure(child) < before


def _evaluate_any(s: ExpRapState, run) -> Fraction:
    """The evaluator's value of any state: 0 when it reduces to a terminal
    state, else the evaluation of the reduced state."""
    s = reduce_state(s)
    return Fraction(0) if is_terminal(s) else rapkit.oracle._evaluate(s, run)


def _reached_branchings(instances):
    """The reduced, non-terminal states that an oracle run on each of
    `instances` expands, one per canonical key and instance as its cache
    would, each with its classification, its rule and its children."""
    return _branchings_below(make_initial_state(p) for p in instances)


def _branchings_below(roots):
    """:func:`_reached_branchings` for runs started at arbitrary states."""
    for root in roots:
        seen = set()
        stack = [root]
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
                rule, conditioning = "pair", condition_pair(s, *cls.first_incomparable_pair)
            else:
                rule, conditioning = "minimum", condition_minimum(s)
            children = [child for _, child in every_child(conditioning)[1]]
            yield s, cls, rule, children
            stack.extend(children)


def _reached_minimum_states(instances):
    """The reached states where minimum conditioning applies, with their
    classifications."""
    for s, cls, rule, _ in _reached_branchings(instances):
        if rule == "minimum":
            yield s, cls


def _every_small_instance():
    return (
        instance(m, m, k, zp.zeros)
        for m in (2, 3)
        for zp in all_patterns(m, m)
        for k in range(1, m + 1)
    )


def _every_four_by_four_class_at_k_four():
    return (instance(4, 4, 4, zeros) for zeros in pattern_classes(4, 4))


def _every_four_by_four_class():
    return (instance(4, 4, k, zeros) for zeros in pattern_classes(4, 4) for k in (2, 3, 4))


def _by_rank(s: ExpRapState):
    """The state with each variable id replaced by its rank among the ids."""
    rank = {v: i for i, v in enumerate(sorted(s.intensities))}
    entries = tuple(tuple(tuple((rank[v], c) for v, c in e.terms) for e in row) for row in s.entries)
    return entries, tuple((rank[v], i) for v, i in s.intensities.items())


class TestOnePassIsTheFixedPoint:
    """Reduction deletes every forced line in one pass: the state it leaves
    has no forced line of its own and is never terminal."""

    @staticmethod
    def _check(instances) -> Counter:
        instances = list(instances)

        def states():
            yield from map(make_initial_state, instances)
            for parent, _, _, children in _reached_branchings(instances):
                yield parent
                yield from children

        seen = Counter()
        for s in states():
            r = reduce_state(s)
            assert reduce_state(r) is r
            if r is not s:
                assert not is_terminal(r)
                seen["reduced"] += 1
            seen["states"] += 1
        return seen

    def test_every_two_by_two_and_three_by_three_instance(self):
        seen = self._check(_every_small_instance())
        assert seen["states"] > 4000 and seen["reduced"] > 700

    def test_every_four_by_four_class(self):
        seen = self._check(_every_four_by_four_class())
        assert seen["states"] > 6000 and seen["reduced"] > 1500


class TestConditionMinimumAgainstReference:
    """One template per node gives the children the per-child substitution gave."""

    def _check(self, instances) -> int:
        checked = 0
        for s, cls in _reached_minimum_states(instances):
            extracted, children = every_child(condition_minimum(s))
            ref_extracted, ref_children = reference_condition_minimum(s, cls)
            assert extracted == ref_extracted
            assert [w for w, _ in children] == [w for w, _ in ref_children]
            for (_, got), (_, ref) in zip(children, ref_children):
                assert got.k == ref.k
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


def _pair_conditioning_instances():
    """Two 5x5 instances at k=5 whose oracle runs reach pair conditioning;
    no 2x2, 3x3 or 4x4 instance does."""
    return [
        instance(5, 5, 5, [(0, 0), (2, 0), (2, 1), (3, 1), (4, 4)]),
        instance(5, 5, 5, [(1, 1), (2, 0), (3, 4), (4, 4)]),
    ]


class TestConditionPairAgainstReference:
    """The shared minimum-conditioning step gives the children the
    per-child substitution gave."""

    @staticmethod
    def _check(cases) -> int:
        checked = 0
        for s, u1, u2 in cases:
            _, branches = every_child(condition_pair(s, u1, u2))
            ref_branches = reference_condition_pair(s, u1, u2)
            assert [w for w, _ in branches] == [w for w, _ in ref_branches]
            for (_, got), (_, ref) in zip(branches, ref_branches):
                assert got.k == ref.k
                assert canonical_key(got) == canonical_key(ref)
                assert induction_measure(got) == induction_measure(ref)
                # new ids keep the old ids' order, so every id tie-break is unchanged
                assert _by_rank(got) == _by_rank(ref)
            checked += 1
        return checked

    def test_every_reached_pair_state(self):
        # both disagreement scales are 1 at every one of these states
        cases = (
            (s, *cls.first_incomparable_pair)
            for s, cls, rule, _ in _reached_branchings(_pair_conditioning_instances())
            if rule == "pair"
        )
        assert self._check(cases) > 20

    def test_unequal_scales_and_intensities(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        cases = [
            (state(2, [[{0: 3 * half}, {1: third}], [{1: third}, {0: 3 * half}]],
                   {0: 2 * third, 1: 5 * half}), (0, 0), (0, 1)),
            (state(2, [[{0: 2, 1: 1}, {0: 1, 1: 3, 2: 1}], [{2: 1}, {3: 1}]],
                   {0: 1, 1: 3, 2: 1, 3: 1}), (0, 0), (0, 1)),
            (state(1, [[{0: 1, 2: 4}, {1: 1}], [{0: 3, 1: half}, {2: 1}]],
                   {0: 1, 1: 2, 2: third}), (0, 0), (1, 0)),
        ]
        assert self._check(cases) == 3

    def test_lowest_id_disagreement_variable(self):
        # e1 = X0 + 2*X1 against e2 = X2, then the same pair swapped: the
        # entry with two excess variables gives the lowest-id one, X0, whose
        # scale and intensity both differ from X1's
        entries = [{0: 1, 1: 2}, {2: 1}]
        cases = [
            (state(2, [row, [{3: 1}, {4: 1}]], {0: 1, 1: 3, 2: 1, 3: 1, 4: 1}), (0, 0), (0, 1))
            for row in (entries, entries[::-1])
        ]
        assert self._check(cases) == 2


class TestClassificationPartition:
    """The two position tuples split the cells outside the cover by kind."""

    @staticmethod
    def _check(instances) -> int:
        checked = 0
        for s, cls in _reached_minimum_states(instances):
            cover = s._covers.row_max
            outside = [
                (r, c)
                for r in range(s.m)
                if r not in cover.rows
                for c in range(s.n)
                if c not in cover.cols
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
                    and s.intensities[terms[0][0]] == 1
                    and occurrences[terms[0][0]] == 1
                )
                assert ((r, c) in standard) == is_standard
            checked += 1
        return checked

    def test_every_two_by_two_and_three_by_three_instance(self):
        assert self._check(_every_small_instance()) > 600

    def test_every_four_by_four_class_at_k_four(self):
        assert self._check(_every_four_by_four_class_at_k_four()) > 600


class TestLazyMeasure:
    """The part-by-part termination check gives the eager measure's verdict."""

    @staticmethod
    def _check(instances) -> Counter:
        seen = Counter()
        for parent, _, rule, children in _reached_branchings(instances):
            before = induction_measure(parent)
            for child in children:
                after = induction_measure(child)
                # the branching step, then the reversed and the equal comparison
                for s, measure in ((child, before), (parent, after), (child, after)):
                    verdict = rapkit.oracle._measure_drops(s, measure)
                    assert verdict == (induction_measure(s) < measure)
                    seen[verdict, induction_measure(s)[:2] == measure[:2]] += 1
                seen["children"] += 1
                seen[rule] += 1
        return seen

    def test_every_two_by_two_and_three_by_three_instance(self):
        seen = self._check(_every_small_instance())
        assert seen["children"] > 2000
        assert seen[False, True] > 0  # the equal comparisons go to the full measure

    def test_every_four_by_four_class_at_k_four(self):
        seen = self._check(_every_four_by_four_class_at_k_four())
        assert seen["children"] > 3000
        assert seen[True, True] > 0  # children that tie their parent on the cover parts

    def test_pair_conditioning_children(self):
        seen = self._check(_pair_conditioning_instances())
        assert seen["pair"] > 20 and seen["minimum"] > 300

    def test_a_child_is_classified_only_on_a_tie(self, monkeypatch):
        """Zero-free 4x4 at k=4: at most two classifications a node; the
        eager check classified every child (232 calls for 34 nodes)."""
        calls = []

        def counting(s):
            calls.append(1)
            return classify_entries(s)

        monkeypatch.setattr(rapkit.oracle, "classify_entries", counting)
        value, nodes = oracle_node_count(instance(4, 4, 4))
        assert value == Fraction(205, 144) and nodes == 34
        assert len(calls) <= 2 * nodes


def _scanned_masks(s: ExpRapState) -> dict[int, int]:
    """Row -> bitmask of the zero columns, from the entries."""
    masks = {r: sum(1 << c for c, e in enumerate(row) if not e.terms) for r, row in enumerate(s.entries)}
    return {r: mask for r, mask in masks.items() if mask}


def _roots_with_lines_that_are_not_plain() -> list[ExpRapState]:
    """States holding lines with the same zeros where one line has a
    nonstandard cell: a two-term cell, or a variable shared by two cells."""
    return [
        state(2, [[{0: 1}, {1: 1}], [{2: 1}, {3: 1, 4: 1}]], dict.fromkeys(range(5), 1)),
        state(2, [[{0: 1}, {1: 1}, {5: 1}], [{2: 1}, {3: 1, 4: 1}, {6: 1}], [{7: 1}, {8: 1}, {9: 1}]],
              dict.fromkeys(range(10), 1)),
        _fractional_minimum_state(),
    ]


class TestCarriedZeroGraph:
    """Every state the oracle derives finds, from the zero graph it scans
    from its entries, the cover lattice its zero pattern gives."""

    @staticmethod
    def _check(instances) -> Counter:
        seen = Counter()
        for parent, _, _, children in _reached_branchings(instances):
            for s in (parent, *children, *map(reduce_state, children)):
                assert s._covers.masks == _scanned_masks(s)
                assert s._covers == cover_lattice(scanned_pattern(s))
                seen["states"] += 1
        return seen

    def test_every_two_by_two_and_three_by_three_instance(self):
        assert self._check(_every_small_instance())["states"] > 5000

    def test_every_four_by_four_class(self):
        assert self._check(_every_four_by_four_class())["states"] > 9000

    def test_reduction_deletes_lines_from_the_masks(self):
        zeros = [(0, 0), (1, 1), (1, 2), (2, 3), (3, 0)]
        s = reduce_state(make_initial_state(instance(4, 4, 4, zeros)))
        assert (s.k, s.m, s.n) == (2, 3, 3)
        assert s._covers.masks == _scanned_masks(s) == {1: 0b100}


class TestTrustedChildren:
    """The evaluator decides each child from its zero graph, builds the
    children it keeps without the state constructor's checks, and deletes
    a child's forced lines once it is built.
    Each such child is the one the checked constructors and the
    one-line-per-pass reference reduction give, and its lattice is the one
    its own zero graph gives."""

    @staticmethod
    def _check(roots) -> Counter:
        seen = Counter()
        for s, cls, rule, _ in _branchings_below(roots):
            step = condition_pair(s, *cls.first_incomparable_pair) if rule == "pair" else condition_minimum(s)
            measure = induction_measure(s)
            for j in range(len(step.intensities)):
                child = step.build(j)
                assert step.zero_masks(j) == _scanned_masks(child)
                checked = ExpRapState(child.k, tuple(tuple(map(_checked_entry, row)) for row in child.entries),
                                      child.intensities)
                assert _fields(checked) == _fields(child)
                reduced = rapkit.oracle._orbit_child(step, [j], measure)
                if reduced is None:
                    assert is_terminal(checked)
                    seen["terminal"] += 1
                    continue
                ref = reference_reduce_state(checked)
                assert _fields(reduced) == _fields(ref)
                assert canonical_key(reduced) == canonical_key(ref)
                masks = _scanned_masks(reduced)
                assert reduced._covers == mask_cover_lattice(masks) and reduced._covers.masks == masks
                seen["reduced" if reduced.k < step.k else "unreduced"] += 1
        return seen

    def test_every_four_by_four_class(self):
        seen = self._check(map(make_initial_state, _every_four_by_four_class()))
        assert seen["terminal"] > 2000 and seen["reduced"] > 1300 and seen["unreduced"] > 800

    def test_pair_conditioning_instances(self):
        seen = self._check(map(make_initial_state, _pair_conditioning_instances()))
        assert seen["terminal"] > 300 and seen["reduced"] > 800 and seen["unreduced"] > 200

    def test_zero_free_five_by_five(self):
        seen = self._check([make_initial_state(instance(5, 5, 5))])
        assert seen["terminal"] > 3000 and seen["reduced"] > 11000 and seen["unreduced"] > 3000


def _checked_entry(e: LinearEntry) -> LinearEntry:
    """The entry rebuilt through the checking constructor, which also
    brings its terms into normal form."""
    checked = LinearEntry(e.terms)
    assert checked.terms == e.terms
    return checked


class TestOrbitsOfTwinLines:
    """Swapping twin lines maps a state to itself, so the minimum-conditioning
    children of one orbit are isomorphic: the oracle evaluates one of them."""

    @staticmethod
    def _check(branchings, cache: dict) -> Counter:
        seen = Counter()
        for s, cls, rule, children in branchings:
            if rule != "minimum":
                continue
            before = induction_measure(s)
            weights = condition_minimum(s).weights
            orbits = rapkit.oracle._member_orbits(cls)
            assert sorted(j for orbit in orbits for j in orbit) == list(range(len(children)))
            for orbit in orbits:
                first = children[orbit[0]]
                value = reference_expected_value(first, cache)
                for j in orbit:
                    child = children[j]
                    assert weights[j] == weights[orbit[0]]
                    assert reference_expected_value(child, cache) == value
                    assert rapkit.oracle._cover_parts(child._covers) == rapkit.oracle._cover_parts(first._covers)
                    assert induction_measure(child) < before
                seen["later members"] += len(orbit) - 1
            seen["states"] += 1
        return seen

    def test_every_two_by_two_and_three_by_three_instance(self):
        seen = self._check(_reached_branchings(_every_small_instance()), {})
        assert seen["states"] > 600 and seen["later members"] > 1000

    def test_every_four_by_four_class(self):
        seen = self._check(_reached_branchings(_every_four_by_four_class()), {})
        assert seen["states"] > 700 and seen["later members"] > 2500

    def test_pair_conditioning_instances(self):
        seen = self._check(_reached_branchings(_pair_conditioning_instances()), {})
        assert seen["states"] > 150 and seen["later members"] > 200

    def test_lines_that_are_not_plain(self):
        """Below these roots, lines with equal zeros but a nonstandard cell
        are not twins: their members' children differ in value."""
        seen = self._check(_branchings_below(_roots_with_lines_that_are_not_plain()), {})
        assert seen["states"] > 20 and seen["later members"] > 30

    @pytest.mark.parametrize(
        "instances",
        [_every_small_instance, _every_four_by_four_class, _pair_conditioning_instances],
    )
    def test_grouped_value_equals_ungrouped(self, instances):
        grouped: dict = {}
        ungrouped: dict = {}
        for p in instances():
            assert oracle_expected_value(p, cache=grouped) == reference_expected_value(
                make_initial_state(p), ungrouped
            )

    def test_grouped_value_equals_ungrouped_on_lines_that_are_not_plain(self):
        for s in _roots_with_lines_that_are_not_plain():
            run = rapkit.oracle._OracleRun(DEFAULT_NODE_BUDGET, None, None)
            assert _evaluate_any(s, run) == reference_expected_value(s, {})

    def test_a_head_tie_checks_every_member(self, monkeypatch):
        """With every head tied, each member of each orbit is built and
        checked in full; otherwise one child per orbit is checked."""
        real = rapkit.oracle._measure_drops

        def run(verdict):
            checked = []

            def recording(child, parent_measure):
                checked.append(child)
                return verdict(child, parent_measure)

            monkeypatch.setattr(rapkit.oracle, "_measure_drops", recording)
            trace = io.StringIO()
            assert oracle_node_count(instance(4, 4, 4), trace=trace) == (Fraction(205, 144), 34)
            members = sum(len(json.loads(line)["weights"]) for line in trace.getvalue().splitlines())
            return checked, members

        checked, members = run(real)
        assert len(checked) < members  # one child per orbit
        # every head ties the parent's; the full check is stubbed, since
        # the measure's own head is now constant too
        monkeypatch.setattr(rapkit.oracle, "_cover_parts", lambda s: (0, 0))
        checked, members = run(lambda child, parent_measure: True)
        assert len(checked) == members
        assert len({id(child) for child in checked}) == members  # each member built


class TestUnchangedBehaviour:
    """Pinned node counts and trace digests.  The zero-free squares' twin
    orbits were all cache hits, so they evaluate the nodes, and write the
    trace, that evaluating every child did."""

    @pytest.mark.parametrize(
        "n, nodes, digest",
        [
            (3, 7, "04169dbe5b449b302fae924ad5d76ebb763c227a9217296cc8c175128a0ef81c"),
            (4, 34, "7cbaa0266d6202f259d2a069a4d8a05f89e130bb2638d514766bc95cb71fe7c4"),
            (5, 2699, "2eaac7a77e42ee0a5561b4517e9f9bde42447d61fe3f4ba75ad51d746bed5109"),
        ],
    )
    def test_zero_free_square_at_k_equal_n(self, n, nodes, digest):
        trace = io.StringIO()
        value, count = oracle_node_count(instance(n, n, n), trace=trace)
        assert count == nodes == len(trace.getvalue().splitlines())
        assert hashlib.sha256(trace.getvalue().encode()).hexdigest() == digest
        assert value == parisi_value(n)

    @pytest.mark.parametrize(
        "p, value, nodes, pairs, slack, digest",
        [
            (_pair_conditioning_instances()[0], Fraction(29, 48), 50, 3, 5,
             "8dd9f214516313a201602bbcfefdf77d0bb64706d2943a4dd9e494268fbbcc22"),
            (_pair_conditioning_instances()[1], Fraction(2369, 3600), 155, 20, 19,
             "7d56bfb1821fd77965acb805f2a178ef6c45cbb7396d62bba50588dac118c04b"),
        ],
    )
    def test_pair_and_slack_paths(self, monkeypatch, p, value, nodes, pairs, slack, digest):
        """Runs that reach pair conditioning and the slack case of the
        reduction (a forced-line test above the minimum cover size).  Every
        non-terminal reduction asks for its forced lines; only the slack
        calls are counted."""
        slack_calls = []

        def counting(lattice, size):
            if size > lattice.size:
                slack_calls.append(size)
            return forced_cover_lines(lattice, size)

        monkeypatch.setattr(rapkit.oracle, "forced_cover_lines", counting)
        trace = io.StringIO()
        assert oracle_node_count(p, trace=trace) == (value, nodes)
        lines = [json.loads(line) for line in trace.getvalue().splitlines()]
        assert (len(lines), [line["rule"] for line in lines].count("pair")) == (nodes, pairs)
        assert len(slack_calls) == slack
        assert hashlib.sha256(trace.getvalue().encode()).hexdigest() == digest


class TestSparseSixBySix:
    """Sparse 6x6 patterns at k=6, drawn by random.Random(66) at zero
    density 0.1-0.4, that finish in a few thousand nodes; all but the
    first reach pair conditioning.  The oracle equals the cover formula,
    and the node counts, pair nodes and trace digests are pinned."""

    @pytest.mark.parametrize(
        "zeros, nodes, pairs, digest",
        [
            ([(0, 3), (1, 0), (1, 3), (1, 4), (2, 5), (3, 3), (5, 1), (5, 3), (5, 4)], 58, 0,
             "e37683f0f55b0564f43353303edeef60f6f85e2f97df9b14b9b804f348974b4b"),
            ([(0, 2), (0, 5), (1, 3), (2, 3), (2, 5), (3, 3), (3, 4), (4, 2)], 102, 3,
             "efd3e2cdc18a2648c1ead2969b9818ed5014e4f21b3bf2e18d64313808d377a3"),
            ([(0, 4), (2, 0), (2, 3), (3, 5), (5, 1)], 488, 61,
             "bf32699f567d33fc36d9ac0dd673a0441490f840031158f86060c082987f7b67"),
            ([(1, 0), (1, 3), (2, 3), (2, 4), (3, 3), (3, 4), (4, 1), (5, 3)], 2398, 553,
             "ac9a1ad365b48795f2ecc8f34b1bf113ecfaf9eea362f712c0e861da2dfe1c5f"),
        ],
    )
    def test_oracle_equals_the_cover_formula(self, zeros, nodes, pairs, digest):
        p = instance(6, 6, 6, zeros)
        trace = io.StringIO()
        assert oracle_node_count(p, trace=trace) == (cover_formula_value(p), nodes)
        rules = [json.loads(line)["rule"] for line in trace.getvalue().splitlines()]
        assert (len(rules), rules.count("pair")) == (nodes, pairs)
        assert hashlib.sha256(trace.getvalue().encode()).hexdigest() == digest


class TestWorkDone:
    def test_zero_free_four_by_four(self, matchings, monkeypatch):
        """Zero-free 4x4 at k=4.  A child is decided from its zero graph
        before it is built, and a reduced child scans its own lattice: the
        evaluator once ran 212 matchings and built 188 checked states here."""
        checked, built = [], []
        check, trusted = ExpRapState.__post_init__, rapkit.oracle._trusted

        def counting(s):
            checked.append(s)
            check(s)

        def recording(cls, **fields):
            obj = trusted(cls, **fields)
            if cls is ExpRapState:
                built.append(obj)
            return obj

        monkeypatch.setattr(ExpRapState, "__post_init__", counting)
        monkeypatch.setattr(rapkit.oracle, "_trusted", recording)
        assert oracle_node_count(instance(4, 4, 4)) == (Fraction(205, 144), 34)
        assert (len(matchings), len(checked), len(built)) == (152, 1, 165)
        # no state is built for a terminal child
        assert all(mask_cover_lattice(_scanned_masks(s)).size < s.k for s in built)


class TestBenchmarkSpans:
    """Every oracle stage the benchmark's span recorder wraps by its
    module-level name is entered through that name."""

    # every rapkit.oracle target of perfbench/spans.py that exists
    # (its rapkit.oracle.row_maximal_cover target is long gone)
    WRAPPED = (
        "canonical_key",
        "classify_entries",
        "condition_minimum",
        "condition_pair",
        "forced_cover_lines",
        "induction_measure",
        "max_independent_zeros",
        "reduce_state",
    )

    def test_every_wrapped_stage_is_called(self, monkeypatch):
        calls = Counter()

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in self.WRAPPED:
            monkeypatch.setattr(rapkit.oracle, name, counting(name, getattr(rapkit.oracle, name)))
        for p in (instance(3, 3, 3), *_pair_conditioning_instances()):
            assert oracle_expected_value(p) == cover_formula_value(p)
        assert {name: calls[name] > 0 for name in self.WRAPPED} == dict.fromkeys(self.WRAPPED, True)


class TestOneLatticePerState:
    def test_one_matching_serves_every_stage(self, matchings):
        """The terminal test, reduction, classification and the measure all
        read the state's one cover lattice."""
        s = make_initial_state(instance(3, 3, 2, [(0, 0)]))
        assert not is_terminal(s)
        assert reduce_state(s) is s
        classify_entries(s)
        induction_measure(s)
        assert s._covers.row_max == LineCover(frozenset({0}), frozenset())
        assert len(matchings) == 1


def _rationals(state: ExpRapState):
    """Every coefficient and intensity of the state."""
    coefficients = [c for row in state.entries for e in row for _, c in e.terms]
    return coefficients + list(state.intensities.values())


def _fractional_pair_state() -> ExpRapState:
    rows = [[{0: Fraction(3, 2)}, {1: Fraction(1, 3)}], [{1: Fraction(1, 3)}, {0: Fraction(3, 2)}]]
    return state(2, rows, {0: Fraction(2, 3), 1: Fraction(5, 2)})


def _fractional_minimum_state() -> ExpRapState:
    rows = [[{0: Fraction(3, 2)}, {1: 1}], [{2: 1}, {0: Fraction(3, 2), 3: Fraction(1, 3)}]]
    return state(2, rows, {0: Fraction(2, 3), 1: 1, 2: 1, 3: Fraction(5, 2)})


class TestExactArithmetic:
    def test_integral_values_stored_as_ints(self):
        assert type(LinearEntry(((0, Fraction(2)),)).terms[0][1]) is int
        assert type(ExpRapState(1, ((entry({0: 1}),),), {0: Fraction(2)}).intensities[0]) is int
        assert type(LinearEntry(((0, Fraction(1, 2)),)).terms[0][1]) is Fraction
        assert type(ExpRapState(1, ((entry({0: 1}),),), {0: Fraction(1, 2)}).intensities[0]) is Fraction

    def test_integral_division_stays_exact(self):
        extracted, children = every_child(condition_minimum(make_initial_state(instance(2, 2, 2))))
        assert type(extracted) is Fraction and extracted == Fraction(1, 2)
        assert all(type(w) is Fraction for w, _ in children)
        for _, child in children:
            assert all(type(x) is int for x in _rationals(child))

    def test_pair_with_fractional_coefficients_and_intensities(self):
        s = _fractional_pair_state()
        _, branches = every_child(condition_pair(s, (0, 0), (0, 1)))
        assert all(type(w) is Fraction for w, _ in branches)
        # 3/2 X0 has intensity 4/9 and 1/3 X1 intensity 15/2
        assert [w for w, _ in branches] == [Fraction(8, 143), Fraction(135, 143)]
        assert sum(w for w, _ in branches) == 1
        for _, child in branches:
            assert all(type(x) in (int, Fraction) for x in _rationals(child))

    def test_minimum_with_fractional_coefficients_and_intensities(self):
        s = _fractional_minimum_state()
        assert classify_entries(s).minimal == (0, 0)
        extracted, children = every_child(condition_minimum(s))
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


class TestIndependentZerosAtTheRoot:
    """An instance whose zeros hold k independent entries is answered from
    one matching, as the full evaluation would answer it."""

    def test_answered_without_a_state(self, matchings, monkeypatch):
        def no_state(p):
            raise AssertionError("built the symbolic state")

        monkeypatch.setattr(rapkit.oracle, "make_initial_state", no_state)
        cache: dict = {}
        trace = io.StringIO()
        p = instance(4, 5, 3, [(0, 0), (1, 1), (3, 0), (3, 2)])
        assert oracle_node_count(p, cache=cache, trace=trace) == (0, 0)
        assert oracle_expected_value(p, budget=1) == 0
        assert trace.getvalue() == "" and cache == {}
        assert len(matchings) == 1  # one per pattern: the second call reads the kept size

    def test_formula_then_oracle_makes_one_matching(self, matchings, monkeypatch):
        def no_state(p):
            raise AssertionError("built the symbolic state")

        monkeypatch.setattr(rapkit.oracle, "make_initial_state", no_state)
        p = instance(4, 5, 3, [(0, 0), (1, 1), (3, 0), (3, 2)])
        assert cover_formula_value(p) == 0
        assert oracle_node_count(p) == (0, 0)
        assert matchings == [p.zeros]

    def test_door_check_adds_no_matching_after_the_formula(self, matchings, monkeypatch):
        class AtTheDoor(Exception):
            pass

        def stop(p):
            raise AtTheDoor

        monkeypatch.setattr(rapkit.oracle, "make_initial_state", stop)
        p = instance(4, 5, 4, [(0, 0), (1, 1), (3, 0), (3, 2)])  # 3 independent zeros, k = 4
        assert cover_formula_value(p) > 0
        made = len(matchings)
        with pytest.raises(AtTheDoor):  # past the door check, at the state
            oracle_node_count(p)
        assert len(matchings) == made

    def test_agrees_with_the_full_evaluation(self):
        """Value, node count, trace and cache equal those of evaluating the
        root state, on every pattern up to 3x3 at every k."""
        for m in range(1, 4):
            for n in range(1, 4):
                for z in all_patterns(m, n):
                    for k in range(1, min(m, n) + 1):
                        p = instance(m, n, k, z.zeros)
                        full = rapkit.oracle._OracleRun(DEFAULT_NODE_BUDGET, None, io.StringIO())
                        value = _evaluate_any(make_initial_state(p), full)
                        cache: dict = {}
                        trace = io.StringIO()
                        assert oracle_node_count(p, cache=cache, trace=trace) == (value, full.nodes)
                        assert trace.getvalue() == full.trace.getvalue()
                        assert cache == full.cache


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


class TestCanonicalKeyAgainstReference:
    """Keying zero- and one-term cells without sorting gives the key that
    sorting every cell gave."""

    @staticmethod
    def _check(branchings) -> Counter:
        seen = Counter()
        for parent, _, _, children in branchings:
            for s in (parent, *children):
                assert canonical_key(s) == reference_canonical_key(s)
                terms = [e.terms for row in s.entries for e in row]
                seen["states"] += 1
                seen["multi-term"] += any(len(t) > 1 for t in terms)
                seen["fraction"] += any(type(c) is Fraction for t in terms for _, c in t)
        return seen

    def test_every_two_by_two_and_three_by_three_instance(self):
        # every cell of these states has at most one term
        assert self._check(_reached_branchings(_every_small_instance()))["states"] > 3000

    def test_every_four_by_four_class_at_k_four(self):
        seen = self._check(_reached_branchings(_every_four_by_four_class_at_k_four()))
        assert seen["states"] > 4000 and seen["multi-term"] > 300

    def test_pair_conditioning_instances(self):
        seen = self._check(_reached_branchings(_pair_conditioning_instances()))
        assert seen["multi-term"] > 1000

    def test_fractional_coefficients(self):
        roots = [_fractional_pair_state(), _fractional_minimum_state()]
        seen = self._check(_branchings_below(roots))
        assert seen["fraction"] > 10 and seen["multi-term"] > 10


class TestSharedInitialState:
    """Shared standard cells give the state the per-cell builder gave."""

    @staticmethod
    def _instances():
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                for zp in all_patterns(m, n):
                    yield from (instance(m, n, k, zp.zeros) for k in range(1, min(m, n) + 1))
        for zp in all_patterns(3, 4):
            yield instance(3, 4, 3, zp.zeros)
        yield from _every_four_by_four_class_at_k_four()

    def test_matches_the_per_cell_builder(self):
        checked = 0
        for p in self._instances():
            s, ref = make_initial_state(p), reference_initial_state(p)
            assert _fields(s) == _fields(ref)
            assert scanned_pattern(s) == p.pattern
            checked += 1
        assert checked > 4000

    def test_same_instance_twice(self):
        p = instance(3, 4, 3, [(0, 1), (2, 3)])
        a, b = make_initial_state(p), make_initial_state(p)
        assert a == b and canonical_key(a) == canonical_key(b)
        assert all(x is y for ra, rb in zip(a.entries, b.entries) for x, y in zip(ra, rb))

    def test_a_large_root_leaves_the_cache_at_its_bound(self):
        """A root with more nonzeros than _UNIT_CELLS leaves that many shared
        cells held, and the bound covers a zero-free 6x6 root, larger than
        any the tests evaluate."""
        bound = rapkit.oracle._UNIT_CELLS
        assert bound >= 6 * 6
        make_initial_state(instance(300, 300, 2))
        assert rapkit.oracle._unit.cache_info().currsize == bound
        self.test_same_instance_twice()


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


class TestReferenceIndependence:
    def test_references_use_no_private_oracle_name(self):
        """The slow references check the oracle's rules only while they share
        none of its helpers: they substitute the whole matrix, number fresh
        variables and compare coefficients on their own."""
        names = [name for name in _imports(conftest) if name.startswith("rapkit.oracle:")]
        assert "rapkit.oracle:condition_pair" in names  # the walk saw the oracle import
        assert [name for name in names if name.split(":")[1].startswith("_")] == []
        tree = ast.parse(Path(conftest.__file__).read_text(encoding="utf-8"))
        reached = [
            ast.unparse(node)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and ast.unparse(node.value) == "rapkit.oracle"
        ]
        assert reached == []
