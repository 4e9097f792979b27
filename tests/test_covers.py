"""König machinery: matchings, covers, lattice extremes, cover coefficients."""

import dataclasses
import gc
import itertools
import math
import pickle
import random
import time
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rapkit.oracle
from rapkit import covers
from rapkit.covers import (
    LineCover,
    cover_coefficients,
    cover_lattice,
    cover_profile,
    forced_cover_lines,
    max_independent_zeros,
    row_excluded_profile,
)
from rapkit.formulas import cover_formula_value, row_inclusion_probability
from rapkit.model import (
    BudgetExceededError,
    InvalidInstanceError,
    ZeroPattern,
    insert_zero,
    instance,
)
from rapkit.oracle import oracle_expected_value

from conftest import (
    all_patterns,
    brute_force_cover_profile,
    brute_force_min_cover_size,
    brute_force_row_excluded_profile,
    delete_column,
    instances,
    is_partial_cover,
    pattern_classes,
    random_instance,
    reference_column_maximal_cover,
    reference_component_table,
    reference_forced_cover_lines,
    reference_row_maximal_cover,
    transpose_instance,
    zeros_of,
)


def _covers(cover, z: ZeroPattern) -> bool:
    return all(r in cover.rows or c in cover.cols for r, c in z.zeros)


def _all_optimal_covers(z: ZeroPattern):
    best = brute_force_min_cover_size(z)
    found = []
    for i in range(z.m + 1):
        for rows in itertools.combinations(range(z.m), i):
            for j in range(best - i + 1):
                for cols in itertools.combinations(range(z.n), j):
                    if i + j == best and all(
                        r in rows or c in cols for r, c in z.zeros
                    ):
                        found.append((set(rows), set(cols)))
    return found


class TestMaxIndependentZeros:
    def test_empty(self):
        assert max_independent_zeros(ZeroPattern(3, 3)) == 0

    def test_all_zero_2x2(self):
        assert max_independent_zeros(ZeroPattern(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))) == 2

    def test_l_shape(self):
        assert max_independent_zeros(ZeroPattern(2, 2, ((0, 0), (0, 1), (1, 0)))) == 2

    def test_augmenting_path_through_every_row(self):
        # Rows 0..size-1 take columns 0..size-1 in turn; row `size` then
        # reaches the free column `size` only along a path through them all.
        size = 1200
        zeros = [(i, i) for i in range(size)] + [(i, i + 1) for i in range(size)] + [(size, 0)]
        assert max_independent_zeros(zeros) == size + 1
        p = instance(size + 1, size + 1, 2, zeros)
        assert all(count == 0 for _, _, count in cover_profile(p).coefficients)
        assert row_excluded_profile(p, 0) == (0, 0)


class TestMaxIndependentZerosInput:
    """Positions given as an iterable follow the pattern's rule: pairs of
    nonnegative integers, else InvalidInstanceError."""

    @pytest.mark.parametrize(
        "zeros",
        [[(-1, 0), (0, 0)], [(0, -2)], [(0.5, 1)], [(True, 1)], [(1, False)], [("a", "b")], [(0, 0, 1)], [7]],
        ids=["negative-row", "negative-col", "float", "bool-row", "bool-col", "strings", "triple", "scalar"],
    )
    def test_malformed_position_is_refused(self, zeros):
        with pytest.raises(InvalidInstanceError):
            max_independent_zeros(zeros)

    def test_large_column_index_is_relabelled(self):
        assert max_independent_zeros([(0, 10**18), (1, 10**18), (1, 3)]) == 2

    def test_numpy_coordinates_and_repeats_accepted(self):
        assert max_independent_zeros([(np.int64(0), np.int64(1)), (0, 1), (1, 1)]) == 1
        assert max_independent_zeros(iter([(0, 0), (1, 1)])) == 2


class TestMinCover:
    """A minimum cover of the zeros: the row-maximal end of the cover lattice."""

    def test_empty(self):
        lattice = cover_lattice(ZeroPattern(3, 3))
        assert lattice.size == 0
        assert lattice.row_max == lattice.col_max == LineCover(frozenset(), frozenset())

    def test_single_full_row(self):
        z = ZeroPattern(3, 3, ((1, 0), (1, 1), (1, 2)))
        cover = cover_lattice(z).row_max
        assert (cover.rows, cover.cols) == (frozenset({1}), frozenset())

    def test_diagonal_needs_two_lines(self):
        z = ZeroPattern(2, 2, ((0, 0), (1, 1)))
        cover = cover_lattice(z).row_max
        assert len(cover.rows) + len(cover.cols) == 2 and _covers(cover, z)

    def test_konig_duality_exhaustive_small(self):
        for m in range(1, 4):
            for n in range(1, 4):
                for z in all_patterns(m, n):
                    cover = cover_lattice(z).row_max
                    assert _covers(cover, z)
                    size = len(cover.rows) + len(cover.cols)
                    assert size == max_independent_zeros(z) == brute_force_min_cover_size(z)

    def test_konig_duality_random_larger(self):
        rng = random.Random(4)
        for _ in range(150):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            zeros = [(r, c) for r in range(m) for c in range(n) if rng.random() < 0.4]
            z = ZeroPattern(m, n, tuple(zeros))
            cover = cover_lattice(z).row_max
            assert _covers(cover, z)
            assert len(cover.rows) + len(cover.cols) == brute_force_min_cover_size(z)


class TestLatticeExtremes:
    def test_empty(self):
        cover = cover_lattice(ZeroPattern(3, 3)).row_max
        assert not cover.rows and not cover.cols

    def test_single_zero_prefers_row(self):
        cover = cover_lattice(ZeroPattern(3, 3, ((0, 0),))).row_max
        assert (cover.rows, cover.cols) == (frozenset({0}), frozenset())

    def test_all_zero_2x2_takes_both_rows(self):
        cover = cover_lattice(ZeroPattern(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))).row_max
        assert (cover.rows, cover.cols) == (frozenset({0, 1}), frozenset())

    def test_contains_every_optimal_cover_rows(self):
        rng = random.Random(5)
        for _ in range(80):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            zeros = [(r, c) for r in range(m) for c in range(n) if rng.random() < 0.4]
            z = ZeroPattern(m, n, tuple(zeros))
            lattice = cover_lattice(z)
            rmc, cmc = lattice.row_max, lattice.col_max
            best = brute_force_min_cover_size(z)
            assert len(rmc.rows) + len(rmc.cols) == best
            assert len(cmc.rows) + len(cmc.cols) == best
            for rows, cols in _all_optimal_covers(z):
                assert rows <= rmc.rows
                assert cols <= cmc.cols


class TestIsPartialCover:
    def test_empty_pattern_always_extends(self):
        p = instance(3, 3, 3)
        assert is_partial_cover(p, {0}, {1})
        assert is_partial_cover(p, set(), set())

    def test_non_extending_row(self):
        p = instance(3, 3, 2, [(0, 0)])
        assert not is_partial_cover(p, {1}, set())
        assert is_partial_cover(p, {0}, set())
        assert is_partial_cover(p, set(), {0})

    def test_size_bound(self):
        p = instance(3, 3, 2)
        assert not is_partial_cover(p, {0, 1}, set())
        assert not is_partial_cover(p, {0}, {0})

    def test_out_of_range_rejected(self):
        p = instance(2, 2, 2)
        with pytest.raises(IndexError):
            is_partial_cover(p, {5}, set())


class TestCoverProfile:
    def test_no_zeros_binomial_products(self):
        for (m, n, k) in [(2, 2, 2), (3, 3, 2), (3, 4, 3)]:
            expected = tuple(
                (i, j, math.comb(m, i) * math.comb(n, j)) for i in range(k) for j in range(k - i)
            )
            assert cover_profile(instance(m, n, k)).coefficients == expected

    def test_single_zero_3x3_k2(self):
        assert cover_coefficients(instance(3, 3, 2, [(0, 0)])) == {(0, 0): 1, (1, 0): 1, (0, 1): 1}

    def test_k_independent_zeros_all_vanish(self):
        profile = cover_profile(instance(2, 2, 2, [(0, 0), (1, 1)]))
        assert all(count == 0 for _, _, count in profile.coefficients)

    def test_out_of_range_indices_are_zero(self):
        """d_{i,j} with i + j >= k is identically zero, and the profile stores none."""
        for p in (instance(2, 2, 2), instance(3, 4, 3, [(0, 0), (1, 2)]), instance(4, 3, 1)):
            assert all(i + j < p.k for i, j, _ in cover_profile(p).coefficients)

    @given(instances(max_m=3, max_n=3))
    @settings(max_examples=60, deadline=None)
    def test_binomial_bound_and_d00(self, p):
        profile = cover_profile(p)
        for i, j, count in profile.coefficients:
            assert 0 <= count <= math.comb(p.m, i) * math.comb(p.n, j)
        d00 = cover_coefficients(p).get((0, 0), 0)
        assert d00 in (0, 1)
        assert (d00 == 0) == (max_independent_zeros(p.pattern) >= p.k)

    @given(instances(max_m=3, max_n=3))
    @settings(max_examples=40, deadline=None)
    def test_transpose_symmetry(self, p):
        mine = cover_coefficients(p)
        theirs = cover_coefficients(transpose_instance(p))
        assert mine == {(j, i): count for (i, j), count in theirs.items()}

    def test_json_shape(self):
        doc = cover_profile(instance(2, 2, 2)).to_json_obj()
        assert doc == {"k": 2, "d": [[0, 0, "1"], [0, 1, "2"], [1, 0, "2"]]}


class TestCoverCoefficients:
    @staticmethod
    def _check(p) -> None:
        coefficients = cover_coefficients(p)
        assert coefficients == {(i, j): count for i, j, count in cover_profile(p).coefficients if count}
        assert (coefficients == {}) == (max_independent_zeros(p.pattern) >= p.k)

    def test_nonzero_profile_entries_on_every_pattern_up_to_3x3(self):
        for m in range(1, 4):
            for n in range(1, 4):
                for z in all_patterns(m, n):
                    for k in range(1, min(m, n) + 1):
                        self._check(instance(m, n, k, z.zeros))

    def test_nonzero_profile_entries_on_every_4x4_class(self):
        for zeros in pattern_classes(4, 4):
            for k in range(1, 5):
                self._check(instance(4, 4, k, zeros))


class TestRowExcludedProfile:
    def test_no_zeros(self):
        p = instance(4, 4, 3)
        assert row_excluded_profile(p, 0) == tuple(math.comb(3, i) for i in range(3))

    def test_single_zero_3x3_k2(self):
        assert row_excluded_profile(instance(3, 3, 2, [(0, 0)]), 2) == (1, 1)

    def test_length_is_k(self):
        assert len(row_excluded_profile(instance(4, 5, 2), 1)) == 2

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            row_excluded_profile(instance(2, 2, 2), 2)

    @pytest.mark.parametrize("row", [True, 1.5, 1.0, "1"])
    def test_row_must_be_an_integer(self, row):
        with pytest.raises(ValueError, match="row must be an integer"):
            row_excluded_profile(instance(3, 3, 2, [(0, 0)]), row)

    def test_numpy_integer_row_accepted(self):
        p = instance(3, 3, 2, [(0, 0)])
        assert row_excluded_profile(p, np.int64(1)) == row_excluded_profile(p, 1)


def staircase_band(size: int) -> list[tuple[int, int]]:
    """Zeros (i, i) and (i, i+1): one component over all 2*size lines."""
    return [(i, i) for i in range(size)] + [(i, i + 1) for i in range(size - 1)]


class TestFactoredProfileAgainstBruteForce:
    """The component-factored counts equal the subset enumeration they replaced."""

    def test_every_pattern_up_to_3x3(self):
        for m in range(1, 4):
            for n in range(1, 4):
                for z in all_patterns(m, n):
                    for k in range(1, min(m, n) + 1):
                        p = instance(m, n, k, z.zeros)
                        assert cover_profile(p) == brute_force_cover_profile(p)
                        for r in range(m):
                            assert row_excluded_profile(p, r) == brute_force_row_excluded_profile(p, r)

    def test_every_4x4_class(self):
        for zeros in pattern_classes(4, 4):
            for k in range(1, 5):
                p = instance(4, 4, k, zeros)
                assert cover_profile(p) == brute_force_cover_profile(p)
                for r in range(4):
                    assert row_excluded_profile(p, r) == brute_force_row_excluded_profile(p, r)

    @given(instances(max_m=5, max_n=5), st.integers(0, 4))
    @settings(max_examples=80, deadline=None)
    def test_random_up_to_5x5(self, p, r):
        assert cover_profile(p) == brute_force_cover_profile(p)
        r %= p.m
        assert row_excluded_profile(p, r) == brute_force_row_excluded_profile(p, r)

    def test_sparse_12x12_invariant_under_relabelling_and_transposition(self):
        rng = random.Random(12)
        zeros = [(r, c) for r in range(12) for c in range(12) if rng.random() < 0.15]
        p = instance(12, 12, 12, zeros)
        assert max_independent_zeros(p.pattern) < p.k  # a nonzero profile
        profile = cover_profile(p)
        rows, cols = rng.sample(range(12), 12), rng.sample(range(12), 12)
        relabelled = instance(12, 12, 12, [(rows[r], cols[c]) for r, c in zeros])
        assert cover_profile(relabelled) == profile
        theirs = cover_coefficients(transpose_instance(p))
        assert cover_coefficients(p) == {(j, i): count for (i, j), count in theirs.items()}


@st.composite
def block_patterns(draw, max_side: int = 7) -> ZeroPattern:
    """Patterns up to max_side x max_side whose zeros lie in two or three
    diagonal blocks (rows and columns labelled by block), so the zero graph
    falls apart into several components."""
    m = draw(st.integers(2, max_side))
    n = draw(st.integers(2, max_side))
    blocks = draw(st.integers(2, 3))
    row_block = draw(st.lists(st.integers(0, blocks - 1), min_size=m, max_size=m))
    col_block = draw(st.lists(st.integers(0, blocks - 1), min_size=n, max_size=n))
    cells = [(r, c) for r in range(m) for c in range(n) if row_block[r] == col_block[c]]
    assume(cells)
    zeros = draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells)))
    assume(len(covers._components(covers._row_masks(zeros))) >= 2)
    return ZeroPattern(m, n, tuple(zeros))


def _components(p) -> list[tuple]:
    return sorted(tuple(sorted(zeros_of(part))) for part in covers._components(covers._row_masks(p.zeros)))


def _no_table(*args):
    raise AssertionError("a component was found or enumerated")


class TestMatchingBound:
    """Each component c leaves a_c + b_c + nu'_c >= nu_c, so only the slack
    k - 1 - nu, nu the whole pattern's matching, is left for the rest of a
    choice; one matching of the pattern gives every nu_c."""

    @given(block_patterns())
    @settings(max_examples=60, deadline=None)
    def test_several_components_match_brute_force_at_every_k(self, z):
        for k in range(1, min(z.m, z.n) + 1):
            p = instance(z.m, z.n, k, z.zeros)
            assert cover_profile(p) == brute_force_cover_profile(p)
            for r in range(p.m):
                assert row_excluded_profile(p, r) == brute_force_row_excluded_profile(p, r)

    # four components: an all-zero 2x2 block (nu 2), a path (nu 2), two single zeros
    ZEROS = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 3), (4, 4), (5, 5)]

    def test_k_independent_zeros_cost_one_matching_per_component(self, matchings, monkeypatch):
        monkeypatch.setattr(covers, "_component_table", _no_table)
        monkeypatch.setattr(covers, "_components", _no_table)
        for k in range(1, 7):  # nu = 6 >= k
            p = instance(7, 7, k, self.ZEROS)
            matchings.clear()
            profile = cover_profile(p)
            assert matchings == [p.zeros]  # one matching, over the whole pattern
            assert all(count == 0 for _, _, count in profile.coefficients)
            assert profile == brute_force_cover_profile(p)

    def test_rows_only_count_also_stops_at_the_bound(self, matchings, monkeypatch):
        monkeypatch.setattr(covers, "_component_table", _no_table)
        monkeypatch.setattr(covers, "_components", _no_table)
        # two rows share each of columns 0 and 1, so the rows are enumerated;
        # a matching of 4 against k - 1 = 2
        p = instance(7, 4, 3, [(0, 0), (1, 0), (2, 1), (3, 1), (4, 2), (5, 3)])
        assert row_excluded_profile(p, 6) == (0, 0, 0)
        assert matchings == [p.zeros]  # the whole pattern's, and no other

    def test_component_root_reuses_the_given_matching(self, matchings):
        zeros = self.ZEROS[:7]  # the block and the path, nu = 4
        for k in range(5, 8):  # slack k - 1 - 4 from 0 to 2
            p = instance(7, 7, k, zeros)
            expected = brute_force_cover_profile(p)
            matchings.clear()
            assert cover_profile(p) == expected
            found = [tuple(sorted(zeros)) for zeros in matchings]
            assert found.count(tuple(sorted(p.zeros))) == 1  # the pattern's, made once
            for part in _components(p):  # never one over a whole component
                assert part not in found, part


def _bits(mask: int) -> set[int]:
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def _assert_tables_match_reference(zeros, rows: int, cols: int, slacks) -> None:
    """Each component's table equals the from-scratch subset enumeration
    at every given slack over the component's own matching."""
    for part in covers._components(covers._row_masks(zeros)):
        nu = len(covers._max_matching(part))
        for slack in slacks:
            limit = slack + nu
            got = covers._component_table(part, rows, cols, limit, nu)
            assert got == reference_component_table(zeros_of(part), _bits(rows), _bits(cols), limit)


def _reference_component_table(part, rows, cols, limit, nu):
    return reference_component_table(zeros_of(part), _bits(rows), _bits(cols), limit)


def band(length: int, offset: int) -> list[tuple[int, int]]:
    """Zeros (i, i + offset) and (i, i + offset + 1): one component of 2*length zeros."""
    return [(i, i + offset) for i in range(length)] + [(i, i + offset + 1) for i in range(length)]


class TestFreeLineBinomials:
    """The enumeration counts the candidate lines a choice has emptied by
    binomials; its tables equal the reference that visits every subset
    with a fresh matching."""

    def test_every_pattern_up_to_3x3_at_every_k(self):
        for m in range(1, 4):
            for n in range(1, 4):
                full_rows, full_cols = (1 << m) - 1, (1 << n) - 1
                for z in all_patterns(m, n):
                    _assert_tables_match_reference(z.zeros, full_rows, full_cols, range(min(m, n)))
                    for r in range(m):  # the rows-only tables of row_excluded_profile
                        _assert_tables_match_reference(z.zeros, full_rows & ~(1 << r), 0, range(min(m, n)))

    def test_every_4x4_class_at_k_2_to_4(self):
        for zeros in pattern_classes(4, 4):
            _assert_tables_match_reference(zeros, 0b1111, 0b1111, range(1, 4))

    @given(
        instances(max_m=6, max_n=6),
        st.integers(0, (1 << 6) - 1),
        st.integers(0, (1 << 6) - 1),
        st.integers(0, 3),
    )
    @settings(max_examples=120, deadline=None)
    def test_random_up_to_6x6_with_restricted_lines(self, p, rows, cols, slack):
        rows &= (1 << p.m) - 1
        cols &= (1 << p.n) - 1
        _assert_tables_match_reference(p.zeros, rows, cols, [slack])

    def test_band_profile_makes_no_component_matching(self, matchings, monkeypatch):
        p = instance(10, 10, 10, band(6, 1))
        with monkeypatch.context() as patched:
            patched.setattr(covers, "_component_table", _reference_component_table)
            expected = cover_profile(p)
        matchings.clear()
        assert cover_profile(p) == expected
        # the band is a path, counted by the tree DP: the enumeration made
        # 2,753 matchings, and 7,744 with a matching for every subset
        assert matchings == []

    def test_transposed_band_has_the_transposed_table(self):
        p = instance(10, 10, 10, band(6, 1))
        theirs = cover_coefficients(transpose_instance(p))
        assert cover_coefficients(p) == {(j, i): x for (i, j), x in theirs.items()}


def _acyclic(part: dict[int, int]) -> bool:
    """Whether the zero graph ``part`` has no cycle, by union-find over its
    rows and columns: a zero joining two lines already connected closes one."""
    boss: dict = {}

    def find(x):
        while boss.setdefault(x, x) != x:
            x = boss[x]
        return x

    for r, c in zeros_of(part):
        a, b = find(("row", r)), find(("col", c))
        if a == b:
            return False
        boss[a] = b
    return True


@pytest.fixture()
def table_paths(monkeypatch) -> dict[str, list[dict[int, int]]]:
    """The components each path of _component_table counted while the test runs."""
    taken: dict[str, list[dict[int, int]]] = {"_tree_table": [], "_enumerated_table": []}
    for name, parts in taken.items():
        real = getattr(covers, name)

        def counted(part, *args, real=real, parts=parts):
            parts.append(dict(part))
            return real(part, *args)

        monkeypatch.setattr(covers, name, counted)
    return taken


def _enumerated_component_table(part, rows, cols, limit, nu):
    """_component_table by the enumeration alone, whatever the component."""
    part_rows, part_cols = covers._span(part)
    return covers._enumerated_table(part, part_rows & rows, part_cols & cols, limit, nu)


def cross(n: int) -> list[tuple[int, int]]:
    """Row 0 and column 0 all zeros: one tree of 2n - 1 zeros over every line."""
    return [(0, c) for c in range(n)] + [(r, 0) for r in range(1, n)]


class TestTreeDispatch:
    """Acyclic components go to the tree DP and the others to the enumeration;
    on larger trees the DP's tables equal the enumeration's."""

    def _assert_each_path_has_its_kind(self, taken) -> None:
        assert taken["_tree_table"] and taken["_enumerated_table"]
        assert all(_acyclic(part) for part in taken["_tree_table"])
        assert not any(_acyclic(part) for part in taken["_enumerated_table"])

    def test_every_pattern_up_to_3x3(self, table_paths):
        for m in range(1, 4):
            for n in range(1, 4):
                for z in all_patterns(m, n):
                    for k in range(1, min(m, n) + 1):
                        p = instance(m, n, k, z.zeros)
                        cover_profile(p)
                        for r in range(m):
                            row_excluded_profile(p, r)
        self._assert_each_path_has_its_kind(table_paths)

    def test_every_4x4_class(self, table_paths):
        for zeros in pattern_classes(4, 4):
            for k in range(1, 5):
                p = instance(4, 4, k, zeros)
                cover_profile(p)
                for r in range(4):
                    row_excluded_profile(p, r)
        self._assert_each_path_has_its_kind(table_paths)

    @pytest.mark.parametrize("slack", range(5))
    def test_band_at_every_slack(self, slack, table_paths):
        (part,) = covers._components(covers._row_masks(band(6, 1)))
        nu = len(covers._max_matching(part))
        full = (1 << 10) - 1
        got = covers._component_table(part, full, full, nu + slack, nu)
        assert got == _enumerated_component_table(part, full, full, nu + slack, nu)
        assert table_paths["_tree_table"] == [part]

    @pytest.mark.parametrize("n", range(6, 10))
    def test_cross(self, n, table_paths, monkeypatch):
        p = instance(n, n, n, cross(n))
        with monkeypatch.context() as patched:
            patched.setattr(covers, "_component_table", _enumerated_component_table)
            expected = cover_profile(p)
        table_paths["_enumerated_table"].clear()
        assert cover_profile(instance(n, n, n, cross(n))) == expected
        assert len(table_paths["_tree_table"]) == 1 and not table_paths["_enumerated_table"]

    def test_rows_only(self, table_paths):
        # a matching of 2 leaves rows holding a zero unmatched, so the row
        # counts of row_excluded_profile are taken from rows-only tables
        p = instance(7, 7, 6, cross(7))
        for r in range(7):
            assert row_excluded_profile(p, r) == brute_force_row_excluded_profile(p, r)
        assert len(table_paths["_tree_table"]) == 7 and not table_paths["_enumerated_table"]
        (part,) = covers._components(covers._row_masks(band(6, 1)))
        for slack in range(4):
            for rows in (0b111111, 0b101101):
                got = covers._component_table(part, rows, 0, 6 + slack, 6)
                assert got == _enumerated_component_table(part, rows, 0, 6 + slack, 6)


def random_tree(rng: random.Random, m: int, n: int) -> list[tuple[int, int]]:
    """The zeros of a random tree over random rows and columns of an m x n
    grid: each line after the first row and column joins one line placed
    before it, so the zeros number the lines less one."""
    rows = rng.sample(range(m), rng.randint(1, m))
    cols = rng.sample(range(n), rng.randint(1, n))
    zeros = [(rows[0], cols[0])]
    placed_rows, placed_cols = rows[:1], cols[:1]
    later = [(r, None) for r in rows[1:]] + [(None, c) for c in cols[1:]]
    rng.shuffle(later)
    for r, c in later:
        if c is None:
            zeros.append((r, rng.choice(placed_cols)))
            placed_rows.append(r)
        else:
            zeros.append((rng.choice(placed_rows), c))
            placed_cols.append(c)
    return zeros


class TestTreeTable:
    """The tree DP's tables equal the enumeration's on every tree shape,
    with restricted lines and at every slack up to 4."""

    @staticmethod
    def _assert_equal_to_enumeration(zeros, rows: int, cols: int, slack: int) -> None:
        part = covers._row_masks(zeros)
        nu = len(covers._max_matching(part))
        part_rows, part_cols = covers._span(part)
        got = covers._tree_table(part, rows, cols, nu + slack, nu)
        assert got == covers._enumerated_table(part, part_rows & rows, part_cols & cols, nu + slack, nu)

    @pytest.mark.parametrize(
        "zeros",
        [
            [(2, 3)],  # a single zero
            [(1, 0), (1, 2), (1, 3), (1, 5)],  # a star on a row
            [(0, 4), (2, 4), (3, 4), (5, 4)],  # a star on a column
            [(1, 0), (1, 2), (1, 4), (0, 2), (3, 2), (4, 2)],  # two joined stars
            [(0, 0), (0, 1), (1, 0), (2, 0), (3, 0)],  # joined stars, one leaf on the row
        ],
        ids=["single_zero", "row_star", "column_star", "joined_stars", "joined_stars_one_row_leaf"],
    )
    @pytest.mark.parametrize("slack", range(5))
    def test_stars_and_joined_stars(self, zeros, slack):
        part_rows, part_cols = covers._span(covers._row_masks(zeros))
        for rows in (part_rows, part_rows & 0b101101, 0):
            for cols in (part_cols, part_cols & 0b110110, 0):
                self._assert_equal_to_enumeration(zeros, rows, cols, slack)

    def test_random_trees_up_to_11x11(self):
        rng = random.Random(4311)
        for _ in range(400):
            m, n = rng.randint(1, 11), rng.randint(1, 11)
            zeros = random_tree(rng, m, n)
            part_rows, part_cols = covers._span(covers._row_masks(zeros))
            # the masks may hold lines outside the tree, which it ignores
            rows = rng.choice([part_rows, rng.getrandbits(m)])
            cols = rng.choice([part_cols, rng.getrandbits(n), 0])
            self._assert_equal_to_enumeration(zeros, rows, cols, rng.randint(0, 4))


M = 10**7  # rows and columns of the large instances


class TestLargeInstances:
    """The cover and row formulas take masks over the lines holding a zero
    only: with the zeros in the first lines, their memory does not grow
    with m and n."""

    @pytest.mark.parametrize(
        "compute, expected",
        [
            (cover_coefficients, {(0, 0): 1, (0, 1): 1}),
            (cover_profile, covers.CoverProfile(2, ((0, 0, 1), (0, 1, 1), (1, 0, 0)))),
            (cover_formula_value, Fraction(M, M - 1) / (M * M)),
            (lambda p: row_inclusion_probability(p, p.m - 1), Fraction(1, M)),
        ],
        ids=["coefficients", "profile", "value", "rowprob"],
    )
    def test_two_zeros_in_one_column_stay_small(self, compute, expected):
        # two rows share their zero column, so a maximum matching leaves a
        # row holding a zero unmatched and the row counts take the general
        # branch; the row asked about is zero-free and the last one
        compute(instance(3, 3, 2, [(0, 0), (1, 0)]))  # warm up imports and caches
        p = instance(M, M, 2, [(0, 0), (1, 0)])
        tracemalloc.start()
        try:
            got = compute(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expected
        assert peak < 64 * 2**10


class TestSubsetBudget:
    def test_budget_admits_every_12x12_component(self):
        assert covers.SUBSET_BUDGET >= sum(math.comb(24, s) for s in range(12))

    def test_one_component_over_32_lines_raises_at_once(self):
        # the 16-step band in a 17x17 instance: 16 independent zeros < k = 17,
        # so the partial covers must be counted, over all 32 lines
        p = instance(17, 17, 17, staircase_band(16))
        assert max_independent_zeros(p.pattern) < p.k
        for compute in (cover_profile, cover_formula_value):
            t0 = time.perf_counter()
            with pytest.raises(BudgetExceededError):
                compute(p)
            assert time.perf_counter() - t0 < 1.0

    def test_k_independent_zeros_are_never_refused(self, matchings):
        # 16 independent zeros at k = 16: no partial 15-cover, whatever the budget
        p = instance(16, 16, 16, staircase_band(16))
        t0 = time.perf_counter()
        assert cover_coefficients(p) == {}
        assert cover_formula_value(p) == 0
        assert all(count == 0 for _, _, count in cover_profile(p).coefficients)
        assert time.perf_counter() - t0 < 1.0
        assert len(matchings) == 1

    def test_budget_threshold(self, monkeypatch):
        p = instance(5, 5, 5, staircase_band(4))  # 4 independent zeros < k = 5
        # 8 lines touch a zero, sum of C(8, s) for s <= 4 is 163
        monkeypatch.setattr(covers, "SUBSET_BUDGET", 163)
        assert cover_profile(p) == brute_force_cover_profile(p)
        monkeypatch.setattr(covers, "SUBSET_BUDGET", 162)
        with pytest.raises(BudgetExceededError):
            cover_profile(p)
        with pytest.raises(BudgetExceededError):
            cover_formula_value(p)
        # three rows share one zero column, so not every row holding a zero is
        # matched and the rows are enumerated: sum of C(3, s) for s <= 2 is 7
        p = instance(4, 4, 3, [(1, 0), (2, 0), (3, 0)])
        monkeypatch.setattr(covers, "SUBSET_BUDGET", 7)
        assert row_excluded_profile(p, 0) == brute_force_row_excluded_profile(p, 0)
        monkeypatch.setattr(covers, "SUBSET_BUDGET", 6)
        with pytest.raises(BudgetExceededError):
            row_excluded_profile(p, 0)

    def test_bound_counts_a_component_with_no_line(self, monkeypatch):
        # row 0 is excluded and a component on its own, so it adds 1 to the
        # 2^2 subsets of rows 1 and 2 (both k - 1 = 2 or fewer): 5 in all
        p = instance(3, 3, 3, [(0, 1), (1, 0), (2, 0)])
        monkeypatch.setattr(covers, "SUBSET_BUDGET", 5)
        assert row_excluded_profile(p, 0) == brute_force_row_excluded_profile(p, 0)
        monkeypatch.setattr(covers, "SUBSET_BUDGET", 4)
        with pytest.raises(BudgetExceededError):
            row_excluded_profile(p, 0)

    def test_zero_free_lines_cost_nothing(self, monkeypatch):
        monkeypatch.setattr(covers, "SUBSET_BUDGET", 1)
        assert cover_coefficients(instance(30, 30, 30))[(29, 0)] == 30

    def test_slack_is_tested_before_the_budget(self, monkeypatch):
        monkeypatch.setattr(covers, "SUBSET_BUDGET", 1)
        p = instance(4, 4, 3, staircase_band(4))  # 4 independent zeros, k = 3
        assert cover_profile(p) == brute_force_cover_profile(p)
        assert cover_formula_value(p) == 0


class TestForcedCoverLines:
    def test_column_with_k_zeros_forced(self):
        p = instance(3, 3, 2, [(0, 0), (1, 0)])
        rows, cols = forced_cover_lines(cover_lattice(p.pattern), p.k - 1)
        assert cols == frozenset({0}) and rows == frozenset()

    def test_nothing_forced_on_single_zero(self):
        p = instance(3, 3, 2, [(0, 0)])
        assert forced_cover_lines(cover_lattice(p.pattern), p.k - 1) == (frozenset(), frozenset())

    def test_no_cover_of_requested_size(self):
        z = ZeroPattern(2, 2, ((0, 0), (1, 1)))
        with pytest.raises(ValueError):
            forced_cover_lines(cover_lattice(z), 1)

    def test_slack_size_still_forces_a_full_row(self):
        # nu = 1, and the only 2-covers are row 0 plus one more line
        z = ZeroPattern(3, 4, ((0, 0), (0, 1), (0, 2)))
        assert forced_cover_lines(cover_lattice(z), 2) == (frozenset({0}), frozenset())

    @pytest.mark.parametrize("size", [True, 1.5, 2.0, "2"])
    def test_size_must_be_an_integer(self, size):
        z = ZeroPattern(3, 4, ((0, 0), (0, 1), (0, 2)))
        with pytest.raises(ValueError, match="size must be an integer"):
            forced_cover_lines(cover_lattice(z), size)


def _agrees_with_per_line_reference(z: ZeroPattern) -> bool:
    """Covers and forced lines at sizes nu..nu+2 equal the per-line reference;
    returns whether some line is forced at the slack size nu+1."""
    nu = max_independent_zeros(z)
    lattice = cover_lattice(z)
    assert lattice.row_max == reference_row_maximal_cover(z)
    assert lattice.col_max == reference_column_maximal_cover(z)
    assert lattice.size == nu
    assert lattice.common_lines == reference_forced_cover_lines(z, nu)
    for size in range(nu, nu + 3):
        assert forced_cover_lines(lattice, size) == reference_forced_cover_lines(z, size), size
    return forced_cover_lines(lattice, nu + 1) != (frozenset(), frozenset())


class TestAgainstPerLineReference:
    """One matching and two alternating searches give what one matching per line gave."""

    def test_every_pattern_up_to_3x4(self):
        slack_forced = sum(
            _agrees_with_per_line_reference(z)
            for m in range(1, 4)
            for n in range(1, 5)
            for z in all_patterns(m, n)
        )
        assert slack_forced == 362  # of 5050 patterns: the slack case is not vacuous

    def test_every_4x4_class(self):
        for zeros in pattern_classes(4, 4):
            _agrees_with_per_line_reference(ZeroPattern(4, 4, zeros))

    @given(instances(max_m=6, max_n=6))
    @settings(max_examples=150, deadline=None)
    def test_random_up_to_6x6(self, p):
        _agrees_with_per_line_reference(p.pattern)


def _fresh(z: ZeroPattern) -> ZeroPattern:
    """An equal pattern that keeps no zero graph yet."""
    return ZeroPattern(z.m, z.n, z.zeros)


def _kept(z: ZeroPattern):
    """The zero graph kept on ``z`` (see covers._zero_graph), or None."""
    return z.__dict__.get("_zero_graph")


class TestOneMatchingPerPattern:
    # one component over 7 lines with nu = 3, so per-line tests take 5, 4 and 8 matchings
    Z = ZeroPattern(4, 3, ((0, 0), (0, 1), (1, 1), (2, 1), (2, 2), (3, 2)))

    # the minimum cover the lattice hands out is its row-maximal end
    @pytest.mark.parametrize(
        "end, reference",
        [
            pytest.param("row_max", reference_row_maximal_cover, id="row_maximal_cover"),
            pytest.param("col_max", reference_column_maximal_cover, id="column_maximal_cover"),
            pytest.param("row_max", reference_row_maximal_cover, id="min_cover"),
        ],
    )
    def test_extreme_covers(self, matchings, end, reference):
        z = _fresh(self.Z)
        lattice = cover_lattice(z)
        assert cover_lattice(z) == lattice
        assert len(matchings) == 1  # the second lattice reads the kept matching
        assert getattr(lattice, end) == reference(z)

    def test_forced_lines_at_the_minimum_size(self, matchings):
        z = _fresh(self.Z)
        assert max_independent_zeros(z) == 3
        matchings.clear()
        assert forced_cover_lines(cover_lattice(z), 3) == (frozenset(), frozenset({1, 2}))
        assert len(matchings) == 0  # the matching nu was read from serves the lattice


def _small_patterns():
    """Every 2x2 and 3x3 pattern and every 4x4 class, as (m, n, zeros)."""
    for side in (2, 3):
        for z in all_patterns(side, side):
            yield side, side, z.zeros
    for zeros in pattern_classes(4, 4):
        yield 4, 4, zeros


class TestKeptZeroGraph:
    """A pattern keeps its zero graph, row masks and first maximum
    matching: every consumer reads it whichever runs first, none changes
    it, and it takes no part in the pattern's value."""

    @staticmethod
    def _routes(oracle_cache):
        """Each consumer of the kept graph, by name, on an instance."""

        def value(p):
            return cover_formula_value(p)

        def rowprob(p):
            free = [r for r in range(p.m) if all(zr != r for zr, _ in p.zeros)]
            return row_inclusion_probability(p, free[0]) if free else None

        def lattice(p):
            return cover_lattice(p.pattern)

        def oracle(p):
            return oracle_expected_value(p, cache=oracle_cache)

        return value, rowprob, lattice, oracle

    def test_equals_the_reference_whichever_route_runs_first(self, oracle_cache):
        value, rowprob, _, oracle = self._routes(oracle_cache)
        for m, n, zeros in _small_patterns():
            nu = brute_force_min_cover_size(ZeroPattern(m, n, zeros))
            for k in range(1, min(m, n) + 1):
                answers = []
                for routes in ((value, oracle, rowprob), (rowprob, oracle, value)):
                    p = instance(m, n, k, zeros)
                    assert _kept(p.pattern) is None
                    got = {}
                    for route in routes:
                        got[route.__name__] = route(p)
                        if _kept(p.pattern) is None:  # only rowprob ran, with no zero-free row
                            assert got == {"rowprob": None}
                            continue
                        masks, match_col = _kept(p.pattern)
                        assert zeros_of(masks) == p.zeros and len(match_col) == nu
                    assert max_independent_zeros(p.pattern) == nu
                    answers.append(got)
                assert answers[0] == answers[1]
                assert answers[0]["value"] == answers[0]["oracle"]

    def test_every_route_order_matches_the_pattern_once(self, oracle_cache, monkeypatch):
        """Formula then oracle on a non-terminal instance, or any order of
        the four routes, makes one maximum matching of the whole pattern.

        A state deep in the oracle may hold the pattern's zeros at the same
        positions, so only the matchings made outside the oracle's recursion
        are counted; those hold every zero of the pattern only for the
        pattern and its root state.
        """
        whole, depth = [], [0]
        matching, evaluate = covers._max_matching, rapkit.oracle._evaluate

        def counted_matching(masks):
            if not depth[0]:
                whole.append(tuple(sorted(zeros_of(masks))))
            return matching(masks)

        def counted_evaluate(*args):
            depth[0] += 1
            try:
                return evaluate(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(covers, "_max_matching", counted_matching)
        monkeypatch.setattr(rapkit.oracle, "_evaluate", counted_evaluate)
        routes = self._routes(oracle_cache)
        orders = list(itertools.permutations(routes))
        for t, (m, n, zeros) in enumerate(_small_patterns()):
            nu = brute_force_min_cover_size(ZeroPattern(m, n, zeros))
            for k in range(nu + 1, min(m, n) + 1):
                for order in ((routes[0], routes[3]), orders[(t + k) % len(orders)]):
                    p = instance(m, n, k, zeros)
                    whole.clear()
                    for route in order:
                        route(p)
                    assert whole.count(p.zeros) == 1, (p, [route.__name__ for route in order])

    def test_no_consumer_changes_the_kept_graph(self, oracle_cache):
        for m, n, zeros in _small_patterns():
            for k in range(1, min(m, n) + 1):
                p = instance(m, n, k, zeros)
                max_independent_zeros(p.pattern)
                graph = _kept(p.pattern)
                masks, match_col = graph
                before = (dict(masks), dict(match_col))
                for route in self._routes(oracle_cache):
                    route(p)
                lattice = cover_lattice(p.pattern)
                for size in range(lattice.size, min(m, n) + 1):
                    forced_cover_lines(lattice, size)
                cover_profile(p)
                for r in range(m):
                    row_excluded_profile(p, r)
                assert _kept(p.pattern) is graph
                assert (masks, match_col) == before

    def test_changing_the_lattice_masks_changes_no_later_answer(self, oracle_cache):
        for m, n, zeros in _small_patterns():
            for k in range(1, min(m, n) + 1):
                routes = self._routes(oracle_cache)
                expected = [route(instance(m, n, k, zeros)) for route in routes]
                p = instance(m, n, k, zeros)
                masks = cover_lattice(p.pattern).masks
                masks.clear()
                masks[0] = (1 << n) - 1  # a full row 0, whatever the pattern holds
                assert [route(p) for route in routes] == expected
                assert cover_lattice(p.pattern).masks == covers._row_masks(p.zeros)

    def test_takes_no_part_in_equality_hash_repr_or_pickle(self):
        for m, n, zeros in _small_patterns():
            for k in range(1, min(m, n) + 1):
                plain, kept = instance(m, n, k, zeros), instance(m, n, k, zeros)
                cover_formula_value(kept)
                assert _kept(plain.pattern) is None
                assert _kept(kept.pattern) is not None
                for a, b in ((plain.pattern, kept.pattern), (plain, kept)):
                    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
                    assert pickle.dumps(a) == pickle.dumps(b)
                    assert pickle.loads(pickle.dumps(b)) == b
                assert _kept(pickle.loads(pickle.dumps(kept.pattern))) is None

    def test_a_dropped_pattern_is_freed(self):
        refs = []
        for k in (2, 3):  # 2 independent zeros: terminal at k = 2, not at k = 3
            p = instance(3, 3, k, [(0, 0), (1, 1)])
            cover_formula_value(p)
            row_inclusion_probability(p, 2)
            oracle_expected_value(p)
            assert max_independent_zeros(p.pattern) == 2
            refs.append(weakref.ref(p.pattern))
        del p
        gc.collect()
        assert [ref() for ref in refs] == [None, None]  # no table outside the pattern holds it


class TestCoverLattice:
    def test_one_matching_gives_both_ends_and_their_size(self, monkeypatch):
        calls = []
        real = covers._max_matching

        def counted(zeros):
            calls.append(zeros)
            return real(zeros)

        monkeypatch.setattr(covers, "_max_matching", counted)
        z = _fresh(TestOneMatchingPerPattern.Z)
        lattice = cover_lattice(z)
        assert len(calls) == 1
        assert lattice.size == len(lattice.row_max) == len(lattice.col_max) == 3
        assert lattice.common_lines == (frozenset(), frozenset({1, 2}))
        assert cover_lattice(z) == lattice
        assert len(calls) == 1  # the second reads the kept matching

    def test_masks_are_kept_outside_equality_hash_and_repr(self):
        z = ZeroPattern(3, 4, ((0, 0), (0, 1), (0, 2)))
        lattice = cover_lattice(z)
        assert lattice.masks == {0: 0b111}
        other = dataclasses.replace(lattice, masks={})
        assert other == lattice and hash(other) == hash(lattice)
        assert "masks" not in repr(lattice)
        # the slack size tests the common lines on the kept masks
        assert forced_cover_lines(lattice, 2) == (frozenset({0}), frozenset())
        assert forced_cover_lines(other, 2) == (frozenset(), frozenset())


def _dbar(p, r, i, j):
    """Partial (k-1)-covers with i rows excluding row r and j columns."""
    count = 0
    for rows in itertools.combinations([x for x in range(p.m) if x != r], i):
        for cols in itertools.combinations(range(p.n), j):
            if is_partial_cover(p, set(rows), set(cols)):
                count += 1
    return count


class TestSectionIdentities:
    def test_column_deletion_identity(self):
        rng = random.Random(11)
        checked = 0
        while checked < 25:
            p = random_instance(rng, min_k=2)
            if p.k > min(p.m, p.n - 1):
                continue
            if max_independent_zeros(p.pattern) > p.k - 1:
                continue
            _, forced_cols = forced_cover_lines(cover_lattice(p.pattern), p.k - 1)
            for c in forced_cols:
                before = cover_coefficients(p)
                after = cover_coefficients(delete_column(p, c))
                for i in range(p.k):
                    for j in range(p.k - i):
                        expected = after.get((i, j - 1), 0) + after.get((i, j), 0)
                        assert before.get((i, j), 0) == expected
                checked += 1

    def test_zero_insertion_identity(self):
        rng = random.Random(12)
        for _ in range(15):
            m, n = rng.randint(2, 4), rng.randint(2, 4)
            k = rng.randint(1, min(m, n))
            r = m - 1
            zeros = [(a, b) for a in range(m - 1) for b in range(n) if rng.random() < 0.3]
            p = instance(m, n, k, zeros)
            for i in range(k):
                for j in range(k - i):
                    lhs = j * _dbar(p, r, i, j) + (j + 1) * _dbar(p, r, i, j + 1)
                    rhs = sum(_dbar(insert_zero(p, (r, t)), r, i, j) for t in range(n))
                    assert lhs == rhs
