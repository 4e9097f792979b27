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
    enumerated_table,
    instances,
    is_partial_cover,
    pack_table,
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


def _unpacked(table_fn, part, rows: int, cols: int, limit: int, *args) -> dict:
    """The table ``table_fn`` makes for one component (``args`` go before
    the width), packed at the width of ``limit`` and unpacked to (a, b,
    nu') keys for comparison."""
    width = covers._table_width(limit)
    table = covers._unpacked(table_fn(part, rows, cols, limit, *args, width), width)
    return {(a, b, size - a - b): x for (a, b, size), x in table.items()}


def _assert_tables_match_reference(zeros, rows: int, cols: int, slacks) -> None:
    """Each component's table equals the from-scratch subset enumeration
    at every given slack over the component's own matching."""
    for part in covers._components(covers._row_masks(zeros)):
        nu = len(covers._max_matching(part))
        for slack in slacks:
            limit = slack + nu
            got = _unpacked(covers._component_table, part, rows, cols, limit, nu)
            assert got == reference_component_table(zeros_of(part), _bits(rows), _bits(cols), limit)


def _reference_component_table(part, rows, cols, limit, nu, width):
    return pack_table(reference_component_table(zeros_of(part), _bits(rows), _bits(cols), limit), width)


def band(length: int, offset: int) -> list[tuple[int, int]]:
    """Zeros (i, i + offset) and (i, i + offset + 1): one component of 2*length zeros."""
    return [(i, i + offset) for i in range(length)] + [(i, i + offset + 1) for i in range(length)]


class TestFreeLineBinomials:
    """Each component's table, from the tree DP or the matroid DP, equals
    the reference that visits every subset with a fresh matching; so does
    the enumeration the tests keep as the fast reference, which counts the
    candidate lines a choice has emptied by binomials."""

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

    @given(
        instances(max_m=6, max_n=6),
        st.integers(0, (1 << 6) - 1),
        st.integers(0, (1 << 6) - 1),
        st.integers(0, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_fast_reference_up_to_6x6_with_restricted_lines(self, p, rows, cols, slack):
        for part in covers._components(covers._row_masks(p.zeros)):
            nu = len(covers._max_matching(part))
            expected = reference_component_table(zeros_of(part), _bits(rows), _bits(cols), nu + slack)
            assert enumerated_table(part, rows, cols, nu + slack, nu) == expected

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
    taken: dict[str, list[dict[int, int]]] = {"_tree_table": [], "_matroid_table": []}
    for name, parts in taken.items():
        real = getattr(covers, name)

        def counted(part, *args, real=real, parts=parts):
            parts.append(dict(part))
            return real(part, *args)

        monkeypatch.setattr(covers, name, counted)
    return taken


def _enumerated_component_table(part, rows, cols, limit, nu, width):
    """_component_table by the enumeration alone, whatever the component."""
    return pack_table(enumerated_table(part, rows, cols, limit, nu), width)


def cross(n: int) -> list[tuple[int, int]]:
    """Row 0 and column 0 all zeros: one tree of 2n - 1 zeros over every line."""
    return [(0, c) for c in range(n)] + [(r, 0) for r in range(1, n)]


class TestTreeDispatch:
    """Acyclic components go to the tree DP and the others to the matroid
    DP; on larger trees the tree DP's tables equal the enumeration's."""

    def _assert_each_path_has_its_kind(self, taken) -> None:
        assert taken["_tree_table"] and taken["_matroid_table"]
        assert all(_acyclic(part) for part in taken["_tree_table"])
        assert not any(_acyclic(part) for part in taken["_matroid_table"])

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
        got = _unpacked(covers._component_table, part, full, full, nu + slack, nu)
        assert got == enumerated_table(part, full, full, nu + slack, nu)
        assert table_paths["_tree_table"] == [part]

    @pytest.mark.parametrize("n", range(6, 10))
    def test_cross(self, n, table_paths, monkeypatch):
        p = instance(n, n, n, cross(n))
        with monkeypatch.context() as patched:
            patched.setattr(covers, "_component_table", _enumerated_component_table)
            expected = cover_profile(p)
        assert cover_profile(instance(n, n, n, cross(n))) == expected
        assert len(table_paths["_tree_table"]) == 1 and not table_paths["_matroid_table"]

    def test_rows_only(self, table_paths):
        # a matching of 2 leaves rows holding a zero unmatched, so the row
        # counts of row_excluded_profile are taken from rows-only tables
        p = instance(7, 7, 6, cross(7))
        for r in range(7):
            assert row_excluded_profile(p, r) == brute_force_row_excluded_profile(p, r)
        assert len(table_paths["_tree_table"]) == 7 and not table_paths["_matroid_table"]
        (part,) = covers._components(covers._row_masks(band(6, 1)))
        for slack in range(4):
            for rows in (0b111111, 0b101101):
                got = _unpacked(covers._component_table, part, rows, 0, 6 + slack, 6)
                assert got == enumerated_table(part, rows, 0, 6 + slack, 6)


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
        got = _unpacked(covers._tree_table, part, rows, cols, nu + slack, nu)
        assert got == enumerated_table(part, rows, cols, nu + slack, nu)

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


DENSE_14X14 = random.Random(4).sample([(r, c) for r in range(14) for c in range(8)], 40)
"""40 zeros over rows 0..13 and columns 0..7: one component with cycles,
8 independent zeros, and a short side of 8 columns."""


def _random_cyclic_components(rng: random.Random, max_side: int):
    """Each component with a cycle of a random pattern up to max_side a
    side, with the pattern's m and n."""
    m, n = rng.randint(2, max_side), rng.randint(2, max_side)
    density = rng.uniform(0.25, 0.6)
    zeros = [(r, c) for r in range(m) for c in range(n) if rng.random() < density]
    for part in covers._components(covers._row_masks(zeros)):
        if not _acyclic(part):
            yield part, m, n


class TestMatroidTable:
    """The matroid DP's tables equal the enumeration's on components with a
    cycle, whichever side is short, with restricted lines and with no
    column choosable."""

    def test_random_cyclic_components_up_to_8x8(self):
        rng = random.Random(4601)
        shapes = set()
        checked = 0
        while checked < 500:
            for part, m, n in _random_cyclic_components(rng, 8):
                nu = len(covers._max_matching(part))
                rows = rng.choice([(1 << m) - 1, rng.getrandbits(m), 0])
                cols = rng.choice([(1 << n) - 1, rng.getrandbits(n), 0])
                limit = nu + rng.randint(0, 4)
                got = _unpacked(covers._matroid_table, part, rows, cols, limit)
                assert got == enumerated_table(part, rows, cols, limit, nu)
                rows_span, cols_span = covers._span(part)
                shapes.add((rows_span.bit_count() > cols_span.bit_count()) - (rows_span.bit_count() < cols_span.bit_count()))
                checked += 1
        assert shapes == {-1, 0, 1}  # short columns, short rows and square ones

    def test_transposed_component_swaps_a_and_b(self):
        rng = random.Random(4602)
        for _ in range(400):
            for part, m, n in _random_cyclic_components(rng, 7):
                nu = len(covers._max_matching(part))
                rows, cols = rng.getrandbits(m), rng.getrandbits(n)
                limit = nu + rng.randint(0, 3)
                flipped = covers._row_masks((c, r) for r, c in zeros_of(part))
                mine = _unpacked(covers._matroid_table, part, rows, cols, limit)
                theirs = _unpacked(covers._matroid_table, flipped, cols, rows, limit)
                assert mine == {(b, a, nu2): x for (a, b, nu2), x in theirs.items()}

    def test_rows_only_profiles_of_every_4x4_class_and_the_7x7_cross(self, table_paths):
        # no column may be chosen, so only the kept sets of every column count
        for zeros in pattern_classes(4, 4):
            for k in range(1, 5):
                p = instance(4, 4, k, zeros)
                for r in range(4):
                    assert row_excluded_profile(p, r) == brute_force_row_excluded_profile(p, r)
        assert table_paths["_matroid_table"]
        for k in range(1, 8):
            p = instance(7, 7, k, cross(7))
            for r in range(7):
                assert row_excluded_profile(p, r) == brute_force_row_excluded_profile(p, r)

    def test_dense_14x14_is_answered_at_once(self):
        p = instance(14, 14, 14, DENSE_14X14)
        assert max_independent_zeros(p.pattern) == 8
        t0 = time.perf_counter()
        mine = cover_profile(p)
        assert time.perf_counter() - t0 < 1.0
        theirs = cover_profile(transpose_instance(p))  # its short side is the rows
        assert {(i, j): x for i, j, x in mine.coefficients} == {(j, i): x for i, j, x in theirs.coefficients}

    @pytest.mark.slow
    def test_dense_14x14_equals_the_enumeration(self, monkeypatch):
        p = instance(14, 14, 14, DENSE_14X14)
        mine = cover_profile(p)
        monkeypatch.setattr(covers, "_component_table", _enumerated_component_table)
        assert cover_profile(p) == mine


class TestHungTrees:
    """A component with a cycle and a short side of more than PEEL_WIDTH
    lines is counted by the matroid DP over its 2-core, the trees hanging
    from that core by the tree DP; the tables equal the enumeration's, and
    a wide short side made wide only by its trees is answered.  The small
    components here are peeled with PEEL_WIDTH set to 0."""

    def test_core_of_a_cycle_with_a_tail(self, monkeypatch):
        monkeypatch.setattr(covers, "PEEL_WIDTH", 0)
        # a 4-cycle on rows 0, 1 and columns 0, 1, with a path from row 1
        # through column 2 and row 2 to column 3, and a leaf row 3 on column 0
        part = covers._row_masks([(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 2), (2, 3), (3, 0)])
        assert covers._core(part) == {0: 0b11, 1: 0b11}
        ring4 = covers._row_masks(ring(4))
        assert covers._core(ring4) is ring4
        seen = []
        real = covers._matroid_table

        def spy(core, rows, cols, limit, width, hung=None):
            seen.append((core, sorted(hung or {})))
            return real(core, rows, cols, limit, width, hung)

        monkeypatch.setattr(covers, "_matroid_table", spy)
        assert len(covers._max_matching(part)) == 4
        got = _unpacked(covers._component_table, part, 0b1111, 0b1111, 6, 4)
        assert got == enumerated_table(part, 0b1111, 0b1111, 6, 4)
        assert seen == [({0: 0b11, 1: 0b11}, [~0, 1])]  # column 0 hangs row 3, row 1 the path

    def test_random_components_with_trees_up_to_9x9(self, monkeypatch):
        monkeypatch.setattr(covers, "PEEL_WIDTH", 0)
        rng = random.Random(4603)
        hung = checked = 0
        while checked < 600:
            m, n = rng.randint(2, 9), rng.randint(2, 9)
            density = rng.uniform(0.15, 0.4)
            zeros = [(r, c) for r in range(m) for c in range(n) if rng.random() < density]
            for part in covers._components(covers._row_masks(zeros)):
                if _acyclic(part):
                    continue
                nu = len(covers._max_matching(part))
                rows = rng.choice([(1 << m) - 1, rng.getrandbits(m), 0])
                cols = rng.choice([(1 << n) - 1, rng.getrandbits(n), 0])
                limit = nu + rng.randint(0, 4)
                got = _unpacked(covers._component_table, part, rows, cols, limit, nu)
                assert got == enumerated_table(part, rows, cols, limit, nu)
                hung += covers._core(part) is not part
                checked += 1
        assert hung > checked // 2

    @pytest.mark.parametrize("n", [covers.PEEL_WIDTH, covers.PEEL_WIDTH + 1])
    def test_only_a_short_side_past_the_peel_width_is_peeled(self, n, table_paths):
        # the n x n cross plus zero (1, 1): a short side of n lines, whose
        # 2-core is the 4-cycle on rows 0, 1 and columns 0, 1
        zeros = cross(n) + [(1, 1)]
        p = instance(n, n, n, zeros)
        assert cover_profile(p) == brute_force_cover_profile(p)
        if n > covers.PEEL_WIDTH:
            assert table_paths["_matroid_table"] == [{0: 0b11, 1: 0b11}]
            assert len(table_paths["_tree_table"]) == 2
        else:
            assert table_paths["_matroid_table"] == [covers._row_masks(zeros)]
            assert table_paths["_tree_table"] == []

    @pytest.mark.parametrize("k", range(4, 9))
    def test_wide_cross_with_a_cycle(self, k, table_paths):
        # the 24x24 cross plus zero (1, 1): a 4-cycle on rows 0, 1 and
        # columns 0, 1, with 22 leaves hanging from row 0 and 22 from
        # column 0; a short side of 2 lines, not 24
        zeros = cross(24) + [(1, 1)]
        p = instance(24, 24, k, zeros)
        t0 = time.perf_counter()
        mine = cover_coefficients(p)
        assert time.perf_counter() - t0 < 0.5
        assert table_paths["_matroid_table"] == [{0: 0b11, 1: 0b11}]
        assert len(table_paths["_tree_table"]) == 2
        theirs = cover_coefficients(transpose_instance(p))
        assert mine == {(j, i): x for (i, j), x in theirs.items()}
        part = covers._row_masks(zeros)
        full = (1 << 24) - 1
        for limit in range(3, min(k, 5)):  # the table itself, at nu = 3 and one over
            got = _unpacked(covers._component_table, part, full, full, limit, 3)
            assert got == enumerated_table(part, full, full, limit, 3)


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


def ring(size: int) -> list[tuple[int, int]]:
    """Zeros (i, i) and (i, i+1 mod size): one cycle over all 2*size lines,
    with size independent zeros."""
    return [(i, i) for i in range(size)] + [(i, (i + 1) % size) for i in range(size)]


class TestStateBudget:
    """The matroid DP is charged its live families and its 3w + 3 masks,
    2^w bits each, w the short side it runs on (the component's 2-core once
    its trees are peeled); a tree, and a tree hanging from that core, is
    never charged."""

    def test_budget_admits_every_12x12_component(self, monkeypatch):
        # a short side of at most 12 lines and at most 2^12 families, one
        # for each set of kept long-side lines and deleted short-side lines
        # hanging a tree (each tree holds a long-side line of its own)
        assert (2**12 + 3 * 12 + 3) << 12 <= covers.STATE_BUDGET
        # one 12x12 component, all of it 2-core, counted to a slack of 2
        # over its 12 independent zeros: its DP holds thousands of families
        rng = random.Random(4)
        zeros = [(r, c) for r in range(12) for c in range(12) if rng.random() < 0.3]
        (part,) = covers._components(covers._row_masks(zeros))
        assert covers._span(part) == ((1 << 12) - 1,) * 2 and covers._core(part) is part
        p = instance(15, 15, 15, zeros)
        assert max_independent_zeros(p.pattern) == 12
        expected = cover_profile(p)
        assert expected.coefficients[0] == (0, 0, 1)
        # a budget of 2^12 families and the masks still answers it; one of
        # 2^11 families does not, so the family count passes 2^11
        monkeypatch.setattr(covers, "STATE_BUDGET", (2**12 + 3 * 12 + 3) << 12)
        assert cover_profile(p) == expected
        monkeypatch.setattr(covers, "STATE_BUDGET", (2**11 + 3 * 12 + 3) << 12)
        with pytest.raises(BudgetExceededError, match="families"):
            cover_profile(p)

    def test_too_wide_short_side_raises_at_once(self, monkeypatch):
        # a 20-cycle in a 21x21 instance: 20 independent zeros < k = 21, so
        # the partial covers must be counted, and the 63 masks and one family
        # over its short side of 20 lines, 64 * 2^20 bits, pass the budget
        # of 2^25 before any mask is made
        p = instance(21, 21, 21, ring(20))
        assert max_independent_zeros(p.pattern) < p.k
        monkeypatch.setattr(covers, "_subset_tables", _no_table)
        for compute in (cover_profile, cover_formula_value):
            t0 = time.perf_counter()
            with pytest.raises(BudgetExceededError, match="short side of 20 lines"):
                compute(p)
            assert time.perf_counter() - t0 < 1.0

    def test_growing_families_raise(self):
        # 25 rows over 13 columns, each row two cyclically adjacent columns:
        # a short side of 13 lines, whose families pass the budget within a
        # few rows when every row but the last may be chosen
        p = instance(26, 26, 26, [(i, j % 13) for i in range(25) for j in (i, i + 1)])
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="families"):
            row_excluded_profile(p, 25)
        assert time.perf_counter() - t0 < 1.0

    def test_k_independent_zeros_are_never_refused(self, matchings):
        # 24 independent zeros at k = 24: no partial 23-cover, whatever the budget
        p = instance(24, 24, 24, ring(24))
        t0 = time.perf_counter()
        assert cover_coefficients(p) == {}
        assert cover_formula_value(p) == 0
        assert all(count == 0 for _, _, count in cover_profile(p).coefficients)
        assert time.perf_counter() - t0 < 1.0
        assert len(matchings) == 1

    def test_budget_threshold(self, monkeypatch):
        # an all-zero 2x2 block in a 3x3 instance, k = 3: a short side of 2
        # lines, so 4 bits a family and 9 masks; after the second row the
        # families are {{}}, {{}, {0}, {1}} and every set, 48 bits in all
        p = instance(3, 3, 3, [(0, 0), (0, 1), (1, 0), (1, 1)])
        monkeypatch.setattr(covers, "STATE_BUDGET", 48)
        assert cover_profile(p) == brute_force_cover_profile(p)
        monkeypatch.setattr(covers, "STATE_BUDGET", 47)
        with pytest.raises(BudgetExceededError):
            cover_profile(p)
        with pytest.raises(BudgetExceededError):
            cover_formula_value(p)
        # an all-zero 3x2 block: two of its three rows are matched, so the row
        # counts take the general branch; the same three families after its
        # second row, and only the family of every set after its third
        p = instance(4, 4, 3, [(r, c) for r in (1, 2, 3) for c in (0, 1)])
        monkeypatch.setattr(covers, "STATE_BUDGET", 48)
        assert row_excluded_profile(p, 0) == brute_force_row_excluded_profile(p, 0)
        monkeypatch.setattr(covers, "STATE_BUDGET", 47)
        with pytest.raises(BudgetExceededError):
            row_excluded_profile(p, 0)
        # the masks and one family, 40 bits, are checked before the first row
        monkeypatch.setattr(covers, "STATE_BUDGET", 39)
        monkeypatch.setattr(covers, "_subset_tables", _no_table)
        with pytest.raises(BudgetExceededError, match="short side of 2 lines"):
            row_excluded_profile(p, 0)

    @pytest.mark.parametrize("n", [13, 14, 15])
    def test_trees_are_never_charged(self, n, monkeypatch):
        # the crosses over 13 to 15 lines a side, refused by a subset
        # budget, are answered at once with no budget at all; the tree DP's
        # table equals the matroid DP's
        part = covers._row_masks(cross(n))
        full = (1 << n) - 1
        got = _unpacked(covers._tree_table, part, full, full, n - 1, 2)
        assert got == _unpacked(covers._matroid_table, part, full, full, n - 1)
        p = instance(n, n, n, cross(n))
        monkeypatch.setattr(covers, "STATE_BUDGET", 0)
        t0 = time.perf_counter()
        profile = cover_profile(p)
        assert time.perf_counter() - t0 < 1.0
        assert profile.coefficients[0] == (0, 0, 1)
        theirs = cover_coefficients(transpose_instance(p))
        assert cover_coefficients(p) == {(j, i): x for (i, j), x in theirs.items()}

    def test_zero_free_lines_cost_nothing(self, monkeypatch):
        monkeypatch.setattr(covers, "STATE_BUDGET", 0)
        assert cover_coefficients(instance(30, 30, 30))[(29, 0)] == 30

    def test_slack_is_tested_before_the_budget(self, monkeypatch):
        monkeypatch.setattr(covers, "STATE_BUDGET", 0)
        p = instance(4, 4, 3, ring(4))  # 4 independent zeros, k = 3
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
