"""König machinery: matchings, covers, lattice extremes, cover coefficients."""

import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rapkit import covers
from rapkit.covers import (
    LineCover,
    cover_lattice,
    cover_profile,
    forced_cover_lines,
    max_independent_zeros,
    row_excluded_profile,
)
from rapkit.formulas import cover_formula_value
from rapkit.model import (
    BudgetExceededError,
    ZeroPattern,
    insert_zero,
    instance,
)

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
    reference_forced_cover_lines,
    reference_row_maximal_cover,
    transpose_instance,
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
            profile = cover_profile(instance(m, n, k))
            for i in range(k):
                for j in range(k - i):
                    assert profile[(i, j)] == math.comb(m, i) * math.comb(n, j)

    def test_single_zero_3x3_k2(self):
        profile = cover_profile(instance(3, 3, 2, [(0, 0)]))
        assert profile.as_dict() == {(0, 0): 1, (1, 0): 1, (0, 1): 1}

    def test_k_independent_zeros_all_vanish(self):
        profile = cover_profile(instance(2, 2, 2, [(0, 0), (1, 1)]))
        assert all(count == 0 for count in profile.as_dict().values())

    def test_out_of_range_indices_are_zero(self):
        profile = cover_profile(instance(2, 2, 2))
        assert profile[(1, 1)] == 0 and profile[(5, 5)] == 0

    @given(instances(max_m=3, max_n=3))
    @settings(max_examples=60, deadline=None)
    def test_binomial_bound_and_d00(self, p):
        profile = cover_profile(p)
        for (i, j), count in profile.as_dict().items():
            assert 0 <= count <= math.comb(p.m, i) * math.comb(p.n, j)
        d00 = profile[(0, 0)]
        assert d00 in (0, 1)
        assert (d00 == 0) == (max_independent_zeros(p.pattern) >= p.k)

    @given(instances(max_m=3, max_n=3))
    @settings(max_examples=40, deadline=None)
    def test_transpose_symmetry(self, p):
        mine = cover_profile(p).as_dict()
        theirs = cover_profile(transpose_instance(p)).as_dict()
        assert mine == {(j, i): count for (i, j), count in theirs.items()}

    def test_json_shape(self):
        doc = cover_profile(instance(2, 2, 2)).to_json_obj()
        assert doc == {"k": 2, "d": [[0, 0, "1"], [0, 1, "2"], [1, 0, "2"]]}


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
        theirs = cover_profile(transpose_instance(p)).as_dict()
        assert profile.as_dict() == {(j, i): count for (i, j), count in theirs.items()}


class TestSubsetBudget:
    def test_budget_admits_every_12x12_component(self):
        assert covers.SUBSET_BUDGET >= sum(math.comb(24, s) for s in range(12))

    def test_one_component_over_32_lines_raises_at_once(self):
        p = instance(16, 16, 16, staircase_band(16))
        for compute in (cover_profile, cover_formula_value):
            t0 = time.perf_counter()
            with pytest.raises(BudgetExceededError):
                compute(p)
            assert time.perf_counter() - t0 < 1.0

    def test_budget_threshold(self, monkeypatch):
        p = instance(4, 4, 3, staircase_band(4))  # 8 lines, sum of C(8, s) for s <= 2 is 37
        monkeypatch.setattr(covers, "SUBSET_BUDGET", 37)
        assert cover_profile(p) == brute_force_cover_profile(p)
        monkeypatch.setattr(covers, "SUBSET_BUDGET", 36)
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

    def test_zero_free_lines_cost_nothing(self, monkeypatch):
        monkeypatch.setattr(covers, "SUBSET_BUDGET", 1)
        assert cover_profile(instance(30, 30, 30))[(29, 0)] == 30


class TestForcedCoverLines:
    def test_column_with_k_zeros_forced(self):
        p = instance(3, 3, 2, [(0, 0), (1, 0)])
        rows, cols = forced_cover_lines(p.pattern, p.k - 1)
        assert cols == frozenset({0}) and rows == frozenset()

    def test_nothing_forced_on_single_zero(self):
        p = instance(3, 3, 2, [(0, 0)])
        assert forced_cover_lines(p.pattern, p.k - 1) == (frozenset(), frozenset())

    def test_no_cover_of_requested_size(self):
        z = ZeroPattern(2, 2, ((0, 0), (1, 1)))
        with pytest.raises(ValueError):
            forced_cover_lines(z, 1)

    def test_slack_size_still_forces_a_full_row(self):
        # nu = 1, and the only 2-covers are row 0 plus one more line
        z = ZeroPattern(3, 4, ((0, 0), (0, 1), (0, 2)))
        assert forced_cover_lines(z, 2) == (frozenset({0}), frozenset())


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
        assert forced_cover_lines(z, size) == reference_forced_cover_lines(z, size), size
    return forced_cover_lines(z, nu + 1) != (frozenset(), frozenset())


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


class TestOneMatchingPerPattern:
    # one component over 7 lines with nu = 3, so per-line tests take 5, 4 and 8 matchings
    Z = ZeroPattern(4, 3, ((0, 0), (0, 1), (1, 1), (2, 1), (2, 2), (3, 2)))

    @pytest.fixture
    def matchings(self, monkeypatch):
        calls = []
        real = covers._max_matching

        def counted(zeros):
            calls.append(zeros)
            return real(zeros)

        monkeypatch.setattr(covers, "_max_matching", counted)
        return calls

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
        lattice = cover_lattice(self.Z)
        assert len(matchings) == 1
        assert getattr(lattice, end) == reference(self.Z)

    def test_forced_lines_at_the_minimum_size(self, matchings):
        assert max_independent_zeros(self.Z) == 3
        matchings.clear()
        assert forced_cover_lines(self.Z, 3) == (frozenset(), frozenset({1, 2}))
        assert len(matchings) == 1


class TestCoverLattice:
    def test_one_matching_gives_both_ends_and_their_size(self, monkeypatch):
        calls = []
        real = covers._max_matching

        def counted(zeros):
            calls.append(zeros)
            return real(zeros)

        monkeypatch.setattr(covers, "_max_matching", counted)
        lattice = cover_lattice(TestOneMatchingPerPattern.Z)
        assert len(calls) == 1
        assert lattice.size == len(lattice.row_max) == len(lattice.col_max) == 3
        assert lattice.common_lines == (frozenset(), frozenset({1, 2}))


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
            _, forced_cols = forced_cover_lines(p.pattern, p.k - 1)
            for c in forced_cols:
                before = cover_profile(p)
                after = cover_profile(delete_column(p, c))
                for i in range(p.k):
                    for j in range(p.k - i):
                        expected = (after[(i, j - 1)] if j >= 1 else 0) + after[(i, j)]
                        assert before[(i, j)] == expected
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
