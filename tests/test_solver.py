"""Exact k-assignment solver and the structure of optimal-assignment families."""

import inspect
import random
import sys
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from rapkit.model import Assignment, instance
from rapkit.montecarlo import sample_matrix
from rapkit.solver import _initial_matching, brute_force_k_assignment, solve_k_assignment

from conftest import (
    enumerate_optimal_assignments,
    position_set,
    random_fraction_matrix,
    reference_solve_k_assignment,
    symmetric_difference_paths,
)


def uses_row(a: Assignment, r: int) -> bool:
    """True iff some position of the assignment lies in row r."""
    return any(p[0] == r for p in a.positions)


class TestSolve:
    def test_two_by_two(self):
        result = solve_k_assignment([[1, 2], [3, 5]], 2)
        assert result.cost == 5
        assert result.positions == ((0, 1), (1, 0))

    def test_k1_is_global_minimum(self):
        result = solve_k_assignment([[7, 2, 9], [4, 8, 3]], 1)
        assert result.cost == 2 and result.positions == ((0, 1),)

    def test_zero_assignment(self):
        result = solve_k_assignment([[0, 1], [1, 0]], 2)
        assert result.cost == 0 and result.positions == ((0, 0), (1, 1))

    def test_lexicographic_tie_break(self):
        assert solve_k_assignment([[1, 1], [1, 1]], 1).positions == ((0, 0),)
        assert solve_k_assignment([[1, 1], [1, 1]], 2).positions == ((0, 0), (1, 1))
        # both diagonals cost 3; (0,0),(1,1) sorts first
        assert solve_k_assignment([[1, 2], [2, 2]], 2).positions == ((0, 0), (1, 1))

    def test_rectangular_partial(self):
        result = solve_k_assignment([[5, 1, 4], [2, 6, 3]], 1)
        assert result.cost == 1

    def test_fraction_entries_exact(self):
        matrix = [[Fraction(1, 3), Fraction(1, 2)], [Fraction(1, 4), Fraction(1, 6)]]
        result = solve_k_assignment(matrix, 2)
        assert result.cost == Fraction(1, 2)

    @pytest.mark.parametrize(
        "matrix,k",
        [
            ([[1, 2]], 2),
            ([[1, 2], [3, 4]], 0),
            ([[1, -2], [3, 4]], 1),
            ([[1, float("inf")], [3, 4]], 1),
            ([[1, 2], [3]], 1),
        ],
    )
    def test_invalid_inputs(self, matrix, k):
        with pytest.raises((ValueError, IndexError)):
            solve_k_assignment(matrix, k)

    @pytest.mark.parametrize("solver", [solve_k_assignment, brute_force_k_assignment])
    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_numpy_entries_are_refused(self, solver, dtype, value):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            solver([[dtype(value), 1.0], [1.0, 2.0]], 2)

    @pytest.mark.parametrize("solver", [solve_k_assignment, brute_force_k_assignment])
    @pytest.mark.parametrize("k", [2.0, True])
    def test_non_int_k_says_it_must_be_an_int(self, solver, k):
        with pytest.raises(ValueError, match="k must be an int") as info:
            solver([[1, 2], [3, 4]], k)
        assert "out of range" not in str(info.value)

    @pytest.mark.parametrize("solver", [solve_k_assignment, brute_force_k_assignment])
    def test_numpy_int_k_gives_the_same_result(self, solver):
        """An integer type such as numpy.int64 is an integer k, as in the model."""
        assert solver([[1, 2], [3, 4]], np.int64(2)) == solver([[1, 2], [3, 4]], 2)

    @pytest.mark.parametrize("solver", [solve_k_assignment, brute_force_k_assignment])
    @pytest.mark.parametrize("k", [0, 3, -1])
    def test_int_k_out_of_range(self, solver, k):
        with pytest.raises(ValueError, match=f"k={k} out of range for a 2x2 matrix"):
            solver([[1, 2], [3, 4]], k)

    def test_matches_brute_force_cost_and_positions(self):
        rng = random.Random(21)
        for _ in range(250):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            k = rng.randint(1, min(m, n))
            zeros = {(r, c) for r in range(m) for c in range(n) if rng.random() < 0.3}
            matrix = random_fraction_matrix(rng, m, n, zeros)
            fast = solve_k_assignment(matrix, k)
            slow = brute_force_k_assignment(matrix, k)
            assert fast.cost == slow.cost
            assert fast.positions == slow.positions

    def test_integer_ties_match_brute_force(self):
        # entries in {0, 1, 2}: many minimum-cost k-sets, one lexicographic optimum
        rng = random.Random(26)
        for _ in range(240):
            m, n = rng.randint(4, 6), rng.randint(4, 6)
            k = rng.randint(1, min(m, n))
            matrix = [[rng.randrange(3) for _ in range(n)] for _ in range(m)]
            fast = solve_k_assignment(matrix, k)
            slow = brute_force_k_assignment(matrix, k)
            assert fast.cost == slow.cost
            assert fast.positions == slow.positions

    @pytest.mark.parametrize("m,n,k", [(12, 12, 12), (9, 12, 5), (12, 9, 7)])
    def test_all_ones_gives_leading_diagonal(self, m, n, k):
        result = solve_k_assignment([[1] * n for _ in range(m)], k)
        assert result.cost == k
        assert result.positions == tuple((i, i) for i in range(k))

    def test_monotone_in_entries(self):
        rng = random.Random(22)
        for _ in range(100):
            m, n = rng.randint(2, 4), rng.randint(2, 4)
            k = rng.randint(1, min(m, n))
            matrix = random_fraction_matrix(rng, m, n)
            base = solve_k_assignment(matrix, k).cost
            r, c = rng.randrange(m), rng.randrange(n)
            matrix[r][c] = matrix[r][c] / 2
            assert solve_k_assignment(matrix, k).cost <= base


class TestBenchmarkSizes:
    """Sampled matrices at the sizes the solver is benchmarked on, against scipy."""

    @staticmethod
    def check(matrix, k):
        a = np.array([[float(x) for x in row] for row in matrix])
        m, n = a.shape
        result = solve_k_assignment(matrix, k)
        positions = result.positions
        assert len(positions) == k
        assert len({r for r, _ in positions}) == k and len({c for _, c in positions}) == k
        assert result.cost == sum(matrix[r][c] for r, c in positions)
        # m - k zero dummy columns absorb the rows a k-assignment leaves out
        padded = np.concatenate([a, np.zeros((m, m - k))], axis=1)
        rows, cols = linear_sum_assignment(padded)
        ref = float(sum(a[r, c] for r, c in zip(rows, cols) if c < n))
        assert float(result.cost) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("k", [40, 20])
    def test_40x40_floats(self, k):
        for seed in (1, 2):
            matrix = sample_matrix(instance(40, 40, k), seed).entries
            self.check(matrix, k)

    @pytest.mark.parametrize("k", [80, 40])
    def test_80x80_floats(self, k):
        self.check(sample_matrix(instance(80, 80, k), 1).entries, k)

    def test_20x20_fractions_with_zeros(self):
        p = instance(20, 20, 20, [(0, 0), (3, 5), (3, 7), (11, 5), (19, 19)])
        matrix = [[Fraction(x) for x in row] for row in sample_matrix(p, 3).entries]
        self.check(matrix, 20)


class TestAgainstReference:
    """The dense scan returns the cost and positions of the heap solver it replaced."""

    @staticmethod
    def check(matrix, k):
        assert solve_k_assignment(matrix, k) == reference_solve_k_assignment(matrix, k)

    @pytest.mark.parametrize(
        "m,n,k",
        [(10, 10, 10), (10, 10, 5), (20, 20, 20), (20, 20, 10), (40, 40, 40), (40, 40, 20),
         (30, 40, 30), (30, 40, 15), (40, 30, 30), (40, 30, 15)],
    )
    def test_sampled_floats(self, m, n, k):
        for seed in (4, 5):
            self.check(sample_matrix(instance(m, n, k), seed), k)

    def test_20x20_fractions_with_zeros(self):
        rng = random.Random(27)
        for k in (20, 10):
            zeros = {(r, c) for r in range(20) for c in range(20) if rng.random() < 0.1}
            self.check(random_fraction_matrix(rng, 20, 20, zeros), k)

    @pytest.mark.parametrize("full", [False, True], ids=["random-k", "full-k"])
    @pytest.mark.parametrize("values", [2, 3])
    def test_integer_ties_past_brute_force(self, values, full):
        # entries in {0, 1} or {0, 1, 2}: primary ties in nearly every scan,
        # and at k = min(m, n) the late scans pass through many assigned rows
        rng = random.Random(28 + values + 2 * full)
        for _ in range(60):
            m, n = rng.randint(8, 30), rng.randint(8, 30)
            k = min(m, n) if full else rng.randint(1, min(m, n))
            self.check([[rng.randrange(values) for _ in range(n)] for _ in range(m)], k)


class TestNumpyInput:
    """A numpy array is read as Python numbers, once, by both solvers."""

    @pytest.mark.parametrize("solver", [solve_k_assignment, brute_force_k_assignment])
    @pytest.mark.parametrize("as_rows", [False, True], ids=["array", "list-of-rows"])
    def test_int64_sums_do_not_wrap(self, solver, as_rows):
        matrix = np.array([[2**62, 2**62 + 5], [2**62 + 3, 2**62]], dtype=np.int64)
        if as_rows:
            matrix = list(matrix)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solver(matrix, 2)
        assert type(result.cost) is int and result.cost == 2**63
        assert result.positions == ((0, 0), (1, 1))

    @pytest.mark.parametrize("solver", [solve_k_assignment, brute_force_k_assignment])
    def test_float64_array_gives_the_list_result(self, solver):
        rows = [[0.5, 1.25, 3.0], [2.0, 0.75, 0.125], [1.5, 4.0, 0.25]]
        result = solver(np.array(rows), 3)
        assert result == solver(rows, 3)
        assert type(result.cost) is float


def finished_columns(matrix, k: int) -> int:
    """How many columns the augmentation scans of one solve finish."""
    lines, first = inspect.getsourcelines(solve_k_assignment)
    target = first + next(i for i, line in enumerate(lines) if "todo.remove(end)" in line)
    code = solve_k_assignment.__code__
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line" and frame.f_lineno == target:
            count += 1
        return local

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        solve_k_assignment(matrix, k)
    finally:
        sys.settrace(old)
    return count


def free_after_initialization(matrix) -> list[int]:
    """The rows the Jonker-Volgenant initialization leaves to augmentation."""
    match_rc = _initial_matching(matrix, 1 << (len(matrix) ** 2))[0]
    return [r for r, c in enumerate(match_rc) if c is None]


class TestInitialization:
    """At k = m = n the initialization runs first; results equal the reference solver."""

    @staticmethod
    def check(matrix):
        n = len(matrix)
        assert solve_k_assignment(matrix, n) == reference_solve_k_assignment(matrix, n)

    def test_one_by_one(self):
        for x in (0, 7, Fraction(2, 3), 0.5):
            self.check([[x]])

    def test_every_two_by_two_over_0_1_2(self):
        for a, b, c, d in product(range(3), repeat=4):
            self.check([[a, b], [c, d]])

    def test_20x20_fractions_with_zeros(self):
        rng = random.Random(44)
        for density in (0.05, 0.2, 0.5):
            zeros = {(r, c) for r in range(20) for c in range(20) if rng.random() < density}
            self.check(random_fraction_matrix(rng, 20, 20, zeros))

    @pytest.mark.parametrize("values", [2, 3])
    def test_integer_matrices_8_to_30(self, values):
        rng = random.Random(440 + values)
        for n in range(8, 31):
            self.check([[rng.randrange(values) for _ in range(n)] for _ in range(n)])

    def test_rows_left_free_are_augmented_from_the_initial_matching(self):
        rng = random.Random(4)
        matrix = [[rng.randrange(3) for _ in range(12)] for _ in range(12)]
        assert free_after_initialization(matrix) == [3, 6]
        self.check(matrix)

    @pytest.mark.parametrize("unit,far", [(1, 10**12), (1e-9, 1.0)], ids=["ints", "floats"])
    def test_bid_war_stops_at_the_budget(self, unit, far):
        # rows 0-2 bid for columns 0 and 1 in steps of about `unit`, against
        # columns 2 and 3 at `far`: without the budget of n^2 = 16 bids the
        # passes would run for about far / unit bids
        matrix = [[x * unit, y * unit, far, far] for x, y in ((0, 1), (1, 3), (3, 7))]
        matrix.append([far, far, 0, unit])
        assert free_after_initialization(matrix) == [0]
        self.check(matrix)
        assert brute_force_k_assignment(matrix, 4) == solve_k_assignment(matrix, 4)

    def test_sampled_40x40_finishes_no_column(self):
        # the augmentations alone, from the empty matching, finish 427 columns here
        assert finished_columns(sample_matrix(instance(40, 40, 40), 1), 40) == 0

    def test_partial_k_keeps_successive_shortest_paths(self):
        # k < n: the augmentations alone, from the empty matching
        assert finished_columns(sample_matrix(instance(40, 40, 20), 1), 20) == 99


class TestBruteForce:
    def test_two_by_two(self):
        assert brute_force_k_assignment([[1, 2], [3, 5]], 2).cost == 5

    def test_single_cell(self):
        result = brute_force_k_assignment([[Fraction(7, 3)]], 1)
        assert result.cost == Fraction(7, 3)

    def test_three_permutations(self):
        matrix = [[1, 9, 9], [9, 1, 9], [9, 9, 1]]
        assert brute_force_k_assignment(matrix, 3).cost == 3


class TestEnumerateOptima:
    def test_unique_optimum(self):
        optima = enumerate_optimal_assignments([[0, 0], [1, 2]], 2)
        assert len(optima) == 1
        assert optima[0].positions == ((0, 1), (1, 0))

    def test_all_zero_two_optima(self):
        optima = enumerate_optimal_assignments([[0, 0], [0, 0]], 2)
        assert len(optima) == 2

    def test_generic_unique(self):
        rng = random.Random(23)
        matrix = [[rng.random() for _ in range(3)] for _ in range(3)]
        assert len(enumerate_optimal_assignments(matrix, 3)) == 1

    def test_zero_difference_equivalence(self):
        # distinct optima of a sampled standard RAP differ only at zeros
        rng = random.Random(24)
        for _ in range(60):
            m, n = rng.randint(2, 4), rng.randint(2, 4)
            k = rng.randint(1, min(m, n))
            zeros = {(r, c) for r in range(m) for c in range(n) if rng.random() < 0.4}
            matrix = [
                [Fraction(0) if (r, c) in zeros else Fraction(rng.random()).limit_denominator(10**9)
                 for c in range(n)]
                for r in range(m)
            ]
            optima = enumerate_optimal_assignments(matrix, k)
            for a in optima:
                for b in optima:
                    diff = position_set(a) ^ position_set(b)
                    assert all(matrix[r][c] == 0 for r, c in diff)


class TestAlternatingPaths:
    def test_equal_assignments(self):
        mu = Assignment(((0, 0), (1, 1)))
        assert symmetric_difference_paths(mu, mu) == []

    def test_two_by_two_swap_is_one_cycle(self):
        mu = Assignment(((0, 0), (1, 1)))
        nu = Assignment(((0, 1), (1, 0)))
        paths = symmetric_difference_paths(mu, nu)
        assert len(paths) == 1 and len(paths[0].positions) == 4

    def test_disjoint_singletons(self):
        paths = symmetric_difference_paths(Assignment(((0, 0),)), Assignment(((1, 1),)))
        assert sorted(len(p.positions) for p in paths) == [1, 1]

    def test_positions_alternate_between_assignments(self):
        mu = Assignment(((0, 0), (1, 1), (2, 2)))
        nu = Assignment(((0, 1), (1, 0), (2, 2)))
        for path in symmetric_difference_paths(mu, nu):
            sides = [pos in mu for pos in path.positions]
            assert all(sides[i] != sides[i + 1] for i in range(len(sides) - 1))

    def test_partition_covers_symmetric_difference(self):
        mu = Assignment(((0, 0), (1, 2), (2, 1)))
        nu = Assignment(((0, 2), (1, 1), (3, 0)))
        paths = symmetric_difference_paths(mu, nu)
        scattered = [pos for path in paths for pos in path.positions]
        assert sorted(scattered) == sorted(position_set(mu) ^ position_set(nu))

    def test_optimal_families_decompose_into_few_paths(self):
        # any element of an optimum can be reached from any other optimum
        # through one path or two odd paths
        rng = random.Random(25)
        for _ in range(60):
            m, n = rng.randint(2, 4), rng.randint(2, 4)
            k = rng.randint(1, min(m, n))
            zeros = {(r, c) for r in range(m) for c in range(n) if rng.random() < 0.4}
            matrix = random_fraction_matrix(rng, m, n, zeros)
            optima = enumerate_optimal_assignments(matrix, k)
            if len(optima) < 2:
                continue
            for mu in optima:
                for nu in optima:
                    for a in position_set(nu) - position_set(mu):
                        assert any(
                            len(paths) == 1
                            or (len(paths) == 2
                                and all(len(t.positions) % 2 == 1 for t in paths))
                            for cand in optima
                            if a in position_set(cand)
                            for paths in [symmetric_difference_paths(mu, cand)]
                        )


class TestUsesRow:
    def test_present(self):
        assert uses_row(Assignment(((0, 1),)), 0)

    def test_absent(self):
        assert not uses_row(Assignment(((0, 1),)), 1)

    def test_full_assignment_uses_all_rows(self):
        a = Assignment(((0, 2), (1, 0), (2, 1)))
        assert all(uses_row(a, r) for r in range(3))
