"""Shared helpers: random instance generation and brute-force cover references."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from rapkit.covers import CoverProfile, LineCover, max_independent_zeros
from rapkit.model import Position, RapInstance, ZeroPattern, instance


def random_instance(
    rng: random.Random,
    max_m: int = 4,
    max_n: int = 4,
    zero_density: float = 0.35,
    min_k: int = 1,
) -> RapInstance:
    m = rng.randint(max(1, min_k), max_m)
    n = rng.randint(max(1, min_k), max_n)
    k = rng.randint(min_k, min(m, n))
    zeros = [(r, c) for r in range(m) for c in range(n) if rng.random() < zero_density]
    return instance(m, n, k, zeros)


def random_fraction_matrix(
    rng: random.Random, m: int, n: int, zeros: set | None = None
) -> list[list[Fraction]]:
    zeros = zeros or set()
    return [
        [
            Fraction(0) if (r, c) in zeros else Fraction(rng.randint(1, 24), rng.randint(1, 8))
            for c in range(n)
        ]
        for r in range(m)
    ]


def brute_force_min_cover_size(z: ZeroPattern) -> int:
    """Smallest number of lines covering every zero, by subset enumeration."""
    best = None
    for rows in itertools.chain.from_iterable(
        itertools.combinations(range(z.m), i) for i in range(z.m + 1)
    ):
        rowset = set(rows)
        residual_cols = {c for r, c in z.zeros if r not in rowset}
        size = len(rowset) + len(residual_cols)
        if best is None or size < best:
            best = size
    return best


def _matching_without_line(zeros, row: int | None, col: int | None) -> int:
    return max_independent_zeros([p for p in zeros if p[0] != row and p[1] != col])


def reference_row_maximal_cover(z: ZeroPattern) -> LineCover:
    """The row-maximal optimal cover, one matching per row holding a zero.

    A row r belongs to some optimal cover iff deleting it lowers the
    maximum number of independent zeros; by the lattice property of
    optimal covers the union of those rows, completed by the columns
    still holding uncovered zeros, is itself an optimal cover.
    """
    s = max_independent_zeros(z)
    rows = {r for r in {p[0] for p in z.zeros} if _matching_without_line(z.zeros, r, None) == s - 1}
    return LineCover(frozenset(rows), frozenset(c for r, c in z.zeros if r not in rows))


def reference_column_maximal_cover(z: ZeroPattern) -> LineCover:
    """Dual of :func:`reference_row_maximal_cover`."""
    s = max_independent_zeros(z)
    cols = {c for c in {p[1] for p in z.zeros} if _matching_without_line(z.zeros, None, c) == s - 1}
    return LineCover(frozenset(r for r, c in z.zeros if c not in cols), frozenset(cols))


def _min_cover_avoiding(zeros, row: int | None, col: int | None) -> int:
    """Minimum size of a cover not using the given line: the zeros on it
    are covered by their crossing lines, the rest by a König cover."""
    if row is not None:
        forced_cols = {c for rr, c in zeros if rr == row}
        residual = [p for p in zeros if p[0] != row and p[1] not in forced_cols]
        return len(forced_cols) + max_independent_zeros(residual)
    forced_rows = {rr for rr, c in zeros if c == col}
    residual = [p for p in zeros if p[1] != col and p[0] not in forced_rows]
    return len(forced_rows) + max_independent_zeros(residual)


def reference_forced_cover_lines(z: ZeroPattern, size: int) -> tuple[frozenset[int], frozenset[int]]:
    """Lines in every cover of at most ``size`` lines, testing every line holding a zero."""
    if max_independent_zeros(z) > size:
        raise ValueError(f"no {size}-cover exists")
    rows = frozenset(r for r in {p[0] for p in z.zeros} if _min_cover_avoiding(z.zeros, r, None) > size)
    cols = frozenset(c for c in {p[1] for p in z.zeros} if _min_cover_avoiding(z.zeros, None, c) > size)
    return rows, cols


def _residual_matcher(zeros):
    """Matching size of the zeros a line choice leaves, cached by the residual."""
    cache: dict[frozenset, int] = {}

    def residual_matching(rows, cols) -> int:
        residual = frozenset(p for p in zeros if p[0] not in rows and p[1] not in cols)
        if residual not in cache:
            cache[residual] = max_independent_zeros(residual)
        return cache[residual]

    return residual_matching


def brute_force_cover_profile(p: RapInstance) -> CoverProfile:
    """d_{i,j} by testing every i-row, j-column subset with a residual matching."""
    residual_matching = _residual_matcher(p.zeros)
    coeffs = []
    for i in range(min(p.m, p.k - 1) + 1):
        for j in range(min(p.n, p.k - 1 - i) + 1):
            slack = (p.k - 1) - i - j
            count = sum(
                residual_matching(set(rows), set(cols)) <= slack
                for rows in itertools.combinations(range(p.m), i)
                for cols in itertools.combinations(range(p.n), j)
            )
            coeffs.append((i, j, count))
    return CoverProfile(p.k, tuple(coeffs))


def brute_force_row_excluded_profile(p: RapInstance, r: int) -> tuple[int, ...]:
    """Per i, the i-row partial (k-1)-covers avoiding row r, by subset enumeration."""
    residual_matching = _residual_matcher(p.zeros)
    other_rows = [x for x in range(p.m) if x != r]
    return tuple(
        sum(
            residual_matching(set(rows), ()) <= (p.k - 1) - i
            for rows in itertools.combinations(other_rows, i)
        )
        for i in range(p.k)
    )


def all_patterns(m: int, n: int):
    cells = [(r, c) for r in range(m) for c in range(n)]
    for bits in range(1 << (m * n)):
        yield ZeroPattern(m, n, tuple(cells[i] for i in range(m * n) if bits >> i & 1))


def pattern_classes(m: int, n: int) -> list[tuple[Position, ...]]:
    """One zero set per m x n zero pattern up to row and column permutation.

    A pattern is a multiset of row bitmasks; its class representative is
    the smallest sorted row tuple over all column permutations.
    """
    moved = [
        [sum(1 << perm[c] for c in range(n) if mask >> c & 1) for mask in range(1 << n)]
        for perm in itertools.permutations(range(n))
    ]
    classes = {
        min(tuple(sorted(table[mask] for mask in rows)) for table in moved)
        for rows in itertools.combinations_with_replacement(range(1 << n), m)
    }
    return sorted(
        tuple((r, c) for r, mask in enumerate(rows) for c in range(n) if mask >> c & 1)
        for rows in classes
    )


@st.composite
def instances(draw, max_m: int = 4, max_n: int = 4):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, min(m, n)))
    cells = [(r, c) for r in range(m) for c in range(n)]
    zeros = draw(st.lists(st.sampled_from(cells), unique=True, max_size=m * n))
    return instance(m, n, k, zeros)


@pytest.fixture(scope="session")
def oracle_cache() -> dict:
    """Canonical-state memo shared across the whole session; exact, so safe."""
    return {}
