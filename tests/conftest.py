"""Shared helpers: random instance generation, brute-force cover references,
the slow oracle rules that the fast ones are checked against, and the instance
transformations and optimal-assignment structure that the identity checks use."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import pytest
from hypothesis import strategies as st

from rapkit.covers import CoverProfile, LineCover, forced_cover_lines, max_independent_zeros
from rapkit.model import (
    Assignment,
    InvalidInstanceError,
    Position,
    RapInstance,
    ZeroPattern,
    instance,
)
from rapkit.oracle import (
    EntryClassification,
    ExpRapState,
    ExpVariable,
    _fresh_ids,
    _gc,
    _substitute,
    classify_entries,
)


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


def is_partial_cover(p: RapInstance, rows: Iterable[int], cols: Iterable[int]) -> bool:
    """True iff (rows, cols) is a subset of some (k-1)-cover of the zeros.

    Equivalent test (König): the zeros left uncovered by the given lines
    admit a cover of size at most (k-1) - |rows| - |cols|, i.e. their
    maximum matching does not exceed that bound.
    """
    rset, cset = frozenset(rows), frozenset(cols)
    for r in rset:
        if not 0 <= r < p.m:
            raise IndexError(f"row index {r} out of range")
    for c in cset:
        if not 0 <= c < p.n:
            raise IndexError(f"column index {c} out of range")
    slack = (p.k - 1) - len(rset) - len(cset)
    if slack < 0:
        return False
    residual = [z for z in p.zeros if z[0] not in rset and z[1] not in cset]
    return max_independent_zeros(residual) <= slack


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


def reference_reduce_state(s: ExpRapState) -> ExpRapState:
    """Delete one line contained in every (k-1)-cover per pass, the smallest
    forced row first, then the smallest forced column, until a fixed point."""
    while True:
        try:
            rows, cols = forced_cover_lines(s.zero_pattern(), s.k - 1)
        except ValueError:  # no (k-1)-cover: k independent zeros exist
            return s
        if rows:
            r0 = min(rows)
            entries = tuple(row for r, row in enumerate(s.entries) if r != r0)
        elif cols:
            c0 = min(cols)
            entries = tuple(
                tuple(e for c, e in enumerate(row) if c != c0) for row in s.entries
            )
        else:
            return s
        s = ExpRapState(s.k - 1, entries, _gc(entries, s.variables), s.accumulated)


def reference_condition_minimum(
    s: ExpRapState, cls: EntryClassification | None = None
) -> tuple[Fraction, list[tuple[Fraction, ExpRapState]]]:
    """Minimum conditioning with one substitution of the whole matrix per child.

    Child idx rewrites member idx to Y and every other member j to Y plus
    a residual, the residuals numbered in member order skipping idx.
    """
    if cls is None:
        cls = classify_entries(s)
    cover = cls.cover
    size = len(cover)
    assert size < s.k, "caller must reduce the state first"
    if cls.non_covered_nonstandard and cls.minimal is None:
        raise ValueError("no minimal non-covered nonstandard entry; pair-condition instead")

    term: tuple[int, Fraction] | None = None
    if cls.minimal is not None:
        e = s.entries[cls.minimal[0]][cls.minimal[1]]
        term = min(e.terms)
    std_vars = [s.entries[r][c].terms[0][0] for r, c in cls.non_covered_standard]
    assert term is not None or std_vars, "reduced state must have a non-covered candidate"

    member_intensities: list[Fraction] = []
    if term is not None:
        vid, coeff = term
        member_intensities.append(Fraction(s.intensity(vid)) / coeff)
    member_intensities.extend(Fraction(1) for _ in std_vars)
    total = sum(member_intensities, Fraction(0))
    extracted = Fraction(s.k - size, 1) / total

    shift = {
        (r, c): -1
        for r in range(s.m)
        if r not in cover.rows
        for c in range(s.n)
        if c not in cover.cols
    } | {(r, c): 1 for r in cover.rows for c in cover.cols}

    members: list[tuple[str, int]] = []
    if term is not None:
        members.append(("term", term[0]))
    members.extend(("std", v) for v in std_vars)

    fresh = _fresh_ids(s, len(members))
    children: list[tuple[Fraction, ExpRapState]] = []
    for idx, (kind, vid) in enumerate(members):
        weight = member_intensities[idx] / total
        y_id = fresh[0]
        new_vars: list[ExpVariable] = [ExpVariable(y_id, total)]
        rules: dict[int, tuple[tuple[int, Fraction], ...]] = {}
        for jdx, (okind, ovid) in enumerate(members):
            if jdx == idx:
                if okind == "term":
                    a = term[1]
                    rules[ovid] = ((y_id, Fraction(1) / a),)
                else:
                    rules[ovid] = ((y_id, Fraction(1)),)
            else:
                z_id = fresh[1 + jdx - (1 if jdx > idx else 0)]
                if okind == "term":
                    a = term[1]
                    rules[ovid] = ((y_id, Fraction(1) / a), (z_id, Fraction(1) / a))
                    new_vars.append(ExpVariable(z_id, member_intensities[jdx]))
                else:
                    rules[ovid] = ((y_id, Fraction(1)), (z_id, Fraction(1)))
                    new_vars.append(ExpVariable(z_id, Fraction(1)))
        new_entries = _substitute(s.entries, rules, y_id, shift)
        variables = tuple(v for v in s.variables if v.id not in rules) + tuple(new_vars)
        children.append(
            (
                weight,
                ExpRapState(
                    s.k, new_entries, _gc(new_entries, variables), s.accumulated + extracted
                ),
            )
        )
    assert sum(w for w, _ in children) == 1 and all(w > 0 for w, _ in children)
    return extracted, children


def transpose_instance(p: RapInstance) -> RapInstance:
    """Swap rows and columns; every zero (r,c) becomes (c,r), k unchanged."""
    return instance(p.n, p.m, p.k, [(c, r) for r, c in p.zeros])


def delete_column(p: RapInstance, col: int) -> RapInstance:
    """Remove column ``col``, reindex the later columns, decrement k and n.

    Valid only when the shrunken instance is still a proper problem,
    i.e. n >= 2 and k >= 2.
    """
    if not (0 <= col < p.n):
        raise InvalidInstanceError(f"column index {col} out of range for n={p.n}")
    if p.k < 2 or p.k > min(p.m, p.n - 1):
        raise InvalidInstanceError(
            f"cannot delete a column unless 2 <= k <= min(m, n-1); k={p.k}, m={p.m}, n={p.n}"
        )
    zeros = [(r, c if c < col else c - 1) for r, c in p.zeros if c != col]
    return instance(p.m, p.n - 1, p.k - 1, zeros)


def enumerate_optimal_assignments(matrix, k: int) -> list[Assignment]:
    """All independent k-sets attaining the minimum cost, sorted.

    Exact comparison for int and Fraction entries; for float entries a
    relative tolerance of 1e-12 guards rounding in the summed costs.
    """
    m, n = len(matrix), len(matrix[0])
    scored = [
        (sum(matrix[r][c] for r, c in positions), positions)
        for rows in itertools.combinations(range(m), k)
        for cols in itertools.permutations(range(n), k)
        for positions in [tuple(sorted(zip(rows, cols)))]
    ]
    cutoff = min(cost for cost, _ in scored)
    if any(isinstance(x, float) for row in matrix for x in row):
        cutoff += abs(cutoff) * 1e-12
    return [Assignment(p) for p in sorted({p for cost, p in scored if cost <= cutoff})]


@dataclass(frozen=True)
class AlternatingPath:
    """Positions of mu (triangle) nu in traversal order.

    Consecutive positions share a row or a column and belong to the two
    assignments alternately; a cycle is reported as the traversal of all
    its positions starting from the smallest one.
    """

    positions: tuple[Position, ...]

    def __post_init__(self) -> None:
        for (r1, c1), (r2, c2) in zip(self.positions, self.positions[1:]):
            if r1 != r2 and c1 != c2:
                raise ValueError("consecutive path positions must share a line")


def symmetric_difference_paths(mu: Assignment, nu: Assignment) -> list[AlternatingPath]:
    """Decompose mu (triangle) nu into maximal alternating paths.

    Every position in the symmetric difference has at most one same-row
    neighbor and one same-column neighbor from the other assignment, so
    the components are paths and cycles; cycles are traversed in full
    starting from their smallest position.
    """
    if len(mu.positions) != len(nu.positions):
        raise ValueError("assignments must have equal size")
    mu_only = set(mu.positions) - set(nu.positions)
    nu_only = set(nu.positions) - set(mu.positions)

    def neighbors(p: Position) -> list[Position]:
        other = nu_only if p in mu_only else mu_only
        r, c = p
        out = [q for q in other if q[0] == r or q[1] == c]
        assert len(out) <= 2
        return sorted(out)

    paths: list[AlternatingPath] = []
    seen: set[Position] = set()
    for start in sorted(mu_only | nu_only):
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            p = frontier.pop()
            for q in neighbors(p):
                if q not in component:
                    component.add(q)
                    frontier.append(q)
        endpoints = sorted(p for p in component if len(neighbors(p)) < 2)
        cur = endpoints[0] if endpoints else min(component)
        order = [cur]
        seen.add(cur)
        while True:
            nxt = [q for q in neighbors(cur) if q not in seen]
            if not nxt:
                break
            cur = nxt[0]
            order.append(cur)
            seen.add(cur)
        assert len(order) == len(component)
        paths.append(AlternatingPath(tuple(order)))
    return paths


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
