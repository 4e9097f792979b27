"""Line covers of zero patterns and the cover-coefficient tables.

A *cover* is a set of rows and columns such that every zero lies in a
chosen line; an s-cover uses s lines.  By König's theorem the minimum
cover size equals the maximum number of independent zeros.  A *partial
(k-1)-cover* is a set of rows and columns contained in some (k-1)-cover;
the cover coefficient d_{i,j} counts partial (k-1)-covers with exactly
i rows and j columns.

Everything here is exact integer work on desk-scale patterns; counting
is done by direct subset enumeration with a memoized matching test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .model import Position, RapInstance, ZeroPattern


@dataclass(frozen=True)
class LineCover:
    """A set of row indices and column indices, asserted to cover a zero set."""

    rows: frozenset[int]
    cols: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", frozenset(self.rows))
        object.__setattr__(self, "cols", frozenset(self.cols))

    def __len__(self) -> int:
        return len(self.rows) + len(self.cols)

    def covers(self, zeros: Iterable[Position]) -> bool:
        return all(r in self.rows or c in self.cols for r, c in zeros)


@dataclass(frozen=True)
class CoverProfile:
    """The table of cover coefficients d_{i,j} for 0 <= i+j < k.

    Coefficients outside that range are identically zero and not stored.
    """

    k: int
    coefficients: tuple[tuple[int, int, int], ...]  # sorted (i, j, count)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        for ci, cj, count in self.coefficients:
            if (ci, cj) == (i, j):
                return count
        return 0

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(i, j): count for i, j, count in self.coefficients}

    def to_json_obj(self) -> dict:
        return {"k": self.k, "d": [[i, j, str(count)] for i, j, count in self.coefficients]}


# ---------------------------------------------------------------------------
# Maximum matching on the bipartite zero graph
# ---------------------------------------------------------------------------


def _max_matching(zeros: Iterable[Position]) -> dict[int, int]:
    """Kuhn's augmenting-path matching over zero positions; returns col->row."""
    adj: dict[int, list[int]] = {}
    for r, c in sorted(zeros):
        adj.setdefault(r, []).append(c)
    match_col: dict[int, int] = {}

    def try_row(r: int, seen: set[int]) -> bool:
        for c in adj[r]:
            if c in seen:
                continue
            seen.add(c)
            if c not in match_col or try_row(match_col[c], seen):
                match_col[c] = r
                return True
        return False

    for r in adj:
        try_row(r, set())
    return match_col


def max_independent_zeros(z: ZeroPattern | Iterable[Position]) -> int:
    """Size of the largest set of zeros, no two in the same row or column."""
    zeros = z.zeros if isinstance(z, ZeroPattern) else tuple(z)
    return len(_max_matching(zeros))


def min_cover(z: ZeroPattern) -> LineCover:
    """A minimum cover of the zeros, of size max_independent_zeros (König).

    Constructed from a maximum matching by the standard alternating-
    reachability argument: rows unmatched on the zero graph start a BFS
    along non-matching edges to columns and matching edges back to rows;
    the cover is (matched rows not reached) + (columns reached).
    """
    zeros = z.zeros
    match_col = _max_matching(zeros)
    match_row = {r: c for c, r in match_col.items()}
    adj: dict[int, set[int]] = {}
    for r, c in zeros:
        adj.setdefault(r, set()).add(c)

    reached_rows = {r for r in adj if r not in match_row}
    reached_cols: set[int] = set()
    frontier = list(reached_rows)
    while frontier:
        r = frontier.pop()
        for c in adj[r]:
            if c in reached_cols:
                continue
            reached_cols.add(c)
            nxt = match_col.get(c)
            if nxt is not None and nxt not in reached_rows:
                reached_rows.add(nxt)
                frontier.append(nxt)

    rows = {r for r in match_row if r not in reached_rows}
    cols = {c for c in match_col if c in reached_cols}
    cover = LineCover(frozenset(rows), frozenset(cols))
    assert len(cover) == len(match_col) and cover.covers(zeros)
    return cover


def _matching_without_line(zeros: tuple[Position, ...], row: int | None, col: int | None) -> int:
    residual = [p for p in zeros if p[0] != row and p[1] != col]
    return len(_max_matching(residual))


def row_maximal_cover(z: ZeroPattern) -> LineCover:
    """The optimal cover whose row set contains every row of every optimal cover.

    A row r belongs to some optimal cover iff deleting it lowers the
    maximum number of independent zeros; by the lattice property of
    optimal covers the union of those rows, completed by the columns
    still holding uncovered zeros, is itself an optimal cover.
    """
    zeros = z.zeros
    s = max_independent_zeros(z)
    rows = {r for r in {p[0] for p in zeros} if _matching_without_line(zeros, r, None) == s - 1}
    cols = {c for r, c in zeros if r not in rows}
    cover = LineCover(frozenset(rows), frozenset(cols))
    assert len(cover) == s and cover.covers(zeros)
    return cover


def column_maximal_cover(z: ZeroPattern) -> LineCover:
    """Dual of :func:`row_maximal_cover`."""
    zeros = z.zeros
    s = max_independent_zeros(z)
    cols = {c for c in {p[1] for p in zeros} if _matching_without_line(zeros, None, c) == s - 1}
    rows = {r for r, c in zeros if c not in cols}
    cover = LineCover(frozenset(rows), frozenset(cols))
    assert len(cover) == s and cover.covers(zeros)
    return cover


# ---------------------------------------------------------------------------
# Partial (k-1)-covers and the coefficient tables
# ---------------------------------------------------------------------------


class _ResidualMatcher:
    """Matching sizes of residual zero sets, cached by the residual itself."""

    def __init__(self, zeros: tuple[Position, ...]):
        self.zeros = zeros
        self._cache: dict[frozenset[Position], int] = {}

    def residual_matching(self, rows: frozenset[int], cols: frozenset[int]) -> int:
        residual = frozenset(p for p in self.zeros if p[0] not in rows and p[1] not in cols)
        hit = self._cache.get(residual)
        if hit is None:
            hit = len(_max_matching(residual))
            self._cache[residual] = hit
        return hit


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
    matcher = _ResidualMatcher(p.zeros)
    return matcher.residual_matching(rset, cset) <= slack


def cover_profile(p: RapInstance) -> CoverProfile:
    """Count partial (k-1)-covers by exact subset enumeration.

    d_{i,j} enumerates i-row-subsets x j-column-subsets, testing each with
    one residual maximum-matching computation.  Residual results are shared
    through a per-call cache keyed by the residual zero set.
    """
    matcher = _ResidualMatcher(p.zeros)
    coeffs: list[tuple[int, int, int]] = []
    for i in range(min(p.m, p.k - 1) + 1):
        for j in range(min(p.n, p.k - 1 - i) + 1):
            slack = (p.k - 1) - i - j
            count = 0
            for rows in combinations(range(p.m), i):
                rset = frozenset(rows)
                for cols in combinations(range(p.n), j):
                    if matcher.residual_matching(rset, frozenset(cols)) <= slack:
                        count += 1
            coeffs.append((i, j, count))
    return CoverProfile(p.k, tuple(coeffs))


def row_excluded_profile(p: RapInstance, r: int) -> tuple[int, ...]:
    """For each i, the number of partial (k-1)-covers of i rows avoiding row r."""
    if not 0 <= r < p.m:
        raise IndexError(f"row index {r} out of range for m={p.m}")
    matcher = _ResidualMatcher(p.zeros)
    other_rows = [x for x in range(p.m) if x != r]
    counts = []
    for i in range(p.k):
        slack = (p.k - 1) - i
        count = 0
        for rows in combinations(other_rows, i):
            if matcher.residual_matching(frozenset(rows), frozenset()) <= slack:
                count += 1
        counts.append(count)
    return tuple(counts)


# ---------------------------------------------------------------------------
# Forced lines: membership in every cover of a given size
# ---------------------------------------------------------------------------


def _min_cover_avoiding(zeros: tuple[Position, ...], row: int | None, col: int | None) -> int:
    """Minimum size of a cover not using the given line.

    Zeros on the forbidden line must be covered by their crossing lines;
    the rest is a König minimum cover of the remaining zeros.
    """
    if row is not None:
        forced_cols = {c for rr, c in zeros if rr == row}
        residual = [p for p in zeros if p[0] != row and p[1] not in forced_cols]
        return len(forced_cols) + len(_max_matching(residual))
    forced_rows = {rr for rr, c in zeros if c == col}
    residual = [p for p in zeros if p[1] != col and p[0] not in forced_rows]
    return len(forced_rows) + len(_max_matching(residual))


def forced_cover_lines(z: ZeroPattern, size: int) -> tuple[frozenset[int], frozenset[int]]:
    """Rows and columns that belong to every cover of at most ``size`` lines.

    Meaningful only when such a cover exists (max_independent_zeros <= size);
    raises ValueError otherwise, since membership would be vacuous.
    """
    if max_independent_zeros(z) > size:
        raise ValueError(f"no {size}-cover exists")
    zeros = z.zeros
    rows = frozenset(
        r for r in {p[0] for p in zeros} if _min_cover_avoiding(zeros, r, None) > size
    )
    cols = frozenset(
        c for c in {p[1] for p in zeros} if _min_cover_avoiding(zeros, None, c) > size
    )
    return rows, cols

