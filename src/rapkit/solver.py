"""Exact minimum-cost k-assignment on rectangular nonnegative matrices.

The solver runs successive shortest augmenting paths with node
potentials, one augmentation per assigned entry, on the bipartite
row/column graph.  Costs are carried as pairs (entry sum, tie weight)
under lexicographic order, which is a linearly ordered group, so the
usual correctness argument applies verbatim and the returned optimum is
additionally the lexicographically smallest sorted position list among
all minimum-cost k-assignments.

The tie weight of position (r, c) is 2^(mn) - 2^(mn-1-t) with t = r*n+c.
Minimizing the tie-weight sum of a k-assignment maximizes the sum of
2^(mn-1-t) over its positions.  An assignment uses each position at most
once, so that sum has only 0/1 binary digits, one per position, and the
larger of two such sums belongs to the set holding the smallest position
on which the two sets differ, so no base above k is needed.  The 2^(mn)
term keeps every weight positive.  The weights are computed once per
solve, as an m x n table.

Entries may be ints, fractions.Fraction, or floats; arithmetic stays in
the input type, so rational instances are solved exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations, permutations
from typing import Iterable, Sequence

from .model import Assignment, Position, SampledMatrix, checked_int

Number = int | float | Fraction

ENUMERATION_LIMIT = 2_000_000  # independent k-sets tolerated by brute force


@dataclass(frozen=True)
class SolveResult:
    """An optimal k-assignment together with its cost."""

    cost: Number
    assignment: Assignment

    @property
    def positions(self) -> tuple[Position, ...]:
        return self.assignment.positions


def _as_matrix(matrix: SampledMatrix | Sequence[Sequence[Number]]) -> list[list[Number]]:
    if isinstance(matrix, SampledMatrix):
        rows = [list(row) for row in matrix.entries]
    else:
        rows = [list(row) for row in matrix]
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    n = len(rows[0])
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix rows must have equal length")
        for x in row:
            if isinstance(x, float) and not math.isfinite(x):
                raise ValueError(f"matrix entries must be finite, got {x!r}")
            if x < 0:
                raise ValueError(f"matrix entries must be nonnegative, got {x!r}")
    return rows


def _check_k(k: int, m: int, n: int) -> int:
    k = checked_int(k, "k")
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k={k} out of range for a {m}x{n} matrix")
    return k


def solve_k_assignment(
    matrix: SampledMatrix | Sequence[Sequence[Number]], k: int
) -> SolveResult:
    """Globally minimal sum of k independent entries, deterministic on ties.

    Runs k successive shortest-path augmentations; each path is found by
    a multi-source Dijkstra from the unassigned rows over reduced costs,
    with potentials updated by the capped rule pi(x) += min(dist(x), D).
    """
    a = _as_matrix(matrix)
    m, n = len(a), len(a[0])
    k = _check_k(k, m, n)

    mn = m * n
    top = 1 << mn
    zero = a[0][0] - a[0][0]  # additive zero in the entry type
    tie = [[top - (1 << (mn - 1 - (r * n + c))) for c in range(n)] for r in range(m)]

    pot_r: list[list] = [[zero, 0] for _ in range(m)]
    pot_c: list[list] = [[zero, 0] for _ in range(n)]
    match_rc: list[int | None] = [None] * m
    match_cr: list[int | None] = [None] * n

    for _ in range(k):
        dist_r: list[tuple | None] = [None] * m
        dist_c: list[tuple | None] = [None] * n
        done_r = [False] * m
        done_c = [False] * n
        parent_c: list[int | None] = [None] * n  # column <- row it was relaxed from
        heap: list[tuple] = []
        for r in range(m):
            if match_rc[r] is None:
                dist_r[r] = (zero, 0)
                heappush(heap, (zero, 0, 0, r))
        end: int | None = None
        bound: tuple | None = None
        while heap:
            d0, d1, kind, x = heappop(heap)
            if kind == 0:
                if done_r[x] or (d0, d1) != dist_r[x]:
                    continue
                done_r[x] = True
                row, tie_row, own = a[x], tie[x], match_rc[x]
                # reduced cost convention: c(r,c) + pot_r - pot_c >= 0
                e0, e1 = d0 + pot_r[x][0], d1 + pot_r[x][1]
                for c in range(n):
                    if c == own or done_c[c]:
                        continue
                    nd = (e0 + row[c] - pot_c[c][0], e1 + tie_row[c] - pot_c[c][1])
                    if dist_c[c] is None or nd < dist_c[c]:
                        dist_c[c] = nd
                        parent_c[c] = x
                        heappush(heap, (nd[0], nd[1], 1, c))
            else:
                if done_c[x] or (d0, d1) != dist_c[x]:
                    continue
                done_c[x] = True
                r = match_cr[x]
                if r is None:
                    end = x
                    bound = (d0, d1)
                    break
                if not done_r[r] and (dist_r[r] is None or (d0, d1) < dist_r[r]):
                    dist_r[r] = (d0, d1)
                    heappush(heap, (d0, d1, 0, r))
        assert end is not None and bound is not None, "augmenting path must exist for k <= min(m,n)"

        for r in range(m):
            d = dist_r[r]
            inc = bound if d is None or d > bound else d
            pot_r[r][0] += inc[0]
            pot_r[r][1] += inc[1]
        for c in range(n):
            d = dist_c[c]
            inc = bound if d is None or d > bound else d
            pot_c[c][0] += inc[0]
            pot_c[c][1] += inc[1]

        c: int | None = end
        while c is not None:
            r = parent_c[c]
            prev = match_rc[r]
            match_rc[r] = c
            match_cr[c] = r
            c = prev

    positions = tuple(sorted((r, match_rc[r]) for r in range(m) if match_rc[r] is not None))
    cost = zero
    for r, c in positions:
        cost = cost + a[r][c]
    return SolveResult(cost=cost, assignment=Assignment(positions))


def _independent_k_sets(m: int, n: int, k: int) -> Iterable[tuple[Position, ...]]:
    for rows in combinations(range(m), k):
        for cols in permutations(range(n), k):
            yield tuple(sorted(zip(rows, cols)))


def brute_force_k_assignment(
    matrix: SampledMatrix | Sequence[Sequence[Number]], k: int
) -> SolveResult:
    """Exhaustive reference solver over every independent k-set."""
    a = _as_matrix(matrix)
    m, n = len(a), len(a[0])
    k = _check_k(k, m, n)
    if math.comb(m, k) * math.perm(n, k) > ENUMERATION_LIMIT:
        raise ValueError(f"instance too large for brute force ({m}x{n}, k={k})")
    best: tuple | None = None
    for positions in _independent_k_sets(m, n, k):
        cost = sum(a[r][c] for r, c in positions)
        key = (cost, positions)
        if best is None or key < best:
            best = key
    assert best is not None
    return SolveResult(cost=best[0], assignment=Assignment(best[1]))
