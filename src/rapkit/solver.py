"""Exact minimum-cost k-assignment on rectangular nonnegative matrices.

The solver is the primal-dual method of Jonker and Volgenant (Computing
38, 1987) on the bipartite row/column graph, with node potentials.
Costs are carried as pairs (entry sum, tie weight) under lexicographic
order, which is a linearly ordered group, so the usual correctness
argument applies verbatim and the returned optimum is additionally the
lexicographically smallest sorted position list among all minimum-cost
k-assignments.

The tie weight of position (r, c) is 2^(mn) - 2^(mn-1-t) with t = r*n+c.
Minimizing the tie-weight sum of a k-assignment maximizes the sum of
2^(mn-1-t) over its positions.  An assignment uses each position at most
once, so that sum has only 0/1 binary digits, one per position, and the
larger of two such sums belongs to the set holding the smallest position
on which the two sets differ, so no base above k is needed.  The 2^(mn)
term keeps every weight positive.

A full square assignment (k = m = n) starts with Jonker and Volgenant's
three initialization phases, all on pairs:

- column reduction: each column's potential is its smallest entry.  When
  one row holds it, the tie part is that position's tie weight and the
  row takes the first such column.  When several rows hold it, the tie
  part is 0 and the column stays free: its rows then see the tie weights
  as the augmentations from scratch do, first positions cheapest.
  Giving such a column its first row instead left most rows of a 40x40
  {0, 1, 2} matrix to augmentation and doubled its time;
- reduction transfer: a row that is the minimum of one column only lowers
  that column's potential by the row's second-smallest reduced cost;
- augmenting row reduction, two passes: a free row takes its cheapest
  column and lowers that column's potential to the row's second-cheapest
  reduced cost, and the row it displaces bids again, at once when the
  entry part fell, else in the next pass.  A fall in the tie part alone
  could repeat without end, as tie parts never add up to an entry-sum
  step; a fall in the entry part can repeat about (entry range) /
  (smallest difference) times, so the passes stop after n^2 bids.

They leave a partial matching with every reduced cost >= 0 and the
matched ones 0.  Column potentials only fall below the column minima,
so the rows still free keep potential 0.  On sampled 40x40 matrices no
row is left free; on {0, 1, 2} ones a few are.

Successive shortest augmenting paths then match the free rows, one
augmentation each: all of them when k < min(m, n) or m != n.  Only this
phase leaves a minimum-cost t-assignment after every t augmentations,
as its free rows share one potential and every scan starts from all of
them.  That is what lets the solver stop at k; the initialization's
partial matching is optimal only as part of a full assignment.

Each augmentation is one dense shortest-path scan: every unfinished
column keeps its tentative entry-sum distance and its parent row in
plain lists, the next column is picked by a linear scan, and a finished
row relaxes only the unfinished columns, so an augmentation costs O(mn)
at most.  The tie part of a column's distance depends only on the
column and its parent row, so it is computed on demand: where two entry
sums are equal, in a relaxation or in the pick, and once for each
finished column.  The initialization likewise takes tie parts only
where two entry sums are equal and for the potentials it moves.  No
table of weights is built.  Every scan finishes the free rows at
distance 0, so they keep sharing one potential, and each column keeps
its smallest entry over the free rows from one augmentation to the
next: a scan starts from those n entries instead of relaxing every free
row.

Entries may be ints, fractions.Fraction, or floats; arithmetic stays in
the input type, so rational instances are solved exactly.  The rows of
a numpy array are read as Python numbers, so int64 sums cannot wrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from operator import sub
from typing import Iterable, Sequence

from .model import Assignment, Position, SampledMatrix, checked_int, is_finite

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


def _as_matrix(
    matrix: SampledMatrix | Sequence[Sequence[Number]],
) -> Sequence[Sequence[Number]]:
    if isinstance(matrix, SampledMatrix):
        return matrix.entries  # finite and nonnegative by construction
    # numpy rows become Python ints and floats, whose sums cannot wrap
    rows = [row.tolist() if hasattr(row, "tolist") else list(row) for row in matrix]
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    n = len(rows[0])
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix rows must have equal length")
        for x in row:
            if not 0 <= x < math.inf:  # nonnegative and finite; NaN fails too
                if not is_finite(x):
                    raise ValueError(f"matrix entries must be finite, got {x!r}")
                raise ValueError(f"matrix entries must be nonnegative, got {x!r}")
    return rows


def _check_k(k: int, m: int, n: int) -> int:
    k = checked_int(k, "k")
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k={k} out of range for a {m}x{n} matrix")
    return k


def _initial_matching(a: Sequence[Sequence[Number]], top: int) -> tuple[list, ...]:
    """Jonker-Volgenant initialization of a square matrix, on (entry sum, tie) pairs.

    Returns match_rc, match_cr, pot_r0, pot_r1, pot_c0, pot_c1: a partial
    matching and potentials with every reduced cost
    a[r][c] + pot_r[r] - pot_c[c] >= 0 in the pair order, zero on the
    matched positions, and potential 0 on the unmatched rows.
    """
    n = len(a)
    last = n * n - 1
    inf = math.inf
    pot_c0: list = []
    pot_c1: list[int] = []
    match_rc: list[int | None] = [None] * n
    match_cr: list[int | None] = [None] * n

    def tie(r: int, c: int) -> int:
        return top - (1 << (last - r * n - c))

    def cheapest_two(r: int, h: list) -> tuple[tuple, tuple]:
        """Row r's two pair-smallest reduced costs (entry part, tie part, column).

        h holds the row's entry parts; tie parts are taken only for the
        columns whose entry part ties with one of the two smallest.
        """
        b0 = min(h)
        c = h.index(b0)
        h[c] = inf
        s0 = min(h)
        c2 = h.index(s0)
        if b0 < s0 and h.count(s0) == 1:
            return (b0, tie(r, c) - pot_c1[c], c), (s0, tie(r, c2) - pot_c1[c2], c2)
        h[c] = b0
        found = sorted((x, tie(r, j) - pot_c1[j], j) for j, x in enumerate(h) if x == b0 or x == s0)
        return found[0], found[1]

    # Column reduction: a column whose smallest entry is in one row takes
    # that entry's pair as its potential, and the row takes the first such
    # column.  A column whose smallest entry ties across rows keeps tie part
    # 0 and no row.
    taken = [0] * n  # columns each row is the unique minimum of
    for c, col in enumerate(zip(*a)):
        v = min(col)
        pot_c0.append(v)
        if col.count(v) > 1:
            pot_c1.append(0)
            continue
        r = col.index(v)
        pot_c1.append(tie(r, c))
        taken[r] += 1
        if taken[r] == 1:
            match_rc[r], match_cr[c] = c, r

    # Reduction transfer: a row taken once moves its column's potential down
    # by its second-smallest reduced cost, so its row potential can rise.
    if n > 1:
        for r, times in enumerate(taken):
            if times == 1:
                c = match_rc[r]
                _, (d0, d1, _) = cheapest_two(r, list(map(sub, a[r], pot_c0)))
                pot_c0[c] -= d0
                pot_c1[c] -= d1

    # Augmenting row reduction, two passes: a free row takes its cheapest
    # column, lowering that column's potential to the row's second-cheapest
    # reduced cost.  A row it displaces bids again at once when the entry
    # part fell, else in the next pass.  Rows left free when the bids run
    # out are matched by augmentation.
    free = [r for r in range(n) if not taken[r]]
    bids = n * n
    for _ in range(2):
        todo, free = free[::-1], []
        while todo and bids:
            bids -= 1
            r = todo.pop()
            (b0, b1, c), (s0, s1, c2) = cheapest_two(r, list(map(sub, a[r], pot_c0)))
            x = match_cr[c]
            if (b0, b1) < (s0, s1):
                pot_c0[c] -= s0 - b0
                pot_c1[c] -= s1 - b1
            elif x is not None:
                c, x = c2, match_cr[c2]
            match_rc[r], match_cr[c] = c, r
            if x is not None:
                match_rc[x] = None
                (todo if b0 < s0 else free).append(x)

    pot_r0: list = [a[0][0] - a[0][0]] * n
    pot_r1 = [0] * n
    for r, c in enumerate(match_rc):
        if c is not None:
            pot_r0[r] = pot_c0[c] - a[r][c]
            pot_r1[r] = pot_c1[c] - tie(r, c)
    return match_rc, match_cr, pot_r0, pot_r1, pot_c0, pot_c1


def solve_k_assignment(
    matrix: SampledMatrix | Sequence[Sequence[Number]], k: int
) -> SolveResult:
    """Globally minimal sum of k independent entries, deterministic on ties.

    At k = m = n, Jonker-Volgenant column reduction, reduction transfer
    and two passes of augmenting row reduction first match most rows;
    otherwise no row is matched at the start.  Each row still free is
    then matched by one augmentation, a dense shortest-path scan from
    all free rows over reduced costs.  After a scan, each node it
    finished moves its potential by dist(x) - D, with D the distance of
    the path's end; the other nodes keep theirs.  Stopping after k
    augmentations is exact only because those scans start from the
    empty matching when k < min(m, n) or m != n.
    """
    a = _as_matrix(matrix)
    m, n = len(a), len(a[0])
    k = _check_k(k, m, n)

    top = 1 << (m * n)
    last = m * n - 1
    zero = a[0][0] - a[0][0]  # additive zero in the entry type
    inf = math.inf

    def bit(r: int, c: int) -> int:
        """2^(mn-1-t) for t = r*n+c: the tie weight of (r, c) is top - bit(r, c)."""
        return 1 << (last - r * n - c)

    def tie_dist(c: int) -> int:
        """The tie part of column c's tentative distance, through its parent row."""
        p = parent[c]
        return reach1[p] + top - bit(p, c) - pot_c1[c]

    # Potentials are (entry sum, tie) pairs, kept as two lists per side, and
    # the reduced cost a[r][c] + pot_r[r] - pot_c[c] is >= 0 in the pair
    # order.  The free rows share one potential (free0, free1), so the
    # nearest free row to a column is the first row holding the column's
    # smallest free entry: low_row[c], holding low_val[c].
    if k == m == n:
        match_rc, match_cr, pot_r0, pot_r1, pot_c0, pot_c1 = _initial_matching(a, top)
        free = [r for r, c in enumerate(match_rc) if c is None]
        rows = [a[f] for f in free]
    else:
        pot_r0 = [zero] * m
        pot_r1 = [0] * m
        pot_c0 = [zero] * n
        pot_c1 = [0] * n
        match_rc = [None] * m
        match_cr = [None] * n
        free = list(range(m))
        rows = a
    free0, free1 = zero, 0
    low_val: list = []
    low_row: list[int] = []
    for col in zip(*rows):
        v = min(col)
        low_val.append(v)
        low_row.append(free[col.index(v)])

    for _ in range(k + len(free) - m):
        todo = list(range(n))  # unfinished columns, ascending
        dist0: list = [free0 + v - p for v, p in zip(low_val, pot_c0)]  # primary distances
        parent = low_row[:]  # the row each column's distance was relaxed from
        reach1 = [free1] * m  # tie part of dist + pot of each finished row
        done: list[tuple] = []  # finished assigned columns, their rows and distance pairs

        while True:
            end, b0, b1 = -1, inf, None
            for c in todo:
                v = dist0[c]
                if v < b0:
                    end, b0, b1 = c, v, None
                elif v == b0:
                    if b1 is None:
                        b1 = tie_dist(end)
                    s = tie_dist(c)
                    if s < b1:
                        end, b1 = c, s
            if b1 is None:
                b1 = tie_dist(end)
            todo.remove(end)
            x = match_cr[end]
            if x is None:
                break
            done.append((end, x, b0, b1))
            e0, e1, row = b0 + pot_r0[x], b1 + pot_r1[x], a[x]
            reach1[x] = e1
            for c in todo:
                nd = e0 + row[c] - pot_c0[c]
                old = dist0[c]
                if nd < old:
                    dist0[c] = nd
                    parent[c] = x
                elif nd == old:
                    p = parent[c]
                    if e1 - bit(x, c) < reach1[p] - bit(p, c):
                        parent[c] = x

        for c, x, d0, d1 in done:
            pot_c0[c] += d0 - b0
            pot_c1[c] += d1 - b1
            pot_r0[x] += d0 - b0
            pot_r1[x] += d1 - b1
        free0 -= b0
        free1 -= b1

        c: int | None = end
        while c is not None:
            r = parent[c]
            prev = match_rc[r]
            match_rc[r] = c
            match_cr[c] = r
            c = prev
        # r is the path's root, free until now
        pot_r0[r], pot_r1[r] = free0, free1
        free.remove(r)
        if free:
            for c in range(n):
                if low_row[c] == r:
                    col = [a[f][c] for f in free]
                    low_val[c] = v = min(col)
                    low_row[c] = free[col.index(v)]

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
