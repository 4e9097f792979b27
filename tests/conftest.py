"""Shared helpers: random instance generation, brute-force cover references,
the per-term Fraction sums the cover and row formulas are checked against,
the slow oracle rules, initial state, canonical key and ungrouped evaluation
that the fast ones are checked against, the oracle's terminal test, the heap-based assignment solver the
dense one is checked against, the vectorised pattern-class generator and
the one-at-a-time loop it is checked against, and the instance
transformations and optimal-assignment structure that the identity
checks use."""

from __future__ import annotations

import itertools
import math
import random
from heapq import heappop, heappush
from dataclasses import dataclass
from fractions import Fraction
from typing import Container, Iterable

import numpy as np
import pytest
from hypothesis import strategies as st

import rapkit.covers
from rapkit.covers import (
    CoverProfile,
    LineCover,
    cover_lattice,
    cover_profile,
    forced_cover_lines,
    max_independent_zeros,
    row_excluded_profile,
)
from rapkit.model import (
    Assignment,
    InvalidInstanceError,
    Position,
    RapInstance,
    ZeroPattern,
    instance,
)
from rapkit.oracle import (
    Conditioning,
    EntryClassification,
    ExpRapState,
    LinearEntry,
    canonical_key,
    classify_entries,
    condition_minimum,
    condition_pair,
    reduce_state,
)
from rapkit.solver import SolveResult, _as_matrix, _check_k


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


def reference_cover_formula_value(p: RapInstance) -> Fraction:
    """E(P) as one Fraction per nonzero d_{i,j} of the dense profile, divided by mn."""
    total = sum(
        (
            Fraction(count, math.comb(p.m - 1, i) * math.comb(p.n - 1, j))
            for i, j, count in cover_profile(p).coefficients
            if count
        ),
        Fraction(0),
    )
    return total / (p.m * p.n)


def reference_row_inclusion_probability(p: RapInstance, r: int) -> Fraction:
    """q(P) as one Fraction per nonzero dbar_{i,0}, divided by m."""
    total = sum(
        (Fraction(count, math.comb(p.m - 1, i)) for i, count in enumerate(row_excluded_profile(p, r)) if count),
        Fraction(0),
    )
    return total / p.m


def reference_component_table(
    zeros: Iterable[Position], rows: Container[int], cols: Container[int], limit: int
) -> dict[tuple[int, int, int], int]:
    """T[(a, b, nu')] of one component, a fresh matching per subset and every
    subset visited: the choices of a of its rows in ``rows`` and b of its
    columns in ``cols`` leaving a maximum matching of nu', kept where
    a + b + nu' <= limit.  Adding a line never lowers a + b + nu', so a
    subset over the limit cuts off its supersets."""
    zeros = list(zeros)
    lines = [(r, None) for r in sorted({r for r, _ in zeros}) if r in rows]
    lines += [(None, c) for c in sorted({c for _, c in zeros}) if c in cols]
    table: dict[tuple[int, int, int], int] = {}

    def visit(start: int, residual: list[Position], a: int, b: int) -> None:
        nu = max_independent_zeros(residual)
        if a + b + nu > limit:
            return
        table[a, b, nu] = table.get((a, b, nu), 0) + 1
        for t in range(start, len(lines)):
            row, col = lines[t]
            rest = [z for z in residual if z[0] != row and z[1] != col]
            visit(t + 1, rest, a + (col is None), b + (row is None))

    visit(0, zeros, 0, 0)
    return table


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


def scanned_pattern(s: ExpRapState) -> ZeroPattern:
    """The zero pattern of a state's entries."""
    zeros = tuple((r, c) for r, row in enumerate(s.entries) for c, e in enumerate(row) if not e.terms)
    return ZeroPattern(s.m, s.n, zeros)


def reference_reduce_state(s: ExpRapState) -> ExpRapState:
    """Delete one line contained in every (k-1)-cover per pass, the smallest
    forced row first, then the smallest forced column, until a fixed point."""
    while True:
        try:
            rows, cols = forced_cover_lines(cover_lattice(scanned_pattern(s)), s.k - 1)
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
        s = ExpRapState(s.k - 1, entries, s.intensities)


def is_terminal(s: ExpRapState) -> bool:
    """True when k independent zeros exist; the state's value is then 0."""
    return s._covers.size >= s.k


def _fresh_variable_ids(s: ExpRapState, count: int) -> list[int]:
    """``count`` consecutive ids above every id in the state's variable table."""
    start = 1 + max(s.intensities, default=-1)
    return [start + i for i in range(count)]


def _substitute_matrix(
    s: ExpRapState, rules: dict[int, tuple[tuple[int, Fraction], ...]], y_id: int, shift: dict[Position, int]
) -> tuple[tuple[LinearEntry, ...], ...]:
    """Every entry of the state rebuilt: each variable in ``rules`` replaced
    by its combination, and entry (r, c) given ``shift.get((r, c), 0)``
    more of variable ``y_id``."""
    rows = []
    for r, row in enumerate(s.entries):
        cells = []
        for c, e in enumerate(row):
            coeffs: dict[int, Fraction] = {}
            for v, x in e.terms:
                for w, scale in rules.get(v, ((v, 1),)):
                    coeffs[w] = coeffs.get(w, 0) + x * scale
            coeffs[y_id] = coeffs.get(y_id, 0) + shift.get((r, c), 0)
            assert coeffs[y_id] >= 0, "every non-covered entry must contain the minimum"
            cells.append(LinearEntry(tuple((v, x) for v, x in coeffs.items() if x)))
        rows.append(tuple(cells))
    return tuple(rows)


def reference_condition_minimum(
    s: ExpRapState, cls: EntryClassification | None = None
) -> tuple[Fraction, list[tuple[Fraction, ExpRapState]]]:
    """Minimum conditioning with one substitution of the whole matrix per child.

    Child idx rewrites member idx to Y and every other member j to Y plus
    a residual, the residuals numbered in member order skipping idx.
    """
    if cls is None:
        cls = classify_entries(s)
    cover = s._covers.row_max
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
        member_intensities.append(Fraction(s.intensities[vid]) / coeff)
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

    fresh = _fresh_variable_ids(s, len(members))
    children: list[tuple[Fraction, ExpRapState]] = []
    for idx, (kind, vid) in enumerate(members):
        weight = member_intensities[idx] / total
        y_id = fresh[0]
        new_vars: dict[int, Fraction] = {y_id: total}
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
                    new_vars[z_id] = member_intensities[jdx]
                else:
                    rules[ovid] = ((y_id, Fraction(1)), (z_id, Fraction(1)))
                    new_vars[z_id] = Fraction(1)
        new_entries = _substitute_matrix(s, rules, y_id, shift)
        intensities = {v: i for v, i in s.intensities.items() if v not in rules} | new_vars
        children.append((weight, ExpRapState(s.k, new_entries, intensities)))
    assert sum(w for w, _ in children) == 1 and all(w > 0 for w, _ in children)
    return extracted, children


def reference_condition_pair(
    s: ExpRapState, u1: Position, u2: Position
) -> tuple[tuple[Fraction, ExpRapState], tuple[Fraction, ExpRapState]]:
    """Pair conditioning with one substitution of the whole matrix per child.

    The winner of the two scaled disagreement variables becomes the minimum
    Y, the loser Y plus the residual Z; both children number Y and Z alike.
    """
    c1 = dict(s.entries[u1[0]][u1[1]].terms)
    c2 = dict(s.entries[u2[0]][u2[1]].terms)
    ids = sorted(c1.keys() | c2.keys())
    larger_in_e1 = [v for v in ids if c1.get(v, 0) > c2.get(v, 0)]
    larger_in_e2 = [v for v in ids if c2.get(v, 0) > c1.get(v, 0)]
    if not larger_in_e1 or not larger_in_e2:
        raise ValueError("entries must be incomparable to pair-condition")
    i, j = larger_in_e1[0], larger_in_e2[0]
    a = c1.get(i, 0) - c2.get(i, 0)  # scale of Xi's excess in e1
    b = c2.get(j, 0) - c1.get(j, 0)  # scale of Xj's excess in e2
    ia = Fraction(s.intensities[i]) / a  # intensity of a*Xi
    ib = Fraction(s.intensities[j]) / b  # intensity of b*Xj
    total = ia + ib
    y_id, z_id = _fresh_variable_ids(s, 2)

    def child(first_is_i: bool) -> tuple[Fraction, ExpRapState]:
        # minimum Y of the two scaled variables, residual Z on the loser
        weight = (ia if first_is_i else ib) / total
        z_intensity = ib if first_is_i else ia
        inv_a, inv_b = Fraction(1) / a, Fraction(1) / b
        if first_is_i:
            rules = {i: ((y_id, inv_a),), j: ((y_id, inv_b), (z_id, inv_b))}
        else:
            rules = {j: ((y_id, inv_b),), i: ((y_id, inv_a), (z_id, inv_a))}
        entries = _substitute_matrix(s, rules, y_id, {})
        intensities = {v: x for v, x in s.intensities.items() if v not in (i, j)}
        intensities |= {y_id: total, z_id: z_intensity}
        return weight, ExpRapState(s.k, entries, intensities)

    first, second = child(True), child(False)
    assert first[0] + second[0] == 1 and first[0] > 0 and second[0] > 0
    return first, second


def every_child(
    conditioning: Conditioning,
) -> tuple[Fraction, list[tuple[Fraction, ExpRapState]]]:
    """A conditioning rule's extracted cost, and each child's weight with
    the child built."""
    return conditioning.extracted, [(w, conditioning.build(j)) for j, w in enumerate(conditioning.weights)]


def reference_expected_value(s: ExpRapState, cache: dict) -> Fraction:
    """Expected cost of a state, evaluating every child of every node: no
    orbit of twin lines is merged.  ``cache`` maps canonical keys to values
    and may be shared across calls."""
    s = reduce_state(s)
    if is_terminal(s):
        return Fraction(0)
    key = canonical_key(s)
    if key not in cache:
        cls = classify_entries(s)
        if cls.non_covered_nonstandard and cls.minimal is None:
            extracted, branches = every_child(condition_pair(s, *cls.first_incomparable_pair))
        else:
            extracted, branches = every_child(condition_minimum(s))
        cache[key] = extracted + sum(w * reference_expected_value(child, cache) for w, child in branches)
    return cache[key]


def reference_initial_state(p: RapInstance) -> ExpRapState:
    """The standard RAP as a symbolic state, every cell and variable built afresh."""
    zeros = set(p.zeros)
    intensities = {}
    rows = []
    vid = 0
    for r in range(p.m):
        row = []
        for c in range(p.n):
            if (r, c) in zeros:
                row.append(LinearEntry())
            else:
                intensities[vid] = 1
                row.append(LinearEntry(((vid, 1),)))
                vid += 1
        rows.append(tuple(row))
    return ExpRapState(p.k, tuple(rows), intensities)


def reference_canonical_key(s: ExpRapState):
    """The canonical key with every cell's terms sorted, one-term cells included."""
    intensity = s.intensities
    sig = [[tuple(sorted((c, intensity[v]) for v, c in e.terms)) for e in row] for row in s.entries]
    row_order = sorted(range(s.m), key=lambda r: sorted(sig[r]))
    col_order = sorted(range(s.n), key=lambda c: sorted(row[c] for row in sig))

    rename: dict[int, int] = {}
    encoded = []
    for r in row_order:
        row = s.entries[r]
        for c in col_order:
            terms = row[c].terms
            fresh = sorted((c_, intensity[v], v) for v, c_ in terms if v not in rename)
            for _, _, v in fresh:
                rename[v] = len(rename)
            encoded.append(tuple(sorted((rename[v], c_) for v, c_ in terms)))
    inv = sorted(rename, key=rename.get)
    return (s.k, s.m, s.n, tuple(encoded), tuple(intensity[v] for v in inv))


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


def position_set(a: Assignment) -> frozenset[Position]:
    """The positions of an assignment as a set."""
    return frozenset(a.positions)


def reference_solve_k_assignment(matrix, k: int) -> SolveResult:
    """The k-assignment solver by successive heap-Dijkstra augmentations.

    Costs are (entry sum, tie weight) pairs under lexicographic order, with
    the tie weight 2^(mn) - 2^(mn-1-(r*n+c)) of position (r, c) held in an
    m x n table; every improved (distance, node) pair is pushed on one heap
    from all free rows, and every potential moves by min(dist(x), D).
    """
    a = _as_matrix(matrix)
    m, n = len(a), len(a[0])
    k = _check_k(k, m, n)

    mn = m * n
    top = 1 << mn
    zero = a[0][0] - a[0][0]
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
        parent_c: list[int | None] = [None] * n
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
        assert end is not None and bound is not None

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


def _class_codes(rows: np.ndarray, n: int) -> np.ndarray:
    """The class code of each row multiset in ``rows`` (one multiset of n-bit
    masks per array row): over all column permutations, the smallest of its
    sorted permuted masks encoded as one integer, first row most significant."""
    m = rows.shape[1]
    masks = np.arange(1 << n, dtype=np.int64)
    best = None
    for perm in itertools.permutations(range(n)):
        table = sum(((masks >> c) & 1) << to for c, to in enumerate(perm))
        moved = np.sort(table[rows], axis=1)
        codes = moved[:, 0]
        for i in range(1, m):
            codes = codes << n | moved[:, i]
        best = codes if best is None else np.minimum(best, codes)
    return best


def _zero_sets(codes: np.ndarray, m: int, n: int) -> list[tuple[Position, ...]]:
    """The zero set of each class code, sorted."""
    return sorted(
        tuple((r, c) for r in range(m) for c in range(n) if code >> (n * (m - 1 - r) + c) & 1)
        for code in np.unique(codes).tolist()
    )


def pattern_classes(m: int, n: int) -> list[tuple[Position, ...]]:
    """One zero set per m x n zero pattern up to row and column permutation.

    A pattern is a multiset of row bitmasks; its class representative is
    the smallest sorted row tuple over all column permutations.  Every
    sorted row multiset is handled at once: each column permutation maps
    the masks through a lookup table, each permuted multiset is sorted and
    encoded as an (m*n)-bit integer, first row most significant, so the
    smallest code is the smallest sorted row tuple.
    """
    assert m * n < 63, "each code must fit an int64"
    count = math.comb((1 << n) + m - 1, m)
    multisets = itertools.combinations_with_replacement(range(1 << n), m)
    rows = np.fromiter(itertools.chain.from_iterable(multisets), np.int64, count * m).reshape(count, m)
    return _zero_sets(_class_codes(rows, n), m, n)


def extended_pattern_classes(m: int, n: int) -> list[tuple[Position, ...]]:
    """:func:`pattern_classes`, built one row at a time from the classes of fewer rows.

    Delete any row x of a pattern with r rows and permute the other r - 1
    to their class representative, carrying x along: the result is in the
    same class.  So each of the 2^n masks added to each (r-1)-row
    representative reaches every r-row class, and the same canonical code
    sorts the candidates into classes.  This is canonical augmentation
    (McKay, "Isomorph-free exhaustive generation", 1998) with a
    brute-force canonical form, and it canonicalises far fewer multisets
    than :func:`pattern_classes` enumerates.
    """
    assert m * n < 63, "each code must fit an int64"
    masks = np.arange(1 << n, dtype=np.int64)
    reps = np.zeros((1, 0), dtype=np.int64)  # the one class of zero rows
    for r in range(1, m + 1):
        candidates = np.column_stack([np.repeat(reps, len(masks), axis=0), np.tile(masks, len(reps))])
        codes = np.unique(_class_codes(candidates, n))
        reps = (codes[:, None] >> (n * np.arange(r - 1, -1, -1))) & ((1 << n) - 1)
    return _zero_sets(codes, m, n)


def reference_pattern_classes(m: int, n: int) -> list[tuple[Position, ...]]:
    """:func:`pattern_classes`, one row multiset and one column permutation at a time."""
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


def zeros_of(masks: dict[int, int]) -> tuple[Position, ...]:
    """The zero positions of a row -> column-bitmask zero graph."""
    return tuple((r, c) for r, cols in masks.items() for c in range(cols.bit_length()) if cols >> c & 1)


@pytest.fixture
def matchings(monkeypatch) -> list[tuple[Position, ...]]:
    """The zero sets of every maximum matching computed while the test runs."""
    calls = []
    real = rapkit.covers._max_matching

    def counted(masks):
        calls.append(zeros_of(masks))
        return real(masks)

    monkeypatch.setattr(rapkit.covers, "_max_matching", counted)
    return calls


@pytest.fixture(scope="session")
def oracle_cache() -> dict:
    """Canonical-state memo shared across the whole session; exact, so safe."""
    return {}
