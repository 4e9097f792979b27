"""Line covers of zero patterns and the cover-coefficient tables.

A *cover* is a set of rows and columns such that every zero lies in a
chosen line; an s-cover uses s lines.  By König's theorem the minimum
cover size equals the maximum number of independent zeros.  A *partial
(k-1)-cover* is a set of rows and columns contained in some (k-1)-cover;
the cover coefficient d_{i,j} counts partial (k-1)-covers with exactly
i rows and j columns.

The minimum covers form a lattice (Dulmage & Mendelsohn).  One maximum
matching and two alternating searches, from the unmatched rows and from
the unmatched columns, give both its ends and the lines common to all
minimum covers; lines forced into every larger cover are tested one by one.

Everything here is exact integer work on desk-scale patterns.  The
coefficients are counted over the connected components of the bipartite
zero graph: lines touching no zero contribute binomial factors, the
residual matching number is a sum over components, so d_{i,j} is a
convolution of small per-component tables, each found by a pruned
depth-first enumeration of that component's lines.  A component that
spans every line is still exponential in its size, so the enumeration
is charged against a subset budget (BudgetExceededError when exceeded).
Deleting a line lowers a matching by at most one, so the lines a choice
takes from a component plus the matching they leave there never fall
below that component's own maximum matching.  Once the budget is
checked, one matching per component bounds everything: a pattern with
k independent zeros has no partial (k-1)-cover and costs nothing more,
and otherwise each component is enumerated only as far as the others
leave room for.
Row-only counts need no enumeration at all when a maximum matching
covers every row holding a zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Collection, Container, Iterable

from .model import BudgetExceededError, Position, RapInstance, ZeroPattern, checked_int, checked_row


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
    for root in adj:
        for c in adj[root]:  # a free column ends the path at once
            if c not in match_col:
                match_col[c] = root
                break
        else:
            _augment(root, adj, match_col)
    return match_col


def _augment(root: int, adj: dict[int, list[int]], match_col: dict[int, int]) -> None:
    """Augment ``match_col`` along an alternating path from the free row ``root``, if any.

    The depth-first search keeps its own stack, so a path through every
    row of a long staircase needs no deep recursion.
    """
    seen: set[int] = set()
    # path[t] is a row on the search path, untried[t] its unexplored
    # columns; via[t] is the matched column leading from path[t] on.
    path, untried, via = [root], [iter(adj[root])], []
    while path:
        for c in untried[-1]:
            if c not in seen:
                break
        else:  # dead end: back up one row
            path.pop()
            untried.pop()
            if via:
                via.pop()
            continue
        seen.add(c)
        via.append(c)
        if c in match_col:
            path.append(match_col[c])
            untried.append(iter(adj[match_col[c]]))
            continue
        for r, c in zip(path, via):  # c is free: each row on the path moves one column on
            match_col[c] = r
        return


def max_independent_zeros(z: ZeroPattern | Iterable[Position]) -> int:
    """Size of the largest set of zeros, no two in the same row or column."""
    zeros = z.zeros if isinstance(z, ZeroPattern) else tuple(z)
    return len(_max_matching(zeros))


def _alternating_reach(
    adj: dict[int, list[int]], mate: dict[int, int], free: Iterable[int]
) -> tuple[set[int], set[int]]:
    """Lines of both sides reached from the ``free`` lines by alternating paths.

    A path crosses along any zero and comes back along the matching
    (``mate``); every far line reached is matched, or the matching would
    augment.
    """
    near, far = set(free), set()
    frontier = list(near)
    while frontier:
        for v in adj[frontier.pop()]:
            if v not in far:
                far.add(v)
                near.add(mate[v])
                frontier.append(mate[v])
    return near, far


def _extreme_covers(
    zeros: tuple[Position, ...], match_col: dict[int, int]
) -> tuple[LineCover, LineCover]:
    """The row-maximal and the column-maximal minimum cover, from the
    maximum matching ``match_col`` of the zeros.

    A row lies in some minimum cover iff every maximum matching covers it,
    iff no alternating path from an unmatched row reaches it (Dulmage &
    Mendelsohn).  So the matched rows not reached from the unmatched rows,
    with the columns that are reached, form the row-maximal cover; the
    search from the unmatched columns gives the column-maximal one.
    """
    match_row = {r: c for c, r in match_col.items()}
    row_adj: dict[int, list[int]] = {}
    col_adj: dict[int, list[int]] = {}
    for r, c in zeros:
        row_adj.setdefault(r, []).append(c)
        col_adj.setdefault(c, []).append(r)
    free_rows = row_adj.keys() - match_row.keys()
    free_cols = col_adj.keys() - match_col.keys()
    rows_from_rows, cols_from_rows = _alternating_reach(row_adj, match_col, free_rows)
    cols_from_cols, rows_from_cols = _alternating_reach(col_adj, match_row, free_cols)
    row_max = LineCover(match_row.keys() - rows_from_rows, cols_from_rows)
    col_max = LineCover(rows_from_cols, match_col.keys() - cols_from_cols)
    assert len(row_max) == len(col_max) == len(match_col)
    assert row_max.covers(zeros) and col_max.covers(zeros)
    return row_max, col_max


@dataclass(frozen=True)
class CoverLattice:
    """Both ends of the lattice of minimum covers of a zero pattern.

    ``size`` is their common size, the maximum number of independent
    zeros (König).
    """

    row_max: LineCover
    col_max: LineCover
    size: int

    @property
    def common_lines(self) -> tuple[frozenset[int], frozenset[int]]:
        """Rows and columns in every minimum cover: the rows of the
        column-maximal cover and the columns of the row-maximal one."""
        return self.col_max.rows, self.row_max.cols


def cover_lattice(z: ZeroPattern) -> CoverLattice:
    """The row- and column-maximal minimum covers and their size, from one
    maximum matching and two alternating searches.

    The rows of ``row_max`` contain the rows of every minimum cover, and
    the columns of ``col_max`` the columns of every minimum cover.
    """
    match_col = _max_matching(z.zeros)
    return CoverLattice(*_extreme_covers(z.zeros, match_col), len(match_col))


# ---------------------------------------------------------------------------
# Partial (k-1)-covers and the coefficient tables
# ---------------------------------------------------------------------------


SUBSET_BUDGET = 1 << 23
"""Cap on the component line subsets one profile call may enumerate.

It exceeds the sum of C(24, s) over s < 12 (about 7.0M), the count for a
single component spanning every line of a 12x12 instance, so no instance
up to 12x12 is refused.
"""


def _components(zeros: tuple[Position, ...]) -> list[list[Position]]:
    """The zeros of each connected component of the bipartite zero graph."""
    group: dict[int, list[Position]] = {}  # row r or column ~c -> its component's zeros
    for z in zeros:
        r, c = z
        g, h = group.get(r), group.get(~c)
        if g is None or h is None or g is h:
            g = g or h or []
            g.append(z)
            group[r] = group[~c] = g
            continue
        if len(g) < len(h):
            g, h = h, g
        g.extend(h)
        g.append(z)
        for r2, c2 in h:
            group[r2] = group[~c2] = g
        group[r] = group[~c] = g
    return list({id(g): g for g in group.values()}.values())


def _component_table(
    zeros: list[Position], rows: Container[int], cols: Container[int], limit: int, nu: int
) -> dict[tuple[int, int, int], int]:
    """Line-subset counts of one component of the zero graph.

    T[(a, b, nu')] counts the choices of a of its rows in ``rows`` and b of
    its columns in ``cols`` that leave a maximum matching of nu' of its
    zeros; only entries with a + b + nu' <= limit are kept.  ``nu`` is the
    component's own maximum matching, the residual of the empty choice,
    so the root visit does not find it again; the caller passes a limit
    of at least ``nu``, so the table always holds that root entry.

    Subsets are visited depth-first, one line added at a time, and each
    one's residual matching is found afresh.  Adding a line lowers the
    matching by at most one, so a + b + nu' never falls and a subset over
    the limit cuts off all of its supersets.
    """
    lines = [(r, None) for r in sorted({r for r, _ in zeros}) if r in rows]
    lines += [(None, c) for c in sorted({c for _, c in zeros}) if c in cols]
    table: dict[tuple[int, int, int], int] = {}

    def visit(start: int, residual: list[Position], a: int, b: int, nu: int) -> None:
        if a + b + nu > limit:
            return
        table[a, b, nu] = table.get((a, b, nu), 0) + 1
        for t in range(start, len(lines)):
            row, col = lines[t]
            rest = [z for z in residual if z[0] != row and z[1] != col]
            a2, b2 = a + (col is None), b + (row is None)
            visit(t + 1, rest, a2, b2, len(_max_matching(rest)))

    visit(0, zeros, 0, 0, nu)
    return table


def _partial_cover_counts(
    zeros: tuple[Position, ...], rows: Collection[int], cols: Collection[int], limit: int
) -> dict[tuple[int, int], int]:
    """(i, j) -> the choices of i lines of ``rows`` and j of ``cols`` that
    are partial covers: i + j plus the matching they leave is <= limit.

    The residual matching is a sum over the components of the zero graph,
    and a chosen line touching no zero only adds to i or j.  So the table
    T[(a, b, nu)] of the whole choice is the binomial table of the zero-free
    rows and columns convolved with one table per component
    (:func:`_component_table`), pruned to a + b + nu <= limit; the counts
    are T summed over nu.  Raises BudgetExceededError before enumerating
    anything when the components' subset counts (for each, the sum of
    C(lines, s) over s <= limit, counting its lines in ``rows`` and
    ``cols``) exceed SUBSET_BUDGET.

    Deleting a line lowers a matching by at most one, so every choice
    leaves component c with a_c + b_c + nu'_c >= nu_c, its own maximum
    matching.  The other components therefore use at least the sum of
    their nu_c, and only the slack, limit minus the sum of every nu_c, is
    left over: none means no partial cover at all (so a pattern with
    limit + 1 independent zeros costs one matching per component), and
    otherwise component c is enumerated to slack + nu_c and the zero-free
    lines to the slack.
    """
    parts = _components(zeros)
    needed = 0
    for part in parts:
        lines = len({r for r, _ in part if r in rows}) + len({c for _, c in part if c in cols})
        needed += sum(comb(lines, s) for s in range(limit + 1))
    if needed > SUBSET_BUDGET:
        raise BudgetExceededError(
            f"cover profile needs up to {needed} line-subset tests, over the budget of {SUBSET_BUDGET}"
        )
    nus = [len(_max_matching(part)) for part in parts]
    slack = limit - sum(nus)
    if slack < 0:
        return {}
    zero_rows = {r for r, _ in zeros}
    zero_cols = {c for _, c in zeros}
    m0 = sum(r not in zero_rows for r in rows)
    n0 = sum(c not in zero_cols for c in cols)
    total = {  # the zero-free lines alone leave nothing to match
        (a, b, 0): comb(m0, a) * comb(n0, b)
        for a in range(min(m0, slack) + 1)
        for b in range(min(n0, slack - a) + 1)
    }
    for part, nu in zip(parts, nus):
        table = _component_table(part, rows, cols, slack + nu, nu)
        merged: dict[tuple[int, int, int], int] = {}
        for (a1, b1, nu1), x1 in total.items():
            room = limit - a1 - b1 - nu1
            for (a2, b2, nu2), x2 in table.items():
                if a2 + b2 + nu2 <= room:
                    key = (a1 + a2, b1 + b2, nu1 + nu2)
                    merged[key] = merged.get(key, 0) + x1 * x2
        total = merged
    counts: dict[tuple[int, int], int] = {}
    for (i, j, _), x in total.items():
        counts[i, j] = counts.get((i, j), 0) + x
    return counts


def cover_profile(p: RapInstance) -> CoverProfile:
    """Count partial (k-1)-covers, factored over the components of the zero graph.

    (R, C) is a partial (k-1)-cover iff |R| + |C| plus the maximum matching
    of the zeros it leaves uncovered is at most k - 1.  That matching is
    the sum of the components' residual matchings, and lines touching no
    zero change nothing but |R| + |C|, so the count is a convolution of
    small per-component tables with binomials (see _partial_cover_counts).
    Only the lines of each component are enumerated, and SUBSET_BUDGET
    bounds the number of their subsets.
    """
    limit = p.k - 1
    counts = _partial_cover_counts(p.zeros, range(p.m), range(p.n), limit)
    return CoverProfile(p.k, tuple(
        (i, j, counts.get((i, j), 0))
        for i in range(min(p.m, limit) + 1)
        for j in range(min(p.n, limit - i) + 1)
    ))


def row_excluded_profile(p: RapInstance, r: int) -> tuple[int, ...]:
    """For each i, the number of partial (k-1)-covers of i rows avoiding row r.

    When a maximum matching covers every row holding a zero, as it does on
    most sparse patterns, it covers any set of those rows.  Choosing i rows,
    f of them free of zeros, then leaves a matching of nu - (i - f), so the
    choice is a partial cover iff nu + f <= k - 1 and the counts are
    binomial sums.  Otherwise they are counted like :func:`cover_profile`
    from row choices only, with row r never chosen (its zeros stay in the
    residual).
    """
    r = checked_row(p, r)
    limit = p.k - 1
    held = {zr for zr, _ in p.zeros}
    nu = len(_max_matching(p.zeros))
    if nu == len(held):
        n_held = len(held - {r})
        n_free = p.m - 1 - n_held
        return tuple(
            comb(p.m - 1, i) if i <= limit - nu  # every f is allowed (Vandermonde)
            else sum(comb(n_held, i - f) * comb(n_free, f) for f in range(limit - nu + 1))
            for i in range(p.k)
        )
    counts = _partial_cover_counts(p.zeros, set(range(p.m)) - {r}, (), limit)
    return tuple(counts.get((i, 0), 0) for i in range(p.k))


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

    At the minimum size these are the lines common to all minimum covers:
    the rows of the column-maximal cover and the columns of the row-maximal
    one.  A larger size forces a subset of them, each tested on its own.
    """
    size = checked_int(size, "size")
    lattice = cover_lattice(z)
    if lattice.size > size:
        raise ValueError(f"no {size}-cover exists")
    common_rows, common_cols = lattice.common_lines
    if lattice.size == size:
        return common_rows, common_cols
    rows = frozenset(r for r in common_rows if _min_cover_avoiding(z.zeros, r, None) > size)
    cols = frozenset(c for c in common_cols if _min_cover_avoiding(z.zeros, None, c) > size)
    return rows, cols
