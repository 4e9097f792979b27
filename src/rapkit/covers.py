"""Line covers of zero patterns and the cover-coefficient tables.

A *cover* is a set of rows and columns such that every zero lies in a
chosen line; an s-cover uses s lines.  By König's theorem the minimum
cover size equals the maximum number of independent zeros.  A *partial
(k-1)-cover* is a set of rows and columns contained in some (k-1)-cover;
the cover coefficient d_{i,j} counts partial (k-1)-covers with exactly
i rows and j columns.

The bipartite zero graph is held as row bitmasks: each row holding a zero
maps to the mask of its zero columns.  A pattern's column indices are the
mask bits, so a mask takes up to n bits; the positions handed to
max_independent_zeros as a bare iterable are relabelled densely first.
One maximum matching over those masks (Kuhn's augmenting paths) serves
every question here.

The minimum covers form a lattice (Dulmage & Mendelsohn).  One maximum
matching and two alternating searches, from the unmatched rows and from
the unmatched columns, give both its ends and the lines common to all
minimum covers.  The lattice keeps the row masks it was built from, and
lines forced into every larger cover are tested one by one on them.

Everything here is exact integer work on desk-scale patterns.  The
coefficients are counted over the connected components of the zero graph:
lines touching no zero contribute binomial factors, the residual matching
number is a sum over components, so d_{i,j} is a convolution of small
per-component tables.  The lines touching no zero enter as two counts,
never as masks, so a mask reaches only the last line holding a zero,
whatever m and n.  A component without a cycle (its zeros number its
lines less one) is a tree, counted in polynomial time by one dynamic
programme: leaves first, each line's table is made from the product of
its children's, and no residual matching is needed.  Any other component
is counted by a dynamic programme over the lines of its long side whose
state is the transversal matroid of its short side of w lines (Edmonds &
Fulkerson): the family of short-side sets that the kept lines can match,
one 2^w-bit int.  When w passes PEEL_WIDTH, the trees hanging from the
component's 2-core are counted by the tree DP, each rooted at its line
there, and the matroid DP runs on the core alone, its w the core's short
side.  Its cost is exponential in w only (counting partial covers is
#P-hard in general), so its live families and its masks, 2^w bits each,
are charged against a state budget (BudgetExceededError when exceeded),
before its first line and after each; a tree is never charged.  Every
table is packed: a, b and a + b + nu' are fields of one int, so a
product of tables sums keys.  Deleting a line lowers a
matching by at most one, so the lines a choice takes from a component
plus the matching they leave there never fall below that component's own
maximum matching.  One maximum matching of the whole pattern, maximum on
each component, bounds everything: a pattern with k independent zeros
has no partial (k-1)-cover, so it is answered before any component is
counted and costs nothing more, and otherwise each component, and each
product, is counted only as far as the others leave room for.  A pattern
with no zero is its binomial table.  cover_coefficients returns the
nonzero d_{i,j} only; cover_profile is its dense table.  Row-only counts
need no component table at all when a maximum matching covers every row
holding a zero.

A pattern keeps its zero graph, the row masks and their first maximum
matching, in its own ``__dict__`` (not a dataclass field, so equality,
hash, repr and pickling ignore it; no table outside the pattern holds
it).  Every question asked of a pattern reads that one graph: nu, the
cover coefficients, the row counts and the cover lattice the oracle's
root starts from.  So a pattern is matched once, whichever route runs
first, and one with k independent zeros costs that matching alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from math import comb
from operator import or_
from typing import Iterable

from .model import (
    BudgetExceededError,
    InvalidInstanceError,
    Position,
    RapInstance,
    ZeroPattern,
    checked_int,
    checked_position,
    checked_row,
)


@dataclass(frozen=True)
class LineCover:
    """A set of row indices and column indices: a cover of a zero set."""

    rows: frozenset[int]
    cols: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", frozenset(self.rows))
        object.__setattr__(self, "cols", frozenset(self.cols))

    def __len__(self) -> int:
        return len(self.rows) + len(self.cols)


@dataclass(frozen=True)
class CoverProfile:
    """The table of cover coefficients d_{i,j} for 0 <= i+j < k.

    Coefficients outside that range are identically zero and not stored.
    """

    k: int
    coefficients: tuple[tuple[int, int, int], ...]  # sorted (i, j, count)

    def to_json_obj(self) -> dict:
        return {"k": self.k, "d": [[i, j, str(count)] for i, j, count in self.coefficients]}


# ---------------------------------------------------------------------------
# Maximum matching on the bipartite zero graph
# ---------------------------------------------------------------------------


def _row_masks(zeros: Iterable[Position]) -> dict[int, int]:
    """The zero graph as row -> bitmask of its zero columns, rows in first-seen order."""
    adj: dict[int, int] = {}
    for r, c in zeros:
        adj[r] = adj.get(r, 0) | 1 << c
    return adj


def _indices(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask ^= bit
    return out


def _max_matching(adj: dict[int, int]) -> dict[int, int]:
    """Kuhn's augmenting-path matching over the row masks ``adj``; returns
    column bit -> row."""
    match_col: dict[int, int] = {}
    taken = 0
    for root, cols in adj.items():
        free = cols & ~taken
        if free:  # a free column ends the path at once
            bit = free & -free
            match_col[bit] = root
            taken |= bit
        else:
            taken |= _augment(root, adj, match_col)
    return match_col


def _augment(root: int, adj: dict[int, int], match_col: dict[int, int]) -> int:
    """Augment ``match_col`` along an alternating path from the free row
    ``root``, if any; returns the column bit newly matched, else 0.

    The depth-first search keeps its own stack, so a path through every
    row of a long staircase needs no deep recursion.
    """
    seen = 0
    # path[t] is a row on the search path; via[t] is the matched column
    # bit leading from path[t] on.  A row's untried columns are its mask
    # less the columns already seen.
    path, via = [root], []
    while path:
        untried = adj[path[-1]] & ~seen
        if not untried:  # dead end: back up one row
            path.pop()
            if via:
                via.pop()
            continue
        bit = untried & -untried
        seen |= bit
        via.append(bit)
        row = match_col.get(bit)
        if row is not None:
            path.append(row)
            continue
        for r, c in zip(path, via):  # the column is free: each row on the path moves one column on
            match_col[c] = r
        return bit
    return 0


def _zero_graph(z: ZeroPattern) -> tuple[dict[int, int], dict[int, int]]:
    """The zero graph of ``z`` as row masks, and its first maximum matching
    (column bit -> row), as kept on the pattern.

    Both are made on the first call and kept in the pattern's ``__dict__``:
    the pattern is immutable, so they never go stale, and they live and die
    with it.  Every caller only reads them.
    """
    graph = z.__dict__.get("_zero_graph")
    if graph is None:
        masks = _row_masks(z.zeros)
        graph = z.__dict__["_zero_graph"] = (masks, _max_matching(masks))
    return graph


def max_independent_zeros(z: ZeroPattern | Iterable[Position]) -> int:
    """Size of the largest set of zeros, no two in the same row or column.

    A pattern's is the size of its kept matching (see _zero_graph).
    Positions given as an iterable are checked like those of a pattern:
    pairs of nonnegative integers (InvalidInstanceError otherwise).
    """
    if isinstance(z, ZeroPattern):
        return len(_zero_graph(z)[1])
    zeros = []
    labels: dict[int, int] = {}  # columns relabelled densely, so a mask has a bit per distinct column
    for pos in z:
        r, c = checked_position(pos)
        if r < 0 or c < 0:
            raise InvalidInstanceError(f"position {pos!r} has a negative coordinate")
        zeros.append((r, labels.setdefault(c, len(labels))))
    return len(_max_matching(_row_masks(zeros)))


def _extreme_covers(adj: dict[int, int], match_col: dict[int, int]) -> tuple[LineCover, LineCover]:
    """The row-maximal and the column-maximal minimum cover of the row
    masks ``adj``, from their maximum matching ``match_col``.

    A row lies in some minimum cover iff every maximum matching covers it,
    iff no alternating path from an unmatched row reaches it (Dulmage &
    Mendelsohn).  So the matched rows not reached from the unmatched rows,
    with the columns that are reached, form the row-maximal cover; the
    search from the unmatched columns gives the column-maximal one.  A
    path crosses along any zero and comes back along the matching; every
    far line reached is matched, or the matching would augment.
    """
    match_row = {r: bit for bit, r in match_col.items()}
    matched_cols = zero_cols = 0
    for bit in match_col:
        matched_cols |= bit
    frontier = []
    for r, cols in adj.items():
        zero_cols |= cols
        if r not in match_row:
            frontier.append(r)
    rows_from_rows, cols_from_rows = set(frontier), 0
    while frontier:
        new = adj[frontier.pop()] & ~cols_from_rows
        cols_from_rows |= new
        while new:
            bit = new & -new
            new ^= bit
            row = match_col[bit]
            rows_from_rows.add(row)
            frontier.append(row)
    # from the unmatched columns: scan the row masks once per frontier layer
    rows_from_cols: set[int] = set()
    layer = cols_from_cols = zero_cols & ~matched_cols
    while layer:
        reached = 0
        for r, cols in adj.items():
            if cols & layer and r not in rows_from_cols:
                rows_from_cols.add(r)
                reached |= match_row[r]
        layer = reached & ~cols_from_cols
        cols_from_cols |= layer
    row_max_rows = match_row.keys() - rows_from_rows
    col_max_cols = matched_cols & ~cols_from_cols
    assert all(r in row_max_rows or not cols & ~cols_from_rows for r, cols in adj.items())
    assert all(r in rows_from_cols or not cols & ~col_max_cols for r, cols in adj.items())
    row_max = LineCover(row_max_rows, _indices(cols_from_rows))
    col_max = LineCover(rows_from_cols, _indices(col_max_cols))
    assert len(row_max) == len(col_max) == len(match_col)
    return row_max, col_max


@dataclass(frozen=True)
class CoverLattice:
    """Both ends of the lattice of minimum covers of a zero pattern.

    ``size`` is their common size, the maximum number of independent
    zeros (König).  ``masks`` is the zero graph the lattice was built
    from, as row bitmasks; it takes no part in equality, hash or repr.
    """

    row_max: LineCover
    col_max: LineCover
    size: int
    masks: dict[int, int] = field(compare=False, repr=False)

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
    masks, match_col = _zero_graph(z)
    return _lattice(dict(masks), match_col)  # a copy: the lattice's masks are its own


def mask_cover_lattice(masks: dict[int, int]) -> CoverLattice:
    """:func:`cover_lattice` of a zero graph given as row masks: each row
    holding a zero maps to the bitmask of its zero columns."""
    return _lattice(masks, _max_matching(masks))


def _lattice(masks: dict[int, int], match_col: dict[int, int]) -> CoverLattice:
    """The cover lattice of the row masks ``masks`` from their maximum
    matching ``match_col``; the lattice keeps ``masks``."""
    return CoverLattice(*_extreme_covers(masks, match_col), len(match_col), masks)


# ---------------------------------------------------------------------------
# Partial (k-1)-covers and the coefficient tables
# ---------------------------------------------------------------------------


STATE_BUDGET = 1 << 25
"""Cap on the bits the matroid DP of a component holds at once: its families and the 3w + 3
masks it keeps for its end, 2^w bits each over the short side of w lines it runs on (the
component's 2-core once its trees are peeled, see PEEL_WIDTH; a tree is never charged).  The
masks and one family must fit, so a short side of more than 19 lines is refused at once.  No
component of at most 12 lines a side is refused: each family is that of a set of kept lines of
the long side, and of deleted short-side lines each hanging a tree with a long-side line of its
own, so there are at most 2^12 of them, and (2^12 + 3 * 12 + 3) * 2^12 bits fit."""


PEEL_WIDTH = 4
"""The widest short side of a component with a cycle that the matroid DP counts whole.  Past it,
the trees hanging from the component's 2-core are counted apart; up to it they cost more that way
than the DP pays for them.  On 600 random components with trees, from 5x5 to 12x12 instances,
counting them apart took 1.45x the time at a short side of 3 lines, 1.10x at 4, 0.81x at 5, 0.62x
at 6 and 0.31x at 9."""


def _span(part: dict[int, int]) -> tuple[int, int]:
    """The masks of the rows and of the columns holding the zeros of ``part``."""
    rows = cols = 0
    for r, row_cols in part.items():
        rows |= 1 << r
        cols |= row_cols
    return rows, cols


def _components(adj: dict[int, int]) -> list[dict[int, int]]:
    """The row masks of each connected component of the zero graph ``adj``."""
    parts: list[tuple[int, dict[int, int]]] = []  # (its column mask, its row masks)
    for r, cols in adj.items():
        joined: dict[int, int] = {}
        span = cols
        rest = []
        for part_cols, part in parts:
            if part_cols & cols:
                joined.update(part)
                span |= part_cols
            else:
                rest.append((part_cols, part))
        joined[r] = cols
        rest.append((span, joined))
        parts = rest
    return [part for _, part in parts]


def _component_table(
    part: dict[int, int], rows: int, cols: int, limit: int, nu: int, width: int
) -> dict[int, int]:
    """Line-subset counts of one component of the zero graph, as a packed table.

    ``part`` holds the component's row masks.  The table counts the choices
    of a of its rows in the mask ``rows`` and b of its columns in the mask
    ``cols`` that leave a maximum matching of nu' of its zeros; only entries
    with a + b + nu' <= limit are kept, and no zero count.  ``nu`` is the
    size of the component's own maximum matching; the caller passes a limit
    of at least ``nu``, so the table always holds the entry of the empty
    choice.  The key of (a, b, nu') packs a, b and a + b + nu' into fields
    of ``width`` bits, from the top; ``width`` must hold 2 * limit, so that
    a product's key is the sum of its factors' keys (see :func:`_times`).

    The masks may hold lines of other components, which are ignored.  A
    connected component is a tree exactly when its zeros number its rows
    plus its columns less one.  Every tree, whatever its shape, is counted
    by the one dynamic programme of :func:`_tree_table`, in time
    polynomial in its size; any other component by :func:`_matroid_table`,
    in time exponential only in its short side.  When that side passes
    PEEL_WIDTH lines, the trees hanging from the component's 2-core are
    counted by the tree DP, each rooted at its line there, and the matroid
    DP runs on the core alone, so that its short side is the core's.
    """
    masks = part.values()
    columns = reduce(or_, masks).bit_count()
    if sum(map(int.bit_count, masks)) < len(part) + columns:
        return _tree_table(part, rows, cols, limit, nu, width)
    if len(part) <= PEEL_WIDTH or columns <= PEEL_WIDTH:
        return _matroid_table(part, rows, cols, limit, width)
    core, hung = _core(part), {}
    if core is not part:  # the trees hanging from each line of the core, rooted there
        core_cols = reduce(or_, core.values())
        rest = {r: mask & ~core_cols if r in core else mask for r, mask in part.items()}
        for tree in _components({r: mask for r, mask in rest.items() if mask}):
            root = next((r for r in tree if r in core), ~((reduce(or_, tree.values()) & core_cols).bit_length() - 1))
            hung[root] = _tree_table(tree, rows, cols, limit, nu, width, root)
    return _matroid_table(core, rows, cols, limit, width, hung)


def _tree_table(
    part: dict[int, int], rows: int, cols: int, limit: int, nu: int, width: int, root: int | None = None
) -> dict[int, int]:
    """:func:`_component_table` of a component whose zero graph is a tree.

    Rooted anywhere, a tree has a maximum matching that pairs each line
    with a child line when some child is present and unmatched, working
    up from the leaves.  So a subtree's choices are counted by (a, b,
    a + b + nu') and by the state of its root line: taken, present and
    matched to a child, or present and unmatched.  A line's table is made
    from the product of its children's tables, split by whether some child
    is left unmatched; a leaf's product is empty, and a line with one child
    takes that child's table as it is.  The tree is rooted at ``root``
    (row r, or ~c for column c), or else at its first row, and its lines
    are visited leaves first, from one breadth-first order, with no
    recursion.

    Each part of a + b + nu' is final once counted, and the rest of the
    tree adds at least its own maximum matching.  That is ``nu`` less the
    subtree's own, less one more only when the line joining them can lie
    in a maximum matching of the whole, and so only when the subtree's
    root is unmatched in the subtree's.  So a subtree keeps only the
    entries at most the slack ``limit - nu`` over its own maximum
    matching, plus one if its root is unmatched there: the slack plus one
    over the maximum matchings of its children's subtrees, which one pass
    up the tree sums before any table is made.

    A table is a dict from a packed key to its count, in the layout of
    :func:`_component_table` with one more field on top: the number of
    children left unmatched (unbounded).  A tree rooted at its first row
    is a whole component, so the root has no parent to count that field
    for and its table is returned as it is.  A tree hung from the 2-core
    of a component is rooted at its line there (see :func:`_matroid_table`),
    and its table keeps the root, when present and unmatched, in that
    field; ``nu`` is then the whole component's maximum matching, and the
    caps hold as they do in a tree, as each subtree still meets the rest
    of the component by one zero.
    """
    top = (1 << width) - 1
    row_unit, col_unit = 1 << 2 * width | 1, 1 << width | 1
    free = 1 << 3 * width  # one unmatched child
    low = free - 1
    # the lines breadth first, each with its parent's place and the key it
    # adds when taken (0 if it may not be); row r is line r, column c is ~c
    if root is None:  # a whole component, rooted at its first row
        root = next(iter(part))
        open_root = 0
    else:  # a tree hung from a core keeps its root's state
        open_root = free
    seen_rows, seen_cols = (1 << root, 0) if root >= 0 else (0, 1 << ~root)
    lines, ups, units = [root], [0], [row_unit if rows & seen_rows else col_unit if cols & seen_cols else 0]
    for i, v in enumerate(lines):
        if v >= 0:
            below = part[v] & ~seen_cols
            seen_cols |= below
            while below:
                bit = below & -below
                below ^= bit
                lines.append(~(bit.bit_length() - 1))
                ups.append(i)
                units.append(col_unit if cols & bit else 0)
        else:
            bit = 1 << ~v
            for r, row_cols in part.items():
                if row_cols & bit and not seen_rows >> r & 1:
                    seen_rows |= 1 << r
                    lines.append(r)
                    ups.append(i)
                    units.append(row_unit if rows >> r & 1 else 0)
    # each line's cap, from the maximum matchings of its children's subtrees
    # (owns) and whether some child is left unmatched in its own (opens)
    slack = limit - nu
    count = len(lines)
    owns, opens, caps = [0] * count, [False] * count, [limit] * count
    for i in range(count - 1, 0, -1):
        caps[i] = min(limit, slack + owns[i] + 1)
        up = ups[i]
        owns[up] += owns[i] + opens[i]
        opens[up] |= not opens[i]
    # products[i] holds every choice below line i, keyed also by the number
    # of its children left unmatched; a child's table is within the cap,
    # which never falls going up
    products: list = [None] * count
    for i in range(count - 1, -1, -1):
        cap, unit = caps[i], units[i]
        # line i taken; matched to an unmatched child, or else unmatched
        table = {}
        unmatched_key = free if i else open_root
        for key, x in (products[i] or {0: 1}).items():
            base = key & low
            room = key & top < cap
            if room and unit:
                table[base + unit] = table.get(base + unit, 0) + x
            if key <= low:
                table[base + unmatched_key] = table.get(base + unmatched_key, 0) + x
            elif room:
                table[base + 1] = table.get(base + 1, 0) + x
        if i:
            up = ups[i]
            products[up] = table if products[up] is None else _times(products[up], table, caps[up], top)
    return table


def _times(left: dict[int, int], right: dict[int, int], cap: int, top: int) -> dict[int, int]:
    """The product of two packed tables (see :func:`_component_table`),
    dropping every entry whose a + b + nu' passes ``cap``."""
    out: dict[int, int] = {}
    for k1, x1 in left.items():
        room = cap - (k1 & top)
        for k2, x2 in right.items():
            if k2 & top <= room:
                key = k1 + k2
                out[key] = out.get(key, 0) + x1 * x2
    return out


@lru_cache(maxsize=1)
def _subset_tables(w: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The 2^w-bit masks of :func:`_matroid_table`.  steps[c] is (the sets
    of w lines without line c, 2^c): shifting the first by the second adds
    line c to each.  sizes[j] holds the sets of j lines; sizes[w + 1] is 0,
    so a rank of w looks one size up and finds nothing.  Only the last
    width asked for is kept."""
    full = (1 << (1 << w)) - 1
    steps = tuple((full // ((1 << (2 << c)) - 1) * ((1 << (1 << c)) - 1), 1 << c) for c in range(w))
    sizes = [1]  # over no lines, the empty set only
    for c in range(w):
        sizes = [old | grown << (1 << c) for old, grown in zip(sizes + [0], [0] + sizes)]
    return steps, (*sizes, 0)


def _closure(family: int, steps: tuple[tuple[int, int], ...]) -> int:
    """The sets of the family ``family`` and all their supersets."""
    for lack, shift in steps:
        family |= (family & lack) << shift
    return family


def _core(part: dict[int, int]) -> dict[int, int]:
    """The row masks of the 2-core of the component ``part``: what is left
    once every line meeting one zero or none is deleted, again and again.
    ``part`` itself when every line meets two zeros or more."""
    core = part
    while True:
        once = twice = 0
        for mask in core.values():
            twice |= once & mask
            once |= mask
        if once == twice and all(mask & mask - 1 for mask in core.values()):
            return core
        core = {r: mask & twice for r, mask in core.items() if (mask & twice).bit_count() > 1}


def _matroid_table(
    part: dict[int, int], rows: int, cols: int, limit: int, width: int, hung: dict[int, dict[int, int]] | None = None
) -> dict[int, int]:
    """:func:`_component_table` of any component, by a dynamic programme
    over the lines of its long side whose state is the transversal matroid
    of its short side (Edmonds & Fulkerson).

    The component is transposed if need be, so that its short side is its
    w columns, relabelled 0..w-1; a set X of them is the w-bit int with bit
    t for column t.  A *family* is a 2^w-bit int whose bit X is set when X
    can be matched into the rows kept so far; it starts as {empty set} and
    is closed under taking subsets.  The rows are visited once each.
    Taking one leaves the family as it is and adds one to a; keeping one
    with columns M adds X + {t} for each X in the family and t in M not in
    X.  A family's rank, its largest set, only grows with the rows, and
    each column taken later lowers the matching by at most one, so b + nu'
    never falls below it: a choice whose a + b + nu' so far plus the rank
    passes the limit is dropped.  The rank moves by at most one a line and
    is carried with the family, not searched for.  Each family holds a
    floor, low, on the a of its choices so far, and their packed table
    less low rows: so it is grown once for all, and taking a row raises
    only low.

    ``hung`` maps a line (row r, or ~c for column c) to the table of the
    trees hanging from it in a larger component, rooted there (see
    :func:`_tree_table`).  Matching each tree from its leaves up is
    maximum, so a line taken, or matched to a child left unmatched in its
    trees, leaves ``part``; one present and unmatched there stays.  A row
    with trees adds their table to the family it keeps or leaves.  A column
    with trees is settled after the rows: kept, or left and deleted from
    every set of the family (its rank falls by at most one); either way it
    then counts as a column that may not be chosen.

    At the end the columns are chosen.  The kept set T leaves a matching of
    at least v exactly when it contains a v-set of the family, that is when
    T lies in the closure of those v-sets, and T must hold every column
    that may not be chosen: so the kept sets of each size and matching are
    counted by popcounts.  Choosing b columns lowers the rank by at most b,
    so a matching of v needs b >= rank - v, and only matchings down to the
    rank less the columns that may be chosen are looked at; with none, the
    matching left is the rank.

    The cost is the lines times the live families times w operations on
    2^w-bit ints.  Raises BudgetExceededError when the bits of the live
    families and of the 3w + 3 masks kept for the end, 2^w bits each, pass
    STATE_BUDGET: checked before the first row, so a short side too wide
    for the masks and one family is refused at once, and after each line.
    """
    row_unit, col_unit = 1 << 2 * width | 1, 1 << width | 1
    top, free = (1 << width) - 1, 1 << 3 * width
    hung = hung or {}
    if reduce(or_, part.values()).bit_count() > len(part):  # the rows are the short side: transpose
        part = _row_masks((c, r) for r, mask in part.items() for c in _indices(mask))
        rows, cols, row_unit, col_unit = cols, rows, col_unit, row_unit
        hung = {~line: table for line, table in hung.items()}
    columns = [1 << c for c in _indices(reduce(or_, part.values()))]
    w = len(columns)
    if (3 * w + 4) << w > STATE_BUDGET:  # the masks and one family
        raise BudgetExceededError(f"state budget of {STATE_BUDGET} bits passed by a short side of {w} lines")
    steps_of, sizes = _subset_tables(w)
    families = {1: (0, 0, {0: 1})}  # family -> (its rank, low, its packed table less low rows)
    fixed = sum(1 << t for t, bit in enumerate(columns) if not cols & bit)  # in every kept set
    # each row, then each column with trees, as (its line, the steps keeping it adds, the sets leaving it keeps)
    lines = [(r, [step for bit, step in zip(columns, steps_of) if mask & bit], -1) for r, mask in part.items()]
    for t, bit in enumerate(columns) if hung else ():
        if ~(bit.bit_length() - 1) in hung:
            lines.append((~(bit.bit_length() - 1), [], steps_of[t][0]))
            fixed |= 1 << t
    for line, steps, cut in lines:
        trees = hung.get(line)
        if trees is not None:  # kept and present unmatched in its trees, or else left
            kept_part = {key - free: x for key, x in trees.items() if key >= free}
            left_part = {key: x for key, x in trees.items() if key < free}
        grown: dict[int, tuple[int, int, dict[int, int]]] = {}
        for family, (rank, low, table) in families.items():
            kept = family
            for lack, shift in steps:
                kept |= (family & lack) << shift
            kept_rank = rank + 1 if kept & sizes[rank + 1] else rank
            if trees is None:
                if low + kept_rank <= limit:
                    grown[kept] = _plus(grown.get(kept), kept_rank, low, table, row_unit)
                if rows >> line & 1 and low + rank < limit:  # taken
                    grown[family] = _plus(grown.get(family), rank, low + 1, table, row_unit)
                continue
            left = family & cut
            left_rank = rank if left & sizes[rank] else rank - 1
            for into, into_rank, factor in (kept, kept_rank, kept_part), (left, left_rank, left_part):
                product = _times(table, factor, limit - into_rank - low, top)
                if product:
                    grown[into] = _plus(grown.get(into), into_rank, low, product, row_unit)
        families = grown
        if (len(families) + 3 * w + 3) << w > STATE_BUDGET:
            raise BudgetExceededError(f"state budget of {STATE_BUDGET} bits passed by {len(families)} families")
    above = _closure(1 << fixed, steps_of)
    valid = [above & sizes[w - b] for b in range(w - fixed.bit_count() + 1)]  # the kept sets by b
    out: dict[int, int] = {}
    for family, (rank, low, table) in families.items():
        reached = 0  # the kept sets leaving a matching above v
        for v in range(rank, max(rank - len(valid), -1), -1):
            at_least = _closure(family & sizes[v], steps_of)
            exactly, reached = at_least & ~reached, at_least
            for b in range(rank - v, min(len(valid), limit - low - v + 1)):
                n = (exactly & valid[b]).bit_count()
                for key, x in table.items() if n else ():
                    if key & top <= limit - low - b - v:
                        key += low * row_unit + b * col_unit + v
                        out[key] = out.get(key, 0) + x * n
    return out


def _plus(
    old: tuple[int, int, dict[int, int]] | None, rank: int, low: int, table: dict[int, int], unit: int
) -> tuple[int, int, dict[int, int]]:
    """The family state ``old`` plus ``table``, a packed table less ``low``
    rows, as (the rank, the lesser low, the table less that many rows); a
    row adds ``unit`` to a key.  ``old`` may be None.  Tables are shared
    between states, so none is changed."""
    if old is None:
        return rank, low, table
    _, old_low, old_table = old
    start = min(low, old_low)
    out = {}
    for shift, part in ((low - start) * unit, table), ((old_low - start) * unit, old_table):
        for key, x in part.items():
            out[key + shift] = out.get(key + shift, 0) + x
    return rank, start, out


def _partial_cover_counts(
    adj: dict[int, int], match_col: dict[int, int], rows: int, cols: int, m0: int, n0: int, limit: int
) -> dict[tuple[int, int], int]:
    """(i, j) -> the choices of i rows and j columns that are partial covers
    of the zero graph ``adj``: i + j plus the matching they leave is <=
    limit.  Only nonzero counts are kept.  ``match_col`` is a maximum
    matching of ``adj``.  The rows that may be chosen are those of the mask
    ``rows`` and ``m0`` rows holding no zero, the columns those of ``cols``
    and ``n0`` columns holding no zero; both masks hold lines touching a
    zero only, so neither reaches past the last line holding a zero.

    The residual matching is a sum over the components of the zero graph,
    and a chosen line touching no zero only adds to i or j.  So the counts
    of (a, b, nu) for the whole choice are the binomial table of the
    zero-free rows and columns times one table per component
    (:func:`_component_table`: the tree DP for a component without a cycle,
    the matroid DP for any other), all in the packed layout, so a product
    is a sum of keys (:func:`_times`); the counts are summed over nu.  With
    no zero at all, the binomial table is the answer as it is.

    Deleting a line lowers a matching by at most one, so every choice
    leaves component c with a_c + b_c + nu'_c >= nu_c, its own maximum
    matching.  A maximum matching of the whole graph is maximum on each
    component, so nu_c is the number of c's rows that ``match_col``
    covers, and only the slack, limit minus the whole matching, is left
    over.  None means no partial cover at all: a pattern with limit + 1
    independent zeros gets ``{}`` first, costs no component work and is
    never refused.  Otherwise component c is counted to slack + nu_c, and
    each product is kept to the limit less the matching the components
    not yet multiplied still owe; the zero-free lines alone get the slack.
    A component with a cycle may raise BudgetExceededError (STATE_BUDGET);
    a tree never does.
    """
    owed = len(match_col)
    slack = limit - owed
    free = {  # the zero-free lines alone leave nothing to match; none at all when slack < 0
        (a, b): comb(m0, a) * comb(n0, b)
        for a in range(min(m0, slack) + 1)
        for b in range(min(n0, slack - a) + 1)
    }
    if slack < 0 or not adj:
        return free
    width = _table_width(limit)
    top = (1 << width) - 1
    total = {(a << width | b) << width | a + b: x for (a, b), x in free.items()}
    matched = set(match_col.values())
    for part in _components(adj):
        nu = len(matched.intersection(part))
        owed -= nu
        total = _times(total, _component_table(part, rows, cols, slack + nu, nu, width), limit - owed, top)
    counts: dict[tuple[int, int], int] = {}
    for key, x in total.items():  # as _unpacked decodes it
        i, j = key >> 2 * width, key >> width & top
        counts[i, j] = counts.get((i, j), 0) + x
    return counts


def _table_width(limit: int) -> int:
    """The width of each field of the packed tables counted to ``limit``
    (see :func:`_component_table`): it holds 2 * limit."""
    return limit.bit_length() + 1


def _unpacked(table: dict[int, int], width: int) -> dict[tuple[int, int, int], int]:
    """A packed table with fields of ``width`` bits, keyed by (a, b, a + b
    + nu') instead."""
    top = (1 << width) - 1
    return {(key >> 2 * width, key >> width & top, key & top): x for key, x in table.items()}


def cover_coefficients(p: RapInstance) -> dict[tuple[int, int], int]:
    """The nonzero cover coefficients d_{i,j} of ``p``, keyed by (i, j).

    (R, C) is a partial (k-1)-cover iff |R| + |C| plus the maximum matching
    of the zeros it leaves uncovered is at most k - 1.  That matching is
    the sum of the components' residual matchings, and lines touching no
    zero change nothing but |R| + |C|, so the count is a convolution of
    small per-component tables with binomials (see _partial_cover_counts).
    A component without a cycle is counted in polynomial time and never
    refused; any other in time exponential in its short side only, with
    STATE_BUDGET bounding the bits its count holds.  The lines touching no
    zero are counted, not masked, so m and n enter as two counts and a mask
    reaches only the last line holding a zero.  The result is empty
    exactly when the zeros hold k independent entries: then it is ``{}``
    from the pattern's kept matching alone (see _zero_graph), and never
    refused.
    """
    adj, match_col = _zero_graph(p.pattern)
    if len(match_col) >= p.k:  # k independent zeros: answered before any span is taken
        return {}
    zero_rows, zero_cols = _span(adj)
    m0, n0 = p.m - len(adj), p.n - zero_cols.bit_count()
    return _partial_cover_counts(adj, match_col, zero_rows, zero_cols, m0, n0, p.k - 1)


def cover_profile(p: RapInstance) -> CoverProfile:
    """The dense table of :func:`cover_coefficients`: every d_{i,j} with
    i + j < k, i <= m and j <= n, zeros included."""
    limit = p.k - 1
    counts = cover_coefficients(p)
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
    residual), over the same matching; the rows holding no zero are
    counted, not masked, as there.
    """
    r = checked_row(p, r)
    limit = p.k - 1
    adj, match_col = _zero_graph(p.pattern)
    nu = len(match_col)
    n_held = len(adj) - (r in adj)  # the other rows holding a zero, and those holding none
    n_free = p.m - 1 - n_held
    if nu == len(adj):
        return tuple(
            comb(p.m - 1, i) if i <= limit - nu  # every f is allowed (Vandermonde)
            else sum(comb(n_held, i - f) * comb(n_free, f) for f in range(limit - nu + 1))
            for i in range(p.k)
        )
    rows = _span(adj)[0]
    if r in adj:
        rows &= ~(1 << r)
    counts = _partial_cover_counts(adj, match_col, rows, 0, n_free, 0, limit)
    return tuple(counts.get((i, 0), 0) for i in range(p.k))


# ---------------------------------------------------------------------------
# Forced lines: membership in every cover of a given size
# ---------------------------------------------------------------------------


def _min_cover_avoiding(adj: dict[int, int], row: int | None, col: int | None) -> int:
    """Minimum size of a cover of the row masks ``adj`` not using the given line.

    Zeros on the forbidden line must be covered by their crossing lines;
    the rest is a König minimum cover of the remaining zeros.
    """
    if row is not None:
        forced_cols = adj.get(row, 0)
        residual = {r: cols & ~forced_cols for r, cols in adj.items() if r != row and cols & ~forced_cols}
        return forced_cols.bit_count() + len(_max_matching(residual))
    bit = 1 << col
    residual = {r: cols for r, cols in adj.items() if not cols & bit}
    return len(adj) - len(residual) + len(_max_matching(residual))


def forced_cover_lines(lattice: CoverLattice, size: int) -> tuple[frozenset[int], frozenset[int]]:
    """Rows and columns that belong to every cover of at most ``size`` lines,
    for the zero graph of ``lattice`` (a pattern's is ``cover_lattice(z)``).

    Meaningful only when such a cover exists (lattice.size <= size);
    raises ValueError otherwise, since membership would be vacuous.

    At the minimum size these are the lines common to all minimum covers:
    the rows of the column-maximal cover and the columns of the row-maximal
    one.  A larger size forces a subset of them, each tested on its own.
    """
    size = checked_int(size, "size")
    if lattice.size > size:
        raise ValueError(f"no {size}-cover exists")
    common_rows, common_cols = lattice.common_lines
    if lattice.size == size:
        return common_rows, common_cols
    adj = lattice.masks
    rows = frozenset(r for r in common_rows if _min_cover_avoiding(adj, r, None) > size)
    cols = frozenset(c for c in common_cols if _min_cover_avoiding(adj, None, c) > size)
    return rows, cols
