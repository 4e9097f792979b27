"""Independent exact evaluator of E(P) by symbolic conditioning.

States carry an m x n matrix whose entries are linear combinations of
independent exponential variables with nonnegative rational
coefficients.  Three exact rewrites drive the evaluation:

* reduce: delete every line contained in every (k-1)-cover of the zeros
  (decrementing k) in one pass, which is already the fixed point, and
  stop a branch once k independent zeros exist.  The deletion identity
  holds pointwise for every nonnegative matrix with that zero pattern,
  so it is valid for arbitrary entry distributions.
* pair conditioning: when no minimal non-covered nonstandard entry
  exists, pick the first two incomparable potentially minimal ones and
  apply minimum conditioning to their two scaled disagreement variables,
  with no cost extracted and no shift.
* minimum conditioning: when a minimal non-covered nonstandard entry
  exists (or none at all), condition on the minimum of one of its terms
  together with all non-covered standard entries; the minimum Y is
  subtracted from every non-covered entry and added to every doubly
  covered one, extracting expected cost (k - |cover|) * E[Y].

Arithmetic is exact.  Coefficients and intensities are stored as ints
when integral and as Fractions otherwise; on every standard instance
tried (all 2x2 and 3x3 patterns, every 4x4 class, sampled 5x5 patterns)
they are all ints, so the canonical key sorts and compares ints.  A
node's value is (k - |cover| + the sum of I_o * V_o over its orbits) / T,
with I_o an orbit's summed member intensity, V_o the value of its child
and T the total intensity: one Fraction division per node.  Weights
I_j / T and extracted costs are formed only for trace lines.

Both conditioning rules return a Conditioning: the step's cost, each
member's intensity and the template every child comes from.  One pass
over the state's cells writes the template and records its zero masks
and the cells holding each fresh variable.  In that pass minimum
conditioning shifts cell (r, c) by (row r covered) + (column c covered)
- 1 times Y, and pair conditioning shifts no cell.  A child's zeros are
the template's plus the cells whose only term is its residual, so the
evaluator finds a child's cover lattice (one maximum matching over its
zero graph, held as row bitmasks) before building it.  A terminal child
is worth 0 and is never built.  Any other child is built with that
lattice and reduced by reduce_state, as the root is: its forced lines,
read off the lattice by forced_cover_lines, are deleted.  The pair rule
and the termination measure read one record of a pair's disagreements:
the coefficient differences of its two entries.

An instance already terminal at the root (k independent zeros) is
answered from the pattern's one matching, before its state is built or
any cover is searched.  Any other root is built with its pattern's
lattice (see covers.cover_lattice), from the matching the pattern keeps,
reduced, and handed to the one recursive evaluator as every kept child
is; the door check and reduce_state show that it is not terminal.  A
reduced state scans its own entries for its lattice on first use, so a
state found in the cache, root or child, never forms one.  Each state
classifies its entries once, on first use, and the termination measure
and the conditioning rules read that classification.

A state's variable table maps each variable its entries use, and no
other, to its intensity.  Every entry is built by LinearEntry's checking
constructor.  The states the oracle derives are built from checked ones
by steps that keep the state invariants, without the state
constructor's checks.  A state holds no record of the cost extracted
above it.

A line is plain when each of its cells is a zero or a standard entry,
and two plain lines with the same zeros are twins: swapping them, and
renaming their standard variables, maps the state to itself.  The
minimum-conditioning children of members in twin rows and twin columns
are therefore isomorphic and equally weighted, so the evaluation builds
one child per such orbit and weights its value by the orbit's summed
weight.  The term member is an orbit of its own, and pair conditioning
evaluates both of its children.

The root state costs little per-cell construction: its standard cells
are shared immutable objects, each built (and validated) once per
variable id and kept in a cache of a fixed size, _UNIT_CELLS: a root of
up to that many nonzeros shares every one, and a larger root leaves no
more than that many held.  The canonical key encodes zero- and one-term
cells directly and sorts only the terms of cells with two or more.

A lexicographic 5-part measure (zeros, cover rows, potentially minimal
count, disagreement variables, variable count of the minimal entry)
strictly decreases at every branching step, which is asserted at
runtime part by part: each child's first two parts come from the
lattice of its zero graph, found before it is built, and the child is
built and classified for the other three only when those two tie with
the parent's.  The first two parts are the same for isomorphic states,
so when they differ from the parent's one lattice decides for the whole
orbit; when they tie, every member of the orbit is built and checked in
full, and the evaluation goes on from the member already built.

The evaluator never touches the cover-coefficient formula; it shares
only the Koenig machinery with the rest of the package, which is what
makes it an independent oracle for that formula.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import IO, Mapping

from .covers import (
    CoverLattice,
    LineCover,
    cover_lattice,
    forced_cover_lines,
    mask_cover_lattice,
    max_independent_zeros,
)
from .model import BudgetExceededError, Position, RapInstance, checked_int

DEFAULT_NODE_BUDGET = 10**6
_UNIT_CELLS = 1024  # shared standard cells kept (see _unit)

Rational = int | Fraction  # an int when integral (see _exact)


def _exact(x) -> Rational:
    """``x`` as an exact rational: an int when it is integral, else a Fraction."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


@dataclass(frozen=True)
class LinearEntry:
    """A nonnegative rational linear combination of exponential variables.

    Stored sparsely as (variable id, coefficient) pairs sorted by id, each
    coefficient an int when integral (see _exact); zero coefficients are
    never stored, and the empty combination is the constant 0 (a matrix
    zero).
    """

    terms: tuple[tuple[int, Rational], ...] = ()

    def __post_init__(self) -> None:
        normalized = tuple(sorted((v, _exact(c)) for v, c in self.terms))
        object.__setattr__(self, "terms", normalized)
        for _, c in normalized:
            if c <= 0:
                raise ValueError(f"coefficients must be positive, got {c}")
        if len({v for v, _ in normalized}) != len(normalized):
            raise ValueError("duplicate variable in entry")

    def le(self, other: "LinearEntry") -> bool:
        """Componentwise comparison: every coefficient at most the other's."""
        theirs = dict(other.terms)
        return all(c <= theirs.get(v, 0) for v, c in self.terms)

    def incomparable(self, other: "LinearEntry") -> bool:
        return not self.le(other) and not other.le(self)


@dataclass(frozen=True)
class ExpRapState:
    """A RAP over exponential linear-combination entries; its value is the
    expected optimal k-assignment cost of the symbolic matrix.

    ``intensities`` is the variable table: each exponential variable's
    opaque integer id mapped to its positive intensity.  The constructor
    stores every intensity exactly (see _exact) and drops the variables no
    entry uses, keeping the others in their order.  The oracle builds the
    states it derives without the constructor's checks (see _trusted).
    """

    k: int
    entries: tuple[tuple[LinearEntry, ...], ...]
    intensities: Mapping[int, Rational]

    def __post_init__(self) -> None:
        n = self.n
        if any(len(row) != n for row in self.entries):
            raise ValueError("every row of entries must have the same length")
        used = {v for row in self.entries for e in row for v, _ in e.terms}
        unknown = used - self.intensities.keys()
        if unknown:
            first = next(v for row in self.entries for e in row for v, _ in e.terms if v in unknown)
            raise ValueError(f"entry references unknown variable {first}")
        table = {}
        for v, i in self.intensities.items():
            i = _exact(i)
            if i <= 0:
                raise ValueError(f"intensity must be positive, got {i}")
            if v in used:
                table[v] = i
        object.__setattr__(self, "intensities", table)

    @property
    def m(self) -> int:
        return len(self.entries)

    @property
    def n(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    # per-state data computed on first use; the state is immutable, so it never goes stale
    @cached_property
    def _covers(self) -> CoverLattice:
        """The cover lattice of the zero graph, scanned from the entries as
        row -> bitmask of its zero columns, for each row holding a zero."""
        masks = {}
        for r, row in enumerate(self.entries):
            mask = 0
            for c, e in enumerate(row):
                if not e.terms:
                    mask |= 1 << c
            if mask:
                masks[r] = mask
        return mask_cover_lattice(masks)

    @cached_property
    def _classification(self) -> EntryClassification:
        return classify_entries(self)


@dataclass(frozen=True)
class EntryClassification:
    """The entries outside the state's row-maximal minimum cover, split by
    kind, plus the bookkeeping the conditioning rules need.

    An entry is standard when it is one coefficient-1 term of a
    unit-intensity variable that occurs nowhere else, and nonstandard
    otherwise.  Both position tuples are in row-major order.

    A line is *plain* when each of its cells is a zero or a standard cell.
    Two plain rows with zeros in the same columns are *twins*: swapping
    them, and renaming their standard variables, leaves the state as it
    was.  The same holds for columns.  ``row_twins[r]`` names the twin
    class of row r by its first row, and ``col_twins`` does the same for
    the columns; a line that is not plain is a class of its own.
    """

    non_covered_standard: tuple[Position, ...]
    non_covered_nonstandard: tuple[Position, ...]
    potentially_minimal: tuple[Position, ...]
    minimal: Position | None
    first_incomparable_pair: tuple[Position, Position] | None
    row_twins: tuple[int, ...]
    col_twins: tuple[int, ...]


_ZERO = LinearEntry()


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as
    given, without running ``__post_init__``.  Only for values derived from
    checked ones by steps that keep every invariant the checks enforce; the
    oracle uses it for derived states only, never for entries."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@lru_cache(maxsize=_UNIT_CELLS)
def _unit(vid: int) -> LinearEntry:
    """The standard cell of variable `vid`, shared by the initial states
    while it stays in the cache; it is immutable."""
    return LinearEntry(((vid, 1),))


def make_initial_state(p: RapInstance) -> ExpRapState:
    """The standard RAP as a symbolic state: one unit variable per nonzero.

    The state keeps the cover lattice of its pattern (see cover_lattice),
    as a child keeps the one it was decided by, so it never scans its own
    entries for it.
    """
    zeros = p.pattern.zero_set
    vid = 0
    rows = []
    for r in range(p.m):
        row = []
        for c in range(p.n):
            if (r, c) in zeros:
                row.append(_ZERO)
            else:
                row.append(_unit(vid))
                vid += 1
        rows.append(tuple(row))
    state = ExpRapState(p.k, tuple(rows), dict.fromkeys(range(vid), 1))
    state.__dict__["_covers"] = cover_lattice(p.pattern)
    return state


def reduce_state(s: ExpRapState) -> ExpRapState:
    """Delete every line contained in every (k-1)-cover of the zeros, and
    lower k by their number; a terminal state is returned as it is.

    Deleting such a line and decrementing k leaves the optimal cost of
    every realization unchanged, so the expected value is preserved
    exactly.  One pass is the fixed point.  With F the forced lines, the
    covers of the zero graph G of at most k-1 lines are exactly F u C',
    with C' running over the covers of G - F of at most k-1-|F| lines.  So
    G - F has no forced line of its own, and as one such C' exists, its
    minimum cover is smaller than k-|F| and the reduced state is never
    terminal.

    The reduced state is built from s without the constructor's checks,
    and its variable table keeps, in order, the variables its entries still
    use.  It scans its own entries for its lattice on first use, so a state
    found in the cache never forms it.
    """
    lattice = s._covers
    if lattice.size >= s.k:
        return s
    rows, cols = forced_cover_lines(lattice, s.k - 1)
    if not rows and not cols:
        return s
    entries = tuple(
        tuple(e for c, e in enumerate(row) if c not in cols)
        for r, row in enumerate(s.entries)
        if r not in rows
    )
    used = {v for row in entries for e in row for v, _ in e.terms}
    return _trusted(
        ExpRapState,
        k=s.k - len(rows) - len(cols),
        entries=entries,
        intensities={v: i for v, i in s.intensities.items() if v in used},
    )


def classify_entries(s: ExpRapState) -> EntryClassification:
    """Split the entries outside the row-maximal cover into standard and
    nonstandard ones, and locate the structures driving the case split.

    The pass that finds the nonstandard cells reads every cell, covered or
    not, so it also finds the zeros of each line and from them the twin
    classes of the plain lines (see EntryClassification).
    """
    occurrences: dict[int, int] = {}
    for row in s.entries:
        for e in row:
            for v, _ in e.terms:
                occurrences[v] = occurrences.get(v, 0) + 1
    intensity = s.intensities

    nonstandard = set()  # nonzero cells that are not standard
    row_zeros, col_zeros = [0] * s.m, [0] * s.n
    for r, row in enumerate(s.entries):
        for c, e in enumerate(row):
            terms = e.terms
            if not terms:
                row_zeros[r] |= 1 << c
                col_zeros[c] |= 1 << r
            elif not (
                len(terms) == 1
                and terms[0][1] == 1
                and occurrences[terms[0][0]] == 1
                and intensity[terms[0][0]] == 1
            ):
                nonstandard.add((r, c))
    plain_rows = [True] * s.m
    plain_cols = [True] * s.n
    for r, c in nonstandard:
        plain_rows[r] = plain_cols[c] = False

    cover = s._covers.row_max
    outside = [
        (r, c) for r in range(s.m) if r not in cover.rows for c in range(s.n) if c not in cover.cols
    ]
    standard = tuple(p for p in outside if p not in nonstandard)
    ncn = tuple(p for p in outside if p in nonstandard)

    def entry(p: Position) -> LinearEntry:
        return s.entries[p[0]][p[1]]

    def strictly_below(a: LinearEntry, b: LinearEntry) -> bool:
        return a.le(b) and not b.le(a)

    pm = tuple(
        p for p in ncn if not any(strictly_below(entry(q), entry(p)) for q in ncn if q != p)
    )
    minimal = None
    for p in ncn:
        if all(entry(p).le(entry(q)) for q in ncn):
            minimal = p
            break
    pair = None
    if minimal is None:
        for i in range(len(pm)):
            for j in range(i + 1, len(pm)):
                if entry(pm[i]).incomparable(entry(pm[j])):
                    pair = (pm[i], pm[j])
                    break
            if pair:
                break
    return EntryClassification(
        standard, ncn, pm, minimal, pair,
        _twins(plain_rows, row_zeros), _twins(plain_cols, col_zeros),
    )


def _twins(plain: list[bool], zeros: list[int]) -> tuple[int, ...]:
    """Each line's twin class, named by its first member: plain lines with
    equal zero masks share one, and a line that is not plain is alone."""
    first: dict[int, int] = {}
    return tuple(first.setdefault(z, i) if p else i for i, (p, z) in enumerate(zip(plain, zeros)))


def _cover_parts(lattice: CoverLattice) -> tuple[int, int]:
    """The measure's first two parts, read from a state's cover lattice:
    -(minimum cover size) and the rows of the row-maximal cover."""
    return -lattice.size, len(lattice.row_max.rows)


def _differences(s: ExpRapState, u1: Position, u2: Position) -> dict[int, Rational]:
    """The coefficients of entry u1 minus those of entry u2, at each variable
    where the two differ: the disagreement variables of the pair."""
    diff = dict(s.entries[u1[0]][u1[1]].terms)
    for v, c in s.entries[u2[0]][u2[1]].terms:
        d = diff.pop(v, 0) - c
        if d:
            diff[v] = d
    return diff


def induction_measure(s: ExpRapState) -> tuple[int, int, int, int, int]:
    """The 5-part lexicographic termination measure, smaller is simpler."""
    cls = s._classification
    disagreements = 0
    if cls.first_incomparable_pair is not None:
        disagreements = len(_differences(s, *cls.first_incomparable_pair))
    minimal_vars = 0
    if cls.minimal is not None:
        minimal_vars = len(s.entries[cls.minimal[0]][cls.minimal[1]].terms)
    return (*_cover_parts(s._covers), len(cls.potentially_minimal), disagreements, minimal_vars)


def _measure_drops(child: ExpRapState, parent_measure: tuple[int, ...]) -> bool:
    """``induction_measure(child) < parent_measure``, classifying the child
    only when the two cover parts tie."""
    head = _cover_parts(child._covers)
    if head != parent_measure[:2]:
        return head < parent_measure[:2]
    return induction_measure(child) < parent_measure


@dataclass(frozen=True)
class Conditioning:
    """One conditioning step: independent scaled exponentials, the members,
    race for the minimum Y, and child j is the state in which member j
    wins.

    Member j has intensity ``intensities[j]``; ``total`` is their sum, the
    intensity of Y, so child j has weight intensities[j] / total.  The step
    extracts expected cost ``cost`` / total, with ``cost`` = k - |cover| for
    minimum conditioning and 0 for pair conditioning.  The evaluator keeps
    to integers where it can and divides once per node: its value is
    (cost + sum of intensities[j] * value of child j) / total.

    ``template`` is the matrix with every member written as Y plus its
    residual Z_j, and child j is the template with Z_j = 0: its zeros are
    the template's ``masks`` plus the cells whose only term is Z_j, so its
    zero graph is known before it is built.
    """

    k: int
    cost: int
    intensities: tuple[Rational, ...]
    total: Rational
    template: tuple[tuple[LinearEntry, ...], ...]
    table: Mapping[int, Rational]  # the template's variable table, every variable used
    residuals: tuple[int, ...]  # the variable id of each Z_j
    holding: Mapping[int, list[Position]]  # Z_j -> the cells whose terms hold it
    masks: Mapping[int, int]  # the template's zero graph, row -> mask of its zero columns

    @property
    def extracted(self) -> Fraction:
        return Fraction(self.cost) / self.total

    @property
    def weights(self) -> list[Fraction]:
        return [Fraction(i) / self.total for i in self.intensities]

    def zero_masks(self, j: int) -> dict[int, int]:
        """Child j's zero graph as row -> mask of its zero columns."""
        masks = dict(self.masks)
        for r, c in self.holding[self.residuals[j]]:
            if len(self.template[r][c].terms) == 1:
                masks[r] = masks.get(r, 0) | 1 << c
        return masks

    def build(self, j: int, covers: CoverLattice | None = None) -> ExpRapState:
        """Child j, built without the state constructor's checks.  ``covers``,
        when given, is the cover lattice of its zero graph (see zero_masks),
        and the child keeps it."""
        z_id = self.residuals[j]
        entries = list(self.template)
        for r, c in self.holding[z_id]:
            terms = entries[r][c].terms
            e = LinearEntry(tuple(t for t in terms if t[0] != z_id)) if len(terms) > 1 else _ZERO
            entries[r] = (*entries[r][:c], e, *entries[r][c + 1:])
        intensities = dict(self.table)
        del intensities[z_id]
        child = _trusted(ExpRapState, k=self.k, entries=tuple(entries), intensities=intensities)
        if covers is not None:
            child.__dict__["_covers"] = covers
        return child


def _condition_on_minimum(
    s: ExpRapState, members: list[tuple[int, Rational]], cover: LineCover | None
) -> Conditioning:
    """Condition on which of `members`, independent scaled exponentials
    given as (variable, 1/coefficient), is the minimum Y.

    Every member becomes Y plus its residual Z_j (the variable becomes
    (Y + Z_j) * scale); the child in which member j is the minimum is this
    template with Z_j = 0.  Minimum conditioning passes the state's
    ``cover``: cell (r, c) gains (row r covered) + (column c covered) - 1
    times Y, so Y leaves every non-covered cell and joins every doubly
    covered one, and the step's cost is k - |cover|.  Pair conditioning
    passes None: no shift and no cost.  Fresh ids are Y, then Z_1, Z_2,
    ..., above every existing id.  One pass rewrites each cell and records
    the template's zeros and the cells holding each fresh variable.
    """
    member_intensities = tuple(s.intensities[v] * scale for v, scale in members)
    # each weight I_j / T is positive, and as T is their sum the weights sum to 1
    assert all(i > 0 for i in member_intensities)
    total = sum(member_intensities)
    y_id = max(s.intensities, default=-1) + 1
    z_ids = tuple(range(y_id + 1, y_id + 1 + len(members)))
    rules = {v: (z_id, scale) for (v, scale), z_id in zip(members, z_ids)}
    if cover is None:
        cost, row_shift, col_shift = 0, [0] * s.m, [0] * s.n
    else:
        cost = s.k - len(cover)
        row_shift = [(r in cover.rows) - 1 for r in range(s.m)]
        col_shift = [int(c in cover.cols) for c in range(s.n)]
    holding: dict[int, list[Position]] = {v: [] for v in (y_id, *z_ids)}
    template = []
    masks = {}
    for r, row in enumerate(s.entries):
        cells = []
        mask = 0
        for c, e in enumerate(row):
            y = row_shift[r] + col_shift[c]  # Y's coefficient in the rewritten cell
            if y or any(v in rules for v, _ in e.terms):
                acc: dict[int, Rational] = {}
                for v, coeff in e.terms:
                    if v in rules:
                        z_id, scale = rules[v]
                        acc[z_id] = coeff * scale
                        y += coeff * scale
                    else:
                        acc[v] = coeff
                assert y >= 0, "every non-covered entry must contain the minimum"
                if y:
                    acc[y_id] = y
                e = LinearEntry(tuple(acc.items()))
                for v, _ in e.terms:
                    if v >= y_id:
                        holding[v].append((r, c))
            if not e.terms:
                mask |= 1 << c
            cells.append(e)
        template.append(tuple(cells))
        if mask:
            masks[r] = mask
    table = {v: i for v, i in s.intensities.items() if v not in rules}
    # Y drops out when every cell that held a member lost it to the shift
    if holding.pop(y_id):
        table[y_id] = total
    table.update(zip(z_ids, member_intensities))
    return Conditioning(s.k, cost, member_intensities, total, tuple(template), table, z_ids, holding, masks)


def condition_pair(s: ExpRapState, u1: Position, u2: Position) -> Conditioning:
    """Split on which scaled disagreement variable of two entries is smaller.

    With e1 = a1*Xi + b1*Xj + ... and e2 = a2*Xi + b2*Xj + ... where
    a1 > a2 and b2 > b1, this is minimum conditioning of the two scaled
    disagreement variables (a1-a2)Xi and (b2-b1)Xj, with no cost extracted
    and no shift; in each child e1 and e2 share their Y-coefficient.  Xi
    and Xj are the lowest-id such variables.  Child 0 is the one in which
    (a1-a2)Xi is the minimum.
    """
    diff = _differences(s, u1, u2)
    excess = [v for v, d in diff.items() if d > 0]  # e1's larger coefficients
    deficit = [v for v, d in diff.items() if d < 0]  # e2's larger coefficients
    if not excess or not deficit:
        raise ValueError("entries must be incomparable to pair-condition")
    i, j = min(excess), min(deficit)
    members = [(i, _exact(Fraction(1) / diff[i])), (j, _exact(Fraction(-1) / diff[j]))]
    return _condition_on_minimum(s, members, None)


def condition_minimum(s: ExpRapState) -> Conditioning:
    """Condition on the minimum of the candidate set S; extract expected cost.

    S holds one term a*Xi of the minimal non-covered nonstandard entry
    (when such an entry exists) and every non-covered standard entry, in
    that order and the latter in row-major order; child j is the one in
    which member j is the minimum.
    The minimum Y of S has intensity I = sum of member intensities, and
    by the cover recursion the expected cost (k - |cover|)/I is
    extracted.  Each child conditions on a member being the minimum,
    replaces the conditioned variables through Y and fresh residuals,
    subtracts Y from all non-covered entries, and adds Y to all doubly
    covered ones.
    """
    cls = s._classification
    cover = s._covers.row_max
    assert len(cover) < s.k, "caller must reduce the state first"
    if cls.non_covered_nonstandard and cls.minimal is None:
        raise ValueError("no minimal non-covered nonstandard entry; pair-condition instead")

    term: tuple[int, Rational] | None = None
    if cls.minimal is not None:
        e = s.entries[cls.minimal[0]][cls.minimal[1]]
        term = min(e.terms)  # lexicographically smallest variable id
    std_vars = [s.entries[r][c].terms[0][0] for r, c in cls.non_covered_standard]
    assert term is not None or std_vars, "reduced state must have a non-covered candidate"

    # each member of S as (variable, 1/coefficient): term a*Xi, then the standard entries
    members = [(term[0], _exact(Fraction(1) / term[1]))] if term is not None else []
    members.extend((v, 1) for v in std_vars)
    return _condition_on_minimum(s, members, cover)


def _member_orbits(cls: EntryClassification) -> list[list[int]]:
    """The members of minimum conditioning (see condition_minimum) by
    index, grouped into orbits, in order of first member.

    The term member is an orbit of its own.  Swapping twin lines (see
    EntryClassification) maps the state to itself, so standard members
    (r, c) and (r', c') lie in one orbit when r, r' are twin rows and c, c'
    twin columns; their children are isomorphic and equally weighted.
    """
    orbits: dict[object, list[int]] = {}
    if cls.minimal is not None:
        orbits["term"] = [0]
    for j, (r, c) in enumerate(cls.non_covered_standard, len(orbits)):
        orbits.setdefault((cls.row_twins[r], cls.col_twins[c]), []).append(j)
    return list(orbits.values())


# ---------------------------------------------------------------------------
# Canonical form for memoization
# ---------------------------------------------------------------------------


def canonical_key(s: ExpRapState):
    """A hashable key equal for states identical up to row/column permutation
    and variable renaming.

    One encoding pass: rows and columns are ordered by content signatures
    that ignore variable identity (the sorted (coefficient, intensity)
    terms of each entry, sorted over the line), with signature ties broken
    by index.  The matrix is then read in that order, renaming variables in
    order of first appearance, and the key holds the encoded cells plus the
    intensity of each renamed variable.  A cell with fewer than two terms
    is already sorted, so only the others sort theirs.

    The key is sound: it describes the state completely up to that row and
    column order and that renaming, so equal keys imply identical value
    distributions.  It is not complete: isomorphic states whose tied lines
    fall in different index orders get distinct keys, which merely costs a
    cache miss.
    """
    intensity = s.intensities
    sig = []
    for row in s.entries:
        row_sig = []
        for e in row:
            terms = e.terms
            if len(terms) == 1:
                ((v, c),) = terms
                row_sig.append(((c, intensity[v]),))
            elif terms:
                row_sig.append(tuple(sorted((c, intensity[v]) for v, c in terms)))
            else:
                row_sig.append(())
        sig.append(row_sig)
    row_order = sorted(range(s.m), key=lambda r: sorted(sig[r]))
    col_order = sorted(range(s.n), key=lambda c: sorted(row[c] for row in sig))

    rename: dict[int, int] = {}
    encoded = []
    for r in row_order:
        row = s.entries[r]
        for c in col_order:
            terms = row[c].terms
            if len(terms) == 1:
                ((v, c_),) = terms
                if v not in rename:
                    rename[v] = len(rename)
                encoded.append(((rename[v], c_),))
            elif terms:
                fresh = sorted((c_, intensity[v], v) for v, c_ in terms if v not in rename)
                for _, _, v in fresh:
                    rename[v] = len(rename)
                encoded.append(tuple(sorted((rename[v], c_) for v, c_ in terms)))
            else:
                encoded.append(())
    inv = sorted(rename, key=rename.get)
    return (s.k, s.m, s.n, tuple(encoded), tuple(intensity[v] for v in inv))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


class _OracleRun:
    def __init__(self, budget: int, cache: dict | None, trace: IO[str] | None):
        self.budget = budget
        self.cache = {} if cache is None else cache
        self.trace = trace
        self.nodes = 0
        self.state_ids: dict = {}

    def emit(self, key, parent: int | None, depth: int, rule: str, step: Conditioning) -> None:
        if self.trace is None:
            return
        line = {
            "node": self.nodes,
            "parent": parent,
            "depth": depth,
            "state": self.state_ids.setdefault(key, len(self.state_ids)),
            "rule": rule,
            "weights": [str(w) for w in step.weights],
            "extracted": str(step.extracted),
        }
        self.trace.write(json.dumps(line) + "\n")


def _evaluate(s: ExpRapState, run: _OracleRun, parent: int | None = None, depth: int = 0) -> Fraction:
    """Expected cost of a reduced, non-terminal state, the root or a kept
    child: (cost + the sum over orbits of I_o * V_o) / T, with I_o the
    orbit's summed member intensity, V_o the value of its one evaluated
    child and T the total intensity."""
    key = canonical_key(s)
    hit = run.cache.get(key)
    if hit is not None:
        return hit
    run.nodes += 1
    if run.nodes > run.budget:
        raise BudgetExceededError(
            f"oracle budget of {run.budget} recursion nodes exhausted", nodes=run.nodes
        )
    node = run.nodes
    cls = s._classification
    parent_measure = induction_measure(s)
    if cls.non_covered_nonstandard and cls.minimal is None:
        assert cls.first_incomparable_pair is not None
        step = condition_pair(s, *cls.first_incomparable_pair)
        orbits = [[0], [1]]
        rule = "pair"
    else:
        step = condition_minimum(s)
        orbits = _member_orbits(cls)
        rule = "minimum"
    run.emit(key, parent, depth, rule, step)
    numerator = Fraction(step.cost)
    for orbit in orbits:
        child = _orbit_child(step, orbit, parent_measure)
        if child is not None:
            intensity = sum(step.intensities[j] for j in orbit)
            numerator += intensity * _evaluate(child, run, node, depth + 1)
    value = numerator / step.total
    run.cache[key] = value
    return value


def _orbit_child(step: Conditioning, orbit: list[int], parent_measure: tuple[int, ...]) -> ExpRapState | None:
    """The reduced child that stands for ``orbit``, or None when it is
    terminal (worth 0), decided from its zero graph before it is built.

    The head of the measure is read from that graph's lattice, and it is
    the same for isomorphic states: only a head that ties the parent's
    needs every member of the orbit built and checked in full.  A
    terminal child is never built; any other is built once, with that
    lattice, and reduced by reduce_state.
    """
    j = orbit[0]
    lattice = mask_cover_lattice(step.zero_masks(j))
    head = _cover_parts(lattice)
    child = None
    if head == parent_measure[:2]:
        # a tie: go on from the member already built, classified by its check
        child = step.build(j, lattice)
        members = [child, *map(step.build, orbit[1:])]
        assert all(_measure_drops(c, parent_measure) for c in members), "termination measure must drop"
    else:
        assert head < parent_measure[:2], "termination measure must drop"
    if lattice.size >= step.k:
        return None
    return reduce_state(child if child is not None else step.build(j, lattice))


def oracle_expected_value(
    p: RapInstance,
    budget: int = DEFAULT_NODE_BUDGET,
    cache: dict | None = None,
    trace: IO[str] | None = None,
) -> Fraction:
    """Exact E(P) for a standard RAP by symbolic conditioning.

    `budget` caps the number of evaluated recursion nodes (cache misses);
    `cache` may be shared across calls to reuse canonical subproblems;
    `trace` receives one JSON line per branching node.
    """
    return oracle_node_count(p, budget, cache, trace)[0]


def oracle_node_count(
    p: RapInstance,
    budget: int = DEFAULT_NODE_BUDGET,
    cache: dict | None = None,
    trace: IO[str] | None = None,
) -> tuple[Fraction, int]:
    """Value plus the number of evaluated nodes, for budget reporting.

    An instance whose zeros hold k independent entries is terminal at the
    root, so it is answered from its pattern's one matching: value 0, no
    node, no trace line and no cache entry, without building the symbolic
    state.  Any other instance's reduced root goes to the evaluator.
    """
    budget = checked_int(budget, "budget", 1)
    if max_independent_zeros(p.pattern) >= p.k:
        return Fraction(0), 0
    run = _OracleRun(budget, cache, trace)
    # past the door check the reduced root is not terminal (see reduce_state)
    value = _evaluate(reduce_state(make_initial_state(p)), run)
    return value, run.nodes
