"""Independent exact evaluator of E(P) by symbolic conditioning.

States carry an m x n matrix whose entries are linear combinations of
independent exponential variables with nonnegative rational
coefficients.  Three exact rewrites drive the evaluation:

* reduce: delete any line contained in every (k-1)-cover of the zeros
  (decrementing k), and stop a branch once k independent zeros exist.
  The deletion identity holds pointwise for every nonnegative matrix
  with that zero pattern, so it is valid for arbitrary entry
  distributions.
* pair conditioning: when no minimal non-covered nonstandard entry
  exists, pick the first two incomparable potentially minimal ones and
  condition on which of the two scaled disagreement variables is
  smaller, rewriting both through fresh variables Y, Z.
* minimum conditioning: when a minimal non-covered nonstandard entry
  exists (or none at all), condition on the minimum of one of its terms
  together with all non-covered standard entries; the minimum Y is
  subtracted from every non-covered entry and added to every doubly
  covered one, extracting expected cost (k - |cover|) * E[Y].

Arithmetic is exact.  Coefficients and intensities are stored as ints
when integral and as Fractions otherwise; on every standard instance
tried (all 2x2 and 3x3 patterns, every 4x4 class, sampled 5x5 patterns)
they are all ints, so the canonical key sorts and compares ints.  Every
division goes through Fraction, so branch weights, extracted costs and
the final value are exact Fractions.  Each state finds both ends of its
minimum-cover lattice once, from one maximum matching; the terminal
test, the reduction and the classification all read that one result.
Each state also classifies its entries once, on first use, and the
termination measure and the conditioning rules read that classification.

A lexicographic 5-part measure (zeros, cover rows, potentially minimal
count, disagreement variables, variable count of the minimal entry)
strictly decreases at every branching step, which is asserted at
runtime.

The evaluator never touches the cover-coefficient formula; it shares
only the Koenig machinery with the rest of the package, which is what
makes it an independent oracle for that formula.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import IO, Iterable, Mapping

from .covers import CoverLattice, LineCover, cover_lattice, forced_cover_lines
from .model import BudgetExceededError, Position, RapInstance, ZeroPattern

DEFAULT_NODE_BUDGET = 10**6

Rational = int | Fraction  # an int when integral (see _exact)


def _exact(x) -> Rational:
    """``x`` as an exact rational: an int when it is integral, else a Fraction."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


@dataclass(frozen=True)
class ExpVariable:
    """An exponential variable: opaque integer id and positive intensity."""

    id: int
    intensity: Rational

    def __post_init__(self) -> None:
        object.__setattr__(self, "intensity", _exact(self.intensity))
        if self.intensity <= 0:
            raise ValueError(f"intensity must be positive, got {self.intensity}")


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

    @classmethod
    def of(cls, mapping: Mapping[int, Rational]) -> "LinearEntry":
        return cls(tuple((v, c) for v, c in mapping.items() if c))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, vid: int) -> Rational:
        for v, c in self.terms:
            if v == vid:
                return c
        return 0

    def variables(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.terms)

    def le(self, other: "LinearEntry") -> bool:
        """Componentwise comparison: every coefficient at most the other's."""
        theirs = dict(other.terms)
        return all(c <= theirs.get(v, 0) for v, c in self.terms)

    def incomparable(self, other: "LinearEntry") -> bool:
        return not self.le(other) and not other.le(self)


@dataclass(frozen=True)
class ExpRapState:
    """A RAP over exponential linear-combination entries.

    `accumulated` is expected cost already extracted on the path from
    the root; the state's total value is accumulated plus the expected
    optimal k-assignment cost of the symbolic matrix.
    """

    k: int
    entries: tuple[tuple[LinearEntry, ...], ...]
    variables: tuple[ExpVariable, ...]
    accumulated: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "accumulated", Fraction(self.accumulated))
        if self.accumulated < 0:
            raise ValueError("accumulated cost must be nonnegative")
        ids = {v.id for v in self.variables}
        if len(ids) != len(self.variables):
            raise ValueError("duplicate variable id in table")
        for row in self.entries:
            for entry in row:
                for v, _ in entry.terms:
                    if v not in ids:
                        raise ValueError(f"entry references unknown variable {v}")

    @property
    def m(self) -> int:
        return len(self.entries)

    @property
    def n(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    # per-state data computed on first use; the state is immutable, so it never goes stale
    @cached_property
    def _intensities(self) -> dict[int, Rational]:
        return {v.id: v.intensity for v in self.variables}

    @cached_property
    def _zeros(self) -> ZeroPattern:
        zeros = tuple(
            (r, c)
            for r, row in enumerate(self.entries)
            for c, e in enumerate(row)
            if e.is_zero
        )
        return ZeroPattern(self.m, self.n, zeros)

    @cached_property
    def _covers(self) -> CoverLattice:
        return cover_lattice(self._zeros)

    @cached_property
    def _classification(self) -> EntryClassification:
        return classify_entries(self)

    def intensity(self, vid: int) -> Rational:
        return self._intensities[vid]

    def zero_pattern(self) -> ZeroPattern:
        return self._zeros


@dataclass(frozen=True)
class EntryClassification:
    """The entries outside the cover, split by kind, plus the bookkeeping the
    conditioning rules need.

    An entry is standard when it is one coefficient-1 term of a
    unit-intensity variable that occurs nowhere else, and nonstandard
    otherwise.  Both position tuples are in row-major order.
    """

    cover: LineCover  # row-maximal optimal cover of the zeros
    non_covered_standard: tuple[Position, ...]
    non_covered_nonstandard: tuple[Position, ...]
    potentially_minimal: tuple[Position, ...]
    minimal: Position | None
    first_incomparable_pair: tuple[Position, Position] | None


def make_initial_state(p: RapInstance) -> ExpRapState:
    """The standard RAP as a symbolic state: one unit variable per nonzero."""
    zeros = set(p.zeros)
    variables = []
    rows = []
    vid = 0
    for r in range(p.m):
        row = []
        for c in range(p.n):
            if (r, c) in zeros:
                row.append(LinearEntry())
            else:
                variables.append(ExpVariable(vid, 1))
                row.append(LinearEntry(((vid, 1),)))
                vid += 1
        rows.append(tuple(row))
    return ExpRapState(p.k, tuple(rows), tuple(variables))


def _collect(entries: Iterable[Iterable[LinearEntry]]) -> set[int]:
    return {v for row in entries for e in row for v, _ in e.terms}


def _gc(
    entries: tuple[tuple[LinearEntry, ...], ...], variables: tuple[ExpVariable, ...]
) -> tuple[ExpVariable, ...]:
    used = _collect(entries)
    return tuple(v for v in variables if v.id in used)


def is_terminal(s: ExpRapState) -> bool:
    """True when k independent zeros exist; the branch value is `accumulated`."""
    return s._covers.size >= s.k


def reduce_state(s: ExpRapState) -> ExpRapState:
    """Delete lines contained in every (k-1)-cover until a fixed point.

    Each pass deletes every such line at once and lowers k by their
    number: a line in every (k-1)-cover stays in every (k-2)-cover once
    another such line is deleted, so deleting them one at a time would
    reach the same state.  Stops when the state is terminal.  Deleting
    such a line and decrementing k leaves the optimal cost of every
    realization unchanged, so the expected value is preserved exactly.
    """
    while True:
        lattice = s._covers
        if lattice.size >= s.k:
            return s
        # when k-1 is the minimum cover size, the forced lines are the lines
        # common to all minimum covers; above it they are some of those lines
        rows, cols = lattice.common_lines
        if (rows or cols) and lattice.size < s.k - 1:
            rows, cols = forced_cover_lines(s.zero_pattern(), s.k - 1)
        if not rows and not cols:
            return s
        entries = tuple(
            tuple(e for c, e in enumerate(row) if c not in cols)
            for r, row in enumerate(s.entries)
            if r not in rows
        )
        k = s.k - len(rows) - len(cols)
        s = ExpRapState(k, entries, _gc(entries, s.variables), s.accumulated)


def classify_entries(s: ExpRapState) -> EntryClassification:
    """Split the entries outside the row-maximal cover into standard and
    nonstandard ones, and locate the structures driving the case split.

    Only those entries are read: no zero lies outside a cover, and the
    conditioning rules never look at a covered entry's kind.
    """
    occurrences: dict[int, int] = {}
    for row in s.entries:
        for e in row:
            for v, _ in e.terms:
                occurrences[v] = occurrences.get(v, 0) + 1

    cover = s._covers.row_max
    outside = [
        (r, c) for r in range(s.m) if r not in cover.rows for c in range(s.n) if c not in cover.cols
    ]

    def is_standard(p: Position) -> bool:
        e = s.entries[p[0]][p[1]]
        return (
            len(e.terms) == 1
            and e.terms[0][1] == 1
            and occurrences[e.terms[0][0]] == 1
            and s.intensity(e.terms[0][0]) == 1
        )

    flags = [is_standard(p) for p in outside]
    standard = tuple(p for p, std in zip(outside, flags) if std)
    ncn = tuple(p for p, std in zip(outside, flags) if not std)

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
    return EntryClassification(cover, standard, ncn, pm, minimal, pair)


def induction_measure(s: ExpRapState) -> tuple[int, int, int, int, int]:
    """The 5-part lexicographic termination measure, smaller is simpler."""
    cls = s._classification
    disagreements = 0
    if cls.first_incomparable_pair is not None:
        (r1, c1), (r2, c2) = cls.first_incomparable_pair
        e1, e2 = s.entries[r1][c1], s.entries[r2][c2]
        allv = set(e1.variables()) | set(e2.variables())
        disagreements = sum(1 for v in allv if e1.coeff(v) != e2.coeff(v))
    minimal_vars = 0
    if cls.minimal is not None:
        minimal_vars = len(s.entries[cls.minimal[0]][cls.minimal[1]].terms)
    return (
        -len(cls.cover),  # the cover is a minimum one, so its size is the matching number
        len(cls.cover.rows),
        len(cls.potentially_minimal),
        disagreements,
        minimal_vars,
    )


def _fresh_ids(s: ExpRapState, count: int) -> list[int]:
    start = max((v.id for v in s.variables), default=-1) + 1
    return list(range(start, start + count))


def _substitute(
    entries: tuple[tuple[LinearEntry, ...], ...],
    rules: Mapping[int, tuple[tuple[int, Rational], ...]],
    y_id: int | None = None,
    shift: Mapping[Position, int] | None = None,
) -> tuple[tuple[LinearEntry, ...], ...]:
    """Replace each variable in `rules` by a nonnegative combination, then
    add `shift[(r, c)]` times variable `y_id` to entry (r, c)."""
    shift = shift or {}

    def rewrite(e: LinearEntry, delta: int) -> LinearEntry:
        if not delta and not any(v in rules for v, _ in e.terms):
            return e
        acc: dict[int, Rational] = {}
        for v, c in e.terms:
            if v in rules:
                for w, d in rules[v]:
                    acc[w] = acc.get(w, 0) + c * d
            else:
                acc[v] = acc.get(v, 0) + c
        if delta:
            acc[y_id] = acc.get(y_id, 0) + delta
            assert acc[y_id] >= 0, "every non-covered entry must contain the minimum"
        return LinearEntry.of(acc)

    return tuple(
        tuple(rewrite(e, shift.get((r, c), 0)) for c, e in enumerate(row))
        for r, row in enumerate(entries)
    )


def condition_pair(
    s: ExpRapState, u1: Position, u2: Position
) -> tuple[tuple[Fraction, ExpRapState], tuple[Fraction, ExpRapState]]:
    """Split on which scaled disagreement variable of two entries is smaller.

    With e1 = a1*Xi + b1*Xj + ... and e2 = a2*Xi + b2*Xj + ... where
    a1 > a2 and b2 > b1, the events are (a1-a2)Xi < (b2-b1)Xj and its
    complement; in each child both variables are rewritten through the
    minimum Y and the residual Z, after which e1 and e2 share their
    Y-coefficient.  No cost is extracted.  Weights sum to 1.
    """
    e1 = s.entries[u1[0]][u1[1]]
    e2 = s.entries[u2[0]][u2[1]]
    if not e1.incomparable(e2):
        raise ValueError("entries must be incomparable to pair-condition")
    i = min(v for v in set(e1.variables()) | set(e2.variables()) if e1.coeff(v) > e2.coeff(v))
    j = min(v for v in set(e1.variables()) | set(e2.variables()) if e2.coeff(v) > e1.coeff(v))
    a = e1.coeff(i) - e2.coeff(i)  # scale of Xi's excess in e1
    b = e2.coeff(j) - e1.coeff(j)  # scale of Xj's excess in e2
    ia = Fraction(s.intensity(i)) / a  # intensity of a*Xi
    ib = Fraction(s.intensity(j)) / b  # intensity of b*Xj
    total = ia + ib
    y_id, z_id = _fresh_ids(s, 2)

    def child(first_is_i: bool) -> tuple[Fraction, ExpRapState]:
        # minimum Y of the two scaled variables, residual Z on the loser
        weight = (ia if first_is_i else ib) / total
        z_intensity = ib if first_is_i else ia
        inv_a, inv_b = Fraction(1) / a, Fraction(1) / b
        if first_is_i:
            rules = {i: ((y_id, inv_a),), j: ((y_id, inv_b), (z_id, inv_b))}
        else:
            rules = {j: ((y_id, inv_b),), i: ((y_id, inv_a), (z_id, inv_a))}
        entries = _substitute(s.entries, rules)
        variables = tuple(v for v in s.variables if v.id not in (i, j)) + (
            ExpVariable(y_id, total),
            ExpVariable(z_id, z_intensity),
        )
        return weight, ExpRapState(s.k, entries, _gc(entries, variables), s.accumulated)

    first, second = child(True), child(False)
    assert first[0] + second[0] == 1 and first[0] > 0 and second[0] > 0
    return first, second


def condition_minimum(s: ExpRapState) -> tuple[Fraction, list[tuple[Fraction, ExpRapState]]]:
    """Condition on the minimum of the candidate set S; extract expected cost.

    S holds one term a*Xi of the minimal non-covered nonstandard entry
    (when such an entry exists) and every non-covered standard entry.
    The minimum Y of S has intensity I = sum of member intensities, and
    by the cover recursion the expected cost (k - |cover|)/I is
    extracted.  Each child conditions on a member being the minimum,
    replaces the conditioned variables through Y and fresh residuals,
    subtracts Y from all non-covered entries, and adds Y to all doubly
    covered ones.  Weights sum to 1.
    """
    cls = s._classification
    cover = cls.cover
    size = len(cover)
    assert size < s.k, "caller must reduce the state first"
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
    member_intensities = [s.intensity(v) * scale for v, scale in members]
    total = sum(member_intensities)
    extracted = Fraction(s.k - size) / total

    # the minimum Y leaves every non-covered entry and joins every doubly covered one
    shift = {
        (r, c): -1
        for r in range(s.m)
        if r not in cover.rows
        for c in range(s.n)
        if c not in cover.cols
    } | {(r, c): 1 for r in cover.rows for c in cover.cols}

    # every member becomes Y + its residual Z_j (the term member (Y + Z_j)/a);
    # the child in which member j is the minimum is this template with Z_j = 0
    fresh = _fresh_ids(s, 1 + len(members))
    y_id, z_ids = fresh[0], fresh[1:]
    rules = {v: ((y_id, scale), (z_id, scale)) for (v, scale), z_id in zip(members, z_ids)}
    template = _substitute(s.entries, rules, y_id, shift)
    template_vars = _gc(
        template,
        tuple(v for v in s.variables if v.id not in rules)
        + (ExpVariable(y_id, total),)
        + tuple(ExpVariable(z_id, i) for z_id, i in zip(z_ids, member_intensities)),
    )
    holding: dict[int, list[Position]] = {z_id: [] for z_id in z_ids}
    for r, row in enumerate(template):
        for c, e in enumerate(row):
            for v, _ in e.terms:
                if v in holding:
                    holding[v].append((r, c))

    children: list[tuple[Fraction, ExpRapState]] = []
    for z_id, intensity in zip(z_ids, member_intensities):
        rows = [list(row) for row in template]
        for r, c in holding[z_id]:
            rows[r][c] = LinearEntry(tuple(t for t in rows[r][c].terms if t[0] != z_id))
        entries = tuple(tuple(row) for row in rows)
        variables = tuple(v for v in template_vars if v.id != z_id)
        weight = Fraction(intensity) / total
        children.append((weight, ExpRapState(s.k, entries, variables, s.accumulated + extracted)))
    assert sum(w for w, _ in children) == 1 and all(w > 0 for w, _ in children)
    return extracted, children


# ---------------------------------------------------------------------------
# Canonical form for memoization
# ---------------------------------------------------------------------------


def canonical_key(s: ExpRapState):
    """A hashable key equal for states identical up to row/column permutation
    and variable renaming; accumulated cost is excluded.

    One encoding pass: rows and columns are ordered by content signatures
    that ignore variable identity (the sorted (coefficient, intensity)
    terms of each entry, sorted over the line), with signature ties broken
    by index.  The matrix is then read in that order, renaming variables in
    order of first appearance, and the key holds the encoded cells plus the
    intensity of each renamed variable.

    The key is sound: it describes the state completely up to that row and
    column order and that renaming, so equal keys imply identical value
    distributions.  It is not complete: isomorphic states whose tied lines
    fall in different index orders get distinct keys, which merely costs a
    cache miss.
    """
    intensity = s._intensities
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

    def emit(
        self,
        key,
        parent: int | None,
        depth: int,
        rule: str,
        weights: list[Fraction],
        extracted: Fraction,
    ) -> None:
        if self.trace is None:
            return
        line = {
            "node": self.nodes,
            "parent": parent,
            "depth": depth,
            "state": self.state_ids.setdefault(key, len(self.state_ids)),
            "rule": rule,
            "weights": [str(w) for w in weights],
            "extracted": str(extracted),
        }
        self.trace.write(json.dumps(line) + "\n")


def _evaluate(
    s: ExpRapState, run: _OracleRun, parent: int | None = None, depth: int = 0
) -> Fraction:
    """Expected remaining cost of the state (ignores accumulated)."""
    s = reduce_state(s)
    if is_terminal(s):
        return Fraction(0)
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
        branches = list(condition_pair(s, *cls.first_incomparable_pair))
        extracted = Fraction(0)
        rule = "pair"
    else:
        extracted, branches = condition_minimum(s)
        rule = "minimum"
    run.emit(key, parent, depth, rule, [w for w, _ in branches], extracted)
    value = extracted
    for weight, child in branches:
        assert induction_measure(child) < parent_measure, "termination measure must drop"
        value += weight * _evaluate(child, run, node, depth + 1)
    run.cache[key] = value
    return value


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
    """Value plus the number of evaluated nodes, for budget reporting."""
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
        raise ValueError(f"budget must be a positive integer, got {budget!r}")
    run = _OracleRun(budget, cache, trace)
    value = _evaluate(make_initial_state(p), run)
    return value, run.nodes
