"""Core domain types for random assignment problems with zero patterns.

A problem instance is an m-by-n matrix shape together with a set Z of
positions that are forced to zero and an assignment size k.  All other
entries are understood to be independent exponential(1) random variables
when the instance is sampled or evaluated exactly.

Positions are 0-indexed (row, col) pairs everywhere: in the file format,
on the CLI, and internally.  All types are immutable values; operations
on them are pure functions.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable

Position = tuple[int, int]


class RapError(Exception):
    """Base class for errors raised by this package."""


class InvalidInstanceError(RapError, ValueError):
    """An instance document or constructor argument violates the model."""


class BudgetExceededError(RapError):
    """A resource budget (recursion nodes, enumeration size) was exhausted."""

    def __init__(self, message: str, nodes: int | None = None):
        super().__init__(message)
        self.nodes = nodes


def _integer(value, name: str) -> int:
    """``value`` as an int; a float, bool or string is rejected, not truncated."""
    if type(value) is not bool:
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidInstanceError(f"{name} must be an integer, got {value!r}")


def _canonical_positions(positions: Iterable[Position]) -> tuple[Position, ...]:
    """The positions as sorted pairs of ints, each checked like :func:`_integer`."""
    index = operator.index
    out = []
    for pos in positions:
        try:
            r, c = pos
            if type(r) is not bool and type(c) is not bool:
                out.append((index(r), index(c)))
                continue
        except (TypeError, ValueError):  # not a pair, or not integers
            pass
        raise InvalidInstanceError(f"position {pos!r} must be a pair of integers")
    return tuple(sorted(out))


@dataclass(frozen=True)
class ZeroPattern:
    """An m-by-n grid with a set of forced-zero positions.

    ``zeros`` is stored as a lexicographically sorted tuple so that equal
    patterns hash equally and iterate deterministically.
    """

    m: int
    n: int
    zeros: tuple[Position, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _integer(self.m, "m"))
        object.__setattr__(self, "n", _integer(self.n, "n"))
        if self.m < 1 or self.n < 1:
            raise InvalidInstanceError(f"dimensions must be positive, got {self.m}x{self.n}")
        canon = _canonical_positions(self.zeros)
        if len(set(canon)) != len(canon):
            raise InvalidInstanceError("duplicate zero positions")
        for r, c in canon:
            if not (0 <= r < self.m and 0 <= c < self.n):
                raise InvalidInstanceError(f"zero position ({r},{c}) outside {self.m}x{self.n} grid")
        object.__setattr__(self, "zeros", canon)

    @property
    def zero_set(self) -> frozenset[Position]:
        return frozenset(self.zeros)


@dataclass(frozen=True)
class RapInstance:
    """A zero pattern plus the assignment size k; the object all formulas take."""

    pattern: ZeroPattern
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _integer(self.k, "k"))
        if not (1 <= self.k <= min(self.pattern.m, self.pattern.n)):
            raise InvalidInstanceError(
                f"k={self.k} must satisfy 1 <= k <= min(m,n)={min(self.pattern.m, self.pattern.n)}"
            )

    @property
    def m(self) -> int:
        return self.pattern.m

    @property
    def n(self) -> int:
        return self.pattern.n

    @property
    def zeros(self) -> tuple[Position, ...]:
        return self.pattern.zeros


def instance(m: int, n: int, k: int, zeros: Iterable[Position] = ()) -> RapInstance:
    """Shorthand constructor used throughout the package and the tests."""
    return RapInstance(ZeroPattern(m, n, tuple(zeros)), k)


@dataclass(frozen=True)
class Assignment:
    """A set of matrix positions, no two sharing a row or a column."""

    positions: tuple[Position, ...]

    def __post_init__(self) -> None:
        canon = _canonical_positions(self.positions)
        rows = [r for r, _ in canon]
        cols = [c for _, c in canon]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise InvalidInstanceError("assignment positions must be independent")
        object.__setattr__(self, "positions", canon)

    def __len__(self) -> int:
        return len(self.positions)

    def __contains__(self, pos: Position) -> bool:
        return pos in set(self.positions)

    @property
    def position_set(self) -> frozenset[Position]:
        return frozenset(self.positions)


@dataclass(frozen=True)
class SampledMatrix:
    """A realization of an instance: zeros at Z, positive reals elsewhere."""

    m: int
    n: int
    entries: tuple[tuple[float, ...], ...]
    source: ZeroPattern

    def __post_init__(self) -> None:
        if len(self.entries) != self.m or any(len(row) != self.n for row in self.entries):
            raise InvalidInstanceError("entry grid does not match declared dimensions")
        zset = self.source.zero_set
        for r in range(self.m):
            for c in range(self.n):
                v = self.entries[r][c]
                if (r, c) in zset:
                    if v != 0.0:
                        raise InvalidInstanceError(f"entry at zero position ({r},{c}) is {v}")
                elif not v > 0.0:
                    raise InvalidInstanceError(f"entry at ({r},{c}) must be strictly positive")

    def __getitem__(self, pos: Position) -> float:
        return self.entries[pos[0]][pos[1]]


# ---------------------------------------------------------------------------
# Instance transformations
# ---------------------------------------------------------------------------


def insert_zero(p: RapInstance, pos: Position) -> RapInstance:
    """Enlarge the zero set by ``pos``; everything else unchanged."""
    r, c = pos
    if not (0 <= r < p.m and 0 <= c < p.n):
        raise InvalidInstanceError(f"position ({r},{c}) outside {p.m}x{p.n} grid")
    if (r, c) in p.pattern.zero_set:
        raise InvalidInstanceError(f"position ({r},{c}) is already a zero")
    return instance(p.m, p.n, p.k, p.zeros + ((r, c),))


# ---------------------------------------------------------------------------
# Instance document format
# ---------------------------------------------------------------------------
#
# Canonical document: UTF-8 JSON object
#   {"m": int, "n": int, "k": int, "zeros": [[r, c], ...]}
# with 0-indexed positions, zeros sorted lexicographically on output.


def parse_instance(text: str) -> RapInstance:
    """Parse and validate an instance document; round-trips with serialize_instance."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInstanceError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidInstanceError("instance document must be a JSON object")
    unknown = doc.keys() - {"m", "n", "k", "zeros"}
    if unknown:
        raise InvalidInstanceError(f"unknown keys: {sorted(unknown)}")
    missing = {"m", "n", "k"} - doc.keys()
    if missing:
        raise InvalidInstanceError(f"missing required keys: {sorted(missing)}")
    for key in ("m", "n", "k"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool):
            raise InvalidInstanceError(f"key {key!r} must be an integer")
    raw_zeros = doc.get("zeros", [])
    if not isinstance(raw_zeros, list):
        raise InvalidInstanceError("key 'zeros' must be a list of [row, col] pairs")
    zeros: list[Position] = []
    for item in raw_zeros:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)
        ):
            raise InvalidInstanceError(f"malformed zero position {item!r}")
        zeros.append((item[0], item[1]))
    return instance(doc["m"], doc["n"], doc["k"], zeros)


def serialize_instance(p: RapInstance) -> str:
    """Emit the canonical JSON document for an instance."""
    doc = {"m": p.m, "n": p.n, "k": p.k, "zeros": [list(z) for z in p.zeros]}
    return json.dumps(doc)


def load_instance(path: str) -> RapInstance:
    with open(path, encoding="utf-8") as fh:
        return parse_instance(fh.read())


# ---------------------------------------------------------------------------
# Rational values on the wire
# ---------------------------------------------------------------------------
#
# Exact values are plain fractions.Fraction objects (arbitrary-precision,
# always reduced, positive denominator).  The wire format is
#   {"num": string, "den": string, "approx": decimal-string}
# with the approximation carrying 12 significant digits.

APPROX_DIGITS = 12


def rational_approx(value: Fraction, digits: int = APPROX_DIGITS) -> str:
    """Decimal string of ``value`` with the given number of significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def rational_to_json(value: Fraction) -> dict[str, str]:
    return {
        "num": str(value.numerator),
        "den": str(value.denominator),
        "approx": rational_approx(value),
    }


def rational_from_json(doc: dict) -> Fraction:
    try:
        return Fraction(int(doc["num"]), int(doc["den"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInstanceError(f"malformed rational object: {doc!r}") from exc
