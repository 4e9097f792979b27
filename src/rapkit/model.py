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
import math
import operator
import re
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
    """A resource budget (oracle recursion nodes, cover-profile state bits) was exhausted."""

    def __init__(self, message: str, nodes: int | None = None):
        super().__init__(message)
        self.nodes = nodes


def checked_int(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int in [low, high]: the package's one integer-argument rule.

    An int or an integer type such as ``numpy.int64`` is accepted; a bool,
    float or string is refused, never truncated.  Every failure raises
    :class:`InvalidInstanceError` (a ValueError) naming the argument.
    """
    if type(value) is not bool:
        try:
            x = operator.index(value)
        except TypeError:
            pass
        else:
            if (low is None or x >= low) and (high is None or x <= high):
                return x
    what = "an integer"
    if low == 1 and high is None:
        what = "a positive integer"
    elif high is not None:
        what += f" in [{low}, {high}]"
    elif low is not None:
        what += f" >= {low}"
    raise InvalidInstanceError(f"{name} must be {what}, got {value!r}")


def is_finite(x) -> bool:
    """False for a NaN or an infinity of any number type, numpy scalars included.

    The package's one finiteness rule for entries.  A chained comparison,
    unlike :func:`math.isfinite`, never converts to float, so an int or
    Fraction of any size is finite.
    """
    return -math.inf < x < math.inf


def checked_position(pos) -> Position:
    """``pos`` as a pair of ints, each coordinate checked by :func:`checked_int`."""
    try:
        r, c = pos
    except (TypeError, ValueError):
        raise InvalidInstanceError(f"position {pos!r} must be a pair of integers") from None
    return checked_int(r, "position coordinate"), checked_int(c, "position coordinate")


def checked_row(p: RapInstance, r: int) -> int:
    """Row ``r`` of ``p`` by :func:`checked_int`; IndexError when out of range."""
    r = checked_int(r, "row")
    if not 0 <= r < p.m:
        raise IndexError(f"row index {r} out of range for m={p.m}")
    return r


def checked_zero_free_row(p: RapInstance, r: int) -> int:
    """Row ``r`` of ``p`` by :func:`checked_row`; ValueError when it holds a zero.

    Whether the optimal assignment uses a row holding a zero can vary
    across optima, so neither the row formula nor its estimate applies.
    """
    r = checked_row(p, r)
    if any(zr == r for zr, _ in p.zeros):
        raise ValueError(f"row {r} contains a zero; its usage varies across optima")
    return r


def _canonical_positions(positions: Iterable[Position]) -> tuple[Position, ...]:
    """The positions as sorted pairs of ints; a fast path of :func:`checked_position`."""
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
        out.append(checked_position(pos))
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
        object.__setattr__(self, "m", checked_int(self.m, "m", 1))
        object.__setattr__(self, "n", checked_int(self.n, "n", 1))
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

    def __getstate__(self) -> dict:
        # The fields only: the zero graph covers keeps in __dict__ is
        # derived from them, so pickles and copies leave it out.
        return {"m": self.m, "n": self.n, "zeros": self.zeros}


@dataclass(frozen=True)
class RapInstance:
    """A zero pattern plus the assignment size k; the object all formulas take."""

    pattern: ZeroPattern
    k: int

    def __post_init__(self) -> None:
        k = checked_int(self.k, "k", 1, min(self.pattern.m, self.pattern.n))
        object.__setattr__(self, "k", k)

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
                elif not 0.0 < v < math.inf:  # positive and finite; NaN fails too
                    if not is_finite(v):
                        raise InvalidInstanceError(f"entry at ({r},{c}) must be finite, got {v!r}")
                    raise InvalidInstanceError(f"entry at ({r},{c}) must be strictly positive")

    def __getitem__(self, pos: Position) -> float:
        return self.entries[pos[0]][pos[1]]


# ---------------------------------------------------------------------------
# Instance transformations
# ---------------------------------------------------------------------------


def insert_zero(p: RapInstance, pos: Position) -> RapInstance:
    """Enlarge the zero set by ``pos``; everything else unchanged."""
    r, c = checked_position(pos)
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
    zeros = doc.get("zeros", [])
    if not isinstance(zeros, list):
        raise InvalidInstanceError("key 'zeros' must be a list of [row, col] pairs")
    return instance(doc["m"], doc["n"], doc["k"], zeros)  # instance() applies the integer and pair rules


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


def rational_approx(value: Fraction) -> str:
    """Decimal string of ``value`` with APPROX_DIGITS significant digits."""
    with localcontext() as ctx:
        ctx.prec = APPROX_DIGITS
        return str(Decimal(value.numerator) / Decimal(value.denominator))


# CPython refuses str(int) and int(str) past sys.get_int_max_str_digits()
# digits (4300 by default, never set below 640).  Values here can be longer,
# so a long one is split at a power of ten into halves that each convert
# alone; no process-wide setting is touched.
_PLAIN_DIGITS = 600


def _int_to_decimal(n: int) -> str:
    """``str(n)``, whatever the number of digits."""
    if n < 0:
        return "-" + _int_to_decimal(-n)
    if n.bit_length() < 3 * _PLAIN_DIGITS:  # 2^1800 < 10^542: fewer digits than _PLAIN_DIGITS
        return str(n)
    half = n.bit_length() * 3 // 20  # about half the digits: log10(2) > 0.3
    high, low = divmod(n, 10**half)
    return _int_to_decimal(high) + _int_to_decimal(low).zfill(half)


def _decimal_to_int(digits: str) -> int:
    """``int(digits)`` of ASCII decimal digits with an optional leading
    minus, whatever their number."""
    if digits.startswith("-"):
        return -_decimal_to_int(digits[1:])
    if len(digits) <= _PLAIN_DIGITS:
        return int(digits)
    half = len(digits) // 2
    return _decimal_to_int(digits[:-half]) * 10**half + _decimal_to_int(digits[-half:])


def rational_to_json(value: Fraction) -> dict[str, str]:
    return {
        "num": _int_to_decimal(value.numerator),
        "den": _int_to_decimal(value.denominator),
        "approx": rational_approx(value),
    }


# the shipped schema's patterns for num and den (its $defs.rational)
_NUM = re.compile("^-?[0-9]+$")
_DEN = re.compile("^[0-9]+$")


def rational_from_json(doc: dict) -> Fraction:
    """The Fraction of a wire object.

    num and den must each match the schema's pattern in full, so they are
    ASCII digits with at most a leading minus on num; den must be nonzero.
    """
    try:
        num, den = doc["num"], doc["den"]
        if isinstance(num, str) and isinstance(den, str) and _NUM.fullmatch(num) and _DEN.fullmatch(den):
            return Fraction(_decimal_to_int(num), _decimal_to_int(den))
    except (KeyError, TypeError, ZeroDivisionError):
        pass
    raise InvalidInstanceError(f"malformed rational object: {doc!r}")
