"""Closed-form expected values and probabilities for standard RAPs.

All probability and expectation formulas return exact fractions; only
the asymptotic triangle integral is floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from scipy.integrate import quad

from .covers import cover_profile, row_excluded_profile
from .model import RapInstance, rational_to_json

METHODS = (
    "parisi",
    "coppersmith-sorkin",
    "cover-formula",
    "row-inclusion",
    "min-entry-usage",
)


@dataclass(frozen=True)
class FormulaReport:
    """A computed value tagged with the formula that produced it."""

    method: str
    k: int
    m: int
    n: int
    value: Fraction | float

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")

    def to_json_obj(self) -> dict:
        payload = (
            rational_to_json(self.value)
            if isinstance(self.value, Fraction)
            else self.value
        )
        return {"method": self.method, "k": self.k, "m": self.m, "n": self.n, "value": payload}


def _check_kmn(k: int, m: int, n: int) -> None:
    for name, x in (("k", k), ("m", m), ("n", n)):
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise ValueError(f"{name} must be a positive integer, got {x!r}")
    if k > min(m, n):
        raise ValueError(f"k={k} exceeds min(m, n)={min(m, n)}")


def parisi_value(k: int) -> Fraction:
    """Exact sum of 1/d^2 for d = 1..k."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return sum((Fraction(1, d * d) for d in range(1, k + 1)), Fraction(0))


def cs_value(k: int, m: int, n: int) -> Fraction:
    """Exact sum of 1/((m-i)(n-j)) over i, j >= 0 with i+j < k."""
    _check_kmn(k, m, n)
    return sum(
        (Fraction(1, (m - i) * (n - j)) for i in range(k) for j in range(k - i)), Fraction(0)
    )


def cover_formula_value(p: RapInstance) -> Fraction:
    """E(P) = (1/mn) * sum of d_{i,j} / (C(m-1,i) * C(n-1,j))."""
    profile = cover_profile(p)
    total = sum(
        (
            Fraction(count, math.comb(p.m - 1, i) * math.comb(p.n - 1, j))
            for i, j, count in profile.coefficients
            if count
        ),
        Fraction(0),
    )
    return total / (p.m * p.n)


def row_inclusion_probability(p: RapInstance, r: int) -> Fraction:
    """Probability that the optimal k-assignment uses row r, for a zero-free row.

    q(P) = (1/m) * sum over i of dbar_{i,0} / C(m-1,i), where dbar_{i,0}
    counts i-row partial (k-1)-covers avoiding row r.  The formula requires
    row r to contain no zeros (usage is then invariant across optima).
    """
    if not 0 <= r < p.m:
        raise IndexError(f"row index {r} out of range for m={p.m}")
    if any(zr == r for zr, _ in p.zeros):
        raise ValueError(f"row {r} contains a zero; the row formula does not apply")
    dbar = row_excluded_profile(p, r)
    total = sum(
        (Fraction(count, math.comb(p.m - 1, i)) for i, count in enumerate(dbar) if count),
        Fraction(0),
    )
    return total / p.m


def min_entry_usage_probability(k: int, m: int, n: int) -> Fraction:
    """Probability that the smallest matrix entry is in the optimal k-assignment."""
    _check_kmn(k, m, n)
    return 1 - Fraction(k * (k - 1), 2 * m * n)


def triangle_integral(alpha: float, beta: float) -> float:
    """Integral of 1/((alpha-x)(beta-y)) over the triangle x,y >= 0, x+y <= 1.

    Reduced to one dimension: the inner y-integral is ln(beta/(beta-1+x)),
    written as -log1p((x-1)/beta) for stability near x = 1, then integrated
    adaptively in x.  Accurate to well below 1e-9 for alpha, beta >= 1; the
    corner singularity at alpha = beta = 1 is integrable.
    """
    alpha = float(alpha)
    beta = float(beta)
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError("alpha and beta must be finite")
    if alpha < 1 or beta < 1:
        raise ValueError(f"alpha and beta must be >= 1, got {alpha}, {beta}")

    def integrand(x: float) -> float:
        return -math.log1p((x - 1.0) / beta) / (alpha - x)

    value, abserr = quad(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=500)
    if abserr > 1e-9:
        raise ArithmeticError(f"quadrature error estimate {abserr} exceeds 1e-9")
    return value
