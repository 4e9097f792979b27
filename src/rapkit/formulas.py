"""Closed-form expected values and probabilities for standard RAPs.

All probability and expectation formulas return exact fractions; only
the asymptotic triangle integral is floating point.  The cover and row
formulas sum exact integer numerators over one common denominator, the
falling factorials (m)_k = m(m-1)...(m-k+1) and (n)_k, and build one
Fraction per call, so their cost follows k, not m and n.  An instance
whose zeros hold k independent entries has no cover coefficient, and its
cover formula value is 0 from the pattern's one kept matching (see
covers.cover_coefficients).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .covers import cover_coefficients, row_excluded_profile
from .model import RapInstance, checked_int, checked_zero_free_row, instance


def parisi_value(k: int) -> Fraction:
    """Exact sum of 1/d^2 for d = 1..k."""
    k = checked_int(k, "k", 1)
    return sum((Fraction(1, d * d) for d in range(1, k + 1)), Fraction(0))


def cs_value(k: int, m: int, n: int) -> Fraction:
    """Exact sum of 1/((m-i)(n-j)) over i, j >= 0 with i+j < k."""
    p = instance(m, n, k)
    k, m, n = p.k, p.m, p.n
    return sum(
        (Fraction(1, (m - i) * (n - j)) for i in range(k) for j in range(k - i)), Fraction(0)
    )


def _weights(size: int, k: int) -> list[int]:
    """i! * (size-1-i)_(k-1-i) for each i < k: 1/(size * C(size-1, i)) times
    the falling factorial (size)_k = size(size-1)...(size-k+1)."""
    return [math.factorial(i) * math.perm(size - 1 - i, k - 1 - i) for i in range(k)]


def cover_formula_value(p: RapInstance) -> Fraction:
    """E(P) = (1/mn) * sum of d_{i,j} / (C(m-1,i) * C(n-1,j)).

    Each weight 1/(m * C(m-1,i)) is i! * (m-1-i)_(k-1-i) over (m)_k, with
    (m)_k = m(m-1)...(m-k+1), and likewise for n and j, so the sum is one
    integer numerator over (m)_k * (n)_k, taken over the nonzero
    coefficients only.  With none (k independent zeros) the value is 0.
    """
    coefficients = cover_coefficients(p)
    if not coefficients:
        return Fraction(0)
    row_weights, col_weights = _weights(p.m, p.k), _weights(p.n, p.k)
    numerator = sum(count * row_weights[i] * col_weights[j] for (i, j), count in coefficients.items())
    return Fraction(numerator, math.perm(p.m, p.k) * math.perm(p.n, p.k))


def row_inclusion_probability(p: RapInstance, r: int) -> Fraction:
    """Probability that the optimal k-assignment uses row r, for a zero-free row.

    q(P) = (1/m) * sum over i of dbar_{i,0} / C(m-1,i), where dbar_{i,0}
    counts i-row partial (k-1)-covers avoiding row r.  The formula requires
    row r to contain no zeros (usage is then invariant across optima).
    Each weight 1/(m * C(m-1,i)) is i! * (m-1-i)_(k-1-i) / (m)_k, so the
    sum is one integer numerator over (m)_k.
    """
    r = checked_zero_free_row(p, r)
    numerator = sum(map(operator.mul, row_excluded_profile(p, r), _weights(p.m, p.k)))
    return Fraction(numerator, math.perm(p.m, p.k))


def min_entry_usage_probability(k: int, m: int, n: int) -> Fraction:
    """Probability that the smallest matrix entry is in the optimal k-assignment."""
    p = instance(m, n, k)
    return 1 - Fraction(p.k * (p.k - 1), 2 * p.m * p.n)


def triangle_integral(alpha: float, beta: float) -> float:
    """Integral of 1/((alpha-x)(beta-y)) over the triangle x,y >= 0, x+y <= 1.

    Reduced to one dimension: the inner y-integral is ln(beta/(beta-1+x)),
    written as -log1p((x-1)/beta) for stability near x = 1, then integrated
    adaptively in x.  Accurate to well below 1e-9 for alpha, beta >= 1; the
    corner singularity at alpha = beta = 1 is integrable.  scipy's `quad`
    is imported here, when the integral is called, so the exact formulas
    load without scipy.
    """
    alpha = float(alpha)
    beta = float(beta)
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError("alpha and beta must be finite")
    if alpha < 1 or beta < 1:
        raise ValueError(f"alpha and beta must be >= 1, got {alpha}, {beta}")

    def integrand(x: float) -> float:
        return -math.log1p((x - 1.0) / beta) / (alpha - x)

    from scipy.integrate import quad

    value, abserr = quad(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=500)
    if abserr > 1e-9:
        raise ArithmeticError(f"quadrature error estimate {abserr} exceeds 1e-9")
    return value
