"""Closed-form exact values and the numeric limit integral."""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from rapkit.formulas import (
    cover_formula_value,
    cs_value,
    min_entry_usage_probability,
    parisi_value,
    row_inclusion_probability,
    triangle_integral,
)
from rapkit.covers import cover_lattice, forced_cover_lines, max_independent_zeros
from rapkit.model import insert_zero, instance

from conftest import (
    all_patterns,
    delete_column,
    pattern_classes,
    random_instance,
    reference_cover_formula_value,
    reference_row_inclusion_probability,
    transpose_instance,
)


def gcd_group_sum(k: int, d: int) -> Fraction:
    """Partial sum of the k = m = n series over terms with gcd(k-i, k-j) = d.

    Equals 1/d^2 for every divisor d, which is how the full sum telescopes
    into the 1 + 1/4 + ... + 1/k^2 form.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if not isinstance(d, int) or isinstance(d, bool) or not 1 <= d <= k:
        raise ValueError(f"d={d!r} out of range 1..{k}")
    return sum(
        (
            Fraction(1, (k - i) * (k - j))
            for i in range(k)
            for j in range(k - i)
            if math.gcd(k - i, k - j) == d
        ),
        Fraction(0),
    )


def common_denominator_parisi_value(k: int) -> Fraction:
    """Sum of 1/d^2 for d = 1..k as one integer numerator over lcm(1..k)^2."""
    den = math.lcm(*range(1, k + 1)) ** 2
    return Fraction(sum(den // (d * d) for d in range(1, k + 1)), den)


def common_denominator_cs_value(k: int, m: int, n: int) -> Fraction:
    """Sum of 1/((m-i)(n-j)) over i + j < k as one numerator over a*b.

    a is the lcm of the m-i and b the lcm of the n-j; the value is the sum
    over i of a/(m-i) times the running sum of b/(n-j) over its first k-i
    terms.
    """
    a = math.lcm(*range(m - k + 1, m + 1))
    b = math.lcm(*range(n - k + 1, n + 1))
    running = [0]  # running[t] = b * (sum of 1/(n-j) over j < t)
    for j in range(k):
        running.append(running[-1] + b // (n - j))
    return Fraction(sum(a // (m - i) * running[k - i] for i in range(k)), a * b)


class TestCommonDenominator:
    """Adding the terms one Fraction at a time gives the Fraction that one
    integer numerator over one common denominator gives."""

    def test_parisi_value(self):
        for k in (*range(1, 61), 100, 257):
            assert parisi_value(k) == common_denominator_parisi_value(k)

    def test_cs_value(self):
        checked = 0
        for m in range(1, 13):
            for n in range(1, 13):
                for k in range(1, min(m, n) + 1):
                    assert cs_value(k, m, n) == common_denominator_cs_value(k, m, n)
                    checked += 1
        assert checked == 650

    def test_large_arguments(self):
        assert cs_value(40, 100, 60) == common_denominator_cs_value(40, 100, 60)
        assert cs_value(100, 100, 100) == common_denominator_cs_value(100, 100, 100) == parisi_value(100)


class TestParisi:
    def test_small_values(self):
        assert parisi_value(1) == 1
        assert parisi_value(2) == Fraction(5, 4)
        assert parisi_value(3) == Fraction(49, 36)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            parisi_value(0)

    def test_tail_bound(self):
        for k in (1, 2, 10, 100, 1000):
            assert abs(float(parisi_value(k)) - math.pi**2 / 6) < 1 / k


class TestCsValue:
    def test_square_equals_parisi(self):
        for k in range(1, 25):
            assert cs_value(k, k, k) == parisi_value(k)
        assert cs_value(100, 100, 100) == parisi_value(100)

    def test_k1(self):
        assert cs_value(1, 3, 5) == Fraction(1, 15)

    def test_2_2_3(self):
        assert cs_value(2, 2, 3) == Fraction(3, 4)

    def test_rejects_oversized_k(self):
        with pytest.raises(ValueError):
            cs_value(3, 2, 5)


class TestGcdGroupSum:
    def test_k2(self):
        assert gcd_group_sum(2, 2) == Fraction(1, 4)
        assert gcd_group_sum(2, 1) == 1

    def test_inverse_square_law(self):
        for k in range(1, 21):
            for d in range(1, k + 1):
                assert gcd_group_sum(k, d) == Fraction(1, d * d)

    def test_partition_of_cs(self):
        for k in range(1, 21):
            assert sum(gcd_group_sum(k, d) for d in range(1, k + 1)) == cs_value(k, k, k)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            gcd_group_sum(3, 4)


class TestCoverFormula:
    def test_no_zeros_equals_cs(self):
        for m in range(1, 13):
            for n in range(1, 13):
                for k in range(1, min(m, n) + 1):
                    value = cover_formula_value(instance(m, n, k))
                    assert value == cs_value(k, m, n)
                    if k == m == n:
                        assert value == parisi_value(k)

    def test_2x2_single_zero(self):
        assert cover_formula_value(instance(2, 2, 2, [(0, 0)])) == Fraction(3, 4)

    def test_3x3_k2_single_zero(self):
        assert cover_formula_value(instance(3, 3, 2, [(0, 0)])) == Fraction(2, 9)

    def test_k_independent_zeros(self):
        assert cover_formula_value(instance(2, 2, 2, [(0, 0), (1, 1)])) == 0

    def test_transpose_invariance(self):
        rng = random.Random(31)
        for _ in range(60):
            p = random_instance(rng)
            assert cover_formula_value(p) == cover_formula_value(transpose_instance(p))

    def test_deletion_consistency(self):
        rng = random.Random(32)
        checked = 0
        while checked < 20:
            p = random_instance(rng, min_k=2)
            if p.k > min(p.m, p.n - 1):
                continue
            if max_independent_zeros(p.pattern) > p.k - 1:
                continue
            _, forced_cols = forced_cover_lines(cover_lattice(p.pattern), p.k - 1)
            for c in forced_cols:
                assert cover_formula_value(p) == cover_formula_value(delete_column(p, c))
                checked += 1

    def test_row_inclusion_consistency(self):
        # inserting a zero at each column of a zero-free row and summing
        # the expected-value drops recovers that row's usage probability
        rng = random.Random(33)
        for _ in range(40):
            m, n = rng.randint(2, 4), rng.randint(2, 4)
            k = rng.randint(1, min(m, n))
            r = m - 1
            zeros = [(a, b) for a in range(m - 1) for b in range(n) if rng.random() < 0.3]
            p = instance(m, n, k, zeros)
            drops = n * cover_formula_value(p) - sum(
                cover_formula_value(insert_zero(p, (r, t))) for t in range(n)
            )
            assert drops == row_inclusion_probability(p, r)


def _small_instances():
    """Every 2x2 and 3x3 pattern and every 4x4 class, at every k."""
    for m in (2, 3):
        for z in all_patterns(m, m):
            for k in range(1, m + 1):
                yield instance(m, m, k, z.zeros)
    for zeros in pattern_classes(4, 4):
        for k in range(1, 5):
            yield instance(4, 4, k, zeros)


class TestAgainstPerTermReference:
    """One integer numerator over (m)_k (n)_k (or (m)_k) equals the per-term Fraction sums."""

    def test_cover_formula(self):
        for p in _small_instances():
            assert cover_formula_value(p) == reference_cover_formula_value(p), p

    def test_row_inclusion_on_every_zero_free_row(self):
        for p in _small_instances():
            held = {r for r, _ in p.zeros}
            for r in range(p.m):
                if r not in held:
                    assert row_inclusion_probability(p, r) == reference_row_inclusion_probability(p, r), (p, r)


class TestFallingFactorialDenominator:
    """The cover and row formulas divide by (m)_k * (n)_k, not m! * n!, so
    a large instance at small k costs what its k terms cost."""

    def test_zero_free_100000_square_at_k_2(self):
        p = instance(100000, 100000, 2)
        start = time.perf_counter()
        value = cover_formula_value(p)
        row = row_inclusion_probability(p, 4)
        elapsed = time.perf_counter() - start
        assert value == cs_value(2, 100000, 100000)
        assert row == Fraction(2, 100000)
        assert elapsed < 0.5  # about 2 s over m! * n!

    def test_large_sparse_instances_match_the_per_term_reference(self):
        rng = random.Random(32)
        for m, n, k in ((30, 40, 3), (200, 150, 2), (64, 64, 4)):
            zeros = {(rng.randrange(m), rng.randrange(n)) for _ in range(k + 2)}
            p = instance(m, n, k, zeros)
            assert cover_formula_value(p) == reference_cover_formula_value(p), p
            held = {r for r, _ in p.zeros}
            r = next(r for r in range(m) if r not in held)
            assert row_inclusion_probability(p, r) == reference_row_inclusion_probability(p, r), p


class TestRowInclusion:
    def test_no_zeros_k_over_m(self):
        for m in range(1, 13):
            for n in range(1, 13):
                for k in range(1, min(m, n) + 1):
                    p = instance(m, n, k)
                    for r in range(m):
                        assert row_inclusion_probability(p, r) == Fraction(k, m)

    def test_k_equals_m_forces_usage(self):
        assert row_inclusion_probability(instance(3, 4, 3), 1) == 1

    def test_3x3_k2_single_zero(self):
        assert row_inclusion_probability(instance(3, 3, 2, [(0, 0)]), 2) == Fraction(1, 2)

    def test_row_with_zero_rejected(self):
        with pytest.raises(ValueError):
            row_inclusion_probability(instance(3, 3, 2, [(0, 0)]), 0)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            row_inclusion_probability(instance(3, 3, 2), 5)

    @pytest.mark.parametrize("row", [True, 1.5, 1.0, "1"])
    def test_row_must_be_an_integer(self, row):
        with pytest.raises(ValueError, match="row must be an integer"):
            row_inclusion_probability(instance(3, 3, 2, [(0, 0)]), row)

    def test_numpy_integer_row_accepted(self):
        assert row_inclusion_probability(instance(3, 3, 2, [(0, 0)]), np.int64(2)) == Fraction(1, 2)


class TestMinEntryUsage:
    def test_k1(self):
        assert min_entry_usage_probability(1, 4, 7) == 1

    def test_square(self):
        for k in range(1, 8):
            expected = Fraction(1, 2) + Fraction(1, 2 * k)
            assert min_entry_usage_probability(k, k, k) == expected

    def test_2_2_3(self):
        assert min_entry_usage_probability(2, 2, 3) == Fraction(5, 6)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            min_entry_usage_probability(3, 2, 2)


class TestTriangleIntegral:
    def test_golden_alpha1_beta2(self):
        expected = math.pi**2 / 12 - math.log(2) ** 2 / 2
        assert abs(triangle_integral(1.0, 2.0) - expected) < 1e-9

    def test_golden_corner_singularity(self):
        assert abs(triangle_integral(1.0, 1.0) - math.pi**2 / 6) < 1e-9

    def test_symmetry(self):
        assert abs(triangle_integral(1.5, 3.0) - triangle_integral(3.0, 1.5)) < 1e-10

    def test_vanishes_for_large_alpha(self):
        assert triangle_integral(1e6, 2.0) < 1e-5

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            triangle_integral(0.5, 2.0)

