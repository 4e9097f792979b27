"""Acceptance gate: one test per shipped guarantee, at the stated tolerances.

Each test prints a single ``ACCEPTANCE n: PASS/FAIL`` line (bypassing pytest
capture so the verdicts always reach the console) and then asserts it.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from scipy.integrate import quad

from rapkit.covers import (
    cover_lattice,
    cover_profile,
    forced_cover_lines,
    max_independent_zeros,
)
from rapkit.formulas import (
    cover_formula_value,
    cs_value,
    min_entry_usage_probability,
    parisi_value,
    row_inclusion_probability,
    triangle_integral,
)
from rapkit.model import insert_zero, instance
from rapkit.montecarlo import (
    estimate_entry_usage,
    estimate_min_entry_usage,
    estimate_row_usage,
    estimate_value,
)
from rapkit.oracle import oracle_expected_value
from rapkit.solver import brute_force_k_assignment, solve_k_assignment

from conftest import (
    all_patterns,
    brute_force_min_cover_size,
    delete_column,
    enumerate_optimal_assignments,
    is_partial_cover,
    pattern_classes,
    random_fraction_matrix,
    random_instance,
    symmetric_difference_paths,
)


@pytest.fixture()
def report(capsys):
    """Print one ACCEPTANCE verdict line past pytest's capture, then assert."""

    def _report(n: int, ok: bool, detail: str) -> None:
        line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}"
        with capsys.disabled():
            print(f"\n{line}", flush=True)
        assert ok, line

    return _report


def test_criterion_01_square_value_equals_partial_zeta_sum(report):
    t0 = time.time()
    ok = True
    for k in range(1, 8):
        lhs = cover_formula_value(instance(k, k, k))
        rhs = sum(Fraction(1, d * d) for d in range(1, k + 1))
        ok = ok and lhs == rhs == parisi_value(k)
    elapsed = time.time() - t0
    report(1, ok and elapsed < 10,
            f"square-instance cover formula equals sum of 1/d^2 for k=1..7 "
            f"({elapsed:.2f}s)")


def test_criterion_02_cover_formula_equals_rectangular_closed_form(report):
    t0 = time.time()
    ok = True
    for n in range(1, 7):
        for m in range(1, n + 1):
            for k in range(1, m + 1):
                ok = ok and cover_formula_value(instance(m, n, k)) == cs_value(k, m, n)
    elapsed = time.time() - t0
    report(2, ok and elapsed < 30,
            f"cover formula equals rectangular closed form for all "
            f"k<=m<=n<=6 ({elapsed:.2f}s)")


def test_criterion_03_oracle_equals_cover_formula_exhaustively(report):
    t0 = time.time()
    cache: dict = {}
    mismatches = 0
    checked = 0
    cells3 = [(r, c) for r in range(3) for c in range(3)]
    for bits in range(512):
        zeros = [cells3[i] for i in range(9) if bits >> i & 1]
        for k in (1, 2, 3):
            p = instance(3, 3, k, zeros)
            checked += 1
            if oracle_expected_value(p, budget=10**6, cache=cache) != cover_formula_value(p):
                mismatches += 1
    cells2 = [(r, c) for r in range(2) for c in range(2)]
    for bits in range(16):
        zeros = [cells2[i] for i in range(4) if bits >> i & 1]
        for k in (1, 2):
            p = instance(2, 2, k, zeros)
            checked += 1
            if oracle_expected_value(p, budget=10**6, cache=cache) != cover_formula_value(p):
                mismatches += 1
    for zeros in pattern_classes(4, 4):
        for k in (2, 3, 4):
            p = instance(4, 4, k, zeros)
            checked += 1
            if oracle_expected_value(p, budget=10**6, cache=cache) != cover_formula_value(p):
                mismatches += 1
    elapsed = time.time() - t0
    report(3, mismatches == 0,
            f"symbolic oracle equals cover formula on {checked} instances "
            f"(3x3 all patterns, k=1..3; 2x2 all patterns, k=1..2; "
            f"4x4 one pattern per row/column-permutation class, k=2..4), "
            f"{mismatches} mismatches ({elapsed:.2f}s)")


def test_oracle_equals_cover_formula_on_sampled_five_by_five_patterns():
    """Beside criterion 3: a seeded sample of 5x5 zero patterns at k=2..4,
    one oracle cache shared across the sample."""
    rng = random.Random(53)
    cache: dict = {}
    for _ in range(100):
        density = rng.uniform(0.05, 0.4)
        zeros = [(r, c) for r in range(5) for c in range(5) if rng.random() < density]
        for k in (2, 3, 4):
            p = instance(5, 5, k, zeros)
            assert oracle_expected_value(p, cache=cache) == cover_formula_value(p), p


def test_criterion_04_closed_form_spot_check(report):
    p = instance(2, 2, 2, [(0, 0)])
    formula = cover_formula_value(p)
    oracle = oracle_expected_value(p)
    analytic, err = quad(lambda t: (1 + t) * math.exp(-2 * t), 0, math.inf)
    ok = (formula == oracle == Fraction(3, 4)
          and abs(analytic - 0.75) < 1e-9 and err < 1e-9)
    report(4, ok,
            f"2x2 single-zero instance: formula={formula}, oracle={oracle}, "
            f"independent integral={analytic:.12f}")


def test_criterion_05_montecarlo_value_concordance(report):
    p1 = instance(3, 3, 3)
    t0 = time.time()
    r1 = estimate_value(p1, samples=100_000, seed=20250, target=Fraction(49, 36))
    e1 = time.time() - t0
    p2 = instance(3, 3, 2, [(0, 0)])
    exact2 = cover_formula_value(p2)
    t0 = time.time()
    r2 = estimate_value(p2, samples=100_000, seed=20251, target=exact2)
    e2 = time.time() - t0
    ok = (cover_formula_value(p1) == Fraction(49, 36)
          and exact2 == Fraction(2, 9)
          and r1.within_3_sigma() and r2.within_3_sigma()
          and e1 < 10 and e2 < 10)
    report(5, ok,
            f"100k-sample estimates {r1.mean:.4f}±{r1.stderr:.4f} vs 49/36 and "
            f"{r2.mean:.4f}±{r2.stderr:.4f} vs 2/9 ({e1:.1f}s, {e2:.1f}s)")


def test_criterion_06_row_inclusion_probability(report):
    p = instance(3, 3, 2, [(0, 0)])
    exact = row_inclusion_probability(p, 2)
    rep = estimate_row_usage(p, 2, samples=100_000, seed=20252, target=exact)
    zero_free_ok = all(
        row_inclusion_probability(instance(3, 3, k), r) == Fraction(k, 3)
        for k in (1, 2, 3) for r in range(3)
    )
    p0 = instance(3, 3, 2)
    rep0 = estimate_row_usage(p0, 0, samples=100_000, seed=20253,
                              target=Fraction(2, 3))
    ok = (exact == Fraction(1, 2) and rep.within_3_sigma()
          and zero_free_ok and rep0.within_3_sigma())
    report(6, ok,
            f"row-inclusion: single-zero 3x3 row 2 exact 1/2, estimate "
            f"{rep.mean:.4f}±{rep.stderr:.4f}; zero-free rows match k/m "
            f"(estimate {rep0.mean:.4f} vs 2/3)")


def test_criterion_07_entry_usage_matches_value_drop(report):
    rng = random.Random(7007)
    trials = 0
    all_ok = True
    while trials < 10:
        p = random_instance(rng, max_m=4, max_n=4)
        candidates = [(r, c) for r in range(p.m) for c in range(p.n)
                      if (r, c) not in p.zeros]
        if not candidates:
            continue
        pos = rng.choice(candidates)
        expected = cover_formula_value(p) - cover_formula_value(insert_zero(p, pos))
        rep = estimate_entry_usage(p, pos, samples=20_000, seed=9000 + trials, target=expected)
        all_ok = all_ok and rep.target == expected and rep.within_3_sigma()
        trials += 1
    report(7, all_ok,
            "entry-usage frequency within 3 sigma of the exact value drop "
            "on 10 random instances (20k samples each)")


def test_criterion_08_min_entry_usage_probability(report):
    cases = [(2, 2, 3), (3, 3, 3), (2, 3, 4)]
    ok = True
    details = []
    for idx, (k, m, n) in enumerate(cases):
        exact = min_entry_usage_probability(k, m, n)
        ok = ok and exact == 1 - Fraction(k * (k - 1), 2 * m * n)
        rep = estimate_min_entry_usage(k, m, n, samples=100_000, seed=20260 + idx, target=exact)
        ok = ok and rep.target == exact and rep.within_3_sigma()
        details.append(f"({k},{m},{n}): {rep.mean:.4f} vs {exact}")
    square_ok = all(
        min_entry_usage_probability(k, k, k) == Fraction(1, 2) + Fraction(1, 2 * k)
        for k in range(1, 8)
    )
    report(8, ok and square_ok,
            "smallest-entry usage matches 1 - k(k-1)/(2mn): " + "; ".join(details)
            + "; square case equals 1/2 + 1/(2k)")


def test_criterion_09_asymptotics(report):
    golden = math.pi**2 / 12 - math.log(2) ** 2 / 2
    integral_ok = abs(triangle_integral(1, 2) - golden) < 1e-9
    limit = math.pi**2 / 6
    tail_ok = True
    running = Fraction(0)
    checkpoints = {1, 10, 100, 1000, 10000}
    for k in range(1, 10001):
        running += Fraction(1, k * k)
        if abs(float(running) - limit) >= 1 / k:
            tail_ok = False
            break
        if k in checkpoints and parisi_value(k) != running:
            tail_ok = False
            break
    report(9, integral_ok and tail_ok,
            f"triangle integral at (1,2) within 1e-9 of pi^2/12 - ln(2)^2/2; "
            f"|partial zeta sum - pi^2/6| < 1/k for every k <= 10^4")


def test_criterion_10_structural_property_suite(report):
    t0 = time.time()
    rng = random.Random(1010)

    solver_ok = True
    for _ in range(1000):
        p = random_instance(rng, max_m=6, max_n=6)
        matrix = random_fraction_matrix(rng, p.m, p.n, set(p.zeros))
        got = solve_k_assignment(matrix, p.k)
        brute = brute_force_k_assignment(matrix, p.k)
        solver_ok = (solver_ok and got.cost == brute.cost and got.positions == brute.positions
                     and len(got.assignment) == p.k)

    konig_ok = True
    konig_count = 0
    for m in range(1, 5):
        for n in range(1, 5):
            for z in all_patterns(m, n):
                konig_count += 1
                best = brute_force_min_cover_size(z)
                cover = cover_lattice(z).row_max
                konig_ok = konig_ok and (
                    max_independent_zeros(z) == best == len(cover.rows) + len(cover.cols)
                )

    identity_ok = True
    deletion_checked = 0
    attempts = 0
    while deletion_checked < 50 and attempts < 5000:
        attempts += 1
        p = random_instance(rng, min_k=2)
        if p.k > min(p.m, p.n - 1) or max_independent_zeros(p.pattern) > p.k - 1:
            continue
        _, forced_cols = forced_cover_lines(p.pattern, p.k - 1)
        if not forced_cols:
            continue
        before = cover_profile(p)
        after = cover_profile(delete_column(p, min(forced_cols)))
        for i in range(p.k):
            for j in range(p.k - i):
                expected = (after[(i, j - 1)] if j >= 1 else 0) + after[(i, j)]
                identity_ok = identity_ok and before[(i, j)] == expected
        deletion_checked += 1

    def dbar(p, r, i, j):
        return sum(
            1
            for rows in itertools.combinations([x for x in range(p.m) if x != r], i)
            for cols in itertools.combinations(range(p.n), j)
            if is_partial_cover(p, set(rows), set(cols))
        )

    insertion_checked = 0
    while insertion_checked < 50:
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        k = rng.randint(1, min(m, n))
        r = m - 1
        zeros = [(a, b) for a in range(m - 1) for b in range(n) if rng.random() < 0.3]
        p = instance(m, n, k, zeros)
        for i in range(k):
            for j in range(k - i):
                lhs = j * dbar(p, r, i, j) + (j + 1) * dbar(p, r, i, j + 1)
                rhs = sum(dbar(insert_zero(p, (r, t)), r, i, j) for t in range(n))
                identity_ok = identity_ok and lhs == rhs
        insertion_checked += 1

    path_ok = True
    path_checks = 0
    for _ in range(60):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        k = rng.randint(1, min(m, n))
        zeros = {(r, c) for r in range(m) for c in range(n) if rng.random() < 0.4}
        matrix = random_fraction_matrix(rng, m, n, zeros)
        optima = enumerate_optimal_assignments(matrix, k)
        if len(optima) < 2:
            continue
        for mu in optima:
            for nu in optima:
                for a in nu.position_set - mu.position_set:
                    path_checks += 1
                    path_ok = path_ok and any(
                        len(paths) == 1
                        or (len(paths) == 2
                            and all(len(t.positions) % 2 == 1 for t in paths))
                        for cand in optima
                        if a in cand.position_set
                        for paths in [symmetric_difference_paths(mu, cand)]
                    )

    elapsed = time.time() - t0
    ok = (solver_ok and konig_ok and identity_ok and path_ok
          and deletion_checked == 50 and path_checks > 0 and elapsed < 120)
    report(10, ok,
            f"solver=brute force (cost and positions) on 1000 instances; cover duality on "
            f"{konig_count} patterns; deletion/insertion identities on "
            f"{deletion_checked + insertion_checked} patterns; path structure "
            f"on {path_checks} optimum elements ({elapsed:.1f}s)")
