"""Monte Carlo estimation: sampling contract, determinism, and calibration."""

import importlib.util
import io
import random
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize

from rapkit.formulas import (
    cover_formula_value,
    min_entry_usage_probability,
    row_inclusion_probability,
)
import rapkit.montecarlo as montecarlo
from rapkit.model import insert_zero, instance
from rapkit.montecarlo import (
    EstimateReport,
    estimate_entry_usage,
    estimate_min_entry_usage,
    estimate_row_usage,
    estimate_value,
    sample_matrix,
    substream,
)
from rapkit.solver import solve_k_assignment

from conftest import random_instance

usable_cpus = montecarlo._usable_cpus  # the real one, for tests that patch it


@pytest.fixture()
def pool_sizes(monkeypatch):
    """Record each pool's max_workers; the pools still run."""
    seen = []
    pool = montecarlo.ThreadPoolExecutor
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor",
                        lambda max_workers: seen.append(max_workers) or pool(max_workers))
    return seen


class TestSampleMatrix:
    def test_zeros_exact_and_rest_positive(self):
        p = instance(3, 4, 2, [(0, 0), (2, 3)])
        s = sample_matrix(p, rng=7)
        for r in range(3):
            for c in range(4):
                if (r, c) in p.zeros:
                    assert s.entries[r][c] == 0
                else:
                    assert s.entries[r][c] > 0

    def test_all_zero_pattern(self):
        zeros = [(r, c) for r in range(2) for c in range(3)]
        s = sample_matrix(instance(2, 3, 2, zeros), rng=1)
        assert all(x == 0 for row in s.entries for x in row)

    def test_fixed_seed_reproducible(self):
        p = instance(3, 3, 3)
        a = sample_matrix(p, rng=123)
        b = sample_matrix(p, rng=123)
        assert a.entries == b.entries

    def test_generator_input_accepted(self):
        p = instance(2, 2, 2)
        s = sample_matrix(p, rng=substream(5, 0))
        assert all(x > 0 for row in s.entries for x in row)

    def test_unit_mean_calibration(self):
        gen = substream(2024, 0)
        draws = -np.log1p(-gen.random(30_000))
        assert abs(draws.mean() - 1.0) < 0.02


class TestEstimateValue:
    def test_two_by_two_within_three_sigma(self):
        report = estimate_value(instance(2, 2, 2), samples=10_000, seed=11,
                                target=Fraction(5, 4))
        assert report.within_3_sigma()
        assert abs(report.mean - 1.25) < 0.05

    def test_single_zero_within_three_sigma(self):
        report = estimate_value(instance(2, 2, 2, [(0, 0)]), samples=10_000,
                                seed=12, target=Fraction(3, 4))
        assert report.within_3_sigma()

    def test_independent_zeros_give_zero_cost(self):
        report = estimate_value(instance(3, 3, 2, [(0, 0), (1, 1)]),
                                samples=100, seed=3)
        assert report.mean == 0 and report.stderr == 0

    def test_report_fields_and_json(self):
        report = estimate_value(instance(2, 2, 1), samples=500, seed=9,
                                target=Fraction(1, 4))
        assert report.samples == 500 and report.seed == 9
        obj = report.to_json_obj()
        assert set(obj) >= {"mean", "stderr", "samples", "seed"}
        assert obj["samples"] == 500

    def test_no_target_means_no_sigma_check(self):
        report = estimate_value(instance(2, 2, 1), samples=100, seed=9)
        assert report.target is None
        assert report.within_3_sigma() is None


class TestUsageEstimators:
    def test_row_usage_certain_when_k_equals_m(self):
        report = estimate_row_usage(instance(2, 3, 2), 0, samples=200, seed=5)
        assert report.mean == 1 and report.stderr == 0

    def test_row_usage_within_three_sigma(self):
        p = instance(3, 3, 2)
        target = row_inclusion_probability(p, 1)
        report = estimate_row_usage(p, 1, samples=20_000, seed=6, target=target)
        assert target == Fraction(2, 3)
        assert report.within_3_sigma()

    def test_row_usage_rejects_zero_row(self):
        with pytest.raises(ValueError):
            estimate_row_usage(instance(2, 2, 1, [(0, 0)]), 0, samples=10, seed=1)

    def test_row_usage_rejects_bad_row(self):
        with pytest.raises(IndexError):
            estimate_row_usage(instance(2, 2, 1), 5, samples=10, seed=1)

    @pytest.mark.parametrize("row", [True, 1.5, 1.0, "1"])
    def test_row_usage_row_must_be_an_integer(self, row):
        with pytest.raises(ValueError, match="row must be an integer"):
            estimate_row_usage(instance(3, 3, 2, [(0, 0)]), row, samples=100, seed=1)

    @pytest.mark.parametrize("pos", [(True, 1), (1, False), (1.0, 1), (1, 1.5)])
    def test_entry_usage_position_must_be_integers(self, pos):
        with pytest.raises(ValueError, match="must be an integer"):
            estimate_entry_usage(instance(3, 3, 2, [(0, 0)]), pos, samples=100, seed=1)

    @pytest.mark.parametrize("pos", [5, (1, 1, 1), (1,)], ids=["int", "triple", "single"])
    def test_entry_usage_position_must_be_a_pair(self, pos):
        with pytest.raises(ValueError, match="must be a pair of integers"):
            estimate_entry_usage(instance(3, 3, 2, [(0, 0)]), pos, samples=100, seed=1)

    def test_entry_usage_out_of_range_stays_an_index_error(self):
        with pytest.raises(IndexError):
            estimate_entry_usage(instance(3, 3, 2, [(0, 0)]), (1, 3), samples=100, seed=1)

    def test_numpy_integers_accepted(self):
        p = instance(3, 3, 2, [(0, 0)])
        one = np.int64(1)
        assert estimate_row_usage(p, one, 100, 1) == estimate_row_usage(p, 1, 100, 1)
        assert estimate_entry_usage(p, (one, one), 100, 1) == estimate_entry_usage(p, (1, 1), 100, 1)

    def test_entry_usage_certain_for_one_by_one(self):
        p = instance(1, 1, 1)
        target = cover_formula_value(p) - cover_formula_value(insert_zero(p, (0, 0)))
        report = estimate_entry_usage(p, (0, 0), samples=50, seed=2, target=target)
        assert report.mean == 1
        assert report.target == 1

    def test_entry_usage_target_is_value_drop(self):
        p = instance(2, 2, 2)
        expected = cover_formula_value(p) - cover_formula_value(insert_zero(p, (0, 0)))
        report = estimate_entry_usage(p, (0, 0), samples=20_000, seed=8, target=expected)
        assert report.target == expected == Fraction(1, 2)
        assert report.within_3_sigma()

    @pytest.mark.parametrize("pos", [(0, 0), [0, 0]], ids=["tuple", "list"])
    def test_entry_usage_rejects_zero_position(self, pos):
        with pytest.raises(ValueError):
            estimate_entry_usage(instance(2, 2, 1, [(0, 0)]), pos, samples=100, seed=1)

    def test_min_entry_usage_certain_when_k_is_one(self):
        report = estimate_min_entry_usage(
            1, 3, 3, samples=100, seed=4, target=min_entry_usage_probability(1, 3, 3)
        )
        assert report.mean == 1 and report.target == 1

    def test_min_entry_usage_square_case(self):
        report = estimate_min_entry_usage(
            3, 3, 3, samples=20_000, seed=14, target=min_entry_usage_probability(3, 3, 3)
        )
        assert report.target == min_entry_usage_probability(3, 3, 3) == Fraction(2, 3)
        assert report.within_3_sigma()

    def test_min_entry_usage_validates_shape(self):
        with pytest.raises(ValueError):
            estimate_min_entry_usage(3, 2, 2, samples=10, seed=1)


class TestDeterminism:
    def test_same_seed_same_report(self):
        p = instance(3, 3, 2, [(0, 1)])
        a = estimate_value(p, samples=3_000, seed=77)
        b = estimate_value(p, samples=3_000, seed=77)
        assert (a.mean, a.stderr) == (b.mean, b.stderr)

    def test_thread_count_does_not_change_result(self):
        p = instance(3, 3, 3)
        a = estimate_value(p, samples=2_048, seed=21, threads=1)
        b = estimate_value(p, samples=2_048, seed=21, threads=3)
        assert (a.mean, a.stderr) == (b.mean, b.stderr)

    def test_different_seeds_differ(self):
        p = instance(3, 3, 3)
        a = estimate_value(p, samples=1_000, seed=1)
        b = estimate_value(p, samples=1_000, seed=2)
        assert a.mean != b.mean

    # every estimator on a shape of chunk length 512, on one of 455 and on
    # one of 40; no sample count is a multiple of its chunk length.  3x3 and
    # 12x12 run inline under the pool gate; 40x40 (40 x 60 padded) is above it
    RUNS = {
        "value.3x3": lambda **kw: estimate_value(instance(3, 3, 2, [(0, 1)]), **kw),
        "row.3x3": lambda **kw: estimate_row_usage(instance(3, 3, 2, [(0, 0)]), 2, **kw),
        "entry.3x3": lambda **kw: estimate_entry_usage(instance(3, 3, 2, [(0, 0)]), (1, 2), **kw),
        "min.3x3": lambda **kw: estimate_min_entry_usage(2, 3, 3, **kw),
        "value.12x12": lambda **kw: estimate_value(instance(12, 12, 6, [(0, 0), (3, 5)]), **kw),
        "row.12x12": lambda **kw: estimate_row_usage(instance(12, 12, 6, [(0, 0)]), 4, **kw),
        "entry.12x12": lambda **kw: estimate_entry_usage(instance(12, 12, 6, [(0, 0)]), (2, 7), **kw),
        "min.12x12": lambda **kw: estimate_min_entry_usage(6, 12, 12, **kw),
        "value.40x40": lambda **kw: estimate_value(instance(40, 40, 20, [(0, 0), (3, 5)]), **kw),
        "row.40x40": lambda **kw: estimate_row_usage(instance(40, 40, 20, [(0, 0)]), 4, **kw),
        "entry.40x40": lambda **kw: estimate_entry_usage(instance(40, 40, 20, [(0, 0)]), (2, 7), **kw),
        "min.40x40": lambda **kw: estimate_min_entry_usage(20, 40, 40, **kw),
    }
    SAMPLES = {"3x3": 1_300, "12x12": 1_000, "40x40": 130}

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_threads_give_identical_reports_and_csv(self, name, pool_sizes, monkeypatch):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 8)
        shape = name.split(".")[1]
        samples = self.SAMPLES[shape]
        assert montecarlo._chunk_length(3, 3) == 512
        assert montecarlo._chunk_length(12, 12) == 455
        assert montecarlo._chunk_length(40, 40) == 40
        seen = []
        for threads in (1, 2, 3, None):
            out = io.StringIO()
            report = self.RUNS[name](samples=samples, seed=41, threads=threads, csv_out=out)
            seen.append((report.mean, report.stderr, out.getvalue()))
        assert seen[0] == seen[1] == seen[2] == seen[3]
        assert len(seen[0][2].splitlines()) == samples + 1
        # four chunks of 40x40: threads 2 and 3, and every one of 8 CPUs capped at 4
        assert pool_sizes == ([2, 3, 4] if shape == "40x40" else [])


class TestThreadPool:
    # 32x4 with k=1 has 512 samples a chunk, as 3x3 has, and its padded
    # 32 x 35 matrix is above the pool gate, so the pool sizes below hold
    LARGE = instance(32, 4, 1)

    @pytest.fixture()
    def pools(self, monkeypatch):
        """Record each pool's max_workers; run its chunks inline."""
        seen = []

        class Recorder:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 4)
        return seen

    @pytest.mark.parametrize("threads, samples, workers", [
        (10**9, 1_200, [3]),      # three chunks
        (10**9, 5_000, [4]),      # ten chunks, four CPUs
        (2, 5_000, [2]),
        (10**9, 300, []),         # one chunk runs inline
        (None, 1_200, [3]),       # the default: every CPU, up to the chunks
        (None, 5_000, [4]),
        (1, 5_000, []),
    ])
    def test_workers_capped_by_chunks_and_cpus(self, pools, threads, samples, workers):
        capped = estimate_value(self.LARGE, samples=samples, seed=5, threads=threads)
        assert pools == workers
        plain = estimate_value(self.LARGE, samples=samples, seed=5, threads=1)
        assert (capped.mean, capped.stderr) == (plain.mean, plain.stderr)

    def test_small_shape_runs_inline_whatever_threads_says(self, pools):
        estimate_value(instance(3, 3, 2), samples=5_000, seed=5, threads=10**9)
        estimate_value(instance(3, 3, 2), samples=5_000, seed=5)
        assert pools == []

    def test_unknown_cpu_count_runs_inline(self, pools, monkeypatch):
        monkeypatch.setattr(montecarlo, "_usable_cpus", usable_cpus)
        monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
        estimate_value(self.LARGE, samples=5_000, seed=5, threads=10**9)
        assert pools == []

    def test_cpu_count_honours_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
        assert montecarlo._usable_cpus() == 1
        monkeypatch.delattr(montecarlo.os, "sched_getaffinity")
        assert montecarlo._usable_cpus() == 8


class TestStreams:
    def test_chunks_never_share_draws(self):
        p = instance(3, 3, 3)
        mask = montecarlo._zero_mask(p, p.n)
        for seed in (0, 1, 2**63):
            first = montecarlo._draw_chunk(mask, 4, substream(seed, 0))
            second = montecarlo._draw_chunk(mask, 4, substream(seed, 1))
            assert not np.array_equal(first[0], second[0])
            assert not np.isin(second, first).any()

    def test_calibrated_across_seeds(self):
        # 256 seeds, two chunks each: the z-scores against the exact 5/4
        # should look standard normal
        p = instance(2, 2, 2)
        z = np.array([
            (r.mean - 1.25) / r.stderr
            for r in (estimate_value(p, samples=600, seed=s) for s in range(256))
        ])
        assert abs(z.mean()) < 0.25
        assert 0.8 < z.std() < 1.2
        assert (np.abs(z) > 3).mean() <= 0.02


class TestMemory:
    def test_large_matrix_chunk_stays_small(self):
        p = instance(100, 100, 100)
        estimate_value(p, samples=2, seed=1)  # warm up imports and caches
        tracemalloc.start()
        try:
            # one uncapped 24-sample chunk alone would be 24 * 80 KB
            estimate_value(p, samples=24, seed=1, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_pool_holds_one_chunk_per_worker(self, pool_sizes, monkeypatch):
        p = instance(100, 100, 100)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        estimate_value(p, samples=2, seed=1, threads=1)  # warm up imports and caches
        chunk_bytes = montecarlo._chunk_length(100, 100) * 100 * 100 * 8
        tracemalloc.start()
        try:
            # ten 6-sample chunks on the default pool: all of them at once
            # would be 10 * 480 KB
            estimate_value(p, samples=60, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pool_sizes == [2]
        assert peak < 2 * chunk_bytes + 2**19


class TestCsvOutput:
    def test_rows_in_sample_order(self, tmp_path):
        path = tmp_path / "draws.csv"
        with open(path, "w") as f:
            estimate_value(instance(2, 2, 2), samples=700, seed=31, threads=2,
                           csv_out=f)
        lines = path.read_text().splitlines()
        assert lines[0] == "sample,cost,statistic"
        assert len(lines) == 701
        indices = [int(line.split(",")[0]) for line in lines[1:]]
        assert indices == list(range(700))

    def test_statistic_column_matches_mean(self, tmp_path):
        path = tmp_path / "draws.csv"
        with open(path, "w") as f:
            report = estimate_value(instance(2, 2, 1), samples=400, seed=32,
                                    csv_out=f)
        values = [float(line.split(",")[2])
                  for line in path.read_text().splitlines()[1:]]
        assert abs(sum(values) / len(values) - report.mean) < 1e-12


class TestValidation:
    """Every estimator rejects a bad seed, sample count or thread cap before
    writing any CSV."""

    ESTIMATORS = {
        "value": lambda **kw: estimate_value(instance(2, 2, 2), **kw),
        "row": lambda **kw: estimate_row_usage(instance(2, 2, 2), 1, **kw),
        "entry": lambda **kw: estimate_entry_usage(instance(2, 2, 2), (0, 1), **kw),
        "min": lambda **kw: estimate_min_entry_usage(2, 2, 2, **kw),
    }

    def _rejected_without_output(self, **kw):
        for name, run in self.ESTIMATORS.items():
            out = io.StringIO()
            with pytest.raises(ValueError):
                run(csv_out=out, **kw)
            assert out.getvalue() == "", name

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, "7"])
    def test_bad_seed_rejected(self, seed):
        self._rejected_without_output(samples=10, seed=seed)

    @pytest.mark.parametrize("samples", [0, 1, -5, 2.0])
    def test_bad_samples_rejected(self, samples):
        self._rejected_without_output(samples=samples, seed=1)

    BAD_THREADS = [0, -1, True, 1.5, "2"]

    @pytest.mark.parametrize("threads", BAD_THREADS)
    def test_bad_threads_rejected(self, threads):
        self._rejected_without_output(samples=10, seed=1, threads=threads)

    @pytest.mark.parametrize("threads", BAD_THREADS)
    @pytest.mark.parametrize(
        "shape, pooled", [((2, 2, 2), False), ((40, 40, 20), True)], ids=["inline", "pooled"]
    )
    def test_bad_threads_rejected_before_drawing(self, shape, pooled, threads, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew samples")

        monkeypatch.setattr(montecarlo, "_draw_chunk", no_draw)
        p = instance(*shape)
        assert (p.m * (p.n + p.m - p.k) >= montecarlo._POOL_MIN_ENTRIES) == pooled
        out = io.StringIO()
        with pytest.raises(ValueError, match="threads must be None or a positive integer"):
            estimate_value(p, 50, 1, threads=threads, csv_out=out)
        assert out.getvalue() == ""


class TestSolverAgreement:
    def test_padded_solver_matches_exact_costs(self):
        rng = random.Random(19)
        for _ in range(60):
            p = random_instance(rng, max_m=4, max_n=4)
            gen = substream(rng.randrange(2**32), 0)
            mask = montecarlo._zero_mask(p, p.n + p.m - p.k)
            padded = montecarlo._draw_chunk(mask, 3, gen)
            cols, costs = montecarlo._solve_chunk(padded)
            assert padded.shape == (3, p.m, p.n + p.m - p.k)
            assert not padded[:, :, p.n:].any()
            for a, row_cols, cost in zip(padded[:, :, :p.n], cols, costs):
                exact = solve_k_assignment([[Fraction(x) for x in row] for row in a], p.k)
                chosen = {(r, int(c)) for r, c in enumerate(row_cols) if c < p.n}
                positive = {pos for pos in chosen if a[pos] > 0}
                # chosen may exceed k only by zero-cost positions; the
                # costly positions and the cost are those of the optimum
                assert len({c for _, c in chosen}) == len(chosen) >= p.k
                assert positive == {pos for pos in exact.positions if a[pos] > 0}
                assert abs(float(exact.cost) - cost) < 1e-9 * max(1.0, cost)


def _same_solve(solver, public, cost: np.ndarray) -> None:
    """`solver` and `public` give identical (rows, cols), or raise the same exception type."""
    try:
        expected = public(cost)
    except Exception as exc:
        with pytest.raises(type(exc)):
            solver(cost)
        return
    got = solver(cost)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@pytest.fixture()
def unloaded(monkeypatch):
    """No solver loaded yet, and scipy's extension module out of sys.modules;
    both are put back after the test."""
    monkeypatch.setattr(montecarlo, "_scipy_lsa", None)
    monkeypatch.delitem(sys.modules, montecarlo._LSAP)  # imported with scipy.optimize above


class TestSolverLoad:
    """`linear_sum_assignment` loads scipy's assignment extension on its
    first call; it must solve exactly as scipy.optimize's public function."""

    TIES = [
        np.zeros((4, 6)),
        np.zeros((6, 4)),
        np.full((5, 5), 3.0),
        np.full((3, 7), 0.25),
        np.random.default_rng(1).integers(0, 3, size=(7, 7)).astype(float),
        np.random.default_rng(2).integers(0, 3, size=(5, 9)).astype(float),
        np.random.default_rng(3).integers(0, 3, size=(9, 5)).astype(float),
    ]

    def test_hand_loaded_solver_matches_the_public_one(self, unloaded):
        solver = montecarlo._load_solver()
        public = scipy.optimize.linear_sum_assignment
        gen = np.random.default_rng(11)
        for cost in [gen.random((5, 8)), gen.random((8, 5)), gen.exponential(size=(50, 60)), *self.TIES]:
            _same_solve(solver, public, cost)
        rng = random.Random(23)
        for _ in range(40):
            p = random_instance(rng, max_m=6, max_n=6)
            mask = montecarlo._zero_mask(p, p.n + p.m - p.k)
            for padded in montecarlo._draw_chunk(mask, 4, substream(rng.randrange(2**64), rng.randrange(8))):
                _same_solve(solver, public, padded)

    def test_infeasible_matrix_raises_as_the_public_one_does(self, unloaded):
        cost = np.ones((3, 4))
        cost[1] = np.inf
        with pytest.raises(ValueError):
            scipy.optimize.linear_sum_assignment(cost)
        _same_solve(montecarlo._load_solver(), scipy.optimize.linear_sum_assignment, cost)

    def test_loaded_extension_is_not_left_in_sys_modules(self, unloaded):
        assert montecarlo._lsap_spec() is not None
        montecarlo.linear_sum_assignment(np.ones((2, 2)))
        assert montecarlo._LSAP not in sys.modules
        assert montecarlo._scipy_lsa is scipy.optimize.linear_sum_assignment

    def test_module_already_imported_is_reused(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_scipy_lsa", None)
        monkeypatch.setattr(montecarlo, "_lsap_spec", lambda: pytest.fail("looked up a loaded module"))
        imported = sys.modules[montecarlo._LSAP]
        montecarlo.linear_sum_assignment(np.ones((2, 2)))
        assert montecarlo._scipy_lsa is imported.linear_sum_assignment
        assert sys.modules[montecarlo._LSAP] is imported

    @pytest.fixture(params=["file missing", "no callable"])
    def hide_extension(self, request, monkeypatch, tmp_path):
        """A function that makes the solver's lookup find no extension file,
        or a module without the solver."""

        def hide():
            if request.param == "file missing":
                scipy_spec = importlib.util.spec_from_loader("scipy", None, is_package=True)
                scipy_spec.submodule_search_locations = [str(tmp_path)]  # holds no optimize/_lsap
                find_spec = importlib.util.find_spec
                monkeypatch.setattr(importlib.util, "find_spec",
                                    lambda name, package=None: scipy_spec if name == "scipy" else find_spec(name, package))
                assert montecarlo._lsap_spec() is None
            else:
                stand_in = tmp_path / "_lsap.py"
                stand_in.write_text("linear_sum_assignment = None\n")
                monkeypatch.setattr(montecarlo, "_lsap_spec",
                                    lambda: importlib.util.spec_from_file_location(montecarlo._LSAP, stand_in))

        return hide

    def test_falls_back_to_the_public_function(self, unloaded, monkeypatch, hide_extension):
        fast = estimate_value(instance(4, 4, 4), 2000, 1)
        assert montecarlo._scipy_lsa is scipy.optimize.linear_sum_assignment
        montecarlo._scipy_lsa = None
        hide_extension()
        calls = []
        solver = scipy.optimize.linear_sum_assignment

        def public(cost):
            calls.append(1)
            return solver(cost)

        monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", public)
        assert estimate_value(instance(4, 4, 4), 2000, 1) == fast
        assert montecarlo._scipy_lsa is public and len(calls) == 2000

    def test_first_call_from_many_threads_loads_once(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_scipy_lsa", None)
        loads, used, results = [], {}, {}
        load = montecarlo._load_solver

        def counted():
            loads.append(threading.get_ident())
            time.sleep(0.05)  # keep the load open while the other threads arrive
            solver = load()

            def watched(cost):
                used[threading.get_ident()] = watched
                return solver(cost)

            return watched

        monkeypatch.setattr(montecarlo, "_load_solver", counted)
        barrier = threading.Barrier(4, timeout=10)
        cost = np.random.default_rng(5).random((6, 8))

        def first_call():
            barrier.wait()
            results[threading.get_ident()] = montecarlo.linear_sum_assignment(cost)

        threads = [threading.Thread(target=first_call) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert len(loads) == 1
        assert len(used) == 4 and {id(s) for s in used.values()} == {id(montecarlo._scipy_lsa)}
        expected = scipy.optimize.linear_sum_assignment(cost)
        for rows, cols in results.values():
            np.testing.assert_array_equal(rows, expected[0])
            np.testing.assert_array_equal(cols, expected[1])
