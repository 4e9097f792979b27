"""Seeded Monte Carlo estimation for standard RAPs.

Sampling is reproducible and thread-count independent.  Samples are
drawn in chunks whose length is set by the shape (m, n) alone:
min(512, max(1, 2^16 // (m * n))) samples (see `_chunk_length`).
Chunk j draws all its matrices in one call from its own counter-based
stream (Philox keyed by the seed, counter j * 2^128), so any assignment
of chunks to threads gives bit-identical per-sample results, and
reduction merges the chunks in index order.

The pool is sized from the shape.  Threads pay only where the
assignment solver dominates: it releases the GIL, the rest of a chunk
does not.  So a shape whose padded matrix m x (n + m - k) has fewer
than `_POOL_MIN_ENTRIES` entries always runs inline; a larger one uses
min(threads, chunks, usable CPUs) threads, every usable CPU when
`threads` is None (the default).  Each thread holds one chunk at a time.

The hot path solves each sampled matrix with scipy's C implementation
of the rectangular assignment solver, reduced from k-cardinality to
full assignment by padding with zero-cost dummy columns that absorb the
m - k unused rows; the statistics are then array operations over the
chunk.  The solver is loaded on the first solve, not with the module, so
the commands that never sample do not load it, and it is loaded from
its own extension module, scipy.optimize._lsap, without the rest of
scipy.optimize (see `_load_solver`).  Statistical
conclusions are tie-insensitive: every estimated quantity (cost,
zero-free-row usage, nonzero-entry usage) is invariant across optimal
assignments with probability 1.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder, ModuleSpec
from typing import IO, Callable

import numpy as np

from .model import RapInstance, SampledMatrix, instance, rational_to_json
from .model import checked_int, checked_position, checked_zero_free_row


@dataclass(frozen=True)
class EstimateReport:
    """Mean and standard error of a Monte Carlo estimate."""

    mean: float
    stderr: float
    samples: int
    seed: int
    target: Fraction | None = None

    def within_3_sigma(self) -> bool | None:
        if self.target is None:
            return None
        return abs(self.mean - float(self.target)) <= 3 * self.stderr

    def to_json_obj(self) -> dict:
        return {
            "mean": self.mean,
            "stderr": self.stderr,
            "samples": self.samples,
            "seed": self.seed,
            "target": None if self.target is None else rational_to_json(self.target),
        }


# Fewest padded entries, m * (n + m - k), at which a chunk may run on the
# pool.  Below it the per-matrix loop and the draws, which hold the GIL,
# cost as much as the solver, so a second thread only waits for the GIL.
# Wall time of estimate_value with threads=1 over threads=2 (above 1 the
# pool is faster), median of 7 interleaved runs of about 0.25 s each,
# 2-CPU box:
#
#   m x n, k        padded   1 / 2 threads
#   8x8, 8              64   0.88
#   12x12, 12          144   0.75-0.91
#   12x12, 6           216   0.95-0.99
#   16x16, 16          256   1.20-1.40
#   8x40, 8            320   0.94
#   20x20, 20          400   1.41-1.62
#   12x40, 12          480   1.00-1.07
#   8x64, 8            512   0.96
#   2x512, 2          1024   1.10
#   4x256, 4          1024   1.08
#   8x128, 8          1024   1.40
#   32x32, 32         1024   1.39-1.47
#   40x40, 20         2400   1.88
#   100x100, 100     10000   1.72
#
# Square shapes gain from about 256 entries, but shapes with few rows
# still lose or tie up to 512; from 1024 on every shape measured gains.
_POOL_MIN_ENTRIES = 1024


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_SEED_RANGE = (0, 2**64 - 1)  # a seed is a 64-bit nonnegative integer


def substream(seed: int, index: int) -> np.random.Generator:
    """The generator for chunk `index` under `seed`; disjoint by construction."""
    return np.random.Generator(np.random.Philox(key=seed, counter=index << 128))


def _fill_exponential(out: np.ndarray, zero_mask: np.ndarray, gen: np.random.Generator) -> None:
    """Fill `out`, shape (..., m, w), in place with exp(1) draws, zeros at `zero_mask`.

    The draws are -log(U) with U in (0,1]: 1 - random() never hits 0.
    The measure-zero U = 1 collisions are redrawn, so nonzero entries
    stay positive.
    """
    gen.random(out=out)
    np.negative(np.log1p(np.negative(out, out=out), out=out), out=out)
    out[..., zero_mask] = 0.0
    while True:
        bad = (out == 0.0) & ~zero_mask
        if not bad.any():
            return
        out[bad] = -np.log1p(-gen.random(int(bad.sum())))


def _zero_mask(p: RapInstance, width: int) -> np.ndarray:
    """The forced zeros of an m x width matrix: Z, and every column from n on."""
    zero_mask = np.zeros((p.m, width), dtype=bool)
    zero_mask[:, p.n:] = True
    for r, c in p.zeros:
        zero_mask[r, c] = True
    return zero_mask


def sample_matrix(p: RapInstance, rng: int | np.random.Generator) -> SampledMatrix:
    """One realization of the standard RAP: zeros at Z, exp(1) elsewhere."""
    if not isinstance(rng, np.random.Generator):
        rng = substream(checked_int(rng, "seed", *_SEED_RANGE), 0)
    a = np.empty((p.m, p.n))
    _fill_exponential(a, _zero_mask(p, p.n), rng)
    entries = tuple(tuple(float(x) for x in row) for row in a)
    return SampledMatrix(p.m, p.n, entries, source=p.pattern)


_LSAP = "scipy.optimize._lsap"


def _lsap_spec() -> ModuleSpec | None:
    """The spec of scipy's assignment-solver extension, found without importing scipy.

    None when scipy is not installed or lays its files out otherwise.
    """
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        return None
    optimize = os.path.join(scipy.submodule_search_locations[0], "optimize")
    return FileFinder(optimize, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(_LSAP)


def _load_solver() -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """scipy's `linear_sum_assignment`, loaded from its extension module alone.

    Importing scipy.optimize loads 321 scipy modules in 0.4-0.5 s and
    raises peak memory by 48 MB (scipy 1.17.1, 2-CPU x86-64 box), for
    this one function of a C extension that imports no other scipy
    module; the extension loads in under 1 ms, and
    `scipy.optimize.linear_sum_assignment` is its own function object.
    A module already in `sys.modules` is reused.  A module loaded here is
    taken out of it again: there it would stand without its parent
    packages, and a later `import scipy.optimize` would find it and never
    set the package's `_lsap` attribute.  That import makes its own module
    object from CPython's cache of the extension, holding the same
    function.  Where the file is not found, or its module has no such
    callable, the solver comes from scipy.optimize.
    """
    module = sys.modules.get(_LSAP)
    if module is None and (spec := _lsap_spec()) is not None:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules.pop(_LSAP, None)  # CPython registers a single-phase extension while loading it
    solver = getattr(module, "linear_sum_assignment", None)
    if not callable(solver):
        from scipy.optimize import linear_sum_assignment as solver
    return solver


_scipy_lsa: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
_scipy_lsa_lock = threading.Lock()


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy's `linear_sum_assignment(cost)`, loaded on the first call.

    The name is never rebound, so a wrapper installed on it stays in
    place; the solver is kept in `_scipy_lsa` instead.  Pool threads may
    make the first call together, so the load holds `_scipy_lsa_lock`:
    one thread loads the solver, and the others wait for it and then
    call the same function.
    """
    global _scipy_lsa
    if _scipy_lsa is None:
        with _scipy_lsa_lock:
            if _scipy_lsa is None:
                _scipy_lsa = _load_solver()
    return _scipy_lsa(cost)


def _chunk_length(m: int, n: int) -> int:
    """Samples per chunk: min(512, max(1, 2^16 // (m * n))).

    The bound counts m x n entries, but `_draw_chunk` draws the padded
    m x (n + m - k) matrices, so a chunk can draw more than 2^16 values:
    100 x 100 at k=1 draws 6 x 100 x 199 = 119,400 (955 KB), and a shape
    of more than 2^16 entries draws one sample per chunk.  The length stays
    as it is, because every seeded result depends on it.
    """
    return min(512, max(1, 2**16 // (m * n)))


def _draw_chunk(zero_mask: np.ndarray, size: int, gen: np.random.Generator) -> np.ndarray:
    """`size` sampled matrices, each padded with the m - k zero dummy columns.

    `zero_mask` is `_zero_mask(p, n + m - k)`.  A k-assignment of the
    m x n matrix is a full assignment of the padded m x (n + m - k) one:
    the dummy columns absorb the m - k unused rows.  The dummy columns
    are drawn too and then zeroed, so the draw needs no second buffer.
    """
    padded = np.empty((size, *zero_mask.shape))
    _fill_exponential(padded, zero_mask, gen)
    return padded


def _solve_chunk(padded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal column of every row, shape (B, m), and optimal cost, shape (B,)."""
    cols = np.empty(padded.shape[:2], dtype=np.intp)
    for b, matrix in enumerate(padded):
        cols[b] = linear_sum_assignment(matrix)[1]
    # dummy columns hold zeros, so summing every picked entry sums the real ones
    costs = np.take_along_axis(padded, cols[:, :, None], axis=2)[:, :, 0].sum(axis=1)
    return cols, costs


def _run(
    p: RapInstance,
    samples: int,
    seed: int,
    statistic: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    threads: int | None = None,
    csv_out: IO[str] | None = None,
    target: Fraction | None = None,
) -> EstimateReport:
    """Chunked deterministic sampling loop; reports the statistic's mean and stderr.

    `statistic(a, cols, costs)` gives one value per sample of a chunk:
    `a` holds its (B, m, n) sampled matrices, `cols` and `costs` come
    from `_solve_chunk`.  `samples`, `seed` and `threads` are checked,
    and the CSV header written, before anything is drawn.  `threads` caps
    the pool on shapes large enough for one (see `_POOL_MIN_ENTRIES`);
    None means every usable CPU.
    """
    samples = checked_int(samples, "samples", 2)
    seed = checked_int(seed, "seed", *_SEED_RANGE)
    if threads is not None:
        try:
            threads = checked_int(threads, "threads", 1)
        except ValueError:
            raise ValueError(f"threads must be None or a positive integer, got {threads!r}") from None
    if csv_out is not None:
        csv_out.write("sample,cost,statistic\n")
    zero_mask = _zero_mask(p, p.n + p.m - p.k)
    length = _chunk_length(p.m, p.n)
    chunks = -(-samples // length)

    def chunk(j: int) -> tuple[float, float, tuple[np.ndarray, np.ndarray] | None]:
        padded = _draw_chunk(zero_mask, min(length, samples - j * length), substream(seed, j))
        cols, costs = _solve_chunk(padded)
        x = statistic(padded[:, :, : p.n], cols, costs).astype(np.float64)
        return float(x.sum()), float((x * x).sum()), None if csv_out is None else (costs, x)

    workers = 1
    if zero_mask.size >= _POOL_MIN_ENTRIES:
        cpus = _usable_cpus()
        workers = min(cpus if threads is None else threads, chunks, cpus)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(chunk, range(chunks)))
    else:
        results = [chunk(j) for j in range(chunks)]

    grand = 0.0
    grand_sq = 0.0
    for j, (total, total_sq, rows) in enumerate(results):
        grand += total
        grand_sq += total_sq
        if rows is not None:
            costs, x = rows
            csv_out.write("".join(
                f"{i},{cost!r},{value!r}\n"
                for i, cost, value in zip(range(j * length, samples), costs.tolist(), x.tolist())
            ))
    mean = grand / samples
    variance = max(grand_sq - samples * mean * mean, 0.0) / (samples - 1)
    return EstimateReport(mean, math.sqrt(variance / samples), samples, seed, target)


def estimate_value(
    p: RapInstance,
    samples: int,
    seed: int,
    threads: int | None = None,
    csv_out: IO[str] | None = None,
    target: Fraction | None = None,
) -> EstimateReport:
    """Sample mean of the optimal k-assignment cost."""
    return _run(p, samples, seed, lambda a, cols, costs: costs, threads, csv_out, target)


def estimate_row_usage(
    p: RapInstance,
    r: int,
    samples: int,
    seed: int,
    threads: int | None = None,
    csv_out: IO[str] | None = None,
    target: Fraction | None = None,
) -> EstimateReport:
    """Frequency with which the optimal assignment uses zero-free row r."""
    r = checked_zero_free_row(p, r)
    return _run(p, samples, seed, lambda a, cols, costs: cols[:, r] < p.n, threads, csv_out, target)


def estimate_entry_usage(
    p: RapInstance,
    pos: tuple[int, int],
    samples: int,
    seed: int,
    threads: int | None = None,
    csv_out: IO[str] | None = None,
    target: Fraction | None = None,
) -> EstimateReport:
    """Frequency with which a nonzero position is used.

    Its exact value is E(P) - E(P'), where P' has a zero at `pos`; the
    caller passes it as `target`.
    """
    r, c = checked_position(pos)
    if not (0 <= r < p.m and 0 <= c < p.n):
        raise IndexError(f"position {pos} out of range")
    if (r, c) in p.zeros:
        raise ValueError(f"position {pos} is a zero; usage varies across optima")
    return _run(p, samples, seed, lambda a, cols, costs: cols[:, r] == c, threads, csv_out, target)


def estimate_min_entry_usage(
    k: int,
    m: int,
    n: int,
    samples: int,
    seed: int,
    threads: int | None = None,
    csv_out: IO[str] | None = None,
    target: Fraction | None = None,
) -> EstimateReport:
    """Frequency with which the smallest entry of a zero-free instance is used."""
    p = instance(m, n, k)

    def used_min(a: np.ndarray, cols: np.ndarray, costs: np.ndarray) -> np.ndarray:
        r, c = np.divmod(a.reshape(len(a), -1).argmin(axis=1), p.n)
        return cols[np.arange(len(a)), r] == c

    return _run(p, samples, seed, used_min, threads, csv_out, target)
