"""The instance ladder of each workload: fixed base instances, seeded relabelling.

Every workload is a sequence of *passes*.  A pass has a fixed composition,
one op per *slot*, and a slot's op in pass ``p`` is built from variant
``p % len(variants)`` of the slot's base instances.  The bases come from a
fixed pool, generated here from ``POOL_SEED`` and recorded with their exact
answers in ``golden.json``.

The run's ``--seed`` changes the inputs without changing the work: each
op relabels its base instance by a seeded row and column permutation
(values and cover profiles are invariant under relabelling), Monte Carlo
ops get seeded sampling seeds and the solver's matrices are drawn from the
seed.  Every seed therefore answers the same ladder, so run-to-run spread
measures the machine, not the inputs.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass, field

POOL_SEED = 20030314

WORKLOADS = ("exact", "oracle", "sweep", "simulate", "solve")

# The ladder is fixed work: --seconds sets its number of passes, chosen so
# that the seed commit needs about that long (its pass times, on a 2-CPU box).
NOMINAL_PASS_SECONDS = {"exact": 3.0, "oracle": 4.0, "simulate": 1.5, "solve": 0.55, "sweep": 1.5}


@dataclass(frozen=True)
class Base:
    """A base instance (m, n, k, zeros) named by its golden key."""

    key: str
    m: int
    n: int
    k: int
    zeros: tuple[tuple[int, int], ...] = ()

    def doc(self) -> dict:
        return {"m": self.m, "n": self.n, "k": self.k, "zeros": [list(z) for z in self.zeros]}


@dataclass
class Op:
    """One timed operation and everything its checker needs."""

    id: str
    slot: str
    pass_index: int
    kind: str  # "cli" | "sweep" | "estimate" | "solve"
    base: str | None = None
    inst: dict | None = None  # the relabelled instance document
    argv: list[str] = field(default_factory=list)  # CLI args; "{inst}" etc. are filled in later
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Base pool
# ---------------------------------------------------------------------------

# Zero-free (m, n, k) variants of the exact workload's zero-free slots: a
# zero-free instance cannot be relabelled, so each pass takes the next one.
# The variants of a slot cost about the same.
_ZF_SQUARE = [(8, 8, 8), (8, 8, 7), (9, 9, 7), (9, 9, 6), (8, 8, 6), (7, 7, 7), (7, 7, 6)]
_ZF_PROFILE = [(11, 12, 8), (12, 11, 8), (10, 11, 9), (10, 13, 8), (13, 10, 8), (9, 12, 9), (12, 9, 9)]
_ZF_RECT = [(10, 12, 8), (12, 9, 8), (11, 11, 8), (10, 11, 8), (11, 10, 8), (9, 13, 8), (13, 9, 8)]
_ZF_ROW = [(12, 10, 9), (10, 12, 9), (11, 9, 8), (9, 11, 8), (12, 12, 10), (11, 11, 10), (10, 10, 8)]


def _random_zeros(rng: random.Random, m: int, n: int, density: float) -> tuple:
    return tuple((r, c) for r in range(m) for c in range(n) if rng.random() < density)


def _band(length: int, offset: int) -> tuple:
    """A staircase of zeros: one connected component of 2*length zeros."""
    return tuple(sorted({(i, i + offset) for i in range(length)} | {(i, i + offset + 1) for i in range(length)}))


def _sparse(rng: random.Random, key: str, m: int, k: int, need_free_row: bool) -> Base:
    while True:
        zeros = _random_zeros(rng, m, m, 0.15)
        rows = {r for r, _ in zeros}
        if len(zeros) >= m and (not need_free_row or len(rows) < m):
            return Base(key, m, m, k, zeros)


def _nontrivial_3x3_classes() -> list[Base]:
    """One representative per isomorphism class of 3x3 instances with oracle work."""
    reps: dict = {}
    perms = list(itertools.permutations(range(3)))
    for bits in range(512):
        zeros = tuple((i // 3, i % 3) for i in range(9) if bits >> i & 1)
        for k in (1, 2, 3):
            if _matching(zeros) >= k:
                continue
            canon = min(tuple(sorted((r[a], c[b]) for a, b in zeros)) for r in perms for c in perms)
            reps.setdefault((k, canon), (k, canon))
    return [Base(f"c3.{i}", 3, 3, k, z) for i, (k, z) in enumerate(sorted(reps))]


def _matching(zeros) -> int:
    """Maximum number of independent zeros (tiny patterns only)."""
    best = 0
    zs = list(zeros)
    for size in range(1, len(zs) + 1):
        found = False
        for sub in itertools.combinations(zs, size):
            if len({r for r, _ in sub}) == size and len({c for _, c in sub}) == size:
                found = True
                break
        if not found:
            break
        best = size
    return best


def pool() -> dict[str, dict[str, list[Base]]]:
    """Per workload, each slot's base instances; pass p uses variant p % len."""
    rng = random.Random(POOL_SEED)

    def zero_free(name: str, triples) -> list[Base]:
        return [Base(f"e.{name}.{m}x{n}k{k}", m, n, k) for m, n, k in triples]

    def nontrivial(m: int, k: int, density: float, keep=lambda z: True) -> tuple:
        """Random zeros, with fewer than k independent ones so the value is not 0."""
        while True:
            zeros = tuple(z for z in _random_zeros(rng, m, m, density) if keep(z))
            if _matching(zeros) < k:
                return zeros

    exact = {
        "value.zf_square": zero_free("zf_square", _ZF_SQUARE),
        "profile.zf_mid": zero_free("zf_mid", _ZF_PROFILE),
        "value.zf_rect": zero_free("zf_rect", _ZF_RECT),
        "rowprob.zf": zero_free("zf_row", _ZF_ROW),
        "value.sparse_9x9": [_sparse(rng, "e.sparse9", 9, 9, False)],
        "profile.sparse_10x10": [_sparse(rng, "e.sparse10p", 10, 10, False)],
        "rowprob.sparse_10x10": [_sparse(rng, "e.sparse10r", 10, 10, True)],
        "value.band_10x10": [Base("e.band", 10, 10, 10, _band(6, 1))],
    }

    oracle: dict[str, list[Base]] = {}
    for c in _nontrivial_3x3_classes():
        oracle[f"verify.3x3.{c.key}"] = [c]
        if c.zeros:  # a zero-free instance has one labelling; two ops would repeat it
            oracle[f"oracle_trace.3x3.{c.key}"] = [c]
    oracle["verify.4x4_k4_0z"] = [Base("o.4x4_0z", 4, 4, 4)]
    oracle["verify.4x4_k4_1z"] = [Base("o.4x4_1z", 4, 4, 4, ((0, 0),))]
    oracle["oracle_trace.4x4_k4_2z"] = [Base("o.4x4_2z", 4, 4, 4, ((0, 0), (1, 2)))]
    oracle["verify.4x5_k4_1z"] = [Base("o.4x5_1z", 4, 5, 4, ((0, 0),))]
    oracle["oracle_trace.5x5_k3_1z"] = [Base("o.5x5_k3_1z", 5, 5, 3, ((0, 0),))]
    oracle["verify.5x5_k4_diag2"] = [Base("o.5x5_k4_diag2", 5, 5, 4, ((0, 0), (1, 1)))]

    simulate = {
        "simulate.value.3x3": [Base("s.3x3", 3, 3, 2, nontrivial(3, 2, 0.3))],
        "simulate.row.4x4": [Base("s.4x4", 4, 4, 3, nontrivial(4, 3, 0.25, lambda z: z[0] != 0))],
        "simulate.entry.5x5": [Base("s.5x5", 5, 5, 3, nontrivial(5, 3, 0.2, lambda z: z != (4, 4)))],
        "simulate.min.6x6": [Base("s.6x6", 6, 6, 4)],
        "simulate.value.8x8.csv": [Base("s.8x8", 8, 8, 6, nontrivial(8, 6, 0.15))],
        "estimate.40x40_k20": [Base("s.40x40", 40, 40, 20)],
        "estimate.100x100_k100": [Base("s.100x100", 100, 100, 100)],
    }
    return {"exact": exact, "oracle": oracle, "simulate": simulate}


def sweep_bases() -> list[Base]:
    """Every 2x2 and 3x3 zero pattern with every k, in enumeration order."""
    bases = []
    for m in (2, 3):
        for bits in range(2 ** (m * m)):
            zeros = tuple((i // m, i % m) for i in range(m * m) if bits >> i & 1)
            for k in range(1, m + 1):
                bases.append(Base(f"w{m}.{bits}.{k}", m, m, k, zeros))
    return bases


# ---------------------------------------------------------------------------
# Per-run op generation
# ---------------------------------------------------------------------------

SOLVE_SIZES = [(10, 10, 10), (20, 20, 20), (40, 40, 40), (40, 40, 20)]
SOLVE_TIES = [(5, 5, 3), (5, 6, 4), (6, 6, 3), (6, 5, 4)]

_SAMPLES = {
    "simulate.value.3x3": 8000,
    "simulate.row.4x4": 6000,
    "simulate.entry.5x5": 6000,
    "simulate.min.6x6": 4000,
    "simulate.value.8x8.csv": 4000,
    "estimate.40x40_k20": 600,
    "estimate.100x100_k100": 300,
}


def pass_count(workload: str, seconds: float) -> int:
    """Passes in a run of the given nominal length."""
    passes = max(1, round(seconds / NOMINAL_PASS_SECONDS[workload]))
    # The sweep's pass 0 is the 2x2 and 3x3 enumeration, answered once.
    return passes + 1 if workload == "sweep" else passes


def relabel(base: Base, rng: random.Random) -> tuple[dict, list[int], list[int]]:
    """The base with rows and columns permuted; returns (doc, row map, col map)."""
    rows = list(range(base.m))
    cols = list(range(base.n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    zeros = sorted((rows[r], cols[c]) for r, c in base.zeros)
    doc = {"m": base.m, "n": base.n, "k": base.k, "zeros": [list(z) for z in zeros]}
    return doc, rows, cols


def _pass_rng(seed: int, workload: str, pass_index: int) -> random.Random:
    return random.Random(f"{seed}/{workload}/{pass_index}")


def pass_ops(workload: str, seed: int, pass_index: int, seconds: float, bases=None,
             seen: set[str] | None = None) -> list[Op]:
    """The ops of one pass; a pure function of its arguments.

    ``seen`` holds the inputs of the run's earlier passes and is updated.
    An op whose base has no labelling left unseen (a zero-free instance
    after its first pass, say) is left out of later passes.
    """
    rng = _pass_rng(seed, workload, pass_index)
    seen = set() if seen is None else seen
    if workload == "sweep":
        return _sweep_ops(rng, pass_index, seen)
    if workload == "solve":
        return _solve_ops(rng, pass_index)
    bases = pool() if bases is None else bases
    ops = []
    for slot, variants in bases[workload].items():
        base = variants[pass_index % len(variants)]
        for _ in range(RELABEL_TRIES):
            op = _op(slot, base, pass_index, rng)
            # A Monte Carlo op's input is its instance and its sampling seed.
            key = json.dumps([op.inst, op.params.get("seed")])
            if key not in seen:
                seen.add(key)
                ops.append(op)
                break
    return ops


RELABEL_TRIES = 64


def _op(slot: str, base: Base, pass_index: int, rng: random.Random) -> Op:
    doc, rows, cols = relabel(base, rng)
    command = slot.split(".")[0]
    op = Op(f"{pass_index}.{slot}", slot, pass_index, "cli", base.key, doc)
    if command in ("value", "profile"):
        op.argv = [command, "{inst}"]
    elif command == "rowprob":
        free = [r for r in range(base.m) if all(z[0] != r for z in base.zeros)]
        base_row = free[rng.randrange(len(free))]
        op.params = {"base_row": base_row}
        op.argv = ["rowprob", "{inst}", "--row", str(rows[base_row])]
    elif command == "verify":
        op.argv = ["verify", "{inst}"]
    elif command == "oracle_trace":
        op.argv = ["oracle", "{inst}", "--trace", "{trace}"]
    elif command == "simulate":
        what = slot.split(".")[1]
        samples = _SAMPLES[slot]
        mc_seed = rng.getrandbits(63)
        op.argv = ["simulate", "{inst}", "--what", what, "--samples", str(samples), "--seed", str(mc_seed)]
        op.params = {"samples": samples, "seed": mc_seed}
        if what == "row":
            op.params["base_row"] = 0  # the 4x4 base keeps row 0 zero-free
            op.argv += ["--row", str(rows[0])]
        elif what == "entry":
            op.params["base_pos"] = [4, 4]  # the 5x5 base keeps (4, 4) nonzero
            op.argv += ["--pos", str(rows[4]), str(cols[4])]
        if slot.endswith(".csv"):
            op.argv += ["--csv", "{csv}"]
    elif command == "estimate":
        op.kind = "estimate"
        op.params = {"samples": _SAMPLES[slot], "seed": rng.getrandbits(63)}
    else:
        raise ValueError(f"unknown slot {slot!r}")
    return op


def _sweep_ops(rng: random.Random, pass_index: int, seen: set[str]) -> list[Op]:
    """Pass 0: every 2x2 and 3x3 pattern and k.  Later passes: every 4x4 class.

    Pass 0 relabels every instance of a size by one row and one column
    permutation, so it answers the whole enumeration in a seeded order.
    Each later pass answers every 4x4 class in a fixed order, each instance
    relabelled afresh; a class with no labelling left unseen (no zeros or
    all zeros, after its first pass) is left out.
    """
    if pass_index == 0:
        labels = {}
        for m in (2, 3):
            rows, cols = list(range(m)), list(range(m))
            rng.shuffle(rows)
            rng.shuffle(cols)
            labels[m] = (rows, cols)
        ops = []
        for b in sweep_bases():
            rows, cols = labels[b.m]
            doc = {"m": b.m, "n": b.n, "k": b.k, "zeros": sorted([rows[r], cols[c]] for r, c in b.zeros)}
            seen.add(json.dumps([doc, None]))
            ops.append(Op(f"0.{b.key}", b.key, 0, "sweep", b.key, doc))
        return ops
    ops = []
    for base in sweep_classes():
        for _ in range(RELABEL_TRIES):
            doc, _, _ = relabel(base, rng)
            key = json.dumps([doc, None])
            if key not in seen:
                seen.add(key)
                ops.append(Op(f"{pass_index}.{base.key}", base.key, pass_index, "sweep", base.key, doc))
                break
    return ops


@functools.lru_cache(maxsize=1)
def sweep_classes() -> tuple[Base, ...]:
    """One 4x4 instance per zero pattern up to row and column permutation,
    for each k = 2..4, in an order fixed by the pool seed."""
    perms = list(itertools.permutations(range(4)))
    moved = [[sum(1 << p[c] for c in range(4) if mask >> c & 1) for mask in range(16)] for p in perms]
    classes = set()
    for rows in itertools.combinations_with_replacement(range(16), 4):
        classes.add(min(tuple(sorted(table[r] for r in rows)) for table in moved))
    patterns = sorted(tuple((i, c) for i, mask in enumerate(rows) for c in range(4) if mask >> c & 1)
                      for rows in classes)
    pairs = [(zeros, k) for zeros in patterns for k in (2, 3, 4)]
    random.Random(f"{POOL_SEED}/sweep").shuffle(pairs)
    return tuple(Base(f"w4.{i}", 4, 4, k, zeros) for i, (zeros, k) in enumerate(pairs))


def _solve_ops(rng: random.Random, pass_index: int) -> list[Op]:
    ops = []
    for m, n, k in SOLVE_SIZES:
        slot = f"solve.{m}x{n}_k{k}"
        params = {"m": m, "n": n, "k": k, "seed": rng.getrandbits(63)}
        ops.append(Op(f"{pass_index}.{slot}", slot, pass_index, "solve", params=params))
    for m, n, k in SOLVE_TIES:
        slot = f"solve.ties_{m}x{n}_k{k}"
        matrix = [[rng.randrange(3) for _ in range(n)] for _ in range(m)]
        params = {"m": m, "n": n, "k": k, "matrix": matrix}
        ops.append(Op(f"{pass_index}.{slot}", slot, pass_index, "solve", params=params))
    return ops
