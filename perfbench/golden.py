"""Record the exact answers of every base instance into ``golden.json``.

Run from the repository root on the commit whose answers are the
reference; the benchmark compares every later commit against them:

    PYTHONPATH=src python3 perfbench/golden.py
"""

from __future__ import annotations

import json
import os
import sys

import ladder


def record(base, slots: set[str]) -> dict:
    from rapkit import cover_formula_value, cover_profile, instance, insert_zero
    from rapkit import min_entry_usage_probability, parisi_value, cs_value, row_inclusion_probability

    p = instance(base.m, base.n, base.k, base.zeros)
    out = {"instance": base.doc()}
    commands = {s.split(".")[0] for s in slots}
    whats = {s.split(".")[1] for s in slots if s.startswith("simulate.")}
    if commands & {"value", "verify", "oracle_trace", "sweep"} or "value" in whats:
        out["value"] = str(cover_formula_value(p))
    if "profile" in commands:
        out["profile"] = cover_profile(p).to_json_obj()["d"]
    if "rowprob" in commands:
        free = [r for r in range(p.m) if all(z[0] != r for z in p.zeros)]
        out["rows"] = {str(r): str(row_inclusion_probability(p, r)) for r in free}
    if "value" in whats:
        out["target"] = out["value"]
    if "row" in whats:
        out["target"] = str(row_inclusion_probability(p, 0))
    if "entry" in whats:
        out["target"] = str(cover_formula_value(p) - cover_formula_value(insert_zero(p, (4, 4))))
    if "min" in whats:
        out["target"] = str(min_entry_usage_probability(p.k, p.m, p.n))
    if "estimate" in commands:
        out["target"] = str(parisi_value(p.k) if p.m == p.n == p.k else cs_value(p.k, p.m, p.n))
    return out


def main() -> int:
    slots_of: dict[str, set[str]] = {}
    bases = {}
    for slots in ladder.pool().values():
        for slot, variants in slots.items():
            for base in variants:
                bases[base.key] = base
                slots_of.setdefault(base.key, set()).add(slot)
    for base in [*ladder.sweep_bases(), *ladder.sweep_classes()]:
        bases[base.key] = base
        slots_of.setdefault(base.key, set()).add("sweep")
    values = {}
    for key, base in bases.items():
        values[key] = record(base, slots_of[key])
        print(key, file=sys.stderr)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
    with open(path, "w", encoding="utf-8") as fh:  # one base per line, for readable diffs
        fh.write(f'{{"pool_seed": {ladder.POOL_SEED}, "values": {{\n')
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(values[k], sort_keys=True)}" for k in sorted(values)))
        fh.write("\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
