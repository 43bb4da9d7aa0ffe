"""Compare two simulated-statistics records: did a change alter a simulated result?

    python3 perfbench/simstats.py OLD.simstats.json NEW.simstats.json

Both records come from run.py with the same workload and seed, so op i has
the same input in both. Ops present in both are compared. Simulated values
(probabilities, estimates, leakage, amplitudes) must agree within 1e-12.
Exact counts (gate records, kernel calls, controlled-U applications) are
listed where they differ, since a speed change may legitimately change them.
Exit status 0 when every value agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

TOL = 1e-12


def _value_diffs(path: str, a, b, out: list) -> None:
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append((path, f"length {len(a)} != {len(b)}"))
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _value_diffs(f"{path}[{i}]", x, y, out)
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if not (abs(a - b) <= TOL or (math.isnan(a) and math.isnan(b))):
            out.append((path, f"{a!r} != {b!r} (|diff| {abs(a - b):.3e})"))
    elif a != b:
        out.append((path, f"{a!r} != {b!r}"))


def compare(old: dict, new: dict) -> tuple[list, list, int]:
    """(value differences, count differences, ops compared)."""
    if (old["workload"], old["seed"]) != (new["workload"], new["seed"]):
        raise ValueError("records come from different workloads or seeds")
    new_ops = {rec["op"]: rec for rec in new["ops"]}
    values, counts, compared = [], [], 0
    for a in old["ops"]:
        b = new_ops.get(a["op"])
        if b is None:
            continue
        compared += 1
        where = f"op {a['op']} ({a['label']})"
        if a.get("failed") or b.get("failed"):
            if a.get("failed") != b.get("failed"):
                values.append((where, "failed in one record only"))
            continue
        for key in sorted(set(a["values"]) | set(b["values"])):
            _value_diffs(f"{where} {key}", a["values"].get(key), b["values"].get(key),
                         values)
        ca, cb = a.get("counts", {}), b.get("counts", {})
        for key in sorted(set(ca) & set(cb)):
            if ca[key] != cb[key]:
                counts.append((f"{where} {key}", f"{ca[key]} -> {cb[key]}"))
    return values, counts, compared


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old")
    p.add_argument("new")
    args = p.parse_args(argv)
    with open(args.old) as fa, open(args.new) as fb:
        values, counts, compared = compare(json.load(fa), json.load(fb))
    for where, what in counts:
        print(f"count changed: {where}: {what}")
    for where, what in values:
        print(f"VALUE DIFFERS: {where}: {what}")
    print(f"{compared} ops compared, {len(values)} value differences beyond {TOL:g}, "
          f"{len(counts)} count changes")
    return 1 if values or not compared else 0


if __name__ == "__main__":
    sys.exit(main())
