"""Compare the per-op outputs of two benchmark runs.

    python3 perfbench/compare.py OLD.ops.jsonl NEW.ops.jsonl

Both files come from ``run.py`` with the same workload and seed (for
example on a parent and a child commit).  Ops are compared on the prefix
both runs reached: a verdict that flips, or a value (ratio, bound, integral)
that moves by more than 1e-12 relative to max(1, |value|), is reported.
Exit code 0 when nothing differs, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys

REL_TOL = 1e-12


def _load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def _flatten(values) -> list:
    if isinstance(values, list):
        return [x for v in values for x in _flatten(v)]
    return [values]


def _same(a, b) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))
    return a == b


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (_load(p) for p in argv)
    common = min(len(old), len(new))
    diffs = []
    for a, b in zip(old[:common], new[:common]):
        if a["ok"] != b["ok"]:
            diffs.append(f"op {a['op']}: verdict {a['ok']} -> {b['ok']}")
            continue
        va, vb = _flatten(a["values"]), _flatten(b["values"])
        if len(va) != len(vb) or not all(map(_same, va, vb)):
            diffs.append(f"op {a['op']}: values {va} -> {vb}")
    print(f"compared {common} ops ({len(old)} vs {len(new)} run): "
          f"{len(diffs)} differ")
    for line in diffs[:20]:
        print(line)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
