"""Check that two perfbench runs fitted the same replicates to the same bits.

Usage:

    python3 tools/same_records.py PARENT.jsonl CHANGE.jsonl

Both files are the standard output of ``perfbench/run.py``.  The script
compares their ``replicate`` records in order, with every float compared
by ``float.hex``.  The fields that hold timings or depend on the trace
setting (``replicate_s``, ``layers``, ``position``, ``spans``) are left
out.  It prints the number of records compared and of mismatches, with the
index of each record that differs, and exits with 1 on any mismatch.
"""

from __future__ import annotations

import json
import sys

IGNORED = ("replicate_s", "layers", "position", "spans")


def exact(value):
    """``value`` with every float replaced by its hex form, so == compares bits."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return {k: exact(v) for k, v in value.items()}
    if isinstance(value, list):
        return [exact(v) for v in value]
    return value


def replicates(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return [
        exact({k: v for k, v in r.items() if k not in IGNORED})
        for r in records
        if r.get("kind") == "replicate"
    ]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/same_records.py PARENT.jsonl CHANGE.jsonl", file=sys.stderr)
        return 2
    parent, change = (replicates(p) for p in argv)
    mismatches = abs(len(parent) - len(change))
    for i, (a, b) in enumerate(zip(parent, change)):
        if a != b:
            mismatches += 1
            print(f"replicate record {i} (index {a.get('index')}) differs")
    print(f"{len(parent)} vs {len(change)} replicate records, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
