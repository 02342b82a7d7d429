"""Check that two perfbench runs fitted the same replicates to the same bits.

Usage:

    python3 tools/same_records.py PARENT.jsonl CHANGE.jsonl

Both files are the standard output of ``perfbench/run.py``.  The script
compares their ``replicate`` records in order, with every float compared
by ``float.hex``.  The fields that hold timings or depend on the trace
setting (``replicate_s``, ``layers``, ``position``, ``spans``) are left
out.  For each record that differs it prints the record's index, then one
line per model whose ``converged``, ``ok``, ``ll`` or ``evals`` differs,
as parent -> change, and the M4 pick when it differs.  It ends with the
number of records compared and of mismatches, with the converged and ok
fit counts of each side, and with each side's mean evals per replicate for
each model: the model's evals summed over the run's replicate records and
divided by their number (a replicate whose ``fit_all`` raised counts, with
no evals), so the models' means add up to perfbench's
``evals_per_replicate``.  Its last line counts the fits converged on both
sides (same record position, same model) and gives the largest |delta ll|
among them, with the record and model where it is.  It exits with 1 on any
mismatch.
"""

from __future__ import annotations

import json
import sys

IGNORED = ("replicate_s", "layers", "position", "spans")
LISTED = ("converged", "ok", "ll", "evals")  # the fit fields printed when they differ


def exact(value):
    """``value`` with every float replaced by its hex form, so == compares bits."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return {k: exact(v) for k, v in value.items()}
    if isinstance(value, list):
        return [exact(v) for v in value]
    return value


def comparable(records: list[dict]) -> list[dict]:
    """The ``replicate`` records of a run, without the IGNORED fields."""
    return [
        {k: v for k, v in r.items() if k not in IGNORED}
        for r in records
        if r.get("kind") == "replicate"
    ]


def replicates(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return comparable([json.loads(line) for line in fh if line.strip()])


def changed_fits(a: dict, b: dict) -> list[str]:
    """One line per model whose listed fields differ, then the M4 pick if it differs."""
    fits_a, fits_b = a.get("models") or {}, b.get("models") or {}
    lines = []
    for model in sorted(set(fits_a) | set(fits_b)):
        fa, fb = fits_a.get(model, {}), fits_b.get(model, {})
        diffs = [
            f"{key} {fa.get(key)!r} -> {fb.get(key)!r}"
            for key in LISTED
            if exact(fa.get(key)) != exact(fb.get(key))
        ]
        if diffs:
            lines.append(f"  {model}: {', '.join(diffs)}")
    if a.get("m4") != b.get("m4"):
        lines.append(f"  M4: {a.get('m4')} -> {b.get('m4')}")
    return lines


def tally(records: list[dict]) -> str:
    fits = [f for r in records for f in (r.get("models") or {}).values()]
    converged = sum(f.get("converged") is True for f in fits)
    ok = sum(f.get("ok") is True for f in fits)
    return f"{converged} of {len(fits)} fits converged, {ok} ok"


def mean_evals(records: list[dict]) -> str:
    """Each model's evals per replicate record, as "M1 390.0, M2 241.5"."""
    fits = [r.get("models") or {} for r in records]
    models = sorted({m for f in fits for m in f})
    return ", ".join(
        f"{m} {sum(f[m].get('evals', 0) for f in fits if m in f) / len(records):.1f}"
        for m in models
    )


def converged_drift(parent: list[dict], change: list[dict]) -> str:
    """Fits converged on both sides: their count and the largest |delta ll|."""
    pairs = []
    for i, (a, b) in enumerate(zip(parent, change)):
        fits_b = b.get("models") or {}
        for model, fa in (a.get("models") or {}).items():
            fb = fits_b.get(model, {})
            if fa.get("converged") is True and fb.get("converged") is True:
                pairs.append((abs(fb["ll"] - fa["ll"]), i, model))
    line = f"converged on both sides: {len(pairs)} fits"
    if pairs:
        drift, i, model = max(pairs)
        line += f", largest |delta ll| {drift:.3g} (record {i}, {model})"
    return line


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/same_records.py PARENT.jsonl CHANGE.jsonl", file=sys.stderr)
        return 2
    parent, change = (replicates(p) for p in argv)
    mismatches = abs(len(parent) - len(change))
    for i, (a, b) in enumerate(zip(parent, change)):
        if exact(a) != exact(b):
            mismatches += 1
            print(f"replicate record {i} (index {a.get('index')}) differs")
            for line in changed_fits(a, b):
                print(line)
    print(f"{len(parent)} vs {len(change)} replicate records, {mismatches} mismatches")
    print(f"parent: {tally(parent)}; change: {tally(change)}")
    print(f"mean evals per replicate: parent {mean_evals(parent)}; change {mean_evals(change)}")
    print(converged_drift(parent, change))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
