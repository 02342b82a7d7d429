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
fit counts of each side, with the largest relative change |change -
parent| / |parent| of any estimate among the fits converged on both sides
whose records hold estimates (named as ``ParamLayout`` names it over
perfbench's covariates; the script imports ``exhaz`` from the ``src/``
next to this directory), and with each side's mean evals per replicate
for each model: the model's evals summed over the run's replicate records
and divided by their number (a replicate whose ``fit_all`` raised counts,
with no evals), so the models' means add up to perfbench's
``evals_per_replicate``.  Its last two lines count the fits whose ll fell
by more than 1e-6 from parent to change, whatever their flags, with the
largest drop; and the fits converged on both sides, with the largest
|delta ll| among them.  These three lines pair fits by record position
and model and name the record and model of their largest value.  It
exits with 1 on any mismatch.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from exhaz.likelihoods import ParamLayout  # noqa: E402
from exhaz.simulation import COVARIATES  # noqa: E402

IGNORED = ("replicate_s", "layers", "position", "spans")
LISTED = ("converged", "ok", "ll", "evals")  # the fit fields printed when they differ
DROP_TOL = 1e-6  # an ll that falls by more is counted as a drop


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


def fit_pairs(parent: list[dict], change: list[dict]):
    """(record position, model, parent fit, change fit) of every model fitted on both sides."""
    for i, (a, b) in enumerate(zip(parent, change)):
        fits_b = b.get("models") or {}
        for model, fa in (a.get("models") or {}).items():
            if model in fits_b:
                yield i, model, fa, fits_b[model]


def largest(label: str, found: list[tuple], what: str) -> str:
    """The line "<label>: N fits", then the largest value with where it is:
    each entry of ``found`` is (value, record, model, ...names)."""
    line = f"{label}: {len(found)} fits"
    if found:
        value, i, *names = max(found)
        line += f", largest {what} {value:.3g} (record {i}, {', '.join(names)})"
    return line


def ll_drops(parent: list[dict], change: list[dict]) -> str:
    """Fits whose ll fell by more than DROP_TOL, converged or not: count and largest drop."""
    drops = [
        (fa["ll"] - fb["ll"], i, model)
        for i, model, fa, fb in fit_pairs(parent, change)
        if fa["ll"] - fb["ll"] > DROP_TOL
    ]
    return largest(f"ll fell by more than {DROP_TOL:g}", drops, "drop")


def converged_drift(parent: list[dict], change: list[dict]) -> str:
    """Fits converged on both sides: their count and the largest |delta ll|."""
    pairs = [
        (abs(fb["ll"] - fa["ll"]), i, model)
        for i, model, fa, fb in fit_pairs(parent, change)
        if fa.get("converged") is True and fb.get("converged") is True
    ]
    return largest("converged on both sides", pairs, "|delta ll|")


def relative_change(a: float, b: float) -> float:
    """|b - a| / |a|; 0 when both are 0, inf when only a is."""
    if a == 0.0:
        return 0.0 if b == 0.0 else math.inf
    return abs(b - a) / abs(a)


def estimate_drift(parent: list[dict], change: list[dict]) -> str:
    """Fits converged on both sides, with estimates on both: the largest
    relative change of an estimate, with its record, model and parameter."""
    found = []
    for i, model, fa, fb in fit_pairs(parent, change):
        both = fa.get("converged") is True and fb.get("converged") is True
        if both and "estimates" in fa and "estimates" in fb:
            names = ParamLayout.for_model(model, COVARIATES).names
            found.append(max(
                (relative_change(a, b), i, model, name)
                for name, a, b in zip(names, fa["estimates"], fb["estimates"])
            ))
    return largest("estimates converged on both sides", found, "relative change")


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
    print(estimate_drift(parent, change))
    print(f"mean evals per replicate: parent {mean_evals(parent)}; change {mean_evals(change)}")
    print(ll_drops(parent, change))
    print(converged_drift(parent, change))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
