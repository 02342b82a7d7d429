"""Fit replicates of every preset once, and compare two such panels fit by fit.

Usage, from the repository root:

    python3 tools/preset_panel.py --n N --replicates R [--starts S] --out F.json
    python3 tools/preset_panel.py --compare A.json B.json
    python3 tools/preset_panel.py --reference OUT.json A.json [B.json ...]

The script imports ``exhaz`` from the ``src/`` next to this directory, so
to panel a checkout, run that checkout's own script.  The first form runs
``run_study`` on every preset of ``builtin_scenarios`` at size N with R
replicates (0 .. R-1, drop-out calibrated once per preset) and ``S``
starts per fit (``FitConfig(multi_starts=S-1)``, default 1).  From the
study's records it writes a JSON list with one row per fit: ``preset``,
``replicate``, ``starts``, ``model``, ``converged``, ``ll`` (the
comparable scale), ``evals``, ``grad_max_norm``, ``decrement``,
``min_eig``, ``at_bound`` (the names of the parameters on the search
box's edge) and ``notes`` (the fit's notes). A replicate whose
``fit_all`` raises gives one row per model with ``converged`` false,
null values, and the ``error``.

The second form pairs the rows of two such files by preset, replicate and
model. It prints each fit whose ``converged`` flag flipped or whose ll
moved by more than 1e-6, with both gradient max-norms and, on a second
line, both decrements, smallest eigenvalues and bound hits, and on one line
per side that side's notes (each when the rows hold them). Then, for each
side, it prints the fits converged and the total evals, overall and per
model, and last the number of fits converged in A and not in B. It exits
with 1 when it lists a fit or when the two files do not hold the same
fits, so an unchanged panel is a zero exit.

The third form writes a reference of the best certified end of every fit
found in the panels A, B, ...: a row is certified when it is converged
with a gradient max-norm below 1, and the reference keeps, per fit, the
certified row with the highest ll and the panel file that gave it (the
first file listed wins a tie). A fit that no panel certifies has no entry.
``--compare PANEL OUT.json`` then prints, per model, the panel's certified
fits more than 1e-6 below the reference, each with its gap, and how many
of them are more than 1e-3 below; last, the certified fits that lie above
the reference by more than 1e-6 or that it lacks.  It exits with 1 when
there is any such fit, so a panel that finds a higher certified end does
not leave the reference stale unnoticed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from exhaz.estimation import FitConfig  # noqa: E402
from exhaz.likelihoods import MODELS  # noqa: E402
from exhaz.simulation import builtin_scenarios, run_study  # noqa: E402

MOVE_TOL = 1e-6  # an ll that moves by more is listed
GAP_TOL = 1e-3  # a certified fit this far below the reference is counted apart
CERTIFIED_NORM = 1.0  # a converged end certifies only with a gradient max-norm below this


def panel(n: int, replicates: int, starts: int = 1) -> list[dict]:
    """The rows of every fit of replicates 0 .. replicates-1 of every preset at
    size n, each the best of ``starts`` starts."""
    fields = ("converged", "ll", "evals", "grad_max_norm", "decrement", "min_eig", "at_bound",
              "notes")
    rows = []
    for preset, sc in builtin_scenarios().items():
        sc = replace(sc, n=n, n_replicates=replicates, fit=FitConfig(multi_starts=starts - 1))
        for record in run_study(sc).records:
            key = {"preset": preset, "replicate": record["index"], "starts": starts}
            if record["error"] is not None:
                failed = {**dict.fromkeys(fields), "converged": False, "error": record["error"]}
                rows += [{**key, "model": model, **failed} for model in MODELS]
            else:
                rows += [{**key, "model": model, **{f: row[f] for f in fields}}
                         for model, row in record["models"].items()]
        print(f"{preset}: {replicates} replicates", file=sys.stderr, flush=True)
    return rows


def _moved(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is not b
    return abs(b - a) > MOVE_TOL


def _fmt(value: float | None, spec: str) -> str:
    return "None" if value is None else format(value, spec)


def _fmt_bound(names: list[str] | None) -> str:
    return "None" if names is None else ", ".join(names) or "-"


def _converged_and_evals(rows: list[dict]) -> str:
    converged = sum(r["converged"] for r in rows)
    return f"{converged} of {len(rows)} fits converged, {sum(r['evals'] or 0 for r in rows)} evals"


def _key(row: dict) -> tuple:
    return row["preset"], row["replicate"], row["model"]


def _keyed(rows: list[dict]) -> dict[tuple, dict]:
    return {_key(r): r for r in rows}


def _certified(row: dict) -> bool:
    return bool(row["converged"]) and row["grad_max_norm"] < CERTIFIED_NORM


def reference(panels: dict[str, list[dict]]) -> dict:
    """The best certified end of every fit over the panels, each keyed by its file's path."""
    best: dict[tuple, dict] = {}
    for source, rows in panels.items():
        for row in filter(_certified, rows):
            key = _key(row)
            if key not in best or row["ll"] > best[key]["ll"]:
                best[key] = {**row, "source": source}
    return {
        "rule": f"per fit, the highest ll among rows converged with grad_max_norm < "
                f"{CERTIFIED_NORM:g}; the first file listed wins a tie",
        "sources": list(panels),
        "fits": [best[key] for key in sorted(best)],
    }


def compare_reference(rows: list[dict], ref: dict) -> int:
    """Print the panel's certified fits below the reference, per model, and those above it;
    1 when any lies above it or is missing from it."""
    best = _keyed(ref["fits"])
    below: dict[str, list] = {model: [] for model in MODELS}
    above = 0
    for row in sorted(filter(_certified, rows), key=_key):
        top = best.get(_key(row))
        if top is None or row["ll"] - top["ll"] > MOVE_TOL:
            above += 1
        elif top["ll"] - row["ll"] > MOVE_TOL:
            below[row["model"]].append((top["ll"] - row["ll"], row, top))
    for model, fits in below.items():
        gaps = [gap for gap, _, _ in fits]
        print(f"{model}: {len(fits)} certified fits more than {MOVE_TOL:g} below the reference, "
              f"{sum(gap > GAP_TOL for gap in gaps)} more than {GAP_TOL:g}, "
              f"gaps summing to {sum(gaps):.6g}")
        for gap, row, top in fits:
            print(f"    {row['preset']} r{row['replicate']}: ll {row['ll']:.6f}, reference "
                  f"{top['ll']:.6f} from {top['source']}, gap {gap:.3g}")
    print(f"certified fits above the reference by more than {MOVE_TOL:g} "
          f"or missing from it: {above}")
    return 1 if above else 0


def compare(a: list[dict], b: list[dict]) -> int:
    """Print the fits that differ between panels a and b and each side's totals;
    1 when a fit is listed or the panels hold different fits, else 0."""
    rows_a, rows_b = _keyed(a), _keyed(b)
    if rows_a.keys() != rows_b.keys():
        print(f"the panels hold different fits: {len(rows_a)} vs {len(rows_b)}, "
              f"{len(rows_a.keys() & rows_b.keys())} in both")
        return 1
    listed = 0
    for key in sorted(rows_a):
        fa, fb = rows_a[key], rows_b[key]
        if fa["converged"] != fb["converged"] or _moved(fa["ll"], fb["ll"]):
            listed += 1
            preset, index, model = key
            print(f"{preset} r{index} {model}: converged {fa['converged']} -> {fb['converged']}, "
                  f"ll {_fmt(fa['ll'], '.6f')} -> {_fmt(fb['ll'], '.6f')}, "
                  f"grad max-norm {_fmt(fa['grad_max_norm'], '.3g')} -> "
                  f"{_fmt(fb['grad_max_norm'], '.3g')}")
            if "decrement" in fa or "decrement" in fb:  # rows written before these fields lack them
                print(f"    decrement {_fmt(fa.get('decrement'), '.3g')} -> "
                      f"{_fmt(fb.get('decrement'), '.3g')}, "
                      f"min_eig {_fmt(fa.get('min_eig'), '.3g')} -> {_fmt(fb.get('min_eig'), '.3g')}, "
                      f"at bound {_fmt_bound(fa.get('at_bound'))} -> {_fmt_bound(fb.get('at_bound'))}")
            if "notes" in fa or "notes" in fb:
                for side, row in (("A", fa), ("B", fb)):
                    notes = row.get("notes")
                    print(f"    notes {side}: {'None' if notes is None else ' | '.join(notes) or '-'}")
    for side, rows in (("A", a), ("B", b)):
        print(f"{side}: {_converged_and_evals(rows)}")
        for model in MODELS:
            print(f"    {model}: {_converged_and_evals([r for r in rows if r['model'] == model])}")
    lost = sum(rows_a[k]["converged"] and not rows_b[k]["converged"] for k in rows_a)
    print(f"converged in A, not in B: {lost} fits")
    return 1 if listed else 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int)
    ap.add_argument("--replicates", type=int)
    ap.add_argument("--starts", type=int, default=1)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), type=Path)
    ap.add_argument("--reference", nargs="+", metavar=("OUT", "PANEL"), type=Path)
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        return compare_reference(a, b) if isinstance(b, dict) else compare(a, b)
    if args.reference:
        if len(args.reference) < 2:
            ap.error("--reference takes OUT and at least one panel file")
        out, *paths = args.reference
        ref = reference({str(p): json.loads(p.read_text(encoding="utf-8")) for p in paths})
        out.write_text(json.dumps(ref, indent=0) + "\n", encoding="utf-8")
        return 0
    if args.n is None or args.replicates is None or args.out is None:
        ap.error("--n, --replicates and --out are required without --compare or --reference")
    if args.n < 1 or args.replicates < 1 or args.starts < 1:
        ap.error("--n, --replicates and --starts must be >= 1")
    rows = panel(args.n, args.replicates, args.starts)
    args.out.write_text(json.dumps(rows, indent=0) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
