"""Fit replicates of every preset once, and compare two such panels fit by fit.

Usage, from the repository root:

    python3 tools/preset_panel.py TREE --n N --replicates R --out F.json
    python3 tools/preset_panel.py --compare A.json B.json

The first form imports ``exhaz`` from ``TREE/src`` and runs ``fit_all`` on
replicates 0 .. R-1 of every preset of ``builtin_scenarios`` at size N,
with drop-out calibrated once per preset, as the recovery study does. It
writes a JSON list with one row per fit: ``preset``, ``replicate``,
``model``, ``converged``, ``ll`` (the comparable scale), ``evals`` and
``grad_max_norm``. A replicate whose ``fit_all`` raises gives one row per
model with ``converged`` false, null ``ll``, ``evals`` and
``grad_max_norm``, and the ``error``.

The second form pairs the rows of two such files by preset, replicate and
model. It prints each fit whose ``converged`` flag flipped or whose ll
moved by more than 1e-6, with both gradient max-norms, then, for each
side, the fits converged and the total evals, and last the number of fits
converged in A and not in B. It exits with 1 when the two files do not
hold the same fits.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

MOVE_TOL = 1e-6  # an ll that moves by more is listed
MODELS = ("M1", "M2", "M3")


def panel(n: int, replicates: int) -> list[dict]:
    """The rows of every fit of replicates 0 .. replicates-1 of every preset at size n."""
    from exhaz.errors import ExhazError
    from exhaz.estimation import fit_all
    from exhaz.likelihoods import prepare_cohort
    from exhaz.simulation import (
        COVARIATES,
        builtin_scenarios,
        calibrate_dropout_rate,
        design_life_table,
        generate_cohort,
    )

    table = design_life_table()
    rows = []
    for preset, sc in builtin_scenarios().items():
        sc = replace(sc, n=n)
        if sc.dropout_target is not None:
            rate, _ = calibrate_dropout_rate(sc, sc.dropout_target, table)
            sc = replace(sc, dropout_rate=rate, dropout_target=None)
        for index in range(replicates):
            cohort = prepare_cohort(
                generate_cohort(sc, index, table), table, advance_year=sc.advance_year,
                covariate_names=COVARIATES,
            )
            key = {"preset": preset, "replicate": index}
            try:
                fits = fit_all(cohort, sc.fit)
            except ExhazError as exc:
                failed = {"converged": False, "ll": None, "evals": None, "grad_max_norm": None,
                          "error": f"{type(exc).__name__}: {exc}"}
                rows += [{**key, "model": model, **failed} for model in MODELS]
                continue
            rows += [
                {**key, "model": model, "converged": res.converged, "ll": res.loglik_comparable,
                 "evals": res.n_evals, "grad_max_norm": res.grad_max_norm}
                for model, res in fits.items()
            ]
        print(f"{preset}: {replicates} replicates", file=sys.stderr, flush=True)
    return rows


def _moved(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is not b
    return abs(b - a) > MOVE_TOL


def _fmt(value: float | None, spec: str) -> str:
    return "None" if value is None else format(value, spec)


def compare(a: list[dict], b: list[dict]) -> int:
    """Print the fits that differ between panels a and b and each side's totals."""
    def keyed(rows):
        return {(r["preset"], r["replicate"], r["model"]): r for r in rows}

    rows_a, rows_b = keyed(a), keyed(b)
    if rows_a.keys() != rows_b.keys():
        print(f"the panels hold different fits: {len(rows_a)} vs {len(rows_b)}, "
              f"{len(rows_a.keys() & rows_b.keys())} in both")
        return 1
    for key in sorted(rows_a):
        fa, fb = rows_a[key], rows_b[key]
        if fa["converged"] != fb["converged"] or _moved(fa["ll"], fb["ll"]):
            preset, index, model = key
            print(f"{preset} r{index} {model}: converged {fa['converged']} -> {fb['converged']}, "
                  f"ll {_fmt(fa['ll'], '.6f')} -> {_fmt(fb['ll'], '.6f')}, "
                  f"grad max-norm {_fmt(fa['grad_max_norm'], '.3g')} -> "
                  f"{_fmt(fb['grad_max_norm'], '.3g')}")
    for side, rows in (("A", a), ("B", b)):
        converged = sum(r["converged"] for r in rows)
        evals = sum(r["evals"] or 0 for r in rows)
        print(f"{side}: {converged} of {len(rows)} fits converged, {evals} evals")
    lost = sum(rows_a[k]["converged"] and not rows_b[k]["converged"] for k in rows_a)
    print(f"converged in A, not in B: {lost} fits")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree", nargs="?", type=Path)
    ap.add_argument("--n", type=int)
    ap.add_argument("--replicates", type=int)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), type=Path)
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        return compare(a, b)
    if args.tree is None or args.n is None or args.replicates is None or args.out is None:
        ap.error("TREE, --n, --replicates and --out are required without --compare")
    if args.n < 1 or args.replicates < 1:
        ap.error("--n and --replicates must be >= 1")
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    rows = panel(args.n, args.replicates)
    args.out.write_text(json.dumps(rows, indent=0) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
