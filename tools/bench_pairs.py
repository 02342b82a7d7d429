"""Run alternating perfbench pairs from two source trees and judge a speed claim.

Usage, from the repository root:

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W --pairs N \
        [--topic TOPIC] [--seed S]

Each tree is a checkout with ``perfbench/run.py`` and ``src/exhaz``.  Pair i
runs ``python3 perfbench/run.py --workload W --seed S --seconds X --trace 0``
once in each tree, the parent first on even i and the change first on odd i;
X is the ``run_seconds`` of ``BENCHMARK.json`` and S defaults to 1.
The result is written under the key ``"W seed S"`` in ``BENCH_<topic>.json``
in the current directory; the other entries already in that file are kept.

The file holds the interpreter and library versions of the runs and, for
every pair, both result lines (the last line a perfbench
run prints) and the number of replicate records that differ between the two
runs, compared bit for bit as ``tools/same_records.py`` does.  For every
end-to-end metric of ``BENCHMARK.json`` it holds each side's median and
quartiles, the pairs the change won, lost and tied, and two verdicts:

- ``gain``: the change won at least nine tenths of the pairs (ties count for
  neither side), and its median is better than the parent's by more than
  the parent's interquartile range;
- ``bound``: ``"unresolved"`` when the parent's interquartile range is wider
  than the metric's bound relative to its median, unless every change run
  reads better than every parent run (``"better"``); otherwise ``"worse"``
  when the change's median is worse than the parent's by more than the
  bound, and ``"within"`` when it is not.

Quartiles are the inclusive ones of ``statistics.quantiles``.  The script
prints one line per metric and exits with 1 when a run fails or prints no
result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from same_records import comparable, exact  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
HOST = ("python", "numpy", "scipy", "nproc", "blas_threads")  # from the run's meta line


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and inclusive quartiles; one value is its own quartiles."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def judge(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The verdicts on one metric from its values in each pair, parent and change.

    ``better`` is "higher" or "lower"; ``bound`` is the relative worsening
    the benchmark allows.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("one value per pair and side, and at least one pair")
    sign = 1.0 if better == "higher" else -1.0
    diffs = [sign * (c - p) for p, c in zip(parent, change)]
    wins, losses = sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)
    ps, cs = quartiles(parent), quartiles(change)
    gap = sign * (cs["median"] - ps["median"])
    iqr = ps["q3"] - ps["q1"]
    scale = abs(ps["median"])
    if min(sign * c for c in change) > max(sign * p for p in parent):
        verdict = "better"
    elif iqr > bound * scale:
        verdict = "unresolved"
    elif gap < -bound * scale:
        verdict = "worse"
    else:
        verdict = "within"
    return {
        "parent": ps,
        "change": cs,
        "wins": wins,
        "losses": losses,
        "ties": len(diffs) - wins - losses,
        "gain": wins >= 0.9 * len(diffs) and gap > iqr,
        "bound": verdict,
    }


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict[str, dict]:
    """``judge`` of every end-to-end metric over the pairs' result lines."""
    out = {}
    for spec in end_to_end:
        name = spec["name"]
        values = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
        out[name] = judge(values["parent"], values["change"], spec["better"], spec["bound"])
    return out


def records_differ(parent_lines: list[dict], change_lines: list[dict]) -> int:
    """Replicate records that differ between two runs, as same_records counts them."""
    a, b = comparable(parent_lines), comparable(change_lines)
    return abs(len(a) - len(b)) + sum(exact(x) != exact(y) for x, y in zip(a, b))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> list[dict]:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines or "metrics" not in lines[-1]:
        raise RuntimeError(f"perfbench failed in {tree} (exit {proc.returncode}): {proc.stderr[-2000:]}")
    return lines


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--topic", default="pairs")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end, seconds = spec["end_to_end"], spec["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    pairs, host = [], None
    try:
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            lines = {s: run_once(trees[s], args.workload, args.seed, seconds) for s in order}
            host = host or {k: lines["parent"][0].get(k) for k in HOST}
            pairs.append({
                "pair": i,
                "first": order[0],
                **{s: lines[s][-1] for s in SIDES},
                "records_differ": records_differ(lines["parent"], lines["change"]),
            })
            print(f"pair {i}: " + ", ".join(
                f"{s} {lines[s][-1]['metrics']['replicates_per_s']['value']:.4f}" for s in SIDES
            ) + f" replicates/s, {pairs[-1]['records_differ']} records differ", flush=True)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1

    metrics = summarize(pairs, end_to_end)
    path = Path(f"BENCH_{args.topic}.json")
    report = json.loads(path.read_text()) if path.exists() else {}
    report[f"{args.workload} seed {args.seed}"] = {
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed} "
                   f"--seconds {seconds:g} --trace 0",
        "host": host,
        "pairs": pairs,
        "metrics": metrics,
    }
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for name, m in metrics.items():
        print(f"{name}: parent {m['parent']['median']:.6g} change {m['change']['median']:.6g}, "
              f"won {m['wins']}/{args.pairs}, gain {m['gain']}, bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
