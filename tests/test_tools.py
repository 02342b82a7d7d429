"""The bit-identity checks under tools/: same_records.py compares two perfbench
runs, cohort_digest.py digests the cohorts the presets draw."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from exhaz.lifetable import LifeTable
from exhaz.simulation import design_life_table

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


same_records = load_tool("same_records")
cohort_digest = load_tool("cohort_digest")


def record(index, ll, **extra):
    return {"kind": "replicate", "index": index, "models": {"M1": {"ll": ll}}, **extra}


def write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return str(path)


def test_same_bits_pass_and_timings_are_ignored(tmp_path, capsys):
    meta = {"kind": "meta", "git_sha": "a"}
    parent = write(tmp_path / "a.jsonl", [meta, record(0, -7414.5, replicate_s=1.8, layers={"x": 1})])
    change = write(
        tmp_path / "b.jsonl",
        [{**meta, "git_sha": "b"}, record(0, -7414.5, replicate_s=2.1, position=3, spans=[])],
    )
    assert same_records.main([parent, change]) == 0
    assert "1 vs 1 replicate records, 0 mismatches" in capsys.readouterr().out


def test_one_ulp_or_a_missing_record_is_a_mismatch(tmp_path, capsys):
    ll = -7414.5766974406015
    parent = write(tmp_path / "a.jsonl", [record(0, ll), record(1, ll)])
    change = write(tmp_path / "b.jsonl", [record(0, math.nextafter(ll, 0.0))])
    assert same_records.main([parent, change]) == 1
    out = capsys.readouterr().out
    assert "replicate record 0 (index 0) differs" in out
    assert "2 vs 1 replicate records, 2 mismatches" in out


def fits(**models):
    """Fit records by model from (converged, ok, ll, evals)."""
    return {name: dict(zip(("converged", "ok", "ll", "evals"), v)) for name, v in models.items()}


def test_changed_fits_are_listed_parent_to_change_with_counts(tmp_path, capsys):
    parent = write(tmp_path / "a.jsonl", [
        record(0, 0.0, models=fits(M1=(True, True, -1.0, 400), M2=(False, False, -2.0, 2000)), m4="M1"),
        record(1, 0.0, models=fits(M1=(True, False, -3.0, 500)), m4=None),
    ])
    change = write(tmp_path / "b.jsonl", [
        record(0, 0.0, models=fits(M1=(True, True, -1.0, 380), M2=(True, True, -1.5, 600)), m4="M2"),
        record(1, 0.0, models=fits(M1=(True, True, -3.0, 500)), m4=None),
    ])
    assert same_records.main([parent, change]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "replicate record 0 (index 0) differs",
        "  M1: evals 400 -> 380",
        "  M2: converged False -> True, ok False -> True, ll -2.0 -> -1.5, evals 2000 -> 600",
        "  M4: M1 -> M2",
        "replicate record 1 (index 1) differs",
        "  M1: ok False -> True",
        "2 vs 2 replicate records, 2 mismatches",
        "parent: 2 of 3 fits converged, 1 ok; change: 3 of 3 fits converged, 3 ok",
        "mean evals per replicate: parent M1 450.0, M2 1000.0; change M1 440.0, M2 300.0",
        "ll fell by more than 1e-06: 0 fits",
        "converged on both sides: 2 fits, largest |delta ll| 0 (record 1, M1)",
    ]


def test_a_record_that_differs_outside_the_listed_fields_lists_no_fit(tmp_path, capsys):
    ll = -7414.5766974406015
    one = fits(M1=(True, True, ll, 400))
    parent = write(tmp_path / "a.jsonl", [record(0, 0.0, models=one, m4="M1", censoring=0.3)])
    change = write(tmp_path / "b.jsonl", [record(0, 0.0, models=one, m4="M1", censoring=0.31)])
    assert same_records.main([parent, change]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "replicate record 0 (index 0) differs",
        "1 vs 1 replicate records, 1 mismatches",
        "parent: 1 of 1 fits converged, 1 ok; change: 1 of 1 fits converged, 1 ok",
        "mean evals per replicate: parent M1 400.0; change M1 400.0",
        "ll fell by more than 1e-06: 0 fits",
        "converged on both sides: 1 fits, largest |delta ll| 0 (record 0, M1)",
    ]
    # one ulp of ll is listed with both values
    moved = fits(M1=(True, True, math.nextafter(ll, 0.0), 400))
    write(tmp_path / "b.jsonl", [record(0, 0.0, models=moved, m4="M1", censoring=0.3)])
    assert same_records.main([parent, change]) == 1
    assert f"  M1: ll {ll!r} -> {math.nextafter(ll, 0.0)!r}" in capsys.readouterr().out.splitlines()


def test_mean_evals_per_replicate_count_every_record_and_add_up(tmp_path, capsys):
    # a replicate whose fit_all raised has no fits but counts as a replicate;
    # a model fitted in only some records is still averaged over all of them
    parent = write(tmp_path / "a.jsonl", [
        {"kind": "meta"},
        record(0, 0.0, models=fits(M1=(True, True, -1.0, 390), M2=(True, True, -1.0, 2174),
                                   M3=(True, True, -1.0, 555))),
        record(1, 0.0, models=fits(M1=(True, True, -2.0, 410), M2=(False, False, -2.0, 458))),
        record(2, 0.0, models={}, error="NonFiniteLikelihood: M2: no usable starting point"),
        {"kind": "summary"},
    ])
    change = write(tmp_path / "b.jsonl", [
        {"kind": "meta"},
        record(0, 0.0, models=fits(M1=(True, True, -1.0, 390), M2=(True, True, -1.0, 241),
                                   M3=(True, True, -1.0, 555))),
        record(1, 0.0, models=fits(M1=(True, True, -2.0, 410), M2=(True, True, -2.0, 251))),
        record(2, 0.0, models=fits(M1=(True, True, -3.0, 400), M2=(True, True, -3.0, 249),
                                   M3=(True, True, -3.0, 600))),
    ])
    assert same_records.main([parent, change]) == 1
    assert capsys.readouterr().out.splitlines()[-3] == (
        "mean evals per replicate: parent M1 266.7, M2 877.3, M3 185.0; "
        "change M1 400.0, M2 247.0, M3 385.0"
    )
    records = same_records.replicates(parent)
    total = sum(f["evals"] for r in records for f in r["models"].values()) / len(records)
    means = same_records.mean_evals(records)
    assert sum(float(part.split()[1]) for part in means.split(", ")) == pytest.approx(total, abs=0.1)


def test_the_last_line_bounds_the_ll_drift_of_fits_converged_on_both_sides(tmp_path, capsys):
    # a fit converged on one side only, or a model missing on one side, is
    # not counted; the largest drift names its record and model
    parent = write(tmp_path / "a.jsonl", [
        record(0, 0.0, models=fits(M1=(True, True, -10.0, 1), M2=(True, True, -9.0, 1),
                                   M3=(False, False, -1.0, 1))),
        record(1, 0.0, models=fits(M1=(True, True, -20.0, 1), M3=(True, True, -18.0, 1))),
    ])
    change = write(tmp_path / "b.jsonl", [
        record(0, 0.0, models=fits(M1=(True, True, -10.0 + 2e-7, 1), M2=(False, False, -5.0, 1),
                                   M3=(True, True, -0.5, 1))),
        record(1, 0.0, models=fits(M1=(True, True, -20.0 - 3e-9, 1))),
    ])
    assert same_records.main([parent, change]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "converged on both sides: 2 fits, largest |delta ll| 2e-07 (record 0, M1)"
    )
    # no fit converged on both sides
    change = write(tmp_path / "b.jsonl", [record(0, 0.0, models=fits(M1=(False, False, -10.0, 1)))])
    assert same_records.main([parent, change]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "converged on both sides: 0 fits"


def test_the_next_to_last_line_counts_every_fit_whose_ll_fell(tmp_path, capsys):
    # converged or not on either side, a fit whose ll fell by more than 1e-6
    # counts; a fall of 1e-6 or less, a rise, or a model missing on one side
    # does not; the largest drop names its record and model
    parent = write(tmp_path / "a.jsonl", [
        record(0, 0.0, models=fits(M1=(True, True, -10.0, 1), M2=(False, False, -9.0, 1),
                                   M3=(True, True, -8.0, 1))),
        record(1, 0.0, models=fits(M1=(False, False, -20.0, 1), M2=(True, True, -19.0, 1),
                                   M3=(True, True, -18.0, 1))),
    ])
    change = write(tmp_path / "b.jsonl", [
        record(0, 0.0, models=fits(M1=(True, True, -10.0 - 5e-7, 1), M2=(True, True, -9.5, 1),
                                   M3=(False, False, -7.0, 1))),
        record(1, 0.0, models=fits(M1=(True, True, -20.0 - 3e-6, 1), M2=(False, False, -34.6, 1))),
    ])
    assert same_records.main([parent, change]) == 1
    assert capsys.readouterr().out.splitlines()[-2] == (
        "ll fell by more than 1e-06: 3 fits, largest drop 15.6 (record 1, M2)"
    )
    assert same_records.main([parent, parent]) == 0
    assert capsys.readouterr().out.splitlines()[-2] == "ll fell by more than 1e-06: 0 fits"


def test_cohort_digest_is_stable_and_sees_one_ulp_of_one_rate():
    table = design_life_table()
    lines = list(cohort_digest.digest_lines(table))
    # 9 presets x 2 advance_year settings x 2 replicates, and 5 drop-out calibrations
    assert len(lines) == 9 * 2 * 2 + 5 and len(set(lines)) == len(lines)
    assert lines == list(cohort_digest.digest_lines(design_life_table()))
    rates = table.rates.copy()
    rates[70, 5, 1] = np.nextafter(rates[70, 5, 1], 1.0)  # age 70, 2010, stratum "1"
    moved = LifeTable(table.strata_columns, table.age_min, table.year_min, rates, table.strata)
    changed = [a for a, b in zip(lines, cohort_digest.digest_lines(moved)) if a != b]
    assert changed == [line for line in lines if "replicate=" in line]


bench_pairs = load_tool("bench_pairs")


def result_line(replicates_per_s, setup_s=0.1, converged=0.8):
    metrics = {"replicates_per_s": replicates_per_s, "setup_s": setup_s, "converged_frac": converged}
    return {"correct": True, "attempted": 30, "failed": 0,
            "metrics": {k: {"value": v} for k, v in metrics.items()}}


SPEC = [
    {"name": "replicates_per_s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "converged_frac", "better": "higher", "bound": 0.05},
]


def pairs_of(parent, change, **kw):
    return [{"parent": result_line(p, **kw), "change": result_line(c, **kw)} for p, c in zip(parent, change)]


def test_bench_pairs_gain_needs_nine_in_ten_wins_and_a_gap_past_the_iqr():
    parent = [0.80, 0.82, 0.81, 0.79, 0.83, 0.80, 0.81, 0.82, 0.80, 0.81]
    faster = [p + 0.1 for p in parent]
    m = bench_pairs.summarize(pairs_of(parent, faster), SPEC)["replicates_per_s"]
    assert (m["wins"], m["losses"], m["ties"], m["gain"], m["bound"]) == (10, 0, 0, True, "better")
    # inclusive quartiles of the sorted ten: positions 2.25, 4.5 and 6.75
    assert m["parent"] == pytest.approx({"q1": 0.80, "median": 0.81, "q3": 0.8175})
    # one loss in ten still gains; two do not
    one_loss = faster[:9] + [parent[9] - 0.01]
    assert bench_pairs.judge(parent, one_loss, "higher", 0.25)["gain"]
    two_losses = faster[:8] + [parent[8], parent[9] - 0.01]
    m = bench_pairs.judge(parent, two_losses, "higher", 0.25)
    assert (m["wins"], m["losses"], m["ties"], m["gain"]) == (8, 1, 1, False)
    # every pair won, but by less than the parent's interquartile range
    m = bench_pairs.judge(parent, [p + 0.005 for p in parent], "higher", 0.25)
    assert m["wins"] == 10 and not m["gain"] and m["bound"] == "within"


def test_bench_pairs_bound_verdicts_follow_the_metric_direction():
    judge = bench_pairs.judge
    # lower is better: a setup 30% slower is past the 0.25 bound, 20% is not
    assert judge([1.0, 1.0, 1.0], [1.3, 1.3, 1.3], "lower", 0.25)["bound"] == "worse"
    assert judge([1.0, 1.0, 1.0], [1.2, 1.2, 1.2], "lower", 0.25)["bound"] == "within"
    assert judge([1.0, 1.0, 1.0], [0.5, 0.6, 0.7], "lower", 0.25)["bound"] == "better"
    # a parent spread wider than the bound leaves it unresolved, unless the
    # change reads better on every run
    spread = [0.5, 1.0, 1.5, 2.0]
    assert judge(spread, [1.0, 1.2, 1.4, 1.6], "higher", 0.05)["bound"] == "unresolved"
    assert judge(spread, [2.1, 2.2, 2.3, 2.4], "higher", 0.05)["bound"] == "better"
    # identical runs: no wins, no gain, within the bound
    same = judge([0.75, 0.75], [0.75, 0.75], "higher", 0.05)
    assert (same["wins"], same["ties"], same["gain"], same["bound"]) == (0, 2, False, "within")
    with pytest.raises(ValueError):
        judge([1.0], [1.0, 2.0], "higher", 0.25)


def test_bench_pairs_counts_records_that_differ_as_same_records_does():
    ll = -7414.5766974406015
    meta = {"kind": "meta", "git_sha": "a"}
    parent = [meta, record(0, ll, replicate_s=1.0), record(1, ll), result_line(0.8)]
    change = [meta, record(0, ll, replicate_s=2.0), record(1, math.nextafter(ll, 0.0))]
    assert bench_pairs.records_differ(parent, parent) == 0
    assert bench_pairs.records_differ(parent, change) == 1
    assert bench_pairs.records_differ(parent, change[:2]) == 1
