"""Tests of the benchmark itself: python3 -m pytest perfbench -q (from the repo root)."""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
from exhaz.estimation import ParamLayout  # noqa: E402
import fitcheck  # noqa: E402
from exhaz import estimation  # noqa: E402
from exhaz.errors import NonFiniteLikelihood  # noqa: E402
from spans import Span, Tracer, _leaf, instrument, layer_totals  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
WORKLOAD = "none-n2000"


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return proc, lines


@pytest.fixture(scope="module")
def short_runs():
    """Two untraced runs and one traced run of one short seed (one replicate)."""
    args = ["--workload", WORKLOAD, "--seed", "3", "--seconds", "1"]
    runs = [run_bench(*args, "--trace", t) for t in ("0", "0", "1")]
    for proc, lines in runs:
        assert proc.returncode == 0, proc.stderr
    return [lines for _, lines in runs]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for group, declared in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[group]} == declared
    names = [m["name"] for g in ("end_to_end", "per_layer") for m in spec[g]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(set(names)) == len(names)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(bench.WORKLOADS)


def test_counts_repeat_exactly(short_runs):
    first, second = (lines[-1] for lines in short_runs[:2])
    assert first["correct"] and second["correct"]
    for key in ("evals_per_replicate", "converged_frac", "fit_ok_frac"):
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"]
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


def test_traced_fits_equal_untraced_bit_for_bit(short_runs):
    untraced, traced = short_runs[0], short_runs[2]
    assert traced[-1]["correct"]
    assert set(traced[-1]["metrics"]) == set(bench.PER_LAYER)
    assert set(untraced[-1]["metrics"]) == set(bench.END_TO_END)
    recs = [[r for r in lines if r.get("kind") == "replicate"] for lines in (untraced, traced)]
    assert [r["index"] for r in recs[0]] == [r["index"] for r in recs[1]]
    for a, b in zip(*recs):
        assert a["error"] == b["error"] and a["m4"] == b["m4"]
        for model, fa in a["models"].items():
            fb = b["models"][model]
            for key in ("estimates", "ll", "evals", "converged", "grad_max_norm"):
                assert fa[key] == fb[key], (model, key)


def test_every_metric_is_a_finite_number(short_runs):
    for lines in short_runs:
        for name, metric in lines[-1]["metrics"].items():
            assert NAME.match(name)
            assert math.isfinite(metric["value"]), name


def test_self_times_account_for_the_traced_replicate(short_runs):
    traced = {k: v["value"] for k, v in short_runs[2][-1]["metrics"].items()}
    self_s = sum(
        v for k, v in traced.items()
        if k in bench.REPLICATE_LAYERS and k.endswith(".s") and not k.startswith("estimation.fit.s.")
    )
    assert self_s == pytest.approx(traced["trace.replicate_s.mean"], rel=1e-9)
    per_model = sum(traced[f"estimation.fit.s.{m}"] for m in bench.MODELS)
    assert per_model < traced["trace.replicate_s.mean"]


def test_every_layer_is_seen(short_runs):
    traced = {k: v["value"] for k, v in short_runs[2][-1]["metrics"].items()}
    (rec,) = [r for r in short_runs[2] if r.get("kind") == "replicate"]
    assert len(rec["models"]) == 3
    for name in ("gh_model.inverse_excess_survival.s", "lifetable.other_cause_time_inverse.calls",
                 "lifetable.cum_hazard_increment.calls", "lifetable.rate_at.calls",
                 "likelihoods.loglik.calls", "likelihoods.loglik_and_grad.calls",
                 "estimation.cda_warm_start.evals", "estimation.lbfgsb.evals",
                 "estimation.fit.other.evals", "simulation.generate_cohort.s",
                 "likelihoods.prepare_cohort.s", "setup.simulation.design_life_table.s"):
        assert traced[name] > 0, name


def test_likelihood_calls_reconcile_with_fit_evals(short_runs):
    """Each fit calls the likelihood once per eval, plus twice for its lls."""
    traced = {k: v["value"] for k, v in short_runs[2][-1]["metrics"].items()}
    stages = sum(
        traced[f"{s}.evals"]
        for s in ("estimation.cda_warm_start", "estimation.lbfgsb", "estimation.nelder_mead",
                  "estimation.fit.other")
    )
    calls = traced["likelihoods.loglik.calls"] + traced["likelihoods.loglik_and_grad.calls"]
    per_model = sum(traced[f"estimation.fit.evals.{m}"] for m in bench.MODELS)
    assert stages == calls == per_model + 2 * len(bench.MODELS)
    assert per_model == short_runs[0][-1]["metrics"]["evals_per_replicate"]["value"]


def test_instrument_fails_on_a_missing_layer(monkeypatch):
    original = estimation.loglik
    monkeypatch.delattr(estimation, "cda_warm_start")
    with pytest.raises(AttributeError):
        with instrument(Tracer()):
            pass
    assert estimation.loglik is original


def test_leaf_records_every_call():
    def raises(exc):
        def fn():
            raise exc
        return fn

    tracer = Tracer()
    with tracer.span("estimation.fit", model="M1") as sp:
        for exc in (NonFiniteLikelihood("x"), FloatingPointError("x"), OverflowError("x")):
            with pytest.raises(type(exc)):
                _leaf(tracer, "likelihoods.loglik", raises(exc))()
        grad = _leaf(tracer, "likelihoods.loglik_and_grad", lambda: (-math.inf, None),
                     rejected=lambda out: out[1] is None)
        grad()
    assert sp.leaves["likelihoods.loglik"][0::2] == [3, 1]
    assert sp.leaves["likelihoods.loglik_and_grad"][0::2] == [1, 1]
    tracer.drain()


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = run_bench("--workload", WORKLOAD, "--seed", "1", "--seconds", "1",
                            "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any("metrics" in line for line in lines)


def _span(name, start, end, parent, model=None, leaves=None, child_s=0.0, **attrs):
    sp = Span(name, start, parent, model)
    sp.end = end
    sp.leaves = leaves or {}
    sp.child_s = child_s
    sp.attrs = attrs
    return sp


def test_layer_totals_self_time_and_evals():
    spans = [
        _span("estimation.fit", 0.0, 10.0, -1, "M3", {"likelihoods.loglik": [12, 1.0, 0]},
              child_s=1.0 + 6.0, n_evals=40),
        _span("estimation.lbfgsb", 1.0, 7.0, 0, "M3",
              {"likelihoods.loglik_and_grad": [30, 4.0, 2]}, child_s=4.0, nit=12),
    ]
    out = layer_totals(spans)
    assert out["estimation.fit.s.M3"] == 10.0
    assert out["estimation.fit.other.s"] == 3.0
    assert out["estimation.lbfgsb.s"] == 2.0
    assert out["estimation.lbfgsb.evals"] == 30
    assert out["estimation.fit.other.evals"] == 12
    assert out["estimation.fit.evals.M3"] == 40
    assert out["likelihoods.loglik_and_grad.rejected"] == 2
    assert out["estimation.lbfgsb.nit"] == 12


@pytest.fixture(scope="module")
def small_cohort():
    from exhaz.likelihoods import prepare_cohort
    from exhaz.simulation import COVARIATES, generate_cohort

    sc = bench.scenario("moderate-n5000")
    table, sc = bench.setup(sc, bench.Tracer())
    sc = replace(sc, n=400)
    cohort = prepare_cohort(generate_cohort(sc, 0, table), table, covariate_names=COVARIATES)
    return sc, cohort


def _fake_fit(sc, cohort, model, ll, converged=True):
    layout = ParamLayout.for_model(model, cohort.covariate_names)
    estimates = layout.from_params(fitcheck.truth_params(sc, model))
    return SimpleNamespace(model=model, k=layout.k, estimates=estimates, loglik_comparable=ll,
                           converged=converged, n_evals=1, grad_max_norm=0.0)


def test_fit_check_accepts_truth_and_rejects_artefacts(small_cohort):
    sc, cohort = small_cohort
    ll_truth = fitcheck.truth_loglik(sc, "M3", cohort)
    assert fitcheck.check_fit(sc, cohort, _fake_fit(sc, cohort, "M3", ll_truth + 3.0))["ok"]
    assert fitcheck.check_fit(sc, cohort, _fake_fit(sc, cohort, "M3", 25706.9))["reasons"] == [
        "gain_too_large"
    ]
    below = fitcheck.check_fit(sc, cohort, _fake_fit(sc, cohort, "M1", -1e9))
    assert below["reasons"] == ["below_truth"]
    stuck = fitcheck.check_fit(sc, cohort, _fake_fit(sc, cohort, "M2", math.inf, False))
    assert stuck["reasons"] == ["not_converged", "ll_not_finite"]
