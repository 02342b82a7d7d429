"""Cohort generation, drop-out calibration, the study engine and its reports."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

from exhaz.likelihoods import ModelParams, marginal_survival_m3, prepare_cohort
from exhaz.simulation import (
    COVARIATES,
    STUDY_MODELS,
    builtin_scenarios,
    calibrate_dropout_rate,
    design_life_table,
    generate_cohort,
    read_study_report,
    run_study,
    write_study_reports,
)


@pytest.fixture(scope="module")
def table():
    return design_life_table()


@pytest.mark.parametrize("theta", [None, 1e3])
def test_uncensored_times_are_uniform_under_m3_marginal_survival(table, theta):
    # Without censoring every time is an event time, so the true marginal
    # survival S(T) is Uniform(0, 1).  This checks the Gamma frailty draw,
    # each patient's stratum and both inversions (other-cause and excess).
    # At the preset's truth most first events are excess deaths; theta = 1e3
    # makes the excess hazard small, so other-cause deaths dominate and a
    # wrong frailty or stratum in the walk fails the test.
    sc = replace(builtin_scenarios()["moderate"], admin_censor_time=1e9)
    if theta is not None:
        gh = sc.gh
        sc = replace(sc, gh=replace(gh, baseline=replace(gh.baseline, theta=theta)))
    assert sc.n == 5000 and sc.dropout_rate is None and sc.dropout_target is None
    records = generate_cohort(sc, 0, table)
    assert all(rec.status == 1 for rec in records)
    truth = ModelParams(sc.gh, sc.frailty)
    pit = marginal_survival_m3([rec.time for rec in records], records, truth, table)
    assert kstest(pit, "uniform").pvalue > 1e-3


@pytest.mark.parametrize(
    "index, events, time, dhp, hp",
    [
        (0, 369, 1258.1606632586997, 58.903901677269545, 32.54696915856111),
        (7, 370, 1261.205407096807, 56.261732493364995, 31.35823805596699),
    ],
)
def test_cohort_reproducible_per_seed_and_index(table, index, events, time, dhp, hp):
    sc = replace(builtin_scenarios()["moderate"], n=500)
    first, again = (
        prepare_cohort(
            generate_cohort(sc, index, table), table, sc.advance_year, COVARIATES
        )
        for _ in range(2)
    )
    for name in ("time", "status", "X", "hp", "dhp"):
        assert np.array_equal(getattr(first, name), getattr(again, name)), name
    assert first.n_events == events
    assert math.fsum(first.time.tolist()) == pytest.approx(time, rel=1e-12)
    assert math.fsum(first.dhp.tolist()) == pytest.approx(dhp, rel=1e-12)
    assert math.fsum(first.hp.tolist()) == pytest.approx(hp, rel=1e-12)


def test_design_fixes_diagnosis_year_and_per_year_age_slope(table):
    sc = replace(builtin_scenarios()["none"], n=200)
    records = generate_cohort(sc, 0, table)
    assert {rec.year_diag for rec in records} == {2010.0}
    assert all(rec.x[0] == rec.age_diag - 70.0 for rec in records)


def test_calibrated_dropout_censors_a_fresh_cohort_at_target(table):
    sc = builtin_scenarios()["wide-dropout"]
    rate, achieved = calibrate_dropout_rate(sc, 0.30, table, pilot_n=20_000)
    assert achieved == pytest.approx(0.30, abs=0.005)
    fresh = replace(sc, dropout_rate=rate, dropout_target=None)
    records = generate_cohort(fresh, 0, table)
    censored = np.mean([rec.status == 0 for rec in records])
    assert censored == pytest.approx(0.30, abs=0.02)


@pytest.fixture(scope="module")
def studies(table):
    sc = replace(builtin_scenarios()["moderate"], n=300, n_replicates=2)
    return run_study(sc, table, jobs=1), run_study(sc, table, jobs=2)


def _same(a, b):
    # repr round-trips floats exactly and prints NaN equal to NaN
    return repr(a) == repr(b)


def test_study_results_do_not_depend_on_jobs(studies):
    serial, parallel = studies
    assert _same(replace(serial, wall_time_s=0.0), replace(parallel, wall_time_s=0.0))


def test_study_reports_round_trip(studies, tmp_path):
    study = studies[0]
    written = write_study_reports(study, tmp_path)
    assert {p.name for p in written} >= {f"{m}.csv" for m in STUDY_MODELS}
    for model in STUDY_MODELS:
        got = read_study_report(tmp_path / f"{model}.csv")
        assert list(got) == list(study.params[model])
        for name, metrics in study.params[model].items():
            expected = {
                col: getattr(metrics, col)
                for col in ("truth", "mmle", "mmedian", "esd", "mean_se", "rmse", "coverage")
            }
            assert _same(got[name], expected), (model, name)
