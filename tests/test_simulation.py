"""Cohort generation, drop-out calibration, the study engine and its reports."""

import csv
import math
import pickle
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from scipy.stats import kstest

from conftest import model_params
from exhaz import simulation
from exhaz.errors import NoEligibleFit, NonFiniteLikelihood, TargetUnreachable
from exhaz.estimation import fit_all, select_m4
from exhaz.likelihoods import marginal_survival_m3, prepare_cohort
from exhaz.simulation import (
    COVARIATES,
    STUDY_MODELS,
    builtin_scenarios,
    calibrate_dropout_rate,
    design_life_table,
    generate_cohort,
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
        values = sc.gh.values.copy()
        values[sc.gh.layout.names.index("theta")] = theta
        sc = replace(sc, gh=sc.gh.layout.to_params(values))
    assert sc.n == 5000 and sc.dropout_rate is None and sc.dropout_target is None
    cohort = generate_cohort(sc, 0, table)
    assert cohort.status.all()
    truth = model_params(sc.gh, sc.frailty.mu, sc.frailty.b)
    pit = marginal_survival_m3(cohort.time, cohort, truth, table)
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
    cohort = generate_cohort(sc, 0, table)
    assert set(cohort.year_diag) == {2010.0}
    assert np.array_equal(cohort.X[:, 0], cohort.age_diag - 70.0)
    # the stratum column is the sex covariate, as codes over the table's sex strata
    assert cohort.strata == (("0",), ("1",))
    assert np.array_equal(cohort.stratum, cohort.X[:, 1])
    assert np.array_equal(table.codes(cohort.strata), [0, 1])


def test_calibrated_dropout_censors_a_fresh_cohort_at_target(table):
    sc = builtin_scenarios()["wide-dropout"]
    rate, achieved = calibrate_dropout_rate(sc, 0.30, table, pilot_n=20_000)
    assert achieved == pytest.approx(0.30, abs=0.005)
    fresh = replace(sc, dropout_rate=rate, dropout_target=None)
    censored = np.mean(generate_cohort(fresh, 0, table).status == 0)
    assert censored == pytest.approx(0.30, abs=0.02)


@pytest.mark.parametrize(
    "field, value",
    [
        ("dropout_rate", 0.0),
        ("dropout_rate", -0.1),
        ("dropout_rate", math.nan),
        ("dropout_rate", math.inf),
        ("dropout_target", 0.0),
        ("dropout_target", 1.0),
        ("dropout_target", -0.2),
        ("dropout_target", math.nan),
        ("n", 0),
        ("n", math.nan),
        ("n", 2.5),
        ("n_replicates", 0),
        ("n_replicates", math.nan),
        ("admin_censor_time", math.nan),
        ("admin_censor_time", 0.0),
        ("admin_censor_time", -1.0),
    ],
)
def test_scenario_rejects_bad_dropout(field, value):
    # the message names the field: by its part after the first "_", or as "n"
    with pytest.raises(ValueError, match=field.partition("_")[2] or "^n must"):
        replace(builtin_scenarios()["none"], **{field: value})


@pytest.mark.parametrize("target", [0.0, 1.0, 1.5, math.nan])
def test_calibration_rejects_target_outside_unit_interval(table, target):
    with pytest.raises(ValueError, match="censoring target must be in"):
        calibrate_dropout_rate(builtin_scenarios()["none"], target, table, pilot_n=1000)


@pytest.mark.parametrize(
    "target, message",
    [
        (0.05, r"^administrative censoring alone is 0\.267 >= target 0\.050$"),
        (0.999, r"^even rate 10\.0 reaches only 0\.982 censoring < target 0\.999$"),
    ],
)
def test_calibration_reports_an_unreachable_target(table, target, message):
    with pytest.raises(TargetUnreachable, match=message):
        calibrate_dropout_rate(builtin_scenarios()["none"], target, table, pilot_n=2000)


def test_pickled_parameters_and_tables_stay_read_only(table):
    # run_study(jobs > 1) sends the scenario and the table to its workers
    sc = builtin_scenarios()["moderate"]
    gh, copy = sc.gh, pickle.loads(pickle.dumps(sc)).gh
    assert copy.layout == gh.layout and copy.values.tolist() == gh.values.tolist()
    for arr in (copy.values, copy.baseline, copy.beta1, copy.beta2, copy.correction):
        assert not arr.flags.writeable
    copy = pickle.loads(pickle.dumps(table))
    assert not copy.rates.flags.writeable and np.array_equal(copy.rates, table.rates)
    assert (copy.age_max, copy.year_max) == (table.age_max, table.year_max)
    assert copy.strata == table.strata
    assert copy.codes([("1",), ("0",)]).tolist() == [1, 0]
    with pytest.raises(FrozenInstanceError):
        copy.age_min = 0


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


def test_a_replicate_whose_fit_all_raises_is_counted_not_fatal(table, caplog, monkeypatch):
    # fit_all raises on replicate 0 of the "none" stream 159 at n=1000, as it
    # did there while M2 took its start from an M1 fit on the EW tail
    # artefact.  The workers of jobs=2 are forked, so they run the patch too.
    sc = replace(builtin_scenarios()["none"], n=1000, n_replicates=2, seed=159)
    first = generate_cohort(sc, 0, table).time

    def fit_all_raising_on_replicate_0(cohort, cfg):
        if np.array_equal(cohort.time, first):
            raise NonFiniteLikelihood("M2: no usable starting point")
        return fit_all(cohort, cfg)

    monkeypatch.setattr(simulation, "fit_all", fit_all_raising_on_replicate_0)
    serial, parallel = run_study(sc, table, jobs=1), run_study(sc, table, jobs=2)
    assert _same(replace(serial, wall_time_s=0.0), replace(parallel, wall_time_s=0.0))
    raised = "replicate 0: fit_all raised NonFiniteLikelihood: M2: no usable starting point"
    assert caplog.text.count(raised) == 2
    # replicate 1 fits: M1, M2 (gamma on the box floor) and M3 converge, AIC picks M1
    assert serial.not_converged == {"M1": 1, "M2": 1, "M3": 1} and serial.m4_failures == 1
    assert serial.selection == {"M1": 1.0, "M2": 0.0, "M3": 0.0}
    assert list(serial.params["M2"]) == [*serial.params["M1"], "gamma"]
    # M2 pools replicate 1 alone
    gamma = serial.params["M2"]["gamma"]
    assert gamma.mmle == pytest.approx(math.exp(-20.0), rel=1e-12) and math.isnan(gamma.esd)


def test_hessian_pd_rate_averages_the_fits_with_a_verdict(table, monkeypatch):
    # M1 and M2 are flagged converged on both replicates; M1's information
    # matrix is made non-finite on replicate 0 (no verdict) and indefinite
    # on replicate 1, so its rate is 0 of 1, not 0 of 2; M2 has no verdict
    sc = replace(builtin_scenarios()["moderate"], n=300, n_replicates=2)
    verdicts = iter([None, False])

    def fit_all_with_verdicts(cohort, cfg):
        fits = fit_all(cohort, cfg)
        return {**fits,
                "M1": replace(fits["M1"], converged=True, hessian_pd=next(verdicts)),
                "M2": replace(fits["M2"], converged=True, hessian_pd=None)}

    monkeypatch.setattr(simulation, "fit_all", fit_all_with_verdicts)
    study = run_study(sc, table)
    assert study.not_converged["M1"] == study.not_converged["M2"] == 0
    assert study.hessian_pd_rate["M1"] == 0.0
    assert math.isnan(study.hessian_pd_rate["M2"])


def read_report(path):
    """A per-model report CSV as {param: {column: value}}, empty cells NaN."""
    out = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            name = row.pop("param")
            out[name] = {col: float(cell) if cell else math.nan for col, cell in row.items()}
    return out


def test_study_reports_round_trip(studies, tmp_path):
    study = studies[0]
    written = write_study_reports(study, tmp_path)
    assert {p.name for p in written} >= {f"{m}.csv" for m in STUDY_MODELS}
    for model in STUDY_MODELS:
        got = read_report(tmp_path / f"{model}.csv")
        assert list(got) == list(study.params[model])
        for name, metrics in study.params[model].items():
            expected = {
                col: getattr(metrics, col)
                for col in ("truth", "mmle", "mmedian", "esd", "mean_se", "rmse", "coverage")
            }
            assert _same(got[name], expected), (model, name)


def test_m4_pools_the_fit_aic_chose(table):
    # Replicate streams 2-6 with 30 years of follow-up: AIC picks M1 three
    # times and M2 once, and one replicate has no converged fit, so M4's
    # pool is the pool of no single model.
    sc = replace(
        builtin_scenarios()["severe"], n=300, n_replicates=5, seed=2, admin_censor_time=30.0
    )
    study = run_study(sc, table)
    fits, picks = [], []
    for i in range(sc.n_replicates):
        cohort = prepare_cohort(generate_cohort(sc, i, table), table, sc.advance_year, COVARIATES)
        fits.append(fit_all(cohort, sc.fit))
        try:
            picks.append(select_m4(fits[-1]))
        except NoEligibleFit:
            pass
    assert sorted(chosen.model for chosen, _ in picks) == ["M1", "M1", "M1", "M2"]
    models = ("M1", "M2", "M3")
    assert study.m4_failures == sc.n_replicates - len(picks)
    assert study.selection == {m: sum(f.model == m for f, _ in picks) / len(picks) for m in models}
    assert study.not_converged == {m: sum(not f[m].converged for f in fits) for m in models}
    for name in ("beta2_w", "kappa"):
        pooled = study.params["M4"][name].mmle
        assert pooled == np.mean([chosen.estimate(name) for chosen, _ in picks]), name
    assert study.params["M4"]["c"].mmle == np.mean([c for _, c in picks])


def test_study_counts_pooled_fits_on_the_box_edge(table, tmp_path):
    # On this cohort M2 ends with gamma on the box floor e^-20, is flagged
    # converged, and AIC picks it for M4 (M3 does not converge).
    sc = replace(builtin_scenarios()["wide"], n=300, n_replicates=1, admin_censor_time=30.0)
    study = run_study(sc, table)
    assert study.params["M4"]["c"].mmle == pytest.approx(math.exp(-20.0), rel=1e-12)
    assert study.at_bound == {"M1": 0, "M2": 1, "M3": 0, "M4": 1}
    write_study_reports(study, tmp_path)
    with open(tmp_path / "selection.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["model"]: row["at_bound"] for row in rows} == {
        "M1": "0", "M2": "1", "M3": "0", "M4": "1"
    }
