"""Cohort generation, drop-out calibration, the study engine and its reports."""

import copy
import csv
import math
import pickle
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from scipy.stats import kstest

from conftest import model_params, traced_peak
from exhaz import simulation
from exhaz.errors import NoEligibleFit, NonFiniteLikelihood, TargetUnreachable
from exhaz.estimation import fit_all, select_m4
from exhaz.gh_model import inverse_excess_survival
from exhaz.lifetable import LifeTable
from exhaz.likelihoods import ParamLayout, loglik_grad_hess, marginal_survival_m3, prepare_cohort
from exhaz.simulation import (
    COVARIATES,
    DESIGN1_GH,
    DIAGNOSIS_YEAR,
    STUDY_MODELS,
    ScenarioConfig,
    builtin_scenarios,
    calibrate_dropout_rate,
    design_life_table,
    generate_cohort,
    replicate_cohort,
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
    first, again = (replicate_cohort(sc, index, table) for _ in range(2))
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
    # a target must be calibrated to a rate before a cohort is drawn
    with pytest.raises(ValueError, match="calibrate it to a dropout_rate first"):
        generate_cohort(sc, 0, table)


def horizon_spy(monkeypatch, walk_to_the_end):
    """Record the horizon of every other-cause inversion; drop it when ``walk_to_the_end``."""
    horizons, inverse = [], LifeTable.other_cause_time_inverse

    def spy(self, *args, horizon, **kwargs):
        horizons.append(horizon)
        if not walk_to_the_end:
            kwargs["horizon"] = horizon
        return inverse(self, *args, **kwargs)

    monkeypatch.setattr(LifeTable, "other_cause_time_inverse", spy)
    return horizons


def draws(sc, table):
    """The drop-out rate calibrated to 30% as float.hex, and (time, status) of
    replicate 0 without drop-out and with that rate."""
    rate, _ = calibrate_dropout_rate(sc, 0.30, table, pilot_n=20_000)
    cohorts = (generate_cohort(run, 0, table)
               for run in (replace(sc, dropout_target=None),
                           replace(sc, dropout_rate=rate, dropout_target=None)))
    return rate.hex(), [(c.time.tobytes(), c.status.tobytes()) for c in cohorts]


@pytest.mark.parametrize("advance_year", [True, False])
@pytest.mark.parametrize("preset", ["wide-dropout", "moderate"])
def test_the_horizon_leaves_cohorts_and_calibrated_rates_bit_identical(
    table, monkeypatch, preset, advance_year
):
    sc = replace(builtin_scenarios()[preset], n=2000, advance_year=advance_year)
    with_horizon = draws(sc, table)
    horizons = horizon_spy(monkeypatch, walk_to_the_end=True)
    assert draws(sc, table) == with_horizon
    # each block of the pilot and both cohorts stop at admin_censor_time
    pilot_blocks = math.ceil(20_000 / simulation._INVERSION_BLOCK)
    assert horizons == [5.0] * (pilot_blocks + 2)


@pytest.mark.parametrize("advance_year", [True, False])
@pytest.mark.parametrize("preset", ["wide-dropout", "lognormal"])
def test_event_times_in_blocks_are_one_whole_batch_call_bit_for_bit(
    table, monkeypatch, preset, advance_year
):
    sc = replace(builtin_scenarios()[preset], advance_year=advance_year)
    n = 1000
    monkeypatch.setattr(simulation, "_INVERSION_BLOCK", 128)  # 7 blocks and a part
    rng = np.random.default_rng(61)
    ages, sex, X, t_event = simulation._event_times(sc, table, n, rng)
    # the draws in their order, then each inversion over the whole batch
    whole = np.random.default_rng(61)
    ages_w, sex_w, X_w = simulation.generate_covariates(n, whole)
    frailty = sc.frailty.draw(whole, n)
    u_pop, u_exc = whole.uniform(size=n), whole.uniform(size=n)
    t_exc = inverse_excess_survival(u_exc, X_w, sc.gh)
    t_pop = table.other_cause_time_inverse(
        ages_w, DIAGNOSIS_YEAR, table.codes(simulation._SEX_STRATA)[sex_w], u_pop,
        frailty=frailty, advance_year=advance_year, horizon=sc.admin_censor_time,
    )
    assert t_event.tobytes() == np.minimum(t_pop, t_exc).tobytes()
    assert ages.tobytes() == ages_w.tobytes() and X.tobytes() == X_w.tobytes()
    assert np.array_equal(sex, sex_w)
    assert rng.uniform() == whole.uniform()  # the stream goes on from the same state


def test_calibration_memory_is_bounded_by_its_pilot_columns(table):
    # the pilot keeps about a dozen columns of pilot_n floats (covariates,
    # draws and times), 0.8 MB each at 1e5; the inversions, walked in blocks,
    # add a bounded amount.  One whole-batch walk traced 25.6 MB.
    sc = builtin_scenarios()["wide-dropout"]
    column = 100_000 * 8
    peak = traced_peak(lambda: calibrate_dropout_rate(sc, 0.30, table, pilot_n=100_000))
    assert peak < 20 * column


def test_event_times_walk_to_the_end_without_administrative_censoring(table, monkeypatch):
    horizons = horizon_spy(monkeypatch, walk_to_the_end=False)
    sc = replace(builtin_scenarios()["moderate"], n=200, admin_censor_time=math.inf)
    assert generate_cohort(sc, 0, table).status.all()
    assert horizons == [math.inf]


@pytest.mark.parametrize(
    "field, value",
    [
        ("dropout_rate", 0.0),
        ("dropout_rate", -0.1),
        ("dropout_rate", math.nan),
        ("dropout_rate", math.inf),
        ("dropout_rate", 0.1),  # valid, but the preset sets a target
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
    # the message names the field: by its part after the first "_", or as "n";
    # the preset sets a drop-out target, which a rate may not join
    with pytest.raises(ValueError, match=field.partition("_")[2] or "^n must"):
        replace(builtin_scenarios()["none-dropout"], **{field: value})


@pytest.mark.parametrize("frailty", [(1.2, 0.1), 1.2, "gamma", DESIGN1_GH])
def test_scenario_rejects_a_frailty_that_is_not_a_law(frailty):
    with pytest.raises(ValueError, match="^frailty must be None or a frailty law"):
        ScenarioConfig(name="x", frailty=frailty)


@pytest.mark.parametrize(
    "gh",
    [
        ParamLayout.for_model("M1", ("age", "sex")).to_params(np.delete(DESIGN1_GH.values, [5, 8])),
        ParamLayout.for_model("M1", ("age", "sex", "x")).to_params(DESIGN1_GH.values),
        ParamLayout.for_model("M2", COVARIATES).to_params([*DESIGN1_GH.values, 1.2]),
        DESIGN1_GH.values,
    ],
    ids=["two-covariates", "other-names", "M2", "bare-vector"],
)
def test_scenario_rejects_a_gh_of_another_layout(gh):
    with pytest.raises(ValueError, match=r"^gh must be M1 params over \('age', 'sex', 'w'\)"):
        ScenarioConfig(name="x", gh=gh)


@pytest.mark.parametrize(
    "preset, c, b",
    [
        ("none", 1.0, 0.0),
        ("severe", 1.875, 0.075),
        # moment-matched: mean e^{m + s^2/2}, var/mean = mean (e^{s^2} - 1)
        ("lognormal", math.exp(1.55 + 0.32), math.exp(1.55 + 0.32) * math.expm1(0.64)),
    ],
)
def test_truth_of_the_corrections_is_the_population_term_of_the_law(preset, c, b):
    sc = builtin_scenarios()[preset]
    gh = dict(zip(DESIGN1_GH.layout.names, DESIGN1_GH.values.tolist()))
    assert sc.truth_for("M1") == gh
    assert sc.truth_for("M2") == pytest.approx({**gh, "gamma": c}, rel=1e-12)
    assert sc.truth_for("M3") == pytest.approx({**gh, "mu": c, "b": b}, rel=1e-12)
    assert sc.truth_for("M4") == pytest.approx({**gh, "c": c}, rel=1e-12)
    if sc.frailty is not None:  # M3's truth is the law's (c, b), bit for bit
        assert (sc.truth_for("M3")["mu"], sc.truth_for("M3")["b"]) == sc.frailty.population


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


@pytest.mark.parametrize("pilot_n", [0, -5, 2.5, 1e5, math.nan, None])
def test_calibration_rejects_a_pilot_that_is_not_a_positive_integer(table, pilot_n):
    with pytest.raises(ValueError, match="pilot_n must be an integer >= 1"):
        calibrate_dropout_rate(builtin_scenarios()["wide-dropout"], 0.30, table, pilot_n=pilot_n)


def test_calibration_reports_a_pilot_too_small_to_reach_the_target(table):
    # one patient censors 0 or 1: no rate comes within 0.005 of 0.3
    with pytest.raises(TargetUnreachable, match=r"pilot of 1 patients ended at [01]\.000 censoring"):
        calibrate_dropout_rate(builtin_scenarios()["wide-dropout"], 0.30, table, pilot_n=1)


def test_pickled_parameters_and_tables_stay_read_only(table):
    # run_study(jobs > 1) sends the scenario and the table to its workers.
    # Every copy of a record reruns its constructor: each array comes back
    # read-only with the original's bytes, and a cohort's EW memo and
    # information workspace stay behind.
    sc = replace(builtin_scenarios()["moderate"], n=300)
    cohort = replicate_cohort(sc, 0, table)
    fits = fit_all(cohort)
    loglik_grad_hess(fits["M3"].to_model_params(), cohort)
    assert cohort._ew_memo and cohort._workspace
    records = (table, sc.gh.layout, sc.gh, generate_cohort(sc, 0, table), cohort, fits["M3"])
    for how in (lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy):
        for record in records:
            twin = how(record)
            assert type(twin) is type(record) and twin is not record
            arrays = {k: v for k, v in vars(record).items() if isinstance(v, np.ndarray)}
            assert arrays
            for name, arr in arrays.items():
                got = getattr(twin, name)
                assert not got.flags.writeable, (type(record).__name__, name)
                assert (got.dtype, got.shape) == (arr.dtype, arr.shape)
                assert got.tobytes() == arr.tobytes()
        twin = how(cohort)
        for cache in ("_ew_memo", "_workspace"):
            assert getattr(twin, cache) == {} and getattr(twin, cache) is not getattr(cohort, cache)
    gh, twin = sc.gh, pickle.loads(pickle.dumps(sc)).gh
    assert twin.layout == gh.layout and twin.values.tolist() == gh.values.tolist()
    for arr in (twin.values, twin.baseline, twin.beta1, twin.beta2, twin.correction):
        assert not arr.flags.writeable
    twin = pickle.loads(pickle.dumps(table))
    assert (twin.age_max, twin.year_max) == (table.age_max, table.year_max)
    assert twin.strata == table.strata
    assert twin.codes([("1",), ("0",)]).tolist() == [1, 0]
    with pytest.raises(FrozenInstanceError):
        twin.age_min = 0


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
    assert [r["index"] for r in serial.records] == [0, 1]
    assert _same(serial.records, parallel.records)


def test_study_records_are_the_fits_of_fit_all(table):
    # each record holds its replicate's fit_all fits, bit for bit
    sc = replace(builtin_scenarios()["moderate-dropout"], n=300, n_replicates=3)
    study = run_study(sc, table)
    drawn = replace(sc, dropout_rate=study.dropout_rate, dropout_target=None)
    assert [r["index"] for r in study.records] == [0, 1, 2]
    for record in study.records:
        cohort = prepare_cohort(
            generate_cohort(drawn, record["index"], table), table, sc.advance_year, COVARIATES
        )
        fits = fit_all(cohort, sc.fit)
        assert record["error"] is None and list(record["models"]) == list(fits)
        for model, res in fits.items():
            row = record["models"][model]
            assert row["ll"].hex() == res.loglik_comparable.hex(), model
            assert row["evals"] == res.n_evals and row["converged"] == res.converged, model
            assert row["notes"] == list(res.notes) and row["at_bound"] == list(res.at_bound)
            assert _same([row[f] for f in ("grad_max_norm", "decrement", "min_eig")],
                         [res.grad_max_norm, res.decrement, res.min_eig]), model


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
    smallest = iter([math.nan, -1.0])

    def fit_all_with_verdicts(cohort, cfg):
        fits = fit_all(cohort, cfg)
        return {**fits,
                "M1": replace(fits["M1"], converged=True, min_eig=next(smallest)),
                "M2": replace(fits["M2"], converged=True, min_eig=math.nan)}

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
        fits.append(fit_all(replicate_cohort(sc, i, table), sc.fit))
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
        picked = [chosen.estimates[chosen.param_names.index(name)] for chosen, _ in picks]
        assert pooled == np.mean(picked), name
    assert study.params["M4"]["c"].mmle == np.mean([c for _, c in picks])


def test_study_counts_pooled_fits_on_the_box_edge(table, tmp_path):
    # On this cohort M2 ends with gamma on the box floor e^-20, is flagged
    # converged, and AIC picks it for M4 (M3 does not converge: it ends with
    # beta1_age and beta1_w on the box).
    sc = replace(
        builtin_scenarios()["wide"], n=300, n_replicates=1, admin_censor_time=30.0, seed=20
    )
    study = run_study(sc, table)
    assert study.params["M4"]["c"].mmle == pytest.approx(math.exp(-20.0), rel=1e-12)
    assert study.at_bound == {"M1": 0, "M2": 1, "M3": 0, "M4": 1}
    write_study_reports(study, tmp_path)
    with open(tmp_path / "selection.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["model"]: row["at_bound"] for row in rows} == {
        "M1": "0", "M2": "1", "M3": "0", "M4": "1"
    }
