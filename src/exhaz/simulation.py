"""Synthetic-cohort generation and the parameter-recovery study engine.

Design I: covariates are age (mixture of uniforms: 0.25 on (30,65), 0.35 on
(65,75), 0.40 on (75,85)), sex ~ Bernoulli(0.5), and a binary W ~
Bernoulli(0.5); all patients are diagnosed in the same calendar year.
These are constants of the design, not scenario settings: the diagnosis
year is ``DIAGNOSIS_YEAR`` (2010) and the excess-hazard age covariate is
age - ``AGE_CENTER`` (age - 70, a per-year slope; see builtin_scenarios).
Other-cause times come from inverting the life-table cumulative hazard
(optionally scaled by a per-patient frailty draw), excess times from
inverting the GH net survival, and censoring is administrative at T_C plus
an optional exponential drop-out whose rate can be calibrated to a target
censoring proportion.

A study runs N replicates (per-replicate RNG stream seeded base + index),
fits M1-M3 plus the AIC-selected M4 on each, and records one row per model
and M4's pick per replicate.  Every model's recovery metrics (mean/median
of the MLEs, empirical SD, mean estimated SE, RMSE, and coverage of the
natural-scale Wald intervals) come from one pooling of rows: M1-M3 pool
the replicates where their own fit converged, and M4 pools the row of the
model AIC chose among the converged fits, plus c from the pick.  The
metrics are conditional on convergence.  The excluded counts appear in
``selection.csv``: ``not_converged`` for M1-M3, and on the M4 row the
replicates with no converged fit to choose from.  Its ``at_bound`` column
counts the pooled rows with a parameter on the edge of the search box,
such as an M2 gamma that switched the population hazard off.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .distributions import (
    GammaFrailtyParams,
    LogNormalFrailtyParams,
    sample_gamma_frailty,
    sample_lognormal_frailty,
)
from .errors import ExhazError, NoEligibleFit, TargetUnreachable
from .estimation import MODELS, FitConfig, confidence_intervals, fit_all, select_m4
from .gh_model import inverse_excess_survival
from .lifetable import LifeTable, load_life_table
from .likelihoods import Cohort, ModelParams, ParamLayout, PreparedCohort, prepare_cohort

__all__ = [
    "ScenarioConfig",
    "ParamMetrics",
    "StudyMetrics",
    "design_life_table",
    "generate_covariates",
    "generate_cohort",
    "replicate_cohort",
    "calibrate_dropout_rate",
    "run_study",
    "builtin_scenarios",
    "write_study_reports",
]

COVARIATES = ("age", "sex", "w")
# Design-I truth: kappa, theta, alpha, then beta1 and beta2 over COVARIATES
DESIGN1_GH = ParamLayout.for_model("M1", COVARIATES).to_params(
    [0.6, 1.75, 2.5, 0.1, 0.1, 0.1, 0.05, 0.2, 0.25]
)
DIAGNOSIS_YEAR = 2010.0
AGE_CENTER = 70.0
_SEX_STRATA = (("0",), ("1",))  # life-table strata of the sex codes 0 and 1
_CALIBRATION_TOL = 0.005  # drop-out calibration: |censoring - target| that ends the search
_INVERSION_BLOCK = 8192  # rows per call of each inversion in _event_times
log = logging.getLogger("exhaz")


def design_life_table() -> LifeTable:
    """Bundled synthetic two-sex life table for the recovery study.

    Gompertz-Makeham hazards by single year of age (constant over calendar
    years); stratum "1" is the higher-mortality (male-like) group.  Levels
    are calibrated so that the Design-I recovery study reproduces the
    published bias/coverage behavior of the uncorrected and corrected
    models; they sit roughly twice above current UK national rates,
    resembling an older, higher-mortality reference population.
    """

    rates = np.array([  # by age 0-104 and sex code (_SEX_STRATA), in any year
        [min(4.72e-5 * math.exp(0.0923 * age) + 3.0e-4, 0.7),
         min(7.9e-5 * math.exp(0.0905 * age) + 4.0e-4, 0.7)]
        for age in range(105)
    ])
    grid = np.repeat(rates[:, None, :], 2024 - 2005 + 1, axis=1)  # years 2005-2024
    return LifeTable(("sex",), 0, 2005, grid, _SEX_STRATA)


def _check_censoring_target(target: float) -> None:
    if not 0.0 < target < 1.0:
        raise ValueError(f"censoring target must be in (0, 1), got {target}")


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario: truth, frailty law, censoring, and seeds.

    ``gh`` is the excess-hazard truth, M1 params over ``COVARIATES``.
    """

    name: str
    n: int = 5000
    n_replicates: int = 1000
    gh: ModelParams = DESIGN1_GH
    frailty: GammaFrailtyParams | LogNormalFrailtyParams | None = None
    admin_censor_time: float = 5.0
    dropout_rate: float | None = None
    dropout_target: float | None = None  # calibrated to a rate when set; excludes dropout_rate
    advance_year: bool = True
    life_table_path: str | None = None  # None: bundled synthetic table
    seed: int = 0
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        for name in ("n", "n_replicates"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not self.admin_censor_time > 0:  # inf: no administrative censoring
            raise ValueError(f"admin_censor_time must be > 0, got {self.admin_censor_time}")
        if self.dropout_rate is not None and not (
            math.isfinite(self.dropout_rate) and self.dropout_rate > 0
        ):
            raise ValueError(f"dropout_rate must be finite and > 0, got {self.dropout_rate}")
        if self.dropout_target is not None:
            _check_censoring_target(self.dropout_target)
            if self.dropout_rate is not None:
                raise ValueError("dropout_rate and dropout_target are both set: set one of them")

    def frailty_mean(self) -> float:
        if self.frailty is None:
            return 1.0
        if isinstance(self.frailty, GammaFrailtyParams):
            return self.frailty.mu
        return math.exp(self.frailty.m + 0.5 * self.frailty.s**2)

    def frailty_scale_truth(self) -> float:
        """Truth for b: the Gamma scale, or a moment-matched value (var/mean)."""
        if self.frailty is None:
            return 0.0
        if isinstance(self.frailty, GammaFrailtyParams):
            return self.frailty.b
        mean = self.frailty_mean()
        var = (math.exp(self.frailty.s**2) - 1.0) * mean**2
        return var / mean

    def resolve_table(self) -> LifeTable:
        if self.life_table_path is None:
            return design_life_table()
        return load_life_table(self.life_table_path)

    def truth_for(self, model: str) -> dict[str, float]:
        """True value of each parameter of ``model``, by name (M4: the GH
        parameters and c)."""
        vals = dict(zip(self.gh.layout.names, self.gh.values.tolist()))
        if model == "M2":
            vals["gamma"] = self.frailty_mean()
        elif model == "M3":
            vals["mu"] = self.frailty_mean()
            vals["b"] = self.frailty_scale_truth()
        elif model == "M4":
            vals["c"] = self.frailty_mean()
        return vals


def generate_covariates(n, rng):
    """Design-I covariates.

    Returns (ages, sex, w, X) with X = [age - AGE_CENTER, sex, w].
    Draw order is fixed (band selector, within-band uniform, sex, w) so
    streams are reproducible.
    """
    band = rng.uniform(size=n)
    u = rng.uniform(size=n)
    ages = np.where(
        band < 0.25,
        30.0 + 35.0 * u,
        np.where(band < 0.60, 65.0 + 10.0 * u, 75.0 + 10.0 * u),
    )
    sex = rng.integers(0, 2, size=n)
    w = rng.integers(0, 2, size=n)
    X = np.column_stack([ages - AGE_CENTER, sex, w]).astype(float)
    return ages, sex, w, X


def _draw_frailty(sc: ScenarioConfig, rng, n):
    if sc.frailty is None:
        return np.ones(n)
    if isinstance(sc.frailty, GammaFrailtyParams):
        return sample_gamma_frailty(sc.frailty, rng, size=n)
    return sample_lognormal_frailty(sc.frailty, rng, size=n)


def _event_times(sc: ScenarioConfig, table: LifeTable, n: int, rng):
    """Covariates and first-event times (other-cause or excess) of n patients.

    Returns (ages, sex, X, t_event); sex is each patient's code over
    ``_SEX_STRATA``.  Draw order is fixed (covariates, frailty, other-cause
    uniform, excess uniform) and every draw is taken before any inversion,
    so streams are reproducible.

    Both inversions then run over blocks of ``_INVERSION_BLOCK`` rows, so
    their working memory stays bounded for a large pilot; every study
    cohort (n <= 5000) is one block.  Each row's time is a function of that
    row alone, so it has the bits of one whole-batch call.

    The other-cause inversion stops at ``sc.admin_censor_time`` (inf walks
    each diagonal to the end): an other-cause time past it is inf.  Every
    censoring time is at most that horizon, so min(t_event, t_cens) and
    t_event <= t_cens are the bits the full inversion gives.
    """
    ages, sex, _, X = generate_covariates(n, rng)
    gamma = _draw_frailty(sc, rng, n)
    u_pop = rng.uniform(size=n)
    u_exc = rng.uniform(size=n)
    codes = table.codes(_SEX_STRATA)[sex]
    t_event = np.empty(n)
    for start in range(0, n, _INVERSION_BLOCK):
        rows = slice(start, start + _INVERSION_BLOCK)
        t_exc = np.asarray(inverse_excess_survival(u_exc[rows], X[rows], sc.gh))
        t_pop = table.other_cause_time_inverse(
            ages[rows], DIAGNOSIS_YEAR, codes[rows], u_pop[rows], frailty=gamma[rows],
            advance_year=sc.advance_year, horizon=sc.admin_censor_time,
        )
        np.minimum(t_pop, t_exc, out=t_event[rows])
    return ages, sex, X, t_event


def generate_cohort(sc: ScenarioConfig, replicate_index: int, table: LifeTable) -> Cohort:
    """One synthetic cohort; RNG stream is seeded sc.seed + replicate_index.

    Drop-out is exponential at ``sc.dropout_rate`` (none when None); a
    target must first be calibrated to a rate (``calibrate_dropout_rate``).
    """
    if sc.dropout_target is not None:
        raise ValueError("dropout_target is set: calibrate it to a dropout_rate first")
    rng = np.random.default_rng(sc.seed + replicate_index)
    ages, sex, X, t_event = _event_times(sc, table, sc.n, rng)
    if sc.dropout_rate is not None:
        t_drop = rng.exponential(1.0, size=sc.n) / sc.dropout_rate
    else:
        t_drop = np.full(sc.n, np.inf)
    t_cens = np.minimum(t_drop, sc.admin_censor_time)
    return Cohort(
        time=np.minimum(t_event, t_cens),
        status=t_event <= t_cens,
        age_diag=ages,
        year_diag=np.full(sc.n, DIAGNOSIS_YEAR),
        X=X,
        strata=_SEX_STRATA,
        stratum=sex,
    )


def replicate_cohort(sc: ScenarioConfig, index: int, table: LifeTable) -> PreparedCohort:
    """Replicate ``index`` of ``sc`` as the study fits it; its drop-out must be a rate."""
    return prepare_cohort(generate_cohort(sc, index, table), table, sc.advance_year, COVARIATES)


def _pilot_times(sc: ScenarioConfig, table: LifeTable, pilot_n: int):
    """Event times and unit-exponential drop-out draws for calibration.

    The pilot stream is seeded [sc.seed, 0x5EED], apart from every
    replicate's stream.
    """
    rng = np.random.default_rng([sc.seed, 0x5EED])
    _, _, _, t_event = _event_times(sc, table, pilot_n, rng)
    e_drop = rng.exponential(1.0, size=pilot_n)
    return t_event, e_drop


def calibrate_dropout_rate(
    sc: ScenarioConfig,
    target_censoring: float,
    table: LifeTable,
    pilot_n: int = 100_000,
) -> tuple[float, float]:
    """Bisection on the drop-out rate until a pilot cohort censors at target.

    The search stops within ``_CALIBRATION_TOL`` (0.005) of the target.
    Returns (rate, achieved proportion); a target outside (0, 1) or a
    ``pilot_n`` that is not an integer >= 1 raises ValueError, and a search
    that ends outside the tolerance (a pilot too small to resolve it)
    raises TargetUnreachable.  The pilot event times and unit-exponential
    drop-out draws are fixed once, so the censoring proportion is a
    deterministic monotone function of the rate and the search is
    reproducible.  The pilot's other-cause times stop at
    ``sc.admin_censor_time`` as a cohort's do (``_event_times``); a time
    past it is censored at any rate, so the proportions and the rate are
    those of the full inversion.
    """
    _check_censoring_target(target_censoring)
    if not (isinstance(pilot_n, numbers.Integral) and pilot_n >= 1):
        raise ValueError(f"pilot_n must be an integer >= 1, got {pilot_n!r}")
    t_event, e_drop = _pilot_times(sc, table, pilot_n)
    t_c = sc.admin_censor_time

    def censoring(rate: float) -> float:
        t_cens = np.minimum(e_drop / rate, t_c) if rate > 0 else np.full_like(e_drop, t_c)
        return float(np.mean(t_event > t_cens))

    admin_only = float(np.mean(t_event > t_c))
    if admin_only >= target_censoring:
        raise TargetUnreachable(
            f"administrative censoring alone is {admin_only:.3f} >= target {target_censoring:.3f}"
        )
    lo, hi = 1e-6, 10.0
    if censoring(hi) < target_censoring - _CALIBRATION_TOL:
        raise TargetUnreachable(
            f"even rate {hi} reaches only {censoring(hi):.3f} censoring "
            f"< target {target_censoring:.3f}"
        )
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        c = censoring(mid)
        if abs(c - target_censoring) <= _CALIBRATION_TOL:
            return mid, c
        if c < target_censoring:
            lo = mid
        else:
            hi = mid
    raise TargetUnreachable(
        f"the search over a pilot of {pilot_n} patients ended at {c:.3f} censoring, "
        f"not within {_CALIBRATION_TOL} of target {target_censoring:.3f}"
    )


# ---------------------------------------------------------------------------
# study engine
# ---------------------------------------------------------------------------

STUDY_MODELS = (*MODELS, "M4")


@dataclass(frozen=True)
class ParamMetrics:
    truth: float
    mmle: float
    mmedian: float
    esd: float
    mean_se: float
    rmse: float
    coverage: float


@dataclass(frozen=True)
class StudyMetrics:
    """Recovery metrics per model, AIC selection shares, failure counts and the records."""

    scenario: str
    n: int
    n_replicates: int
    seed: int
    params: dict[str, dict[str, ParamMetrics]]  # model -> name -> metrics
    selection: dict[str, float]  # model -> proportion selected by AIC
    not_converged: dict[str, int]  # model -> replicates excluded
    at_bound: dict[str, int]  # model (M1-M4) -> pooled rows with a parameter on the box
    m4_failures: int
    hessian_pd_rate: dict[str, float]  # among converged fits with a finite information matrix
    mean_censoring: float
    dropout_rate: float | None
    pilot_censoring: float | None
    wall_time_s: float
    records: list[dict] = field(repr=False)  # one per replicate, in index order (_run_replicate)


def _run_replicate(args):
    """One replicate's record: its censoring, one row per model, M4's pick and the error.

    A row maps names to estimates, SEs and Wald intervals (None without SEs)
    and lists the parameters on the box edge, and holds the fit's flags, its
    ll on the comparable scale, evals, gradient max-norm, Newton decrement,
    smallest eigenvalue and notes; the pick (None when no fit is eligible)
    is a row holding c alone.  A ``fit_all`` that raises leaves its error,
    no rows and no pick.
    """
    sc, index, table = args
    cohort = replicate_cohort(sc, index, table)
    censoring = float(1.0 - cohort.status.mean())
    record = {"index": index, "censoring": censoring, "models": {}, "m4": None, "error": None}
    try:
        fits = fit_all(cohort, sc.fit)
    except ExhazError as exc:
        return {**record, "error": f"{type(exc).__name__}: {exc}"}
    rows = {
        model: {
            "estimates": dict(zip(res.param_names, res.estimates)),
            "ses": None if res.std_errors is None else dict(zip(res.param_names, res.std_errors)),
            "cis": confidence_intervals(res) if res.ses_available else None,
            "converged": res.converged,
            "at_bound": list(res.at_bound),
            "ll": res.loglik_comparable,
            "evals": res.n_evals,
            "grad_max_norm": res.grad_max_norm,
            "decrement": res.decrement,
            "min_eig": res.min_eig,
            "notes": list(res.notes),
        }
        for model, res in fits.items()
    }
    try:
        chosen, c_hat = select_m4(fits)
        pick = {"model": chosen.model, "estimates": {"c": float(c_hat)}, "ses": None, "cis": None}
    except NoEligibleFit:
        pick = None
    return {**record, "models": rows, "m4": pick}


def _metrics_for(truth: float, rows, name: str) -> ParamMetrics:
    """Recovery metrics of parameter ``name`` over the rows one model pools."""
    ests = np.array([row["estimates"][name] for row in rows], dtype=float)
    n = len(ests)
    mmle = float(np.mean(ests)) if n else math.nan
    mmed = float(np.median(ests)) if n else math.nan
    esd = float(np.std(ests, ddof=1)) if n > 1 else math.nan
    rmse = float(np.sqrt(np.mean((ests - truth) ** 2))) if n and not math.isnan(truth) else math.nan
    ses = [row["ses"][name] for row in rows if row["ses"] is not None]
    ses = [s for s in ses if math.isfinite(s)]
    mean_se = float(np.mean(ses)) if ses else math.nan
    covers = [row["cis"][name][0] <= truth <= row["cis"][name][1] for row in rows if row["cis"]]
    coverage = float(np.mean(covers)) if covers and not math.isnan(truth) else math.nan
    return ParamMetrics(truth, mmle, mmed, esd, mean_se, rmse, coverage)


def run_study(sc: ScenarioConfig, table: LifeTable | None = None, jobs: int = 1) -> StudyMetrics:
    """Generate-fit-score over N replicates; deterministic for fixed config/seed.

    M1-M3 pool the replicates where their fit converged (``not_converged``
    counts the rest); M4 pools the row AIC chose and c from the pick
    (``m4_failures`` counts replicates with no converged fit).  A replicate
    whose ``fit_all`` raises is logged and counted in both.  Metric
    accumulation is ordered by replicate index regardless of worker count,
    and ``records`` holds every replicate's record in that order.
    """
    t_start = time.monotonic()
    if table is None:
        table = sc.resolve_table()
    dropout_rate, pilot_cens = sc.dropout_rate, None
    if sc.dropout_target is not None:
        dropout_rate, pilot_cens = calibrate_dropout_rate(sc, sc.dropout_target, table)
    sc_run = replace(sc, dropout_rate=dropout_rate, dropout_target=None)

    tasks = [(sc_run, i, table) for i in range(sc.n_replicates)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_replicate, tasks, chunksize=max(1, len(tasks) // (4 * jobs))))
    else:
        results = [_run_replicate(t) for t in tasks]
    results.sort(key=lambda r: r["index"])
    for r in results:
        if r["error"] is not None:
            log.warning("replicate %d: fit_all raised %s", r["index"], r["error"])

    picks = [r["m4"] for r in results if r["m4"] is not None]
    pools = {
        m: [r["models"][m] for r in results if m in r["models"] and r["models"][m]["converged"]]
        for m in MODELS
    }
    pools["M4"] = [r["models"][r["m4"]["model"]] for r in results if r["m4"] is not None]
    names = {m: ParamLayout.for_model(m, COVARIATES).names for m in MODELS}
    # min_eig is NaN where the information matrix is not finite: no PD verdict
    verdicts = {m: [row["min_eig"] >= 0 for row in pools[m] if not math.isnan(row["min_eig"])]
                for m in MODELS}
    names["M4"] = names["M1"]  # the parameters every model shares

    params = {}
    for model in STUDY_MODELS:
        truth = sc.truth_for(model)
        params[model] = {
            name: _metrics_for(truth.get(name, math.nan), pools[model], name)
            for name in names[model]
        }
    params["M4"]["c"] = _metrics_for(sc.truth_for("M4")["c"], picks, "c")

    return StudyMetrics(
        scenario=sc.name,
        n=sc.n,
        n_replicates=sc.n_replicates,
        seed=sc.seed,
        params=params,
        selection={
            m: float(np.mean([p["model"] == m for p in picks])) if picks else math.nan
            for m in MODELS
        },
        not_converged={m: len(results) - len(pools[m]) for m in MODELS},
        at_bound={m: sum(bool(row["at_bound"]) for row in pools[m]) for m in STUDY_MODELS},
        m4_failures=len(results) - len(picks),
        hessian_pd_rate={m: float(np.mean(v)) if v else math.nan for m, v in verdicts.items()},
        mean_censoring=float(np.mean([r["censoring"] for r in results])),
        dropout_rate=dropout_rate,
        pilot_censoring=pilot_cens,
        wall_time_s=time.monotonic() - t_start,
        records=results,
    )


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def builtin_scenarios() -> dict[str, ScenarioConfig]:
    """Named presets: four mismatch levels x two censoring regimes, plus a
    lognormal-misspecification scenario (its (m, s) are illustrative
    defaults; override them with dataclasses.replace).

    The excess-hazard age covariate enters as age - 70 (per-year slope): the
    reported recovery targets for the Design-I truth are only reproducible
    with that transform (the empirical SD ratios between the age and binary
    coefficients pin it down).  It is fixed by the design (``AGE_CENTER``),
    as is the diagnosis year (``DIAGNOSIS_YEAR``).
    """
    frailties = {
        "none": None,
        "moderate": GammaFrailtyParams(1.2, 0.02),
        "severe": GammaFrailtyParams(1.875, 0.075),
        "wide": GammaFrailtyParams(6.5, 10.0),
    }
    out: dict[str, ScenarioConfig] = {}
    for name, frailty in frailties.items():
        out[name] = ScenarioConfig(name=name, frailty=frailty)
        out[f"{name}-dropout"] = ScenarioConfig(
            name=f"{name}-dropout", frailty=frailty, dropout_target=0.30
        )
    out["lognormal"] = ScenarioConfig(
        name="lognormal",
        frailty=LogNormalFrailtyParams(m=1.55, s=0.8),
        dropout_target=0.30,
    )
    return out


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float) and math.isnan(v):
        return ""
    return repr(float(v))


def write_study_reports(study: StudyMetrics, outdir: str | Path) -> list[Path]:
    """One CSV per model, selection.csv, and a manifest.  Returns the paths.

    A model's CSV covers the replicates it pools (see ``run_study``); the
    ``not_converged`` column of selection.csv counts those it leaves out,
    on the M4 row the replicates with no converged fit, and ``at_bound``
    the pooled rows with a parameter on the box edge.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for model in STUDY_MODELS:
        path = outdir / f"{model}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("param,truth,mmle,mmedian,esd,mean_se,rmse,coverage\n")
            for name, m in study.params[model].items():
                fh.write(
                    f"{name},{_fmt(m.truth)},{_fmt(m.mmle)},{_fmt(m.mmedian)},"
                    f"{_fmt(m.esd)},{_fmt(m.mean_se)},{_fmt(m.rmse)},{_fmt(m.coverage)}\n"
                )
        written.append(path)

    path = outdir / "selection.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("model,selected_proportion,not_converged,at_bound\n")
        for model in MODELS:
            fh.write(
                f"{model},{_fmt(study.selection[model])},{study.not_converged[model]},"
                f"{study.at_bound[model]}\n"
            )
        fh.write(f"M4,,{study.m4_failures},{study.at_bound['M4']}\n")
    written.append(path)

    path = outdir / "manifest.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"scenario={study.scenario}\n")
        fh.write(f"n={study.n}\n")
        fh.write(f"n_replicates={study.n_replicates}\n")
        fh.write(f"seed={study.seed}\n")
        fh.write(f"dropout_rate={'' if study.dropout_rate is None else repr(study.dropout_rate)}\n")
        fh.write(
            f"pilot_censoring={'' if study.pilot_censoring is None else repr(study.pilot_censoring)}\n"
        )
        fh.write(f"mean_censoring={study.mean_censoring!r}\n")
        for model in MODELS:
            fh.write(f"hessian_pd_rate_{model}={_fmt(study.hessian_pd_rate[model])}\n")
        fh.write(f"wall_time_s={study.wall_time_s!r}\n")
    written.append(path)
    return written

