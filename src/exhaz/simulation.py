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
fits M1-M3 plus the AIC-selected M4 on each, and accumulates the recovery
metrics: mean/median of the MLEs, empirical SD, mean estimated SE, RMSE,
and coverage of the natural-scale Wald intervals.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .distributions import (
    EwParams,
    GammaFrailtyParams,
    LogNormalFrailtyParams,
    sample_gamma_frailty,
    sample_lognormal_frailty,
)
from .errors import DataError, NoEligibleFit, TargetUnreachable
from .estimation import FitConfig, confidence_intervals, fit_all, select_m4
from .gh_model import GhParams, inverse_excess_survival
from .lifetable import LexisPosition, LifeTable, load_life_table, make_life_table
from .likelihoods import PatientRecord, prepare_cohort

__all__ = [
    "ScenarioConfig",
    "ParamMetrics",
    "StudyMetrics",
    "design_life_table",
    "generate_covariates",
    "generate_cohort",
    "calibrate_dropout_rate",
    "run_study",
    "builtin_scenarios",
    "write_study_reports",
    "read_study_report",
]

DESIGN1_GH = GhParams(
    EwParams(kappa=0.6, theta=1.75, alpha=2.5),
    beta1=np.array([0.1, 0.1, 0.1]),
    beta2=np.array([0.05, 0.2, 0.25]),
)
COVARIATES = ("age", "sex", "w")
DIAGNOSIS_YEAR = 2010.0
AGE_CENTER = 70.0
_SEX_STRATA = (("0",), ("1",))  # life-table strata of sex 0 and 1, shared by every record
_CALIBRATION_TOL = 0.005  # drop-out calibration: |censoring - target| that ends the search


def design_life_table() -> LifeTable:
    """Bundled synthetic two-sex life table for the recovery study.

    Gompertz-Makeham hazards by single year of age (constant over calendar
    years); stratum "1" is the higher-mortality (male-like) group.  Levels
    are calibrated so that the Design-I recovery study reproduces the
    published bias/coverage behavior of the uncorrected and corrected
    models; they sit roughly twice above current UK national rates,
    resembling an older, higher-mortality reference population.
    """

    def rate(age, year, strata):
        if strata[0] == "1":
            return min(7.9e-5 * math.exp(0.0905 * age) + 4.0e-4, 0.7)
        return min(4.72e-5 * math.exp(0.0923 * age) + 3.0e-4, 0.7)

    return make_life_table(
        ["sex"], (0, 104), (2005, 2024), rate, [("0",), ("1",)]
    )


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario: truth, frailty law, censoring, and seeds."""

    name: str
    n: int = 5000
    n_replicates: int = 1000
    gh: GhParams = DESIGN1_GH
    frailty: GammaFrailtyParams | LogNormalFrailtyParams | None = None
    admin_censor_time: float = 5.0
    dropout_rate: float | None = None
    dropout_target: float | None = None  # calibrated to a rate when set
    advance_year: bool = True
    life_table_path: str | None = None  # None: bundled synthetic table
    seed: int = 0
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        if self.n < 1 or self.n_replicates < 1:
            raise ValueError("n and n_replicates must be >= 1")
        if self.admin_censor_time <= 0:
            raise ValueError("admin_censor_time must be > 0")

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
        vals = {
            "kappa": self.gh.baseline.kappa,
            "theta": self.gh.baseline.theta,
            "alpha": self.gh.baseline.alpha,
        }
        for i, c in enumerate(COVARIATES):
            vals[f"beta1_{c}"] = float(self.gh.beta1[i])
            vals[f"beta2_{c}"] = float(self.gh.beta2[i])
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

    Returns (ages, strata, X, t_event).  Draw order is fixed (covariates,
    frailty, other-cause uniform, excess uniform) so streams are
    reproducible.
    """
    ages, sex, _, X = generate_covariates(n, rng)
    gamma = _draw_frailty(sc, rng, n)
    u_pop = rng.uniform(size=n)
    u_exc = rng.uniform(size=n)
    t_exc = np.asarray(inverse_excess_survival(u_exc, X, sc.gh))
    strata = [_SEX_STRATA[v] for v in sex]
    t_pop = table.other_cause_time_inverse(
        LexisPosition(ages, DIAGNOSIS_YEAR, strata),
        u_pop,
        frailty=gamma,
        advance_year=sc.advance_year,
    )
    return ages, strata, X, np.minimum(t_pop, t_exc)


def generate_cohort(
    sc: ScenarioConfig, replicate_index: int, table: LifeTable
) -> list[PatientRecord]:
    """One synthetic cohort; RNG stream is seeded sc.seed + replicate_index."""
    rng = np.random.default_rng(sc.seed + replicate_index)
    ages, strata, X, t_event = _event_times(sc, table, sc.n, rng)
    if sc.dropout_rate is not None:
        t_drop = rng.exponential(1.0, size=sc.n) / sc.dropout_rate
    else:
        t_drop = np.full(sc.n, np.inf)
    t_cens = np.minimum(t_drop, sc.admin_censor_time)
    time = np.minimum(t_event, t_cens)
    status = t_event <= t_cens
    return [
        PatientRecord(
            time=float(time[i]),
            status=int(status[i]),
            age_diag=float(ages[i]),
            year_diag=DIAGNOSIS_YEAR,
            x=X[i],
            z=strata[i],
        )
        for i in range(sc.n)
    ]


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
    Returns (rate, achieved proportion).  The pilot event times and
    unit-exponential drop-out draws are fixed once, so the censoring
    proportion is a deterministic monotone function of the rate and the
    search is reproducible.
    """
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
    return mid, c


# ---------------------------------------------------------------------------
# study engine
# ---------------------------------------------------------------------------

STUDY_MODELS = ("M1", "M2", "M3", "M4")


@dataclass(frozen=True)
class ParamMetrics:
    truth: float
    mmle: float
    mmedian: float
    esd: float
    mean_se: float
    rmse: float
    coverage: float
    n_used: int


@dataclass(frozen=True)
class StudyMetrics:
    """Recovery metrics per model, AIC selection shares, and failure counts."""

    scenario: str
    n: int
    n_replicates: int
    seed: int
    params: dict[str, dict[str, ParamMetrics]]  # model -> name -> metrics
    selection: dict[str, float]  # model -> proportion selected by AIC
    not_converged: dict[str, int]  # model -> replicates excluded
    m4_failures: int
    hessian_pd_rate: dict[str, float]  # among converged fits
    mean_censoring: float
    dropout_rate: float | None
    pilot_censoring: float | None
    wall_time_s: float


def _run_replicate(args):
    sc, index, table = args
    records = generate_cohort(sc, index, table)
    cohort = prepare_cohort(
        records, table, advance_year=sc.advance_year, covariate_names=COVARIATES
    )
    censoring = 1.0 - cohort.status.mean()
    fits = fit_all(cohort, sc.fit)
    out = {"index": index, "censoring": float(censoring), "models": {}}
    for model, res in fits.items():
        cis = confidence_intervals(res) if res.ses_available else None
        out["models"][model] = {
            "names": res.param_names,
            "estimates": np.asarray(res.estimates),
            "ses": None if res.std_errors is None else np.asarray(res.std_errors),
            "cis": cis,
            "converged": res.converged,
            "hessian_pd": res.hessian_pd,
            "aic": res.aic,
        }
    try:
        chosen, c_hat = select_m4(fits)
        out["m4"] = {"model": chosen.model, "c": float(c_hat)}
    except NoEligibleFit:
        out["m4"] = None
    return out


def _metrics_for(name, truth, ests, ses, covers):
    ests = np.asarray(ests, dtype=float)
    n_used = len(ests)
    mmle = float(np.mean(ests)) if n_used else math.nan
    mmed = float(np.median(ests)) if n_used else math.nan
    esd = float(np.std(ests, ddof=1)) if n_used > 1 else math.nan
    if math.isnan(truth):
        rmse = math.nan
    else:
        rmse = float(np.sqrt(np.mean((ests - truth) ** 2))) if n_used else math.nan
    ses = [s for s in ses if s is not None and math.isfinite(s)]
    mean_se = float(np.mean(ses)) if ses else math.nan
    covers = [c for c in covers if c is not None]
    coverage = float(np.mean(covers)) if covers and not math.isnan(truth) else math.nan
    return ParamMetrics(truth, mmle, mmed, esd, mean_se, rmse, coverage, n_used)


def run_study(sc: ScenarioConfig, table: LifeTable | None = None, jobs: int = 1) -> StudyMetrics:
    """Generate-fit-score over N replicates; deterministic for fixed config/seed.

    Replicates whose fit is flagged NotConverged are excluded from that
    model's metrics and counted.  Metric accumulation is ordered by
    replicate index regardless of worker count.
    """
    t_start = time.monotonic()
    if table is None:
        table = sc.resolve_table()
    dropout_rate = sc.dropout_rate
    pilot_cens = None
    if dropout_rate is None and sc.dropout_target is not None:
        dropout_rate, pilot_cens = calibrate_dropout_rate(sc, sc.dropout_target, table)
    sc_run = replace(sc, dropout_rate=dropout_rate, dropout_target=None)

    tasks = [(sc_run, i, table) for i in range(sc.n_replicates)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_replicate, tasks, chunksize=max(1, len(tasks) // (4 * jobs))))
    else:
        results = [_run_replicate(t) for t in tasks]
    results.sort(key=lambda r: r["index"])

    params: dict[str, dict[str, ParamMetrics]] = {}
    not_converged: dict[str, int] = {}
    pd_rate: dict[str, float] = {}
    for model in ("M1", "M2", "M3"):
        truth = sc.truth_for(model)
        names = results[0]["models"][model]["names"]
        used = [r["models"][model] for r in results if r["models"][model]["converged"]]
        not_converged[model] = sum(1 for r in results if not r["models"][model]["converged"])
        pd_rate[model] = (
            float(np.mean([m["hessian_pd"] for m in used])) if used else math.nan
        )
        model_params = {}
        for j, name in enumerate(names):
            tr = truth.get(name, math.nan)
            ests = [m["estimates"][j] for m in used]
            ses = [None if m["ses"] is None else m["ses"][j] for m in used]
            covers = [
                None
                if m["cis"] is None or math.isnan(tr)
                else (m["cis"][name][0] <= tr <= m["cis"][name][1])
                for m in used
            ]
            model_params[name] = _metrics_for(name, tr, ests, ses, covers)
        params[model] = model_params

    # M4: pooled over the AIC-selected model per replicate
    m4_rows = [r for r in results if r["m4"] is not None]
    m4_failures = len(results) - len(m4_rows)
    truth4 = sc.truth_for("M4")
    m4_params = {}
    common = results[0]["models"]["M1"]["names"]  # the shared psi parameters
    for name in common:
        tr = truth4.get(name, math.nan)
        ests, ses, covers = [], [], []
        for r in m4_rows:
            chosen = r["models"][r["m4"]["model"]]
            j = chosen["names"].index(name)
            ests.append(chosen["estimates"][j])
            ses.append(None if chosen["ses"] is None else chosen["ses"][j])
            covers.append(
                None
                if chosen["cis"] is None or math.isnan(tr)
                else (chosen["cis"][name][0] <= tr <= chosen["cis"][name][1])
            )
        m4_params[name] = _metrics_for(name, tr, ests, ses, covers)
    c_ests = [r["m4"]["c"] for r in m4_rows]
    m4_params["c"] = _metrics_for("c", truth4["c"], c_ests, [], [])
    params["M4"] = m4_params

    selection = {
        model: (
            float(np.mean([r["m4"]["model"] == model for r in m4_rows])) if m4_rows else math.nan
        )
        for model in ("M1", "M2", "M3")
    }
    mean_cens = float(np.mean([r["censoring"] for r in results]))

    return StudyMetrics(
        scenario=sc.name,
        n=sc.n,
        n_replicates=sc.n_replicates,
        seed=sc.seed,
        params=params,
        selection=selection,
        not_converged=not_converged,
        m4_failures=m4_failures,
        hessian_pd_rate=pd_rate,
        mean_censoring=mean_cens,
        dropout_rate=dropout_rate,
        pilot_censoring=pilot_cens,
        wall_time_s=time.monotonic() - t_start,
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
    """One CSV per model, selection.csv, and a manifest.  Returns the paths."""
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
        fh.write("model,selected_proportion,not_converged\n")
        for model in ("M1", "M2", "M3"):
            fh.write(
                f"{model},{_fmt(study.selection[model])},{study.not_converged[model]}\n"
            )
        fh.write(f"M4,,{study.m4_failures}\n")
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
        for model in ("M1", "M2", "M3"):
            fh.write(f"hessian_pd_rate_{model}={_fmt(study.hessian_pd_rate[model])}\n")
        fh.write(f"wall_time_s={study.wall_time_s!r}\n")
    written.append(path)
    return written


def read_study_report(path: str | Path) -> dict[str, dict[str, float]]:
    """Parse a per-model report CSV back into {param: {column: value}}."""
    out: dict[str, dict[str, float]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[0] != "param":
            raise DataError(f"{path}: not a study report")
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != len(header):
                raise DataError(f"{path}: malformed row {parts}")
            out[parts[0]] = {
                col: (math.nan if cell == "" else float(cell))
                for col, cell in zip(header[1:], parts[1:])
            }
    return out
