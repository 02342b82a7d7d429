"""The recovery-study benchmark: workloads, the closed loop, and its metrics.

Load shape: one process, ``jobs=1``, a closed loop with one caller; each
replicate (generate -> prepare -> fit_all -> select_m4) starts when the
previous one ends.

Each run fits a fixed panel of study replicates once, in an order drawn
from the seed: replicates ``0 .. P-1`` of the preset's study, the cohorts
``run_study`` would draw.  P is the number of replicates of the workload's
nominal length (its mean replicate on a 2-vCPU x86-64 VM) that fit in
``seconds``, so the panel size, not a clock, sets how long a run takes, and
every run of one ``seconds`` fits the same cohorts.  The cohorts are fixed
because fitting one costs 1-9 s depending on which optimizer fallbacks it
takes: a run affords a few dozen, and drawing them from the seed would make
the spread between seeds larger than any bound worth having.

Untraced runs give the end-to-end metrics.  Traced runs fit every replicate
twice, once through the wrappers of ``spans.instrument`` and once without,
alternating which goes first; the two must agree bit for bit, and their
median times give the tracing overhead and replicate_s.p50.  The other
per-layer metrics come from the traced fits and are means per replicate
(``setup.*``: means per set-up).
"""

from __future__ import annotations

import contextlib
import resource
import statistics
import time
from dataclasses import replace

import numpy as np

from exhaz.errors import ExhazError, NoEligibleFit
from exhaz.estimation import fit_all, select_m4
from exhaz.likelihoods import loglik, loglik_and_grad, prepare_cohort
from exhaz.simulation import (
    COVARIATES,
    builtin_scenarios,
    calibrate_dropout_rate,
    design_life_table,
    generate_cohort,
)

import fitcheck
from spans import Tracer, instrument, layer_totals, span_rows

MODELS = ("M1", "M2", "M3")
# setup_s is the fastest of several set-ups in a run.  On a shared machine
# the set-up code (Python loops over patients or table cells) runs up to 2x
# slower for tens of seconds at a time; the median of a run's set-ups moved
# by 40% between sets of ten runs where the fastest moved by 6%.  A set-up
# without drop-out calibration takes milliseconds, so a burst of them is
# timed before the loop and after every replicate.
SETUP_REPEATS = 3
SETUP_BURST = 10
MICROBENCH_ROUNDS = 7
MICROBENCH_ROUND_S = 0.02

# workload -> (preset, n, nominal seconds of one untraced replicate)
WORKLOADS = {
    "moderate-n5000": ("moderate", 5000, 6.0),
    "wide-dropout-n1000": ("wide-dropout", 1000, 1.5),
    "none-n2000": ("none", 2000, 1.4),
}

END_TO_END = {
    "setup_s": "s",
    "replicates_per_s": "1/s",
    "evals_per_replicate": "count",
    "converged_frac": "frac",
    "fit_ok_frac": "frac",
    "peak_rss_mb": "MB",
}

# Traced per-setup metrics (mean over the setups of a run).
SETUP_LAYERS = {
    "setup.simulation.design_life_table.s": "s",
    "setup.simulation.calibrate_dropout_rate.s": "s",
    "setup.lifetable.other_cause_time_inverse.calls": "count",
    "setup.lifetable.other_cause_time_inverse.s": "s",
    "setup.gh_model.inverse_excess_survival.s": "s",
}

# Traced per-replicate metrics (mean over the replicates of a run).  The
# ``.s`` entries other than estimation.fit.s.<M> are self times and sum to
# trace.replicate_s.mean.
REPLICATE_LAYERS = {
    "simulation.generate_cohort.s": "s",
    "gh_model.inverse_excess_survival.s": "s",
    "lifetable.other_cause_time_inverse.calls": "count",
    "lifetable.other_cause_time_inverse.s": "s",
    "likelihoods.prepare_cohort.s": "s",
    "lifetable.cum_hazard_increment.calls": "count",
    "lifetable.cum_hazard_increment.s": "s",
    "lifetable.rate_at.calls": "count",
    "lifetable.rate_at.s": "s",
    "likelihoods.loglik.calls": "count",
    "likelihoods.loglik.s": "s",
    "likelihoods.loglik.rejected": "count",
    "likelihoods.loglik_and_grad.calls": "count",
    "likelihoods.loglik_and_grad.s": "s",
    "likelihoods.loglik_and_grad.rejected": "count",
    "estimation.cda_warm_start.s": "s",
    "estimation.cda_warm_start.evals": "count",
    "estimation.lbfgsb.s": "s",
    "estimation.lbfgsb.evals": "count",
    "estimation.lbfgsb.nit": "count",
    "estimation.nelder_mead.calls": "count",
    "estimation.nelder_mead.s": "s",
    "estimation.nelder_mead.evals": "count",
    "estimation.fit.other.s": "s",
    "estimation.fit.other.evals": "count",
    **{f"estimation.fit.{q}.{m}": u for m in MODELS for q, u in (("s", "s"), ("evals", "count"))},
    "estimation.fit_all.s": "s",
    "estimation.select_m4.s": "s",
    "bench.replicate.s": "s",
}

PER_LAYER = {
    **SETUP_LAYERS,
    **REPLICATE_LAYERS,
    "estimation.rejected_frac": "frac",
    "estimation.select_m4.no_eligible": "count",
    **{
        f"likelihoods.{fn}.us_per_call.{m}": "us"
        for fn in ("loglik", "loglik_and_grad")
        for m in ("M1", "M3")
    },
    "trace.replicates": "count",
    # Median untraced replicate, from the untraced twins.  Not end-to-end:
    # it rests on the one or two replicates in the middle of the panel, and
    # its spread between runs reached 0.24 where replicates_per_s read 0.14.
    "replicate_s.p50": "s",
    "trace.replicate_s.mean": "s",
    "trace.overhead_frac": "frac",
}


def scenario(workload: str):
    preset, n, _ = WORKLOADS[workload]
    return replace(builtin_scenarios()[preset], n=n)


def panel_indices(workload: str, seconds: float) -> list[int]:
    """Study replicates of a run: as many nominal replicates as fit in ``seconds``."""
    return list(range(max(1, round(seconds / WORKLOADS[workload][2]))))


def setup(sc, tracer: Tracer):
    """Life table plus drop-out calibration when the preset has a target."""
    with tracer.span("bench.setup"):
        with tracer.span("simulation.design_life_table"):
            table = design_life_table()
        rate = sc.dropout_rate
        if sc.dropout_target is not None:
            with tracer.span("simulation.calibrate_dropout_rate"):
                rate, _ = calibrate_dropout_rate(sc, sc.dropout_target, table)
    return table, replace(sc, dropout_rate=rate, dropout_target=None)


def replicate(sc, index: int, table, tracer: Tracer):
    """One replicate; returns (cohort, fits, M4 choice, fit_all error, spans).

    A fit_all that raises (e.g. no finite starting point for M2) leaves no
    fits; the replicate still counts, with all three fits failed.
    """
    error = None
    with tracer.span("bench.replicate"):
        with tracer.span("simulation.generate_cohort"):
            records = generate_cohort(sc, index, table)
        with tracer.span("likelihoods.prepare_cohort"):
            cohort = prepare_cohort(
                records, table, advance_year=sc.advance_year, covariate_names=COVARIATES
            )
        with tracer.span("estimation.fit_all"):
            try:
                fits = fit_all(cohort, sc.fit)
            except ExhazError as exc:
                fits, error = {}, f"{type(exc).__name__}: {exc}"
        with tracer.span("estimation.select_m4"):
            try:
                m4 = select_m4(fits)[0].model
            except NoEligibleFit:
                m4 = None
    return cohort, fits, m4, error, tracer.drain()


def consistency_problems(fits, m4, cohort) -> list[str]:
    """Checks every completed fit_all must pass whatever the fit quality."""
    problems = []
    if tuple(fits) != MODELS:
        problems.append(f"fit_all returned {tuple(fits)}")
    for model, res in fits.items():
        if not np.all(np.isfinite(res.estimates)):
            problems.append(f"{model}: non-finite estimate")
        if res.aic != -2.0 * res.loglik_comparable + 2.0 * res.k:
            problems.append(f"{model}: aic does not match loglik_comparable")
        if loglik(res.to_model_params(), cohort, comparable=True) != res.loglik_comparable:
            problems.append(f"{model}: loglik_comparable not reproduced at the estimates")
    eligible = [f for f in fits.values() if f.converged]
    expected = min(eligible, key=lambda f: (f.aic, f.k)).model if eligible else None
    if m4 != expected:
        problems.append(f"select_m4 chose {m4}, expected {expected}")
    return problems


def fit_signature(fits, m4, error):
    """Everything a repeated or traced fit must reproduce bit for bit."""
    return (
        m4,
        error,
        [
            (
                m,
                f.estimates.tobytes(),
                repr(f.loglik),
                repr(f.loglik_comparable),
                f.n_evals,
                f.n_iter,
                f.converged,
                repr(f.grad_max_norm),
            )
            for m, f in fits.items()
        ],
    )


def microbench(sc, cohort) -> dict[str, float]:
    """Median microseconds per likelihood call at the truth, M1 and M3."""
    out = {}
    for model in ("M1", "M3"):
        params = fitcheck.truth_params(sc, model)
        for name, fn in (("loglik", loglik), ("loglik_and_grad", loglik_and_grad)):
            fn(params, cohort)
            number = 1
            while True:
                t0 = time.perf_counter()
                for _ in range(number):
                    fn(params, cohort)
                if time.perf_counter() - t0 >= MICROBENCH_ROUND_S:
                    break
                number *= 2
            rounds = []
            for _ in range(MICROBENCH_ROUNDS):
                t0 = time.perf_counter()
                for _ in range(number):
                    fn(params, cohort)
                rounds.append((time.perf_counter() - t0) / number)
            out[f"likelihoods.{name}.us_per_call.{model}"] = 1e6 * statistics.median(rounds)
    return out


def _mean_of(rows: list[dict], keys) -> dict[str, float]:
    return {k: sum(r.get(k, 0.0) for r in rows) / len(rows) for k in keys}


def _traced(tracer: Tracer, on: bool):
    return instrument(tracer) if on else contextlib.nullcontext()


def _timed_setup(sc0, tracer: Tracer, trace: bool):
    """(table, calibrated scenario, seconds, per-layer row) of one set-up."""
    with _traced(tracer, trace):
        table, sc = setup(sc0, tracer)
    spans = tracer.drain()
    return table, sc, spans[0].duration, {f"setup.{k}": v for k, v in layer_totals(spans).items()}


def run(workload: str, seed: int, seconds: float, trace: bool, emit):
    """Run one workload; ``emit`` receives each replicate record.

    Returns the result object: correct, attempted, failed, metrics.
    """
    sc0 = scenario(workload)
    tracer = Tracer()
    cheap_setup = sc0.dropout_target is None
    setup_s, setup_rows = [], []

    def setups(count):
        for _ in range(count):
            table, sc, secs, row = _timed_setup(sc0, tracer, trace)
            setup_s.append(secs)
            setup_rows.append(row)
        return table, sc

    table, sc = setups(SETUP_BURST if cheap_setup else SETUP_REPEATS)

    indices = panel_indices(workload, seconds)
    order = [int(i) for i in np.random.default_rng(seed).permutation(indices)]
    problems: list[str] = []
    rep_s, untraced_s, layer_rows, checked = [], [], [], []
    no_eligible = 0
    interleaved_s = 0.0
    t_loop = time.perf_counter()
    for pos, index in enumerate(order):
        if trace:
            # the untraced twin runs first on even positions
            outs = {}
            for traced in (pos % 2 == 1, pos % 2 == 0):
                with _traced(tracer, traced):
                    outs[traced] = replicate(sc, index, table, tracer)
            out, plain = outs[True], outs[False]
            untraced_s.append(plain[4][0].duration)
            if fit_signature(*out[1:4]) != fit_signature(*plain[1:4]):
                problems.append(f"replicate {index}: traced fits differ from untraced")
        else:
            out = replicate(sc, index, table, tracer)
        cohort, fits, m4, error, spans = out
        rep_s.append(spans[0].duration)
        layers = layer_totals(spans)
        layer_rows.append(layers)
        no_eligible += m4 is None
        models = {
            m: {**fitcheck.check_fit(sc, cohort, res), "estimates": res.estimates.tolist()}
            for m, res in fits.items()
        }
        checked.extend(models.get(m) for m in MODELS)
        rep_problems = consistency_problems(fits, m4, cohort) if error is None else []
        problems.extend(f"replicate {index}: {p}" for p in rep_problems)
        record = {
            "kind": "replicate",
            "position": pos,
            "index": index,
            "seed": sc.seed + index,
            "replicate_s": spans[0].duration,
            "censoring": float(1.0 - cohort.status.mean()),
            "layers": layers,
            "models": models,
            "m4": m4,
            "error": error,
            "problems": rep_problems,
        }
        if trace:
            record["spans"] = span_rows(spans)
        emit(record)
        if cheap_setup:
            t0 = time.perf_counter()
            setups(SETUP_BURST)
            interleaved_s += time.perf_counter() - t0
    loop_s = time.perf_counter() - t_loop - interleaved_s

    n_rep = len(rep_s)
    attempted = len(checked)  # three per replicate, None for a fit fit_all never returned
    done = [c for c in checked if c is not None]
    failed = attempted - sum(c["ok"] for c in done)
    if trace:
        metrics = _mean_of(setup_rows, SETUP_LAYERS)
        metrics.update(_mean_of(layer_rows, REPLICATE_LAYERS))
        calls = metrics["likelihoods.loglik.calls"] + metrics["likelihoods.loglik_and_grad.calls"]
        rejected = (
            metrics["likelihoods.loglik.rejected"]
            + metrics["likelihoods.loglik_and_grad.rejected"]
        )
        metrics["estimation.rejected_frac"] = rejected / calls
        metrics["estimation.select_m4.no_eligible"] = no_eligible
        first = generate_cohort(sc, indices[0], table)
        metrics.update(microbench(sc, prepare_cohort(
            first, table, advance_year=sc.advance_year, covariate_names=COVARIATES
        )))
        metrics["trace.replicates"] = n_rep
        metrics["replicate_s.p50"] = statistics.median(untraced_s)
        metrics["trace.replicate_s.mean"] = statistics.fmean(rep_s)
        metrics["trace.overhead_frac"] = (
            statistics.median(rep_s) / statistics.median(untraced_s) - 1.0
        )
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": min(setup_s),
            "replicates_per_s": n_rep / loop_s,
            "evals_per_replicate": sum(c["evals"] for c in done) / n_rep,
            "converged_frac": sum(c["converged"] for c in done) / attempted,
            "fit_ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    emit({
        "kind": "summary",
        "replicates": n_rep,
        "loop_s": loop_s,
        "setup_s_all": setup_s,
        "problems": problems,
    })
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
