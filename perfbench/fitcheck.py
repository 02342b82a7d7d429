"""Correctness check of one M1-M3 fit, and the per-replicate record.

A fit passes when it is flagged converged, its comparable log-likelihood is
finite and no lower than the likelihood at the true parameters (1e-9
relative tolerance), and, for the model that generated the data (M1 on a
scenario without frailty, M3 on a Gamma-frailty scenario), its gain over
the truth is at most half the chi-square quantile with k degrees of freedom
at tail 1e-6.  A true value of 0 on a log-scale parameter (gamma or b) is
evaluated at the lower box bound e^-20.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import chi2

from exhaz.distributions import GammaFrailtyParams
from exhaz.errors import NonFiniteLikelihood
from exhaz.estimation import ParamLayout, transform_params
from exhaz.likelihoods import loglik
from exhaz.simulation import COVARIATES

REL_TOL = 1e-9
GAIN_TAIL = 1e-6
BOUND_TOL = 1e-6


def generating_model(sc) -> str | None:
    """The fitted model whose family holds the data-generating process."""
    if sc.frailty is None:
        return "M1"
    if isinstance(sc.frailty, GammaFrailtyParams):
        return "M3"
    return None


def truth_params(sc, model: str):
    layout = ParamLayout.for_model(model, COVARIATES)
    truth = sc.truth_for(model)
    vec = np.array([truth[name] for name in layout.names])
    floor = math.exp(layout.transformed_bounds()[0][0])
    vec[layout.positive & (vec == 0.0)] = floor
    return layout.to_params(vec)


def truth_loglik(sc, model: str, cohort) -> float:
    try:
        return loglik(truth_params(sc, model), cohort, comparable=True)
    except NonFiniteLikelihood:
        return -math.inf


def params_at_bound(res, cohort) -> list[str]:
    """Parameters within BOUND_TOL of an edge of the optimizer's box.

    The box applies on the scale the optimizer searches: log scale for
    positive parameters and covariates standardized to unit SD.
    """
    layout = ParamLayout.for_model(res.model, cohort.covariate_names)
    p = layout.n_covariates
    sd = cohort.X.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    slot_scale = np.ones(layout.k)
    slot_scale[3 : 3 + p] = sd
    slot_scale[3 + p : 3 + 2 * p] = sd
    x = transform_params(np.asarray(res.estimates) * slot_scale, layout.positive)
    return [
        name
        for name, xi, (lo, hi) in zip(layout.names, x, layout.transformed_bounds())
        if xi - lo <= BOUND_TOL or hi - xi <= BOUND_TOL
    ]


def check_fit(sc, cohort, res) -> dict:
    """Outcome of the check for one FitResult, as a JSON-ready dict."""
    ll = float(res.loglik_comparable)
    ll_truth = truth_loglik(sc, res.model, cohort)
    gain = ll - ll_truth
    reasons = []
    if not res.converged:
        reasons.append("not_converged")
    if not math.isfinite(ll):
        reasons.append("ll_not_finite")
    elif ll < ll_truth - REL_TOL * abs(ll_truth):
        reasons.append("below_truth")
    if res.model == generating_model(sc) and not gain <= 0.5 * chi2.isf(GAIN_TAIL, res.k):
        reasons.append("gain_too_large")
    return {
        "ll": ll,
        "ll_truth": ll_truth,
        "gain": gain,
        "converged": bool(res.converged),
        "ok": not reasons,
        "reasons": reasons,
        "evals": int(res.n_evals),
        "grad_max_norm": float(res.grad_max_norm),
        "at_bound": params_at_bound(res, cohort),
    }
