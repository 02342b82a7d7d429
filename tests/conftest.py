"""Shared test helpers: quick synthetic cohorts with known truth, and
closed-form oracles that share no code with the package."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from exhaz.gh_model import inverse_excess_survival
from exhaz.likelihoods import MODELS, ParamLayout, PreparedCohort
from exhaz.simulation import DESIGN1_GH


def traced_peak(call):
    """Bytes by which the tracemalloc peak while ``call()`` runs exceeds the
    memory traced at its start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def gh_params(baseline, beta1=(), beta2=()):
    """M1 params from the EW baseline (kappa, theta, alpha) and the beta
    vectors, over covariates x1..xp."""
    layout = ParamLayout.for_model("M1", [f"x{i + 1}" for i in range(len(beta1))])
    return layout.to_params(np.concatenate([baseline, beta1, beta2]))


def model_params(gh, *correction):
    """The M1 params ``gh`` plus the correction values: none (M1), gamma
    (M2), or mu and b (M3)."""
    layout = ParamLayout.for_model(
        MODELS[len(correction)], [f"x{i + 1}" for i in range(gh.layout.n_covariates)]
    )
    return layout.to_params(np.concatenate([gh.values, correction]))


def ew_closed_form(t, kappa, theta, alpha):
    """EW (F, S, h, H) at a scalar t > 0, from the closed forms in math.

    F = (1 - e^{-w})^alpha with w = (t/theta)^kappa, S = 1 - F, h = f/S and
    H = -log S.
    """
    w = (t / theta) ** kappa
    m = -math.expm1(-w)  # 1 - e^{-w}
    S = -math.expm1(alpha * math.log(m))
    f = alpha * kappa * w / t * math.exp(-w) * m ** (alpha - 1.0)
    return m**alpha, S, f / S, -math.log(S)


def gh_closed_form(t, x, params):
    """(h_E, H_E) at a scalar t > 0 and one covariate vector x, via
    ew_closed_form, from the GH slots of ``params`` (any model)."""
    xb1, xb2 = float(np.dot(x, params.beta1)), float(np.dot(x, params.beta2))
    _, _, h0, H0 = ew_closed_form(t * math.exp(xb1), *params.baseline.tolist())
    return h0 * math.exp(xb2), H0 * math.exp(xb2 - xb1)


def gamma_pdf(r, g):
    """Density of the Gamma frailty with mean mu and variance mu*b."""
    return float(stats.gamma.pdf(r, a=g.mu / g.b, scale=g.b))


def sim_cohort(n=1000, seed=0, gh=DESIGN1_GH, pop_rate=0.02, frailty=None, t_max=5.0):
    """Cohort from the additive decomposition with a constant background rate.

    The cached life-table quantities are exact (dhp = pop_rate * t), so the
    cohort is internally consistent for likelihood work without a table.
    ``frailty``: optional per-patient multipliers on the background hazard.
    """
    rng = np.random.default_rng(seed)
    X = np.column_stack(
        [rng.normal(0.0, 1.0, n), rng.integers(0, 2, n), rng.integers(0, 2, n)]
    ).astype(float)
    gamma = np.ones(n) if frailty is None else frailty(rng, n)
    te = inverse_excess_survival(rng.uniform(size=n), X, gh)
    tp = rng.exponential(1.0, size=n) / (pop_rate * gamma)
    tobs = np.minimum(np.minimum(te, tp), t_max)
    status = (np.minimum(te, tp) <= t_max).astype(np.int8)
    return PreparedCohort(
        tobs, status, X, np.full(n, pop_rate), pop_rate * tobs, ("x1", "x2", "x3")
    )


@pytest.fixture(scope="session")
def m1_cohort_1000():
    return sim_cohort(n=1000, seed=123)
