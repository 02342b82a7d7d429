"""Shared test helpers: quick synthetic cohorts with known truth, and
closed-form oracles that share no code with the package."""

import math

import numpy as np
import pytest
from scipy import stats

from exhaz.distributions import EwParams
from exhaz.gh_model import GhParams, inverse_excess_survival
from exhaz.likelihoods import MODELS, ModelParams, ParamLayout, PreparedCohort

TRUE_BASE = EwParams(kappa=0.6, theta=1.75, alpha=2.5)
TRUE_GH = GhParams(
    TRUE_BASE, beta1=np.array([0.1, 0.1, 0.1]), beta2=np.array([0.05, 0.2, 0.25])
)


def model_params(gh, *correction):
    """ModelParams of a GhParams plus the correction values: none (M1),
    gamma (M2), or mu and b (M3)."""
    layout = ParamLayout.for_model(
        MODELS[len(correction)], [f"x{i + 1}" for i in range(gh.n_covariates)]
    )
    base = gh.baseline
    return ModelParams(
        layout,
        np.concatenate([[base.kappa, base.theta, base.alpha], gh.beta1, gh.beta2, correction]),
    )


def ew_closed_form(t, p):
    """EW (F, S, h, H) at a scalar t > 0, from the closed forms in math.

    F = (1 - e^{-w})^alpha with w = (t/theta)^kappa, S = 1 - F, h = f/S and
    H = -log S.
    """
    w = (t / p.theta) ** p.kappa
    m = -math.expm1(-w)  # 1 - e^{-w}
    S = -math.expm1(p.alpha * math.log(m))
    f = p.alpha * p.kappa * w / t * math.exp(-w) * m ** (p.alpha - 1.0)
    return m**p.alpha, S, f / S, -math.log(S)


def gh_closed_form(t, x, gh):
    """(h_E, H_E) at a scalar t > 0 and one covariate vector x, via ew_closed_form."""
    xb1, xb2 = float(np.dot(x, gh.beta1)), float(np.dot(x, gh.beta2))
    _, _, h0, H0 = ew_closed_form(t * math.exp(xb1), gh.baseline)
    return h0 * math.exp(xb2), H0 * math.exp(xb2 - xb1)


def gamma_pdf(r, g):
    """Density of the Gamma frailty with mean mu and variance mu*b."""
    return float(stats.gamma.pdf(r, a=g.mu / g.b, scale=g.b))


def sim_cohort(n=1000, seed=0, gh=TRUE_GH, pop_rate=0.02, frailty=None, t_max=5.0):
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
