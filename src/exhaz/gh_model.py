"""General Hazard (GH) excess-hazard structure over the EW baseline.

    h_E(t; x) = h0(t e^{x'b1}) e^{x'b2}
    H_E(t; x) = H0(t e^{x'b1}) e^{x'(b2-b1)}

Setting b1 = 0 gives proportional hazards, b2 = 0 accelerated hazards, and
b1 = b2 the accelerated failure time model.  The covariate vector enters
as-is: any centring/scaling is a dataset-level concern applied upstream.

The composition is written once: ``gh_baseline`` evaluates the EW kernel
at v = t e^{x'b1} and ``gh_excess`` scales it into h_E and H_E.  The
likelihood calls both on a prepared cohort; ``excess_hazard``,
``excess_cum_hazard`` and ``net_survival`` call them at any t and add the
conventions at t <= 0 (hazard 0, H_E 0, survival 1); a NaN time raises
ValueError.  Both callers run the two helpers under ``np.errstate`` and
check the results themselves.

The public functions take the ``likelihoods.ModelParams`` of any model and
read only its GH slots (``baseline``, ``beta1``, ``beta2``), so a fitted
M3 goes in as ``fit.to_model_params()``.  ``x`` is one covariate vector or
an (n, p) matrix; a model without covariates takes an empty vector or an
(n, 0) matrix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .distributions import ew_log_terms, ew_quantile
from .errors import NumericalOverflow

if TYPE_CHECKING:
    from .likelihoods import ModelParams

__all__ = [
    "excess_hazard",
    "excess_cum_hazard",
    "net_survival",
    "inverse_excess_survival",
]


def gh_baseline(t, xb1, kappa, theta, alpha):
    """v = t e^{x'b1} and the EW kernel at v: (v, w, logm, vv, log_s0, lw, h0).

    For t > 0.  The terms depend on the baseline and on x'b1 only.
    """
    v = t * np.exp(xb1)
    return (v, *ew_log_terms(v, kappa, theta, alpha))


def gh_excess(h0, log_s0, xb1, xb2):
    """(e^{x'(b2-b1)}, h_E, H_E) from the baseline h0 and log S0 at v."""
    r21 = np.exp(xb2 - xb1)
    return r21, h0 * np.exp(xb2), -log_s0 * r21


def _excess(t, x, params: ModelParams):
    """(t <= 0, h0, log S0, h_E, H_E) at times t; entries at t <= 0 are placeholders.

    Raises ValueError naming the first NaN time.
    """
    t = np.asarray(t, dtype=float)
    nan = np.isnan(t)
    if nan.any():
        where = f"t[{int(np.flatnonzero(nan)[0])}]" if t.ndim else "t"
        raise ValueError(f"time {where} is NaN")
    x = np.asarray(x, dtype=float)
    xb1, xb2 = x @ params.beta1, x @ params.beta2
    nonpos = t <= 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _, _, _, _, log_s0, _, h0 = gh_baseline(
            np.where(nonpos, 1.0, t), xb1, *params.baseline
        )
        _, he, HE = gh_excess(h0, log_s0, xb1, xb2)
    return nonpos, h0, log_s0, he, HE


def excess_hazard(t, x, params: ModelParams):
    """h_E(t; x) = h0(t e^{x'b1}) e^{x'b2}; 0 at t <= 0.

    Raises NumericalOverflow if h0 is not finite (survival underflow).
    """
    nonpos, h0, _, he, _ = _excess(t, x, params)
    if not np.all(np.isfinite(np.where(nonpos, 0.0, h0))):
        raise NumericalOverflow("EW hazard is not finite (survival underflow)")
    return np.where(nonpos, 0.0, he)[()]


def excess_cum_hazard(t, x, params: ModelParams):
    """H_E(t; x) = H0(t e^{x'b1}) e^{x'(b2-b1)}; 0 at t <= 0.

    Raises NumericalOverflow if H0 is not finite.
    """
    nonpos, _, log_s0, _, HE = _excess(t, x, params)
    if not np.all(np.isfinite(np.where(nonpos, 0.0, log_s0))):
        raise NumericalOverflow("EW cumulative hazard is not finite")
    return np.where(nonpos, 0.0, HE)[()]


def net_survival(t, x, params: ModelParams):
    """exp(-H_E(t; x)): survival under the excess hazard alone; 1 at t <= 0."""
    nonpos, _, _, _, HE = _excess(t, x, params)
    return np.exp(-np.where(nonpos, 0.0, HE))[()]


def inverse_excess_survival(u, x, params: ModelParams):
    """Solve net_survival(t; x) = u for t (inverse-transform sampling).

    t = Q_EW(1 - exp(-(-log u) e^{x'(b1-b2)})) * e^{-x'b1}.  May return inf
    when u is so small that the target CDF argument rounds to 1.
    """
    u = np.asarray(u, dtype=float)
    if np.any(~((0.0 < u) & (u < 1.0))):
        raise ValueError("u must be in (0, 1)")
    x = np.asarray(x, dtype=float)
    xb1, xb2 = x @ params.beta1, x @ params.beta2
    target_h0 = -np.log(u) * np.exp(xb1 - xb2)
    v = -np.expm1(-target_h0)  # CDF value at the baseline time scale
    with np.errstate(divide="ignore"):
        tau = np.where(
            v >= 1.0,
            np.inf,
            ew_quantile(np.clip(v, 1e-300, 1.0 - 1e-16), *params.baseline),
        )
    return tau * np.exp(-xb1)
