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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import EwParams, ew_log_terms, ew_quantile
from .errors import NumericalOverflow

__all__ = [
    "GhParams",
    "excess_hazard",
    "excess_cum_hazard",
    "net_survival",
    "inverse_excess_survival",
]


@dataclass(frozen=True)
class GhParams:
    """EW baseline plus time-scale (beta1) and hazard-scale (beta2) effects."""

    baseline: EwParams
    beta1: np.ndarray = field(default_factory=lambda: np.zeros(0))
    beta2: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        b1 = np.atleast_1d(np.asarray(self.beta1, dtype=float))
        b2 = np.atleast_1d(np.asarray(self.beta2, dtype=float))
        if b1.shape != b2.shape:
            raise ValueError(f"beta1 and beta2 lengths differ: {b1.shape} vs {b2.shape}")
        if not (np.all(np.isfinite(b1)) and np.all(np.isfinite(b2))):
            raise ValueError("beta coefficients must be finite")
        object.__setattr__(self, "beta1", b1)
        object.__setattr__(self, "beta2", b2)

    @property
    def n_covariates(self) -> int:
        return self.beta1.shape[0]


def _linpreds(x, p: GhParams):
    """(x'b1, x'b2) for a single covariate vector or an (n, p) matrix."""
    x = np.asarray(x, dtype=float)
    if p.n_covariates == 0:
        shape = x.shape[:-1] if x.ndim > 1 else ()
        return np.zeros(shape), np.zeros(shape)
    return x @ p.beta1, x @ p.beta2


def gh_baseline(t, xb1, base: EwParams):
    """v = t e^{x'b1} and the EW kernel at v: (v, w, logm, vv, log_s0, lw, h0).

    For t > 0.  The terms depend on the baseline and on x'b1 only.
    """
    v = t * np.exp(xb1)
    return (v, *ew_log_terms(v, base))


def gh_excess(h0, log_s0, xb1, xb2):
    """(e^{x'(b2-b1)}, h_E, H_E) from the baseline h0 and log S0 at v."""
    r21 = np.exp(xb2 - xb1)
    return r21, h0 * np.exp(xb2), -log_s0 * r21


def _excess(t, x, p: GhParams):
    """(t <= 0, h0, log S0, h_E, H_E) at times t; entries at t <= 0 are placeholders.

    Raises ValueError naming the first NaN time.
    """
    t = np.asarray(t, dtype=float)
    nan = np.isnan(t)
    if nan.any():
        where = f"t[{int(np.flatnonzero(nan)[0])}]" if t.ndim else "t"
        raise ValueError(f"time {where} is NaN")
    xb1, xb2 = _linpreds(x, p)
    nonpos = t <= 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _, _, _, _, log_s0, _, h0 = gh_baseline(np.where(nonpos, 1.0, t), xb1, p.baseline)
        _, he, HE = gh_excess(h0, log_s0, xb1, xb2)
    return nonpos, h0, log_s0, he, HE


def excess_hazard(t, x, p: GhParams):
    """h_E(t; x) = h0(t e^{x'b1}) e^{x'b2}; 0 at t <= 0.

    Raises NumericalOverflow if h0 is not finite (survival underflow).
    """
    nonpos, h0, _, he, _ = _excess(t, x, p)
    if not np.all(np.isfinite(np.where(nonpos, 0.0, h0))):
        raise NumericalOverflow("EW hazard is not finite (survival underflow)")
    return np.where(nonpos, 0.0, he)[()]


def excess_cum_hazard(t, x, p: GhParams):
    """H_E(t; x) = H0(t e^{x'b1}) e^{x'(b2-b1)}; 0 at t <= 0.

    Raises NumericalOverflow if H0 is not finite.
    """
    nonpos, _, log_s0, _, HE = _excess(t, x, p)
    if not np.all(np.isfinite(np.where(nonpos, 0.0, log_s0))):
        raise NumericalOverflow("EW cumulative hazard is not finite")
    return np.where(nonpos, 0.0, HE)[()]


def net_survival(t, x, p: GhParams):
    """exp(-H_E(t; x)): survival under the excess hazard alone; 1 at t <= 0."""
    nonpos, _, _, _, HE = _excess(t, x, p)
    return np.exp(-np.where(nonpos, 0.0, HE))[()]


def inverse_excess_survival(u, x, p: GhParams):
    """Solve net_survival(t; x) = u for t (inverse-transform sampling).

    t = Q_EW(1 - exp(-(-log u) e^{x'(b1-b2)})) * e^{-x'b1}.  May return inf
    when u is so small that the target CDF argument rounds to 1.
    """
    u = np.asarray(u, dtype=float)
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise ValueError("u must be in (0, 1)")
    xb1, xb2 = _linpreds(x, p)
    target_h0 = -np.log(u) * np.exp(xb1 - xb2)
    v = -np.expm1(-target_h0)  # CDF value at the baseline time scale
    with np.errstate(divide="ignore"):
        tau = np.where(
            v >= 1.0,
            np.inf,
            ew_quantile(np.clip(v, 1e-300, 1.0 - 1e-16), p.baseline),
        )
    return tau * np.exp(-xb1)
