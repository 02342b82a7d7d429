"""Exponentiated Weibull baseline and frailty distributions.

The Exponentiated Weibull (EW) family has shape kappa, scale theta (time
units), and power alpha:

    F(t) = [1 - exp{-(t/theta)^kappa}]^alpha

Its hazard covers increasing, decreasing, unimodal, bathtub, and constant
shapes.  Survival-tail quantities are computed in log space throughout:
log(1 - e^{-v}) uses expm1 below ln 2 and log1p above (the usual split),
and the survival logarithm falls back to its asymptotic series
log(alpha) - (t/theta)^kappa once 1 - F is too small for direct evaluation.
Frailty laws are a Gamma in mean/scale parameterization (mean mu,
variance mu*b) and a lognormal used for misspecification experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import NonPositive, NumericalOverflow

__all__ = [
    "EwParams",
    "GammaFrailtyParams",
    "LogNormalFrailtyParams",
    "ew_pdf",
    "ew_cdf",
    "ew_survival",
    "ew_log_survival",
    "ew_hazard",
    "ew_cum_hazard",
    "ew_quantile",
    "gamma_frailty_pdf",
    "gamma_laplace",
    "sample_gamma_frailty",
    "sample_lognormal_frailty",
]

_LN2 = math.log(2.0)


def _check_positive(**kwargs):
    for name, value in kwargs.items():
        if not (math.isfinite(value) and value > 0.0):
            raise NonPositive(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class EwParams:
    """Exponentiated Weibull parameters: shape kappa, scale theta, power alpha."""

    kappa: float
    theta: float
    alpha: float

    def __post_init__(self):
        _check_positive(kappa=self.kappa, theta=self.theta, alpha=self.alpha)


@dataclass(frozen=True)
class GammaFrailtyParams:
    """Gamma frailty with mean mu and scale b (shape mu/b, variance mu*b)."""

    mu: float
    b: float

    def __post_init__(self):
        _check_positive(mu=self.mu, b=self.b)

    @property
    def shape(self) -> float:
        return self.mu / self.b


@dataclass(frozen=True)
class LogNormalFrailtyParams:
    """Lognormal frailty: log-mean m, log-sd s."""

    m: float
    s: float

    def __post_init__(self):
        if not (math.isfinite(self.m)):
            raise NonPositive(f"m must be finite, got {self.m}")
        _check_positive(s=self.s)


def log1mexp(v):
    """log(1 - exp(-v)) for v >= 0, stable on both sides of v = ln 2.

    log(-expm1(-v)) serves v <= ln 2 and log1p(-exp(-v)) the rest (NaN
    included).  The branch most entries need runs on the whole array; only
    the other entries are recomputed, by index, with their own branch, so
    every entry gets exactly the bits of its branch.
    """
    v = np.asarray(v, dtype=float)
    flat = v.ravel()
    neg = -flat
    small = flat <= _LN2
    with np.errstate(divide="ignore", invalid="ignore"):
        if 2 * np.count_nonzero(small) >= flat.size:
            out = np.log(-np.expm1(neg))
            idx = np.flatnonzero(~small)
            out[idx] = np.log1p(-np.exp(neg[idx]))
        else:
            out = np.log1p(-np.exp(neg))
            idx = np.flatnonzero(small)
            out[idx] = np.log(-np.expm1(neg[idx]))
    return out.reshape(v.shape)


def ew_log_terms(v, p: EwParams):
    """The EW kernel at times v: (w, logm, vv, log_s0, lw, logf), vectorized.

    w = (v/theta)^kappa, logm = log(1 - e^{-w}), vv = -log F = -alpha logm,
    log_s0 = log S, lw = log(v/theta) and logf = log f.  Beyond w = 600
    log S is replaced by its asymptote log(alpha) - w (relative error
    ~e^{-600}); switching well before exp(-w) goes subnormal keeps log S
    smooth in the parameters, which the optimizer relies on.  The other
    terms are returned because the likelihood gradient reuses them.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vt = v / p.theta
        w = np.power(vt, p.kappa)
        logm = log1mexp(w)
        vv = -(p.alpha * logm)
        log_s0 = log1mexp(vv)
        log_s0 = np.where((w > 600.0) | (vv == 0.0), math.log(p.alpha) - w, log_s0)
        lw = np.log(vt)
        logf = (
            math.log(p.alpha)
            + math.log(p.kappa)
            - math.log(p.theta)
            + (p.kappa - 1.0) * lw
            + (p.alpha - 1.0) * logm
            - w
        )
    return w, logm, vv, log_s0, lw, logf


def ew_log_survival(t, p: EwParams):
    """log S(t) = log(1 - F(t)), stable into the far tail (see ew_log_terms).

    Nonpositive t returns 0 (survival 1).
    """
    t = np.asarray(t, dtype=float)
    log_s0 = ew_log_terms(np.maximum(t, 0.0), p)[3]
    return np.where(t <= 0.0, 0.0, log_s0)


def ew_survival(t, p: EwParams):
    return np.exp(ew_log_survival(t, p))


def ew_cdf(t, p: EwParams):
    """F(t) = [1 - exp{-(t/theta)^kappa}]^alpha; 0 at t <= 0."""
    t = np.asarray(t, dtype=float)
    vv = ew_log_terms(np.maximum(t, 0.0), p)[2]
    return np.where(t <= 0.0, 0.0, np.exp(-vv))


def ew_log_pdf(t, p: EwParams):
    t = np.asarray(t, dtype=float)
    pos = t > 0.0
    logf = ew_log_terms(np.where(pos, t, 1.0), p)[5]
    return np.where(pos, logf, -np.inf)


def ew_pdf(t, p: EwParams):
    """EW density; 0 for t <= 0 by convention."""
    return np.exp(ew_log_pdf(t, p))


def ew_hazard(t, p: EwParams):
    """h(t) = f(t)/S(t).  Raises NumericalOverflow if S underflowed to 0."""
    log_s = ew_log_survival(t, p)
    out = np.exp(ew_log_pdf(t, p) - log_s)
    if not np.all(np.isfinite(np.where(np.asarray(t, float) > 0.0, out, 0.0))):
        raise NumericalOverflow("EW hazard is not finite (survival underflow)")
    return out

def ew_cum_hazard(t, p: EwParams):
    """H(t) = -log S(t); 0 at t = 0."""
    out = -ew_log_survival(t, p)
    if not np.all(np.isfinite(out)):
        raise NumericalOverflow("EW cumulative hazard is not finite")
    return out


def ew_quantile(u, p: EwParams):
    """Inverse CDF: t = theta * (-log(1 - u^{1/alpha}))^{1/kappa}, exact closed form."""
    u = np.asarray(u, dtype=float)
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise ValueError("u must be in (0, 1)")
    lu = np.log(u) / p.alpha
    w = -log1mexp(-lu)
    return p.theta * np.power(w, 1.0 / p.kappa)


def gamma_frailty_pdf(r, g: GammaFrailtyParams):
    """Density r^{mu/b-1} e^{-r/b} / (Gamma(mu/b) b^{mu/b}); mean mu, variance mu*b."""
    r = np.asarray(r, dtype=float)
    sh = g.shape
    pos = r > 0.0
    rw = np.where(pos, r, 1.0)
    log_pdf = (sh - 1.0) * np.log(rw) - rw / g.b - gammaln(sh) - sh * math.log(g.b)
    return np.where(pos, np.exp(log_pdf), 0.0)


def gamma_laplace(s, g: GammaFrailtyParams):
    """Laplace transform of the Gamma frailty: (1 + b s)^{-mu/b}, s >= 0."""
    s = np.asarray(s, dtype=float)
    return np.exp(-(g.mu / g.b) * np.log1p(g.b * s))


def sample_gamma_frailty(g: GammaFrailtyParams, rng: np.random.Generator, size=None):
    """Draws from Ga(mu, b) via the (shape=mu/b, scale=b) reparameterization."""
    return rng.gamma(shape=g.shape, scale=g.b, size=size)


def sample_lognormal_frailty(l: LogNormalFrailtyParams, rng: np.random.Generator, size=None):
    return rng.lognormal(mean=l.m, sigma=l.s, size=size)
