"""Exponentiated Weibull baseline and frailty distributions.

The Exponentiated Weibull (EW) family has shape kappa, scale theta (time
units), and power alpha:

    F(t) = [1 - exp{-(t/theta)^kappa}]^alpha

Its hazard covers increasing, decreasing, unimodal, bathtub, and constant
shapes.  ``ew_log_terms`` is the one EW kernel: it gives the log survival
and the hazard h0 = exp(log f - log S) at an array of times, and the GH
excess hazard (``gh_model``) and the likelihood both build on it.  The
kernel and ``ew_quantile`` take kappa, theta and alpha as plain numbers:
the callers read them from the baseline slots of a ``ModelParams``, which
checks them.
Survival-tail quantities are computed in log space throughout:
log(1 - e^{-v}) uses expm1 below ln 2 and log1p above (the usual split),
and the survival logarithm falls back to its asymptotic series
log(alpha) - (t/theta)^kappa once 1 - F is too small for direct evaluation.
``ew_quantile`` inverts F in closed form.

The kernels (``_by_majority``, ``log1mexp``, ``ew_log_terms``) enter no
``np.errstate`` themselves: a likelihood evaluation enters it once around
all of its array work, and so do the public functions that call them.
They compute throwaway values on entries they then overwrite, and return
infinities and NaNs that their callers check.

Frailty laws are a Gamma in mean/scale parameterization (mean mu,
variance mu*b, and a sampler; its Laplace transform is M3's population
term, ``likelihoods.marginal_survival_m3``) and a lognormal used for
misspecification experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositive

__all__ = [
    "GammaFrailtyParams",
    "LogNormalFrailtyParams",
    "ew_quantile",
    "sample_gamma_frailty",
    "sample_lognormal_frailty",
]

_LN2 = math.log(2.0)


def _check_natural(values: np.ndarray, positive: np.ndarray) -> None:
    """NonPositive naming every slot of a natural vector that is not finite
    or, on a positive slot, not > 0.

    The one validity check of parameters: ``ModelParams``,
    ``transform_params`` and the frailty laws all make it.
    """
    bad = ~np.isfinite(values) | (positive & ~(values > 0))
    if bad.any():
        raise NonPositive(
            f"parameters at positions {np.flatnonzero(bad).tolist()} must be finite, "
            "and > 0 where positive"
        )


@dataclass(frozen=True)
class GammaFrailtyParams:
    """Gamma frailty with mean mu and scale b (shape mu/b, variance mu*b).

    A mu or b that is not finite and > 0 raises NonPositive naming its
    position (0: mu, 1: b).
    """

    mu: float
    b: float

    def __post_init__(self):
        _check_natural(np.array([self.mu, self.b]), np.array([True, True]))

    @property
    def shape(self) -> float:
        return self.mu / self.b


@dataclass(frozen=True)
class LogNormalFrailtyParams:
    """Lognormal frailty: log-mean m, log-sd s.

    An m that is not finite, or an s that is not finite and > 0, raises
    NonPositive naming its position (0: m, 1: s).
    """

    m: float
    s: float

    def __post_init__(self):
        _check_natural(np.array([self.m, self.s]), np.array([False, True]))


def _by_majority(x, small, f_small, f_large):
    """Entry-wise ``np.where(small, f_small(x), f_large(x))``, bit for bit.

    The branch most entries need runs on the whole (flattened) array; only
    the other entries, if any, are recomputed, by index, with their own
    branch, so every entry gets exactly the bits of its branch.  Masked
    ``where=`` ufuncs and boolean indexing of both sides were slower.  The
    majority branch computes throwaway values for the other entries, so
    run it under ``np.errstate``; a NaN or inf that is kept shows in the
    result.
    """
    flat, small = x.ravel(), small.ravel()
    n_small = np.count_nonzero(small)
    if 2 * n_small >= flat.size:
        out = f_small(flat)
        if n_small < flat.size:
            idx = (~small).nonzero()[0]
            out[idx] = f_large(flat[idx])
    else:
        out = f_large(flat)
        if n_small:
            idx = small.nonzero()[0]
            out[idx] = f_small(flat[idx])
    return out.reshape(x.shape)


def log1mexp(v):
    """log(1 - exp(-v)) for v >= 0, stable on both sides of v = ln 2.

    log(-expm1(-v)) serves v <= ln 2 and log1p(-exp(-v)) the rest (NaN
    included), each entry with exactly the bits of its branch.  v = 0
    gives -inf: run it under ``np.errstate``.
    """
    v = np.asarray(v, dtype=float)
    return _by_majority(
        -v, v <= _LN2, lambda u: np.log(-np.expm1(u)), lambda u: np.log1p(-np.exp(u))
    )


def ew_log_terms(v, kappa, theta, alpha):
    """The EW kernel at times v > 0: (w, logm, vv, log_s0, lw, h0), vectorized.

    w = (v/theta)^kappa, logm = log(1 - e^{-w}), vv = -log F = -alpha logm,
    log_s0 = log S, lw = log(v/theta) and h0 = f/S = exp(log f - log S),
    the hazard.  Beyond w = 600 log S is replaced by its asymptote
    log(alpha) - w (relative error ~e^{-600}); switching well before
    exp(-w) goes subnormal keeps log S smooth in the parameters, which the
    optimizer relies on.  Those tail entries are patched by index, and log
    f and h0 are built in place.  The other terms are returned because the
    likelihood gradient reuses them.  The arrays have the shape of v, 0-d
    for a scalar v.  Run it under ``np.errstate``: v = 0 or an overflowing
    w gives infinities that the callers check.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim == 0:
        return tuple(a.reshape(()) for a in ew_log_terms(v.reshape(1), kappa, theta, alpha))
    log_alpha = math.log(alpha)
    vt = v / theta
    w = np.power(vt, kappa)
    logm = log1mexp(w)
    vv = alpha * logm
    np.negative(vv, out=vv)
    log_s0 = log1mexp(vv)
    tail = w > 600.0
    tail |= vv == 0.0
    tail = tail.nonzero()
    if tail[0].size:
        log_s0[tail] = log_alpha - w[tail]
    lw = np.log(vt, out=vt)
    # log f = log(alpha) + log(kappa) - log(theta) + (kappa-1) lw + (alpha-1) logm - w
    h0 = (kappa - 1.0) * lw
    h0 += log_alpha + math.log(kappa) - math.log(theta)
    h0 += (alpha - 1.0) * logm
    h0 -= w
    h0 -= log_s0
    np.exp(h0, out=h0)
    return w, logm, vv, log_s0, lw, h0


def ew_quantile(u, kappa, theta, alpha):
    """Inverse CDF: t = theta * (-log(1 - u^{1/alpha}))^{1/kappa}, exact closed form."""
    u = np.asarray(u, dtype=float)
    if np.any(~((0.0 < u) & (u < 1.0))):
        raise ValueError("u must be in (0, 1)")
    lu = np.log(u) / alpha
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = -log1mexp(-lu)
    return theta * np.power(w, 1.0 / kappa)


def sample_gamma_frailty(g: GammaFrailtyParams, rng: np.random.Generator, size=None):
    """Draws from Ga(mu, b) via the (shape=mu/b, scale=b) reparameterization."""
    return rng.gamma(shape=g.shape, scale=g.b, size=size)


def sample_lognormal_frailty(l: LogNormalFrailtyParams, rng: np.random.Generator, size=None):
    return rng.lognormal(mean=l.m, sigma=l.s, size=size)
