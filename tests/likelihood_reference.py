"""The likelihood as it was written before its kernels were fused: a
test-only reference for bit identity.

These are the plain-expression forms of the EW kernel (``_by_majority``,
``log1mexp``, ``ew_log_terms``), of the GH composition, of the M3 helpers,
of the exact sum and of the terms and gradient, kept verbatim.  The only
edits: ``_terms`` computes the EW block afresh instead of reading the
cohort's memo, reads the event mask as ``status == 1``, and
``loglik`` does not check for an empty cohort, which the PreparedCohort
constructor now rejects.  The package must give the same bits, and raise
the same errors, at every point; ``test_likelihood_kernel`` checks it.
"""

from __future__ import annotations

import math
import sys
from math import fsum

import numpy as np

from exhaz.errors import NonFiniteLikelihood

_LN2 = math.log(2.0)


def _by_majority(x, small, f_small, f_large):
    """Entry-wise ``np.where(small, f_small(x), f_large(x))``, bit for bit.

    The branch most entries need runs on the whole (flattened) array; only
    the other entries are recomputed, by index, with their own branch, so
    every entry gets exactly the bits of its branch.  Masked ``where=``
    ufuncs and boolean indexing of both sides were slower.  Floating-point
    warnings are off because the majority branch computes throwaway values
    for the other entries; a NaN or inf that is kept shows in the result.
    """
    flat, small = x.ravel(), small.ravel()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if 2 * np.count_nonzero(small) >= flat.size:
            out = f_small(flat)
            idx = np.flatnonzero(~small)
            out[idx] = f_large(flat[idx])
        else:
            out = f_large(flat)
            idx = np.flatnonzero(small)
            out[idx] = f_small(flat[idx])
    return out.reshape(x.shape)


def log1mexp(v):
    """log(1 - exp(-v)) for v >= 0, stable on both sides of v = ln 2.

    log(-expm1(-v)) serves v <= ln 2 and log1p(-exp(-v)) the rest (NaN
    included), each entry with exactly the bits of its branch.
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
    optimizer relies on.  The other terms are returned because the
    likelihood gradient reuses them.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vt = v / theta
        w = np.power(vt, kappa)
        logm = log1mexp(w)
        vv = -(alpha * logm)
        log_s0 = log1mexp(vv)
        log_s0 = np.where((w > 600.0) | (vv == 0.0), math.log(alpha) - w, log_s0)
        lw = np.log(vt)
        logf = (
            math.log(alpha)
            + math.log(kappa)
            - math.log(theta)
            + (kappa - 1.0) * lw
            + (alpha - 1.0) * logm
            - w
        )
        h0 = np.exp(logf - log_s0)
    return w, logm, vv, log_s0, lw, h0


def gh_baseline(t, xb1, kappa, theta, alpha):
    v = t * np.exp(xb1)
    return (v, *ew_log_terms(v, kappa, theta, alpha))


def gh_excess(h0, log_s0, xb1, xb2):
    r21 = np.exp(xb2 - xb1)
    return r21, h0 * np.exp(xb2), -log_s0 * r21


def omega1(dhp, mu, b):
    """Frailty correction function mu / (1 + b dH_P); equals mu at dH_P = 0."""
    return mu / (1.0 + b * np.asarray(dhp, dtype=float))


def _log1p_ratio(y):
    """log1p(y)/y, continuous at 0, for y >= 0."""
    y = np.asarray(y, dtype=float)
    return _by_majority(
        y, y < 1e-4, lambda s: 1.0 - s / 2.0 + s * s / 3.0, lambda s: np.log1p(s) / s
    )


def _m3_pop_curvature(y):
    """G(y) = log1p(y)/y^2 - 1/(y(1+y)); G(0) = 1/2.  Used by the b-gradient."""
    y = np.asarray(y, dtype=float)
    return _by_majority(
        y,
        y < 1e-3,
        lambda s: 0.5 - 2.0 * s / 3.0 + 3.0 * s * s / 4.0,
        lambda s: np.log1p(s) / (s * s) - 1.0 / (s * (1.0 + s)),
    )


def _exact_sum(a: np.ndarray) -> float:
    """Correctly rounded sum of a float array; equals ``fsum(a.tolist())``.

    Error-free extraction (Rump, Ogita & Oishi 2008, "Accurate
    floating-point summation part I"): with sigma a power of two at least
    2^M max|r| and 2^M >= n + 2, q = (sigma + r) - sigma holds the leading
    bits of every entry as multiples of ulp(sigma)/2, so np.sum(q) is exact
    and so is r - q.  Each pass moves about 53 - M bits of every entry into
    one partial sum; fsum adds the partials and the last remainders once at
    most 32 of them are nonzero, or at once when the exponents leave the
    range where sigma is a normal number that cannot overflow (huge, tiny,
    inf or NaN entries).  Before each further pass a rounding certificate
    (Rump, Ogita & Oishi 2008, part II) bounds the plain sum of the
    remainders; when the whole bound rounds to one value with the partials,
    that value is the answer and the passes stop.
    """
    r = np.asarray(a, dtype=float).ravel()
    n = r.size
    m_bits = (n + 1).bit_length()
    parts = []
    while np.count_nonzero(r) > 32:
        top = float(np.max(np.abs(r)))
        if parts:
            # np.sum(r) is within (n-1) u sum|r| < n^2 u top of the exact
            # sum of r (u = 2^-53); d is four times that.  fsum rounds
            # monotonically, so when both ends of [s - d, s + d] give one
            # value, so does the exact sum and the passes can stop.
            s, d = float(np.sum(r)), 4.0 * n * n * 2.0**-53 * top
            if d >= sys.float_info.min:
                lo = fsum(parts + [s - d])
                if lo == fsum(parts + [s + d]):
                    return lo
        e = math.frexp(top)[1] + m_bits
        if not (math.isfinite(top) and -969 <= e <= 1022):
            break
        sigma = math.ldexp(1.0, e)
        q = (sigma + r) - sigma
        parts.append(float(np.sum(q)))
        r = r - q
    return fsum(parts + r[r != 0].tolist())


def _terms(params: ModelParams, cohort: PreparedCohort, comparable: bool):
    """Per-patient log-likelihood terms plus reusable intermediates."""
    model, hp, dhp = params.layout.model, cohort.hp, cohort.dhp
    xb1 = cohort.X @ params.beta1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v, w, logm, vv, log_s0, lw, h0 = gh_baseline(cohort.time, xb1, *params.baseline)
    xb2 = cohort.X @ params.beta2
    m3 = None  # (y, log1p(y)/y) with y = b dH_P under M3
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r21, he, HE = gh_excess(h0, log_s0, xb1, xb2)
        if model == "M1":
            chp = hp
            pop = dhp if comparable else np.zeros(cohort.n)
        elif model == "M2":
            (gamma,) = params.correction
            chp = gamma * hp
            pop = gamma * dhp
        else:
            mu, b = params.correction
            y = b * dhp
            ratio = _log1p_ratio(y)
            chp = omega1(dhp, mu, b) * hp
            # (mu/b) log1p(b dhp) written as mu dhp log1p(y)/y: no cliff at b -> 0
            pop = mu * dhp * ratio
            m3 = (y, ratio)

        lam = chp + he
        loglam = np.log(np.where(cohort.status == 1, lam, 1.0))  # log(1) = +0.0
        terms = loglam - HE - pop
    return terms, (v, w, logm, vv, log_s0, lw, h0, r21, he, HE, lam, m3)


def _checked_sum(terms: np.ndarray, cohort: PreparedCohort) -> float:
    """Exact sum of the terms; NonFiniteLikelihood naming the first patient
    whose term is NaN or infinite, or when finite terms overflow the sum."""
    finite = np.isfinite(terms)
    if not finite.all():
        idx = int(np.argmin(finite))
        raise NonFiniteLikelihood(
            f"non-finite likelihood term for patient {idx} "
            f"(t={cohort.time[idx]:.6g}, status={int(cohort.status[idx])})",
            patient_index=idx,
        )
    try:
        return _exact_sum(terms)
    except OverflowError:
        raise NonFiniteLikelihood("the sum of the likelihood terms overflows") from None


def loglik(params: ModelParams, cohort: PreparedCohort, comparable: bool = False) -> float:
    """Exact log-likelihood: the correctly rounded sum of the per-patient terms.

    The sum equals ``math.fsum`` of the terms bit for bit, so it does not
    depend on the order of the patients.  ``_exact_sum`` gets it with a few
    vectorized passes of error-free extraction: each pass rounds every
    remainder to a multiple of a common power of two (an exact split),
    adds those parts exactly with one np.sum, and keeps the exact rests;
    fsum then adds the pass totals and the last nonzero rests.

    ``comparable=True`` adds M1's omitted population-survival constant back
    so that values are on the full-data likelihood scale across models.

    Raises NonFiniteLikelihood naming the first offending patient if any
    per-patient term is NaN or infinite, or when the sum overflows.
    """
    terms, _ = _terms(params, cohort, comparable)
    return _checked_sum(terms, cohort)


def loglik_and_grad(params: ModelParams, cohort: PreparedCohort):
    """Log-likelihood (``loglik`` with comparable=False) and its gradient on
    the natural parameter scale.

    Gradient layout: that of ``params.layout`` (kappa, theta, alpha, beta1,
    beta2, then gamma for M2; mu, b for M3).  Raises NonFiniteLikelihood as
    ``loglik`` does, and also when a gradient entry is not finite.
    """
    model, p = params.layout.model, params.layout.n_covariates
    kappa, theta, alpha = params.baseline
    terms, aux = _terms(params, cohort, False)
    ll = _checked_sum(terms, cohort)
    v, w, logm, vv, log_s0, lw, h0, r21, he, HE, lam, m3 = aux
    ev, X = cohort.status == 1, cohort.X
    hp, dhp = cohort.hp, cohort.dhp
    H0 = -log_s0

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = np.where(ev, he / lam, 0.0)  # weight of d log h_E in d log lambda
        e1 = np.exp(-w - logm)  # q / m = 1 / (e^w - 1)
        dlogf_dw = 1.0 / w + (alpha - 1.0) * e1 - 1.0
        dH0_dw = h0 * v / (kappa * w)
        dlogh0_dw = dlogf_dw + dH0_dw
        # dH0/dalpha = (F/S) log m; asymptotically -1/alpha once q underflows
        dH0_da = np.where(
            w > 200.0, -1.0 / alpha, np.exp(-vv - log_s0) * logm
        )
        h0v = h0 * v

        g_kappa = np.sum(
            u * (1.0 / kappa + dlogh0_dw * w * lw) - r21 * (h0v * lw / kappa)
        )
        g_theta = np.sum(
            u * (dlogh0_dw * (-kappa * w / theta)) - r21 * (-h0v / theta)
        )
        g_alpha = np.sum(u * (1.0 / alpha + logm + dH0_da) - r21 * dH0_da)
        if p:
            D = kappa * w * dlogh0_dw
            wb1 = u * (D - 1.0) - r21 * (h0v - H0)
            wb2 = u - HE
            g_beta1 = X.T @ wb1
            g_beta2 = X.T @ wb2
        else:
            g_beta1 = np.zeros(0)
            g_beta2 = np.zeros(0)

        grad = [g_kappa, g_theta, g_alpha, *g_beta1, *g_beta2]

        if model == "M2":
            dlam = np.where(ev, hp / lam, 0.0)
            grad.append(np.sum(dlam) - np.sum(dhp))
        elif model == "M3":
            mu = params.correction[0]
            y, ratio = m3
            den = 1.0 + y
            dlam_mu = np.where(ev, (hp / den) / lam, 0.0)
            dlam_b = np.where(ev, (-mu * hp * dhp / (den * den)) / lam, 0.0)
            # d pop_i / dmu = dhp log1p(y)/y; d pop_i / db = mu dhp^2 G(y)
            g_mu = np.sum(dlam_mu) - np.sum(dhp * ratio)
            g_b = np.sum(dlam_b) + mu * np.sum(dhp * dhp * _m3_pop_curvature(y))
            grad.extend([g_mu, g_b])

    grad = np.array(grad)
    bad = np.flatnonzero(~np.isfinite(grad))
    if bad.size:
        raise NonFiniteLikelihood(f"non-finite gradient at positions {bad.tolist()}")
    return ll, grad
