"""Observed-hazard log-likelihoods for the three excess-hazard models.

M1 (classical additive):      lambda_i = h_P + h_E
M2 (single-parameter corr.):  lambda_i = gamma h_P + h_E
M3 (Gamma-frailty corr.):     lambda_i = mu h_P / (1 + b dH_P) + h_E

with log-likelihood

    l = sum_i [ delta_i log lambda_i - H_E(t_i; x_i) ] + population term,

population term 0 for M1 (constant dropped by convention), -gamma sum dH_P
for M2, and -(mu/b) sum log(1 + b dH_P) for M3.  Because M1 drops a
data-dependent constant, cross-model comparisons must use the comparable
convention (``comparable=True`` restores -sum dH_P to M1).

A model's parameters are a ``ParamLayout`` plus one natural-scale vector
(``ModelParams``).  The likelihood and its gradient read the slots through
``ModelParams``' read-only views (``baseline``, ``beta1``, ``beta2``,
``correction``) and branch on the layout's model; the public GH functions
of ``gh_model`` read the same views, of any model.

A cohort is one set of columns (``Cohort``: follow-up time, status, age
and year at diagnosis, covariates and a stratum code per patient), read
from a CSV by ``load_cohort`` or drawn by ``simulation.generate_cohort``.
Its life-table inputs per patient reduce to two cached numbers: the
cumulative background-hazard increment dH_P over the follow-up and the
background rate h_P at exit (``prepare_cohort`` gives a PreparedCohort),
so the likelihood inner loop never touches the table.  h_E and H_E come
from ``gh_model.gh_baseline`` and ``gh_model.gh_excess``, the code behind
the public ``excess_hazard`` and ``excess_cum_hazard``, and the M3
population hazard from ``omega1``.
Analytic gradients are provided for the optimizer; they are exercised
against central finite differences in the test suite.
"""

from __future__ import annotations

import math
import sys
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from math import fsum
from typing import Sequence, TextIO

import numpy as np

from .distributions import GammaFrailtyParams, _by_majority, _check_natural, gamma_laplace
from .errors import DataError, NonFiniteLikelihood
from .gh_model import excess_cum_hazard, gh_baseline, gh_excess
from .lifetable import LifeTable, _read_csv

__all__ = [
    "Cohort",
    "ParamLayout",
    "ModelParams",
    "PreparedCohort",
    "prepare_cohort",
    "omega1",
    "marginal_survival_m3",
    "loglik",
    "loglik_and_grad",
    "load_cohort",
]


def _first_bad_row(time, status, age_diag, year_diag, X, stratum, n_strata):
    """(row, message) of the first row that fails a check, or None.

    Every check runs over whole columns; a row failing several reports the
    first check it fails.  A stratum code must index one of ``n_strata``.
    """
    bad = np.column_stack([
        ~(np.isfinite(time) & (time > 0)),
        ~((status == 0) | (status == 1)),
        ~(np.isfinite(age_diag) & np.isfinite(year_diag)),
        ~np.isfinite(X).all(axis=1),
        ~((0 <= stratum) & (stratum < n_strata)),
    ])
    if not bad.any():
        return None
    i = int(np.argmax(bad.any(axis=1)))
    messages = (
        f"follow-up time must be > 0, got {time[i]}",
        f"status must be 0 or 1, got {status[i]}",
        f"age and year at diagnosis must be finite, got {age_diag[i]}, {year_diag[i]}",
        f"covariates must be finite, got {X[i]}",
        f"stratum code must index one of the {n_strata} strata, got {stratum[i]}",
    )
    return i, messages[int(np.argmax(bad[i]))]


@dataclass(frozen=True, eq=False)
class Cohort:
    """A patient cohort as columns, one row per patient.

    ``time`` is the follow-up in years (> 0), ``status`` 1 for an event and
    0 for a censored time, ``age_diag`` and ``year_diag`` the Lexis origin,
    ``X`` the (n, p) covariates, ``strata`` the distinct life-table strata
    tuples and ``stratum`` each row's index into them.  The columns are
    copied into read-only arrays.  The checks run over whole columns; a
    failure raises DataError naming the first bad row.
    """

    time: np.ndarray
    status: np.ndarray
    age_diag: np.ndarray
    year_diag: np.ndarray
    X: np.ndarray  # (n, p)
    strata: tuple[tuple[str, ...], ...]
    stratum: np.ndarray

    def __post_init__(self):
        cols = {
            c: np.array(getattr(self, c), dtype=float) for c in ("time", "age_diag", "year_diag", "X")
        }
        cols["status"], cols["stratum"] = np.array(self.status), np.array(self.stratum)
        strata = tuple(self.strata)
        n, n_strata = cols["stratum"].size, len(strata)
        if n == 0:
            raise DataError("cohort is empty")
        shapes = [cols[c].shape for c in ("time", "status", "age_diag", "year_diag", "stratum")]
        distinct = all(isinstance(z, tuple) for z in strata) and len(set(strata)) == n_strata
        if shapes != [(n,)] * 5 or cols["X"].ndim != 2 or len(cols["X"]) != n or not (
            distinct and cols["stratum"].dtype.kind in "iu"
        ):
            raise DataError(
                "a cohort needs columns of one length n, X of shape (n, p), "
                "distinct strata tuples and one integer stratum code per row"
            )
        bad = _first_bad_row(**cols, n_strata=n_strata)
        if bad is not None:
            raise DataError(f"row {bad[0]}: {bad[1]}")
        cols["status"] = cols["status"].astype(np.int8)
        cols["stratum"] = cols["stratum"].astype(np.intp)
        for name, arr in cols.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "strata", strata)


# The correction slots of each model, by name, with their starting values.
_CORRECTIONS = {"M1": {}, "M2": {"gamma": 1.2}, "M3": {"mu": 1.2, "b": 0.1}}
MODELS = tuple(_CORRECTIONS)


@dataclass(frozen=True)
class ParamLayout:
    """Order, names, and positivity of a model's natural parameter vector.

    Layout: kappa, theta, alpha, beta1 entries, beta2 entries, then the
    correction parameters (gamma for M2; mu, b for M3); the gradient of
    ``loglik_and_grad`` too.  ``positive`` follows from the model and the
    names, so layouts compare and hash by (model, n_covariates, names).
    """

    model: str
    n_covariates: int
    names: tuple[str, ...]
    positive: np.ndarray = field(init=False, compare=False)  # read-only

    def __post_init__(self):
        positive = np.ones(self.k, dtype=bool)
        for slots in self.beta_slots:
            positive[slots] = False
        positive.setflags(write=False)
        object.__setattr__(self, "positive", positive)

    def __reduce__(self):
        # unpickling runs the constructor, so the mask comes back read-only
        return ParamLayout, (self.model, self.n_covariates, self.names)

    @classmethod
    def for_model(cls, model: str, covariate_names: Sequence[str]) -> "ParamLayout":
        if model not in MODELS:
            raise ValueError(f"unknown model {model!r}")
        cov = tuple(covariate_names)
        names = ("kappa", "theta", "alpha", *(f"beta1_{c}" for c in cov),
                 *(f"beta2_{c}" for c in cov), *_CORRECTIONS[model])
        return cls(model, len(cov), names)

    @property
    def k(self) -> int:
        return len(self.names)

    @cached_property  # read on every likelihood evaluation
    def beta_slots(self) -> tuple[slice, slice]:
        """The slots of beta1 and of beta2."""
        p = self.n_covariates
        return slice(3, 3 + p), slice(3 + p, 3 + 2 * p)

    def transformed_bounds(self) -> list[tuple[float, float]]:
        """Generous box bounds on the unconstrained scale.

        Log-parameters are kept in [-20, 20] (natural scale 2e-9 .. 5e8) and
        regression coefficients in [-100, 100]: wide enough to be inactive at
        any interior optimum, finite so the search cannot overflow, and a
        well-defined resting point for boundary collapses (gamma or b -> 0).
        """
        return [(-20.0, 20.0) if pos else (-100.0, 100.0) for pos in self.positive]

    def default_init(self) -> np.ndarray:
        """kappa = theta = 1, alpha = 2, betas = 0; gamma = 1.2; (mu, b) = (1.2, 0.1)."""
        return np.array(
            [1.0, 1.0, 2.0, *[0.0] * (2 * self.n_covariates), *_CORRECTIONS[self.model].values()]
        )

    def to_params(self, vec: np.ndarray) -> "ModelParams":
        return ModelParams(self, vec)

    def from_params(self, params: "ModelParams") -> np.ndarray:
        return params.values.copy()


@dataclass(frozen=True, eq=False)
class ModelParams:
    """A model's parameters: its layout and a read-only copy of one natural vector.

    Raises NonPositive as ``transform_params`` does, naming every slot that
    is not finite or, on a positive slot, not > 0.  ``baseline`` (kappa,
    theta, alpha), ``beta1``, ``beta2`` and ``correction`` (none for M1,
    gamma for M2, mu and b for M3) are read-only views of the slots, in
    the order of ``ParamLayout``.
    """

    layout: ParamLayout
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != (self.layout.k,):
            raise ValueError(f"{self.layout.model} takes {self.layout.k} parameters, "
                             f"got shape {values.shape}")
        _check_natural(values, self.layout.positive)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __reduce__(self):
        # unpickling runs the constructor, so the vector comes back read-only
        return ModelParams, (self.layout, self.values)

    @property
    def baseline(self) -> np.ndarray:
        return self.values[:3]

    @property
    def beta1(self) -> np.ndarray:
        return self.values[self.layout.beta_slots[0]]

    @property
    def beta2(self) -> np.ndarray:
        return self.values[self.layout.beta_slots[1]]

    @property
    def correction(self) -> np.ndarray:
        return self.values[self.layout.beta_slots[1].stop :]


_EW_MEMO_SIZE = 2  # EW blocks kept per cohort


@dataclass(frozen=True)
class PreparedCohort:
    """Cohort with life-table quantities cached per patient.

    hp[i] is the background rate at exit time and dhp[i] the cumulative
    background-hazard increment over (0, t_i] along the Lexis diagonal.
    ``covariate_names`` names the columns of X (x1..xp when empty); a count
    that differs from X's raises DataError.  Immutable; likelihood
    evaluations are pure functions of it.

    The cohort also keeps the event mask ``status == 1`` and a memo of the
    last two EW blocks the likelihood computed on it: the baseline terms,
    which depend only on (kappa, theta, alpha, beta1).  Coordinate descent
    and finite-difference stencils revisit a block while they move beta2 or
    the correction, and such an evaluation reuses it.  The cached arrays are
    read-only and hold exactly the bits a fresh computation gives, so the
    memo changes no result.  It is not thread-safe: share a cohort between
    threads only through copies (``dataclasses.replace`` gives a fresh,
    empty memo).
    """

    time: np.ndarray
    status: np.ndarray
    X: np.ndarray  # (n, p)
    hp: np.ndarray
    dhp: np.ndarray
    covariate_names: tuple[str, ...] = ()
    _event: np.ndarray = field(init=False, repr=False, compare=False)
    _ew_memo: OrderedDict = field(
        default_factory=OrderedDict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        for arr in (self.time, self.status, self.X, self.hp, self.dhp):
            arr.setflags(write=False)
        event = self.status == 1
        event.setflags(write=False)
        object.__setattr__(self, "_event", event)
        if not self.covariate_names:
            object.__setattr__(
                self,
                "covariate_names",
                tuple(f"x{i + 1}" for i in range(self.X.shape[1])),
            )
        elif len(self.covariate_names) != self.X.shape[1]:
            raise DataError(
                f"{len(self.covariate_names)} covariate names for {self.X.shape[1]} columns of X"
            )

    @property
    def n(self) -> int:
        return self.time.shape[0]

    @property
    def n_events(self) -> int:
        return int(self.status.sum())


def prepare_cohort(
    cohort: Cohort,
    table: LifeTable,
    advance_year: bool = True,
    covariate_names: Sequence[str] = (),
) -> PreparedCohort:
    """Cache h_P at exit and the cumulative increment dH_P for every patient."""
    time, age, year = cohort.time, cohort.age_diag, cohort.year_diag
    k = table.codes(cohort.strata)[cohort.stratum]
    dhp = table.cum_hazard_increment(age, year, k, time, advance_year=advance_year)
    exit_year = year + time if advance_year else year
    hp = table.rate_at(age + time, exit_year, k)
    return PreparedCohort(time, cohort.status, cohort.X, hp, dhp, tuple(covariate_names))


# ---------------------------------------------------------------------------
# hazard pieces
# ---------------------------------------------------------------------------


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


def marginal_survival_m3(
    t,
    cohort: Cohort,
    params: ModelParams,
    table: LifeTable,
    advance_year: bool = True,
) -> np.ndarray:
    """Marginal overall survival under M3 of every patient: exp(-H_E) * L_Gamma(dH_P).

    ``t`` broadcasts against the patients (one time for all, or one each);
    all of them take one walk of the life table.
    """
    if params.layout.model != "M3":
        raise ValueError("marginal_survival_m3 requires M3 params")
    k = table.codes(cohort.strata)[cohort.stratum]
    dhp = table.cum_hazard_increment(cohort.age_diag, cohort.year_diag, k, t, advance_year)
    he = excess_cum_hazard(t, cohort.X, params)
    return np.exp(-he) * gamma_laplace(dhp, GammaFrailtyParams(*params.correction))


# ---------------------------------------------------------------------------
# log-likelihood
# ---------------------------------------------------------------------------


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


def _ew_block(params: ModelParams, cohort: PreparedCohort):
    """(xb1, *gh_baseline(time, xb1, kappa, theta, alpha)): the EW baseline
    terms of the cohort.

    They depend on the cohort and on (kappa, theta, alpha, beta1) only, and
    come from the cohort's memo when one of its last two blocks matches.
    """
    baseline, beta1 = params.baseline, params.beta1
    key = baseline.tobytes() + beta1.tobytes()
    memo = cohort._ew_memo
    block = memo.get(key)
    if block is not None:
        memo.move_to_end(key)
        return block
    xb1 = cohort.X @ beta1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        block = (xb1, *gh_baseline(cohort.time, xb1, *baseline))
    for arr in block:
        arr.setflags(write=False)
    memo[key] = block
    if len(memo) > _EW_MEMO_SIZE:
        memo.popitem(last=False)
    return block


def _terms(params: ModelParams, cohort: PreparedCohort, comparable: bool):
    """Per-patient log-likelihood terms plus reusable intermediates."""
    model, hp, dhp = params.layout.model, cohort.hp, cohort.dhp
    xb1, v, w, logm, vv, log_s0, lw, h0 = _ew_block(params, cohort)
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
        loglam = np.log(np.where(cohort._event, lam, 1.0))  # log(1) = +0.0
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
    if cohort.n == 0:
        raise DataError("cohort is empty")
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
    ev, X = cohort._event, cohort.X
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


# ---------------------------------------------------------------------------
# cohort CSV
# ---------------------------------------------------------------------------


def load_cohort(
    source: TextIO | str,
    x_columns: Sequence[str],
    z_columns: Sequence[str],
    transforms: dict[str, tuple[float, float]] | None = None,
) -> Cohort:
    """Read a patient cohort CSV (a path or an open text stream) into a Cohort.

    Expected header: ``time,status,age_diag,year_diag,<x cols>,<z cols>``
    in any order, and ``#``-prefixed comment lines ignored.  The x columns
    become the covariates and the z columns the strata (they may overlap);
    each distinct strata tuple gets a code in order of first appearance.
    ``transforms`` maps an x column to (center, scale): value -> (value -
    center) / scale; both must be finite and the scale nonzero.  A row that
    fails a Cohort check, such as covariates that are not finite after the
    transform, raises DataError naming its line.
    """
    transforms = transforms or {}
    for col, (center, scale) in transforms.items():
        if not (math.isfinite(center) and math.isfinite(scale) and scale != 0.0):
            raise DataError(
                f"transform of column {col!r} needs a finite center and a finite, "
                f"nonzero scale, got ({center}, {scale})"
            )
    shifts = [transforms.get(c, (0.0, 1.0)) for c in x_columns]
    codes: dict[tuple[str, ...], int] = {}

    def parse(row):
        return (
            float(row["time"]),
            int(row["status"]),
            float(row["age_diag"]),
            float(row["year_diag"]),
            [(float(row[c]) - center) / scale for c, (center, scale) in zip(x_columns, shifts)],
            codes.setdefault(tuple(row[c] for c in z_columns), len(codes)),
        )

    required = ["time", "status", "age_diag", "year_diag", *x_columns, *z_columns]
    _, line_nos, rows = _read_csv(source, "cohort file", required, parse)
    names = ("time", "status", "age_diag", "year_diag", "X", "stratum")
    cols = dict(zip(names, map(np.array, zip(*rows))))
    bad = _first_bad_row(**cols, n_strata=len(codes))
    if bad is not None:
        raise DataError(f"line {line_nos[bad[0]]}: {bad[1]}")
    return Cohort(**cols, strata=tuple(codes))
