"""Observed-hazard log-likelihoods for the three excess-hazard models.

The three models share one population term.  With y = b dH_P,

    lambda_i = c h_P / (1 + y) + h_E,
    l = sum_i [ delta_i log lambda_i - H_E(t_i; x_i) - c dH_P log1p(y)/y ],

where (c, b) is (1, 0) for M1, the classical additive model, (gamma, 0)
for M2, the single-parameter correction, and (mu, b) for M3, the
Gamma-frailty correction (``ModelParams.population``).  c dH_P log1p(y)/y
is (mu/b) log1p(b dH_P) without its cliff at b -> 0.  M1 drops its
data-dependent constant -sum dH_P by convention, so cross-model
comparisons must use ``comparable=True``, which restores it.

A model's parameters are a ``ParamLayout`` plus one natural-scale vector
(``ModelParams``).  The likelihood and its gradient read the slots through
``ModelParams``' read-only views (``baseline``, ``beta1``, ``beta2``,
``correction``, ``population``); the public GH functions of ``gh_model``
read the same views, of any model.

A cohort is one set of columns (``Cohort``: follow-up time, status, age
and year at diagnosis, covariates and a stratum code per patient), read
from a CSV by ``load_cohort`` or drawn by ``simulation.generate_cohort``.
Its life-table inputs per patient reduce to two cached numbers: the
cumulative background-hazard increment dH_P over the follow-up and the
background rate h_P at exit (``prepare_cohort`` gives a PreparedCohort),
so the likelihood inner loop never touches the table.  h_E and H_E come
from ``gh_model.gh_baseline`` and ``gh_model.gh_excess``, the code behind
the public ``excess_hazard`` and ``excess_cum_hazard``, and the pieces of
the population term from ``_population_pieces``.
Analytic gradients are provided for the optimizer, and the analytic
Hessian (``loglik_grad_hess``) for its Newton steps and the standard
errors; both are exercised against central finite differences in the test
suite.

One evaluation (``loglik``, ``loglik_and_grad`` or ``loglik_grad_hess``,
which ``loglik_and_grad(hessian=True)`` calls) enters ``np.errstate`` once,
around all of its array work, and checks its own infinities and NaNs.  The
gradient is written once, in ``_first_order``, the stage both
``loglik_and_grad`` and ``loglik_grad_hess`` run; the latter adds the
Hessian from the stage's per-patient pieces, as sums of weighted outer
products (one matrix product each).  The terms and the gradient follow the
order of operations of their formulas, the longest chains in place, so
they keep the bits of the plain expressions.  What depends on the cohort
alone is computed once, when the PreparedCohort is built: the event mask,
dH_P^2 (b's score) and the events with h_P > 0.

``profile_gamma`` gives the maximizing multiplier of h_P, M2's gamma at a
GH point or M3's mu at a GH point and b, for the fits that profile it
out; it reads the EW block the likelihood call at that point then reuses,
and makes no likelihood call itself.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from math import fsum
from typing import Sequence, TextIO

import numpy as np

from .distributions import _by_majority, _check_natural
from .errors import DataError, NonFiniteLikelihood
from .gh_model import excess_cum_hazard, gh_baseline, gh_excess
from .lifetable import LifeTable, _read_csv

__all__ = [
    "Cohort",
    "ParamLayout",
    "ModelParams",
    "PreparedCohort",
    "prepare_cohort",
    "marginal_survival_m3",
    "profile_gamma",
    "loglik",
    "loglik_and_grad",
    "loglik_grad_hess",
    "load_cohort",
]


def _check_rows(checks, label):
    """Raise DataError naming by ``label(row)`` the first row that fails one of ``checks``.

    Each check pairs a boolean array, True where a row passes ((n,), or
    (n, p) when a row holds p values), with a function of a row giving its
    message.  Only the checks whose whole array fails search their rows; a
    row failing several reports the first check it fails.
    """
    failing = [(ok, message) for ok, message in checks if not ok.all()]
    if failing:
        bad = ~np.column_stack([ok.reshape(len(ok), -1).all(axis=1) for ok, _ in failing])
        i = int(np.argmax(bad.any(axis=1)))
        raise DataError(f"{label(i)}: {failing[int(np.argmax(bad[i]))][1](i)}")


def _shared_checks(time, status, X):
    """The checks of the columns every cohort holds, for ``_check_rows``:
    follow-up time finite and > 0, status 0 or 1, and covariates finite."""
    return [
        (np.isfinite(time) & (time > 0), lambda i: f"follow-up time must be > 0, got {time[i]}"),
        ((status == 0) | (status == 1), lambda i: f"status must be 0 or 1, got {status[i]}"),
        (np.isfinite(X), lambda i: f"covariates must be finite, got {X[i]}"),
    ]


def _cohort_checks(time, status, age_diag, year_diag, X, stratum, n_strata):
    """The checks of a Cohort's rows, for ``_check_rows``; a stratum code must
    index one of ``n_strata``."""
    time_ok, status_ok, x_ok = _shared_checks(time, status, X)
    return [
        time_ok,
        status_ok,
        (
            np.isfinite(age_diag) & np.isfinite(year_diag),
            lambda i: f"age and year at diagnosis must be finite, got {age_diag[i]}, {year_diag[i]}",
        ),
        x_ok,
        (
            (0 <= stratum) & (stratum < n_strata),
            lambda i: f"stratum code must index one of the {n_strata} strata, got {stratum[i]}",
        ),
    ]


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
        _check_rows(_cohort_checks(**cols, n_strata=n_strata), "row {}".format)
        cols["status"] = cols["status"].astype(np.int8)
        cols["stratum"] = cols["stratum"].astype(np.intp)
        for name, arr in cols.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "strata", strata)


_LOG_BOX = 20.0  # |log| bound of the positive parameters (ParamLayout.transformed_bounds)

# The correction slots of each model, by name.
_CORRECTIONS = {"M1": (), "M2": ("gamma",), "M3": ("mu", "b")}
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
        return [(-_LOG_BOX, _LOG_BOX) if pos else (-100.0, 100.0) for pos in self.positive]

    def default_init(self) -> np.ndarray:
        """kappa = theta = 1, alpha = 2, betas = 0: the start of the GH slots.

        The corrections have none: ``estimation.fit`` profiles gamma and mu
        out and scans M3's b on a grid.
        """
        return np.array([1.0, 1.0, 2.0, *[0.0] * (2 * self.n_covariates)])

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

    @property
    def population(self) -> tuple[float, float]:
        """(c, b) of the population hazard c h_P / (1 + b dH_P): (1, 0) for M1,
        (gamma, 0) for M2 and (mu, b) for M3."""
        corr = self.correction.tolist() or [1.0]
        return corr[0], corr[1] if len(corr) > 1 else 0.0


@dataclass(frozen=True)
class PreparedCohort:
    """Cohort with life-table quantities cached per patient.

    hp[i] is the background rate at exit time and dhp[i] the cumulative
    background-hazard increment over (0, t_i] along the Lexis diagonal.
    ``covariate_names`` names the columns of X (x1..xp when empty).  The
    constructor checks the columns once: they must have one length n >= 1
    (X of shape (n, p), with p covariate names when they are given); the
    follow-up time must be finite and > 0, status 0 or 1 and the
    covariates finite, as in a Cohort; and hp and dhp finite and >= 0.  A
    failure raises DataError naming the first bad row, in a Cohort's words
    where the checks are shared.  The columns are copied into read-only
    arrays.  Immutable; likelihood evaluations are pure functions of it.

    The cohort also keeps the event mask ``status == 1``, dhp^2 (the score
    of b), the events with hp > 0 and their hp (``profile_gamma``), and a
    memo of the last EW block the likelihood computed on it: the baseline
    terms, which depend only on (kappa, theta, alpha, beta1).  M3's log-b
    scan moves only b, and a trust-region trial's information pass follows
    its value at the same point, so such an evaluation reuses the block.
    The cached arrays are read-only and hold exactly the bits a fresh
    computation gives, so the memo changes no result.

    ``loglik_grad_hess`` writes its per-patient derivatives into a
    workspace the cohort keeps: one block of 5 n_gh n floats (n_gh = 3 +
    2p, the GH slots), allocated on the cohort's first information pass.
    Its rows of x'(b2 - b1)'s derivatives hold the covariates and are
    written then; every pass overwrites every other row and returns nothing
    that aliases the block, so it changes no result.  It spares each pass
    mapping and faulting in five fresh blocks.  Neither the memo nor the
    workspace is thread-safe: share a cohort between threads only through
    copies (``dataclasses.replace`` gives a fresh, empty memo and
    workspace).
    """

    time: np.ndarray
    status: np.ndarray
    X: np.ndarray  # (n, p)
    hp: np.ndarray
    dhp: np.ndarray
    covariate_names: tuple[str, ...] = ()
    _event: np.ndarray = field(init=False, repr=False, compare=False)
    _dhp2: np.ndarray = field(init=False, repr=False, compare=False)
    _hp_events: np.ndarray = field(init=False, repr=False, compare=False)
    _hp_at_events: np.ndarray = field(init=False, repr=False, compare=False)
    _ew_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _workspace: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        cols = {c: np.array(getattr(self, c), dtype=float) for c in ("time", "X", "hp", "dhp")}
        status = np.array(self.status)
        n = status.size
        if n == 0:
            raise DataError("cohort is empty")
        X = cols["X"]
        shapes = [cols[c].shape for c in ("time", "hp", "dhp")] + [status.shape]
        if shapes != [(n,)] * 4 or X.ndim != 2 or len(X) != n:
            raise DataError("a prepared cohort needs columns of one length n and X of shape (n, p)")
        names = tuple(self.covariate_names) or tuple(f"x{i + 1}" for i in range(X.shape[1]))
        if len(names) != X.shape[1]:
            raise DataError(f"{len(names)} covariate names for {X.shape[1]} columns of X")
        hp, dhp = cols["hp"], cols["dhp"]
        _check_rows([
            *_shared_checks(cols["time"], status, X),
            (np.isfinite(hp) & (hp >= 0), lambda i: f"hp must be finite and >= 0, got {hp[i]}"),
            (np.isfinite(dhp) & (dhp >= 0), lambda i: f"dhp must be finite and >= 0, got {dhp[i]}"),
        ], "row {}".format)
        cols["status"] = status.astype(np.int8)
        cols["_event"] = status == 1
        cols["_dhp2"] = dhp * dhp
        cols["_hp_events"] = np.flatnonzero(cols["_event"] & (hp > 0))
        cols["_hp_at_events"] = hp[cols["_hp_events"]]
        for name, arr in cols.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "covariate_names", names)

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


def _log1p_ratio(y):
    """log1p(y)/y, continuous at 0, for y >= 0."""
    y = np.asarray(y, dtype=float)
    return _by_majority(
        y, y < 1e-4, lambda s: 1.0 - s / 2.0 + s * s / 3.0, lambda s: np.log1p(s) / s
    )


def _population_pieces(b, dhp):
    """(y, log1p(y)/y, 1 + y) with y = b dhp; at b = 0 the scalars 0, 1 and
    1, whose products keep the bits of the plain c h_P and c dhp."""
    if b == 0.0:
        return 0.0, 1.0, 1.0
    y = b * dhp
    return y, _log1p_ratio(y), 1.0 + y


def _m3_pop_curvature(y):
    """G(y) = log1p(y)/y^2 - 1/(y(1+y)); G(0) = 1/2.  Used by the b-gradient."""
    y = np.asarray(y, dtype=float)
    return _by_majority(
        y,
        y < 1e-3,
        lambda s: 0.5 - 2.0 * s / 3.0 + 3.0 * s * s / 4.0,
        lambda s: np.log1p(s) / (s * s) - 1.0 / (s * (1.0 + s)),
    )


def _m3_pop_curvature_slope(y):
    """G'(y) = (2 + 3y)/(y^2 (1+y)^2) - 2 log1p(y)/y^3; G'(0) = -2/3.  Used by
    the b-b entry of the Hessian."""
    y = np.asarray(y, dtype=float)
    return _by_majority(
        y,
        y < 1e-3,
        lambda s: -2.0 / 3.0 + s * (1.5 - s * (2.4 - s * 10.0 / 3.0)),
        lambda s: (2.0 + 3.0 * s) / (s * s * (1.0 + s) ** 2) - 2.0 * np.log1p(s) / (s * s * s),
    )


def marginal_survival_m3(
    t,
    cohort: Cohort,
    params: ModelParams,
    table: LifeTable,
    advance_year: bool = True,
) -> np.ndarray:
    """Marginal overall survival under M3 of every patient: exp(-H_E) times
    the Gamma frailty's Laplace transform at dH_P, exp(-mu dH_P log1p(y)/y)
    with y = b dH_P, the likelihood's population term.

    ``t`` broadcasts against the patients (one time for all, or one each);
    all of them take one walk of the life table.
    """
    if params.layout.model != "M3":
        raise ValueError("marginal_survival_m3 requires M3 params")
    k = table.codes(cohort.strata)[cohort.stratum]
    dhp = table.cum_hazard_increment(cohort.age_diag, cohort.year_diag, k, t, advance_year)
    c, b = params.population
    with np.errstate(invalid="ignore"):  # log1p(0)/0 is computed, then replaced
        pop = c * dhp * _population_pieces(b, dhp)[1]
    return np.exp(-excess_cum_hazard(t, cohort.X, params) - pop)


# ---------------------------------------------------------------------------
# log-likelihood
# ---------------------------------------------------------------------------


def _exact_sum(a: np.ndarray, top: float | None = None) -> float:
    """Correctly rounded sum of a float array; equals ``fsum(a.tolist())``.

    Error-free extraction (Rump, Ogita & Oishi 2008, "Accurate
    floating-point summation part I"): with sigma a power of two at least
    2^M max|r| and 2^M >= n + 2, q = (sigma + r) - sigma holds the leading
    bits of every entry as multiples of ulp(sigma)/2, so the sum of q is
    exact and so is r - q.  Each pass moves about 53 - M bits of every
    entry into one partial sum; fsum adds the partials and the last
    remainders once at most 32 of them are nonzero, or at once when the
    exponents leave the range where sigma is a normal number that cannot
    overflow (huge, tiny, inf or NaN entries).  Before each further pass a
    rounding certificate (Rump, Ogita & Oishi 2008, part II) bounds the
    plain sum of the remainders; when the whole bound rounds to one value
    with the partials, that value is the answer and the passes stop.

    ``top`` is max|a| when the caller has it.  After a pass at sigma = 2^e
    every remainder is at most 2^(e-53) in magnitude, and that bound is the
    next pass's ``top``: sigma need only be a power of two above 2^M
    max|r|, so the sum does not depend on how tight ``top`` is.
    """
    r = np.asarray(a, dtype=float).ravel()
    n = r.size
    m_bits = (n + 1).bit_length()
    parts = []
    while np.count_nonzero(r) > 32:
        if top is None:
            top = float(np.maximum.reduce(np.abs(r)))
        if parts:
            # the plain sum of r is within (n-1) u sum|r| < n^2 u top of the
            # exact sum of r (u = 2^-53); d is four times that.  fsum rounds
            # monotonically, so when both ends of [s - d, s + d] give one
            # value, so does the exact sum and the passes can stop.
            s, d = float(np.add.reduce(r)), 4.0 * n * n * 2.0**-53 * top
            if d >= sys.float_info.min:
                lo = fsum(parts + [s - d])
                if lo == fsum(parts + [s + d]):
                    return lo
        e = math.frexp(top)[1] + m_bits
        if not (math.isfinite(top) and -969 <= e <= 1022):
            break
        sigma = math.ldexp(1.0, e)
        q = r + sigma
        q -= sigma
        parts.append(float(np.add.reduce(q)))
        r = np.subtract(r, q, out=q)
        top = math.ldexp(1.0, e - 53)  # |r - q| <= ulp(sigma) / 2
    return fsum(parts + r[r != 0].tolist())


def _ew_block(params: ModelParams, cohort: PreparedCohort):
    """(xb1, *gh_baseline(time, xb1, kappa, theta, alpha)): the EW baseline
    terms of the cohort.

    They depend on the cohort and on (kappa, theta, alpha, beta1) only, and
    come from the cohort's memo when its last block matches.  Runs under the
    caller's ``np.errstate``.
    """
    baseline, beta1 = params.baseline, params.beta1
    key = baseline.tobytes() + beta1.tobytes()
    memo = cohort._ew_memo
    if key not in memo:
        xb1 = cohort.X @ beta1
        block = (xb1, *gh_baseline(cohort.time, xb1, *baseline))
        for arr in block:
            arr.setflags(write=False)
        memo.clear()
        memo[key] = block
    return memo[key]


def _terms(params: ModelParams, cohort: PreparedCohort, comparable: bool):
    """Per-patient log-likelihood terms plus reusable intermediates, the last
    of them ``_population_pieces``' (y, log1p(y)/y, 1 + y).

    Runs under the caller's ``np.errstate``.
    """
    dhp = cohort.dhp
    xb1, v, w, logm, vv, log_s0, lw, h0 = _ew_block(params, cohort)
    xb2 = cohort.X @ params.beta2
    r21, he, HE = gh_excess(h0, log_s0, xb1, xb2)
    c, b = params.population
    y, ratio, den = _population_pieces(b, dhp)
    lam = c / den * cohort.hp
    lam += he
    terms = np.where(cohort._event, lam, 1.0)  # log(1) = +0.0
    np.log(terms, out=terms)
    terms -= HE
    if comparable or params.layout.model != "M1":  # M1 drops its population term
        pop = c * dhp
        pop *= ratio
        terms -= pop
    return terms, (v, w, logm, vv, log_s0, lw, h0, r21, he, HE, lam, (y, ratio, den))


def _checked_sum(terms: np.ndarray, cohort: PreparedCohort) -> float:
    """Exact sum of the terms; NonFiniteLikelihood naming the first patient
    whose term is NaN or infinite, or when finite terms overflow the sum.

    The largest |term|, which the sum's first pass needs anyway, is finite
    exactly when every term is.
    """
    top = float(np.maximum.reduce(np.abs(terms)))
    if not math.isfinite(top):
        idx = int(np.argmin(np.isfinite(terms)))
        raise NonFiniteLikelihood(
            f"non-finite likelihood term for patient {idx} "
            f"(t={cohort.time[idx]:.6g}, status={int(cohort.status[idx])})",
            patient_index=idx,
        )
    try:
        return _exact_sum(terms, top)
    except OverflowError:
        raise NonFiniteLikelihood("the sum of the likelihood terms overflows") from None


def loglik(params: ModelParams, cohort: PreparedCohort, comparable: bool = False) -> float:
    """Exact log-likelihood: the correctly rounded sum of the per-patient terms.

    The sum equals ``math.fsum`` of the terms bit for bit, so it does not
    depend on the order of the patients.  ``_exact_sum`` gets it with a few
    vectorized passes of error-free extraction: each pass rounds every
    remainder to a multiple of a common power of two (an exact split),
    adds those parts exactly with one np.add.reduce, and keeps the exact
    rests; fsum then adds the pass totals and the last nonzero rests.

    ``comparable=True`` adds M1's omitted population-survival constant back
    so that values are on the full-data likelihood scale across models.

    Raises NonFiniteLikelihood naming the first offending patient if any
    per-patient term is NaN or infinite, or when the sum overflows.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms, _ = _terms(params, cohort, comparable)
        return _checked_sum(terms, cohort)


def _first_order(params: ModelParams, cohort: PreparedCohort):
    """(ll, grad, aux, pieces): ``loglik`` (comparable=False), its gradient,
    ``_terms``' intermediates and the per-patient pieces the Hessian reuses,
    (u, h0 v, e1, dH0/dalpha, d log h0/dalpha, s_c, dhp^2 G(y)): u = h_E /
    lambda and s_c = (d lambda/dc) / lambda, c the multiplier of h_P (None
    without a correction slot), on the events and 0 elsewhere, e1 = 1/(e^w -
    1), and dhp^2 G(y) the population term's d/db over c (None without b).
    Raises NonFiniteLikelihood as ``loglik`` does, and also when a gradient
    entry is not finite.  Runs under the caller's ``np.errstate``.
    """
    layout = params.layout
    kappa, theta, alpha = params.baseline
    ev, X, hp, dhp = cohort._event, cohort.X, cohort.hp, cohort.dhp
    add = np.add.reduce
    terms, aux = _terms(params, cohort, False)
    ll = _checked_sum(terms, cohort)
    v, w, logm, vv, log_s0, lw, h0, r21, he, HE, lam, (y, ratio, den) = aux

    u = np.where(ev, he / lam, 0.0)  # weight of d log h_E in d log lambda
    h0v = h0 * v
    kw = kappa * w
    e1 = np.exp(-w - logm)  # q/m = 1/(e^w - 1)
    # d log h0/dw = d log f/dw + dH0/dw = (1/w + (alpha - 1) e1 - 1) + h0 v / (kappa w)
    dlogh0_dw = np.divide(1.0, w)
    dlogh0_dw += (alpha - 1.0) * e1
    dlogh0_dw -= 1.0
    dlogh0_dw += h0v / kw
    # dH0/dalpha = exp(-vv - log_s0) logm = (F/S) log m; -1/alpha beyond
    # w = 200, where q underflows
    ha = np.exp(-vv - log_s0) * logm
    ha[w > 200.0] = -1.0 / alpha
    a_a = 1.0 / alpha + logm + ha  # d log h0/dalpha

    grad = np.empty(layout.k)
    # the longest chains (kappa, theta, beta1) run in place in a and b
    # kappa: u (1/kappa + dlogh0_dw w lw) - r21 (h0v lw / kappa)
    a = dlogh0_dw * w
    a *= lw
    a += 1.0 / kappa
    a *= u
    b = h0v * lw
    b /= kappa
    b *= r21
    grad[0] = add(np.subtract(a, b, out=a))
    # theta: u (dlogh0_dw (-kappa w / theta)) - r21 (-h0v / theta), which is
    # r21 (h0v / theta) - u (dlogh0_dw (kappa w / theta)) exactly
    np.divide(kw, theta, out=a)
    a *= dlogh0_dw
    a *= u
    np.divide(h0v, theta, out=b)
    b *= r21
    grad[1] = add(np.subtract(b, a, out=b))
    # alpha: u (1/alpha + logm + dH0_da) - r21 dH0_da
    grad[2] = add(u * a_a - r21 * ha)
    if layout.n_covariates:
        slots1, slots2 = layout.beta_slots
        # beta1: u (kappa w dlogh0_dw - 1) - r21 (h0v - H0), H0 = -log_s0
        np.multiply(kw, dlogh0_dw, out=a)
        a -= 1.0
        a *= u
        np.add(h0v, log_s0, out=b)
        b *= r21
        grad[slots1] = X.T @ np.subtract(a, b, out=a)
        grad[slots2] = X.T @ (u - HE)  # beta2: u - HE

    s_c = dhp2_g = None
    n_corr = params.correction.size
    if n_corr:
        # d lam/dc = hp / (1 + y); d pop_i / dc = dhp log1p(y)/y
        s_c = np.where(ev, hp / den / lam, 0.0)
        grad[-n_corr] = add(s_c) - add(dhp * ratio)
    if n_corr == 2:
        c = params.population[0]
        # d lam/db = -c hp dhp / (1 + y)^2; d pop_i / db = c dhp^2 G(y)
        s_b = np.where(ev, -c * hp * dhp / (den * den) / lam, 0.0)
        dhp2_g = cohort._dhp2 * _m3_pop_curvature(y)
        grad[-1] = add(s_b) + c * add(dhp2_g)

    bad = np.flatnonzero(~np.isfinite(grad))
    if bad.size:
        raise NonFiniteLikelihood(f"non-finite gradient at positions {bad.tolist()}")
    return ll, grad, aux, (u, h0v, e1, ha, a_a, s_c, dhp2_g)


def loglik_and_grad(params: ModelParams, cohort: PreparedCohort, hessian: bool = False):
    """Log-likelihood (``loglik`` with comparable=False) and its gradient on
    the natural parameter scale.

    Gradient layout: that of ``params.layout`` (kappa, theta, alpha, beta1,
    beta2, then gamma for M2; mu, b for M3).  Raises NonFiniteLikelihood as
    ``loglik`` does, and also when a gradient entry is not finite.  Both
    come from ``_first_order``, as ``loglik_grad_hess``'s do, bit for bit.

    ``hessian=True`` returns ``loglik_grad_hess(params, cohort)`` instead,
    (ll, grad, hess) from one pass, so that every likelihood pass of a fit
    goes through ``loglik`` or ``loglik_and_grad``.
    """
    if hessian:
        return loglik_grad_hess(params, cohort)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _first_order(params, cohort)[:2]


def loglik_grad_hess(params: ModelParams, cohort: PreparedCohort):
    """Log-likelihood, gradient and Hessian on the natural scale, from one pass.

    ``(ll, grad, hess)`` in the layout of ``params``: ll and grad are
    ``loglik_and_grad``'s bit for bit, from ``_first_order``, whose pieces
    the Hessian reuses.  Raises NonFiniteLikelihood as ``loglik_and_grad``
    does; hess may hold infinities or NaNs where the EW tail overflows, for
    the caller to check.

    Per patient, the EW terms are functions of s = log w = kappa log(v/theta)
    and alpha: H0 = -log S0, and A = log h0 + log v - log kappa, with
    A_s = 1 + (alpha - 1) w e1 - w + H0_s, e1 = 1/(e^w - 1), and H0_s = e^A
    = h0 v / kappa, so H0_ss = H0_s A_s and H0_s,alpha = H0_s A_alpha.  Then
    L = log h_E = A + log kappa + x'(b2 - b1) + const and H_E = H0
    e^{x'(b2 - b1)} are functions of y = (kappa, theta, alpha, x'b1, x'b2),
    through s for the first four, and d/dy maps to the GH slots as they are
    for kappa, theta and alpha and times x for the betas.  An event adds
    d2 log lambda = d2 lambda / lambda - s s' with s = d log lambda: on the
    GH slots u (d2 L + dL dL') - u^2 dL dL', u = h_E / lambda; against a
    correction q of lambda = c hp / (1 + y) + h_E, q = c or b, -u s_q dL
    with the score s_q = (d lambda/dq) / lambda.  b's population term adds
    dhp^2 G(y) at (c, b) and c dhp^3 G'(y) at (b, b).  Each sum over the
    patients of a weight times an outer product of derivatives is one
    matrix product, E diag(weight) F'.
    """
    layout = params.layout
    kappa, theta, alpha = params.baseline
    X, dhp = cohort.X, cohort.dhp
    slots1, slots2 = layout.beta_slots
    n_gh = slots2.stop
    add = np.add.reduce
    hess = np.empty((layout.k, layout.k))

    work = cohort._workspace.get("hess")
    if work is None:
        work = cohort._workspace["hess"] = np.empty((5, n_gh, cohort.n))
        # dr, the d/dy of x'(b2 - b1) in the GH slots, is (0, 0, 0, -x, x):
        # the cohort's alone, so it is written once
        dr = work[3]
        dr[:3] = 0.0
        np.multiply(X.T, -1.0, out=dr[slots1])
        dr[slots2] = X.T
    dl, ds, dg, dr, scratch = work
    xt = dr[slots2]  # rows of covariates, as the rows built below

    def in_slots(e, d):
        """Write the (n_gh, n) per-patient derivatives in the GH slots from the
        five d/dy into e."""
        e[0], e[1], e[2] = d[:3]
        np.multiply(xt, d[3], out=e[slots1])
        np.multiply(xt, d[4], out=e[slots2])

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ll, grad, aux, (u, h0v, e1, ha, a_a, s_c, dhp2_g) = _first_order(params, cohort)
        v, w, logm, vv, log_s0, lw, h0, r21, he, HE, lam, (y, ratio, den) = aux

        hs = h0v / kappa  # dH0/ds
        ws = w * e1  # d logm/ds
        a_s = 1.0 + (alpha - 1.0) * ws - w + hs
        a_ss = (alpha - 1.0) * ws * (1.0 - w - ws) - w + hs * a_s
        a_sa = ws + hs * a_a
        h_aa = ha * (logm + ha)  # d2 H0/dalpha2
        a_aa = h_aa - 1.0 / alpha**2

        # d/dy of L, s and H0, per patient, in the GH slots
        k_t = -kappa / theta
        in_slots(dl, (a_s * lw + 1.0 / kappa, k_t * a_s, a_a, kappa * a_s - 1.0, 1.0))
        in_slots(ds, (lw, k_t, 0.0, kappa, 0.0))
        in_slots(dg, (hs * lw, k_t * hs, ha, kappa * hs, 0.0))

        def gram(e, weight, f):
            """Sum over the patients of weight e f', through one scratch array."""
            return np.multiply(e, weight, out=scratch) @ f.T

        # u d2 L - d2 H_E on the GH slots: first the outer products of dL, ds,
        # d alpha, dH0 and dr
        gh = gram(dl, u * (1.0 - u), dl)
        gh += gram(ds, u * a_ss - r21 * hs * a_s, ds)
        cross = ds @ (u * a_sa - r21 * hs * a_a)
        gh[2] += cross
        gh[:, 2] += cross
        gh[2, 2] += add(u * a_aa - r21 * h_aa)
        rd = gram(dg, r21, dr)
        gh -= rd + rd.T + gram(dr, HE, dr)
        # then (u L_s - H_E,s) d2 s and u d2 log kappa; d2 s is -1/theta at
        # (kappa, theta), kappa/theta^2 at (theta, theta) and x at (kappa, beta1)
        c_s = u * a_s - r21 * hs
        sum_c = add(c_s)
        gh[0, 0] -= add(u) / kappa**2
        gh[0, 1] -= sum_c / theta
        gh[1, 0] -= sum_c / theta
        gh[1, 1] += kappa / theta**2 * sum_c
        xc = c_s @ X
        gh[0, slots1] += xc
        gh[slots1, 0] += xc
        hess[:n_gh, :n_gh] = gh

        n_corr = params.correction.size
        if n_corr:
            scores = [s_c]
            # d2 lambda / lambda plus the population term's, in (c, b); 0 in c
            curvature = np.zeros((n_corr, n_corr))
            if n_corr == 2:
                c = params.population[0]
                s_b = -c * dhp * s_c / den
                scores.append(s_b)
                curvature[0, 1] = curvature[1, 0] = add(dhp2_g - dhp * s_c / den)
                curvature[1, 1] = add(
                    c * dhp * cohort._dhp2 * _m3_pop_curvature_slope(y) - 2.0 * dhp * s_b / den
                )
            scores = np.stack(scores)
            gc = -gram(dl, u, scores)
            hess[:n_gh, n_gh:] = gc
            hess[n_gh:, :n_gh] = gc.T
            hess[n_gh:, n_gh:] = curvature - scores @ scores.T
    return ll, grad, 0.5 * (hess + hess.T)  # the products above round apart


# ---------------------------------------------------------------------------
# M2's correction profiled out
# ---------------------------------------------------------------------------

_GAMMA_BOX = (math.exp(-_LOG_BOX), math.exp(_LOG_BOX))
_PROFILE_MAXITER = 100  # steps; bisection alone reaches 1e-7 relative in ~30
_PROFILE_STEP_TOL = 1e-7  # relative size of the last Newton step; the error left is ~its square


def profile_gamma(params: ModelParams, cohort: PreparedCohort) -> float:
    """The multiplier c of h_P in [e^-20, e^20] that maximizes the
    log-likelihood at the GH slots and b of ``params`` (``population``):
    M2's gamma, with b = 0 (M1 params give the same), or M3's mu.  The
    multiplier's own slot is not read.

    For fixed GH parameters and b the log-likelihood is
    sum_ev log(gamma hp / (1 + y) + h_E) - gamma D - sum H_E, with y =
    b dH_P and D = sum dH_P log1p(y)/y (sum dH_P at b = 0), writing gamma
    for c: strictly concave in gamma when an event has hp > 0.  Over the n
    events with hp > 0, with r = h_E (1 + y) / hp and t = 1/(gamma + r),
    the score is s(gamma) = S1 - D with S1 = sum t, decreasing in gamma.
    No such event gives e^-20 (s = -D <= 0); D = 0 gives e^20.

    Otherwise the root solves M(gamma) = n / D, where M = n / S1 is the
    harmonic mean of gamma + r: increasing and concave in gamma, and
    linear when all r are equal.  A Newton step on M therefore lands at or
    below the root from any start and climbs to it from there; the step is
    S1 (S1 - D) / (D S2), S2 = sum t^2, the plain Newton step on s scaled
    by S1 / D.  It starts at gamma = 1 (M1's value) and keeps the bracket
    that the signs of s give inside the box: a step that leaves the
    bracket goes to a box end not tried yet, or else to the bracket's
    geometric midpoint.  It stops after a step of at most 1e-7 relative,
    when the bracket closes on a box end (the root lies beyond it), or at
    a NaN score (a point the likelihood rejects), and takes at most
    ``_PROFILE_MAXITER`` steps of four passes over the events each.

    The result is a pure function of the point: the start is fixed, the EW
    block comes from ``_ew_block`` (through the cohort's memo, which the
    likelihood call at the same point then hits), and no likelihood call
    is made.
    """
    idx = cohort._hp_events
    lo, hi = _GAMMA_BOX
    if idx.size == 0:
        return lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _, ratio, den = _population_pieces(params.population[1], cohort.dhp)
        d = float(np.add.reduce(cohort.dhp * ratio))
        if d <= 0.0:
            return hi
        h0 = _ew_block(params, cohort)[-1]
        r = (cohort.X @ params.beta2)[idx]  # indexing X's rows would copy them
        np.exp(r, out=r)
        r *= h0[idx]
        r /= cohort._hp_at_events
        if np.ndim(den):  # the scalar 1 at b = 0
            r *= den[idx]
        t = np.empty_like(r)
        untried = {lo, hi}  # box ends whose score is not known
        gamma = 1.0
        for _ in range(_PROFILE_MAXITER):
            np.add(r, gamma, out=t)
            np.divide(1.0, t, out=t)
            s1 = float(np.add.reduce(t))
            untried.discard(gamma)
            if s1 > d:
                lo = gamma
            elif s1 < d:
                hi = gamma
            else:
                break  # the root, or a NaN score
            if lo >= hi:
                break  # the root lies beyond a box end
            # S2 stays a numpy scalar: t = 0 throughout gives a NaN step, not an error
            new = gamma + s1 * (s1 - d) / (d * np.dot(t, t))
            if not lo < new < hi:
                end = hi if new >= hi else lo
                new = end if end in untried else math.sqrt(lo * hi)
            elif abs(new - gamma) <= _PROFILE_STEP_TOL * gamma:
                gamma = float(new)
                break
            gamma = float(new)
    return gamma


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
    center) / scale; both must be finite and the scale nonzero, and a
    column that is not an x column raises DataError.  A row that
    fails a Cohort check, such as covariates that are not finite after the
    transform, raises DataError naming its line.
    """
    transforms = transforms or {}
    for col, (center, scale) in transforms.items():
        if col not in x_columns:
            raise DataError(f"transform of column {col!r}, which is not an x column")
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
    _check_rows(_cohort_checks(**cols, n_strata=len(codes)), lambda i: f"line {line_nos[i]}")
    return Cohort(**cols, strata=tuple(codes))
