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

The life-table inputs per patient reduce to two cached numbers: the
cumulative background-hazard increment dH_P over the follow-up and the
background rate h_P at exit (PreparedCohort), so the likelihood inner loop
never touches the table.  h_E and H_E come from ``gh_model.gh_baseline``
and ``gh_model.gh_excess``, the code behind the public ``excess_hazard``
and ``excess_cum_hazard``, and the M3 population hazard from ``omega1``.
Analytic gradients are provided for the optimizer; they are exercised
against central finite differences in the test suite.
"""

from __future__ import annotations

import math
import sys
from collections import OrderedDict
from dataclasses import dataclass, field
from math import fsum
from typing import Sequence, TextIO

import numpy as np

from .distributions import GammaFrailtyParams, _by_majority, gamma_laplace
from .errors import DataError, NonFiniteLikelihood, NonPositive
from .gh_model import GhParams, excess_cum_hazard, gh_baseline, gh_excess
from .lifetable import LexisPosition, LifeTable

__all__ = [
    "PatientRecord",
    "SingleGamma",
    "ModelParams",
    "PreparedCohort",
    "prepare_cohort",
    "omega1",
    "marginal_survival_m3",
    "loglik",
    "loglik_and_grad",
    "load_cohort",
]


@dataclass(frozen=True)
class PatientRecord:
    """One follow-up record: time in years, vital status, Lexis origin, covariates."""

    time: float
    status: int
    age_diag: float
    year_diag: float
    x: np.ndarray
    z: tuple[str, ...]

    def __post_init__(self):
        if not (self.time > 0 and math.isfinite(self.time)):
            raise DataError(f"follow-up time must be > 0, got {self.time}")
        if self.status not in (0, 1):
            raise DataError(f"status must be 0 or 1, got {self.status}")
        if not (math.isfinite(self.age_diag) and math.isfinite(self.year_diag)):
            raise DataError(
                f"age and year at diagnosis must be finite, got {self.age_diag}, {self.year_diag}"
            )
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        if not np.isfinite(self.x).all():
            raise DataError(f"covariates must be finite, got {self.x}")


@dataclass(frozen=True)
class SingleGamma:
    """Constant multiplicative correction on the population hazard (M2)."""

    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise NonPositive(f"gamma must be > 0, got {self.gamma}")


@dataclass(frozen=True)
class ModelParams:
    """GH excess-hazard parameters plus the background-mortality correction.

    correction None selects M1, SingleGamma selects M2, GammaFrailtyParams
    selects M3.
    """

    gh: GhParams
    correction: SingleGamma | GammaFrailtyParams | None = None

    @property
    def model(self) -> str:
        if self.correction is None:
            return "M1"
        if isinstance(self.correction, SingleGamma):
            return "M2"
        return "M3"


_EW_MEMO_SIZE = 2  # EW blocks kept per cohort


@dataclass(frozen=True)
class PreparedCohort:
    """Cohort with life-table quantities cached per patient.

    hp[i] is the background rate at exit time and dhp[i] the cumulative
    background-hazard increment over (0, t_i] along the Lexis diagonal.
    Immutable; likelihood evaluations are pure functions of it.

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

    @property
    def n(self) -> int:
        return self.time.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.X.shape[1]

    @property
    def n_events(self) -> int:
        return int(self.status.sum())


def prepare_cohort(
    records: Sequence[PatientRecord],
    table: LifeTable,
    advance_year: bool = True,
    covariate_names: Sequence[str] = (),
) -> PreparedCohort:
    """Cache h_P at exit and the cumulative increment dH_P for every patient."""
    if len(records) == 0:
        raise DataError("cohort is empty")
    time = np.array([rec.time for rec in records])
    status = np.array([rec.status for rec in records], dtype=np.int8)
    X = np.array([rec.x for rec in records])
    age = np.array([rec.age_diag for rec in records])
    year = np.array([rec.year_diag for rec in records])
    strata = [rec.z for rec in records]
    dhp = table.cum_hazard_increment(
        LexisPosition(age, year, strata), time, advance_year=advance_year
    )
    exit_year = year + time if advance_year else year
    hp = table.rate_at(LexisPosition(age + time, exit_year, strata))
    return PreparedCohort(time, status, X, hp, dhp, tuple(covariate_names))


# ---------------------------------------------------------------------------
# hazard pieces
# ---------------------------------------------------------------------------


def omega1(dhp, g: GammaFrailtyParams):
    """Frailty correction function mu / (1 + b dH_P); equals mu at dH_P = 0."""
    return g.mu / (1.0 + g.b * np.asarray(dhp, dtype=float))


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
    rec: PatientRecord | Sequence[PatientRecord],
    params: ModelParams,
    table: LifeTable,
    advance_year: bool = True,
):
    """Marginal overall survival under M3: exp(-H_E) * L_Gamma(dH_P).

    ``rec`` is one record with a scalar ``t``, or a sequence of records with
    ``t`` an array of the same length; a sequence takes one walk of the
    life table for all of them.
    """
    if not isinstance(params.correction, GammaFrailtyParams):
        raise ValueError("marginal_survival_m3 requires M3 (GammaFrailty) params")
    if isinstance(rec, PatientRecord):
        start = LexisPosition(rec.age_diag, rec.year_diag, rec.z)
        x, t_walk = rec.x, float(t)
    else:
        start = LexisPosition(
            np.array([r.age_diag for r in rec]),
            np.array([r.year_diag for r in rec]),
            [r.z for r in rec],
        )
        x, t_walk = np.array([r.x for r in rec]), np.asarray(t, dtype=float)
    dhp = table.cum_hazard_increment(start, t_walk, advance_year=advance_year)
    he = excess_cum_hazard(t, x, params.gh)
    return np.exp(-he) * gamma_laplace(dhp, params.correction)


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


def _ew_block(gh: GhParams, cohort: PreparedCohort):
    """(xb1, *gh_baseline(time, xb1)): the EW baseline terms of the cohort.

    They depend on the cohort and on (kappa, theta, alpha, beta1) only, and
    come from the cohort's memo when one of its last two blocks matches.
    """
    p = gh.baseline
    key = (p.kappa, p.theta, p.alpha, gh.beta1.tobytes())
    memo = cohort._ew_memo
    block = memo.get(key)
    if block is not None:
        memo.move_to_end(key)
        return block
    xb1 = cohort.X @ gh.beta1 if gh.n_covariates else np.zeros(cohort.n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        block = (xb1, *gh_baseline(cohort.time, xb1, p))
    for arr in block:
        arr.setflags(write=False)
    memo[key] = block
    if len(memo) > _EW_MEMO_SIZE:
        memo.popitem(last=False)
    return block


def _terms(params: ModelParams, cohort: PreparedCohort, comparable: bool):
    """Per-patient log-likelihood terms plus reusable intermediates."""
    gh = params.gh
    hp, dhp = cohort.hp, cohort.dhp
    xb1, v, w, logm, vv, log_s0, lw, h0 = _ew_block(gh, cohort)
    xb2 = cohort.X @ gh.beta2 if gh.n_covariates else np.zeros(cohort.n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r21, he, HE = gh_excess(h0, log_s0, xb1, xb2)
        corr = params.correction
        if corr is None:
            chp = hp
            pop = dhp if comparable else np.zeros(cohort.n)
        elif isinstance(corr, SingleGamma):
            chp = corr.gamma * hp
            pop = corr.gamma * dhp
        else:
            y = corr.b * dhp
            chp = omega1(dhp, corr) * hp
            # (mu/b) log1p(b dhp) written as mu dhp log1p(y)/y: no cliff at b -> 0
            pop = corr.mu * dhp * _log1p_ratio(y)

        lam = chp + he
        loglam = np.log(np.where(cohort._event, lam, 1.0))  # log(1) = +0.0
        terms = loglam - HE - pop
    return terms, (v, w, logm, vv, log_s0, lw, h0, r21, he, HE, lam)


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


def loglik_and_grad(
    params: ModelParams, cohort: PreparedCohort, comparable: bool = False
):
    """Log-likelihood and its gradient on the natural parameter scale.

    Gradient layout: [kappa, theta, alpha, beta1 (p), beta2 (p), correction
    params (gamma for M2; mu, b for M3)].  Raises NonFiniteLikelihood as
    ``loglik`` does, and also when a gradient entry is not finite.
    """
    gh = params.gh
    p = gh.baseline
    terms, aux = _terms(params, cohort, comparable)
    ll = _checked_sum(terms, cohort)
    v, w, logm, vv, log_s0, lw, h0, r21, he, HE, lam = aux
    ev, X = cohort._event, cohort.X
    hp, dhp = cohort.hp, cohort.dhp
    H0 = -log_s0

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = np.where(ev, he / lam, 0.0)  # weight of d log h_E in d log lambda
        e1 = np.exp(-w - logm)  # q / m = 1 / (e^w - 1)
        dlogf_dw = 1.0 / w + (p.alpha - 1.0) * e1 - 1.0
        dH0_dw = h0 * v / (p.kappa * w)
        dlogh0_dw = dlogf_dw + dH0_dw
        # dH0/dalpha = (F/S) log m; asymptotically -1/alpha once q underflows
        dH0_da = np.where(
            w > 200.0, -1.0 / p.alpha, np.exp(-vv - log_s0) * logm
        )
        h0v = h0 * v

        g_kappa = np.sum(
            u * (1.0 / p.kappa + dlogh0_dw * w * lw) - r21 * (h0v * lw / p.kappa)
        )
        g_theta = np.sum(
            u * (dlogh0_dw * (-p.kappa * w / p.theta)) - r21 * (-h0v / p.theta)
        )
        g_alpha = np.sum(u * (1.0 / p.alpha + logm + dH0_da) - r21 * dH0_da)
        if gh.n_covariates:
            D = p.kappa * w * dlogh0_dw
            wb1 = u * (D - 1.0) - r21 * (h0v - H0)
            wb2 = u - HE
            g_beta1 = X.T @ wb1
            g_beta2 = X.T @ wb2
        else:
            g_beta1 = np.zeros(0)
            g_beta2 = np.zeros(0)

        grad = [g_kappa, g_theta, g_alpha, *g_beta1, *g_beta2]

        corr = params.correction
        if isinstance(corr, SingleGamma):
            dlam = np.where(ev, hp / lam, 0.0)
            grad.append(np.sum(dlam) - np.sum(dhp))
        elif isinstance(corr, GammaFrailtyParams):
            y = corr.b * dhp
            den = 1.0 + y
            dlam_mu = np.where(ev, (hp / den) / lam, 0.0)
            dlam_b = np.where(ev, (-corr.mu * hp * dhp / (den * den)) / lam, 0.0)
            # d pop_i / dmu = dhp log1p(y)/y; d pop_i / db = mu dhp^2 G(y)
            g_mu = np.sum(dlam_mu) - np.sum(dhp * _log1p_ratio(y))
            g_b = np.sum(dlam_b) + corr.mu * np.sum(dhp * dhp * _m3_pop_curvature(y))
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
    time_col: str = "time",
    status_col: str = "status",
    age_col: str = "age_diag",
    year_col: str = "year_diag",
) -> list[PatientRecord]:
    """Read a patient cohort CSV.

    Expected header: ``time,status,age_diag,year_diag,<x cols>,<z cols>``
    (column roles declared by the caller; x and z may overlap).
    ``transforms`` maps an x column to (center, scale): value -> (value -
    center) / scale; both must be finite and the scale nonzero.  A row
    whose covariates are not finite after the transform is rejected with
    its line number.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return load_cohort(
                fh, x_columns, z_columns, transforms, time_col, status_col, age_col, year_col
            )
    transforms = transforms or {}
    for col, (center, scale) in transforms.items():
        if not (math.isfinite(center) and math.isfinite(scale) and scale != 0.0):
            raise DataError(
                f"transform of column {col!r} needs a finite center and a finite, "
                f"nonzero scale, got ({center}, {scale})"
            )
    lines = [
        (n, line.strip())
        for n, line in enumerate(source, start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise DataError("cohort file is empty")
    header = [c.strip() for c in lines[0][1].split(",")]
    for col in [time_col, status_col, age_col, year_col, *x_columns, *z_columns]:
        if col not in header:
            raise DataError(f"cohort is missing required column {col!r}")
    idx = {c: header.index(c) for c in header}

    records = []
    for line_no, line in lines[1:]:
        parts = [s.strip() for s in line.split(",")]
        if len(parts) != len(header):
            raise DataError(f"line {line_no}: expected {len(header)} fields, got {len(parts)}")
        try:
            time = float(parts[idx[time_col]])
            status = int(parts[idx[status_col]])
            age = float(parts[idx[age_col]])
            year = float(parts[idx[year_col]])
            x = np.array(
                [
                    (float(parts[idx[c]]) - transforms.get(c, (0.0, 1.0))[0])
                    / transforms.get(c, (0.0, 1.0))[1]
                    for c in x_columns
                ]
            )
        except ValueError as exc:
            raise DataError(f"line {line_no}: {exc}") from None
        z = tuple(parts[idx[c]] for c in z_columns)
        try:
            records.append(
                PatientRecord(
                    time=time, status=status, age_diag=age, year_diag=year, x=x, z=z
                )
            )
        except DataError as exc:
            raise DataError(f"line {line_no}: {exc}") from None
    if not records:
        raise DataError("cohort has a header but no data rows")
    return records
