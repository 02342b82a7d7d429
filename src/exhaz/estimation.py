"""Maximum-likelihood fitting of M1/M2/M3 and AIC-based selection (M4).

Fitting is a two-step search on the log-transformed positive parameters:
one cycle of coordinate descent (CDA) from the starting values, then a
refinement.  M1 starts at fixed values (kappa = theta = 1, alpha = 2,
betas = 0) and M3 at M1's estimates with mu = 1.2, b = 0.1.  The
refinement runs bounded L-BFGS-B with analytic gradients and checks their
max-norm on the search scale.  When the check fails it takes up to four
damped Newton steps with a Hessian from central differences of the
log-likelihood values and checks again; when that fails too, Nelder-Mead
runs and the round (L-BFGS-B, check, Newton polish, check) is repeated
once from its result.  Nelder-Mead is unbounded: when the box moves its
point, the moved point is evaluated and taken only if it improves on the
refinement's point.  Standard errors come from a Hessian on the
transformed scale built from central differences of the analytic gradient
(2k gradient calls, symmetrized), pseudo-inverted with an eigenvalue
floor, and mapped back by the delta method.  A fit that ends within 1e-6
of an edge of the search box names those parameters in ``at_bound`` and
in its notes.

M2's gamma is profiled out: for fixed GH parameters M2's log-likelihood is
strictly concave in gamma, and ``likelihoods.profile_gamma`` solves for
its maximizer gamma* without a likelihood call.  M2 is searched over the
GH coordinates alone; each value or gradient is one likelihood call at
(GH, gamma*), and the gradient is the GH part of M2's (envelope theorem).
It runs no CDA: ``fit_all`` starts it at M1's estimates, and gamma = 1 is
M1, so that first value is already at least M1's MLE.  The refinement
runs on this objective unchanged; ``converged``, the gradient norm, the
log-likelihood and the SEs are those of M2's full objective at the joint
estimate (GH, gamma*).

Tolerances, step sizes and budgets are module constants, properties of
the method rather than of a study: ``_GRAD_TOL`` and ``_STEP_TOL`` (stops
of L-BFGS-B and Nelder-Mead), ``_MAX_EVALS`` (per stage), ``_HESSIAN_STEP``
(both the polish and the standard errors), ``_POLISH_STEPS``,
``_CDA_HALFWIDTH`` and ``_CDA_MAXITER``.
``FitConfig`` keeps only the random restarts (``multi_starts``, ``seed``):
a best-of-N fit is the reference that tells whether one start found the
MLE.

M1's likelihood omits the population-survival constant, so its AIC is
computed on the comparable scale (constant restored); cross-model AICs are
meaningless otherwise.

A model's parameters are a ``ParamLayout`` plus one natural-scale vector
(``likelihoods.ModelParams``); the optimizer searches the same slots on the
transformed scale (M2: its GH slots), and a ``FitResult`` keeps the layout
it was fitted with.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize, minimize_scalar
from scipy.special import ndtri

from .errors import (
    DataError,
    NoEligibleFit,
    NonFiniteLikelihood,
    NonPositive,
    SEsUnavailable,
)
from .distributions import _check_natural
from .likelihoods import (
    MODELS,
    ModelParams,
    ParamLayout,
    PreparedCohort,
    loglik,
    loglik_and_grad,
    profile_gamma,
)

__all__ = [
    "FitConfig",
    "FitResult",
    "transform_params",
    "untransform_params",
    "cda_warm_start",
    "fit",
    "fit_all",
    "confidence_intervals",
    "select_m4",
]

log = logging.getLogger("exhaz")

_EPS_CUBE_ROOT = float(np.finfo(float).eps ** (1.0 / 3.0))
_BIG = 1e15  # objective value returned for rejected (non-finite) points
_BOUND_TOL = 1e-6  # transformed-scale distance that counts as sitting on the box edge
_GRAD_TOL = 1e-6  # L-BFGS-B gtol
_STEP_TOL = 1e-9  # Nelder-Mead xatol
_MAX_EVALS = 2000  # per stage
_HESSIAN_STEP = 1e-4  # Newton-polish and standard-error Hessians
_POLISH_STEPS = 4
_CDA_HALFWIDTH = 5.0  # search window per coordinate, transformed scale
_CDA_MAXITER = 50  # per coordinate


@dataclass(frozen=True)
class FitConfig:
    """Random restarts: how many, and the seed of their perturbations.

    The only fit settings: a best-of-``multi_starts`` fit is the reference
    that tells whether the default single start found the MLE.  Everything
    else the optimizer uses is a module constant (see the module docstring).
    """

    multi_starts: int = 0  # extra random restarts; best-of-N is the convergence reference
    seed: int = 0


def transform_params(natural: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """Map positive parameters through log; identity on the rest.

    Raises NonPositive naming every slot that is not finite or, on a
    positive slot, not > 0.
    """
    natural = np.asarray(natural, dtype=float)
    _check_natural(natural, positive)
    out = natural.copy()
    out[positive] = np.log(natural[positive])
    return out


def untransform_params(unconstrained: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """Map positive parameters through exp; identity on the rest.

    A log slot above ~709 gives inf without a warning; ``ModelParams``
    rejects it.
    """
    out = np.asarray(unconstrained, dtype=float).copy()
    with np.errstate(over="ignore"):
        out[positive] = np.exp(out[positive])
    return out


@dataclass(frozen=True, eq=False)
class FitResult:
    """Maximum-likelihood fit: natural-scale estimates plus inference pieces."""

    layout: ParamLayout  # the model fitted and the order of its parameters
    estimates: np.ndarray  # natural scale
    std_errors: np.ndarray | None  # natural scale (delta method); None if unavailable
    cov_transformed: np.ndarray | None
    loglik: float  # model's own likelihood convention
    loglik_comparable: float  # full-data convention (M1 constant restored)
    aic: float
    converged: bool
    hessian_pd: bool
    grad_max_norm: float  # analytic gradient on the search scale at the last check; NaN if rejected
    n_evals: int
    n_iter: int
    at_bound: tuple[str, ...]  # parameters within _BOUND_TOL of the search box edge
    notes: tuple[str, ...] = ()

    @property
    def model(self) -> str:
        return self.layout.model

    @property
    def param_names(self) -> tuple[str, ...]:
        return self.layout.names

    @property
    def k(self) -> int:
        return self.layout.k

    @property
    def ses_available(self) -> bool:
        return self.std_errors is not None

    def estimate(self, name: str) -> float:
        return float(self.estimates[self.param_names.index(name)])

    def to_model_params(self) -> ModelParams:
        return self.layout.to_params(self.estimates)


def confidence_intervals(fit: FitResult, level: float = 0.95):
    """Natural-scale Wald intervals: estimate +/- z * SE, per parameter."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    if fit.std_errors is None:
        raise SEsUnavailable(f"standard errors unavailable for {fit.model} fit")
    z = float(ndtri(0.5 * (1.0 + level)))
    return {
        name: (est - z * se, est + z * se)
        for name, est, se in zip(fit.param_names, fit.estimates, fit.std_errors)
    }


# A point the likelihood or ModelParams rejects; the objective maps it to _BIG.
_REJECTED = (NonFiniteLikelihood, NonPositive)


class _Objective:
    """Negative log-likelihood on the transformed scale, with eval counting."""

    def __init__(self, layout: ParamLayout, cohort: PreparedCohort):
        self.layout = layout
        self.cohort = cohort
        self.n_evals = 0

    def params(self, x: np.ndarray) -> ModelParams:
        """The parameters at x; NonPositive names a slot that is not valid."""
        return ModelParams(self.layout, untransform_params(x, self.layout.positive))

    def value(self, x: np.ndarray) -> float:
        self.n_evals += 1
        try:
            return -loglik(self.params(x), self.cohort)
        except _REJECTED:
            return _BIG

    def value_and_grad(self, x: np.ndarray):
        self.n_evals += 1
        try:
            params = self.params(x)
            ll, grad = loglik_and_grad(params, self.cohort)
        except _REJECTED:
            return _BIG, np.zeros_like(x)
        positive = params.layout.positive
        grad[positive] *= params.values[positive]
        # the part along x: a profiled objective's parameters extend past it
        return -ll, -grad[: len(x)]

    def grad(self, x: np.ndarray) -> np.ndarray:
        """Gradient of ``value``; NaN everywhere when the point is rejected."""
        f, g = self.value_and_grad(x)
        return g if f < _BIG else np.full_like(x, np.nan)

    def check(self, x: np.ndarray) -> tuple[float, float]:
        """(ll, max-norm of the gradient of ``value``) at x; a NaN norm if rejected."""
        f, g = self.value_and_grad(x)
        return -f, float(np.max(np.abs(g))) if f < _BIG else math.nan


class _ProfiledM2(_Objective):
    """M2's objective over the GH coordinates alone, gamma profiled out.

    x holds the transformed GH slots (M1's layout, ``layout``); its
    parameters are M2's, with gamma* from ``profile_gamma`` appended, so
    ``value`` and ``value_and_grad`` make one likelihood call each, at
    (GH, gamma*).  The gradient is the GH part of M2's: the score along
    gamma is zero at gamma* (envelope theorem), and at a box end of gamma
    the profile does not move, so the GH part is the derivative of the
    profiled value there too.
    """

    def __init__(self, m2_layout: ParamLayout, cohort: PreparedCohort):
        super().__init__(ParamLayout.for_model("M1", cohort.covariate_names), cohort)
        self.m2_layout = m2_layout

    def params(self, x: np.ndarray) -> ModelParams:
        gh = super().params(x)
        return ModelParams(self.m2_layout, np.append(gh.values, profile_gamma(gh, self.cohort)))

    def joint(self, x: np.ndarray) -> np.ndarray:
        """x with log gamma* appended: the point of M2's own objective."""
        return np.append(x, math.log(self.params(x).correction[0]))


def cda_warm_start(
    objective: Callable[[np.ndarray], float],
    init: np.ndarray,
    bounds: Sequence[tuple[float, float]] | None = None,
) -> np.ndarray:
    """One cycle of coordinate descent on the transformed scale.

    Each coordinate is minimized by a bounded 1-D search on
    [x_j - 5, x_j + 5] (intersected with ``bounds`` when given) with the
    others fixed at their freshest values; a coordinate update is kept only
    if it improves the objective, so the output never degrades the input.
    Coordinates whose search fails (non-finite objective) are skipped with
    a warning.
    """
    x = np.asarray(init, dtype=float).copy()
    f_cur = objective(x)
    if not math.isfinite(f_cur) or f_cur >= _BIG:
        raise NonFiniteLikelihood("objective not finite at the CDA starting point")
    for j in range(len(x)):
        def f1(v, j=j):
            xj = x.copy()
            xj[j] = v
            return objective(xj)

        lo, hi = x[j] - _CDA_HALFWIDTH, x[j] + _CDA_HALFWIDTH
        if bounds is not None:
            lo, hi = max(lo, bounds[j][0]), min(hi, bounds[j][1])
        try:
            res = minimize_scalar(
                f1,
                bounds=(lo, hi),
                method="bounded",
                options={"xatol": 1e-6, "maxiter": _CDA_MAXITER},
            )
        except (ValueError, FloatingPointError):
            log.warning("CDA: coordinate %d skipped (1-D search failed)", j)
            continue
        if math.isfinite(res.fun) and res.fun < f_cur:
            x[j] = float(res.x)
            f_cur = float(res.fun)
        else:
            log.debug("CDA: coordinate %d kept at %.6g (no improvement)", j, x[j])
    return x


def _fd_hessian(value: Callable[[np.ndarray], float], x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference Hessian, symmetrized."""
    k = len(x)
    H = np.empty((k, k))
    f0 = value(x)
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = h
        H[i, i] = (value(x + ei) + value(x - ei) - 2 * f0) / h**2
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = h
            H[i, j] = H[j, i] = (
                value(x + ei + ej) + value(x - ei - ej) - value(x + ei - ej) - value(x - ei + ej)
            ) / (4 * h**2)
    return 0.5 * (H + H.T)


def _grad_hessian(grad: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float) -> np.ndarray:
    """Hessian from central differences of the gradient, symmetrized.

    Takes 2k gradient calls; the curvature is accurate to O(h^2) plus the
    gradient's rounding over h, instead of the value's rounding over h^2.
    """
    k = len(x)
    H = np.empty((k, k))
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = h
        H[i] = (grad(x + ei) - grad(x - ei)) / (2 * h)
    return 0.5 * (H + H.T)


def _covariance(neg_hessian: np.ndarray):
    """Pseudo-inverse of the observed information with a 1e-10 eigenvalue floor.

    Returns (cov, positive_definite).  Negative eigenvalues, or a non-finite
    entry (a rejected point in the difference stencil), mean the information
    matrix is not PD: covariance is not usable and None is returned.
    """
    if not np.all(np.isfinite(neg_hessian)):
        return None, False
    eigval, eigvec = np.linalg.eigh(neg_hessian)
    if np.any(eigval < 0):
        return None, False
    floored = np.maximum(eigval, 1e-10)
    cov = (eigvec / floored) @ eigvec.T
    return cov, True


def _grad_check_tol(ll: float) -> float:
    # Max-norm that counts as a zero gradient, scaled as ll's rounding is.  Kept
    # from the central-difference check, so only flags its O(h^2) error decided move.
    return 1e-3 * (1.0 + abs(ll)) * _EPS_CUBE_ROOT


def _newton_polish(obj: _Objective, x: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Damped Newton steps with the FD Hessian and analytic gradient.

    Cleans up the last decades of gradient norm on flat ridges where
    L-BFGS-B's line search gives up.  Candidates are clipped to the box;
    x is kept unless the objective improves.
    """
    n_iter = 0
    for _ in range(_POLISH_STEPS):
        f, g = obj.value_and_grad(x)  # a rejected point gives _BIG and a zero g
        if f >= _BIG or np.max(np.abs(g)) <= 0.2 * _grad_check_tol(-f):
            break
        H = _fd_hessian(obj.value, x, _HESSIAN_STEP)
        eigval, eigvec = np.linalg.eigh(H)
        floor = max(1e-8 * float(np.max(np.abs(eigval))), 1e-12)
        step = -(eigvec @ ((eigvec.T @ g) / np.maximum(eigval, floor)))
        accepted = False
        for damp in (1.0, 0.5, 0.25, 0.1, 0.01):
            cand = np.clip(x + damp * step, lo, hi)
            if obj.value(cand) <= f:
                x = cand
                accepted = True
                n_iter += 1
                break
        if not accepted:
            break
    return x, n_iter


def _refine(obj: _Objective, x0: np.ndarray, bounds):
    """Quasi-Newton refinement with a Newton polish when the gradient check fails.

    Returns (x, n_iter, ll, gnorm): the log-likelihood and the analytic
    gradient max-norm of the last check, which is made at the returned x.
    """
    lbfgsb_opts = {
        "maxfun": _MAX_EVALS,
        "maxiter": _MAX_EVALS,
        "ftol": 1e2 * np.finfo(float).eps,  # near machine precision; rely on gtol
        "gtol": _GRAD_TOL,
    }
    lo, hi = np.array(bounds).T
    x = np.clip(x0, lo, hi)
    n_iter = 0
    for attempt in range(2):
        res = minimize(
            obj.value_and_grad, x, jac=True, method="L-BFGS-B", bounds=bounds,
            options=lbfgsb_opts,
        )
        if math.isfinite(res.fun) and res.fun <= obj.value(x):
            x = res.x
        n_iter += int(res.nit)
        # ll (after L-BFGS-B) sets the Nelder-Mead tolerance; ll_x follows x
        ll, gnorm = obj.check(x)
        ll_x = ll
        if gnorm <= _grad_check_tol(ll):
            break
        x, polish_iter = _newton_polish(obj, x, lo, hi)
        n_iter += polish_iter
        ll_x, gnorm = obj.check(x)
        if gnorm <= _grad_check_tol(ll_x):
            break
        if attempt == 0:
            simplex = minimize(
                obj.value,
                x,
                method="Nelder-Mead",
                options={
                    "maxfev": _MAX_EVALS,
                    "xatol": _STEP_TOL,
                    "fatol": 1e-13 * (1 + abs(ll)),
                },
            )
            # the simplex is unbounded: a point the clip moves is a new point
            f_x = obj.value(x)
            if simplex.fun < f_x:
                cand = np.clip(simplex.x, lo, hi)
                if np.array_equal(cand, simplex.x) or obj.value(cand) < f_x:
                    x = cand
                    n_iter += int(simplex.nit)
    return x, n_iter, ll_x, gnorm


def _standardized_objective(model: str, cohort: PreparedCohort):
    """The objective on covariates standardized to unit SD, and the slot scales.

    Standardizing is an exact reparameterization of the GH model: beta_j on
    the data scale is beta_j on the standardized scale divided by the column
    SD s_j.  ``slot_scale`` holds s_j on both beta slots of covariate j and
    1 on every other slot.
    """
    layout = ParamLayout.for_model(model, cohort.covariate_names)
    scales = np.ones(0)
    if layout.n_covariates:
        s = cohort.X.std(axis=0)
        scales = np.where(s > 0, s, 1.0)
    cohort_s = PreparedCohort(
        cohort.time, cohort.status, cohort.X / scales, cohort.hp, cohort.dhp,
        cohort.covariate_names,
    )
    slot_scale = np.ones(layout.k)
    for slots in layout.beta_slots:
        slot_scale[slots] = scales
    return _Objective(layout, cohort_s), slot_scale


def fit(
    model: str,
    cohort: PreparedCohort,
    cfg: FitConfig = FitConfig(),
    init: np.ndarray | None = None,
) -> FitResult:
    """Two-step maximum likelihood for one model.

    ``init`` is a natural-scale vector of the searched slots overriding the
    default starting values: all of the model's slots for M1 and M3, and
    the GH slots for M2, whose gamma is profiled out (``fit_all`` passes
    M1's estimates).  M1 and M3 start with one CDA cycle; M2 starts at
    ``init`` itself.  A start whose value is not finite is skipped with a
    warning, and NonFiniteLikelihood ("<model>: no usable starting point")
    is raised when every start is.  With ``cfg.multi_starts`` > 0, that
    many perturbed restarts (Gaussian noise, sd 0.3 on the transformed
    scale) are run and the best likelihood wins.

    Covariates are standardized to unit SD internally (an exact
    reparameterization of the GH model) so the search space is
    well-conditioned; estimates, SEs, and covariance are mapped back to the
    data scale on output.
    """
    if cohort.n_events == 0:
        raise DataError("cohort has no events (all censored); cannot fit")
    obj, slot_scale = _standardized_objective(model, cohort)
    layout = obj.layout
    # the coordinates the optimizer moves: M2's GH slots, or all of them
    search = _ProfiledM2(layout, obj.cohort) if model == "M2" else obj
    k = search.layout.k

    base = search.layout.default_init() if init is None else np.asarray(init, dtype=float)
    if len(base) != k:
        raise ValueError(f"init has length {len(base)}, expected {k}")
    base = base * slot_scale[:k]  # beta_j -> beta_j * s_j matches x_j / s_j
    t0 = transform_params(base, search.layout.positive)
    bounds = search.layout.transformed_bounds()

    starts = [t0]
    if cfg.multi_starts > 0:
        rng = np.random.default_rng(cfg.seed)
        starts += [t0 + rng.normal(0.0, 0.3, k) for _ in range(cfg.multi_starts)]
    starts = [np.clip(s, *np.array(bounds).T) for s in starts]

    x_hat, best_ll, gnorm, total_iter = None, -np.inf, math.nan, 0
    for s in starts:
        if search is obj:
            try:
                warm = cda_warm_start(obj.value, s, bounds=bounds)
            except NonFiniteLikelihood:
                warm = None
        else:
            warm = s if search.value(s) < _BIG else None
        if warm is None:
            log.warning("%s: start rejected (non-finite likelihood)", model)
            continue
        x, n_iter, ll, x_gnorm = _refine(search, warm, bounds)
        total_iter += n_iter
        if ll > best_ll:
            best_ll, x_hat, gnorm = ll, x, x_gnorm
    if x_hat is None:
        raise NonFiniteLikelihood(f"{model}: no usable starting point")
    if search is not obj:
        # the flag and the SEs are those of the full model at the joint estimate
        x_hat = search.joint(x_hat)
        best_ll, gnorm = obj.check(x_hat)

    converged = gnorm <= _grad_check_tol(best_ll)

    natural_s = untransform_params(x_hat, layout.positive)
    natural = natural_s / slot_scale
    params = layout.to_params(natural)
    ll_hat = loglik(params, cohort)
    ll_comp = loglik(params, cohort, comparable=True)
    aic = -2.0 * ll_comp + 2.0 * layout.k

    H = _grad_hessian(obj.grad, x_hat, _HESSIAN_STEP)  # of -loglik, scaled space
    cov_s, pd = _covariance(H)
    notes = []
    at_bound = tuple(
        name
        for name, xi, (lo, hi) in zip(layout.names, x_hat, layout.transformed_bounds())
        if xi - lo <= _BOUND_TOL or hi - xi <= _BOUND_TOL
    )
    if at_bound:
        notes.append(f"parameters at box bound: {', '.join(at_bound)}")
    if cov_s is not None:
        se_t = np.sqrt(np.diag(cov_s))
        se_nat = se_t.copy()
        se_nat[layout.positive] *= natural_s[layout.positive]  # delta method
        se_nat /= slot_scale
        jac = 1.0 / slot_scale  # identity on log slots (slot_scale 1 there)
        cov = cov_s * np.outer(jac, jac)
    else:
        cov = se_nat = None
        notes.append("information matrix not positive definite; SEs unavailable")
    if not converged:
        notes.append(f"gradient max-norm {gnorm:.3g} not within tolerance "
                     f"{_grad_check_tol(best_ll):.3g}; flagged NotConverged")

    return FitResult(
        layout=layout,
        estimates=natural,
        std_errors=se_nat,
        cov_transformed=cov,
        loglik=ll_hat,
        loglik_comparable=ll_comp,
        aic=aic,
        converged=converged,
        hessian_pd=pd,
        grad_max_norm=gnorm,
        n_evals=obj.n_evals + (search.n_evals if search is not obj else 0),
        n_iter=total_iter,
        at_bound=at_bound,
        notes=tuple(notes),
    )


def fit_all(cohort: PreparedCohort, cfg: FitConfig = FitConfig()) -> dict[str, FitResult]:
    """Fit M1, then M2 and M3 warm-started at the M1 solution.

    M2 starts at M1's GH estimates with gamma profiled out, so its first
    value is at least M1's MLE on the comparable scale; M3's correction
    starts at its default values (mu = 1.2, b = 0.1).
    """
    m1 = fit("M1", cohort, cfg)
    init = ParamLayout.for_model("M3", cohort.covariate_names).default_init()
    init[: m1.k] = m1.estimates
    return {
        "M1": m1,
        "M2": fit("M2", cohort, cfg, init=m1.estimates),
        "M3": fit("M3", cohort, cfg, init=init),
    }


def select_m4(fits: dict[str, FitResult]):
    """AIC selection among converged fits; ties go to the fewer-parameter model.

    Returns (chosen FitResult, c_hat) with c_hat = 1 for M1, gamma for M2,
    mu for M3.

    This is the paper's rule, kept as it is.  Where a correction sits on
    the edge of its space (gamma -> 0, b -> 0 as M3 tends to M2) the AIC
    and likelihood-ratio comparisons are non-standard: the LR statistic is
    not chi-square with the difference in parameters but a mixture (Self &
    Liang 1987, "Asymptotic properties of maximum likelihood estimators and
    likelihood ratio tests under nonstandard conditions", JASA 82:605-610),
    so the AIC penalty does not price that parameter as it assumes.
    """
    eligible = []
    for model in MODELS:
        f = fits.get(model)
        if f is None:
            continue
        if not f.converged:
            log.warning("M4 selection: %s excluded (not converged)", model)
            continue
        eligible.append(f)
    if not eligible:
        raise NoEligibleFit("no converged fits to select from")
    chosen = min(eligible, key=lambda f: (f.aic, f.k))
    if chosen.model == "M1":
        c_hat = 1.0
    elif chosen.model == "M2":
        c_hat = chosen.estimate("gamma")
    else:
        c_hat = chosen.estimate("mu")
    return chosen, c_hat

