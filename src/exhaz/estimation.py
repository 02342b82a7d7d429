"""Maximum-likelihood fitting of M1/M2/M3 and AIC-based selection (M4).

Fitting is a two-step search on the log-transformed positive parameters:
one cycle of coordinate descent from fixed starting values (kappa = theta
= 1, alpha = 2, betas = 0; gamma = 1.2 for M2; mu = 1.2, b = 0.1 for M3),
then a refinement.  The refinement runs bounded L-BFGS-B with analytic
gradients and checks the finite-difference gradient.  When the check
fails it takes up to four damped Newton steps with a Hessian from central
differences of the log-likelihood values and checks again; when that fails
too, Nelder-Mead runs and the round (L-BFGS-B, check, Newton polish,
check) is repeated once from its result.  Standard errors come from a
Hessian on the transformed scale built from central differences of the
analytic gradient (2k gradient calls, symmetrized), pseudo-inverted with an
eigenvalue floor, and mapped back by the delta method.  A fit that ends
within 1e-6 of an edge of the search box says so in its notes.

Tolerances, step sizes and budgets are module constants, properties of
the method rather than of a study: ``_GRAD_TOL`` and ``_STEP_TOL`` (stops
of L-BFGS-B and Nelder-Mead), ``_MAX_EVALS`` (per stage), ``_FD_STEP``
(gradient check), ``_HESSIAN_STEP`` (both the polish and the standard
errors), ``_POLISH_STEPS``, ``_CDA_HALFWIDTH`` and ``_CDA_MAXITER``.
``FitConfig`` keeps only the random restarts (``multi_starts``, ``seed``):
a best-of-N fit is the reference that tells whether one start found the
MLE.

M1's likelihood omits the population-survival constant, so its AIC is
computed on the comparable scale (constant restored); cross-model AICs are
meaningless otherwise.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence, TextIO

import numpy as np
from scipy.optimize import minimize, minimize_scalar
from scipy.special import ndtri

from .distributions import EwParams, GammaFrailtyParams
from .errors import (
    DataError,
    NoEligibleFit,
    NonFiniteLikelihood,
    NonPositive,
    SEsUnavailable,
)
from .gh_model import GhParams
from .likelihoods import (
    ModelParams,
    PreparedCohort,
    SingleGamma,
    loglik,
    loglik_and_grad,
)

__all__ = [
    "FitConfig",
    "FitResult",
    "ParamLayout",
    "transform_params",
    "untransform_params",
    "cda_warm_start",
    "fit",
    "fit_all",
    "confidence_intervals",
    "select_m4",
    "write_fit_result",
    "read_fit_result",
]

log = logging.getLogger("exhaz")

_EPS_CUBE_ROOT = float(np.finfo(float).eps ** (1.0 / 3.0))
_BIG = 1e15  # objective value returned for rejected (non-finite) points
_BOUND_TOL = 1e-6  # transformed-scale distance that counts as sitting on the box edge
_GRAD_TOL = 1e-6  # L-BFGS-B gtol
_STEP_TOL = 1e-9  # Nelder-Mead xatol
_MAX_EVALS = 2000  # per stage
_FD_STEP = 1e-5  # for the post-fit gradient check
_HESSIAN_STEP = 1e-4  # Newton-polish and standard-error Hessians
_POLISH_STEPS = 4
_CDA_HALFWIDTH = 5.0  # search window per coordinate, transformed scale
_CDA_MAXITER = 50  # per coordinate

MODELS = ("M1", "M2", "M3")


@dataclass(frozen=True)
class FitConfig:
    """Random restarts: how many, and the seed of their perturbations.

    The only fit settings: a best-of-``multi_starts`` fit is the reference
    that tells whether the default single start found the MLE.  Everything
    else the optimizer uses is a module constant (see the module docstring).
    """

    multi_starts: int = 0  # extra random restarts (recommended >= 3 for production)
    seed: int = 0


@dataclass(frozen=True)
class ParamLayout:
    """Order, names, and positivity of the natural parameter vector.

    Layout: kappa, theta, alpha, beta1 entries, beta2 entries, then the
    correction parameters (gamma for M2; mu, b for M3).
    """

    model: str
    n_covariates: int
    names: tuple[str, ...]
    positive: np.ndarray

    @classmethod
    def for_model(cls, model: str, covariate_names: Sequence[str]) -> "ParamLayout":
        if model not in MODELS:
            raise ValueError(f"unknown model {model!r}")
        cov = tuple(covariate_names)
        p = len(cov)
        names = ["kappa", "theta", "alpha"]
        names += [f"beta1_{c}" for c in cov]
        names += [f"beta2_{c}" for c in cov]
        positive = [True, True, True] + [False] * (2 * p)
        if model == "M2":
            names.append("gamma")
            positive.append(True)
        elif model == "M3":
            names += ["mu", "b"]
            positive += [True, True]
        return cls(model, p, tuple(names), np.array(positive))

    @property
    def k(self) -> int:
        return len(self.names)

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
        vec = np.concatenate([[1.0, 1.0, 2.0], np.zeros(2 * self.n_covariates)])
        if self.model == "M2":
            vec = np.append(vec, 1.2)
        elif self.model == "M3":
            vec = np.concatenate([vec, [1.2, 0.1]])
        return vec

    def to_params(self, vec: np.ndarray) -> ModelParams:
        p = self.n_covariates
        gh = GhParams(
            EwParams(vec[0], vec[1], vec[2]),
            beta1=vec[3 : 3 + p].copy(),
            beta2=vec[3 + p : 3 + 2 * p].copy(),
        )
        if self.model == "M1":
            return ModelParams(gh)
        if self.model == "M2":
            return ModelParams(gh, SingleGamma(vec[3 + 2 * p]))
        return ModelParams(gh, GammaFrailtyParams(vec[3 + 2 * p], vec[4 + 2 * p]))

    def from_params(self, params: ModelParams) -> np.ndarray:
        gh = params.gh
        vec = [gh.baseline.kappa, gh.baseline.theta, gh.baseline.alpha]
        vec += list(gh.beta1) + list(gh.beta2)
        corr = params.correction
        if isinstance(corr, SingleGamma):
            vec.append(corr.gamma)
        elif isinstance(corr, GammaFrailtyParams):
            vec += [corr.mu, corr.b]
        return np.array(vec)


def transform_params(natural: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """Map positive parameters through log; identity on the rest.

    Raises NonPositive naming every slot that is not finite or, on a
    positive slot, not > 0.
    """
    natural = np.asarray(natural, dtype=float)
    bad = ~np.isfinite(natural) | (positive & ~(natural > 0))
    if bad.any():
        raise NonPositive(
            f"parameters at positions {np.flatnonzero(bad).tolist()} must be finite, "
            "and > 0 where positive"
        )
    out = natural.copy()
    out[positive] = np.log(natural[positive])
    return out


def untransform_params(unconstrained: np.ndarray, positive: np.ndarray) -> np.ndarray:
    out = np.asarray(unconstrained, dtype=float).copy()
    out[positive] = np.exp(out[positive])
    return out


@dataclass(frozen=True)
class FitResult:
    """Maximum-likelihood fit: natural-scale estimates plus inference pieces."""

    model: str
    param_names: tuple[str, ...]
    estimates: np.ndarray  # natural scale
    std_errors: np.ndarray | None  # natural scale (delta method); None if unavailable
    cov_transformed: np.ndarray | None
    loglik: float  # model's own likelihood convention
    loglik_comparable: float  # full-data convention (M1 constant restored)
    aic: float
    converged: bool
    hessian_pd: bool
    grad_max_norm: float
    n_evals: int
    n_iter: int
    multistart_best_of: int
    notes: tuple[str, ...] = ()

    @property
    def k(self) -> int:
        return len(self.param_names)

    @property
    def ses_available(self) -> bool:
        return self.std_errors is not None

    def estimate(self, name: str) -> float:
        return float(self.estimates[self.param_names.index(name)])

    def std_error(self, name: str) -> float:
        if self.std_errors is None:
            raise SEsUnavailable(f"no standard errors for {self.model}")
        return float(self.std_errors[self.param_names.index(name)])

    def to_model_params(self) -> ModelParams:
        layout = ParamLayout.for_model(self.model, _infer_covariates(self.param_names))
        return layout.to_params(self.estimates)


def confidence_intervals(fit: FitResult, level: float = 0.95):
    """Natural-scale Wald intervals: estimate +/- z * SE, per parameter."""
    if fit.std_errors is None:
        raise SEsUnavailable(f"standard errors unavailable for {fit.model} fit")
    z = float(ndtri(0.5 * (1.0 + level)))
    return {
        name: (est - z * se, est + z * se)
        for name, est, se in zip(fit.param_names, fit.estimates, fit.std_errors)
    }


class _Objective:
    """Negative log-likelihood on the transformed scale, with eval counting."""

    def __init__(self, layout: ParamLayout, cohort: PreparedCohort):
        self.layout = layout
        self.cohort = cohort
        self.n_evals = 0

    def _params(self, x: np.ndarray) -> ModelParams:
        return self.layout.to_params(untransform_params(x, self.layout.positive))

    def value(self, x: np.ndarray) -> float:
        self.n_evals += 1
        try:
            return -loglik(self._params(x), self.cohort)
        except (NonFiniteLikelihood, NonPositive, FloatingPointError, OverflowError):
            return _BIG

    def value_and_grad(self, x: np.ndarray):
        self.n_evals += 1
        try:
            params = self._params(x)
        except (NonPositive, OverflowError):
            return _BIG, np.zeros_like(x)
        ll, grad_nat = loglik_and_grad(params, self.cohort)
        if grad_nat is None or not math.isfinite(ll):
            return _BIG, np.zeros_like(x)
        natural = self.layout.from_params(params)
        grad_t = grad_nat.copy()
        grad_t[self.layout.positive] *= natural[self.layout.positive]
        return -ll, -grad_t

    def grad(self, x: np.ndarray) -> np.ndarray:
        """Gradient of ``value``; NaN everywhere when the point is rejected."""
        f, g = self.value_and_grad(x)
        return g if f < _BIG else np.full_like(x, np.nan)

    def fd_gradient(self, x: np.ndarray, h: float) -> np.ndarray:
        grad = np.empty_like(x)
        for j in range(len(x)):
            up, dn = x.copy(), x.copy()
            up[j] += h
            dn[j] -= h
            grad[j] = (self.value(up) - self.value(dn)) / (2 * h)
        return grad


def cda_warm_start(
    objective: Callable[[np.ndarray], float],
    init: np.ndarray,
    bounds: Sequence[tuple[float, float]] | None = None,
) -> np.ndarray:
    """One cycle of coordinate descent on the transformed scale.

    Each coordinate is minimized by a bounded 1-D search on
    [x_j - 5, x_j + 5] (intersected with ``bounds`` when given) with the
    others fixed at their freshest values; a coordinate update is kept only
    if it improves the objective, so the output never degrades the input.  Coordinates whose search fails (non-finite
    objective) are skipped with a warning.
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
    info = neg_hessian
    if not np.all(np.isfinite(info)):
        return None, False
    eigval, eigvec = np.linalg.eigh(info)
    if np.any(eigval < 0):
        return None, False
    floored = np.maximum(eigval, 1e-10)
    cov = (eigvec / floored) @ eigvec.T
    return cov, True


def _grad_check_tol(ll: float) -> float:
    # noise-scaled declaration threshold for "gradient is numerically zero"
    return 1e-3 * (1.0 + abs(ll)) * _EPS_CUBE_ROOT


def _newton_polish(obj: _Objective, x: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Damped Newton steps with the FD Hessian and analytic gradient.

    Cleans up the last decades of gradient norm on flat ridges where
    L-BFGS-B's line search gives up.  Candidates are clipped to the box;
    x is kept unless the objective improves.
    """
    n_iter = 0
    for _ in range(_POLISH_STEPS):
        f, g = obj.value_and_grad(x)
        if f >= _BIG or not np.all(np.isfinite(g)):
            break
        if np.max(np.abs(g)) <= 0.2 * _grad_check_tol(-f):
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

    Returns (x, n_iter, ll, gnorm): the log-likelihood and the FD-gradient
    max-norm of the last check, which is made at the returned x.
    """
    lbfgsb_opts = {
        "maxfun": _MAX_EVALS,
        "maxiter": _MAX_EVALS,
        "ftol": 1e2 * np.finfo(float).eps,  # near machine precision; rely on gtol
        "gtol": _GRAD_TOL,
    }
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
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
        ll = ll_x = -obj.value(x)
        gnorm = float(np.max(np.abs(obj.fd_gradient(x, _FD_STEP))))
        if gnorm <= _grad_check_tol(ll):
            break
        x, polish_iter = _newton_polish(obj, x, lo, hi)
        n_iter += polish_iter
        gnorm = float(np.max(np.abs(obj.fd_gradient(x, _FD_STEP))))
        ll_x = -obj.value(x)
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
            if simplex.fun < obj.value(x):
                x = np.clip(simplex.x, lo, hi)
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
    p = layout.n_covariates
    scales = np.ones(0)
    if p:
        s = cohort.X.std(axis=0)
        scales = np.where(s > 0, s, 1.0)
    cohort_s = PreparedCohort(
        cohort.time, cohort.status, cohort.X / scales, cohort.hp, cohort.dhp,
        cohort.covariate_names,
    )
    slot_scale = np.ones(layout.k)
    slot_scale[3 : 3 + p] = scales
    slot_scale[3 + p : 3 + 2 * p] = scales
    return _Objective(layout, cohort_s), slot_scale


def fit(
    model: str,
    cohort: PreparedCohort,
    cfg: FitConfig = FitConfig(),
    init: np.ndarray | None = None,
) -> FitResult:
    """Two-step maximum likelihood for one model.

    ``init`` is a natural-scale parameter vector overriding the default
    starting values (used to warm-start M2/M3 at the M1 solution).  With
    ``cfg.multi_starts`` > 0, that many perturbed restarts (Gaussian noise,
    sd 0.3 on the transformed scale) are run and the best likelihood wins.

    Covariates are standardized to unit SD internally (an exact
    reparameterization of the GH model) so the search space is
    well-conditioned; estimates, SEs, and covariance are mapped back to the
    data scale on output.
    """
    if cohort.n == 0:
        raise DataError("cohort is empty")
    if cohort.n_events == 0:
        raise DataError("cohort has no events (all censored); cannot fit")
    obj, slot_scale = _standardized_objective(model, cohort)
    layout = obj.layout

    base = layout.default_init() if init is None else np.asarray(init, dtype=float)
    if len(base) != layout.k:
        raise ValueError(f"init has length {len(base)}, expected {layout.k}")
    base = base * slot_scale  # beta_j -> beta_j * s_j matches x_j / s_j
    t0 = transform_params(base, layout.positive)
    bounds = layout.transformed_bounds()
    blo = np.array([b[0] for b in bounds])
    bhi = np.array([b[1] for b in bounds])

    starts = [t0]
    if cfg.multi_starts > 0:
        rng = np.random.default_rng(cfg.seed)
        starts += [t0 + rng.normal(0.0, 0.3, layout.k) for _ in range(cfg.multi_starts)]
    starts = [np.clip(s, blo, bhi) for s in starts]

    best_x, best_ll, gnorm, total_iter = None, -np.inf, math.nan, 0
    for s in starts:
        try:
            warm = cda_warm_start(obj.value, s, bounds=bounds)
        except NonFiniteLikelihood:
            log.warning("%s: start rejected (non-finite likelihood)", model)
            continue
        x, n_iter, ll, x_gnorm = _refine(obj, warm, bounds)
        total_iter += n_iter
        if ll > best_ll:
            best_ll, best_x, gnorm = ll, x, x_gnorm
    if best_x is None:
        raise NonFiniteLikelihood(f"{model}: no usable starting point")

    x_hat = best_x
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
    at_bound = [
        name
        for name, xi, lo, hi in zip(layout.names, x_hat, blo, bhi)
        if xi - lo <= _BOUND_TOL or hi - xi <= _BOUND_TOL
    ]
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
        notes.append(f"gradient max-norm {gnorm:.3g} above tolerance; flagged NotConverged")

    return FitResult(
        model=model,
        param_names=layout.names,
        estimates=natural,
        std_errors=se_nat,
        cov_transformed=cov,
        loglik=ll_hat,
        loglik_comparable=ll_comp,
        aic=aic,
        converged=converged,
        hessian_pd=pd,
        grad_max_norm=gnorm,
        n_evals=obj.n_evals,
        n_iter=total_iter,
        multistart_best_of=len(starts),
        notes=tuple(notes),
    )


def fit_all(cohort: PreparedCohort, cfg: FitConfig = FitConfig()) -> dict[str, FitResult]:
    """Fit M1, then M2 and M3 warm-started at the M1 solution.

    The correction parameters of M2 and M3 start at their default values.
    """
    m1 = fit("M1", cohort, cfg)
    results = {"M1": m1}
    for model in ("M2", "M3"):
        init = ParamLayout.for_model(model, cohort.covariate_names).default_init()
        init[: m1.k] = m1.estimates
        results[model] = fit(model, cohort, cfg, init=init)
    return results


def select_m4(fits: dict[str, FitResult]):
    """AIC selection among converged fits; ties go to the fewer-parameter model.

    Returns (chosen FitResult, c_hat) with c_hat = 1 for M1, gamma for M2,
    mu for M3.
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


# ---------------------------------------------------------------------------
# FitResult serialization (flat key-value rows)
# ---------------------------------------------------------------------------


def write_fit_result(fit: FitResult, dest: TextIO | str) -> None:
    """Write `name,estimate,std_error,ci_lo,ci_hi` rows plus footer rows."""
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8") as fh:
            write_fit_result(fit, fh)
        return
    dest.write("name,estimate,std_error,ci_lo,ci_hi\n")
    if fit.std_errors is not None:
        cis = confidence_intervals(fit)
    else:
        cis = None
    for i, name in enumerate(fit.param_names):
        est = float(fit.estimates[i])
        if cis is None:
            dest.write(f"{name},{est!r},,,\n")
        else:
            lo, hi = cis[name]
            dest.write(
                f"{name},{est!r},{float(fit.std_errors[i])!r},{float(lo)!r},{float(hi)!r}\n"
            )
    dest.write(f"loglik,{float(fit.loglik)!r},,,\n")
    dest.write(f"aic,{float(fit.aic)!r},,,\n")
    dest.write(f"converged,{str(fit.converged).lower()},,,\n")
    dest.write(f"model,{fit.model},,,\n")


@dataclass(frozen=True)
class ParsedFitResult:
    """FitResult re-read from its flat serialization (enough to predict from)."""

    model: str
    param_names: tuple[str, ...]
    estimates: np.ndarray
    std_errors: np.ndarray | None
    ci_lo: np.ndarray | None
    ci_hi: np.ndarray | None
    loglik: float
    aic: float
    converged: bool

    def to_model_params(self, covariate_names: Sequence[str] | None = None) -> ModelParams:
        layout = ParamLayout.for_model(
            self.model, covariate_names or _infer_covariates(self.param_names)
        )
        if layout.names != self.param_names:
            raise DataError(
                f"parameter names {self.param_names} do not match the {self.model} layout"
            )
        return layout.to_params(self.estimates)


def _infer_covariates(names: Sequence[str]) -> tuple[str, ...]:
    return tuple(n[len("beta1_"):] for n in names if n.startswith("beta1_"))


def read_fit_result(source: TextIO | str) -> ParsedFitResult:
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return read_fit_result(fh)
    rows = [line.strip().split(",") for line in source if line.strip()]
    if not rows or rows[0][0] != "name":
        raise DataError("not a fit-result file (missing header)")
    footers = {}
    names, est, se, lo, hi = [], [], [], [], []
    for parts in rows[1:]:
        if len(parts) != 5:
            raise DataError(f"malformed fit-result row: {parts}")
        key = parts[0]
        if key in ("loglik", "aic", "converged", "model"):
            footers[key] = parts[1]
            continue
        names.append(key)
        est.append(float(parts[1]))
        se.append(float(parts[2]) if parts[2] else math.nan)
        lo.append(float(parts[3]) if parts[3] else math.nan)
        hi.append(float(parts[4]) if parts[4] else math.nan)
    for key in ("loglik", "aic", "converged", "model"):
        if key not in footers:
            raise DataError(f"fit-result file missing footer row {key!r}")
    se_arr = np.array(se)
    has_se = not np.isnan(se_arr).all()
    return ParsedFitResult(
        model=footers["model"],
        param_names=tuple(names),
        estimates=np.array(est),
        std_errors=se_arr if has_se else None,
        ci_lo=np.array(lo) if has_se else None,
        ci_hi=np.array(hi) if has_se else None,
        loglik=float(footers["loglik"]),
        aic=float(footers["aic"]),
        converged=footers["converged"] == "true",
    )
