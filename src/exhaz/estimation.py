"""Maximum-likelihood fitting of M1/M2/M3 and AIC-based selection (M4).

Fitting is a two-step search on the log-transformed positive parameters:
a start, then a refinement.  M1 starts with one cycle of coordinate
descent (CDA) from fixed values (kappa = theta = 1, alpha = 2, betas = 0);
M2 and M3 start where the model they extend ends (below).  The
refinement runs bounded L-BFGS-B with analytic gradients and checks their
max-norm on the search scale.  When the check fails, a box-bounded
trust-region Newton on the analytic Hessian (Nocedal & Wright, *Numerical
Optimization*, ch. 4) runs from L-BFGS-B's end and checks again.  When
its end fails too, the trust region runs once more from the model's own
start (M1's fixed values before CDA, M2's and M3's start), and its end is
taken when it passes the check; otherwise the first run's end stands.
The fit's notes give the start, steps and evals of each trust-region run
and whether its end passed the check ("certified").

The trust region and the standard errors take the analytic Hessian
(``likelihoods.loglik_grad_hess`` through
``loglik_and_grad(hessian=True)``, one likelihood call) mapped to the
transformed scale.  The trust region takes it as it is: a step whose
actual decrease falls short of the predicted one shrinks the radius and is
not taken.  For the standard errors two gradient calls check it along the
eigenvector v of its smallest eigenvalue: r = max|(g(x + h v) - g(x - h
v)) / 2h - H v| / max|H|, h = ``_HESSIAN_STEP``, is O(h^2) plus rounding
where the analytic gradient is the value's and H its Jacobian; where r is
above ``_CURVATURE_TOL`` (1e-6) or NaN, they are not (the EW tail
artefact, ROADMAP item 1), and a note says so.  The standard errors
pseudo-invert H with an eigenvalue floor and map it back by the delta
method; a note says when H is not finite or not PD.  The same H and
gradient give the fit's Newton decrement and smallest eigenvalue, at no
further call.  A fit that ends within 1e-6 of an edge of the search box
names those parameters in ``at_bound`` and in its notes.

The multiplier of h_P, M2's gamma and M3's mu, is profiled out.  For
fixed GH parameters M2's log-likelihood is strictly concave in gamma, and
for fixed GH parameters and b M3's has the same form in mu, with h_P
reweighted by 1/(1 + b dH_P); ``likelihoods.profile_gamma`` solves both
for the maximizer without a likelihood call.  M2 is searched over the GH
coordinates and M3 over the GH coordinates and log b; each value or
gradient is one likelihood call at the joint point, and the gradient is
the model's without the multiplier's entry (envelope theorem); the
Hessian is the Schur complement of the multiplier's slot.  Neither runs
CDA.  M2 starts at M1's GH estimates: gamma = 1 is M1, so its first
value is already at least M1's MLE.  M3 starts at M2's GH estimates with
log b scanned over the grid ``_LOG_B_GRID`` (-20, -19, ..., 6), one
value per point, counted in ``n_evals``, and the refinement starts from
the best point.  The grid's floor b = e^-20 is M2's end up to O(e^-20)
in ll, and the refinement takes no worse point, so M3 ends at or above
M2's end less O(e^-20), as M2 ends at or above M1's: M1 within M2 within
M3 holds by construction.  The refinement runs on these objectives
unchanged; ``converged``, the gradient norm, the log-likelihood and the
SEs are those of the model's full objective at the joint estimate.

Tolerances, step sizes and budgets are module constants, properties of
the method rather than of a study: ``_GRAD_TOL`` and ``_MAX_EVALS``
(L-BFGS-B's stop and budget), ``_HESSIAN_STEP`` and ``_CURVATURE_TOL``
(the standard errors' curvature check), the trust region's ``_TR_*``,
``_CDA_HALFWIDTH``, ``_CDA_MAXITER`` and ``_LOG_B_GRID``.
``FitConfig`` keeps only the random restarts (``multi_starts``, ``seed``):
a best-of-N fit is the reference that tells whether one start found the
MLE.

M1's likelihood omits the population-survival constant, so its AIC is
computed on the comparable scale (constant restored); cross-model AICs are
meaningless otherwise.

A model's parameters are a ``ParamLayout`` plus one natural-scale vector
(``likelihoods.ModelParams``); the optimizer searches the same slots on the
transformed scale (M2 and M3: all but the multiplier), and a ``FitResult``
keeps the layout it was fitted with.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq, minimize, minimize_scalar
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
    _GAMMA_BOX,
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
_MAX_EVALS = 2000  # L-BFGS-B's budget
_HESSIAN_STEP = 1e-4  # step of the curvature check
# Curvature mismatch (_curvature_mismatch) above which the SEs' note says the
# analytic gradient and Hessian are not the value's.  On the perfbench
# panels (seed 1) points with every w below 200 read 2e-23 to 4e-10, and
# points with a patient far in the EW tail (w > 600) 1.4e-4 to 1.02, or NaN
# where the Hessian overflows.  Inside that gap the lower end is chosen: a
# needless note costs nothing, a missed one hides SEs from a wrong Hessian.
_CURVATURE_TOL = 1e-6
# _trust_region: iteration budget, first and largest radius (transformed
# scale), the ratio of actual to predicted decrease a trial must pass to be
# taken, and the radius below which it stops
_TR_MAX_ITER = 100
_TR_RADIUS0 = 1.0
_TR_RADIUS_MAX = 100.0
_TR_ETA = 1e-4
_TR_RADIUS_MIN = 1e-8
# smallest eigenvalue of H + l I that _trust_step divides by, relative to
# the larger of max|g| and max|H|
_TR_SHIFT_MIN = 1e-12
_CDA_HALFWIDTH = 5.0  # search window per coordinate, transformed scale
_CDA_MAXITER = 50  # per coordinate
# log b of the points M3's start is scanned over: the box floor, where M3
# is M2, up to b = e^6
_LOG_B_GRID = tuple(float(v) for v in range(-20, 7))


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
    hessian_pd: bool | None  # None when the information matrix is not finite
    grad_max_norm: float  # analytic gradient on the search scale at the last check; NaN if rejected
    n_evals: int
    n_iter: int
    at_bound: tuple[str, ...]  # parameters within _BOUND_TOL of the search box edge
    notes: tuple[str, ...] = ()
    # from the SE Hessian H and the gradient g at the estimate, on the search
    # scale: 1/2 g' H^-1 g over the slots off the box edge, and H's smallest
    # eigenvalue; NaN where H is not finite (or singular, for the decrement)
    decrement: float = math.nan
    min_eig: float = math.nan

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

    searched = slice(None)  # the slots of params(x).layout that x holds

    def __init__(self, layout: ParamLayout, cohort: PreparedCohort):
        self.layout = layout
        self.cohort = cohort
        self.n_evals = 0
        self.positive = layout.positive  # of x's slots
        self.bounds = layout.transformed_bounds()

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
        # the part along x: a profiled objective's parameters have one slot more
        return -ll, -grad[self.searched]

    def value_grad_hess(self, x: np.ndarray):
        """``value_and_grad`` and the Hessian of ``value``, from one likelihood call.

        The natural-scale Hessian H maps to x as D H D + diag(v g) on the
        log slots, with D = diag(dv/dx) (v on a log slot, 1 elsewhere) and
        g the natural gradient.  A rejected point gives _BIG, a zero
        gradient and a NaN Hessian; in the EW tail the Hessian may overflow
        to infinities and NaNs, which its callers check.
        """
        self.n_evals += 1
        try:
            params = self.params(x)
            ll, grad, hess = loglik_and_grad(params, self.cohort, hessian=True)
        except _REJECTED:
            return _BIG, np.zeros_like(x), np.full((len(x), len(x)), math.nan)
        positive = params.layout.positive
        scale = np.where(positive, params.values, 1.0)
        grad *= scale
        with np.errstate(over="ignore", invalid="ignore"):
            hess *= np.outer(scale, scale)
            hess[np.diag_indices_from(hess)] += np.where(positive, grad, 0.0)
            hess = self._searched_hessian(hess, params)
        return -ll, -grad[self.searched], -hess

    def _searched_hessian(self, hess: np.ndarray, params: ModelParams) -> np.ndarray:
        """The Hessian along x from the model's, on the transformed scale."""
        return hess

    def grad(self, x: np.ndarray) -> np.ndarray:
        """Gradient of ``value``; NaN everywhere when the point is rejected."""
        f, g = self.value_and_grad(x)
        return g if f < _BIG else np.full_like(x, np.nan)

    def check(self, x: np.ndarray) -> tuple[float, float]:
        """(ll, max-norm of the gradient of ``value``) at x; a NaN norm if rejected."""
        f, g = self.value_and_grad(x)
        return -f, float(np.max(np.abs(g))) if f < _BIG else math.nan


class _Profiled(_Objective):
    """M2's or M3's objective with the multiplier of h_P profiled out.

    x holds the model's transformed slots except the multiplier (gamma for
    M2, mu for M3): the GH slots, which ``layout`` (M1's) names, then log b
    for M3.  Its parameters are the model's (``model_layout``), with the
    multiplier from ``profile_gamma`` at the other slots, so ``value`` and
    ``value_and_grad`` make one likelihood call each.  The gradient is the
    model's without the multiplier's entry: the score along the multiplier
    is zero at its maximizer (envelope theorem), and at a box end of the
    multiplier the profile does not move, so the other entries are the
    derivative of the profiled value there too.  Likewise the Hessian is
    the Schur complement of the multiplier's slot, H_xx - H_xc H_cx / H_cc
    (implicit differentiation of the maximizer), or H_xx where the
    multiplier sits on a box end.
    """

    def __init__(self, model_layout: ParamLayout, cohort: PreparedCohort):
        super().__init__(ParamLayout.for_model("M1", cohort.covariate_names), cohort)
        self.model_layout = model_layout
        self.slot = self.layout.k  # the multiplier follows the GH slots
        self.searched = np.delete(np.arange(model_layout.k), self.slot)
        self.positive = model_layout.positive[self.searched]
        bounds = model_layout.transformed_bounds()
        self.bounds = [bounds[i] for i in self.searched]

    def params(self, x: np.ndarray) -> ModelParams:
        # the multiplier is 1 until the profile, which does not read it, gives it
        t = np.concatenate((x[: self.slot], [0.0], x[self.slot :]))
        values = untransform_params(t, self.model_layout.positive)
        values[self.slot] = profile_gamma(ModelParams(self.model_layout, values), self.cohort)
        return ModelParams(self.model_layout, values)

    def _searched_hessian(self, hess: np.ndarray, params: ModelParams) -> np.ndarray:
        rest, c = self.searched, self.slot
        block = hess[np.ix_(rest, rest)]
        if params.values[c] in _GAMMA_BOX:
            return block
        return block - np.outer(hess[rest, c], hess[c, rest]) / hess[c, c]

    def joint(self, x: np.ndarray) -> np.ndarray:
        """x with the log multiplier inserted: the point of the model's own objective."""
        return np.insert(x, self.slot, math.log(self.params(x).values[self.slot]))


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


def _curvature_mismatch(
    grad: Callable[[np.ndarray], np.ndarray], x: np.ndarray, hess: np.ndarray
) -> float:
    """r = max|(g(x + h v) - g(x - h v)) / 2h - H v| / max|H|, two gradient calls.

    v is the unit eigenvector of the smallest eigenvalue of ``hess`` and h
    is ``_HESSIAN_STEP``.  Where ``grad`` is the gradient of the value and
    ``hess`` its Jacobian, r is O(h^2) plus the gradient's rounding over h;
    a larger r says one of them is not (the EW tail artefact).  NaN, with
    no gradient call, when ``hess`` is not finite, and NaN when a point is
    rejected (a NaN gradient).
    """
    if not np.all(np.isfinite(hess)):
        return math.nan
    v = np.linalg.eigh(hess)[1][:, 0]
    h = _HESSIAN_STEP
    miss = float(np.max(np.abs((grad(x + h * v) - grad(x - h * v)) / (2 * h) - hess @ v)))
    scale = float(np.max(np.abs(hess)))
    if scale > 0:
        return miss / scale
    return 0.0 if miss == 0 else math.inf


def _decrement(g: np.ndarray, hess: np.ndarray, free: list[int]) -> float:
    """The Newton decrement 1/2 g' H^-1 g over the ``free`` slots: the
    log-likelihood a Newton step there would still gain.  0 with no free
    slot; NaN when H is not finite or singular on them."""
    if not free:
        return 0.0
    g, hess = g[free], hess[np.ix_(free, free)]
    if not np.all(np.isfinite(hess)):
        return math.nan
    try:
        return 0.5 * float(g @ np.linalg.solve(hess, g))
    except np.linalg.LinAlgError:
        return math.nan


def _covariance(neg_hessian: np.ndarray):
    """Pseudo-inverse of the observed information with a 1e-10 eigenvalue floor.

    Returns (cov, problem).  ``problem`` is None when cov is usable, else
    the note that says why cov is None: a non-finite entry (a rejected
    point, or an overflow in the EW tail) or a negative eigenvalue (the
    information matrix is not PD).
    """
    if not np.all(np.isfinite(neg_hessian)):
        return None, ("information matrix not finite (a rejected point or an overflow); "
                      "SEs unavailable")
    eigval, eigvec = np.linalg.eigh(neg_hessian)
    if np.any(eigval < 0):
        return None, "information matrix not positive definite; SEs unavailable"
    floored = np.maximum(eigval, 1e-10)
    cov = (eigvec / floored) @ eigvec.T
    return cov, None


def _grad_check_tol(ll: float) -> float:
    # Max-norm that counts as a zero gradient, scaled as ll's rounding is.  Kept
    # from the central-difference check, so only flags its O(h^2) error decided move.
    return 1e-3 * (1.0 + abs(ll)) * _EPS_CUBE_ROOT


def _trust_step(g: np.ndarray, hess: np.ndarray, radius: float) -> np.ndarray:
    """The s that minimizes g's + s'Hs/2 over |s| <= ``radius``.

    From the eigenpairs of H (Nocedal & Wright, *Numerical Optimization*,
    sec. 4.3): s(l) = -(H + l I)^-1 g at the smallest l >= 0 that makes
    H + l I positive definite and |s(l)| <= radius, which is l = 0 when H
    is positive definite and its Newton step lies inside.  In the hard
    case, where g has no part along the eigenvector q of a negative
    smallest eigenvalue, |s(l)| stays inside at every such l, and a
    multiple of q, of the sign that lowers the model, takes s to the
    boundary.  g and H are divided by the larger of their max-norms first,
    which leaves s as it is, and l keeps every eigenvalue of H + l I at
    ``_TR_SHIFT_MIN`` or above on that scale, so no quotient overflows or
    divides by zero.
    """
    size = max(float(np.max(np.abs(g))), float(np.max(np.abs(hess))))
    lam, q = np.linalg.eigh(hess / size)
    a = q.T @ (g / size)

    def step(shift):
        return -(q @ (a / (lam + shift)))

    shift = max(0.0, _TR_SHIFT_MIN - lam[0])
    s = step(shift)
    norm = float(np.linalg.norm(s))
    if norm > radius:
        # |s(l)| falls from norm toward 0 as l grows and is below radius / 2
        # at the upper end; 1/|s(l)| is nearly linear in l
        upper = shift + 2.0 * float(np.linalg.norm(a)) / radius
        shift = brentq(lambda l: 1.0 / np.linalg.norm(step(l)) - 1.0 / radius, shift, upper)
        s = step(shift)
    elif lam[0] < 0:
        # along q the model changes by t q'(g + H s) + t^2 q'Hq / 2, and
        # g + H s = -l s
        s += math.copysign(math.sqrt(radius**2 - norm**2), float(q[:, 0] @ s)) * q[:, 0]
    return s


def _trust_region(obj: _Objective, x: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Box-bounded trust-region Newton on the analytic Hessian.

    Nocedal & Wright, *Numerical Optimization*, ch. 4, Alg. 4.1.  Each
    iteration leaves out the slots on a box edge whose gradient points out
    of the box, solves the subproblem on the others exactly
    (``_trust_step``), clips the step to the box and scores the trial with
    one value call.  The ratio of actual to predicted decrease sets the next
    radius and, above ``_TR_ETA``, takes the trial, at one
    ``value_grad_hess`` call; so x moves only to points of lower value, and
    a rejected point (``_BIG``) is never taken.  It stops when the
    gradient max-norm over the other slots is at most 0.2 times the check's
    tolerance, when the radius falls below ``_TR_RADIUS_MIN``, when H is
    not finite (a rejected point or an overflow in the EW tail), or after
    ``_TR_MAX_ITER`` iterations.
    Returns (x, steps taken).
    """
    f, g, hess = obj.value_grad_hess(x)  # a rejected point gives a NaN H
    radius = _TR_RADIUS0
    steps = 0
    for _ in range(_TR_MAX_ITER):
        if not np.all(np.isfinite(hess)):
            break
        free = ~(((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0)))
        if np.max(np.abs(g[free]), initial=0.0) <= 0.2 * _grad_check_tol(-f):
            break
        s = np.zeros_like(x)
        s[free] = _trust_step(g[free], hess[np.ix_(free, free)], radius)
        trial = np.clip(x + s, lo, hi)
        p = trial - x
        predicted = -(g @ p + 0.5 * p @ hess @ p)
        rho = (f - obj.value(trial)) / predicted if predicted > 0 else -math.inf
        if not rho >= 0.25:
            radius = 0.25 * float(np.linalg.norm(s))
        elif rho > 0.75 and np.linalg.norm(s) >= 0.99 * radius:
            radius = min(2.0 * radius, _TR_RADIUS_MAX)
        if rho > _TR_ETA:
            x = trial
            f, g, hess = obj.value_grad_hess(x)
            steps += 1
        if radius < _TR_RADIUS_MIN:
            break
    return x, steps


def _refine(obj: _Objective, x0: np.ndarray, start: np.ndarray, bounds):
    """L-BFGS-B from ``x0`` and the trust region after it, each ended by a gradient check.

    L-BFGS-B runs from ``x0``, and its end is returned when it passes the
    check.  Otherwise the trust region (``_trust_region``) runs from that
    end, and its end is returned when it passes.  Otherwise the trust region
    runs once more, from ``start`` (the model's own start, before any warm
    start), and its end is returned when it passes; when it fails too, the
    end of the first run is.  Returns (x, n_iter, ll, gnorm, notes): the
    log-likelihood and the analytic gradient max-norm of the check made at
    the returned x, and one note per trust-region run with its start, steps
    and evals and whether its end passed the check ("certified").
    """
    lo, hi = np.array(bounds).T
    x = np.clip(x0, lo, hi)
    res = minimize(
        obj.value_and_grad, x, jac=True, method="L-BFGS-B", bounds=bounds,
        options={
            "maxfun": _MAX_EVALS,
            "maxiter": _MAX_EVALS,
            "ftol": 1e2 * np.finfo(float).eps,  # near machine precision; rely on gtol
            "gtol": _GRAD_TOL,
        },
    )
    if math.isfinite(res.fun) and res.fun <= obj.value(x):
        x = res.x
    n_iter = int(res.nit)
    ll, gnorm = obj.check(x)
    if gnorm <= _grad_check_tol(ll):
        return x, n_iter, ll, gnorm, []

    notes = []
    ends = []
    for origin, x in (("L-BFGS-B's end", x), ("the model's start", np.clip(start, lo, hi))):
        evals = obj.n_evals
        x, steps = _trust_region(obj, x, lo, hi)
        n_iter += steps
        ll, gnorm = obj.check(x)
        passed = gnorm <= _grad_check_tol(ll)
        notes.append(f"trust region from {origin}: {steps} step(s), {obj.n_evals - evals} "
                     f"evals, {'certified' if passed else 'not certified'}")
        if passed:
            return x, n_iter, ll, gnorm, notes
        ends.append((x, ll, gnorm))
    x, ll, gnorm = ends[0]
    return x, n_iter, ll, gnorm, notes


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

    ``init`` is a natural-scale vector of the GH slots, the start of the
    search.  Without it M1 starts at ``ParamLayout.default_init``, and M2
    and M3 at the GH estimates of the model they extend, fitted here as
    ``fit_all`` fits it (M1, or M2 from M1); those fits' evals are not
    counted in this one's ``n_evals``.  M1 starts with one CDA cycle from
    ``init``; M2 starts at ``init`` itself, with gamma profiled out; M3 at
    the best of ``init`` with each log b of ``_LOG_B_GRID``, with mu
    profiled out, the grid's values counted in ``n_evals``.  ``_refine``
    searches from there; the model's own start, from which its trust region
    restarts, is M1's point before CDA and M2's and M3's start itself.  A
    start whose value is not finite is skipped with a warning, and
    NonFiniteLikelihood ("<model>: no usable starting point") is raised
    when every start is.
    With ``cfg.multi_starts`` > 0, that many perturbed restarts (Gaussian
    noise, sd 0.3 on the transformed GH slots) are run, M3 scanning log b
    for each, and the best likelihood wins.

    Covariates are standardized to unit SD internally (an exact
    reparameterization of the GH model) so the search space is
    well-conditioned; estimates, SEs, and covariance are mapped back to the
    data scale on output.
    """
    if cohort.n_events == 0:
        raise DataError("cohort has no events (all censored); cannot fit")
    obj, slot_scale = _standardized_objective(model, cohort)
    layout = obj.layout
    # the coordinates the optimizer moves: M1's slots, or M2's and M3's
    # except the multiplier of h_P
    search = obj if model == "M1" else _Profiled(layout, obj.cohort)
    bounds = search.bounds
    k = 3 + 2 * layout.n_covariates  # the GH slots, which init and the starts hold

    if init is None:  # M2 and M3 start where the model they extend ends
        i = MODELS.index(model)
        init = fit(MODELS[i - 1], cohort, cfg).estimates[:k] if i else layout.default_init()
    base = np.asarray(init, dtype=float)
    if len(base) != k:
        raise ValueError(f"init has length {len(base)}, expected {k}")
    base = base * slot_scale[:k]  # beta_j -> beta_j * s_j matches x_j / s_j
    t0 = transform_params(base, layout.positive[:k])

    starts = [t0]
    if cfg.multi_starts > 0:
        rng = np.random.default_rng(cfg.seed)
        starts += [t0 + rng.normal(0.0, 0.3, k) for _ in range(cfg.multi_starts)]
    starts = [np.clip(s, *np.array(bounds[:k]).T) for s in starts]

    x_hat, best_ll, gnorm, total_iter, stage_notes = None, -np.inf, math.nan, 0, []
    for s in starts:
        # the trust region's restart (see _refine): M1's start before CDA,
        # M2's and M3's start itself
        if search is obj:
            restart = s
            try:
                warm = cda_warm_start(obj.value, s, bounds=bounds)
            except NonFiniteLikelihood:
                warm = None
        else:
            # M2 starts at s, M3 at the best of s with each log b of the grid
            points = [s] if model == "M2" else [np.append(s, v) for v in _LOG_B_GRID]
            values = [search.value(p) for p in points]
            best = int(np.argmin(values))
            warm = restart = points[best] if values[best] < _BIG else None
        if warm is None:
            log.warning("%s: start rejected (non-finite likelihood)", model)
            continue
        x, n_iter, ll, x_gnorm, x_notes = _refine(search, warm, restart, bounds)
        total_iter += n_iter
        stage_notes += x_notes
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

    _, g_hat, H = obj.value_grad_hess(x_hat)  # of -loglik, scaled space
    mismatch = _curvature_mismatch(obj.grad, x_hat, H)
    finite = bool(np.all(np.isfinite(H)))
    cov_s, cov_problem = _covariance(H)
    notes = stage_notes
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
        notes.append(cov_problem)
    if mismatch > _CURVATURE_TOL:
        notes.append(f"SEs from a gradient that is not the log-likelihood's: its curvature "
                     f"mismatch at the estimate is {mismatch:.3g}")
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
        hessian_pd=cov_s is not None if finite else None,
        grad_max_norm=gnorm,
        n_evals=obj.n_evals + (search.n_evals if search is not obj else 0),
        n_iter=total_iter,
        at_bound=at_bound,
        notes=tuple(notes),
        decrement=_decrement(g_hat, H, [i for i, name in enumerate(layout.names)
                                        if name not in at_bound]),
        min_eig=float(np.linalg.eigvalsh(H)[0]) if finite else math.nan,
    )


def fit_all(cohort: PreparedCohort, cfg: FitConfig = FitConfig()) -> dict[str, FitResult]:
    """Fit M1, then M2 from M1's GH estimates and M3 from M2's.

    M2 starts at M1's GH estimates with gamma profiled out, so its first
    value is at least M1's MLE on the comparable scale.  M3 starts at M2's
    GH estimates with mu profiled out and log b scanned over
    ``_LOG_B_GRID`` (27 values, counted in its ``n_evals``); the grid's
    floor is M2's end, so its first value is at least M2's MLE less
    O(e^-20).
    """
    m1 = fit("M1", cohort, cfg)
    m2 = fit("M2", cohort, cfg, init=m1.estimates)
    return {"M1": m1, "M2": m2, "M3": fit("M3", cohort, cfg, init=m2.estimates[: m1.k])}


def select_m4(fits: dict[str, FitResult]):
    """AIC selection among converged fits; ties go to the fewer-parameter model.

    Returns (chosen FitResult, c_hat) with c_hat = 1 for M1, gamma for M2,
    mu for M3.

    The fits of ``fit_all`` nest by construction (see the module
    docstring): M2 ends at or above M1's log-likelihood and M3 at or above
    M2's, so AIC compares log-likelihoods ordered as the models nest.

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

