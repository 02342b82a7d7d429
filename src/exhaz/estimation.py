"""Maximum-likelihood fitting of M1/M2/M3 and AIC-based selection (M4).

Fitting runs one loop over starts on the log-transformed positive
parameters: "the model's start", then ``multi_starts`` random ones.  Each
start is refined once, to an end "certified" when the gradient max-norm on
the search scale over its KKT-free slots (those not on a box edge with an
outward gradient) passes the check, and the fit keeps the highest
certified end, else the highest end; the first start wins a tie.
Every start is refined by at most one run of box-bounded trust-region
Newton on the analytic Hessian (Nocedal & Wright, *Numerical
Optimization*, ch. 4).  M1 starts at fixed values (kappa = theta = 1,
alpha = 2, betas = 0) and first runs one cycle of coordinate descent (CDA)
and bounded L-BFGS-B with analytic gradients from its point; L-BFGS-B's
end is kept when it passes the check on every slot, and the trust region
runs from the start otherwise (``_refine``).  M2 and M3 start where the
model they extend ends (below).  The notes give each run's origin, steps,
evals and whether it passed the check on every slot, and with more than
one start which start won, how many certified and how far above it an
uncertified end lies.

The analytic Hessian comes from ``likelihoods.loglik_grad_hess`` (through
``loglik_and_grad(hessian=True)``, one likelihood call, whose value and
gradient are ``loglik_and_grad``'s bit for bit), mapped to the
transformed scale; a pass repeated at the objective's last point costs no
call.  One such call at the estimate gives the fit's
log-likelihood, gradient max-norm and ``converged`` flag, and H, whose one
eigendecomposition gives the standard errors (a pseudo-inverse with an
eigenvalue floor, mapped back by the delta method), the smallest
eigenvalue and ``_curvature_mismatch``'s direction; ``_decrement`` gives
the Newton decrement.  Notes say when H is not finite or not PD, and when
the mismatch finds the analytic gradient and H apart (above
``_CURVATURE_TOL``: the EW tail artefact, ROADMAP item 1).  A fit that
ends within 1e-6 of an edge of the search box names those parameters in
``at_bound`` and in its notes.

The three models share one population hazard, c h_P / (1 + b dH_P)
(``ModelParams.population``): M1 is (1, 0), M2 (gamma, 0) and M3 (mu, b).
The multiplier c, M2's gamma and M3's mu, is profiled out: for fixed GH
parameters and b the log-likelihood is strictly concave in c, and
``likelihoods.profile_gamma`` solves for the maximizer without a
likelihood call.  M2 is searched over the GH coordinates and M3 over the
GH coordinates and log b, one likelihood call at the joint point per
value or gradient (``_Profiled``).  Neither runs CDA.  M2 starts at M1's GH
estimates: gamma = 1 is M1, so its first value is already at least M1's
MLE.  M3 starts at M2's GH estimates with log b scanned over the grid
``_LOG_B_GRID`` (-20, -19, ..., 6), one value per point, counted in
``n_evals``, and the refinement starts from the best point, as from each
random start.  The grid's floor b = e^-20 is M2's end up to O(e^-20) in
ll, and the refinement takes no worse point, so M3 ends at or above M2's
end less O(e^-20), as M2 ends at or above M1's: M1 within M2 within M3
holds by construction for one start.  The refinement runs on these
objectives unchanged; ``converged``, the gradient norm, the
log-likelihood and the SEs are those of the model's full objective at the
joint estimate.

Tolerances, step sizes and budgets are module constants (``_GRAD_TOL``,
``_MAX_EVALS``, ``_HESSIAN_STEP``, ``_CURVATURE_TOL``, ``_TR_*``,
``_CDA_*``, ``_LOG_B_GRID``), properties of the method rather than of a
study.  ``FitConfig`` keeps only the random starts (``multi_starts``,
``seed``), whose best-of-N fit tells whether one start found the MLE.

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
    """Random starts: how many, and the seed of their perturbations.

    The only fit settings: the best certified end from the model's start
    and ``multi_starts`` random ones is the reference that tells whether the
    single start found the MLE.  Everything else the optimizer uses is a
    module constant (see the module docstring).
    """

    multi_starts: int = 0  # random starts besides the model's own; best-of-N is the reference
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
    grad_max_norm: float  # analytic gradient on the search scale at the last check; NaN if rejected
    n_evals: int
    n_iter: int
    at_bound: tuple[str, ...]  # parameters within _BOUND_TOL of the search box edge
    notes: tuple[str, ...] = ()
    # from the SE Hessian H and the gradient g at the estimate, on the search
    # scale: 1/2 g' H^-1 g over the slots off the box edge, and H's smallest
    # eigenvalue (< 0: not PD, no SEs); NaN where H is not finite (or singular, for the decrement)
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
        self._last = (None, None)  # x.tobytes() of the last value_grad_hess point, and its pass

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
        to infinities and NaNs, which its callers check.  The pass of the
        last point is kept, read-only: a call at that point again (the same
        bytes) returns it with no likelihood call and no eval.
        """
        key = x.tobytes()
        if key != self._last[0]:
            out = self._value_grad_hess(x)
            out[1].flags.writeable = out[2].flags.writeable = False
            self._last = (key, out)
        return self._last[1]

    def _value_grad_hess(self, x: np.ndarray):
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

    def refine(self, s: np.ndarray, lo: np.ndarray, hi: np.ndarray, origin: str):
        """M1's refinement of start ``s`` (``_refine``)."""
        return _refine(self, s, lo, hi, origin)

    def joint(self, x: np.ndarray) -> np.ndarray:
        """x as a point of the model's own objective: x itself."""
        return x

    def grad(self, x: np.ndarray) -> np.ndarray:
        """Gradient of ``value``; NaN everywhere when the point is rejected."""
        f, g = self.value_and_grad(x)
        return g if f < _BIG else np.full_like(x, np.nan)


def _ll_and_norm(f: float, g: np.ndarray) -> tuple[float, float]:
    """(ll, max-norm of g) from a value and gradient; a NaN norm if rejected."""
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

    def refine(self, s: np.ndarray, lo: np.ndarray, hi: np.ndarray, origin: str):
        """One ``_leg`` from M2's ``s`` or M3's best of ``s`` with each log b of
        ``_LOG_B_GRID``, one value each; NonFiniteLikelihood if all are rejected."""
        points = [s] if self.model_layout.model == "M2" else [np.append(s, v) for v in _LOG_B_GRID]
        values = [self.value(p) for p in points]
        best = int(np.argmin(values))
        if values[best] >= _BIG:
            raise NonFiniteLikelihood("objective not finite at the start")
        return _leg(self, points[best], lo, hi, origin)

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
    grad: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    hess: np.ndarray,
    eig: tuple[np.ndarray, np.ndarray] | None,
) -> float:
    """r = max|(g(x + h v) - g(x - h v)) / 2h - H v| / max|H|, two gradient calls.

    ``eig`` is ``np.linalg.eigh(hess)``, or None when ``hess`` is not
    finite; v is the unit eigenvector of its smallest eigenvalue and h is
    ``_HESSIAN_STEP``.  Where ``grad`` is the gradient of the value and
    ``hess`` its Jacobian, r is O(h^2) plus the gradient's rounding over h;
    a larger r says one of them is not (the EW tail artefact).  NaN, with
    no gradient call, when ``eig`` is None, and NaN when a point is
    rejected (a NaN gradient).
    """
    if eig is None:
        return math.nan
    v = eig[1][:, 0]
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


def _covariance(eig: tuple[np.ndarray, np.ndarray] | None):
    """Pseudo-inverse of the observed information with a 1e-10 eigenvalue floor.

    ``eig`` is the matrix's ``np.linalg.eigh``, None where it is not
    finite.  Returns (cov, problem).  ``problem`` is None when cov is
    usable, else the note that says why cov is None: a non-finite entry (a
    rejected point, or an overflow in the EW tail) or a negative eigenvalue
    (the information matrix is not PD).
    """
    if eig is None:
        return None, ("information matrix not finite (a rejected point or an overflow); "
                      "SEs unavailable")
    eigval, eigvec = eig
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


def _free(x: np.ndarray, g: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The KKT-free slots: all but those on a box edge whose gradient points out of the box."""
    return ~(((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0)))


def _trust_region(obj: _Objective, x: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Box-bounded trust-region Newton on the analytic Hessian.

    Nocedal & Wright, *Numerical Optimization*, ch. 4, Alg. 4.1.  Each
    iteration leaves out the slots on a box edge whose gradient points out of
    the box, solves the subproblem on the others exactly (``_trust_step``),
    clips the step to the box and scores the trial with one value call.  The
    ratio of actual to predicted decrease sets the next radius and, above
    ``_TR_ETA``, takes the trial, at one ``value_grad_hess`` call.  Both
    decreases carry the rounding guard 10 eps max(1, |f|) (Conn, Gould &
    Toint, *Trust-Region Methods*, 2000, sec. 17.4), so a step predicted to
    gain less than f's rounding is judged by the model; x moves only to points
    of lower value up to 10 eps |f|, and never to a point whose value or
    ``value_grad_hess`` pass is rejected (``_BIG``): the latter counts as a
    failed ratio test.  It stops when the gradient max-norm over the other
    slots is at most 0.2 times the check's tolerance, when the radius falls
    below ``_TR_RADIUS_MIN``, when H is not finite (a rejected point or an
    overflow in the EW tail), or after ``_TR_MAX_ITER`` iterations.  Returns
    (x, steps taken, ll, gradient max-norm, certified) from the last pass, at
    x; certified: not rejected, and the max-norm over the KKT-free slots passes.
    """
    f, g, hess = obj.value_grad_hess(x)  # a rejected point gives a NaN H
    radius = _TR_RADIUS0
    steps = 0
    for _ in range(_TR_MAX_ITER):
        if not np.all(np.isfinite(hess)):
            break
        free = _free(x, g, lo, hi)
        if np.max(np.abs(g[free]), initial=0.0) <= 0.2 * _grad_check_tol(-f):
            break
        s = np.zeros_like(x)
        s[free] = _trust_step(g[free], hess[np.ix_(free, free)], radius)
        trial = np.clip(x + s, lo, hi)
        p = trial - x
        predicted = -(g @ p + 0.5 * p @ hess @ p)
        guard = 10.0 * np.finfo(float).eps * max(1.0, abs(f))
        rho = (f - obj.value(trial) + guard) / (predicted + guard) if predicted > 0 else -math.inf
        if rho > _TR_ETA:
            taken = obj.value_grad_hess(trial)
            if taken[0] < _BIG:
                x, (f, g, hess) = trial, taken
                steps += 1
            else:  # its information pass is rejected: judged as a failed ratio test
                rho = -math.inf
        if not rho >= 0.25:
            radius = 0.25 * float(np.linalg.norm(s))
        elif rho > 0.75 and np.linalg.norm(s) >= 0.99 * radius:
            radius = min(2.0 * radius, _TR_RADIUS_MAX)
        if radius < _TR_RADIUS_MIN:
            break
    ll, gnorm = _ll_and_norm(f, g)
    free = float(np.max(np.abs(g[_free(x, g, lo, hi)]), initial=0.0))
    return x, steps, ll, gnorm, not math.isnan(gnorm) and free <= _grad_check_tol(ll)


def _leg(obj: _Objective, x: np.ndarray, lo: np.ndarray, hi: np.ndarray, origin: str):
    """One trust-region run from ``x``: M2's and M3's refinement, and M1's
    where L-BFGS-B's end fails the check.

    Returns (x, steps, ll, gnorm, certified, notes): ``_trust_region``'s
    end and the note "trust region from <origin>: N step(s), E evals,
    certified" (or "not certified": the check on every slot), E its passes.
    """
    evals = obj.n_evals
    x, steps, ll, gnorm, certified = _trust_region(obj, x, lo, hi)
    note = (f"trust region from {origin}: {steps} step(s), {obj.n_evals - evals} evals, "
            f"{'certified' if gnorm <= _grad_check_tol(ll) else 'not certified'}")
    return x, steps, ll, gnorm, certified, [note]


def _refine(obj: _Objective, start: np.ndarray, lo: np.ndarray, hi: np.ndarray, origin: str):
    """M1's refinement of ``start``: one CDA cycle and L-BFGS-B from its point,
    else one trust-region leg from ``start``, as M2's and M3's.

    CDA raises NonFiniteLikelihood where ``start``'s value is rejected.
    L-BFGS-B's end is returned when it passes the gradient check on every
    slot, one ``value_grad_hess`` pass there.  Otherwise ``_leg`` runs from
    ``start`` (named ``origin``) and its end is returned.  Returns
    ``_leg``'s contract, steps counting L-BFGS-B's iterations.
    """
    bounds = list(zip(lo.tolist(), hi.tolist()))
    x = np.clip(cda_warm_start(obj.value, start, bounds=bounds), lo, hi)
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
    ll, gnorm = _ll_and_norm(*obj.value_grad_hess(x)[:2])
    if gnorm <= _grad_check_tol(ll):
        return x, int(res.nit), ll, gnorm, True, []
    x, steps, ll, gnorm, certified, notes = _leg(obj, start, lo, hi, origin)
    return x, int(res.nit) + steps, ll, gnorm, certified, notes


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
    """Maximum likelihood for one model: the best end of one loop over starts.

    ``init`` is a natural-scale vector of the GH slots, the model's start.
    Without it M1 starts at ``ParamLayout.default_init``, and M2 and M3
    raise ValueError: they start at the GH estimates of the model they
    extend, and ``fit_all`` is the one chain that fits them so.
    ``cfg.multi_starts`` random starts (Gaussian noise, sd 0.3 on the
    transformed GH slots) follow, each clipped to the box and refined once
    by the objective's ``refine`` (M1's ``_refine``, M2's and M3's
    ``_Profiled.refine``), which runs at most one trust-region leg, named by
    the start's origin.  A start whose value is not finite is skipped with a
    warning; NonFiniteLikelihood ("<model>: no usable starting point") is
    raised when every start is.  The pick and its note are as the module
    docstring says; ``converged`` checks every slot at the pick.

    Covariates are standardized to unit SD internally (an exact
    reparameterization of the GH model) so the search space is
    well-conditioned; estimates, SEs, and covariance are mapped back to the
    data scale on output.
    """
    if init is None and model in MODELS[1:]:
        raise ValueError(f"{model} needs init, the end of the model it extends: use fit_all")
    if cohort.n_events == 0:
        raise DataError("cohort has no events (all censored); cannot fit")
    obj, slot_scale = _standardized_objective(model, cohort)
    layout = obj.layout
    # the coordinates the optimizer moves and their refinement: M1's slots,
    # or M2's and M3's except the multiplier of h_P
    search = obj if model == "M1" else _Profiled(layout, obj.cohort)
    lo, hi = np.array(search.bounds).T
    k = 3 + 2 * layout.n_covariates  # the GH slots, which init and the starts hold

    base = np.asarray(layout.default_init() if init is None else init, dtype=float)
    if len(base) != k:
        raise ValueError(f"init has length {len(base)}, expected {k}")
    base = base * slot_scale[:k]  # beta_j -> beta_j * s_j matches x_j / s_j
    t0 = transform_params(base, layout.positive[:k])
    rng = np.random.default_rng(cfg.seed)
    starts = [("the model's start", t0)] + [(f"random start {i}", t0 + rng.normal(0.0, 0.3, k))
                                            for i in range(1, cfg.multi_starts + 1)]

    ends = []  # (origin, x, steps, ll, gnorm, certified, notes) of each start's end
    for origin, s in starts:
        try:
            ends.append((origin, *search.refine(np.clip(s, lo[:k], hi[:k]), lo, hi, origin)))
        except NonFiniteLikelihood:
            log.warning("%s: start rejected (non-finite likelihood)", model)
    if not ends:
        raise NonFiniteLikelihood(f"{model}: no usable starting point")
    certified = [e for e in ends if e[5]]
    won, x_hat, _, best_ll, *_ = max(certified or ends, key=lambda e: e[3])
    notes = [note for e in ends for note in e[6]]
    if len(starts) > 1:  # run lls omit M1's constant: the gap is a difference
        higher = max(e[3] for e in ends) - best_ll
        notes.append(f"best of {len(starts)} starts: {won}, {len(certified)} certified "
                     "on the KKT-free slots"
                     + (f"; an uncertified end lies {higher:.4g} above it" if higher > 0 else ""))
    x_hat = search.joint(x_hat)
    # the flag and the SEs are those of the full model at the (joint)
    # estimate; M1's is often _refine's last pass, which the objective keeps
    f_hat, g_hat, H = obj.value_grad_hess(x_hat)  # of -loglik, scaled space
    best_ll, gnorm = _ll_and_norm(f_hat, g_hat)
    converged = gnorm <= _grad_check_tol(best_ll)

    natural_s = untransform_params(x_hat, layout.positive)
    natural = natural_s / slot_scale
    params = layout.to_params(natural)
    ll_hat = loglik(params, cohort)
    ll_comp = loglik(params, cohort, comparable=True)
    aic = -2.0 * ll_comp + 2.0 * layout.k

    eig = np.linalg.eigh(H) if np.all(np.isfinite(H)) else None
    mismatch = _curvature_mismatch(obj.grad, x_hat, H, eig)
    cov_s, cov_problem = _covariance(eig)
    at_bound = tuple(
        name
        for name, xi, (lo, hi) in zip(layout.names, x_hat, layout.transformed_bounds())
        if xi - lo <= _BOUND_TOL or hi - xi <= _BOUND_TOL
    )
    if at_bound:
        notes.append(f"parameters at box bound: {', '.join(at_bound)}")
    if cov_s is not None:
        se_nat = np.sqrt(np.diag(cov_s))
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
    if math.isnan(gnorm):  # the pass at the estimate is rejected
        notes.append("gradient not finite at the estimate; flagged NotConverged")
    elif not converged:
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
        grad_max_norm=gnorm,
        n_evals=sum(o.n_evals for o in {obj, search}),  # M1's search is obj
        n_iter=sum(e[2] for e in ends),
        at_bound=at_bound,
        notes=tuple(notes),
        decrement=_decrement(g_hat, H, [i for i, name in enumerate(layout.names)
                                        if name not in at_bound]),
        min_eig=math.nan if eig is None else float(eig[0][0]),
    )


def fit_all(cohort: PreparedCohort, cfg: FitConfig = FitConfig()) -> dict[str, FitResult]:
    """Fit M1, then M2 from M1's GH estimates and M3 from M2's: the only chain.

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

    Returns (chosen FitResult, c_hat), c_hat the multiplier c of the
    population hazard c h_P / (1 + b dH_P) (``ModelParams.population``):
    1 for M1, gamma for M2, mu for M3.

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
    eligible = [fits[m] for m in MODELS if m in fits and fits[m].converged]
    if not eligible:
        raise NoEligibleFit("no converged fits to select from")
    chosen = min(eligible, key=lambda f: (f.aic, f.k))
    return chosen, chosen.to_model_params().population[0]

