"""Transforms, CDA warm start, fitting, intervals, and M4 selection."""

import math
import pickle
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.optimize import OptimizeResult

from exhaz import estimation, likelihoods
from exhaz.distributions import GammaFrailtyParams, sample_gamma_frailty
from exhaz.errors import NoEligibleFit, NonFiniteLikelihood, NonPositive, SEsUnavailable
from exhaz.estimation import (
    _BIG,
    _CURVATURE_TOL,
    _HESSIAN_STEP,
    _LOG_B_GRID,
    _TR_RADIUS0,
    FitConfig,
    FitResult,
    ParamLayout,
    _covariance,
    _curvature_mismatch,
    _decrement,
    _grad_check_tol,
    _ll_and_norm,
    _Profiled,
    _refine,
    _standardized_objective,
    _trust_region,
    _trust_step,
    cda_warm_start,
    confidence_intervals,
    fit,
    fit_all,
    select_m4,
    transform_params,
    untransform_params,
)
from exhaz.likelihoods import (
    MODELS,
    ModelParams,
    PreparedCohort,
    loglik,
    loglik_and_grad,
)
from exhaz.simulation import (
    builtin_scenarios,
    calibrate_dropout_rate,
    design_life_table,
    replicate_cohort,
)

from conftest import model_params, sim_cohort


def _eigh(H):
    """``np.linalg.eigh(H)`` as ``fit`` passes it on: None when H is not finite."""
    return np.linalg.eigh(H) if np.all(np.isfinite(H)) else None


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def test_transform_round_trip():
    layout = ParamLayout.for_model("M3", ("a", "b", "c"))
    rng = np.random.default_rng(0)
    for _ in range(20):
        nat = np.concatenate(
            [rng.uniform(0.1, 5.0, 3), rng.normal(0, 1, 6), rng.uniform(0.1, 5.0, 2)]
        )
        back = untransform_params(transform_params(nat, layout.positive), layout.positive)
        assert np.max(np.abs(back - nat)) < 1e-14 * np.max(np.abs(nat))


def test_theta_one_maps_to_zero():
    layout = ParamLayout.for_model("M1", ())
    t = transform_params(np.array([1.0, 1.0, 2.0]), layout.positive)
    assert t[0] == 0.0 and t[1] == 0.0 and t[2] == pytest.approx(math.log(2.0))


def test_transform_rejects_nonpositive():
    layout = ParamLayout.for_model("M2", ("x",))
    bad = np.array([1.0, -2.0, 1.0, 0.0, 0.0, 1.2])
    with pytest.raises(NonPositive):
        transform_params(bad, layout.positive)


@pytest.mark.parametrize(
    "natural, positions",
    [
        ([math.inf, 1.0, 2.0, 0.0, 0.0, 1.2], [0]),
        ([1.0, 1.0, 2.0, 0.0, math.nan, 1.2], [4]),
        ([1.0, 0.0, 2.0, -math.inf, 0.0, math.nan], [1, 3, 5]),
    ],
)
def test_transform_names_every_nonfinite_or_nonpositive_slot(natural, positions):
    layout = ParamLayout.for_model("M2", ("x",))
    with pytest.raises(NonPositive, match=rf"positions \[{', '.join(map(str, positions))}\]"):
        transform_params(np.array(natural), layout.positive)


SLOT = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(MODELS), st.integers(0, 3), st.data())
def test_model_params_checks_a_vector_as_transform_params_does(model, p, data):
    # one check of a natural vector: ModelParams accepts and rejects what
    # transform_params does, with the same message, and keeps the bits
    layout = ParamLayout.for_model(model, [f"x{i}" for i in range(p)])
    vec = np.array(data.draw(st.lists(SLOT, min_size=layout.k, max_size=layout.k)))
    try:
        transform_params(vec, layout.positive)
    except NonPositive as err:
        with pytest.raises(NonPositive) as got:
            ModelParams(layout, vec)
        assert str(got.value) == str(err)
        return
    params = layout.to_params(vec)
    assert params.layout is layout and not params.values.flags.writeable
    # the slot views are the layout's order and partition the vector
    views = (params.baseline, params.beta1, params.beta2, params.correction)
    assert [len(v) for v in views] == [3, p, p, layout.k - 3 - 2 * p]
    assert all(not v.flags.writeable for v in views)
    assert np.concatenate(views).view(np.int64).tolist() == vec.view(np.int64).tolist()
    back = layout.from_params(params)
    assert back is not params.values and back.flags.writeable
    assert np.array_equal(back.view(np.int64), vec.view(np.int64))


def test_model_params_rejects_a_vector_of_the_wrong_length():
    layout = ParamLayout.for_model("M2", ("x",))
    with pytest.raises(ValueError, match="M2 takes 6 parameters"):
        ModelParams(layout, np.ones(5))


def test_an_overflowing_log_slot_is_rejected_without_a_warning():
    # exp(800) is inf: ModelParams rejects it and the objective returns _BIG
    # (the suite turns a RuntimeWarning into an error)
    positive = ParamLayout.for_model("M1", ()).positive
    assert untransform_params(np.array([800.0, 0.0, 0.0]), positive).tolist() == [
        math.inf, 1.0, 1.0
    ]
    obj, _ = _standardized_objective("M1", sim_cohort(n=50))
    x = np.zeros(obj.layout.k)
    x[0] = 800.0
    assert obj.value(x) == _BIG
    f, g = obj.value_and_grad(x)
    assert f == _BIG and not g.any()
    # the zero gradient of a rejected point must never pass the check
    ll, gnorm = _ll_and_norm(f, g)
    assert ll == -_BIG and math.isnan(gnorm)
    # nor the trust region's end at it, whose KKT-free slots are all zero
    _, steps, ll, gnorm, certified = _trust_region(obj, x, *np.array(obj.bounds).T)
    assert steps == 0 and ll == -_BIG and math.isnan(gnorm) and not certified


def test_layouts_compare_by_model_and_names_and_fits_by_identity(m1_fit):
    a, b = (ParamLayout.for_model("M1", ("a",)) for _ in range(2))
    assert a is not b and a == b and hash(a) == hash(b)
    for other in (
        ParamLayout.for_model("M2", ("a",)),
        ParamLayout.for_model("M1", ("b",)),
        ParamLayout.for_model("M1", ()),
    ):
        assert a != other
    _, res = m1_fit
    assert res == res and res != replace(res)


def test_positivity_mask_is_read_only_and_stays_so_through_pickle():
    # every ModelParams of a layout checks positivity against its mask
    layout = ParamLayout.for_model("M1", ("a",))
    copy = pickle.loads(pickle.dumps(layout))
    assert copy == layout and copy.beta_slots == layout.beta_slots
    for mask in (layout.positive, copy.positive):
        assert mask.tolist() == [True, True, True, False, False]
        with pytest.raises(ValueError, match="read-only"):
            mask[0] = False
    with pytest.raises(NonPositive, match=r"positions \[0\]"):
        layout.to_params([-1.0, 1.0, 1.0, 0.0, 0.0])
    m3 = ParamLayout.for_model("M3", ("a", "b"))
    assert m3.positive.tolist() == [True] * 3 + [False] * 4 + [True] * 2


def _difference_jacobian(grad, x, h):
    """Central differences of ``grad`` at step h, symmetrized: 2k gradient calls."""
    k = len(x)
    J = np.empty((k, k))
    for i in range(k):
        e = np.zeros(k)
        e[i] = h
        J[i] = (grad(x + e) - grad(x - e)) / (2 * h)
    return 0.5 * (J + J.T)


def _richardson_jacobian(grad, x, h):
    """``_difference_jacobian`` at steps h and h/2, extrapolated to O(h^4)."""
    return (4.0 * _difference_jacobian(grad, x, h / 2) - _difference_jacobian(grad, x, h)) / 3.0


def test_delta_method_se_matches_natural_scale_hessian():
    # toy 1-parameter problem: Gaussian log-likelihood in log(theta), with the
    # closed-form gradient of the negative log-likelihood on each scale
    n_obs, spread, center = 50.0, 0.7, 0.4
    theta_hat = math.exp(center)

    def grad_nat(v):  # v = [theta]
        return np.array([n_obs * (math.log(v[0]) - center) / (spread**2 * v[0])])

    def grad_trans(v):  # v = [log theta]
        return np.array([n_obs * (v[0] - center) / spread**2])

    H_nat = _difference_jacobian(grad_nat, np.array([theta_hat]), 1e-4)
    H_trans = _difference_jacobian(grad_trans, np.array([center]), 1e-4)
    se_nat_direct = 1.0 / math.sqrt(H_nat[0, 0])
    se_log = 1.0 / math.sqrt(H_trans[0, 0])
    assert theta_hat * se_log == pytest.approx(se_nat_direct, rel=1e-4)
    # closed form: se_log = spread / sqrt(n_obs)
    assert se_log == pytest.approx(spread / math.sqrt(n_obs), rel=1e-6)


# ---------------------------------------------------------------------------
# CDA warm start
# ---------------------------------------------------------------------------

def test_cda_exact_on_separable_quadratic():
    target = np.array([0.3, -1.2, 2.0, 0.7])

    def f(x):
        return float(np.sum((x - target) ** 2))

    out = cda_warm_start(f, np.zeros(4))
    assert np.max(np.abs(out - target)) < 1e-4


def test_cda_no_move_at_stationary_point():
    target = np.array([0.5, -0.5])

    def f(x):
        return float(np.sum((x - target) ** 2))

    out = cda_warm_start(f, target.copy())
    assert np.array_equal(out, target)


def test_cda_improves_over_defaults_on_simulated_cohort():
    cohort = sim_cohort(n=1000, seed=42)
    layout = ParamLayout.for_model("M1", cohort.covariate_names)
    x0 = transform_params(layout.default_init(), layout.positive)

    def negll(x):
        try:
            return -loglik(layout.to_params(untransform_params(x, layout.positive)), cohort)
        except Exception:
            return 1e15

    out = cda_warm_start(negll, x0)
    assert negll(out) < negll(x0)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def m1_fit():
    cohort = sim_cohort(n=2000, seed=7)
    return cohort, fit("M1", cohort)


def test_fit_recovers_truth_roughly(m1_fit):
    _, res = m1_fit
    assert res.converged
    assert res.ses_available
    # beta2 entries are the well-identified ones at this n
    for name, truth in [("beta2_x1", 0.05), ("beta2_x2", 0.2), ("beta2_x3", 0.25)]:
        i = res.param_names.index(name)
        est, se = res.estimates[i], res.std_errors[i]
        assert abs(est - truth) < 4 * se


def test_fit_deterministic(m1_fit):
    cohort, res = m1_fit
    res2 = fit("M1", cohort)
    assert np.array_equal(res.estimates, res2.estimates)
    assert res.loglik == res2.loglik
    assert np.array_equal(res.std_errors, res2.std_errors)


def test_fit_multistart_deterministic():
    cohort = sim_cohort(n=400, seed=11)
    cfg = FitConfig(multi_starts=2, seed=99)
    r1 = fit("M1", cohort, cfg)
    r2 = fit("M1", cohort, cfg)
    assert np.array_equal(r1.estimates, r2.estimates)
    assert r1.n_evals > fit("M1", cohort).n_evals  # the two restarts ran


@pytest.mark.parametrize("p", [0, 1, 3])
@pytest.mark.parametrize("model", ["M1", "M2", "M3"])
def test_slot_scale_is_the_covariate_sd_on_its_beta_slots_only(model, p):
    n = 40
    rng = np.random.default_rng(p)
    X = rng.normal(0.0, 1.0, (n, p)) * np.array([0.5, 2.0, 7.0])[:p]
    names = tuple(f"c{j}" for j in range(p))
    cohort = PreparedCohort(
        np.full(n, 2.0), np.ones(n, dtype=np.int8), X, np.full(n, 0.01), np.full(n, 0.02), names
    )
    obj, slot_scale = _standardized_objective(model, cohort)
    sd = dict(zip(names, X.std(axis=0).tolist()))
    want = [
        sd[name.partition("_")[2]] if name.startswith(("beta1_", "beta2_")) else 1.0
        for name in obj.layout.names
    ]
    assert slot_scale.tolist() == want


def test_objective_rejects_an_overflowing_sum_in_value_and_gradient():
    # M1 without covariates at kappa = 320, theta = alpha = 1 (log 320 = 5.77,
    # inside the box): each of the 5000 terms is -9^320 = -1.6e305, finite,
    # but their sum overflows.
    n = 5000
    cohort = PreparedCohort(
        np.full(n, 9.0), np.zeros(n, dtype=np.int8), np.zeros((n, 0)),
        np.full(n, 0.01), np.full(n, 0.09),
    )
    obj, _ = _standardized_objective("M1", cohort)
    x = np.array([math.log(320.0), 0.0, 0.0])
    lo, hi = np.array(obj.layout.transformed_bounds()).T
    assert np.all((lo < x) & (x < hi))
    params = obj.layout.to_params(untransform_params(x, obj.layout.positive))
    for fn in (loglik, loglik_and_grad):
        with pytest.raises(NonFiniteLikelihood, match="sum of the likelihood terms overflows"):
            fn(params, cohort)
    assert obj.value(x) == _BIG
    f, g = obj.value_and_grad(x)
    assert f == _BIG and np.array_equal(g, np.zeros(3))
    assert np.isnan(obj.grad(x)).all()


def test_m2_without_a_finite_start_raises():
    # the overflowing cohort above, with one event: M2's profiled start is
    # rejected too
    n = 5000
    status = np.zeros(n, dtype=np.int8)
    status[0] = 1
    cohort = PreparedCohort(
        np.full(n, 9.0), status, np.zeros((n, 0)), np.full(n, 0.01), np.full(n, 0.09),
    )
    with pytest.raises(NonFiniteLikelihood, match="M2: no usable starting point"):
        fit("M2", cohort, init=np.array([320.0, 1.0, 1.0]))


@pytest.mark.parametrize(
    "slot, value",
    [(3, math.nan), (4, math.inf), (8, -math.inf), (0, math.inf)],
    ids=["beta1-nan", "beta1-inf", "beta2-minus-inf", "log-kappa-inf"],
)
def test_objective_rejects_a_nonfinite_slot_in_value_and_gradient(slot, value):
    # a non-finite beta and an infinite kappa take one path: ModelParams
    # raises NonPositive naming the slot, and the objective maps it to _BIG
    cohort = sim_cohort(n=300, seed=5)
    obj, _ = _standardized_objective("M1", cohort)
    x = transform_params(obj.layout.default_init(), obj.layout.positive)
    x[slot] = value
    with pytest.raises(NonPositive, match=rf"positions \[{slot}\]"):
        ModelParams(obj.layout, untransform_params(x, obj.layout.positive))
    assert obj.value(x) == _BIG
    f, g = obj.value_and_grad(x)
    assert f == _BIG and np.array_equal(g, np.zeros(obj.layout.k))


def test_fit_rejects_eventless_cohort():
    cohort = sim_cohort(n=50, seed=3)
    all_censored = type(cohort)(
        cohort.time, np.zeros_like(cohort.status), cohort.X, cohort.hp, cohort.dhp
    )
    with pytest.raises(Exception):
        fit("M1", all_censored)


def test_aic_counts_parameters(m1_fit):
    cohort, res = m1_fit
    # k = 3 + 2p for M1
    k = 3 + 2 * cohort.X.shape[1]
    assert res.aic == pytest.approx(-2 * res.loglik_comparable + 2 * k, abs=1e-9)


def test_m1_comparable_loglik_restores_constant(m1_fit):
    cohort, res = m1_fit
    assert res.loglik_comparable == pytest.approx(res.loglik - math.fsum(cohort.dhp), abs=1e-9)


def test_fit_all_warm_starts_and_aic_alignment():
    cohort = sim_cohort(n=1500, seed=19)
    fits = fit_all(cohort)
    assert set(fits) == {"M1", "M2", "M3"}
    # M2 at its optimum can never be worse than M1 on the comparable scale
    assert fits["M2"].loglik_comparable >= fits["M1"].loglik_comparable - 1e-6
    # AIC comparability: identical likelihood conventions across models
    params_g1 = model_params(fits["M1"].to_model_params(), 1.0)
    l2_at_g1 = loglik(params_g1, cohort, comparable=True)
    l1c = loglik(fits["M1"].to_model_params(), cohort, comparable=True)
    assert l2_at_g1 == l1c


def _m2_nesting(cohort):
    """M1's fit, M2's first profiled value from M1's estimates, and M2's fit."""
    m1 = fit("M1", cohort)
    obj, slot_scale = _standardized_objective("M2", cohort)
    prof = _Profiled(obj.layout, obj.cohort)
    x0 = transform_params(m1.estimates * slot_scale[: m1.k], prof.layout.positive)
    return m1, -prof.value(x0), fit("M2", cohort, init=m1.estimates)


@pytest.mark.parametrize(
    "make_cohort",
    [lambda: sim_cohort(n=1500, seed=19), lambda: sim_cohort(n=2000, seed=7),
     lambda: sim_cohort(n=1000, seed=42), lambda: _frailty_cohort(0), lambda: _frailty_cohort(3)],
    ids=["sim-1500-19", "sim-2000-7", "sim-1000-42", "frailty-0", "frailty-3"],
)
def test_m2_nests_m1_from_its_first_profiled_value(make_cohort):
    # gamma = 1 is M1 and gamma* is at least as good, so M2's start is at or
    # above M1's MLE on the comparable scale, and a converged M2 stays there
    m1, start, m2 = _m2_nesting(make_cohort())
    assert start >= m1.loglik_comparable
    assert m2.loglik_comparable >= start
    if m2.converged:
        assert m2.loglik_comparable >= m1.loglik_comparable - 1e-6


def _m3_nesting(cohort):
    """fit_all's M2, M3's first profiled value from M2's GH estimates, and M3's fit."""
    fits = fit_all(cohort)
    m2, k = fits["M2"], fits["M1"].k
    obj, slot_scale = _standardized_objective("M3", cohort)
    prof = _Profiled(obj.layout, obj.cohort)
    gh = transform_params(m2.estimates[:k] * slot_scale[:k], prof.positive[:k])
    return m2, max(-prof.value(np.append(gh, v)) for v in _LOG_B_GRID), fits["M3"]


@pytest.mark.parametrize(
    "make_cohort",
    [lambda: sim_cohort(n=1500, seed=19), lambda: sim_cohort(n=2000, seed=7),
     lambda: sim_cohort(n=1000, seed=42), lambda: _frailty_cohort(0), lambda: _frailty_cohort(3)],
    ids=["sim-1500-19", "sim-2000-7", "sim-1000-42", "frailty-0", "frailty-3"],
)
def test_m3_nests_m2_from_its_first_profiled_value(make_cohort):
    # the scan's floor b = e^-20 is M2's end up to O(e^-20) in ll, so M3's
    # start is at or above M2's ll, and the search takes no worse point
    m2, start, m3 = _m3_nesting(make_cohort())
    assert start >= m2.loglik_comparable - 1e-9
    assert m3.loglik_comparable >= start


def test_m3_starts_from_the_best_log_b_of_the_scan_at_m2s_end(monkeypatch):
    # 27 values, one per log b in -20, ..., 6 and counted in n_evals, then
    # one trust-region run from the best of them
    assert _LOG_B_GRID == tuple(float(v) for v in range(-20, 7))
    cohort = _frailty_cohort(0)
    m2 = fit_all(cohort)["M2"]
    k = m2.k - 1
    leg, starts = estimation._leg, []

    def spy(obj, x, lo, hi, origin):
        starts.append((x.copy(), origin, obj.n_evals))
        return leg(obj, x, lo, hi, origin)

    monkeypatch.setattr(estimation, "_leg", spy)
    fit("M3", cohort, init=m2.estimates[:k])
    ((x0, origin, evals_before),) = starts
    obj, slot_scale = _standardized_objective("M3", cohort)
    prof = _Profiled(obj.layout, obj.cohort)
    gh = transform_params(m2.estimates[:k] * slot_scale[:k], prof.positive[:k])
    values = [prof.value(np.append(gh, v)) for v in _LOG_B_GRID]
    assert evals_before == len(_LOG_B_GRID)
    assert np.array_equal(x0, np.append(gh, _LOG_B_GRID[int(np.argmin(values))]))
    assert origin == "the model's start"


def test_m2_fits_the_gh_coordinates_and_reports_the_joint_estimate(fits_1500):
    # the start is M1's GH estimates (no gamma = 1.2 is read), and the flag
    # and its norm are those of M2's own objective at (GH, gamma*)
    cohort, fits = fits_1500
    res = fits["M2"]
    assert res.param_names == (*fits["M1"].param_names, "gamma")
    with pytest.raises(ValueError, match="init has length 10, expected 9"):
        fit("M2", cohort, init=np.append(fits["M1"].estimates, 1.2))
    obj, _, x_hat = _search_point(res, cohort)
    prof = _Profiled(obj.layout, obj.cohort)
    joint = prof.joint(x_hat[:-1])
    assert np.max(np.abs(joint - x_hat)) < 1e-12
    assert res.estimates[res.param_names.index("gamma")] == pytest.approx(
        prof.params(x_hat[:-1]).correction[0], rel=1e-12
    )


# ---------------------------------------------------------------------------
# standard-error Hessian
# ---------------------------------------------------------------------------

def _frailty_cohort(seed):
    g = GammaFrailtyParams(1.5, 0.5)
    return sim_cohort(
        n=1000, seed=seed, pop_rate=0.05,
        frailty=lambda rng, n: sample_gamma_frailty(g, rng, n),
    )


def _search_point(res, cohort):
    """The fit's objective, slot scales, and its estimate on the search scale."""
    obj, slot_scale = _standardized_objective(res.model, cohort)
    return obj, slot_scale, transform_params(res.estimates * slot_scale, obj.layout.positive)


def _fd_hessian(value, x, h):
    """Central-difference Hessian of ``value`` at x with step h, symmetrized:
    the value-only reference for the analytic information."""
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


def test_gradient_hessian_ses_match_value_fd_on_interior_m3_fit():
    cohort = _frailty_cohort(0)
    res = fit_all(cohort)["M3"]
    assert res.converged and res.min_eig >= 0
    assert not any(note.startswith("parameters at box bound") for note in res.notes)
    obj, slot_scale, x_hat = _search_point(res, cohort)
    cov_fd, problem = _covariance(_eigh(_fd_hessian(obj.value, x_hat, _HESSIAN_STEP)))
    assert problem is None
    se_fd = np.sqrt(np.diag(cov_fd))
    se_fit = np.sqrt(np.diag(res.cov_transformed)) * slot_scale
    assert se_fit == pytest.approx(se_fd, rel=1e-3)


@pytest.fixture(scope="module")
def m3_boundary():
    """A converged M3 fit with b on its box floor e^-20."""
    cohort = _frailty_cohort(3)
    return cohort, fit_all(cohort)["M3"]


def test_boundary_collapse_has_stable_nonnegative_information(m3_boundary):
    # No frailty signal left in this cohort: b collapses onto its lower bound
    # e^-20 and the information along log b is ~1e-10.  Value differences
    # at these steps give a negative eigenvalue that changes with h.
    cohort, res = m3_boundary
    assert res.converged and res.min_eig >= 0 and res.ses_available
    assert "parameters at box bound: b" in res.notes
    i = res.param_names.index("b")
    assert res.estimates[i] == pytest.approx(math.exp(-20.0), rel=1e-6)
    assert res.std_errors[i] > 1e3 * res.estimates[i]
    obj, _, x_hat = _search_point(res, cohort)
    smallest = [
        np.linalg.eigvalsh(_difference_jacobian(obj.grad, x_hat, h))[0] for h in (1e-3, 1e-4, 1e-5)
    ]
    assert min(smallest) >= 0.0
    assert smallest == pytest.approx([smallest[1]] * 3, rel=1e-3)


@pytest.mark.parametrize("fixture", ["m3_interior", "m3_boundary"])
def test_ses_match_richardson_differences_of_the_gradient(fixture, request):
    # the analytic information against central differences of the analytic
    # gradient at h = 1e-4 and 5e-5, extrapolated to O(h^4); a single step
    # of 1e-4 is off by up to 8e-5 relative here, its h^2 truncation
    cohort, res = request.getfixturevalue(fixture)
    obj, slot_scale, x_hat = _search_point(res, cohort)
    cov, problem = _covariance(_eigh(_richardson_jacobian(obj.grad, x_hat, _HESSIAN_STEP)))
    assert problem is None
    se_ref = np.sqrt(np.diag(cov))
    se_fit = np.sqrt(np.diag(res.cov_transformed)) * slot_scale
    assert se_fit == pytest.approx(se_ref, rel=1e-5)


def test_the_information_call_counts_one_eval(m3_interior, monkeypatch):
    # one likelihood pass gives the value, the gradient and the Hessian, on
    # the full objective and on the profiled one: loglik_and_grad(hessian=True)
    cohort, res = m3_interior
    kernel, calls = estimation.loglik_and_grad, []

    def counted(params, cohort, hessian=False):
        calls.append((params.layout.model, hessian))
        return kernel(params, cohort, hessian=hessian)

    monkeypatch.setattr(estimation, "loglik_and_grad", counted)
    obj, _, x_hat = _search_point(res, cohort)
    f, g, H = obj.value_grad_hess(x_hat)
    assert obj.n_evals == 1 and calls == [("M3", True)] and H.shape == (res.k, res.k)
    f2, g2 = obj.value_and_grad(x_hat)
    assert f == f2 and np.array_equal(g, g2)
    prof = _Profiled(obj.layout, obj.cohort)
    H3 = prof.value_grad_hess(np.delete(x_hat, prof.slot))[2]
    assert prof.n_evals == 1 and calls[2:] == [("M3", True)] and H3.shape == (res.k - 1, res.k - 1)


def test_the_objective_keeps_the_information_pass_of_its_last_point(monkeypatch):
    # a second call at the same point makes no likelihood call, counts no
    # eval and returns the same bits, read-only; another point evaluates
    kernel, calls = estimation.loglik_and_grad, []

    def counted(params, cohort, hessian=False):
        calls.append(hessian)
        return kernel(params, cohort, hessian=hessian)

    monkeypatch.setattr(estimation, "loglik_and_grad", counted)
    obj, _ = _standardized_objective("M1", sim_cohort(n=400, seed=11))
    x = transform_params(obj.layout.default_init(), obj.layout.positive)
    f, g, H = obj.value_grad_hess(x)
    f2, g2, H2 = obj.value_grad_hess(x.copy())
    assert calls == [True] and obj.n_evals == 1
    assert f2 == f and np.array_equal(g2, g) and np.array_equal(H2, H)
    assert not g.flags.writeable and not H.flags.writeable
    y = x + 0.1
    assert obj.value_grad_hess(y)[0] != f
    assert calls == [True, True] and obj.n_evals == 2
    obj.value_grad_hess(x)  # only the last point is kept
    assert calls == [True, True, True] and obj.n_evals == 3


def test_every_likelihood_pass_of_a_fit_is_a_loglik_or_loglik_and_grad_call(monkeypatch):
    # a fit's n_evals counts each of its likelihood passes, the information
    # calls of the polish and the SEs among them, and each pass is one call
    # to estimation.loglik or estimation.loglik_and_grad; two loglik calls
    # more give the fit's loglik and loglik_comparable
    calls = {"loglik": 0, "loglik_and_grad": 0, "hessian": 0}
    value, gradient = estimation.loglik, estimation.loglik_and_grad

    def counted_value(params, cohort, comparable=False):
        calls["loglik"] += 1
        return value(params, cohort, comparable)

    def counted_gradient(params, cohort, hessian=False):
        calls["loglik_and_grad"] += 1
        calls["hessian"] += hessian
        return gradient(params, cohort, hessian=hessian)

    monkeypatch.setattr(estimation, "loglik", counted_value)
    monkeypatch.setattr(estimation, "loglik_and_grad", counted_gradient)
    cohort, init = sim_cohort(n=400, seed=11), None
    for model in MODELS:
        calls.update(loglik=0, loglik_and_grad=0, hessian=0)
        res = fit(model, cohort, init=init)
        assert calls["loglik"] + calls["loglik_and_grad"] == res.n_evals + 2
        assert calls["hessian"] >= 1  # the SE call at the estimate
        init = res.estimates[: res.layout.beta_slots[1].stop]  # its GH slots


def test_a_non_finite_information_matrix_gives_no_pd_verdict(monkeypatch):
    # a NaN Hessian says nothing about definiteness: min_eig is NaN
    kernel = likelihoods.loglik_grad_hess

    def nan_hessian(params, cohort):
        ll, grad, hess = kernel(params, cohort)
        return ll, grad, np.full_like(hess, math.nan)

    monkeypatch.setattr(likelihoods, "loglik_grad_hess", nan_hessian)
    res = fit("M1", sim_cohort(n=400, seed=11))
    assert not res.ses_available
    assert "information matrix not finite (a rejected point or an overflow); SEs unavailable" in res.notes
    assert math.isnan(res.decrement) and math.isnan(res.min_eig)


def test_an_indefinite_information_matrix_is_not_pd(monkeypatch):
    # the log-likelihood's Hessian with its sign flipped: the information
    # matrix at the estimate is negative definite, so min_eig is negative
    kernel = likelihoods.loglik_grad_hess

    def flipped(params, cohort):
        ll, grad, hess = kernel(params, cohort)
        return ll, grad, -hess

    monkeypatch.setattr(likelihoods, "loglik_grad_hess", flipped)
    res = fit("M1", sim_cohort(n=400, seed=11))
    assert not res.ses_available
    assert "information matrix not positive definite; SEs unavailable" in res.notes
    assert res.min_eig < 0.0


def test_decrement_is_half_the_newton_step_along_the_gradient_on_the_free_slots():
    g, hess = np.array([1.0, 2.0]), np.diag([2.0, 4.0])
    assert _decrement(g, hess, [0, 1]) == 0.75
    assert _decrement(g, hess, [1]) == 0.5
    assert _decrement(g, hess, []) == 0.0
    assert math.isnan(_decrement(g, np.zeros((2, 2)), [0, 1]))
    assert math.isnan(_decrement(g, np.full((2, 2), math.nan), [0]))


@pytest.mark.parametrize("fixture", ["m3_interior", "m3_boundary"])
def test_a_fit_reports_its_decrement_and_smallest_eigenvalue(fixture, request):
    # both from the SE call at the estimate; b on the box is not a free slot
    cohort, res = request.getfixturevalue(fixture)
    obj, _, x_hat = _search_point(res, cohort)
    _, g, H = obj.value_grad_hess(x_hat)
    assert res.min_eig == pytest.approx(np.linalg.eigvalsh(H)[0], rel=1e-6)
    free = [i for i, name in enumerate(res.param_names) if name not in res.at_bound]
    assert len(free) == res.k - len(res.at_bound)
    assert 0.0 <= res.decrement <= 1e-12
    assert _decrement(g, H, free) <= 1e-12
    # a result built without them holds NaN
    assert math.isnan(_mini_fit("M1", 0.0).decrement) and math.isnan(_mini_fit("M1", 0.0).min_eig)


# ---------------------------------------------------------------------------
# convergence check
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fits_1500():
    cohort = sim_cohort(n=1500, seed=19)
    return cohort, fit_all(cohort)


def test_convergence_is_the_analytic_gradient_norm_at_the_estimate(fits_1500):
    # one analytic gradient call at the search-scale estimate, against the
    # tolerance of the log-likelihood that call returns
    cohort, fits = fits_1500
    assert {res.converged for res in fits.values()} == {True, False}
    for res in fits.values():
        obj, _, x_hat = _search_point(res, cohort)
        f, g = obj.value_and_grad(x_hat)
        assert res.grad_max_norm == float(np.max(np.abs(g)))
        # the fit reads them from its information call, which has the same bits
        assert _ll_and_norm(*obj.value_grad_hess(x_hat)[:2]) == (-f, res.grad_max_norm)
        assert res.converged == (res.grad_max_norm <= _grad_check_tol(-f))
        assert -f == pytest.approx(res.loglik, rel=1e-12)


def test_a_fit_that_is_not_converged_names_its_norm_and_tolerance(fits_1500):
    cohort, fits = fits_1500
    res = fits["M2"]
    assert not res.converged
    obj, _, x_hat = _search_point(res, cohort)
    tol = _grad_check_tol(-obj.value(x_hat))
    assert res.grad_max_norm > tol
    assert (
        f"gradient max-norm {res.grad_max_norm:.3g} not within tolerance {tol:.3g}; "
        "flagged NotConverged"
    ) in res.notes


def test_a_fit_whose_information_pass_is_rejected_says_its_gradient_is_not_finite(monkeypatch):
    # every information pass is rejected, the one at the estimate too: the
    # note names no tolerance (the parent's, from -_BIG, read 6.06e+06)
    def rejected(params, cohort):
        raise NonFiniteLikelihood("non-finite gradient")

    monkeypatch.setattr(likelihoods, "loglik_grad_hess", rejected)
    res = fit("M1", sim_cohort(n=400, seed=11))
    assert not res.converged and math.isnan(res.grad_max_norm)
    assert "gradient not finite at the estimate; flagged NotConverged" in res.notes
    assert not any("tolerance" in note for note in res.notes)


def _richardson_gradient(value, x, h):
    """Central differences of ``value`` at steps h and h/2, extrapolated to O(h^4)."""
    def central(step):
        out = np.empty(len(x))
        for j in range(len(x)):
            e = np.zeros(len(x))
            e[j] = step
            out[j] = (value(x + e) - value(x - e)) / (2 * step)
        return out

    return (4.0 * central(h / 2) - central(h)) / 3.0


def _interior_point(layout, rng):
    """A natural-scale vector well inside the box, transformed."""
    p = layout.n_covariates
    correction = {"M1": [], "M2": [rng.uniform(0.5, 2.0)],
                  "M3": [rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.5)]}[layout.model]
    natural = np.array([rng.uniform(0.6, 1.6), rng.uniform(0.8, 3.0), rng.uniform(0.6, 3.0),
                        *rng.normal(0.0, 0.3, 2 * p), *correction])
    return transform_params(natural, layout.positive)


@pytest.mark.parametrize("p", [0, 3])
@pytest.mark.parametrize("model", MODELS)
def test_transformed_gradient_matches_richardson_differences_of_the_value(model, p):
    # the gradient the convergence check reads is the derivative of the value
    # the optimizer minimizes, chain rule of the log slots included
    full = sim_cohort(n=300, seed=29)
    cohort = PreparedCohort(full.time, full.status, full.X[:, :p], full.hp, full.dhp,
                            full.covariate_names[:p])
    obj, _ = _standardized_objective(model, cohort)
    rng = np.random.default_rng([p, MODELS.index(model)])
    for _ in range(3):
        x = _interior_point(obj.layout, rng)
        f, g = obj.value_and_grad(x)
        assert f < _BIG
        oracle = _richardson_gradient(obj.value, x, 1e-3)
        assert np.max(np.abs(g - oracle) / np.maximum(1.0, np.abs(oracle))) < 1e-7


@pytest.mark.parametrize("p", [0, 3])
def test_profiled_gradient_matches_richardson_differences_of_the_profiled_value(p):
    # M2's search objective: the GH part of the gradient at (GH, gamma*) is
    # the derivative of the value with gamma profiled out
    full = sim_cohort(n=300, seed=29)
    cohort = PreparedCohort(full.time, full.status, full.X[:, :p], full.hp, full.dhp,
                            full.covariate_names[:p])
    obj, _ = _standardized_objective("M2", cohort)
    prof = _Profiled(obj.layout, obj.cohort)
    assert prof.layout == ParamLayout.for_model("M1", cohort.covariate_names)
    rng = np.random.default_rng([p, 7])
    for _ in range(3):
        x = _interior_point(prof.layout, rng)
        f, g = prof.value_and_grad(x)
        assert f < _BIG and g.shape == x.shape
        oracle = _richardson_gradient(prof.value, x, 1e-3)
        assert np.max(np.abs(g - oracle) / np.maximum(1.0, np.abs(oracle))) < 1e-7


@pytest.mark.parametrize("p", [0, 3])
def test_profiled_m3_gradient_matches_richardson_differences_of_the_profiled_value(p):
    # M3's search objective over (GH, log b): its gradient at (GH, mu*, b)
    # without the mu entry is the derivative of the value with mu profiled out
    full = sim_cohort(n=300, seed=29)
    cohort = PreparedCohort(full.time, full.status, full.X[:, :p], full.hp, full.dhp,
                            full.covariate_names[:p])
    obj, _ = _standardized_objective("M3", cohort)
    prof = _Profiled(obj.layout, obj.cohort)
    assert prof.layout == ParamLayout.for_model("M1", cohort.covariate_names)
    assert prof.positive.tolist() == [True] * 3 + [False] * (2 * p) + [True]
    rng = np.random.default_rng([p, 11])
    for _ in range(3):
        x = np.delete(_interior_point(obj.layout, rng), prof.slot)
        f, g = prof.value_and_grad(x)
        assert f < _BIG and g.shape == x.shape
        assert obj.value(prof.joint(x)) == f
        oracle = _richardson_gradient(prof.value, x, 1e-3)
        assert np.max(np.abs(g - oracle) / np.maximum(1.0, np.abs(oracle))) < 1e-7


@pytest.mark.parametrize("where", ["interior", "box"])
@pytest.mark.parametrize("model", ["M2", "M3"])
def test_profiled_hessian_matches_differences_of_the_profiled_gradient(model, where):
    # the Schur complement of the multiplier's slot where the multiplier is
    # interior, the searched block where it sits on the box floor: with h_P
    # at the events scaled by 1e-6 the score is negative from e^-20 on
    full = sim_cohort(n=300, seed=29)
    hp = full.hp if where == "interior" else full.hp * 1e-6
    cohort = PreparedCohort(full.time, full.status, full.X, hp, full.dhp, full.covariate_names)
    obj, _ = _standardized_objective(model, cohort)
    prof = _Profiled(obj.layout, obj.cohort)
    rng = np.random.default_rng([MODELS.index(model), 13])
    points = [np.delete(_interior_point(obj.layout, rng), prof.slot) for _ in range(6)]
    on_floor = [prof.params(x).values[prof.slot] == math.exp(-20.0) for x in points]
    chosen = [x for x, floor in zip(points, on_floor) if floor == (where == "box")][:2]
    assert len(chosen) == 2
    for x in chosen:
        f, g, H = prof.value_grad_hess(x)
        assert f < _BIG and np.array_equal(H, H.T)
        ref = _richardson_jacobian(prof.grad, x, 1e-3)
        assert np.max(np.abs(H - ref) / np.maximum(1.0, np.abs(ref))) < 1e-6


def test_profiled_value_is_a_pure_function_of_the_point():
    cohort = sim_cohort(n=300, seed=31)
    obj, _ = _standardized_objective("M2", cohort)
    prof = _Profiled(obj.layout, obj.cohort)
    rng = np.random.default_rng(31)
    x = _interior_point(prof.layout, rng)
    others = [_interior_point(prof.layout, rng) for _ in range(2)]
    others.append(x.copy())
    others[-1][-1] += 0.25  # beta2 only: the same EW block
    f, g = prof.value_and_grad(x)
    for y in others:
        prof.value(y)
        prof.value_and_grad(y)
    assert prof.value(x).hex() == f.hex()
    f2, g2 = prof.value_and_grad(x)
    assert f2.hex() == f.hex() and np.array_equal(g2, g)
    # one likelihood call per value or gradient, and the joint point is M2's
    assert prof.n_evals == 1 + 2 * len(others) + 2 and obj.n_evals == 0
    assert obj.value(prof.joint(x)) == f


@pytest.fixture(scope="module")
def m3_interior():
    """A converged M3 fit with b and mu inside the box (b = 0.48, mu = 2.1)."""
    cohort = _frailty_cohort(0)
    return cohort, fit_all(cohort)["M3"]


def test_analytic_gradient_matches_richardson_differences_at_a_fit_end_point(m3_interior):
    # at M3's interior optimum the oracle agrees that the gradient is zero
    cohort, res = m3_interior
    assert res.converged and not res.at_bound
    obj, _, x_hat = _search_point(res, cohort)
    _, g = obj.value_and_grad(x_hat)
    oracle = _richardson_gradient(obj.value, x_hat, 1e-3)
    assert np.max(np.abs(g - oracle)) < 1e-6
    assert np.max(np.abs(oracle)) <= _grad_check_tol(res.loglik)


class _Toy:
    """_refine's view of an objective: f(x) = (x0 - 3)^2 + 10 (x1 - x0 + 2)^2,
    rejected (_BIG, zero gradient) on the strip x0 in [0.99, 1], x1 >= 0.5.
    Counts its calls in ``n_evals`` and logs them as _Quadratic does."""

    def __init__(self):
        self.n_evals = 0
        self.calls = []
        self.points = []  # the point of each call

    def _log(self, call, x):
        self.n_evals += 1
        self.calls.append(call)
        self.points.append(np.array(x, dtype=float))

    @staticmethod
    def _value_and_grad(x):
        if 0.99 <= x[0] <= 1.0 and x[1] >= 0.5:
            return _BIG, np.zeros(2)
        a, b = x[0] - 3.0, x[1] - x[0] + 2.0
        return a * a + 10.0 * b * b, np.array([2.0 * a - 20.0 * b, 20.0 * b])

    def value_and_grad(self, x):
        self._log("vg", x)
        return self._value_and_grad(x)

    def value(self, x):
        self._log("v", x)
        return self._value_and_grad(x)[0]

    def value_grad_hess(self, x):
        self._log("vgh", x)
        f, g = self._value_and_grad(x)
        hess = np.array([[22.0, -20.0], [-20.0, 20.0]])
        return f, g, hess if f < _BIG else np.full((2, 2), np.nan)

    def grad(self, x):
        self._log("g", x)
        f, g = self._value_and_grad(x)
        return g if f < _BIG else np.full_like(x, np.nan)


class _DoubleWell:
    """_refine's view of f(x) = x^4/4 - x^2/2 + tilt x in one slot: wells
    at about -1 and 1 and a hump at 0.  Counts its calls in ``n_evals``."""

    def __init__(self, tilt=0.0):
        self.tilt = tilt
        self.n_evals = 0

    def value_grad_hess(self, x):
        self.n_evals += 1
        v = float(x[0])
        f = v**4 / 4 - v**2 / 2 + self.tilt * v
        return f, np.array([v**3 - v + self.tilt]), np.array([[3 * v * v - 1]])

    def value_and_grad(self, x):
        return self.value_grad_hess(x)[:2]

    def value(self, x):
        return self.value_grad_hess(x)[0]


def _refine_from(monkeypatch, obj, lbfgsb_start, start, lo, hi):
    """``_refine`` from the model's ``start`` with CDA's point set to
    ``lbfgsb_start``, so L-BFGS-B runs from there."""
    monkeypatch.setattr(estimation, "cda_warm_start", lambda f, x, bounds: np.array([lbfgsb_start]))
    return _refine(obj, np.array([start]), np.array([lo]), np.array([hi]), "the model's start")


def test_refine_takes_the_restarts_end_where_lbfgsbs_end_fails_the_check(monkeypatch):
    # On [-0.5, 2] L-BFGS-B from -0.2 runs down to the edge -0.5, where the
    # gradient points out of the box: the check fails, and the one trust-region
    # leg, from the model's start 0.5, reaches the well at 1.
    obj = _DoubleWell()
    x, _, ll, gnorm, certified, notes = _refine_from(monkeypatch, obj, -0.2, 0.5, -0.5, 2.0)
    assert certified
    assert x == pytest.approx([1.0], abs=1e-9)
    assert ll == pytest.approx(0.25, abs=1e-12) and gnorm <= _grad_check_tol(ll)
    (note,) = notes
    assert note.startswith("trust region from the model's start: ")
    assert note.endswith(", certified")


def test_refine_returns_the_starts_box_edge_end_where_both_ends_fail_the_check(monkeypatch):
    # On [-0.5, 0.5] both wells are cut off: L-BFGS-B from -0.2 ends on the
    # lower edge and the leg from the start 0.2 on the upper one, each with
    # the gradient pointing out.  The leg's end fails the check on every slot
    # and is returned, certified for the pick as a KKT point of the box.
    obj = _DoubleWell(tilt=-0.05)
    x, _, ll, gnorm, certified, notes = _refine_from(monkeypatch, obj, -0.2, 0.2, -0.5, 0.5)
    assert certified
    assert x == pytest.approx([0.5], abs=1e-12)
    assert ll == pytest.approx(-obj.value(np.array([0.5])), abs=1e-12)
    assert gnorm == pytest.approx(0.425, abs=1e-9)
    (note,) = notes
    assert note.startswith("trust region from the model's start: ")
    assert note.endswith(", not certified")


def test_refine_runs_the_starts_leg_where_lbfgsb_stops_off_a_stationary_point(monkeypatch):
    # L-BFGS-B stops where it starts, at 0.05 on the double well's hump
    # (g = -0.05): the check fails, and the leg from the model's start (0.5)
    # reaches the well at 1.
    def stays(fun, x, **kwargs):
        return OptimizeResult(x=x, fun=fun(x)[0], nit=0)

    monkeypatch.setattr(estimation, "minimize", stays)
    obj = _DoubleWell()
    x, _, ll, gnorm, certified, notes = _refine_from(monkeypatch, obj, 0.05, 0.5, -2.0, 2.0)
    assert certified
    assert x == pytest.approx([1.0], abs=1e-9)
    assert ll == pytest.approx(0.25, abs=1e-12) and gnorm <= _grad_check_tol(ll)
    (note,) = notes
    assert note.startswith("trust region from the model's start: ") and note.endswith(", certified")


# the cohorts on which M1's trust region certifies only from the default start
_RESTART_COHORTS = [("moderate", 5000, 2), ("wide-dropout", 1000, 1), ("none", 1000, 6)]
_RESTART_IDS = [f"{preset}-{n}-r{index}" for preset, n, index in _RESTART_COHORTS]


@pytest.mark.parametrize(
    "preset, n, index, expected",
    [
        (*_RESTART_COHORTS[0], {"M1": -7308.1632}),
        (*_RESTART_COHORTS[1], {"M1": -1123.6141, "M2": -1122.8905, "M3": -1121.9758}),
        (*_RESTART_COHORTS[2], {"M1": -1461.3149}),
    ],
    ids=_RESTART_IDS,
)
def test_the_restart_from_the_default_start_certifies_m1_past_the_ew_tail(
    preset, n, index, expected
):
    # L-BFGS-B from CDA's point ends M1 in the EW tail artefact (ROADMAP item
    # 1), where a trust-region run from its end does not certify it; the
    # earlier chain ended it unconverged
    # at +25128.63, -1130.34 and +386.12.  The trust region from the default
    # start certifies it, and M2 and M3 converge from there.
    cohort = _preset_cohort(preset, n, index)
    fits = fit_all(cohort) if len(expected) > 1 else {"M1": fit("M1", cohort)}
    assert any(
        n.startswith("trust region from the model's start: ") and n.endswith(", certified")
        for n in fits["M1"].notes
    )
    for model, ll in expected.items():
        assert fits[model].converged
        assert fits[model].loglik_comparable == pytest.approx(ll, abs=1e-4)


@pytest.mark.parametrize("preset, n, index", _RESTART_COHORTS, ids=_RESTART_IDS)
def test_m2_and_m3_nest_on_the_restart_regression_cohorts(preset, n, index):
    # M2 and M3 each take one trust-region run from the end of the model
    # they extend, which moves only to lower values, so M1 <= M2 <= M3 up to
    # rounding and the scan floor's O(e^-20)
    fits = fit_all(_preset_cohort(preset, n, index))
    ll = {model: res.loglik_comparable for model, res in fits.items()}
    assert ll["M2"] >= ll["M1"] - 1e-9
    assert ll["M3"] >= ll["M2"] - 1e-9


def test_m1_keeps_its_lbfgsb_path_bit_for_bit():
    # wide-dropout, n = 1000, replicate 1: CDA, L-BFGS-B, and, L-BFGS-B's end
    # failing the check (indefinite, lambda_min -1.8e10), the trust region
    # from the default start, to the ll bits the fit gave when the leg from
    # L-BFGS-B's end ran first (3 steps, 18 evals, not certified; then 586
    # evals and 239 iterations)
    m1 = fit("M1", _preset_cohort(*_RESTART_COHORTS[1]))
    assert m1.loglik == float.fromhex("-0x1.072a573733992p+10")
    assert (m1.n_evals, m1.n_iter) == (567, 236)
    assert m1.notes == ("trust region from the model's start: 10 step(s), 21 evals, certified",)


def test_m1_skips_the_crawl_from_an_indefinite_lbfgsb_end():
    # moderate, n = 5000, replicate 1: L-BFGS-B ends M1 at ll -6730.27 with
    # lambda_min -1.35e8.  The leg from there took 92 steps and 193 evals to
    # gain 0.0025 before the restart certified the same end (425 evals).
    m1 = fit("M1", _preset_cohort("moderate", 5000, 1))
    assert m1.converged
    assert m1.loglik == pytest.approx(-6697.193962, abs=1e-6)
    assert m1.n_evals == 231
    assert m1.notes == ("trust region from the model's start: 13 step(s), 29 evals, certified",)


def test_m1_takes_the_starts_end_above_the_basin_of_a_near_singular_lbfgsb_end():
    # wide, n = 1000, replicate 21: L-BFGS-B's end is indefinite by -7.8e-11.
    # The leg from there certified -1352.132062, where M2 ended unconverged
    # with gamma on its floor; the leg from the start certifies 14.51 higher,
    # and M2 and M3 converge from there.
    fits = fit_all(_preset_cohort("wide", 1000, 21))
    assert fits["M1"].converged
    assert fits["M1"].loglik_comparable == pytest.approx(-1337.618623, abs=1e-6)
    assert fits["M2"].converged and fits["M3"].converged


def test_m1_and_m2_leave_the_weibull_ridge_and_m4_picks_m1():
    # none, n = 2000, replicate 6: the leg from L-BFGS-B's end certified M1
    # at -2971.1524 on the Weibull ridge (beta1_sex about -20.6), and M2 from
    # there at -2969.3966 with gamma on its floor, so M4 picked M3.  The leg
    # from the model's start certifies both 13.6 higher.
    fits = fit_all(_preset_cohort("none", 2000, 6))
    for model, ll in (("M1", -2957.5406), ("M2", -2957.5361)):
        assert fits[model].converged
        assert fits[model].loglik_comparable == pytest.approx(ll, abs=1e-4)
    assert select_m4(fits)[0].model == "M1"


def test_only_m1_runs_lbfgsb_once_per_start(monkeypatch):
    # M2 and M3 are refined by the trust region alone; M1 runs one L-BFGS-B
    # per start, here the default and one random restart
    cohort, cfg, calls = _frailty_cohort(0), FitConfig(multi_starts=1), []
    lbfgsb = estimation.minimize

    def spy(*args, **kwargs):
        calls.append(kwargs["method"])
        return lbfgsb(*args, **kwargs)

    monkeypatch.setattr(estimation, "minimize", spy)
    m1 = fit("M1", cohort, cfg)
    assert calls == ["L-BFGS-B", "L-BFGS-B"]
    m2 = fit("M2", cohort, cfg, init=m1.estimates)
    fit("M3", cohort, cfg, init=m2.estimates[: m1.k])
    assert len(calls) == 2


def _canned_m2(monkeypatch, ends):
    """M2 from the default GH start with two random starts, each start's
    trust-region run replaced by a canned end: the start itself, with the
    (ll, certified) that ``ends`` gives its origin.  Returns the fit and the
    profiled value at each start's point, keyed by origin."""
    values = {}

    def canned(obj, x, lo, hi, origin):
        values[origin] = -obj.value(x)
        ll, certified = ends[origin]
        return x, 0, ll, 0.0, certified, [f"trust region from {origin}: canned"]

    monkeypatch.setattr(estimation, "_leg", canned)
    cohort = sim_cohort(n=400, seed=11)
    init = ParamLayout.for_model("M1", cohort.covariate_names).default_init()
    return fit("M2", cohort, FitConfig(multi_starts=2), init=init), values


_START, _R1, _R2 = "the model's start", "random start 1", "random start 2"


@pytest.mark.parametrize(
    "ends, won, note",
    [
        ({_START: (-10.0, False), _R1: (-12.0, True), _R2: (-11.0, False)}, _R1,
         "best of 3 starts: random start 1, 1 certified on the KKT-free slots; "
         "an uncertified end lies 2 above it"),
        ({_START: (-10.0, True), _R1: (-10.0, True), _R2: (-11.0, False)}, _START,
         "best of 3 starts: the model's start, 2 certified on the KKT-free slots"),
        ({_START: (-12.0, False), _R1: (-10.0, False), _R2: (-11.0, False)}, _R1,
         "best of 3 starts: random start 1, 0 certified on the KKT-free slots"),
    ],
    ids=["certified-well-below-an-uncertified-end", "tie-keeps-the-first", "none-certified"],
)
def test_a_best_of_n_fit_keeps_the_best_certified_end_else_the_best_end(
    monkeypatch, ends, won, note
):
    # the loop keeps the highest certified end, else the highest end, the
    # first start winning a tie; its note names the winner, the certified
    # count and the gap to a higher uncertified end
    res, values = _canned_m2(monkeypatch, ends)
    assert res.notes[:3] == tuple(f"trust region from {o}: canned" for o in (_START, _R1, _R2))
    assert res.notes[3] == note
    assert res.loglik == pytest.approx(values[won], rel=1e-12)
    assert len(set(values.values())) == 3  # the starts are apart, so the ll names the winner


def test_a_fit_whose_every_start_is_rejected_raises(monkeypatch, caplog):
    # one path for every rejected start: a warning each, then the raise
    def rejected(objective, init, bounds=None):
        raise NonFiniteLikelihood("objective not finite at the CDA starting point")

    monkeypatch.setattr(estimation, "cda_warm_start", rejected)
    with pytest.raises(NonFiniteLikelihood, match="M1: no usable starting point"):
        fit("M1", sim_cohort(n=400, seed=11), FitConfig(multi_starts=2))
    assert [r.getMessage() for r in caplog.records] == [
        "M1: start rejected (non-finite likelihood)"
    ] * 3


def test_best_of_8_keeps_m1s_certified_end_below_an_uncertified_one():
    # lognormal, n = 1000, replicate 3: 7 of 8 starts certify M1 at
    # -1091.2906; random start 2 ends 1.684 higher, uncertified (max-norm
    # 0.262, lambda_min -189, with the curvature mismatch note), and was kept
    # when the highest end won whatever its flag
    m1 = fit("M1", _preset_cohort("lognormal", 1000, 3), FitConfig(multi_starts=7))
    assert m1.converged
    assert m1.loglik_comparable == pytest.approx(-1091.2906, abs=1e-4)
    pick = m1.notes[-1]
    assert pick.startswith("best of 8 starts: the model's start, 7 certified on the KKT-free "
                           "slots; ")
    gap = float(re.fullmatch(r".*an uncertified end lies (\S+) above it", pick).group(1))
    assert gap == pytest.approx(1.684, abs=1e-3)
    # every trust-region run names the start it came from
    runs = [n for n in m1.notes if n.startswith("trust region from ")]
    assert len(runs) == 8
    origin = r"(the model's start|random start [1-7])"
    assert all(re.match(rf"trust region from {origin}: ", n) for n in runs)
    assert any(n.startswith("trust region from random start 2: ") for n in runs)


@pytest.mark.parametrize("preset", ["moderate", "moderate-dropout"])
def test_best_of_8_m3_keeps_the_theta_floor_kkt_end_above_m1(preset):
    # n = 1000, replicate 4: M2's and M3's highest ends hold theta on its
    # floor with theta's gradient pointing out, so only the check on every
    # slot fails them; some M3 starts certify every slot at an end about 28
    # lower, below M1, with a singular information.  The pick certifies on
    # the KKT-free slots and keeps the higher end, flagged NotConverged.
    fits = fit_all(_preset_cohort(preset, 1000, 4), FitConfig(multi_starts=7))
    m1, m2, m3 = (fits[m] for m in MODELS)
    assert m1.loglik_comparable <= m2.loglik_comparable <= m3.loglik_comparable + 1e-6
    assert m1.converged and not m2.converged and not m3.converged
    assert "theta" in m3.at_bound
    (pick,) = [n for n in m3.notes if n.startswith("best of 8 starts: ")]
    assert pick.startswith("best of 8 starts: the model's start, ") and "uncertified" not in pick


_A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
_C = np.array([1.0, -0.5, 0.25])


class _Quadratic:
    """The value 0.5 (x - c)' A (x - c), its gradient A (x - c) and its
    Hessian A, which may be indefinite.  Logs each call: "vgh" for
    value_grad_hess and "v" for value."""

    def __init__(self, A):
        self.A = A
        self.calls = []

    def value_grad_hess(self, x):
        self.calls.append("vgh")
        return self._value(x), self.A @ (x - _C), self.A

    def _value(self, x):
        d = x - _C
        return 0.5 * float(d @ self.A @ d)

    def value(self, x):
        self.calls.append("v")
        return self._value(x)


def test_trust_region_ends_a_convex_quadratic_in_one_accepted_step():
    # the Newton step from x0 lies inside the first radius: one information
    # call, one trial value, and the information call that finds g = 0
    obj = _Quadratic(_A)
    k = len(_C)
    x0 = 0.5 * _C
    assert np.linalg.norm(_C - x0) < _TR_RADIUS0
    x, steps, ll, gnorm, certified = _trust_region(obj, x0, np.full(k, -10.0), np.full(k, 10.0))
    assert obj.calls == ["vgh", "v", "vgh"] and steps == 1 and certified
    assert np.allclose(x, _C, rtol=0, atol=1e-12)
    # ll and the max-norm are those of the last information call, at x
    assert (ll, gnorm) == (-obj._value(x), float(np.max(np.abs(_A @ (x - _C)))))


# indefinite: the value falls along e0 away from c, so its minima on the box
# c +/- 1 are c +/- e0
_SADDLE = np.diag([-1.0, 2.0, 1.0])


def test_trust_region_leaves_a_saddle_along_its_negative_curvature():
    obj = _Quadratic(_SADDLE)
    x, steps, *_ = _trust_region(obj, _C + np.array([0.1, 0.3, -0.2]), _C - 1.0, _C + 1.0)
    assert steps >= 1
    assert x[0] == _C[0] + 1.0
    assert np.allclose(x[1:], _C[1:], rtol=0, atol=1e-9)


def test_trust_region_hard_case_steps_along_the_negative_curvature_without_a_warning():
    # g = (0, 0.6, -0.2) has no part along e0, the eigenvector of -1: every
    # shift l > 1 leaves |s(l)| < 0.5 and the step reaches the radius along e0
    g = _SADDLE @ np.array([0.0, 0.3, -0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = _trust_step(g, _SADDLE, 1.0)
        obj = _Quadratic(_SADDLE)
        x, *_ = _trust_region(obj, _C + np.array([0.0, 0.3, -0.2]), _C - 1.0, _C + 1.0)
    assert np.linalg.norm(s) == pytest.approx(1.0, rel=1e-12)
    assert abs(s[0]) > 0.9
    assert g @ s + 0.5 * s @ _SADDLE @ s < 0
    assert abs(x[0] - _C[0]) == 1.0
    assert np.allclose(x[1:], _C[1:], rtol=0, atol=1e-9)


def test_trust_region_stops_on_the_box_edge_where_the_gradient_points_out():
    # the minimum over x2 <= 0 has x2 on the edge, where the gradient points
    # out of the box; the other two slots solve A's first two rows.  That KKT
    # point is certified although its full max-norm fails the check.
    obj = _Quadratic(_A)
    lo, hi = np.full(3, -10.0), np.array([10.0, 10.0, 0.0])
    x, _, ll, gnorm, certified = _trust_region(obj, np.array([0.0, 0.0, -0.5]), lo, hi)
    assert x[2] == 0.0
    expected = _C[:2] + np.linalg.solve(_A[:2, :2], _A[:2, 2] * _C[2])
    assert np.allclose(x[:2], expected, rtol=0, atol=1e-9)
    g = _A @ (x - _C)
    assert g[2] < 0 and np.max(np.abs(g[:2])) <= 1e-9
    assert certified and gnorm == pytest.approx(-g[2], rel=1e-12) and gnorm > _grad_check_tol(ll)


@pytest.mark.parametrize("edge, certified", [("upper", True), ("lower", False)])
def test_the_certificate_excuses_only_a_gradient_pointing_out_of_the_box(
    monkeypatch, edge, certified
):
    # the end of the previous test, with no iteration run: x2 = 0 is the upper
    # edge of x2 <= 0, where g2 < 0 points out, or the lower edge of x2 >= 0,
    # where it points in and the slot stays free
    monkeypatch.setattr(estimation, "_TR_MAX_ITER", 0)
    x0 = np.append(_C[:2] + np.linalg.solve(_A[:2, :2], _A[:2, 2] * _C[2]), 0.0)
    lo, hi = np.full(3, -10.0), np.full(3, 10.0)
    (hi if edge == "upper" else lo)[2] = 0.0
    x, steps, ll, gnorm, passed = _trust_region(_Quadratic(_A), x0, lo, hi)
    assert steps == 0 and np.array_equal(x, x0) and gnorm > _grad_check_tol(ll)
    assert passed is certified


def test_trust_region_shrinks_the_radius_at_a_rejected_point_and_never_takes_it():
    # From (0.4, 1.2) the first trial is clipped into the toy's rejected
    # strip.  The radius falls to a quarter of that step, the next trial
    # lies within it, and the run ends at the box minimum (1, -1).  Each
    # trial costs one value call and each step taken one information call
    # at the trial's point.
    obj = _Toy()
    x0 = np.array([0.4, 1.2])
    x, steps, *_ = _trust_region(obj, x0, np.array([-1.0, -2.0]), np.array([1.0, 2.0]))
    assert np.allclose(x, [1.0, -1.0], rtol=0, atol=1e-9)
    assert set(obj.calls) == {"vgh", "v"} and obj.calls[0] == "vgh"
    trials = [p for c, p in zip(obj.calls, obj.points) if c == "v"]
    rejected = [i for i, p in enumerate(trials) if obj._value_and_grad(p)[0] >= _BIG]
    assert rejected == [0]
    assert np.linalg.norm(trials[1] - x0) <= 0.25 * _TR_RADIUS0 + 1e-12
    taken = [p for c, p in zip(obj.calls, obj.points) if c == "vgh"]
    assert len(taken) == steps + 1 and len(trials) == steps + 1
    for i in range(1, len(obj.calls)):
        if obj.calls[i] == "vgh":  # only a trial just scored is taken
            assert obj.calls[i - 1] == "v" and np.array_equal(obj.points[i], obj.points[i - 1])
    values = [obj._value_and_grad(p)[0] for p in taken]
    assert all(a > b for a, b in zip(values, values[1:]))


class _NoGradientStrip(_Toy):
    """_Toy whose value is finite on its strip: only the passes with a
    gradient are rejected there."""

    def value(self, x):
        self._log("v", x)
        a, b = x[0] - 3.0, x[1] - x[0] + 2.0
        return a * a + 10.0 * b * b


def test_trust_region_never_takes_a_trial_whose_information_pass_is_rejected():
    # As above, but the first trial's value is finite and passes the ratio
    # test.  Its information pass is rejected, so x stays and the radius
    # falls to a quarter of the step, as for a failed ratio test; the run
    # then ends at the box minimum with a finite gradient.
    obj = _NoGradientStrip()
    x0 = np.array([0.4, 1.2])
    x, steps, ll, gnorm, _ = _trust_region(obj, x0, np.array([-1.0, -2.0]), np.array([1.0, 2.0]))
    assert np.allclose(x, [1.0, -1.0], rtol=0, atol=1e-9)
    assert ll == pytest.approx(-4.0, abs=1e-9) and gnorm == pytest.approx(4.0, abs=1e-6)
    trials = [p for c, p in zip(obj.calls, obj.points) if c == "v"]
    passes = [p for c, p in zip(obj.calls, obj.points) if c == "vgh"]
    assert obj.value(trials[0]) < obj._value_and_grad(x0)[0]
    assert np.array_equal(passes[1], trials[0]) and obj._value_and_grad(trials[0])[0] >= _BIG
    assert np.linalg.norm(trials[1] - x0) <= 0.25 * _TR_RADIUS0 + 1e-12
    assert len(passes) == steps + 2


class _Offset(_Quadratic):
    """_Quadratic plus a constant: its values round to multiples of the
    constant's ulp."""

    def __init__(self, A, offset):
        super().__init__(A)
        self.offset = offset

    def _value(self, x):
        return self.offset + super()._value(x)


def test_trust_region_takes_a_step_whose_predicted_decrease_is_below_the_rounding_of_f():
    # f = 1e6 + 0.5 d'Ad with A = 1e8 _A and d = 1e-10 e0: the Newton step's
    # predicted decrease, 2e-12, is below |f| eps = 2.2e-10, so f rounds to
    # 1e6 at both ends and the actual decrease reads 0, while the gradient
    # (0.04) is above the stop (0.2 * 6.1e-3).  The guard judges the step
    # by the model and takes it; without it the radius shrinks to its floor
    # and x stays.
    obj = _Offset(1e8 * _A, 1e6)
    x0 = _C + np.array([1e-10, 0.0, 0.0])
    d = x0 - _C
    assert 0.5 * d @ obj.A @ d < 1e6 * np.finfo(float).eps
    assert obj._value(x0) == obj._value(_C) == 1e6
    assert np.max(np.abs(obj.A @ d)) > 0.2 * _grad_check_tol(-1e6)
    x, steps, ll, gnorm, _ = _trust_region(obj, x0, _C - 1.0, _C + 1.0)
    assert steps == 1 and obj.calls == ["vgh", "v", "vgh"]
    assert ll == -1e6 and gnorm <= 0.2 * _grad_check_tol(ll)


def _preset_cohort(preset, n, index):
    """Replicate ``index`` of a preset at size n, drop-out calibrated as in
    the recovery study when the preset has a target."""
    table = design_life_table()
    sc = replace(builtin_scenarios()[preset], n=n)
    if sc.dropout_target is not None:
        rate, _ = calibrate_dropout_rate(sc, sc.dropout_target, table)
        sc = replace(sc, dropout_rate=rate, dropout_target=None)
    return replicate_cohort(sc, index, table)


def test_trust_region_reaches_the_stationary_point_beyond_an_indefinite_lbfgsb_end():
    # wide-dropout, n = 1000, replicate 8, drop-out calibrated as in the
    # recovery study.  L-BFGS-B stopped M3 where the information matrix is
    # indefinite, and before the trust region the fit ended "converged"
    # after 2231 evals, 0.105 below the stationary point at -1192.780928,
    # where H is positive definite.  The one trust-region run from the scan's
    # best point reaches it.
    m3 = fit_all(_preset_cohort("wide-dropout", 1000, 8))["M3"]
    assert m3.converged
    assert m3.loglik >= -1192.780928 - 1e-6
    assert m3.min_eig > 0
    assert m3.n_evals <= 600
    (note,) = [n for n in m3.notes if n.startswith("trust region from ")]
    assert note.startswith("trust region from the model's start: ") and note.endswith(", certified")


def test_the_rounding_guard_certifies_m3_one_step_short_of_the_rounding_floor():
    # wide, n = 1000, replicate 9.  Without the guard the trust region ends
    # M3 at ll -1312.825173 one step short, at the rounding floor of its
    # ratio test: gradient max-norm 1.2e-5 against a tolerance of 7.96e-6.
    # With it, the run from the scan's best point certifies the same ll.
    m3 = fit_all(_preset_cohort("wide", 1000, 9))["M3"]
    assert m3.converged
    assert m3.loglik_comparable == pytest.approx(-1312.825173, abs=1e-6)
    assert any(n.startswith("trust region from the model's start: ") and n.endswith(", certified")
               for n in m3.notes)


def test_a_rejected_point_gives_a_nan_curvature_mismatch():
    # x + h v lands in the toy's rejected strip; a Hessian that is not
    # finite gives NaN before any gradient call
    obj = _Toy()
    H = obj.value_grad_hess(np.zeros(2))[2]
    assert math.isnan(_curvature_mismatch(obj.grad, np.array([0.99 - 5e-5, 0.6]), H, _eigh(H)))
    calls = []
    H = np.full((2, 2), np.nan)
    assert math.isnan(_curvature_mismatch(calls.append, np.zeros(2), H, _eigh(H)))
    assert calls == []


def test_fit_without_init_starts_m1_at_the_default_and_leaves_m2_and_m3_to_fit_all():
    # fit_all is the only chain: M2 and M3 start where the model they extend ends
    cohort = sim_cohort(n=400, seed=11)
    for model in ("M2", "M3"):
        with pytest.raises(ValueError, match=f"^{model} needs init, .*: use fit_all$"):
            fit(model, cohort)
    res = fit("M1", cohort)
    default = ParamLayout.for_model("M1", cohort.covariate_names).default_init()
    start = fit("M1", cohort, init=default)
    assert np.array_equal(res.estimates, start.estimates)
    assert res.loglik == start.loglik and res.n_evals == start.n_evals


def test_the_gradient_is_a_gradient_at_converged_fits_and_not_at_m2s_tail_end(
    fits_1500, m3_interior
):
    # at the converged M1 fit and an interior M3 fit the change of the
    # gradient along the softest direction is the analytic Hessian's
    # (mismatch 1.0e-9 and 6.0e-12); M2 ends with alpha on e^20, where the
    # analytic gradient is off the value's (1.2e-4)
    cohort, fits = fits_1500
    assert _CURVATURE_TOL == 1e-6
    for end_cohort, res in ((cohort, fits["M1"]), m3_interior):
        assert res.converged
        obj, _, x_hat = _search_point(res, end_cohort)
        H = obj.value_grad_hess(x_hat)[2]
        assert _curvature_mismatch(obj.grad, x_hat, H, _eigh(H)) <= 1e-8
        assert not [n for n in res.notes if n.startswith("SEs from")]
    res = fits["M2"]
    obj, _, x_hat = _search_point(res, cohort)
    H = obj.value_grad_hess(x_hat)[2]
    mismatch = _curvature_mismatch(obj.grad, x_hat, H, _eigh(H))
    assert mismatch > _CURVATURE_TOL
    assert (
        "SEs from a gradient that is not the log-likelihood's: its curvature mismatch "
        f"at the estimate is {mismatch:.3g}"
    ) in res.notes


# ---------------------------------------------------------------------------
# confidence intervals
# ---------------------------------------------------------------------------

def test_z_quantile_95():
    res = FitResult(
        layout=ParamLayout.for_model("M1", ()),
        estimates=np.array([1.0, 1.0, 2.0]),
        std_errors=np.ones(3),
        cov_transformed=np.eye(3),
        loglik=0.0,
        loglik_comparable=0.0,
        aic=2.0,
        converged=True,
        grad_max_norm=0.0,
        n_evals=0,
        n_iter=0,
        at_bound=(),
    )
    lo, hi = confidence_intervals(res)["kappa"]
    assert hi - 1.0 == pytest.approx(1.959964, abs=1e-6)
    assert 1.0 - lo == pytest.approx(1.959964, abs=1e-6)
    lo, hi = confidence_intervals(res, level=0.90)["kappa"]
    assert hi - 1.0 == pytest.approx(1.644854, abs=1e-6)
    assert 1.0 - lo == pytest.approx(1.644854, abs=1e-6)


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, math.nan])
def test_wald_level_outside_the_open_unit_interval_is_rejected(m1_fit, level):
    with pytest.raises(ValueError, match=r"level must be in \(0, 1\)"):
        confidence_intervals(m1_fit[1], level=level)


def test_zero_se_gives_zero_width():
    res = FitResult(
        layout=ParamLayout.for_model("M1", ()),
        estimates=np.array([2.0, 1.0, 2.0]),
        std_errors=np.zeros(3),
        cov_transformed=np.eye(3),
        loglik=0.0,
        loglik_comparable=0.0,
        aic=2.0,
        converged=True,
        grad_max_norm=0.0,
        n_evals=0,
        n_iter=0,
        at_bound=(),
    )
    lo, hi = confidence_intervals(res)["kappa"]
    assert lo == hi == 2.0


def test_ci_matches_analytic_toy(m1_fit):
    # Wald interval on a known-curvature quadratic: +/- z / sqrt(curvature)
    curv = 25.0
    H = np.array([[curv]])
    cov, problem = _covariance(_eigh(H))
    assert problem is None
    se = math.sqrt(cov[0, 0])
    assert se == pytest.approx(1.0 / math.sqrt(curv), rel=1e-12)


def test_ses_unavailable_raises():
    res = FitResult(
        layout=ParamLayout.for_model("M1", ()),
        estimates=np.array([1.0, 1.0, 2.0]),
        std_errors=None,
        cov_transformed=None,
        loglik=0.0,
        loglik_comparable=0.0,
        aic=2.0,
        converged=True,
        grad_max_norm=0.0,
        n_evals=0,
        n_iter=0,
        at_bound=(),
    )
    with pytest.raises(SEsUnavailable):
        confidence_intervals(res)


def test_covariance_flags_negative_eigenvalues():
    cov, problem = _covariance(_eigh(np.array([[1.0, 0.0], [0.0, -0.5]])))
    assert cov is None
    assert problem == "information matrix not positive definite; SEs unavailable"


def test_covariance_names_a_nonfinite_entry_apart_from_a_negative_eigenvalue():
    # a rejected point or an overflow leaves NaN in the Hessian: that is not
    # a statement about definiteness, and the note says which it is
    cov, problem = _covariance(_eigh(np.array([[1.0, np.nan], [np.nan, 2.0]])))
    assert cov is None
    assert problem == "information matrix not finite (a rejected point or an overflow); SEs unavailable"


# ---------------------------------------------------------------------------
# M4 selection
# ---------------------------------------------------------------------------

def _mini_fit(model, aic, converged=True, gamma=2.0, mu=3.0):
    correction = {"M1": [], "M2": [gamma], "M3": [mu, 0.5]}[model]
    return FitResult(
        layout=ParamLayout.for_model(model, ()),
        estimates=np.array([1.0, 1.0, 2.0, *correction]),
        std_errors=None,
        cov_transformed=None,
        loglik=0.0,
        loglik_comparable=0.0,
        aic=aic,
        converged=converged,
        grad_max_norm=0.0,
        n_evals=0,
        n_iter=0,
        at_bound=(),
    )


def test_select_m1_on_lowest_aic():
    chosen, c = select_m4(
        {"M1": _mini_fit("M1", 100.0), "M2": _mini_fit("M2", 102.0), "M3": _mini_fit("M3", 103.0)}
    )
    assert chosen.model == "M1" and c == 1.0


def test_select_tie_prefers_fewer_parameters():
    chosen, c = select_m4(
        {"M1": _mini_fit("M1", 100.0), "M2": _mini_fit("M2", 100.0), "M3": _mini_fit("M3", 105.0)}
    )
    assert chosen.model == "M1" and c == 1.0


def test_select_reports_correction_estimate():
    chosen, c = select_m4(
        {"M1": _mini_fit("M1", 109.0), "M2": _mini_fit("M2", 102.0, gamma=2.5),
         "M3": _mini_fit("M3", 103.0)}
    )
    assert chosen.model == "M2" and c == 2.5
    chosen, c = select_m4({"M3": _mini_fit("M3", 90.0, mu=6.6)})
    assert chosen.model == "M3" and c == 6.6


def test_select_excludes_nonconverged_and_raises_when_empty(caplog):
    # the fit's converged flag records the exclusion; the log stays quiet
    caplog.set_level("WARNING")
    chosen, c = select_m4(
        {"M1": _mini_fit("M1", 100.0, converged=False), "M2": _mini_fit("M2", 102.0, gamma=2.5),
         "M3": _mini_fit("M3", 103.0)}
    )
    assert chosen.model == "M2" and c == 2.5
    assert caplog.records == []
    with pytest.raises(NoEligibleFit):
        select_m4({"M1": _mini_fit("M1", 100.0, converged=False)})
