"""Transforms, CDA warm start, fitting, intervals, and M4 selection."""

import io
import math

import numpy as np
import pytest

from exhaz.distributions import GammaFrailtyParams, sample_gamma_frailty
from exhaz.errors import NoEligibleFit, NonPositive, SEsUnavailable
from exhaz.estimation import (
    _BIG,
    _HESSIAN_STEP,
    FitConfig,
    FitResult,
    ParamLayout,
    _covariance,
    _fd_hessian,
    _grad_hessian,
    _standardized_objective,
    cda_warm_start,
    confidence_intervals,
    fit,
    fit_all,
    read_fit_result,
    select_m4,
    transform_params,
    untransform_params,
    write_fit_result,
)
from exhaz.likelihoods import (
    ModelParams,
    PreparedCohort,
    SingleGamma,
    loglik,
    loglik_and_grad,
)

from conftest import TRUE_GH, sim_cohort


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


def test_delta_method_se_matches_natural_scale_hessian():
    # toy 1-parameter problem: Gaussian log-likelihood in log(theta), with the
    # closed-form gradient of the negative log-likelihood on each scale
    n_obs, spread, center = 50.0, 0.7, 0.4
    theta_hat = math.exp(center)

    def grad_nat(v):  # v = [theta]
        return np.array([n_obs * (math.log(v[0]) - center) / (spread**2 * v[0])])

    def grad_trans(v):  # v = [log theta]
        return np.array([n_obs * (v[0] - center) / spread**2])

    H_nat = _grad_hessian(grad_nat, np.array([theta_hat]), 1e-4)
    H_trans = _grad_hessian(grad_trans, np.array([center]), 1e-4)
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
        est, se = res.estimate(name), res.std_error(name)
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
    assert r1.multistart_best_of == 3


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
    with pytest.raises(OverflowError):
        loglik(params, cohort)
    assert loglik_and_grad(params, cohort) == (-math.inf, None)
    assert obj.value(x) == _BIG
    f, g = obj.value_and_grad(x)
    assert f == _BIG and np.array_equal(g, np.zeros(3))
    assert np.isnan(obj.grad(x)).all()


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
    k = 3 + 2 * cohort.n_covariates
    assert res.aic == pytest.approx(-2 * res.loglik_comparable + 2 * k, abs=1e-9)


def test_m1_comparable_loglik_restores_constant(m1_fit):
    cohort, res = m1_fit
    assert res.loglik_comparable == pytest.approx(res.loglik - cohort.sum_dhp(), abs=1e-9)


def test_fit_all_warm_starts_and_aic_alignment():
    cohort = sim_cohort(n=1500, seed=19)
    fits = fit_all(cohort)
    assert set(fits) == {"M1", "M2", "M3"}
    # M2 at its optimum can never be worse than M1 on the comparable scale
    assert fits["M2"].loglik_comparable >= fits["M1"].loglik_comparable - 1e-6
    # AIC comparability: identical likelihood conventions across models
    params_g1 = ModelParams(fits["M1"].to_model_params().gh, SingleGamma(1.0))
    l2_at_g1 = loglik(params_g1, cohort, comparable=True)
    l1c = loglik(fits["M1"].to_model_params(), cohort, comparable=True)
    assert l2_at_g1 == l1c


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


def test_gradient_hessian_ses_match_value_fd_on_interior_m3_fit():
    cohort = _frailty_cohort(0)
    res = fit("M3", cohort)
    assert res.converged and res.hessian_pd
    assert not any(note.startswith("parameters at box bound") for note in res.notes)
    obj, slot_scale, x_hat = _search_point(res, cohort)
    cov_fd, pd = _covariance(_fd_hessian(obj.value, x_hat, _HESSIAN_STEP))
    assert pd
    se_fd = np.sqrt(np.diag(cov_fd))
    se_fit = np.sqrt(np.diag(res.cov_transformed)) * slot_scale
    assert se_fit == pytest.approx(se_fd, rel=1e-3)


def test_boundary_collapse_has_stable_nonnegative_information():
    # No frailty signal left in this cohort: b collapses onto its lower bound
    # e^-20 and the information along log b is ~1e-10.  Value differences
    # at these steps give a negative eigenvalue that changes with h.
    cohort = _frailty_cohort(3)
    res = fit("M3", cohort)
    assert res.converged and res.hessian_pd and res.ses_available
    assert "parameters at box bound: b" in res.notes
    assert res.estimate("b") == pytest.approx(math.exp(-20.0), rel=1e-6)
    assert res.std_error("b") > 1e3 * res.estimate("b")
    obj, _, x_hat = _search_point(res, cohort)
    smallest = [
        np.linalg.eigvalsh(_grad_hessian(obj.grad, x_hat, h))[0] for h in (1e-3, 1e-4, 1e-5)
    ]
    assert min(smallest) >= 0.0
    assert smallest == pytest.approx([smallest[1]] * 3, rel=1e-3)


# ---------------------------------------------------------------------------
# confidence intervals
# ---------------------------------------------------------------------------

def test_z_quantile_95():
    res = FitResult(
        model="M1",
        param_names=("kappa",),
        estimates=np.array([1.0]),
        std_errors=np.array([1.0]),
        cov_transformed=np.eye(1),
        loglik=0.0,
        loglik_comparable=0.0,
        aic=2.0,
        converged=True,
        hessian_pd=True,
        grad_max_norm=0.0,
        n_evals=0,
        n_iter=0,
        multistart_best_of=1,
    )
    lo, hi = confidence_intervals(res)["kappa"]
    assert hi - 1.0 == pytest.approx(1.959964, abs=1e-6)
    assert 1.0 - lo == pytest.approx(1.959964, abs=1e-6)
    lo, hi = confidence_intervals(res, level=0.90)["kappa"]
    assert hi - 1.0 == pytest.approx(1.644854, abs=1e-6)
    assert 1.0 - lo == pytest.approx(1.644854, abs=1e-6)


def test_zero_se_gives_zero_width():
    res = FitResult(
        model="M1",
        param_names=("kappa",),
        estimates=np.array([2.0]),
        std_errors=np.array([0.0]),
        cov_transformed=np.eye(1),
        loglik=0.0,
        loglik_comparable=0.0,
        aic=2.0,
        converged=True,
        hessian_pd=True,
        grad_max_norm=0.0,
        n_evals=0,
        n_iter=0,
        multistart_best_of=1,
    )
    lo, hi = confidence_intervals(res)["kappa"]
    assert lo == hi == 2.0


def test_ci_matches_analytic_toy(m1_fit):
    # Wald interval on a known-curvature quadratic: +/- z / sqrt(curvature)
    curv = 25.0
    H = np.array([[curv]])
    cov, pd = _covariance(H)
    assert pd
    se = math.sqrt(cov[0, 0])
    assert se == pytest.approx(1.0 / math.sqrt(curv), rel=1e-12)


def test_ses_unavailable_raises():
    res = FitResult(
        model="M1",
        param_names=("kappa",),
        estimates=np.array([1.0]),
        std_errors=None,
        cov_transformed=None,
        loglik=0.0,
        loglik_comparable=0.0,
        aic=2.0,
        converged=True,
        hessian_pd=False,
        grad_max_norm=0.0,
        n_evals=0,
        n_iter=0,
        multistart_best_of=1,
    )
    with pytest.raises(SEsUnavailable):
        confidence_intervals(res)


def test_covariance_flags_negative_eigenvalues():
    cov, pd = _covariance(np.array([[1.0, 0.0], [0.0, -0.5]]))
    assert not pd and cov is None


# ---------------------------------------------------------------------------
# M4 selection
# ---------------------------------------------------------------------------

def _mini_fit(model, aic, converged=True, gamma=2.0, mu=3.0):
    names = {"M1": ("kappa",), "M2": ("kappa", "gamma"), "M3": ("kappa", "mu", "b")}[model]
    ests = {"M1": [1.0], "M2": [1.0, gamma], "M3": [1.0, mu, 0.5]}[model]
    return FitResult(
        model=model,
        param_names=names,
        estimates=np.array(ests),
        std_errors=None,
        cov_transformed=None,
        loglik=0.0,
        loglik_comparable=0.0,
        aic=aic,
        converged=converged,
        hessian_pd=True,
        grad_max_norm=0.0,
        n_evals=0,
        n_iter=0,
        multistart_best_of=1,
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


def test_select_excludes_nonconverged_and_raises_when_empty():
    chosen, _ = select_m4(
        {"M1": _mini_fit("M1", 100.0, converged=False), "M2": _mini_fit("M2", 102.0)}
    )
    assert chosen.model == "M2"
    with pytest.raises(NoEligibleFit):
        select_m4({"M1": _mini_fit("M1", 100.0, converged=False)})


# ---------------------------------------------------------------------------
# serialization round trip
# ---------------------------------------------------------------------------

def test_fit_result_round_trip(m1_fit):
    _, res = m1_fit
    buf = io.StringIO()
    write_fit_result(res, buf)
    buf.seek(0)
    parsed = read_fit_result(buf)
    assert parsed.model == res.model
    assert parsed.param_names == res.param_names
    assert np.array_equal(parsed.estimates, res.estimates)
    assert np.array_equal(parsed.std_errors, res.std_errors)
    assert parsed.loglik == res.loglik
    assert parsed.aic == res.aic
    assert parsed.converged == res.converged
    # params rebuild for prediction
    mp = parsed.to_model_params()
    assert mp.model == "M1"
    assert mp.gh.baseline.kappa == res.estimate("kappa")
