"""GH structure: reduction identities, quadrature checks, and the inverse map."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import ew_closed_form, gh_params, model_params
from exhaz.errors import NonPositive, NumericalOverflow
from exhaz.gh_model import (
    excess_cum_hazard,
    excess_hazard,
    inverse_excess_survival,
    net_survival,
)
from exhaz.likelihoods import ParamLayout, _terms
from exhaz.simulation import (
    DESIGN1_GH as TRUTH,
    builtin_scenarios,
    design_life_table,
    replicate_cohort,
)

BASE = tuple(TRUTH.baseline.tolist())  # (kappa, theta, alpha)


def ew_hazard(t, base):
    return ew_closed_form(t, *base)[2]


def ew_cum_hazard(t, base):
    return ew_closed_form(t, *base)[3]


def ew_survival(t, base):
    return ew_closed_form(t, *base)[1]


def random_params(rng, p=3):
    base = (rng.uniform(0.4, 2.0), rng.uniform(0.5, 4.0), rng.uniform(0.5, 3.0))
    return gh_params(base, beta1=rng.normal(0, 0.3, p), beta2=rng.normal(0, 0.3, p))


# ---------------------------------------------------------------------------
# reduction identities: PH (beta1=0), AH (beta2=0), AFT (beta1=beta2)
# ---------------------------------------------------------------------------

def test_ph_reduction_exact():
    rng = np.random.default_rng(1)
    b2 = np.array([0.3, -0.2])
    p = gh_params(BASE, beta1=np.zeros(2), beta2=b2)
    for _ in range(20):
        t = float(rng.uniform(0.05, 10))
        x = rng.normal(0, 1, 2)
        ph = ew_hazard(t, BASE) * math.exp(x @ b2)
        assert abs(excess_hazard(t, x, p) - ph) <= 1e-14 * max(1.0, abs(ph))


def test_ah_reduction_exact():
    rng = np.random.default_rng(2)
    b1 = np.array([0.25, -0.15])
    p = gh_params(BASE, beta1=b1, beta2=np.zeros(2))
    for _ in range(20):
        t = float(rng.uniform(0.05, 10))
        x = rng.normal(0, 1, 2)
        ah = ew_cum_hazard(t * math.exp(x @ b1), BASE) * math.exp(-(x @ b1))
        got = excess_cum_hazard(t, x, p)
        assert abs(got - ah) <= 1e-14 * max(1.0, abs(ah))


def test_aft_reduction_survival_identity():
    # beta1 = beta2: S_E(t; x) = S0(t e^{x'b})
    b = np.array([0.2, -0.3, 0.1])
    p = gh_params(BASE, beta1=b, beta2=b)
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = float(rng.uniform(0.05, 10))
        x = rng.normal(0, 1, 3)
        lhs = net_survival(t, x, p)
        rhs = ew_survival(t * math.exp(x @ b), BASE)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_x_zero_gives_baseline():
    x = np.zeros(3)
    for t in (0.1, 1.0, 5.0):
        assert excess_hazard(t, x, TRUTH) == pytest.approx(ew_hazard(t, BASE), rel=1e-14)
        assert excess_cum_hazard(t, x, TRUTH) == pytest.approx(ew_cum_hazard(t, BASE), rel=1e-14)


def test_no_covariate_model_supported():
    p = gh_params(BASE)
    assert excess_hazard(2.0, np.zeros(0), p) == pytest.approx(ew_hazard(2.0, BASE))
    X = np.zeros((4, 0))
    assert excess_hazard(np.full(4, 2.0), X, p) == pytest.approx(ew_hazard(2.0, BASE))


# ---------------------------------------------------------------------------
# cumulative hazard vs quadrature, survival properties
# ---------------------------------------------------------------------------

def test_cum_hazard_matches_quadrature():
    rng = np.random.default_rng(4)
    for _ in range(5):
        p = random_params(rng)
        x = rng.normal(0, 1, 3)
        for t in (0.5, 2.0, 6.0):
            val, _ = quad(lambda s: float(excess_hazard(s, x, p)), 0, t, limit=300)
            assert excess_cum_hazard(t, x, p) == pytest.approx(val, abs=1e-8)


def test_cum_hazard_zero_at_zero_and_nondecreasing():
    x = np.array([0.5, 1.0, -0.3])
    assert excess_cum_hazard(0.0, x, TRUTH) == 0.0
    grid = np.linspace(0.0, 15.0, 200)
    vals = np.array([float(excess_cum_hazard(t, x, TRUTH)) for t in grid])
    assert np.all(np.diff(vals) >= 0)


def test_cum_hazard_derivative_matches_hazard():
    rng = np.random.default_rng(5)
    p = random_params(rng)
    x = rng.normal(0, 1, 3)
    for t in (0.3, 1.2, 4.0):
        h = 1e-5 * max(t, 1.0)
        fd = (excess_cum_hazard(t + h, x, p) - excess_cum_hazard(t - h, x, p)) / (2 * h)
        assert float(excess_hazard(t, x, p)) == pytest.approx(float(fd), rel=1e-6)


def test_net_survival_range_and_boundary():
    x = np.array([1.0, 0.0, 1.0])
    assert net_survival(0.0, x, TRUTH) == 1.0
    grid = np.linspace(0.01, 20.0, 100)
    s = np.array([float(net_survival(t, x, TRUTH)) for t in grid])
    assert np.all((s > 0) & (s < 1))
    assert np.all(np.diff(s) < 0)


def test_net_survival_closed_form_at_zero_covariates():
    # exp(-H0(5)) via the EW closed form
    expected = math.exp(-ew_cum_hazard(5.0, BASE))
    assert net_survival(5.0, np.zeros(3), TRUTH) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# inverse map
# ---------------------------------------------------------------------------

def test_inverse_round_trip():
    rng = np.random.default_rng(6)
    for u in (0.05, 0.5, 0.95):
        x = rng.normal(0, 1, 3)
        t = inverse_excess_survival(u, x, TRUTH)
        assert net_survival(t, x, TRUTH) == pytest.approx(u, rel=1e-10)


def test_inverse_at_x_zero_reduces_to_ew():
    u = 0.37
    t = inverse_excess_survival(u, np.zeros(3), TRUTH)
    assert ew_survival(t, BASE) == pytest.approx(u, rel=1e-12)


def test_inverse_rejects_u_outside_the_open_unit_interval():
    for u in (0.0, 1.0, math.nan, [0.5, math.nan]):
        with pytest.raises(ValueError, match=r"u must be in \(0, 1\)"):
            inverse_excess_survival(u, np.zeros(3), TRUTH)


def test_simulated_times_match_net_survival_dkw():
    # empirical survival of 1e5 draws within the DKW 99% band
    rng = np.random.default_rng(7)
    x = np.array([0.5, 1.0, 0.0])
    n = 100_000
    u = rng.uniform(size=n)
    times = inverse_excess_survival(u, x, TRUTH)
    eps = math.sqrt(math.log(2 / 0.01) / (2 * n))
    for t in np.linspace(0.25, 10.0, 20):
        emp = float(np.mean(times > t))
        assert abs(emp - float(net_survival(t, x, TRUTH))) < eps


# ---------------------------------------------------------------------------
# the public functions and the likelihood share one GH kernel
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def moderate_cohort():
    sc = builtin_scenarios()["moderate"]
    table = design_life_table()
    return replicate_cohort(sc, 0, table)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize(
    "gh",
    [TRUTH, gh_params(BASE, beta1=np.array([0.3, -2.0, 1.5]), beta2=TRUTH.beta2)],
    ids=["truth", "large-beta1"],
)
def test_public_functions_equal_likelihood_terms_bitwise(moderate_cohort, gh):
    # the M2 and M3 params share the M1 GH slots, and the public functions
    # read only those, so all three give the likelihood's bits
    cohort = moderate_cohort
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        aux = _terms(model_params(gh), cohort, comparable=False)[1]
    he, HE = aux[8], aux[9]
    t, X = cohort.time, cohort.X
    for params in (gh, model_params(gh, 1.7), model_params(gh, 1.2, 0.02)):
        assert np.array_equal(_bits(excess_hazard(t, X, params)), _bits(he))
        assert np.array_equal(_bits(excess_cum_hazard(t, X, params)), _bits(HE))
        assert np.array_equal(_bits(net_survival(t, X, params)), _bits(np.exp(-HE)))


def test_conventions_at_nonpositive_times():
    x = np.array([0.5, 1.0, -0.3])
    for t in (0.0, -1.5, np.array(0.0), np.array(-2.0)):
        for fn, at_zero in ((excess_hazard, 0.0), (excess_cum_hazard, 0.0), (net_survival, 1.0)):
            got = fn(t, x, TRUTH)
            assert np.ndim(got) == 0 and got == at_zero, (fn.__name__, t)
    t = np.array([-1.0, 0.0, 0.5, 2.0, -0.0, 7.0])
    pos = t > 0
    h, H, S = excess_hazard(t, x, TRUTH), excess_cum_hazard(t, x, TRUTH), net_survival(t, x, TRUTH)
    assert h.shape == H.shape == S.shape == t.shape
    assert np.all(h[~pos] == 0.0) and np.all(H[~pos] == 0.0) and np.all(S[~pos] == 1.0)
    for i in np.flatnonzero(pos):
        assert h[i] == pytest.approx(excess_hazard(t[i], x, TRUTH), rel=1e-15)
        assert H[i] == pytest.approx(excess_cum_hazard(t[i], x, TRUTH), rel=1e-15)
        assert S[i] == pytest.approx(net_survival(t[i], x, TRUTH), rel=1e-15)
        assert S[i] == pytest.approx(math.exp(-H[i]), rel=1e-15)


def test_scalar_times_give_the_bits_of_a_vector_of_times():
    # w = (t e^{x'b1} / theta)^kappa is about 286 at t = 15 and 2034 at t = 40:
    # past 600 the kernel patches log S by index, on a 0-d array too
    x = np.array([0.5, 1.0, -0.3])
    p = gh_params((2.0, 1.0, 3.0), TRUTH.beta1, TRUTH.beta2)
    times = np.array([0.3, 2.0, 15.0, 40.0])
    for fn in (excess_hazard, excess_cum_hazard, net_survival):
        want = fn(times, x, p)
        for i, t in enumerate(times):
            for scalar in (float(t), np.float64(t), np.array(t)):
                got = fn(scalar, x, p)
                assert np.ndim(got) == 0 and float(got).hex() == want[i].hex(), (fn.__name__, t)


def test_hazard_overflow_raises():
    # at t = 1e300, w = (t/theta)^kappa overflows, and so do h0 and H0
    p = gh_params((2.0, 1.0, 3.0))
    with pytest.raises(NumericalOverflow):
        excess_hazard(np.array([1.0, 1e300]), np.zeros(0), p)
    with pytest.raises(NumericalOverflow):
        excess_cum_hazard(np.array([1.0, 1e300]), np.zeros(0), p)


@pytest.mark.parametrize("fn", [excess_hazard, excess_cum_hazard, net_survival])
def test_nan_time_raises_naming_it(fn):
    x = np.array([0.5, 1.0, -0.3])
    with pytest.raises(ValueError, match=r"time t\[1\] is NaN"):
        fn(np.array([1.0, np.nan, 2.0]), x, TRUTH)
    with pytest.raises(ValueError, match=r"time t is NaN"):
        fn(math.nan, x, TRUTH)


def test_public_functions_reject_bad_params():
    # the layout fixes the beta lengths; a NaN beta raises NonPositive
    # (the check every ModelParams makes) before any function runs
    layout = ParamLayout.for_model("M1", ("x1", "x2"))
    with pytest.raises(ValueError, match="M1 takes 7 parameters"):
        excess_hazard(1.0, np.zeros(2), layout.to_params([*BASE, 0.0, 0.0, 0.0, 0.0, 0.0]))
    with pytest.raises(NonPositive, match=r"positions \[3\]"):
        excess_hazard(1.0, np.zeros(2), layout.to_params([*BASE, math.nan, 0.0, 0.0, 0.0]))
