"""Exponentiated Weibull and frailty laws against independent numeric oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import ew_closed_form, gamma_pdf
from exhaz.distributions import (
    GammaFrailtyParams,
    _by_majority,
    LogNormalFrailtyParams,
    ew_log_terms,
    ew_quantile,
    log1mexp,
    sample_gamma_frailty,
    sample_lognormal_frailty,
)
from exhaz.errors import NonPositive
from exhaz.simulation import DESIGN1_GH

P_TABLE1 = tuple(DESIGN1_GH.baseline.tolist())  # (kappa, theta, alpha)


def kernel(t, p):
    """(F, f, h0, log S) of the EW kernel at t, for p = (kappa, theta, alpha)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w, logm, vv, log_s0, lw, h0 = ew_log_terms(np.asarray(t, dtype=float), *p)
    return np.exp(-vv), h0 * np.exp(log_s0), h0, log_s0


def ew_cdf(t, p):
    """Closed-form F(t) at a scalar t > 0."""
    return ew_closed_form(t, *p)[0]


# ---------------------------------------------------------------------------
# EW kernel: density / CDF
# ---------------------------------------------------------------------------

def test_alpha_one_reduces_to_weibull():
    kappa, theta = 1.3, 2.0
    for t in (0.1, 0.5, 1.0, 3.7, 10.0):
        w = (t / theta) ** kappa
        _, f, h0, log_s = kernel(t, (kappa, theta, 1.0))
        assert h0 == pytest.approx((kappa / theta) * (t / theta) ** (kappa - 1), rel=1e-14)
        assert log_s == pytest.approx(-w, rel=1e-14)
        assert f == pytest.approx(kappa * w / t * math.exp(-w), rel=1e-14)


def test_unit_exponential_at_one():
    F, f, h0, log_s = kernel(1.0, (1.0, 1.0, 1.0))
    assert h0 == pytest.approx(1.0, rel=1e-14)
    assert log_s == pytest.approx(-1.0, rel=1e-14)
    assert f == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_pdf_matches_cdf_derivative():
    # central finite difference of the CDF as the oracle
    t, h = 2.0, 1e-6
    fd = (kernel(t + h, P_TABLE1)[0] - kernel(t - h, P_TABLE1)[0]) / (2 * h)
    assert kernel(t, P_TABLE1)[1] == pytest.approx(fd, abs=1e-8)


def test_cdf_at_theta_and_zero():
    for p in (P_TABLE1, (2.0, 0.5, 0.7)):
        _, theta, alpha = p
        assert kernel(theta, p)[0] == pytest.approx((1 - math.exp(-1)) ** alpha, rel=1e-14)
        F0, _, _, log_s0 = kernel(0.0, p)
        assert F0 == 0.0 and log_s0 == 0.0


def test_cdf_matches_integrated_pdf():
    val, err = quad(lambda s: float(kernel(s, P_TABLE1)[1]), 0, 5, limit=200)
    assert err < 1e-8
    got = kernel(5.0, P_TABLE1)[0]
    assert 0 < got < 1
    assert got == pytest.approx(val, abs=1e-8)


def test_pdf_integrates_to_one_over_random_params():
    rng = np.random.default_rng(101)
    for _ in range(8):
        p = (rng.uniform(0.3, 3.0), rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0))
        val, _ = quad(lambda s: float(kernel(s, p)[1]), 0, np.inf, limit=400)
        assert val == pytest.approx(1.0, abs=1e-6)


def test_cdf_nondecreasing_and_finite():
    grid = np.linspace(0.0, 50.0, 400)
    for p in (P_TABLE1, (0.3, 0.5, 5.0), (3.0, 5.0, 0.5)):
        f = kernel(grid, p)[0]
        assert np.all(np.isfinite(f))
        assert np.all(np.diff(f) >= -1e-15)
        assert np.all((f >= 0) & (f <= 1))


def test_kernel_matches_closed_forms():
    for p in (P_TABLE1, (0.3, 0.5, 5.0), (3.0, 5.0, 0.5)):
        for t in (0.05, 0.7, 2.0, 6.0):
            F, S, h, H = ew_closed_form(t, *p)
            F_k, f_k, h_k, log_s = kernel(t, p)
            assert F_k == pytest.approx(F, rel=1e-13)
            assert f_k == pytest.approx(h * S, rel=1e-13)
            assert h_k == pytest.approx(h, rel=1e-13)
            assert -log_s == pytest.approx(H, rel=1e-13)


# ---------------------------------------------------------------------------
# EW kernel: hazard / cumulative hazard
# ---------------------------------------------------------------------------

def test_exponential_constant_hazard():
    p = (1.0, 4.0, 1.0)
    for t in (0.01, 1.0, 10.0, 100.0):
        assert kernel(t, p)[2] == pytest.approx(1 / 4.0, rel=1e-12)


def test_cum_hazard_zero_at_zero():
    assert -kernel(0.0, P_TABLE1)[3] == 0.0


def test_hazard_unimodal_for_table1_params():
    grid = np.linspace(0.01, 20.0, 2000)
    h = kernel(grid, P_TABLE1)[2]
    imax = int(np.argmax(h))
    assert 0 < imax < len(grid) - 1
    assert h[0] < h[imax] > h[-1]
    # rises before the mode, falls after
    assert np.all(np.diff(h[: imax + 1]) > 0)
    assert np.all(np.diff(h[imax:]) < 0)


def test_cum_hazard_matches_integrated_hazard():
    for t in (0.5, 2.0, 8.0):
        val, _ = quad(lambda s: float(kernel(s, P_TABLE1)[2]), 0, t, limit=300)
        assert -kernel(t, P_TABLE1)[3] == pytest.approx(val, abs=1e-8)


def test_log_survival_far_tail_stays_finite():
    # deep tail where 1-F underflows in naive arithmetic
    _, _, h0, log_s = kernel(50.0, (2.0, 1.0, 3.0))  # w = 2500
    assert math.isfinite(log_s) and math.isfinite(h0)
    assert -log_s == pytest.approx(2500.0 - math.log(3.0), rel=1e-12)


def _log1mexp_two_branch(v):
    """Reference: both branches on every entry, picked by np.where."""
    v = np.asarray(v, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        small = np.log(-np.expm1(-v))
        large = np.log1p(-np.exp(-v))
    return np.where(v <= math.log(2.0), small, large)


def test_log1mexp_bitwise_equals_two_branch_formula():
    ln2 = math.log(2.0)
    special = np.array(
        [0.0, -0.0, ln2, math.nextafter(ln2, 0.0), math.nextafter(ln2, 1.0),
         5e-324, 2.2250738585072014e-308, 1e-310, 1e-300, 1e55, np.inf, np.nan]
    )
    rng = np.random.default_rng(5)
    mixed = np.concatenate([special, np.exp(rng.uniform(-700.0, 6.62, 1000))])
    rng.shuffle(mixed)
    cases = [
        np.array(0.3), np.array(2.0), np.array(ln2), np.array(np.nan), np.array([]),
        special, mixed, mixed.reshape(23, 44),
        np.exp(rng.uniform(-40.0, math.log(ln2), 500)),  # all small
        rng.uniform(30.0, 745.0, 500),  # all large
        np.linspace(30.0, 745.0, 64),
        np.concatenate([np.full(10, 0.1), np.full(11, 5.0)]),  # minorities of
        np.concatenate([np.full(11, 0.1), np.full(10, 5.0)]),  # either branch
    ]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # as its callers run it
        for v in cases:
            got, want = log1mexp(v), _log1mexp_two_branch(v)
            assert isinstance(got, np.ndarray) and got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), v
        for x in special:
            assert float(log1mexp(x)).hex() == float(_log1mexp_two_branch(x)).hex()


def test_by_majority_equals_where_on_edge_inputs():
    def small_branch(u):
        return np.log(-np.expm1(u))

    def large_branch(u):
        return np.log1p(-np.exp(u))

    rng = np.random.default_rng(11)
    cases = [
        -rng.uniform(0.0, 0.5, 40),  # all small: no minority to recompute
        -rng.uniform(1.0, 30.0, 40),  # all large
        np.array([-0.1, np.nan, -3.0, np.nan, -0.2]),  # NaN goes to the large branch
        np.full(7, np.nan),
        np.array(-0.3), np.array(-2.0), np.array(np.nan),  # 0-d
        np.array([]),
        -rng.uniform(0.0, 4.0, (6, 5)),
    ]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for x in cases:
            small = x >= -math.log(2.0)
            got = _by_majority(x, small, small_branch, large_branch)
            want = np.where(small, small_branch(x), large_branch(x))
            assert isinstance(got, np.ndarray) and got.shape == x.shape
            assert np.array_equal(got.view(np.int64), np.asarray(want).view(np.int64)), x


# ---------------------------------------------------------------------------
# quantile
# ---------------------------------------------------------------------------

def test_quantile_round_trip():
    for u in (0.01, 0.5, 0.99):
        t = ew_quantile(u, *P_TABLE1)
        assert ew_cdf(t, P_TABLE1) == pytest.approx(u, abs=1e-12)


def test_quantile_at_theta_point():
    for p in (P_TABLE1, (1.4, 3.0, 0.8)):
        _, theta, alpha = p
        u = (1 - math.exp(-1)) ** alpha
        assert ew_quantile(u, *p) == pytest.approx(theta, rel=1e-12)


def test_median_matches_bisection():
    lo, hi = 1e-9, 1e3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ew_cdf(mid, P_TABLE1) < 0.5:
            lo = mid
        else:
            hi = mid
    assert ew_quantile(0.5, *P_TABLE1) == pytest.approx(0.5 * (lo + hi), abs=1e-10)


def test_quantile_cdf_identity_on_time_grid():
    for t in np.geomspace(0.01, 20, 50):
        u = float(ew_cdf(t, P_TABLE1))
        assert ew_quantile(u, *P_TABLE1) == pytest.approx(t, rel=1e-10)


def test_quantile_rejects_bad_u():
    with pytest.raises(ValueError):
        ew_quantile(0.0, *P_TABLE1)
    with pytest.raises(ValueError):
        ew_quantile(1.0, *P_TABLE1)
    with pytest.raises(ValueError, match=r"u must be in \(0, 1\)"):
        ew_quantile([0.5, math.nan], *P_TABLE1)


def test_params_validated():
    # the EW slots are checked by ModelParams (tests/test_estimation.py)
    with pytest.raises(NonPositive, match=r"positions \[1\]"):
        GammaFrailtyParams(mu=1.0, b=-0.1)
    with pytest.raises(NonPositive, match=r"positions \[0, 1\]"):
        LogNormalFrailtyParams(m=math.nan, s=0.0)


# ---------------------------------------------------------------------------
# Gamma frailty
# ---------------------------------------------------------------------------

def test_moderate_mismatch_concentrates_near_mean():
    g = GammaFrailtyParams(mu=1.2, b=0.02)
    sd = math.sqrt(g.mu * g.b)
    assert sd == pytest.approx(0.155, abs=0.001)
    mass, _ = quad(lambda r: gamma_pdf(r, g), 1.2 - 3 * sd, 1.2 + 3 * sd)
    assert mass > 0.99


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_gamma_sampler_moments_wide():
    rng = np.random.default_rng(42)
    draws = sample_gamma_frailty(GammaFrailtyParams(6.5, 10.0), rng, size=100_000)
    assert np.all(draws > 0)
    assert draws.mean() == pytest.approx(6.5, abs=0.2)
    assert draws.var() == pytest.approx(65.0, abs=5.0)


def test_gamma_sampler_moments_severe():
    rng = np.random.default_rng(43)
    draws = sample_gamma_frailty(GammaFrailtyParams(1.875, 0.075), rng, size=100_000)
    assert draws.mean() == pytest.approx(1.875, abs=0.01)


def test_lognormal_degenerate_limit():
    rng = np.random.default_rng(44)
    draws = sample_lognormal_frailty(LogNormalFrailtyParams(0.0, 1e-6), rng, size=1000)
    assert np.allclose(draws, 1.0, atol=1e-4)
