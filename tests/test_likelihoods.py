"""Likelihood terms against hand computations, quadrature, and brute force."""

import io
import math
import re
from dataclasses import replace
from math import fsum

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from conftest import gamma_pdf, gh_closed_form, gh_params, model_params, sim_cohort, traced_peak
from exhaz.distributions import GammaFrailtyParams
from exhaz.errors import DataError, NonFiniteLikelihood
from exhaz.estimation import fit_all
from exhaz.lifetable import make_life_table
from exhaz.likelihoods import (
    MODELS,
    Cohort,
    ModelParams,
    ParamLayout,
    PreparedCohort,
    _ew_block,
    _exact_sum,
    _log1p_ratio,
    _m3_pop_curvature,
    _terms,
    load_cohort,
    loglik,
    loglik_and_grad,
    loglik_grad_hess,
    marginal_survival_m3,
    prepare_cohort,
    profile_gamma,
)
from exhaz.simulation import (
    COVARIATES,
    DESIGN1_GH as GH,
    builtin_scenarios,
    design_life_table,
    replicate_cohort,
)

BASE = GH.baseline


def fake_cohort(n=50, seed=0, p=3):
    """Synthetic prepared cohort with plausible cached life-table values."""
    rng = np.random.default_rng(seed)
    time = rng.uniform(0.05, 5.0, n)
    status = (rng.uniform(size=n) < 0.7).astype(np.int8)
    X = np.column_stack(
        [rng.normal(0, 1, n), rng.integers(0, 2, n), rng.integers(0, 2, n)]
    )[:, :p]
    hp = rng.uniform(0.005, 0.08, n)
    dhp = hp * time * rng.uniform(0.8, 1.3, n)
    return PreparedCohort(time, status, X, hp, dhp)


def observed_hazard(t, x, params, hp, dhp):
    """lambda = corrected h_P + h_E, by hand, with h_E from the closed form."""
    corr = params.correction
    if not corr.size:
        chp = hp
    elif len(corr) == 1:
        chp = corr[0] * hp
    else:
        mu, b = corr
        chp = mu * hp / (1.0 + b * dhp)
    return chp + gh_closed_form(t, x, params)[0]


def one_patient(t, x, hp, dhp, status=1):
    return PreparedCohort(
        np.array([t]), np.array([status], dtype=np.int8), np.asarray(x, float)[None, :],
        np.array([hp]), np.array([dhp]),
    )


# ---------------------------------------------------------------------------
# observed hazard and the one population term
# ---------------------------------------------------------------------------

def test_m2_gamma_one_equals_m1():
    m1 = model_params(GH)
    m2 = model_params(GH, 1.0)
    x = np.array([0.5, 1.0, 0.0])
    for t, hp, dhp in [(0.5, 0.02, 0.01), (3.0, 0.05, 0.12)]:
        cohort = one_patient(t, x, hp, dhp)
        assert loglik(m2, cohort) == loglik(m1, cohort, comparable=True)


def test_m3_at_dhp_zero_is_mu_times_hp():
    m3 = model_params(GH, 6.5, 10.0)
    x = np.zeros(3)
    he, HE = gh_closed_form(1.0, x, GH)
    got = loglik(m3, one_patient(1.0, x, 0.02, 0.0))
    assert got == pytest.approx(math.log(6.5 * 0.02 + he) - HE, rel=1e-12)


def test_m3_population_term_arithmetic():
    # b dH_P = 1: the corrected rate halves and the population term is (mu/b) log 2
    m3 = model_params(GH, 6.5, 10.0)
    x = np.zeros(3)
    he, HE = gh_closed_form(1.0, x, GH)
    got = loglik(m3, one_patient(1.0, x, 0.02, 0.1))
    expected = math.log(6.5 * 0.02 / 2.0 + he) - HE - 0.65 * math.log(2.0)
    assert got == pytest.approx(expected, rel=1e-12)


def test_m3_population_hazard_values():
    # lambda - h_E = mu hp / (1 + b dhp) at hp = 1: mu at dhp = 0, half of
    # it at b dhp = 1, mu as b -> 0, and strictly decreasing in dhp
    grid = np.linspace(0.0, 5.0, 50)
    dhp = np.concatenate([[0.0, 0.1, 1.0, 10.0], grid])
    n = dhp.size
    cohort = PreparedCohort(np.ones(n), np.ones(n), np.zeros((n, 3)), np.ones(n), dhp)

    def population_hazard(mu, b):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            *_, he, _, lam, _ = _terms(model_params(GH, mu, b), cohort, False)[1]
        return lam - he

    vals = population_hazard(6.5, 10.0)
    assert vals[0] == pytest.approx(6.5, rel=1e-14)
    assert vals[1] == pytest.approx(3.25, rel=1e-14)
    assert np.all(np.diff(vals[4:]) < 0)
    np.testing.assert_allclose(population_hazard(6.5, 1e-10)[:4], 6.5, rtol=1e-8)


def test_population_reads_c_and_b_of_each_model():
    for corr, want in (((), (1.0, 0.0)), ((1.4,), (1.4, 0.0)), ((2.0, 0.3), (2.0, 0.3))):
        got = model_params(GH, *corr).population
        assert got == want and all(type(v) is float for v in got)


def test_m3_at_b_zero_is_m2_bit_for_bit():
    # M2 is M3's b = 0 case of the one population term: M3 parameters at
    # b = 0.0, built past ModelParams' positivity check, give M2's ll, its
    # gradient on M2's slots and its profiled multiplier bit for bit at M2's
    # MLE.  The Hessian's Gram products hold one score under M2 and two
    # under M3, so they round apart.
    table = design_life_table()
    sc = replace(builtin_scenarios()["severe"], n=2000)
    cohort = replicate_cohort(sc, 0, table)
    m2 = fit_all(cohort)["M2"].to_model_params()
    m3 = object.__new__(ModelParams)
    object.__setattr__(m3, "layout", ParamLayout.for_model("M3", COVARIATES))
    object.__setattr__(m3, "values", np.append(m2.values, 0.0))
    assert m3.population == (m2.population[0], 0.0)
    ll2, g2, h2 = loglik_grad_hess(m2, cohort)
    ll3, g3, h3 = loglik_grad_hess(m3, cohort)
    assert ll3.hex() == ll2.hex() == loglik(m3, cohort).hex() == loglik(m2, cohort).hex()
    assert np.array_equal(g3[:-1].view(np.int64), g2.view(np.int64))
    assert np.array_equal(loglik_and_grad(m3, cohort)[1].view(np.int64), g3.view(np.int64))
    assert np.max(np.abs(h3[:-1, :-1] - h2)) <= 1e-12 * np.max(np.abs(h2))
    assert profile_gamma(m3, cohort) == profile_gamma(m2, cohort)


# ---------------------------------------------------------------------------
# marginal survival under M3
# ---------------------------------------------------------------------------

@pytest.fixture
def flat_table():
    return make_life_table(["sex"], (30, 100), (2005, 2020), lambda a, y, s: 0.03, [("0",)])


def rec(t=2.0, status=1, age=70.0, x=(0.2, 1.0, 0.0)):
    """A one-row cohort."""
    return Cohort([t], [status], [age], [2010.0], [x], [("0",)], [0])


def test_marginal_survival_one_at_zero(flat_table):
    m3 = model_params(GH, 1.875, 0.075)
    assert marginal_survival_m3(0.0, rec(), m3, flat_table)[0] == pytest.approx(1.0)


def test_marginal_survival_decreases_from_one(flat_table):
    m3 = model_params(GH, 1.875, 0.075)
    vals = np.array([marginal_survival_m3(t, rec(), m3, flat_table)[0]
                     for t in np.linspace(0.0, 5.0, 100)])
    assert vals[0] == 1.0
    assert np.all(np.diff(vals) < 0) and vals[-1] > 0


def test_marginal_survival_matches_frailty_quadrature(flat_table):
    # integrate the conditional survival over the frailty law of each of the
    # recovery study's three laws; a table at rate 1 takes dH_P = t to 5
    r0 = rec()
    steep = make_life_table(["sex"], (30, 100), (2005, 2020), lambda a, y, s: 1.0, [("0",)])
    for table, rate in ((flat_table, 0.03), (steep, 1.0)):
        for mu, b in [(1.2, 0.02), (1.875, 0.075), (6.5, 10.0)]:
            g = GammaFrailtyParams(mu, b)
            m3 = model_params(GH, mu, b)
            for t in (0.1, 0.5, 2.0, 4.5, 5.0):
                dhp = rate * t  # constant-rate table
                he = gh_closed_form(t, r0.X[0], GH)[1]
                integrand = lambda r: math.exp(-r * dhp) * gamma_pdf(r, g)
                lap = quad(integrand, 0, 1, limit=400)[0] + quad(
                    integrand, 1, np.inf, limit=400
                )[0]
                expected = math.exp(-he) * lap
                got = marginal_survival_m3(t, r0, m3, table)[0]
                assert got == pytest.approx(expected, abs=1e-8)


def test_marginal_survival_b_to_zero_limit(flat_table):
    # b -> 0 collapses to the single-parameter correction with gamma = mu
    r0 = rec()
    mu = 1.7
    m3 = model_params(GH, mu, 1e-8)
    t = 3.0
    dhp = 0.03 * t
    he = gh_closed_form(t, r0.X[0], GH)[1]
    expected = math.exp(-he - mu * dhp)
    assert marginal_survival_m3(t, r0, m3, flat_table)[0] == pytest.approx(
        expected, rel=1e-6
    )


def _graded_table_and_cohort(n=40):
    """A two-stratum table whose rate moves with age and year, and n
    patients spread over its ages, years and strata."""
    table = make_life_table(
        ["sex"], (30, 100), (2005, 2020),
        lambda a, y, s: 1e-3 * math.exp(0.08 * (a - 30)) * (1.4 if s == ("1",) else 1.0)
        * (1.0 - 0.02 * (y - 2005)),
        [("0",), ("1",)],
    )
    rng = np.random.default_rng(5)
    cohort = Cohort(
        rng.uniform(0.1, 8.0, n), np.ones(n), rng.uniform(40, 99, n), rng.uniform(2005, 2019, n),
        rng.normal(0, 1, (n, 3)), [("0",), ("1",)], rng.integers(0, 2, n),
    )
    return table, cohort


def _walk_and_excess(table, cohort, t):
    """(dH_P from the table's walk, H_E from the closed form) per patient."""
    dhp = table.cum_hazard_increment(
        cohort.age_diag, cohort.year_diag, table.codes(cohort.strata)[cohort.stratum], t
    )
    return dhp, np.array([gh_closed_form(ti, x, GH)[1] for ti, x in zip(t, cohort.X)])


def test_marginal_survival_is_exp_minus_h_e_times_the_gamma_laplace_of_the_walk():
    # exp(-H_E) exp(-(mu/b) log1p(b dH_P)) per patient; at b = e^-20, the
    # box floor, it is M2's exp(-H_E - mu dH_P) up to O(b)
    table, cohort = _graded_table_and_cohort()
    t, mu = cohort.time * 0.7, 1.2
    dhp, he = _walk_and_excess(table, cohort, t)
    got = marginal_survival_m3(t, cohort, model_params(GH, mu, 0.02), table)
    expected = np.exp(-he) * np.exp(-(mu / 0.02) * np.log1p(0.02 * dhp))
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)
    floor = marginal_survival_m3(t, cohort, model_params(GH, mu, math.exp(-20.0)), table)
    np.testing.assert_allclose(floor, np.exp(-he - mu * dhp), rtol=1e-8, atol=0.0)


def test_marginal_survival_at_shape_one_is_exponential():
    # mu = b = 2: the frailty is exponential with mean 2, whose Laplace
    # transform at dH_P is 1 / (1 + 2 dH_P)
    table, cohort = _graded_table_and_cohort()
    t = cohort.time * 0.7
    dhp, he = _walk_and_excess(table, cohort, t)
    assert dhp.max() > 1.0
    got = marginal_survival_m3(t, cohort, model_params(GH, 2.0, 2.0), table)
    np.testing.assert_allclose(got, np.exp(-he) / (1.0 + 2.0 * dhp), rtol=1e-13, atol=0.0)


def test_marginal_survival_rejects_params_of_another_model():
    table, cohort = _graded_table_and_cohort(n=2)
    with pytest.raises(ValueError, match="requires M3 params"):
        marginal_survival_m3(1.0, cohort, model_params(GH, 1.2), table)


def test_marginal_survival_batch_matches_one_row_cohorts():
    table, cohort = _graded_table_and_cohort()
    n = len(cohort.time)
    m3 = model_params(GH, 1.875, 0.075)
    t = cohort.time * 0.7
    for advance_year in (True, False):
        batch = marginal_survival_m3(t, cohort, m3, table, advance_year)
        assert batch.shape == (n,)
        for i in range(n):
            row = Cohort(*(c[i : i + 1] for c in (
                cohort.time, cohort.status, cohort.age_diag, cohort.year_diag, cohort.X,
            )), cohort.strata, cohort.stratum[i : i + 1])
            one = marginal_survival_m3(t[i], row, m3, table, advance_year)
            assert batch[i] == pytest.approx(one[0], rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# log-likelihood
# ---------------------------------------------------------------------------

def _exact_sum_cases():
    rng = np.random.default_rng(2024)
    for n in (0, 1, 2, 33, 5000):
        yield rng.normal(0.0, 1.0, n)
        # magnitudes spread from 1e-300 to 1e300
        yield rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
        # exact +/- cancellation pairs around a few survivors
        half = rng.normal(0.0, 1.0, n // 2) * 10.0 ** rng.uniform(-20.0, 20.0, n // 2)
        pairs = np.concatenate([half, -half, rng.normal(0.0, 1e-8, n - 2 * (n // 2))])
        yield rng.permutation(pairs)
        # two populations 1e16 apart in scale
        yield rng.normal(0.0, 1.0, n) * np.where(rng.uniform(size=n) < 0.5, 1.0, 1e16)
        # subnormals and the smallest normals
        yield np.array(
            [math.ldexp(int(rng.integers(-2**40, 2**40)), int(rng.integers(-1074, -1000)))
             for _ in range(n)]
        )
    cohort = fake_cohort(5000, seed=8)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        yield _terms(model_params(GH, 1.875, 0.075), cohort, False)[0]
    yield from _half_ulp_ties(rng)


def _half_ulp_ties(rng):
    """A large term plus many small shares of exactly half its ulp.

    The exact sum is a rounding tie, so no interval around the plain sum of
    the shares rounds to one value, and ``_exact_sum`` must finish its
    passes.  Ties go to even: down from 1 and 2^40 + 2, up from 1 + 2^-52
    and 2^40 + 1.  In the last share set np.sum of the shares is inexact in
    most orders, so a sum that trusted it would round the wrong way.
    """
    for big in (1.0, 1.0 + 2.0**-52, 2.0**40 + 1.0, 2.0**40 + 2.0):
        half_ulp = math.ulp(big) / 2
        unit = half_ulp / 2.0**37
        shares = []
        for m in (64, 4999):
            pos = rng.integers(1, 2**37 // m, m)
            mixed = rng.integers(-(2**36) // m, 2**36 // m, m)
            for k in (pos, mixed):
                k[-1] = 2**37 - k[:-1].sum()
                shares.append(k * unit)
        shares.append(
            np.append(np.full(1024, half_ulp * 2.0**-60), half_ulp * (1.0 - 2.0**-50))
        )
        for small in shares:
            assert math.fsum(small.tolist()) == half_ulp
            a = rng.permutation(np.append(small, big))
            yield a
            yield -a


def test_exact_sum_equals_fsum():
    for a in _exact_sum_cases():
        want, got = math.fsum(a.tolist()), _exact_sum(a)
        if want == 0.0:  # fsum's sign of a zero sum differs across Python versions
            assert got == 0.0
        else:
            assert got.hex() == want.hex(), (a.size, got, want)
    for a in ([1e308, 1e308], [1e308] * 40 + [-1e308] * 39, [1e305] * 5000):
        with pytest.raises(OverflowError):
            math.fsum(a)
        with pytest.raises(OverflowError):
            _exact_sum(np.array(a))


def test_ew_memo_reuses_blocks_bit_for_bit():
    cohort = fake_cohort(300, seed=41)
    other = gh_params((1.3, 0.9, 0.7), GH.beta1 + 0.05, GH.beta2)
    flipped = gh_params(BASE, -GH.beta1, GH.beta2)
    points = []
    for gh in (GH, other, flipped):
        for corr in ((), (1.4,), (2.0, 0.3)):
            for db2 in (0.0, 1e-3, -0.2):  # moves beta2 only: same EW block
                points.append(
                    model_params(gh_params(gh.baseline, gh.beta1, gh.beta2 + db2), *corr)
                )
    points += points[:5]  # back to the first block after it was evicted
    for params in points:
        for comparable in (False, True):
            fresh = replace(cohort)
            assert len(fresh._ew_memo) == 0 and fresh._ew_memo is not cohort._ew_memo
            want = loglik(params, fresh, comparable)
            assert loglik(params, cohort, comparable).hex() == want.hex()
        ll, grad = loglik_and_grad(params, cohort)
        ll_f, grad_f = loglik_and_grad(params, replace(cohort))
        assert ll.hex() == ll_f.hex() == loglik(params, replace(cohort)).hex()
        assert np.array_equal(grad.view(np.int64), grad_f.view(np.int64))
        assert len(cohort._ew_memo) == 1
        for arr in next(iter(cohort._ew_memo.values())):
            assert not arr.flags.writeable
    with pytest.raises(ValueError):
        next(iter(cohort._ew_memo.values()))[0][0] = 0.0


def test_ew_memo_shares_the_last_block_and_replaces_it_with_a_new_one():
    cohort = fake_cohort(40, seed=43)
    a = _ew_block(model_params(GH), cohort)
    # beta2, the multiplier and b leave the block as it is
    same = gh_params(BASE, GH.beta1.copy(), GH.beta2 + 1.0)
    assert _ew_block(model_params(same, 1.4), cohort) is a
    assert _ew_block(model_params(GH, 2.0, 0.3), cohort) is a
    b = _ew_block(model_params(gh_params(BASE, GH.beta1 + 1e-9, GH.beta2)), cohort)
    assert b is not a and len(cohort._ew_memo) == 1
    again = _ew_block(model_params(GH), cohort)  # b replaced a: computed afresh, same bits
    assert again is not a and len(cohort._ew_memo) == 1
    assert all(np.array_equal(x.view(np.int64), y.view(np.int64)) for x, y in zip(again, a))
    # no covariates: beta1 is empty and the key still tells blocks apart
    bare = PreparedCohort(cohort.time, cohort.status, cohort.X[:, :0], cohort.hp, cohort.dhp)
    bare_gh = gh_params(BASE)
    first = _ew_block(model_params(bare_gh), bare)
    assert _ew_block(model_params(bare_gh), bare) is first
    assert _ew_block(model_params(gh_params((0.6, 1.75, 2.6))), bare) is not first
    assert len(bare._ew_memo) == 1


def test_m2_at_gamma_one_equals_m1_minus_sum_dhp():
    cohort = fake_cohort(200, seed=3)
    l1 = loglik(model_params(GH), cohort)
    l2 = loglik(model_params(GH, 1.0), cohort)
    assert l2 == pytest.approx(l1 - fsum(cohort.dhp), abs=1e-10)


def test_single_censored_patient_m3_hand_check():
    t, dhp, hp = 2.5, 0.08, 0.03
    mu, b = 1.875, 0.075
    x = np.array([0.4, 0.0, 1.0])
    cohort = one_patient(t, x, hp, dhp, status=0)
    he = gh_closed_form(t, x, GH)[1]
    expected = -he - (mu / b) * math.log1p(b * dhp)
    got = loglik(model_params(GH, mu, b), cohort)
    assert got == pytest.approx(expected, rel=1e-12)


def test_loglik_matches_per_patient_brute_force():
    # independent route: log[h_o^delta * S_o] from the marginal formulas
    cohort = fake_cohort(50, seed=11)
    for params in (
        model_params(GH),
        model_params(GH, 1.7),
        model_params(GH, 6.5, 10.0),
    ):
        brute_terms = []
        for i in range(cohort.n):
            t = float(cohort.time[i])
            x = cohort.X[i]
            hp, dhp = float(cohort.hp[i]), float(cohort.dhp[i])
            he = gh_closed_form(t, x, GH)[1]
            corr = params.correction
            if not corr.size:
                log_s = -he  # population-survival constant omitted for M1
            elif len(corr) == 1:
                log_s = -he - corr[0] * dhp
            else:
                mu, b = corr
                log_s = -he - (mu / b) * math.log1p(b * dhp)
            term = log_s
            if cohort.status[i] == 1:
                term += math.log(observed_hazard(t, x, params, hp, dhp))
            brute_terms.append(term)
        assert loglik(params, cohort) == pytest.approx(fsum(brute_terms), abs=1e-9)


def test_delta_flip_changes_by_log_hazard():
    cohort = fake_cohort(30, seed=5)
    params = model_params(GH, 1.2, 0.02)
    base = loglik(params, cohort)
    i = 7
    status = cohort.status.copy()
    assert status[i] == 0 or status[7] == 1  # flip whatever it is
    flipped = status.copy()
    flipped[i] = 1 - flipped[i]
    cohort2 = PreparedCohort(cohort.time, flipped, cohort.X, cohort.hp, cohort.dhp)
    lam = observed_hazard(
        float(cohort.time[i]), cohort.X[i], params, float(cohort.hp[i]), float(cohort.dhp[i])
    )
    sign = 1.0 if flipped[i] == 1 else -1.0
    assert loglik(params, cohort2) - base == pytest.approx(sign * math.log(lam), abs=1e-10)


def test_m3_b_to_zero_approaches_m2():
    cohort = fake_cohort(150, seed=9)
    mu = 2.2
    l2 = loglik(model_params(GH, mu), cohort)
    for b in (1e-6, 1e-8):
        l3 = loglik(model_params(GH, mu, b), cohort)
        assert l3 == pytest.approx(l2, rel=1e-5)


def test_permutation_invariance_exact():
    cohort = fake_cohort(500, seed=13)
    params = model_params(GH, 6.5, 10.0)
    base = loglik(params, cohort)
    rng = np.random.default_rng(1)
    perm = rng.permutation(cohort.n)
    shuffled = PreparedCohort(
        cohort.time[perm], cohort.status[perm], cohort.X[perm],
        cohort.hp[perm], cohort.dhp[perm],
    )
    assert loglik(params, shuffled) == base


def test_nonfinite_likelihood_reports_index():
    # event with zero total hazard: hp = 0 and excess hazard underflows
    gh = gh_params(BASE, beta1=np.zeros(1), beta2=np.array([-800.0]))
    cohort = PreparedCohort(
        np.array([1.0, 2.0]),
        np.array([1, 1], dtype=np.int8),
        np.array([[0.0], [1.0]]),
        np.array([0.01, 0.0]),
        np.array([0.01, 0.0]),
    )
    with pytest.raises(NonFiniteLikelihood) as err:
        loglik(model_params(gh), cohort)
    assert err.value.patient_index == 1


def test_comparable_scale_identity():
    cohort = fake_cohort(80, seed=21)
    l1c = loglik(model_params(GH), cohort, comparable=True)
    l2c = loglik(model_params(GH, 1.0), cohort, comparable=True)
    assert l2c == l1c  # bitwise: identical code path at gamma = 1


# ---------------------------------------------------------------------------
# analytic gradient against central finite differences
# ---------------------------------------------------------------------------

def fd_gradient(vec, model, cohort, h=1e-6):
    layout = ParamLayout.for_model(model, ("x1", "x2", "x3"))
    grad = np.empty(len(vec))
    for j in range(len(vec)):
        hj = h * max(1.0, abs(vec[j]))
        up, dn = vec.copy(), vec.copy()
        up[j] += hj
        dn[j] -= hj
        lu = loglik(layout.to_params(up), cohort)
        ld = loglik(layout.to_params(dn), cohort)
        grad[j] = (lu - ld) / (2 * hj)
    return grad


@pytest.mark.parametrize("model,extra", [("M1", []), ("M2", [1.4]), ("M3", [2.0, 0.8])])
def test_analytic_gradient_matches_fd(model, extra):
    cohort = fake_cohort(120, seed=31)
    rng = np.random.default_rng(17)
    for _ in range(4):
        vec = np.array(
            [
                rng.uniform(0.4, 1.6),
                rng.uniform(0.8, 3.0),
                rng.uniform(0.6, 3.0),
                *rng.normal(0, 0.2, 6),
                *extra,
            ]
        )
        params = ParamLayout.for_model(model, ("x1", "x2", "x3")).to_params(vec)
        ll, grad = loglik_and_grad(params, cohort)
        assert ll == pytest.approx(loglik(params, cohort), abs=1e-10)
        fd = fd_gradient(vec, model, cohort)
        scale = np.maximum(1.0, np.abs(fd))
        assert np.max(np.abs(grad - fd) / scale) < 1e-5


B_FLOOR = math.exp(-20.0)  # M3's b on the floor of the search box


@st.composite
def hessian_points(draw, tail=False):
    """(params, cohort): a small cohort, with 0 or 2 covariates, and a point of
    any model; M3's b is on the box floor e^-20 or inside.  Off the tail,
    every EW term has w < 200; with ``tail``, the follow-up times are scaled
    so that the largest w is in [200, 600), where h0's alpha-derivative takes
    its limit and the value is still accurate."""
    model = draw(st.sampled_from(MODELS))
    p = draw(st.sampled_from([0, 2]))
    rows = st.tuples(
        st.floats(0.05, 10.0),
        st.integers(0, 1),
        st.lists(st.floats(-2.0, 2.0), min_size=p, max_size=p),
        st.floats(0.0, 0.3),  # hp
        st.floats(0.0, 3.0),  # dhp
    )
    time, status, X, hp, dhp = zip(*draw(st.lists(rows, min_size=5, max_size=30)))
    columns = np.array(status), np.array(X).reshape(len(time), p), np.array(hp), np.array(dhp)
    cohort = PreparedCohort(np.array(time), *columns)
    positive = st.floats(-1.0, 1.0).map(math.exp)
    values = [draw(positive) for _ in range(3)] + [draw(st.floats(-0.5, 0.5)) for _ in range(2 * p)]
    if model != "M1":
        values.append(draw(positive))
    if model == "M3":
        values.append(draw(st.just(B_FLOOR) | st.floats(-2.0, 2.0).map(math.exp)))
    params = ParamLayout.for_model(model, cohort.covariate_names).to_params(np.array(values))
    kappa, theta, _ = params.baseline
    w = (cohort.time * np.exp(cohort.X @ params.beta1) / theta) ** kappa
    if tail:
        w_max = draw(st.floats(200.0, 600.0, exclude_max=True))
        cohort = PreparedCohort(cohort.time * (w_max / w.max()) ** (1.0 / kappa), *columns)
    else:
        assume(np.all(w < 200.0))
    return params, cohort


def _richardson_hessian(params, cohort, h=1e-3, levels=2):
    """Central differences of ``loglik_and_grad``'s gradient at steps h, h/2,
    ..., h/2^(levels-1), extrapolated to O(h^(2 levels)) (to O(h^2), forward
    at 1e-4, for a b on the box floor)."""
    layout, vec = params.layout, params.values
    k = layout.k

    def grad(v):
        return loglik_and_grad(layout.to_params(v), cohort)[1]

    J = np.empty((k, k))
    for i in range(k):
        e = np.zeros(k)
        if layout.names[i] == "b" and vec[i] == B_FLOOR:
            e[i] = 1e-4
            g0 = grad(vec)
            J[i] = (4.0 * (grad(vec + e / 2) - g0) - (grad(vec + e) - g0)) / 1e-4
            continue
        e[i] = h * max(1.0, abs(vec[i]))
        table = []  # the last row of the Richardson table
        for j in range(levels):
            step = e / 2**j
            row = [(grad(vec + step) - grad(vec - step)) / (2.0 * step[i])]
            for m, prev in enumerate(table, 1):
                row.append((4**m * row[-1] - prev) / (4**m - 1))
            table = row
        J[i] = table[-1]
    return J


def _check_hessian(params, cohort, **reference):
    ll, grad, hess = loglik_grad_hess(params, cohort)
    ll2, grad2 = loglik_and_grad(params, cohort)
    assert ll == ll2 and grad.tobytes() == grad2.tobytes()
    ref = _richardson_hessian(params, cohort, **reference)
    assert np.max(np.abs(hess - ref) / np.maximum(1.0, np.abs(ref))) < 1e-6
    assert np.array_equal(hess, hess.T)


@settings(max_examples=40, deadline=None)
@given(hessian_points())
def test_hessian_matches_richardson_differences_of_the_gradient(point):
    # the Hessian is the Jacobian of the gradient L-BFGS-B reads, off the tail,
    # for every model, and its value and gradient are those of loglik_and_grad
    _check_hessian(*point)


@settings(max_examples=25, deadline=None)
@given(hessian_points(tail=True))
def test_hessian_matches_richardson_differences_in_the_moderate_tail(point):
    # largest w in [200, 600): the gradient's rounding grows with w, so the
    # reference steps are 16 times longer and extrapolated one order further
    _check_hessian(*point, h=1.6e-2, levels=3)


def test_loglik_and_grad_with_hessian_is_loglik_grad_hess():
    cohort = fake_cohort(60, seed=41)
    vec = np.array([0.7, 1.5, 2.0, 0.05, 0.1, -0.1, 0.1, 0.2, 0.15, 2.5, 1.0])
    params = ParamLayout.for_model("M3", ("x1", "x2", "x3")).to_params(vec)
    ll, grad, hess = loglik_and_grad(params, cohort, hessian=True)
    ll2, grad2, hess2 = loglik_grad_hess(params, cohort)
    assert ll == ll2 and np.array_equal(grad, grad2) and np.array_equal(hess, hess2)


def _pass_bits(params, cohort, hessian):
    """One ``loglik_and_grad`` pass as bytes: ll's float.hex, then each array's."""
    ll, *arrays = loglik_and_grad(params, cohort, hessian)
    return [ll.hex()] + [a.tobytes() for a in arrays]


def test_information_passes_reuse_the_cohort_workspace_bit_for_bit():
    # loglik_grad_hess writes into a workspace the cohort keeps; interleaved
    # with gradient passes, over the three models, a tail point whose Hessian
    # overflows and an interior point after it, every pass has the bits of
    # the same pass on a fresh cohort
    cohort = fake_cohort(300, seed=47)
    tail = gh_params((1.0, 1e-80, 2.5), GH.beta1, GH.beta2)  # w ~ 1e80
    other = gh_params((1.3, 0.9, 0.7), GH.beta1 + 0.05, GH.beta2 - 0.1)
    for gh in (GH, tail, other):
        for corr in ((), (1.4,), (2.0, 0.3)):
            params = model_params(gh, *corr)
            for hessian in (True, False, True):
                assert _pass_bits(params, cohort, hessian) == _pass_bits(
                    params, replace(cohort), hessian
                )
            hess = loglik_grad_hess(params, cohort)[2]
            assert np.isfinite(hess).all() == (gh is not tail)
    assert replace(cohort)._workspace == {}


def test_writing_into_a_returned_pass_leaves_the_next_one_alone():
    cohort = fake_cohort(200, seed=53)
    params = model_params(GH, 2.0, 0.3)
    want = _pass_bits(params, cohort, True)
    _, grad, hess = loglik_grad_hess(params, cohort)
    grad[:] = np.nan
    hess[:] = np.nan
    assert _pass_bits(params, cohort, True) == want


@pytest.mark.parametrize("model", MODELS)
def test_a_second_information_pass_allocates_no_block(model):
    # with p = 20 covariates one (3 + 2p) x n block of the GH slots outweighs
    # every per-patient vector an information pass allocates, so a pass that
    # allocated any such block would trace a peak above it
    n, p = 2000, 20
    rng = np.random.default_rng(59)
    base = fake_cohort(n, seed=59)
    cohort = PreparedCohort(base.time, base.status, rng.normal(size=(n, p)), base.hp, base.dhp)
    beta = rng.normal(0.0, 0.05, p)
    params = model_params(gh_params(BASE, beta, beta), *(1.4, 0.3)[: MODELS.index(model)])
    loglik_grad_hess(params, cohort)
    block = (3 + 2 * p) * n * 8
    assert traced_peak(lambda: loglik_grad_hess(params, cohort)) < block


def test_fd_gradient_richardson_self_consistency():
    # the optimization surface is smooth: h=1e-4 and h=1e-5 agree
    cohort = fake_cohort(120, seed=37)
    vec = np.array([0.7, 1.5, 2.0, 0.05, 0.1, -0.1, 0.1, 0.2, 0.15, 2.5, 1.0])
    g4 = fd_gradient(vec, "M3", cohort, h=1e-4)
    g5 = fd_gradient(vec, "M3", cohort, h=1e-5)
    scale = np.maximum(1.0, np.abs(g4))
    assert np.max(np.abs(g4 - g5) / scale) < 1e-4


def test_prepare_cohort_caches_match_table(flat_table):
    x = (0.2, 1.0, 0.0)
    rows = Cohort([1.2, 4.0], [1, 0], [64.3, 75.0], [2010.0, 2010.0], [x, x], [("0",)], [0, 0])
    cohort = prepare_cohort(rows, flat_table)
    assert cohort.n == 2
    # constant-rate table: dhp = 0.03 * t, hp = 0.03 everywhere
    assert cohort.dhp[0] == pytest.approx(0.03 * 1.2, rel=1e-12)
    assert cohort.dhp[1] == pytest.approx(0.03 * 4.0, rel=1e-12)
    assert np.allclose(cohort.hp, 0.03)
    assert cohort.n_events == 1


def test_covariate_names_must_name_every_column_of_x(flat_table):
    x = (0.2, 1.0, 0.0)
    rows = Cohort([1.2, 4.0], [1, 0], [64.3, 75.0], [2010.0, 2010.0], [x, x], [("0",)], [0, 0])
    assert prepare_cohort(rows, flat_table).covariate_names == ("x1", "x2", "x3")
    with pytest.raises(DataError, match="^1 covariate names for 3 columns of X$"):
        prepare_cohort(rows, flat_table, covariate_names=("age",))


def _prepared_columns(n=5):
    rng = np.random.default_rng(7)
    return dict(
        time=rng.uniform(0.1, 5.0, n), status=np.array([1, 0, 1, 1, 0][:n], dtype=np.int8),
        X=rng.normal(0.0, 1.0, (n, 2)), hp=np.full(n, 0.02), dhp=rng.uniform(0.0, 0.1, n),
    )


def test_prepared_cohort_checks_its_columns_once():
    cols = _prepared_columns()
    with pytest.raises(DataError, match="^cohort is empty$"):
        PreparedCohort(**{k: v[:0] for k, v in cols.items()})
    shape = "^a prepared cohort needs columns of one length n and X of shape \\(n, p\\)$"
    for bad in ({"hp": [0.01]}, {"dhp": cols["dhp"][:4]}, {"X": cols["X"][:, 0]}, {"time": cols["time"][1:]}):
        with pytest.raises(DataError, match=shape):  # a length-1 hp is not broadcast
            PreparedCohort(**{**cols, **bad})
    for name, value, message in (
        ("time", 0.0, "follow-up time must be > 0, got 0.0"),
        ("time", -1.0, "follow-up time must be > 0, got -1.0"),
        ("time", np.nan, "follow-up time must be > 0, got nan"),
        ("status", 2, "status must be 0 or 1, got 2"),
        ("X", np.nan, "covariates must be finite, got [nan nan]"),
        ("X", np.inf, "covariates must be finite, got [inf inf]"),
        ("hp", -0.01, "hp must be finite and >= 0, got -0.01"),
        ("hp", np.nan, "hp must be finite and >= 0, got nan"),
        ("dhp", np.inf, "dhp must be finite and >= 0, got inf"),
        ("dhp", -1e-300, "dhp must be finite and >= 0, got -1e-300"),
    ):
        col = cols[name].copy()
        col[3] = value
        with pytest.raises(DataError, match=f"^row 3: {re.escape(message)}$"):
            PreparedCohort(**{**cols, name: col})
    # the first bad row is named, and within it the first check it fails
    both = dict(cols, status=np.array([1, 0, 3, 1, 0]), hp=np.array([0.0, 0.0, -1.0, -1.0, 0.0]))
    with pytest.raises(DataError, match="^row 2: status must be 0 or 1, got 3$"):
        PreparedCohort(**both)


@pytest.mark.parametrize("name, value", [("time", 0.0), ("time", -math.inf), ("X", math.nan)])
def test_cohort_and_prepared_cohort_name_a_bad_row_alike(name, value):
    cols = _prepared_columns()
    cols[name] = cols[name].copy()
    cols[name][2, ...] = value
    with pytest.raises(DataError) as raw:
        Cohort(cols["time"], cols["status"], np.full(5, 70.0), np.full(5, 2010.0), cols["X"],
               [("0",)], np.zeros(5, dtype=int))
    with pytest.raises(DataError) as prepared:
        PreparedCohort(**cols)
    assert str(raw.value) == str(prepared.value)
    assert str(raw.value).startswith("row 2: ")


def test_prepared_cohort_copies_the_callers_columns():
    cols = _prepared_columns()
    cohort = PreparedCohort(**cols)
    params = model_params(gh_params(BASE, GH.beta1[:2], GH.beta2[:2]), 1.2, 0.3)
    before = loglik_and_grad(params, cohort)
    for name, arr in cols.items():
        assert arr.flags.writeable, name  # the caller's arrays stay as they were
        with pytest.raises(ValueError):
            getattr(cohort, name)[0] = 0
        arr[0] = 0  # and writing to them does not reach the cohort
    fresh = replace(cohort)
    after = loglik_and_grad(params, fresh)
    assert before[0].hex() == after[0].hex() and np.array_equal(before[1], after[1])
    assert cohort.status.dtype == np.int8 and cohort.n_events == 3


# ---------------------------------------------------------------------------
# M2's correction profiled out
# ---------------------------------------------------------------------------

def _random_gh(rng, p=3):
    """M1 params at a random interior GH point near the design truth."""
    return gh_params(BASE * np.exp(rng.normal(0.0, 0.2, 3)), rng.normal(0.0, 0.3, p),
                     rng.normal(0.0, 0.3, p))


@pytest.mark.parametrize("seed", range(4))
def test_profile_gamma_is_the_bounded_maximum_over_gamma(seed):
    # M2's log-likelihood maximized over log gamma by a bounded scalar search
    # on its values: the profile finds no lower value (1e-10 relative), the
    # same gamma to the search's own precision, and a vanishing score
    rng = np.random.default_rng(seed)
    cohort, gh = sim_cohort(n=400, seed=seed, pop_rate=0.05), _random_gh(rng)
    gamma = profile_gamma(gh, cohort)
    assert -20.0 < math.log(gamma) < 20.0
    neg = lambda u: -loglik(model_params(gh, math.exp(u)), cohort)  # noqa: E731
    best = minimize_scalar(neg, bounds=(-20.0, 20.0), method="bounded",
                           options={"xatol": 1e-12})
    assert -neg(math.log(gamma)) >= -best.fun - 1e-10 * abs(best.fun)
    assert gamma == pytest.approx(math.exp(best.x), rel=1e-5)
    _, grad = loglik_and_grad(model_params(gh, gamma), cohort)
    assert abs(grad[-1]) <= 1e-10 * fsum(cohort.dhp)


def test_profile_gamma_sits_on_a_box_end_when_the_score_keeps_one_sign():
    gh = _random_gh(np.random.default_rng(9))
    c = fake_cohort(n=60, seed=9)
    ev = c.status == 1

    def with_pop(hp, dhp):
        return PreparedCohort(c.time, c.status, c.X, hp, dhp)

    floor, ceiling = math.exp(-20.0), math.exp(20.0)
    # no event with h_P > 0: the score is -sum dH_P at every gamma
    assert profile_gamma(gh, with_pop(np.where(ev, 0.0, c.hp), c.dhp)) == floor
    # sum dH_P = 0: the score is positive at every gamma
    assert profile_gamma(gh, with_pop(c.hp, np.zeros(c.n))) == ceiling
    # the same ends reached by the iteration: h_P negligible beside h_E at the
    # events, or sum dH_P negligible beside the events' h_P
    assert profile_gamma(gh, with_pop(c.hp * 1e-12, c.dhp)) == floor
    assert profile_gamma(gh, with_pop(c.hp, c.dhp * 1e-12)) == ceiling


def test_profile_gamma_is_a_pure_function_of_the_point():
    # other points in between, and the EW memo's state, change no bit
    rng = np.random.default_rng(4)
    cohort = fake_cohort(n=300, seed=4)
    points = [_random_gh(rng) for _ in range(3)]
    # one more point with the first one's EW block: it differs in beta2 only
    values = points[0].values.copy()
    values[-3:] += 0.1
    points.append(points[0].layout.to_params(values))
    first = profile_gamma(points[0], cohort)
    for params in points[1:] + points[:1] + points[3:]:
        profile_gamma(params, cohort)
    assert profile_gamma(points[0], cohort).hex() == first.hex()
    assert profile_gamma(points[0], replace(cohort)).hex() == first.hex()
    # a correction slot is not read
    assert profile_gamma(model_params(points[0], 3.0), cohort).hex() == first.hex()


# ---------------------------------------------------------------------------
# M3's mu profiled out at a fixed b
# ---------------------------------------------------------------------------

M3_BS = [math.exp(-20.0), 1e-3, 1.0, 1e3]


@pytest.mark.parametrize("b", M3_BS, ids=["e-20", "1e-3", "1", "1e3"])
@pytest.mark.parametrize("seed", range(2))
def test_profile_mu_is_the_bounded_maximum_over_mu_at_fixed_b(seed, b):
    # M3's log-likelihood at (GH, b) maximized over log mu by a bounded
    # scalar search on its values: the profile finds no lower value (1e-10
    # relative) and a vanishing score, D = sum dH_P log1p(y)/y setting its
    # scale as sum dH_P does M2's
    rng = np.random.default_rng(seed)
    cohort, gh = sim_cohort(n=400, seed=seed, pop_rate=0.05), _random_gh(rng)
    mu = profile_gamma(model_params(gh, 1.0, b), cohort)
    assert -20.0 < math.log(mu) < 20.0
    neg = lambda u: -loglik(model_params(gh, math.exp(u), b), cohort)  # noqa: E731
    best = minimize_scalar(neg, bounds=(-20.0, 20.0), method="bounded",
                           options={"xatol": 1e-12})
    assert -neg(math.log(mu)) >= -best.fun - 1e-10 * abs(best.fun)
    _, grad = loglik_and_grad(model_params(gh, mu, b), cohort)
    d = fsum(cohort.dhp * _log1p_ratio(b * cohort.dhp))
    assert abs(grad[-2]) <= 1e-10 * d


def test_profile_mu_sits_on_a_box_end_when_the_score_keeps_one_sign():
    gh = _random_gh(np.random.default_rng(9))
    c = fake_cohort(n=60, seed=9)
    ev = c.status == 1

    def with_pop(hp, dhp):
        return PreparedCohort(c.time, c.status, c.X, hp, dhp)

    floor, ceiling = math.exp(-20.0), math.exp(20.0)
    for b in (1e-3, 1.0, 1e3):
        m3 = model_params(gh, 1.0, b)
        # no event with h_P > 0, or D = 0
        assert profile_gamma(m3, with_pop(np.where(ev, 0.0, c.hp), c.dhp)) == floor
        assert profile_gamma(m3, with_pop(c.hp, np.zeros(c.n))) == ceiling
        # reached by the iteration: the events' h_P negligible beside h_E, or D
        # negligible beside the events' h_P / (1 + b dH_P)
        assert profile_gamma(m3, with_pop(c.hp * 1e-12, c.dhp)) == floor
        assert profile_gamma(m3, with_pop(c.hp, c.dhp * 1e-12)) == ceiling


def test_profile_mu_tends_to_profile_gamma_as_b_tends_to_zero():
    # M2 is M3's b = 0 case: once 1 + b dH_P rounds to 1 the two solves are
    # one computation, and at the box floor b = e^-20 mu* - gamma* is still
    # the linear term of b (about 2e-10 relative here), so it halves with b
    rng = np.random.default_rng(3)
    cohort, gh = sim_cohort(n=400, seed=3, pop_rate=0.05), _random_gh(rng)
    gamma = profile_gamma(gh, cohort)
    assert profile_gamma(model_params(gh, 1.0, 1e-20), cohort).hex() == gamma.hex()
    floor = math.exp(-20.0)
    mu = [profile_gamma(model_params(gh, 1.0, b), cohort) for b in (floor, floor / 2)]
    gap = [m / gamma - 1.0 for m in mu]
    assert 0.0 < abs(gap[0]) < 1e-9
    assert gap[0] == pytest.approx(2.0 * gap[1], rel=1e-3)
    # a mu slot is not read
    assert profile_gamma(model_params(gh, 5.0, floor), cohort).hex() == mu[0].hex()


# ---------------------------------------------------------------------------
# M3 population-term helpers: one branch per entry
# ---------------------------------------------------------------------------

def _log1p_ratio_two_branch(y):
    """Reference: both branches on every entry, picked by np.where."""
    y = np.asarray(y, dtype=float)
    with np.errstate(all="ignore"):
        small = y < 1e-4
        safe = np.where(small, 1.0, y)
        return np.where(small, 1.0 - y / 2.0 + y * y / 3.0, np.log1p(safe) / safe)


def _m3_pop_curvature_two_branch(y):
    y = np.asarray(y, dtype=float)
    with np.errstate(all="ignore"):
        small = y < 1e-3
        safe = np.where(small, 1.0, y)
        series = 0.5 - 2.0 * y / 3.0 + 3.0 * y * y / 4.0
        direct = np.log1p(safe) / (safe * safe) - 1.0 / (safe * (1.0 + safe))
        return np.where(small, series, direct)


@pytest.mark.parametrize(
    "fn, reference, threshold",
    [
        (_log1p_ratio, _log1p_ratio_two_branch, 1e-4),
        (_m3_pop_curvature, _m3_pop_curvature_two_branch, 1e-3),
    ],
)
def test_m3_helpers_bitwise_equal_two_branch_formulas(fn, reference, threshold):
    special = np.array(
        [0.0, -0.0, threshold, math.nextafter(threshold, 0.0), math.nextafter(threshold, 1.0),
         5e-324, 1e-300, 1e-4, 1e-3, 0.5, 1.0, 1e154, 1e200, np.inf, np.nan]
    )
    rng = np.random.default_rng(17)
    mixed = np.concatenate([special, np.exp(rng.uniform(-30.0, 8.0, 1000))])
    rng.shuffle(mixed)
    cases = [
        np.array(0.0), np.array(threshold), np.array(2.0), np.array(np.nan), np.array([]),
        special, mixed, mixed.reshape(5, 203),
        rng.uniform(0.0, threshold, 500),  # all small
        rng.uniform(threshold, 50.0, 500),  # all large
        np.concatenate([np.full(10, 0.5 * threshold), np.full(11, 3.0)]),  # minorities of
        np.concatenate([np.full(11, 0.5 * threshold), np.full(10, 3.0)]),  # either branch
    ]
    for y in cases:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # the helpers run under the caller's errstate
            got = fn(y)
        want = reference(y)
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), y


# ---------------------------------------------------------------------------
# Cohort and the cohort CSV
# ---------------------------------------------------------------------------

def _two_patients(age=64.0, year=2010.0, x=(0.5, 1.0)):
    """Columns of a two-patient cohort whose second patient (row 1) has the given values."""
    return dict(
        time=[1.0, 2.0], status=[1, 0], age_diag=[70.0, age], year_diag=[2010.0, year],
        X=[[0.0, 0.0], list(x)], strata=[("0",), ("1",)], stratum=[0, 1],
    )


@pytest.mark.parametrize("age, year", [(math.nan, 2010.0), (70.0, math.inf), (-math.inf, 2010.0)])
def test_patient_record_rejects_nonfinite_age_or_year(age, year):
    with pytest.raises(DataError, match="^row 1: age and year at diagnosis must be finite"):
        Cohort(**_two_patients(age=age, year=year))


@pytest.mark.parametrize("x", [[math.nan, 0.0], [0.5, math.inf], [-math.inf, 1.0]])
def test_patient_record_rejects_nonfinite_covariates(x):
    with pytest.raises(DataError, match="^row 1: covariates must be finite"):
        Cohort(**_two_patients(x=x))


def test_cohort_columns_are_read_only_and_of_one_length():
    cohort = Cohort(**_two_patients())
    assert cohort.status.dtype == np.int8 and cohort.X.shape == (2, 2)
    assert cohort.stratum.dtype == np.intp and cohort.strata == (("0",), ("1",))
    for column in (cohort.time, cohort.stratum):
        with pytest.raises(ValueError):
            column[0] = 1
    for bad in (
        {"time": [1.0]}, {"X": [0.0, 1.0]}, {"strata": ["0", "1"]},
        {"strata": [("0",), ("0",)]}, {"stratum": [0]}, {"stratum": [0.0, 1.0]},
    ):
        with pytest.raises(
            DataError, match="distinct strata tuples and one integer stratum code per row"
        ):
            Cohort(**{**_two_patients(), **bad})
    for code in (-1, 2):
        with pytest.raises(DataError, match=f"^row 1: stratum code must index one of the 2 strata, got {code}$"):
            Cohort(**{**_two_patients(), "stratum": [0, code]})
    with pytest.raises(DataError, match="cohort is empty"):
        Cohort([], [], [], [], np.zeros((0, 2)), [], [])


COHORT_CSV = """# follow-up of two patients
time,status,age_diag,year_diag,age,sex

1.5,1,64.0,2010,64.0,0
  # a comment between rows
4.0,0,75.5,2011,75.5,1
"""


def _load(text, **kwargs):
    return load_cohort(io.StringIO(text), ["age", "sex"], ["sex"], **kwargs)


@pytest.fixture
def two_sex_table():
    return make_life_table(
        ["sex"], (30, 100), (2005, 2020),
        lambda a, y, s: 0.01 + 0.0005 * (a - 30) + (0.01 if s == ("1",) else 0.0),
        [("0",), ("1",)],
    )


COLUMNS = ("time", "status", "age_diag", "year_diag", "X", "stratum")


def assert_same_cohort(got, want):
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.strata == want.strata


def test_load_cohort_reads_rows_and_applies_transforms(two_sex_table, tmp_path):
    cohort = _load(COHORT_CSV, transforms={"age": (70.0, 10.0)})
    direct = Cohort(
        [1.5, 4.0], [1, 0], [64.0, 75.5], [2010.0, 2011.0], [[-0.6, 0.0], [0.55, 1.0]],
        [("0",), ("1",)], [0, 1],
    )
    assert_same_cohort(cohort, direct)
    loaded = prepare_cohort(cohort, two_sex_table, covariate_names=("age", "sex"))
    built = prepare_cohort(direct, two_sex_table, covariate_names=("age", "sex"))
    for name in ("time", "status", "X", "hp", "dhp"):
        assert np.array_equal(getattr(loaded, name), getattr(built, name)), name
    assert loaded.covariate_names == built.covariate_names
    path = tmp_path / "cohort.csv"
    path.write_text(COHORT_CSV, encoding="utf-8")
    from_path = load_cohort(str(path), ["age", "sex"], ["sex"])
    assert from_path.X.tolist() == [[64.0, 0.0], [75.5, 1.0]]


@pytest.mark.parametrize(
    "row, message",
    [
        ("1.5,1,64.0,2010,64.0", "line 3: expected 6 fields, got 5"),
        ("1.5,1,sixty,2010,64.0,0", "line 3: could not convert"),
        ("0.0,1,64.0,2010,64.0,0", "line 3: follow-up time must be > 0"),
        ("1.5,2,64.0,2010,64.0,0", "line 3: status must be 0 or 1"),
        ("1.5,1,nan,2010,64.0,0", "line 3: age and year at diagnosis must be finite"),
        ("1.5,1,64.0,inf,64.0,0", "line 3: age and year at diagnosis must be finite"),
        ("1.5,1,64.0,2010,nan,0", "line 3: covariates must be finite"),
        ("1.5,1,64.0,2010,64.0,-inf", "line 3: covariates must be finite"),
    ],
)
def test_load_cohort_reports_the_line_of_a_bad_row(row, message):
    text = "# comment\ntime,status,age_diag,year_diag,age,sex\n" + row + "\n"
    with pytest.raises(DataError, match=message):
        _load(text)


@pytest.mark.parametrize(
    "center, scale", [(70.0, 0.0), (70.0, -0.0), (math.nan, 10.0), (70.0, math.inf)]
)
def test_load_cohort_rejects_bad_transforms(center, scale):
    with pytest.raises(DataError, match="transform of column 'age' needs a finite center"):
        _load(COHORT_CSV, transforms={"age": (center, scale)})


@pytest.mark.parametrize("column", ["Age", "age_diag", "w"])
def test_load_cohort_rejects_a_transform_of_a_column_that_is_not_an_x_column(column):
    # a misspelt name would otherwise leave the x column untransformed, unnoticed
    with pytest.raises(DataError, match=f"transform of column '{column}', which is not an x"):
        _load(COHORT_CSV, transforms={"age": (70.0, 10.0), column: (70.0, 1.0)})


def test_load_cohort_reports_a_covariate_the_transform_overflows():
    with pytest.raises(DataError, match="line 4: covariates must be finite"):
        _load(COHORT_CSV, transforms={"age": (0.0, 1e-307)})


@pytest.mark.parametrize(
    "text, message",
    [
        ("time,age_diag,year_diag,age,sex\n1.5,64.0,2010,64.0,0\n",
         "missing required column 'status'"),
        ("time,status,age_diag,year_diag,age,sex\n", "header but no data rows"),
        ("", "cohort file is empty"),
        ("# only a comment\n\n", "cohort file is empty"),
    ],
)
def test_load_cohort_rejects_bad_files(text, message):
    with pytest.raises(DataError, match=message):
        _load(text)


def test_load_cohort_rejects_a_repeated_column():
    # the last time column would otherwise win: the row would load with time 9.0
    text = "# comment\ntime,status,age_diag,year_diag,age,sex,time\n1.0,1,64.0,2010,64.0,0,9.0\n"
    with pytest.raises(DataError, match=r"cohort file repeats column 'time' \(line 2\)"):
        _load(text)


# ---------------------------------------------------------------------------
# property tests: a cohort survives its CSV, and a bad time is named
# ---------------------------------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def cohort_columns(draw):
    """Columns of a valid cohort: 1-8 patients, 0-3 covariates, 1-2 strata columns."""
    n, p, q = draw(st.integers(1, 8)), draw(st.integers(0, 3)), draw(st.integers(1, 2))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    stratum = st.lists(st.text("abz019", min_size=1, max_size=3), min_size=q, max_size=q)
    per_row = [tuple(z) for z in column(stratum)]
    strata = tuple(dict.fromkeys(per_row))  # in order of first appearance, as load_cohort codes them
    return dict(
        time=column(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        status=column(st.integers(0, 1)),
        age_diag=column(FINITE),
        year_diag=column(FINITE),
        X=np.array(column(st.lists(FINITE, min_size=p, max_size=p)), dtype=float).reshape(n, p),
        strata=strata,
        stratum=[strata.index(z) for z in per_row],
    )


def cohort_csv(cols, comments):
    """CSV text of cohort columns, ``comments[i]`` comment lines before row i,
    and the line number of every row."""
    n, p = len(cols["stratum"]), cols["X"].shape[1]
    q = len(cols["strata"][0])
    x_cols, z_cols = [f"x{j}" for j in range(p)], [f"z{j}" for j in range(q)]
    lines = [",".join(["time", "status", "age_diag", "year_diag", *x_cols, *z_cols])]
    line_nos = []
    for i in range(n):
        lines += ["# a comment"] * comments[i]
        line_nos.append(len(lines) + 1)
        numbers = [cols["time"][i], cols["age_diag"][i], cols["year_diag"][i], *cols["X"][i]]
        time, age, year, *x = (repr(float(v)) for v in numbers)
        status = str(int(cols["status"][i]))
        lines.append(",".join([time, status, age, year, *x, *cols["strata"][cols["stratum"][i]]]))
    return "\n".join(lines) + "\n", x_cols, z_cols, line_nos


@settings(max_examples=60, deadline=None)
@given(cohort_columns(), st.data())
def test_a_cohort_written_as_csv_reads_back_equal(cols, data):
    n = len(cols["stratum"])
    comments = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    text, x_cols, z_cols, _ = cohort_csv(cols, comments)
    assert_same_cohort(load_cohort(io.StringIO(text), x_cols, z_cols), Cohort(**cols))


@settings(max_examples=60, deadline=None)
@given(cohort_columns(), st.data())
def test_a_bad_time_is_named_by_its_row_and_its_line(cols, data):
    n = len(cols["stratum"])
    i = data.draw(st.integers(0, n - 1))
    bad = data.draw(
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])
        | st.floats(max_value=0.0, allow_nan=False)
    )
    cols["time"][i] = bad
    if i < n - 1 and data.draw(st.booleans()):
        cols["status"][n - 1] = 2  # a later bad row does not hide the first
    with pytest.raises(DataError, match=rf"^row {i}: follow-up time must be > 0"):
        Cohort(**cols)
    comments = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    text, x_cols, z_cols, line_nos = cohort_csv(cols, comments)
    with pytest.raises(DataError, match=rf"^line {line_nos[i]}: follow-up time must be > 0"):
        load_cohort(io.StringIO(text), x_cols, z_cols)
