"""Likelihood terms against hand computations, quadrature, and brute force."""

import io
import math
from dataclasses import replace
from math import fsum

import numpy as np
import pytest
from scipy.integrate import quad

from exhaz.distributions import EwParams, GammaFrailtyParams, gamma_frailty_pdf
from exhaz.errors import DataError, NonFiniteLikelihood
from exhaz.gh_model import GhParams, excess_cum_hazard, excess_hazard
from exhaz.lifetable import LexisPosition, make_life_table
from exhaz.likelihoods import (
    ModelParams,
    PatientRecord,
    PreparedCohort,
    SingleGamma,
    _ew_block,
    _exact_sum,
    _log1p_ratio,
    _m3_pop_curvature,
    _terms,
    load_cohort,
    loglik,
    loglik_and_grad,
    marginal_survival_m3,
    omega1,
    overall_hazard,
    prepare_cohort,
)

BASE = EwParams(0.6, 1.75, 2.5)
GH = GhParams(BASE, beta1=np.array([0.1, 0.1, 0.1]), beta2=np.array([0.05, 0.2, 0.25]))


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


# ---------------------------------------------------------------------------
# overall hazard and omega1
# ---------------------------------------------------------------------------

def test_m2_gamma_one_equals_m1():
    m1 = ModelParams(GH)
    m2 = ModelParams(GH, SingleGamma(1.0))
    x = np.array([0.5, 1.0, 0.0])
    for t, hp, dhp in [(0.5, 0.02, 0.01), (3.0, 0.05, 0.12)]:
        assert overall_hazard(t, x, m2, hp, dhp) == overall_hazard(t, x, m1, hp, dhp)


def test_m3_at_dhp_zero_is_mu_times_hp():
    m3 = ModelParams(GH, GammaFrailtyParams(6.5, 10.0))
    x = np.zeros(3)
    he = float(excess_hazard(1.0, x, GH))
    assert overall_hazard(1.0, x, m3, 0.02, 0.0) == pytest.approx(6.5 * 0.02 + he, rel=1e-12)


def test_m3_population_term_arithmetic():
    m3 = ModelParams(GH, GammaFrailtyParams(6.5, 10.0))
    x = np.zeros(3)
    he = float(excess_hazard(1.0, x, GH))
    got = overall_hazard(1.0, x, m3, 0.02, 0.1)
    assert got - he == pytest.approx(6.5 * 0.02 / 2.0, rel=1e-12)


def test_omega1_values():
    g = GammaFrailtyParams(6.5, 10.0)
    assert omega1(0.0, g) == 6.5
    assert omega1(0.1, g) == pytest.approx(3.25, rel=1e-14)
    tiny_b = GammaFrailtyParams(6.5, 1e-10)
    for dhp in (0.0, 1.0, 10.0):
        assert omega1(dhp, tiny_b) == pytest.approx(6.5, rel=1e-8)
    # strictly decreasing in dhp
    grid = np.linspace(0, 5, 50)
    vals = omega1(grid, g)
    assert np.all(np.diff(vals) < 0)


# ---------------------------------------------------------------------------
# marginal survival under M3
# ---------------------------------------------------------------------------

@pytest.fixture
def flat_table():
    return make_life_table(["sex"], (30, 100), (2005, 2020), lambda a, y, s: 0.03, [("0",)])


def rec(t=2.0, status=1, age=70.0, x=(0.2, 1.0, 0.0)):
    return PatientRecord(
        time=t, status=status, age_diag=age, year_diag=2010.0, x=np.array(x), z=("0",)
    )


def test_marginal_survival_one_at_zero(flat_table):
    m3 = ModelParams(GH, GammaFrailtyParams(1.875, 0.075))
    assert marginal_survival_m3(0.0, rec(), m3, flat_table) == pytest.approx(1.0)


def test_marginal_survival_matches_frailty_quadrature(flat_table):
    # integrate the conditional survival over the frailty law
    r0 = rec()
    for mu, b in [(1.2, 0.02), (1.875, 0.075), (6.5, 10.0)]:
        g = GammaFrailtyParams(mu, b)
        m3 = ModelParams(GH, g)
        for t in (0.5, 2.0, 4.5):
            dhp = 0.03 * t  # constant-rate table
            he = float(excess_cum_hazard(t, r0.x, GH))
            integrand = lambda r: math.exp(-r * dhp) * float(gamma_frailty_pdf(r, g))
            lap = quad(integrand, 0, 1, limit=400)[0] + quad(
                integrand, 1, np.inf, limit=400
            )[0]
            expected = math.exp(-he) * lap
            got = float(marginal_survival_m3(t, r0, m3, flat_table))
            assert got == pytest.approx(expected, abs=1e-8)


def test_marginal_survival_b_to_zero_limit(flat_table):
    # b -> 0 collapses to the single-parameter correction with gamma = mu
    r0 = rec()
    mu = 1.7
    m3 = ModelParams(GH, GammaFrailtyParams(mu, 1e-8))
    t = 3.0
    dhp = 0.03 * t
    he = float(excess_cum_hazard(t, r0.x, GH))
    expected = math.exp(-he - mu * dhp)
    assert float(marginal_survival_m3(t, r0, m3, flat_table)) == pytest.approx(
        expected, rel=1e-6
    )


def test_marginal_survival_batch_matches_scalar():
    table = make_life_table(
        ["sex"], (30, 100), (2005, 2020),
        lambda a, y, s: 1e-3 * math.exp(0.08 * (a - 30)) * (1.4 if s == ("1",) else 1.0)
        * (1.0 - 0.02 * (y - 2005)),
        [("0",), ("1",)],
    )
    rng = np.random.default_rng(5)
    recs = [
        PatientRecord(
            time=float(rng.uniform(0.1, 8.0)), status=1, age_diag=float(rng.uniform(40, 99)),
            year_diag=float(rng.uniform(2005, 2019)), x=rng.normal(0, 1, 3),
            z=(str(rng.integers(0, 2)),),
        )
        for _ in range(40)
    ]
    m3 = ModelParams(GH, GammaFrailtyParams(1.875, 0.075))
    t = np.array([r.time for r in recs]) * 0.7
    for advance_year in (True, False):
        batch = marginal_survival_m3(t, recs, m3, table, advance_year)
        assert batch.shape == (len(recs),)
        for i, r in enumerate(recs):
            one = marginal_survival_m3(t[i], r, m3, table, advance_year)
            assert batch[i] == pytest.approx(float(one), rel=1e-14, abs=0.0)


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
    yield _terms(ModelParams(GH, GammaFrailtyParams(1.875, 0.075)), cohort, False)[0]
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
    other = GhParams(EwParams(1.3, 0.9, 0.7), GH.beta1 + 0.05, GH.beta2)
    flipped = GhParams(BASE, -GH.beta1, GH.beta2)
    points = []
    for gh in (GH, other, flipped):
        for corr in (None, SingleGamma(1.4), GammaFrailtyParams(2.0, 0.3)):
            for db2 in (0.0, 1e-3, -0.2):  # moves beta2 only: same EW block
                points.append(
                    ModelParams(GhParams(gh.baseline, gh.beta1, gh.beta2 + db2), corr)
                )
    points += points[:5]  # back to the first block after it was evicted
    for params in points:
        for comparable in (False, True):
            fresh = replace(cohort)
            assert len(fresh._ew_memo) == 0 and fresh._ew_memo is not cohort._ew_memo
            want = loglik(params, fresh, comparable)
            assert loglik(params, cohort, comparable).hex() == want.hex()
            ll, grad = loglik_and_grad(params, cohort, comparable)
            ll_f, grad_f = loglik_and_grad(params, replace(cohort), comparable)
            assert ll.hex() == ll_f.hex() == want.hex()
            assert np.array_equal(grad.view(np.int64), grad_f.view(np.int64))
        assert 1 <= len(cohort._ew_memo) <= 2
        for block in cohort._ew_memo.values():
            for arr in block:
                assert not arr.flags.writeable
    with pytest.raises(ValueError):
        next(iter(cohort._ew_memo.values()))[0][0] = 0.0


def test_ew_memo_shares_blocks_and_evicts_least_recent():
    cohort = fake_cohort(40, seed=43)
    a = _ew_block(GH, cohort)
    same = GhParams(BASE, GH.beta1.copy(), GH.beta2 + 1.0)
    assert _ew_block(same, cohort) is a
    b = _ew_block(GhParams(BASE, GH.beta1 + 1e-9, GH.beta2), cohort)
    assert _ew_block(GH, cohort) is a  # a is now the most recent
    _ew_block(GhParams(EwParams(0.6, 1.75, 2.6), GH.beta1, GH.beta2), cohort)
    assert len(cohort._ew_memo) == 2
    assert _ew_block(GH, cohort) is a
    assert all(blk is not b for blk in cohort._ew_memo.values())
    # no covariates: beta1 is empty and the key still tells blocks apart
    bare = PreparedCohort(cohort.time, cohort.status, cohort.X[:, :0], cohort.hp, cohort.dhp)
    assert _ew_block(GhParams(BASE), bare) is _ew_block(GhParams(BASE), bare)
    _ew_block(GhParams(EwParams(0.6, 1.75, 2.6)), bare)
    assert len(bare._ew_memo) == 2


def test_m2_at_gamma_one_equals_m1_minus_sum_dhp():
    cohort = fake_cohort(200, seed=3)
    l1 = loglik(ModelParams(GH), cohort)
    l2 = loglik(ModelParams(GH, SingleGamma(1.0)), cohort)
    assert l2 == pytest.approx(l1 - cohort.sum_dhp(), abs=1e-10)


def test_single_censored_patient_m3_hand_check():
    t, dhp, hp = 2.5, 0.08, 0.03
    mu, b = 1.875, 0.075
    x = np.array([0.4, 0.0, 1.0])
    cohort = PreparedCohort(
        np.array([t]), np.array([0], dtype=np.int8),
        x[None, :], np.array([hp]), np.array([dhp]),
    )
    he = float(excess_cum_hazard(t, x, GH))
    expected = -he - (mu / b) * math.log1p(b * dhp)
    got = loglik(ModelParams(GH, GammaFrailtyParams(mu, b)), cohort)
    assert got == pytest.approx(expected, rel=1e-12)


def test_loglik_matches_per_patient_brute_force():
    # independent route: log[h_o^delta * S_o] from the marginal formulas
    cohort = fake_cohort(50, seed=11)
    for params in (
        ModelParams(GH),
        ModelParams(GH, SingleGamma(1.7)),
        ModelParams(GH, GammaFrailtyParams(6.5, 10.0)),
    ):
        brute_terms = []
        for i in range(cohort.n):
            t = float(cohort.time[i])
            x = cohort.X[i]
            hp, dhp = float(cohort.hp[i]), float(cohort.dhp[i])
            he = float(excess_cum_hazard(t, x, GH))
            corr = params.correction
            if corr is None:
                log_s = -he  # population-survival constant omitted for M1
            elif isinstance(corr, SingleGamma):
                log_s = -he - corr.gamma * dhp
            else:
                log_s = -he - (corr.mu / corr.b) * math.log1p(corr.b * dhp)
            term = log_s
            if cohort.status[i] == 1:
                term += math.log(float(overall_hazard(t, x, params, hp, dhp)))
            brute_terms.append(term)
        assert loglik(params, cohort) == pytest.approx(fsum(brute_terms), abs=1e-9)


def test_delta_flip_changes_by_log_hazard():
    cohort = fake_cohort(30, seed=5)
    params = ModelParams(GH, GammaFrailtyParams(1.2, 0.02))
    base = loglik(params, cohort)
    i = 7
    status = cohort.status.copy()
    assert status[i] == 0 or status[7] == 1  # flip whatever it is
    flipped = status.copy()
    flipped[i] = 1 - flipped[i]
    cohort2 = PreparedCohort(cohort.time, flipped, cohort.X, cohort.hp, cohort.dhp)
    lam = float(
        overall_hazard(cohort.time[i], cohort.X[i], params, cohort.hp[i], cohort.dhp[i])
    )
    sign = 1.0 if flipped[i] == 1 else -1.0
    assert loglik(params, cohort2) - base == pytest.approx(sign * math.log(lam), abs=1e-10)


def test_m3_b_to_zero_approaches_m2():
    cohort = fake_cohort(150, seed=9)
    mu = 2.2
    l2 = loglik(ModelParams(GH, SingleGamma(mu)), cohort)
    for b in (1e-6, 1e-8):
        l3 = loglik(ModelParams(GH, GammaFrailtyParams(mu, b)), cohort)
        assert l3 == pytest.approx(l2, rel=1e-5)


def test_permutation_invariance_exact():
    cohort = fake_cohort(500, seed=13)
    params = ModelParams(GH, GammaFrailtyParams(6.5, 10.0))
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
    gh = GhParams(BASE, beta1=np.zeros(1), beta2=np.array([-800.0]))
    cohort = PreparedCohort(
        np.array([1.0, 2.0]),
        np.array([1, 1], dtype=np.int8),
        np.array([[0.0], [1.0]]),
        np.array([0.01, 0.0]),
        np.array([0.01, 0.0]),
    )
    with pytest.raises(NonFiniteLikelihood) as err:
        loglik(ModelParams(gh), cohort)
    assert err.value.patient_index == 1


def test_comparable_scale_identity():
    cohort = fake_cohort(80, seed=21)
    l1c = loglik(ModelParams(GH), cohort, comparable=True)
    l2c = loglik(ModelParams(GH, SingleGamma(1.0)), cohort, comparable=True)
    assert l2c == l1c  # bitwise: identical code path at gamma = 1


# ---------------------------------------------------------------------------
# analytic gradient against central finite differences
# ---------------------------------------------------------------------------

def params_from_vector(vec, model, p=3):
    gh = GhParams(
        EwParams(vec[0], vec[1], vec[2]),
        beta1=np.array(vec[3 : 3 + p]),
        beta2=np.array(vec[3 + p : 3 + 2 * p]),
    )
    if model == "M1":
        return ModelParams(gh)
    if model == "M2":
        return ModelParams(gh, SingleGamma(vec[3 + 2 * p]))
    return ModelParams(gh, GammaFrailtyParams(vec[3 + 2 * p], vec[4 + 2 * p]))


def fd_gradient(vec, model, cohort, h=1e-6):
    grad = np.empty(len(vec))
    for j in range(len(vec)):
        hj = h * max(1.0, abs(vec[j]))
        up, dn = vec.copy(), vec.copy()
        up[j] += hj
        dn[j] -= hj
        lu = loglik(params_from_vector(up, model), cohort)
        ld = loglik(params_from_vector(dn, model), cohort)
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
        params = params_from_vector(vec, model)
        ll, grad = loglik_and_grad(params, cohort)
        assert ll == pytest.approx(loglik(params, cohort), abs=1e-10)
        fd = fd_gradient(vec, model, cohort)
        scale = np.maximum(1.0, np.abs(fd))
        assert np.max(np.abs(grad - fd) / scale) < 1e-5


def test_fd_gradient_richardson_self_consistency():
    # the optimization surface is smooth: h=1e-4 and h=1e-5 agree
    cohort = fake_cohort(120, seed=37)
    vec = np.array([0.7, 1.5, 2.0, 0.05, 0.1, -0.1, 0.1, 0.2, 0.15, 2.5, 1.0])
    g4 = fd_gradient(vec, "M3", cohort, h=1e-4)
    g5 = fd_gradient(vec, "M3", cohort, h=1e-5)
    scale = np.maximum(1.0, np.abs(g4))
    assert np.max(np.abs(g4 - g5) / scale) < 1e-4


def test_prepare_cohort_caches_match_table(flat_table):
    records = [rec(t=1.2, age=64.3), rec(t=4.0, status=0, age=75.0)]
    cohort = prepare_cohort(records, flat_table)
    assert cohort.n == 2
    # constant-rate table: dhp = 0.03 * t, hp = 0.03 everywhere
    assert cohort.dhp[0] == pytest.approx(0.03 * 1.2, rel=1e-12)
    assert cohort.dhp[1] == pytest.approx(0.03 * 4.0, rel=1e-12)
    assert np.allclose(cohort.hp, 0.03)
    assert cohort.n_events == 1


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
        got, want = fn(y), reference(y)
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), y


# ---------------------------------------------------------------------------
# PatientRecord and the cohort CSV
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("age, year", [(math.nan, 2010.0), (70.0, math.inf), (-math.inf, 2010.0)])
def test_patient_record_rejects_nonfinite_age_or_year(age, year):
    with pytest.raises(DataError, match="must be finite"):
        PatientRecord(time=1.0, status=1, age_diag=age, year_diag=year, x=np.zeros(1), z=("0",))


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


def test_load_cohort_reads_rows_and_applies_transforms(two_sex_table, tmp_path):
    records = _load(COHORT_CSV, transforms={"age": (70.0, 10.0)})
    direct = [
        PatientRecord(1.5, 1, 64.0, 2010.0, np.array([-0.6, 0.0]), ("0",)),
        PatientRecord(4.0, 0, 75.5, 2011.0, np.array([0.55, 1.0]), ("1",)),
    ]
    assert len(records) == 2
    for got, want in zip(records, direct):
        assert (got.time, got.status, got.age_diag, got.year_diag, got.z) == (
            want.time, want.status, want.age_diag, want.year_diag, want.z
        )
        assert np.array_equal(got.x, want.x)
    loaded = prepare_cohort(records, two_sex_table, covariate_names=("age", "sex"))
    built = prepare_cohort(direct, two_sex_table, covariate_names=("age", "sex"))
    for name in ("time", "status", "X", "hp", "dhp"):
        assert np.array_equal(getattr(loaded, name), getattr(built, name)), name
    assert loaded.covariate_names == built.covariate_names
    path = tmp_path / "cohort.csv"
    path.write_text(COHORT_CSV, encoding="utf-8")
    from_path = load_cohort(str(path), ["age", "sex"], ["sex"])
    assert [r.x.tolist() for r in from_path] == [[64.0, 0.0], [75.5, 1.0]]


@pytest.mark.parametrize(
    "row, message",
    [
        ("1.5,1,64.0,2010,64.0", "line 3: expected 6 fields, got 5"),
        ("1.5,1,sixty,2010,64.0,0", "line 3: could not convert"),
        ("0.0,1,64.0,2010,64.0,0", "line 3: follow-up time must be > 0"),
        ("1.5,2,64.0,2010,64.0,0", "line 3: status must be 0 or 1"),
        ("1.5,1,nan,2010,64.0,0", "line 3: age and year at diagnosis must be finite"),
        ("1.5,1,64.0,inf,64.0,0", "line 3: age and year at diagnosis must be finite"),
    ],
)
def test_load_cohort_reports_the_line_of_a_bad_row(row, message):
    text = "# comment\ntime,status,age_diag,year_diag,age,sex\n" + row + "\n"
    with pytest.raises(DataError, match=message):
        _load(text)


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
