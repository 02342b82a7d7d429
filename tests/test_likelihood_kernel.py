"""The likelihood kernels give the bits of the plain expressions.

``likelihood_reference`` keeps the terms, the gradient and the EW kernel as
they were written before the value and gradient kernels were fused.  At any
point, inside the optimizer's box or beyond it, ``loglik`` in both
conventions and ``loglik_and_grad`` must return the same ``float.hex``, the
same gradient bytes, or the same exception with the same message.  The
value and gradient of ``loglik_grad_hess`` come from the same first-order
stage as ``loglik_and_grad``'s, so they keep the same bits too.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import likelihood_reference as ref
from exhaz.distributions import ew_log_terms
from exhaz.likelihoods import (
    MODELS,
    ParamLayout,
    PreparedCohort,
    loglik,
    loglik_and_grad,
    loglik_grad_hess,
)


def outcome(fn, *args):
    """The bits of ``fn(*args)``, or the type and message of what it raises."""
    try:
        out = fn(*args)
    except Exception as exc:  # noqa: BLE001 - any difference is a failure
        return type(exc), str(exc)
    if isinstance(out, tuple):
        ll, grad = out
        return float(ll).hex(), grad.dtype, grad.tobytes()
    return float(out).hex()


def assert_same_bits(params, cohort):
    for comparable in (False, True):
        want = outcome(ref.loglik, params, cohort, comparable)
        assert outcome(loglik, params, cohort, comparable) == want, comparable
    assert outcome(loglik_and_grad, params, cohort) == outcome(ref.loglik_and_grad, params, cohort)


# a log-parameter near the usual scale or anywhere up to past the box bound of
# +-20; a regression coefficient likewise against the bound of +-100
LOG_PARAM = st.one_of(st.floats(-1.5, 1.5), st.floats(-23.0, 23.0))
COEF = st.one_of(st.floats(-2.0, 2.0), st.floats(-110.0, 110.0))


@st.composite
def points(draw):
    n = draw(st.integers(1, 48))
    p = draw(st.integers(0, 2))
    model = draw(st.sampled_from(MODELS))
    rows = st.tuples(
        st.floats(1e-3, 60.0),  # time: past theta, so w > 200 and w > 600 occur
        st.integers(0, 1),
        st.lists(st.floats(-3.0, 3.0), min_size=p, max_size=p),
        st.one_of(st.just(0.0), st.floats(0.0, 0.3)),  # hp
        st.one_of(st.just(0.0), st.floats(0.0, 3.0)),  # dhp, 0 puts M3's y at 0
    )
    time, status, X, hp, dhp = zip(*draw(st.lists(rows, min_size=n, max_size=n)))
    cohort = PreparedCohort(
        np.array(time), np.array(status), np.array(X).reshape(n, p), np.array(hp), np.array(dhp)
    )
    layout = ParamLayout.for_model(model, cohort.covariate_names)
    t = np.array(
        [draw(LOG_PARAM) for _ in range(3)]
        + [draw(COEF) for _ in range(2 * p)]
        + [draw(LOG_PARAM) for _ in range(layout.k - 3 - 2 * p)]  # the corrections
    )
    return layout.to_params(np.where(layout.positive, np.exp(t), t)), cohort


@settings(max_examples=300, deadline=None)
@given(points())
def test_fused_kernel_matches_the_plain_expressions(point):
    assert_same_bits(*point)


@settings(max_examples=300, deadline=None)
@given(points())
def test_the_hessian_pass_returns_the_bits_of_the_gradient_pass(point):
    def first_two(*args):
        return loglik_grad_hess(*args)[:2]

    assert outcome(first_two, *point) == outcome(loglik_and_grad, *point)


def tail_cohort(n=60, seed=3):
    """Times from 0.05 to 14 with kappa = 2 and theta = 0.5: w runs from 0.01
    to 784, so rows fall below w = 200, between 200 and 600, and above 600."""
    rng = np.random.default_rng(seed)
    time = np.linspace(0.05, 14.0, n)
    X = rng.normal(0.0, 0.2, (n, 2))
    hp = rng.uniform(0.0, 0.05, n)
    return PreparedCohort(time, rng.integers(0, 2, n), X, hp, hp * time)


@pytest.mark.parametrize("model", MODELS)
def test_tail_rows_keep_their_bits(model):
    cohort = tail_cohort()
    layout = ParamLayout.for_model(model, cohort.covariate_names)
    corr = {"M1": [], "M2": [1.3], "M3": [1.2, 0.4]}[model]
    for beta in (0.0, 0.05, -0.08):
        vec = np.array([2.0, 0.5, 1.4, beta, -beta, 0.1, beta, *corr])
        params = layout.to_params(vec)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            w = ew_log_terms(cohort.time * np.exp(cohort.X @ params.beta1), 2.0, 0.5, 1.4)[0]
        assert (w < 200).any() and ((200 < w) & (w <= 600)).any() and (w > 600).any()
        ll, grad = loglik_and_grad(params, cohort)
        assert math.isfinite(ll) and np.isfinite(grad).all()
        assert_same_bits(params, cohort)
