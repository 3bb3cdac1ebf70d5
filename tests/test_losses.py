import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedtoken import losses


def test_squared_conjugate_at_origin_is_zero():
    for y in (-1.0, 1.0):
        assert losses.conjugate_term(losses.SQUARED, 0.0, y) == 0.0


def test_squared_conjugate_formula():
    # a*y - a^2/2
    assert losses.conjugate_term(losses.SQUARED, 0.4, 1.0) == pytest.approx(0.4 - 0.08)
    assert losses.conjugate_term(losses.SQUARED, -2.0, -1.0) == pytest.approx(2.0 - 2.0)


def test_logistic_entropy_endpoints_are_zero():
    assert losses.conjugate_term(losses.LOGISTIC, 0.0, 1.0) == 0.0
    assert losses.conjugate_term(losses.LOGISTIC, 1.0, 1.0) == 0.0
    assert losses.conjugate_term(losses.LOGISTIC, -1.0, -1.0) == 0.0


def test_logistic_entropy_midpoint_is_log_two():
    expected = -(0.5 * math.log(0.5) + 0.5 * math.log(0.5))
    assert losses.conjugate_term(losses.LOGISTIC, 0.5, 1.0) == pytest.approx(expected)
    assert expected == pytest.approx(math.log(2.0))


def test_logistic_domain_error_outside_unit_interval():
    with pytest.raises(losses.DualDomainError):
        losses.conjugate_term(losses.LOGISTIC, 1.5, 1.0)
    with pytest.raises(losses.DualDomainError):
        losses.conjugate_term(losses.LOGISTIC, 0.5, -1.0)


@given(st.floats(-30.0, 30.0), st.sampled_from([-1.0, 1.0]))
def test_logistic_loss_is_stable_and_positive(z, y):
    val = losses.loss_values(losses.LOGISTIC, np.array([z]), np.array([y]))[0]
    assert np.isfinite(val) and val >= 0.0


def test_logistic_kernel_matches_logaddexp_at_extreme_margins():
    margins = np.concatenate([[-1e4, -700.0, 700.0, 1e4], np.linspace(-40.0, 40.0, 801)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = losses.loss_values(losses.LOGISTIC, margins, -np.ones_like(margins))
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, np.logaddexp(0.0, margins), rtol=1e-15, atol=0.0)


def test_mean_loss_of_zero_model():
    feats = np.ones((4, 2))
    labels = np.array([1.0, -1.0, 1.0, -1.0])
    w = np.zeros(2)
    assert losses.mean_loss(losses.SQUARED, w, feats, labels) == pytest.approx(0.5)
    assert losses.mean_loss(losses.LOGISTIC, w, feats, labels) == pytest.approx(math.log(2.0))


def test_feasible_interval():
    assert losses.feasible_interval(losses.LOGISTIC, 1.0) == (0.0, 1.0)
    assert losses.feasible_interval(losses.LOGISTIC, -1.0) == (-1.0, 0.0)
    lo, hi = losses.feasible_interval(losses.SQUARED, 1.0)
    assert lo == -math.inf and hi == math.inf
