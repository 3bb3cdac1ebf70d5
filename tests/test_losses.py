import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedtoken import losses
from oracles import feasible_interval, loss_values


def test_squared_conjugate_at_origin_is_zero():
    for y in (-1.0, 1.0):
        assert losses.conjugate(losses.SQUARED, 0.0, y) == 0.0


def test_squared_conjugate_formula():
    # a*y - a^2/2
    assert losses.conjugate(losses.SQUARED, 0.4, 1.0) == pytest.approx(0.4 - 0.08)
    assert losses.conjugate(losses.SQUARED, -2.0, -1.0) == pytest.approx(2.0 - 2.0)


def test_logistic_entropy_endpoints_are_zero():
    assert losses.conjugate(losses.LOGISTIC, 0.0, 1.0) == 0.0
    assert losses.conjugate(losses.LOGISTIC, 1.0, 1.0) == 0.0
    assert losses.conjugate(losses.LOGISTIC, -1.0, -1.0) == 0.0


def test_logistic_entropy_midpoint_is_log_two():
    expected = -(0.5 * math.log(0.5) + 0.5 * math.log(0.5))
    assert losses.conjugate(losses.LOGISTIC, 0.5, 1.0) == pytest.approx(expected)
    assert expected == pytest.approx(math.log(2.0))


def test_logistic_domain_error_outside_unit_interval():
    with pytest.raises(losses.DualDomainError):
        losses.conjugate(losses.LOGISTIC, 1.5, 1.0)
    with pytest.raises(losses.DualDomainError):
        losses.conjugate(losses.LOGISTIC, 0.5, -1.0)


def test_logistic_conjugate_over_arrays():
    y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
    a = np.array([0.0, 1.0, 0.25, -0.75, -1.0, -1e-12, 1.0 + 1e-12])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = losses.conjugate(losses.LOGISTIC, a, y)
    # 0 log 0 = 0 at both endpoints, also just outside them within 1e-12
    expected = [0.0, 0.0, -(0.25 * math.log(0.25) + 0.75 * math.log(0.75)),
                -(0.75 * math.log(0.75) + 0.25 * math.log(0.25)), 0.0, 0.0, 0.0]
    np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0.0)
    with pytest.raises(losses.DualDomainError, match="1.000000000002"):
        losses.conjugate(losses.LOGISTIC, np.array([0.5, 1.0 + 2e-12]), np.ones(2))
    with pytest.raises(losses.DualDomainError):
        losses.conjugate(losses.LOGISTIC, np.array([-2e-12]), np.ones(1))


@given(st.floats(-30.0, 30.0), st.sampled_from([-1.0, 1.0]))
def test_logistic_loss_is_stable_and_positive(z, y):
    val = loss_values(losses.LOGISTIC, np.array([z]), np.array([y]))[0]
    assert np.isfinite(val) and val >= 0.0


def test_logistic_kernel_matches_logaddexp_at_extreme_margins():
    margins = np.concatenate([[-1e4, -700.0, 700.0, 1e4], np.linspace(-40.0, 40.0, 801)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = loss_values(losses.LOGISTIC, margins, -np.ones_like(margins))
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, np.logaddexp(0.0, margins), rtol=1e-15, atol=0.0)


def test_mean_loss_of_zero_model():
    feats = np.ones((4, 2))
    labels = np.array([1.0, -1.0, 1.0, -1.0])
    w = np.zeros(2)
    assert losses.mean_loss(losses.SQUARED, w, feats, labels) == pytest.approx(0.5)
    assert losses.mean_loss(losses.LOGISTIC, w, feats, labels) == pytest.approx(math.log(2.0))


EXTREME_MARGINS = (1e4, -1e4, 700.0, -700.0, 0.0, -0.0)


@given(st.integers(1, 3000), st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from(EXTREME_MARGINS), max_size=12),
       st.sampled_from([0.1, 3.0, 300.0]))
def test_folded_margin_mean_loss_matches_the_labelled_one_to_the_bit(n, seed, extremes,
                                                                      spread):
    # rows that carry -label give the same logistic loss as labelled rows
    gen = np.random.default_rng(seed)
    features = spread * gen.standard_normal((n, 3))
    labels = gen.choice([-1.0, 1.0], n)
    w = np.array([1.0, *gen.standard_normal(2)])
    # a row [z, 0, 0] scores z itself
    rows = gen.choice(n, min(len(extremes), n), replace=False)
    features[rows] = 0.0
    features[rows, 0] = extremes[:len(rows)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        labelled = losses.mean_loss(losses.LOGISTIC, w, features, labels)
        folded = losses.mean_loss(losses.LOGISTIC, w, features * -labels[:, None], None)
        values = loss_values(losses.LOGISTIC, features @ w, labels)
    assert folded.hex() == labelled.hex()
    assert labelled.hex() == float(values.sum() / n).hex()


@pytest.mark.parametrize("n", [1, 2, 11, 257, 2000, 3000])
def test_squared_mean_loss_matches_the_mean_of_the_loss_values(n):
    gen = np.random.default_rng(n)
    for spread in (1e-3, 1.0, 1e3):
        features = spread * gen.standard_normal((n, 7))
        labels = gen.choice([-1.0, 1.0], n)
        w = gen.standard_normal(7)
        got = losses.mean_loss(losses.SQUARED, w, features, labels)
        want = loss_values(losses.SQUARED, features @ w, labels).mean()
        assert abs(got - want) <= 1e-15 * want, (spread, got, want)


@pytest.mark.parametrize("n", [1, 3, 257])
def test_unlabelled_squared_mean_loss_is_the_loss_with_zero_labels_to_the_bit(n):
    # rows that carry their label already score the residual itself
    gen = np.random.default_rng(n)
    features = gen.standard_normal((n, 3))
    w = gen.standard_normal(3)
    unlabelled = losses.mean_loss(losses.SQUARED, w, features, None)
    zero = losses.mean_loss(losses.SQUARED, w, features, np.zeros(n))
    assert unlabelled.hex() == zero.hex()


def test_feasible_interval():
    assert feasible_interval(losses.LOGISTIC, 1.0) == (0.0, 1.0)
    assert feasible_interval(losses.LOGISTIC, -1.0) == (-1.0, 0.0)
    lo, hi = feasible_interval(losses.SQUARED, 1.0)
    assert lo == -math.inf and hi == math.inf
