"""Moment statistics: the two-pass reference, and the pooling layer, an
autodiff op checked here beside the statistics it pools."""

import math

import numpy as np
import pytest

from xveckit.autodiff import POOL_EPS, Tape, Tensor, grad_check, mse_loss, stats_pool
from xveckit.errors import ConfigurationError, DataError, PoolingError
from xveckit.stats import DEGENERATE_SIGMA, hos_vector, moments


# ---------------------------------------------------------------------------
# frozen worked examples
# ---------------------------------------------------------------------------

def test_two_point_column():
    np.testing.assert_allclose(hos_vector([[0.0], [2.0]]), [1.0, 1.0, 0.0, 1.0],
                               rtol=0, atol=1e-15)


def test_three_zeros_one_one():
    # exact closed forms: sigma = sqrt(3)/4, skew = 2/sqrt(3), kurt = 7/3
    m = moments([[0.0], [0.0], [0.0], [1.0]])
    assert m.mu[0] == pytest.approx(0.25, abs=1e-15)
    assert m.sigma[0] == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-12)
    assert m.skew[0] == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-9)
    assert m.kurt[0] == pytest.approx(7.0 / 3.0, abs=1e-9)


def test_gaussian_is_not_excess_kurtosis():
    rng = np.random.default_rng(42)
    m = moments(rng.normal(size=(100_000, 2)))
    assert np.all(np.abs(m.skew) < 0.05)
    assert np.all(np.abs(m.kurt - 3.0) < 0.1)  # convention: Gaussian scores 3


def test_population_normalization():
    # no Bessel correction: variance of [0, 2] is 1, not 2
    m = moments([[0.0], [2.0]])
    assert m.sigma[0] == 1.0


def test_degenerate_dimension_reports_zero():
    x = np.ones((50, 2))
    x[:, 1] = np.random.default_rng(1).normal(size=50)
    m = moments(x)
    assert m.sigma[0] < DEGENERATE_SIGMA
    assert m.skew[0] == 0.0 and m.kurt[0] == 0.0
    assert m.skew[1] != 0.0  # the healthy dimension is untouched


def test_near_degenerate_threshold():
    # just above the cutoff the standardized moments are still computed
    t = 1000
    x = np.zeros((t, 1))
    x[0, 0] = 2e-6 * math.sqrt(t)  # sigma ~ 2e-6 > cutoff
    m = moments(x)
    assert m.sigma[0] > DEGENERATE_SIGMA
    assert m.kurt[0] > 1.0


# ---------------------------------------------------------------------------
# invariances
# ---------------------------------------------------------------------------

@pytest.fixture
def frames():
    rng = np.random.default_rng(7)
    return rng.standard_gamma(2.0, size=(400, 3)) * rng.uniform(0.5, 2.0, size=3)


def test_shift_equivariance(frames):
    a, b = moments(frames), moments(frames + 13.5)
    np.testing.assert_allclose(b.mu, a.mu + 13.5, rtol=1e-12)
    np.testing.assert_allclose(b.sigma, a.sigma, rtol=1e-9)
    np.testing.assert_allclose(b.skew, a.skew, rtol=1e-8)
    np.testing.assert_allclose(b.kurt, a.kurt, rtol=1e-8)


def test_positive_scale_equivariance(frames):
    a, b = moments(frames), moments(frames * 4.0)
    np.testing.assert_allclose(b.mu, a.mu * 4.0, rtol=1e-12)
    np.testing.assert_allclose(b.sigma, a.sigma * 4.0, rtol=1e-12)
    np.testing.assert_allclose(b.skew, a.skew, rtol=1e-12)
    np.testing.assert_allclose(b.kurt, a.kurt, rtol=1e-12)


def test_negative_scale_flips_skew(frames):
    a, b = moments(frames), moments(frames * -1.0)
    np.testing.assert_allclose(b.skew, -a.skew, rtol=1e-12)
    np.testing.assert_allclose(b.kurt, a.kurt, rtol=1e-12)
    np.testing.assert_allclose(b.sigma, a.sigma, rtol=1e-12)


def test_frame_order_invariance(frames):
    shuffled = np.random.default_rng(3).permutation(frames, axis=0)
    a, b = moments(frames), moments(shuffled)
    for field in ("mu", "sigma", "skew", "kurt"):
        np.testing.assert_allclose(getattr(b, field), getattr(a, field), rtol=1e-10)


# ---------------------------------------------------------------------------
# concat layout and validation
# ---------------------------------------------------------------------------

def test_concat_groups_by_statistic():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(60, 3)) ** 3
    m = moments(x)
    z = m.concat(4)
    assert z.shape == (12,)
    np.testing.assert_array_equal(z[:3], m.mu)
    np.testing.assert_array_equal(z[3:6], m.sigma)
    np.testing.assert_array_equal(z[6:9], m.skew)
    np.testing.assert_array_equal(z[9:], m.kurt)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_concat_truncation(order):
    z = hos_vector(np.random.default_rng(0).normal(size=(30, 5)), order=order)
    assert z.shape == (order * 5,)


def test_concat_rejects_bad_order():
    m = moments([[0.0], [1.0]])
    for order in (0, 5, -1):
        with pytest.raises(ConfigurationError):
            m.concat(order)


def test_moments_input_validation():
    with pytest.raises(DataError):
        moments(np.empty((0, 4)))
    with pytest.raises(ConfigurationError):
        moments(np.zeros(7))


# ---------------------------------------------------------------------------
# pooling layer
# ---------------------------------------------------------------------------

def test_pool_worked_example():
    out = stats_pool(Tensor(np.array([[[0.0], [2.0]]])))
    np.testing.assert_allclose(out.data, [[1.0, math.sqrt(1.0 + POOL_EPS)]],
                               rtol=0, atol=1e-15)


def test_pool_batched_matches_single():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(3, 20, 4))
    batched = stats_pool(Tensor(x))
    assert batched.shape == (3, 8)
    for n in range(3):
        single = stats_pool(Tensor(x[n:n + 1]))
        np.testing.assert_allclose(batched.data[n:n + 1], single.data, atol=1e-14)


def test_pool_constant_channel_reports_floor():
    out = stats_pool(Tensor(np.full((1, 10, 2), 5.0)))
    np.testing.assert_allclose(out.data, [[5.0, 5.0, math.sqrt(POOL_EPS), math.sqrt(POOL_EPS)]])


def test_pool_requires_two_frames():
    with pytest.raises(PoolingError):
        stats_pool(Tensor(np.zeros((1, 1, 4))))
    with pytest.raises(ConfigurationError):
        stats_pool(Tensor(np.zeros((5, 4))))


@pytest.mark.parametrize("shape", [(5, 3), (2, 1), (4, 7, 2)])
def test_pool_gradient(shape):
    rng = np.random.default_rng(sum(shape))
    # a [T, F] shape is pooled as a batch of one
    x = Tensor(rng.normal(size=shape).reshape(-1, *shape[-2:]), requires_grad=True)

    def fn():
        tape = Tape()
        out = stats_pool(x, tape)
        return mse_loss(out, Tensor(np.ones(out.shape)), tape), tape

    report = grad_check(fn, {"x": x})
    assert report.passed, report.per_tensor


def test_pool_gradient_near_constant():
    # the variance floor keeps d(std)/dx finite when spread is ~0
    x = Tensor(np.full((1, 6, 2), 1.0) + np.random.default_rng(5).normal(size=(1, 6, 2)) * 1e-3,
               requires_grad=True)

    def fn():
        tape = Tape()
        return mse_loss(stats_pool(x, tape), Tensor(np.zeros((1, 4))), tape), tape

    report = grad_check(fn, {"x": x})
    assert report.passed, report.per_tensor
