"""Per-dimension utterance statistics up to fourth order, and the pooling op.

moments() is the two-pass reference used everywhere targets are needed,
on one utterance or on a batch of equal-length crops at once.
stats_pool() is the differentiable mean+stddev pooling layer of the
network: it takes the [N, T, F] frame-layer output and records on the
autodiff tape.

Conventions: population (1/T) normalization throughout, no Bessel
correction; skewness and kurtosis are standardized moments of order 3
and 4, kurtosis is NOT excess (a Gaussian scores 3). Dimensions whose
standard deviation falls below DEGENERATE_SIGMA report zero skewness
and kurtosis instead of exploding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Tensor, _accumulate, _wants_grad
from .errors import ConfigurationError, DataError, PoolingError

__all__ = [
    "DEGENERATE_SIGMA",
    "POOL_EPS",
    "HosVector",
    "moments",
    "hos_vector",
    "stats_pool",
]

# Below this standard deviation a dimension is treated as constant.
DEGENERATE_SIGMA = 1e-6

# Variance floor inside the pooling square root; keeps the gradient
# finite when a channel is constant over the pooled frames.
POOL_EPS = 1e-8


@dataclass
class HosVector:
    """Per-dimension mean, stddev, skewness, and kurtosis of an utterance,
    or of each utterance of a batch (every field then has a leading axis)."""

    mu: np.ndarray
    sigma: np.ndarray
    skew: np.ndarray
    kurt: np.ndarray

    def concat(self, order: int = 4) -> np.ndarray:
        """Concatenated layout [mu, sigma, skew, kurt][:order], length order * D."""
        if order not in (1, 2, 3, 4):
            raise ConfigurationError(f"moment order must be in 1..4, got {order}")
        parts = (self.mu, self.sigma, self.skew, self.kurt)[:order]
        return np.concatenate(parts, axis=-1)


def moments(frames) -> HosVector:
    """Two-pass reference statistics of a [T, D] frame matrix, or of each
    [T, D] slice of an [N, T, D] batch.

    A batch gives bitwise the same numbers as its slices one at a time:
    the reductions run over the time axis in the same order either way.
    """
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim not in (2, 3):
        raise ConfigurationError(f"frames must be [T, D] or [N, T, D], got shape {x.shape}")
    if x.shape[-2] < 1:
        raise DataError("empty utterance: no frames to summarize")
    mu = x.mean(axis=-2)
    centered = x - mu[..., None, :]
    var = (centered * centered).mean(axis=-2)
    sigma = np.sqrt(var)
    ok = sigma >= DEGENERATE_SIGMA
    z = centered / np.where(ok, sigma, 1.0)[..., None, :]
    # Cubes and fourth powers by multiplication: np.power with exponent 3
    # or 4 goes through pow() and is several times slower.
    z2 = z * z
    skew = np.where(ok, (z2 * z).mean(axis=-2), 0.0)
    kurt = np.where(ok, (z2 * z2).mean(axis=-2), 0.0)
    return HosVector(mu=mu, sigma=sigma, skew=skew, kurt=kurt)


def hos_vector(frames, order: int = 4) -> np.ndarray:
    """Reconstruction target: the first `order` statistics, concatenated;
    [order * D] for a [T, D] input, [N, order * D] for an [N, T, D] batch."""
    return moments(frames).concat(order)


def stats_pool(frames: Tensor, tape: Tape | None = None) -> Tensor:
    """Pool [N, T', F] frame activations to [N, 2F]: mean, then stddev,
    per channel. The stddev is sqrt(population variance + POOL_EPS).
    """
    x = frames.data
    if x.ndim != 3:
        raise ConfigurationError(f"stats_pool input must be [N, T, F], got shape {x.shape}")
    _, t, f = x.shape
    if t < 2:
        raise PoolingError(f"stats_pool needs at least 2 frames, got {t}")
    mu = x.mean(axis=1)
    centered = x - mu[:, None, :]
    # einsum sums the squares without a full-size temporary.
    var = np.einsum("ntf,ntf->nf", centered, centered) / t
    std = np.sqrt(var + POOL_EPS)
    out = Tensor(np.concatenate([mu, std], axis=1))

    if tape is not None:
        def bwd(g: np.ndarray) -> None:
            if not _wants_grad(frames):
                return
            gx = centered
            gx *= g[:, None, f:] / (t * std[:, None, :])
            gx += g[:, None, :f] / t
            _accumulate(frames, gx, fresh=True)
        tape.record(out, bwd)
    return out
