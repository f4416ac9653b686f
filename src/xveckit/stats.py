"""Per-dimension utterance statistics up to fourth order, in plain numpy.

moments() is the two-pass reference used everywhere targets are needed,
on one utterance or on a batch of equal-length crops at once. The
network's differentiable pooling layer, stats_pool, is an autodiff op;
this module imports nothing from the engine.

Conventions: population (1/T) normalization throughout, no Bessel
correction; skewness and kurtosis are standardized moments of order 3
and 4, kurtosis is NOT excess (a Gaussian scores 3). Dimensions whose
standard deviation falls below DEGENERATE_SIGMA report zero skewness
and kurtosis instead of exploding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError

__all__ = [
    "DEGENERATE_SIGMA",
    "HosVector",
    "moments",
    "hos_vector",
]

# Below this standard deviation a dimension is treated as constant.
DEGENERATE_SIGMA = 1e-6


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
