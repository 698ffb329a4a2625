"""Weight-initialization schemes.

All initializers are pure functions from an explicit RNG to a numpy array,
so model construction is deterministic given a seed (required for the
bitwise DDP/ZeRO equivalence tests).
"""

from __future__ import annotations

import numpy as np

from repro.tensor.core import DEFAULT_DTYPE


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, gain: float = 1.0) -> np.ndarray:
    """Glorot uniform init for a ``(fan_in, fan_out)`` weight matrix."""
    limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(DEFAULT_DTYPE)


def normal(rng: np.random.Generator, shape: tuple[int, ...], std: float = 0.02) -> np.ndarray:
    """Gaussian init with configurable standard deviation."""
    return (rng.normal(0.0, std, size=shape)).astype(DEFAULT_DTYPE)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=DEFAULT_DTYPE)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=DEFAULT_DTYPE)
