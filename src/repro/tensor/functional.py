"""Composite pointwise functions built from engine primitives."""

from __future__ import annotations

import numpy as np

from repro.tensor.core import Tensor, where


def silu(x: Tensor) -> Tensor:
    """SiLU / swish activation ``x * sigmoid(x)`` (EGNN's default).

    Runs as the fused kernel: one node, one saved array.
    """
    from repro.tensor import kernels

    return kernels.silu(x)


def softplus(x: Tensor) -> Tensor:
    """Numerically safe ``log(1 + exp(x))`` via the identity with relu."""
    # softplus(x) = max(x, 0) + log1p(exp(-|x|)); compose from primitives.
    return x.relu() + ((-x.abs()).exp() + 1.0).log()


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Leaky ReLU with constant slope on the negative side."""
    mask = x.numpy() > 0
    return where(mask, x, x * negative_slope)


def squared_norm(x: Tensor, axis: int = -1, keepdims: bool = True) -> Tensor:
    """Sum of squares along ``axis`` (used for edge distances)."""
    return (x * x).sum(axis=axis, keepdims=keepdims)


def safe_sqrt(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Square root with a floor to keep the gradient finite at zero."""
    return (x + eps).sqrt()


def clip_values(x: Tensor, low: float, high: float) -> Tensor:
    """Clamp values to ``[low, high]`` with straight-through gradient inside."""
    data = x.numpy()
    lowered = where(data > low, x, Tensor(np.full_like(data, low)))
    return where(data < high, lowered, Tensor(np.full_like(data, high)))
