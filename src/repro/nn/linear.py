"""Affine layer."""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import kernels
from repro.tensor.core import Tensor


class Linear(Module):
    """``y = x @ W + b`` with Xavier-uniform weights.

    ``rng`` is mandatory: every layer in the library draws its weights from
    an explicit generator so whole-model construction is a pure function of
    the seed.  The forward is one fused node (:func:`repro.tensor.kernels.linear`).
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, bias: bool = True) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform(rng, in_features, out_features))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return kernels.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"
