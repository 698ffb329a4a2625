"""The activation module wrapping the functional primitive."""

from __future__ import annotations

from repro.nn.module import Module
from repro.tensor import functional
from repro.tensor.core import Tensor


class SiLU(Module):
    """SiLU (swish), the activation EGNN uses throughout."""

    def forward(self, x: Tensor) -> Tensor:
        return functional.silu(x)
