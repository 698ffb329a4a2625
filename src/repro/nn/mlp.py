"""Multi-layer perceptron, the building block of EGNN's message/update nets."""

from __future__ import annotations

import numpy as np

from repro.nn.activations import SiLU
from repro.nn.linear import Linear
from repro.nn.module import Module, ModuleList
from repro.tensor.core import Tensor


class MLP(Module):
    """Fully connected stack: ``sizes[0] -> sizes[1] -> ... -> sizes[-1]``.

    SiLU is applied between layers; ``final_activation`` controls
    whether the last layer is also activated (EGNN's edge net is, its
    output heads are not).
    """

    def __init__(
        self,
        sizes: list[int],
        rng: np.random.Generator,
        final_activation: bool = False,
    ) -> None:
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("MLP needs at least an input and an output size")
        self.sizes = list(sizes)
        self.layers = ModuleList(
            Linear(sizes[i], sizes[i + 1], rng) for i in range(len(sizes) - 1)
        )
        self.activation = SiLU()
        self.final_activation = final_activation

    def forward(self, x: Tensor) -> Tensor:
        return self.forward_tail(x, start=0)

    def forward_tail(self, x: Tensor, start: int) -> Tensor:
        """Run layers ``start:`` on ``x`` (same activation policy).

        Fused model paths replace layer 0 with a kernel that folds the
        preceding gather/concat into the first affine map, then hand the
        result here to finish the stack.  ``x`` must already be activated
        up to ``start``.
        """
        last = len(self.layers) - 1
        for index in range(start, len(self.layers)):
            x = self.layers[index](x)
            if index < last or self.final_activation:
                x = self.activation(x)
        return x
