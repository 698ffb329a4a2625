"""Lookup-table embedding (atomic species -> feature vector)."""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor.core import Tensor, gather


class Embedding(Module):
    """Maps integer ids in ``[0, num_embeddings)`` to learned vectors."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(init.normal(rng, (num_embeddings, dim), std=1.0 / np.sqrt(dim)))

    def index(self, ids: np.ndarray) -> np.ndarray:
        """``ids`` as int64, raising ``IndexError`` if any lies outside the table."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding ids out of range [0, {self.num_embeddings}): "
                f"min={ids.min()}, max={ids.max()}"
            )
        return ids

    def forward(self, ids: np.ndarray) -> Tensor:
        return gather(self.weight, self.index(ids))
