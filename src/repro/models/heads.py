"""HydraGNN-style output heads.

The paper attaches two heads to the shared EGNN backbone (Sec. III-B):
a graph-level head for energy and a node-level head for atomic forces.
The energy head predicts the *per-atom normalized* energy (mean-pooled
node contributions), matching the target convention of
:class:`repro.data.normalize.Normalizer`.  The force head is equivariant
by construction: it scales the backbone's coordinate displacement field.
"""

from __future__ import annotations

import numpy as np

from repro.models.config import ModelConfig
from repro.nn.mlp import MLP
from repro.nn.module import Module, Parameter
from repro.tensor.core import DEFAULT_DTYPE, Tensor, segment_sum


def mean_pool_inv_counts(node_graph: np.ndarray, num_graphs: int) -> np.ndarray:
    """``(G, 1)`` reciprocal atom counts for mean pooling per graph.

    Shared by :class:`GraphEnergyHead` and the execution-plan prologue
    (:mod:`repro.tensor.plan`), which precomputes these weights per
    replay batch and feeds them to the traced program as a named input.
    """
    counts = np.bincount(node_graph, minlength=num_graphs).astype(DEFAULT_DTYPE)
    return (1.0 / np.maximum(counts, 1.0)).reshape(-1, 1)


class GraphEnergyHead(Module):
    """Graph-level scalar head: per-node MLP then mean pool per graph."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.mlp = MLP([config.hidden_dim, config.head_dim, 1], rng)

    def forward(
        self,
        h: Tensor,
        node_graph: np.ndarray,
        num_graphs: int,
        inv_counts: Tensor | None = None,
    ) -> Tensor:
        node_energy = self.mlp(h)
        if inv_counts is None:
            inv_counts = Tensor(mean_pool_inv_counts(node_graph, num_graphs))
        return segment_sum(node_energy, node_graph, num_graphs) * inv_counts


class NodeForceHead(Module):
    """Node-level vector head: learned scale on the equivariant channel.

    The backbone's coordinate displacement ``x`` is already an equivariant
    per-node vector field; the head applies a single learned scalar gain.
    Keeping the head linear in ``x`` preserves exact E(3) equivariance.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.gain = Parameter(np.ones((1, 1), dtype=DEFAULT_DTYPE))

    def forward(self, x: Tensor) -> Tensor:
        return x * self.gain
