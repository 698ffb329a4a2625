"""Closed-form peak-memory model for configurations too large to allocate.

The measured profiler (:mod:`repro.memory.profiler`) is ground truth for
configs this substrate can hold.  For paper-scale configs (a 2 B-param
model would need 8 GB of weights alone, 24 GB with Adam) we evaluate a
byte model derived from the engine's actual allocation inventory:

- **weights** ``= 4 P`` bytes (float32);
- **gradients** ``= 4 P``;
- **optimizer states** ``= 8 P`` for Adam (two moments), divided by the
  rank count under ZeRO-1;
- **activations**: per-EGNN-layer tensor inventory counted from the layer
  implementation (so many ``E x F`` buffers from the edge MLP, so many
  ``N x F`` from the node MLP, ...), totalled over layers; under
  activation checkpointing only the boundary tensors persist per layer
  plus one layer's recompute working set.

The test suite validates the model against measured peaks on allocatable
configs; agreement within a modest tolerance is required, which keeps the
inventory honest as the layer implementation evolves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.config import ModelConfig
from repro.models.factory import count_parameters

FLOAT_BYTES = 4


@dataclass(frozen=True)
class ActivationInventory:
    """Live-buffer inventory of one EGNN layer at the measured peak.

    The counts mirror the fused kernels of ``repro.models.egnn.EGNNLayer``.
    The edge MLP and cutoff envelope run as one op (``EdgeMessages``)
    with the gather and concat folded into its first matmul, so neither
    the ``(E, 2F+R)`` concat buffer nor the two edge-sized gathers exist.
    For the backward it keeps two pre-activations, two sigmoids and two
    activations beside its output, and the coordinate-MLP op
    (``EdgeCoordWeights``) keeps one of each: ten ``(E, F)`` arrays per
    layer.  The tracker registers seven of them, the ones the composed
    chain had as op outputs; the three sigmoids are pool scratch it does
    not see.  The weighted-unit-vector product is fused into its segment
    sum.  Counts are calibrated against the measured profiler at the
    moment of peak *total* memory (early backward).
    """

    edge_f_buffers: int = 7  # EdgeMessages: 2x (pre-act + act), output; coord MLP: pre-act + act
    node_f_buffers: int = 11  # aggregate, fused entry, SiLU pair, linear, residual, LN x5
    edge_vec_buffers: int = 0  # weighted unit vectors are fused into the segment sum
    node_vec_buffers: int = 1  # coordinate residual (N x 3)
    edge_scalar_buffers: int = 0  # coord weights are released before the peak

    def layer_bytes(self, config: ModelConfig, num_nodes: int, num_edges: int) -> int:
        width = config.hidden_dim
        total = num_edges * (
            self.edge_f_buffers * width
            + self.edge_vec_buffers * 3
            + self.edge_scalar_buffers
        )
        total += num_nodes * (
            self.node_f_buffers * width + self.node_vec_buffers * 3 + 2  # LN stats
        )
        return FLOAT_BYTES * total


@dataclass(frozen=True)
class MemoryEstimate:
    """Predicted peak breakdown, in bytes."""

    weights: int
    gradients: int
    optimizer_states: int
    activations: int
    other: int

    @property
    def total(self) -> int:
        return self.weights + self.gradients + self.optimizer_states + self.activations + self.other

    def as_dict(self) -> dict[str, int]:
        return {
            "weights": self.weights,
            "gradients": self.gradients,
            "optimizer_states": self.optimizer_states,
            "activations": self.activations,
            "other": self.other,
        }


def geometry_bytes(config: ModelConfig, num_nodes: int, num_edges: int) -> int:
    """Per-batch constant tensors: RBF, unit vectors, envelope, degrees."""
    total = num_edges * (config.num_rbf + 3 + 1) + 2 * num_nodes
    return FLOAT_BYTES * total


def batch_bytes(num_nodes: int, num_edges: int, num_graphs: int) -> int:
    """Input batch arrays (``other`` category): int64 ids + float32 data."""
    total = 8 * num_nodes  # atomic numbers
    total += FLOAT_BYTES * 3 * num_nodes  # positions
    total += 16 * num_edges  # edge index (2 x int64)
    total += FLOAT_BYTES * 3 * num_edges  # shifts
    total += 8 * num_nodes  # node_graph ids
    total += FLOAT_BYTES * (num_graphs + 3 * num_nodes)  # targets
    return total


def activation_bytes(
    config: ModelConfig,
    num_nodes: int,
    num_edges: int,
    inventory: ActivationInventory | None = None,
) -> int:
    """Live activation bytes at the start of backward (no checkpointing)."""
    inventory = inventory or ActivationInventory()
    per_layer = inventory.layer_bytes(config, num_nodes, num_edges)
    total = config.num_layers * per_layer
    total += geometry_bytes(config, num_nodes, num_edges)
    total += FLOAT_BYTES * num_nodes * config.hidden_dim  # embedding output
    total += FLOAT_BYTES * num_nodes * (config.hidden_dim + 3)  # head inputs
    return total


def checkpointed_activation_bytes(
    config: ModelConfig,
    num_nodes: int,
    num_edges: int,
    inventory: ActivationInventory | None = None,
) -> int:
    """Live activation bytes at the backward peak *with* checkpointing.

    Stored: per-layer boundary tensors (the packed ``(h, x)`` outputs and
    their split views) plus geometry; transient: one layer's full
    recompute working set.
    """
    inventory = inventory or ActivationInventory()
    boundary_per_layer = FLOAT_BYTES * num_nodes * 2 * (config.hidden_dim + 3)
    total = config.num_layers * boundary_per_layer
    total += geometry_bytes(config, num_nodes, num_edges)
    total += FLOAT_BYTES * num_nodes * config.hidden_dim  # embedding output
    total += inventory.layer_bytes(config, num_nodes, num_edges)  # one recompute
    total += FLOAT_BYTES * num_nodes * (config.hidden_dim + 3)  # head inputs
    return total


def estimate_peak_memory(
    config: ModelConfig,
    num_nodes: int,
    num_edges: int,
    num_graphs: int = 1,
    zero_ranks: int = 1,
    optimizer: str = "adam",
    checkpointing: bool | None = None,
) -> MemoryEstimate:
    """Predict the per-rank steady-state training peak for ``config``.

    ``zero_ranks > 1`` shards the optimizer states (ZeRO-1).
    ``checkpointing=None`` reads the flag from the config.
    """
    params = count_parameters(config)
    if checkpointing is None:
        checkpointing = config.checkpoint_activations
    weights = FLOAT_BYTES * params
    gradients = FLOAT_BYTES * params
    if optimizer == "adam":
        states = 2 * FLOAT_BYTES * params
    elif optimizer == "sgd":
        states = 0
    else:
        raise ValueError(f"unknown optimizer {optimizer!r}")
    states = states // max(zero_ranks, 1)
    if checkpointing:
        activations = checkpointed_activation_bytes(config, num_nodes, num_edges)
    else:
        activations = activation_bytes(config, num_nodes, num_edges)
    return MemoryEstimate(
        weights=weights,
        gradients=gradients,
        optimizer_states=states,
        activations=activations,
        other=batch_bytes(num_nodes, num_edges, num_graphs),
    )
