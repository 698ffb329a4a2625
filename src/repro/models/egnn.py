"""E(n)-equivariant GNN backbone (Satorras, Hoogeboom & Welling 2021).

The paper picks EGNN because atomistic labels must respect rotations,
translations, reflections and permutations.  Our implementation follows
the original equations with the standard materials-modeling adaptation
of a *frozen edge geometry*: relative displacement vectors (including
periodic image shifts) come from the input structure and stay fixed
across layers, while the equivariant coordinate channel accumulates the
learned displacement field that the force head reads out.

Per layer l:

    m_ij    = phi_e([h_i, h_j, rbf(d_ij)]) * f_cut(d_ij)
    x_i     = x_i + (1/|N(i)|) sum_j  u_ij * phi_x(m_ij)
    h_i     = h_i + phi_h([h_i, sum_j m_ij])            (residual)

where ``u_ij`` is the unit edge vector and ``f_cut`` the smooth cutoff
envelope.  Equivariance is property-tested in the test suite: rotating
the input rotates the coordinate channel and leaves ``h`` untouched.

The gather/concat/linear entry of each MLP and the multiply/segment-sum
aggregation run as fused kernels (:mod:`repro.tensor.kernels`); the test
suite checks them against the composed primitive ops they replace.
"""

from __future__ import annotations

import numpy as np

from repro.graph.batch import GraphBatch
from repro.graph.features import cosine_cutoff, gaussian_rbf
from repro.models.config import ModelConfig
from repro.nn.embedding import Embedding
from repro.nn.mlp import MLP
from repro.nn.module import Module, ModuleList
from repro.nn.norm import LayerNorm
from repro.tensor import kernels
from repro.tensor.checkpoint import checkpoint_multi
from repro.tensor.core import DEFAULT_DTYPE, Tensor, segment_sum
from repro.tensor.rng import rng as make_rng, split_rng


def edge_geometry_arrays_for(
    batch: GraphBatch, cutoff: float, num_rbf: int
) -> dict[str, np.ndarray]:
    """Raw per-batch edge features, keyed by name, in final shapes.

    The single source of truth for the geometry preprocessing shared by
    :class:`EdgeGeometry` (which wraps these arrays into Tensors for the
    layer stack) and the execution-plan prologue
    (:mod:`repro.tensor.plan`, which feeds them to plan replay as named
    inputs) — the two consumers must agree bit-for-bit.

    RBF entries below ``np.finfo(np.float32).tiny`` are set to zero at
    the float32 cast.  The Gaussian tails of long edges land there (3-4%
    of a dense periodic cell's entries), and a subnormal operand makes
    every ``rbf @ W_feat`` product pay x86 denormal assists: for six
    crystals (12,256 edges) at width 64 that GEMM took 3.9 ms with the
    subnormals and 1.5 ms without on a 2-vCPU Xeon, for the same output
    bits.
    """
    src, dst = batch.edge_index
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    # Fused edge-geometry kernel: one pass for vectors and clamped
    # distances (the plain numpy chain is in AtomGraph.edge_vectors).
    vectors, distances = kernels.edge_geometry_arrays(
        batch.positions, batch.edge_shift, src, dst
    )
    envelope = cosine_cutoff(distances, cutoff).astype(DEFAULT_DTYPE)
    # 1 / in-degree for the coordinate-update normalization.
    degree = np.bincount(dst, minlength=batch.num_nodes).astype(DEFAULT_DTYPE)
    inv_degree = 1.0 / np.maximum(degree, 1.0)
    rbf = gaussian_rbf(distances, cutoff, num_rbf).astype(DEFAULT_DTYPE)
    rbf[rbf < np.finfo(DEFAULT_DTYPE).tiny] = 0.0
    return {
        "src": src,
        "dst": dst,
        "unit_vectors": (vectors / distances[:, None]).astype(DEFAULT_DTYPE),
        "envelope": envelope.reshape(-1, 1),
        "rbf": rbf,
        "inv_degree": inv_degree.reshape(-1, 1),
    }


class EdgeGeometry:
    """Precomputed per-batch edge features (constant across layers)."""

    def __init__(
        self,
        batch: GraphBatch,
        cutoff: float,
        num_rbf: int,
        arrays: dict[str, np.ndarray] | None = None,
    ) -> None:
        if arrays is None:
            arrays = edge_geometry_arrays_for(batch, cutoff, num_rbf)
        self.src = arrays["src"]
        self.dst = arrays["dst"]
        self.num_nodes = batch.num_nodes
        self.unit_vectors = Tensor(arrays["unit_vectors"])
        self.envelope = Tensor(arrays["envelope"])
        self.rbf = Tensor(arrays["rbf"])
        self.inv_degree = Tensor(arrays["inv_degree"])


class EGNNLayer(Module):
    """One EGNN message-passing layer (optionally attention-gated)."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator) -> None:
        super().__init__()
        width = config.hidden_dim
        self.edge_mlp = MLP(
            [2 * width + config.num_rbf, width, width],
            rng,
            activation=config.activation,
            final_activation=True,
        )
        self.node_mlp = MLP([2 * width, width, width], rng, activation=config.activation)
        self.coord_mlp = MLP([width, width, 1], rng, activation=config.activation)
        self.attention_mlp = MLP([width, 1], rng) if config.attention else None
        self.norm = LayerNorm(width) if config.layer_norm else None

    def forward(self, h: Tensor, x: Tensor, geometry: EdgeGeometry) -> tuple[Tensor, Tensor]:
        entry = self.edge_mlp.layers[0]
        messages = kernels.edge_message_linear(
            h, geometry.rbf, entry.weight, entry.bias, geometry.src, geometry.dst
        )
        messages = self.edge_mlp.activation(messages)
        messages = self.edge_mlp.forward_tail(messages, start=1)
        messages = messages * geometry.envelope
        if self.attention_mlp is not None:
            # Per-edge scalar gate in (0, 1): the EGNN paper's "e_ij"
            # attention, an invariant function of the message.
            messages = messages * self.attention_mlp(messages).sigmoid()

        # Equivariant coordinate update along fixed unit edge vectors;
        # the weighted-vector product is folded into the segment sum.
        coord_weights = self.coord_mlp(messages)
        coord_updates = kernels.mul_segment_sum(
            geometry.unit_vectors, coord_weights, geometry.dst, geometry.num_nodes
        )
        x = x + coord_updates * geometry.inv_degree

        aggregated = segment_sum(messages, geometry.dst, geometry.num_nodes)
        node_entry = self.node_mlp.layers[0]
        update = kernels.concat_linear([h, aggregated], node_entry.weight, node_entry.bias)
        update = self.node_mlp.activation(update)
        h = h + self.node_mlp.forward_tail(update, start=1)
        if self.norm is not None:
            h = self.norm(h)
        return h, x


class EGNNBackbone(Module):
    """Species embedding followed by a stack of EGNN layers.

    With ``config.checkpoint_activations`` the per-layer forward runs
    under re-execution checkpointing (Sec. V-B of the paper): only layer
    boundaries are stored during forward.
    """

    def __init__(self, config: ModelConfig, seed: int | np.random.Generator = 0) -> None:
        super().__init__()
        self.config = config
        generator = make_rng(seed)
        layer_rngs = split_rng(generator, config.num_layers + 1)
        self.embedding = Embedding(config.vocab_size, config.hidden_dim, layer_rngs[0])
        self.layers = ModuleList(
            EGNNLayer(config, layer_rngs[i + 1]) for i in range(config.num_layers)
        )

    def forward(self, batch: GraphBatch) -> tuple[Tensor, Tensor, EdgeGeometry]:
        """Returns final node features, coordinate displacement, geometry."""
        geometry = EdgeGeometry(batch, self.config.cutoff, self.config.num_rbf)
        h = self.embedding(batch.atomic_numbers)
        x = Tensor(np.zeros((batch.num_nodes, 3), dtype=DEFAULT_DTYPE))
        h, x = self.run_layers(h, x, geometry)
        return h, x, geometry

    def run_layers(self, h: Tensor, x: Tensor, geometry: EdgeGeometry) -> tuple[Tensor, Tensor]:
        """Run the layer stack on prepared inputs.

        Split from :meth:`forward` so the execution-plan tracer can feed
        its own bound input arrays through exactly the layers the normal
        forward runs.
        """
        for layer in self.layers:
            if self.config.checkpoint_activations:
                h, x = checkpoint_multi(
                    lambda h_in, x_in, layer=layer: layer(h_in, x_in, geometry), h, x
                )
            else:
                h, x = layer(h, x, geometry)
        return h, x
