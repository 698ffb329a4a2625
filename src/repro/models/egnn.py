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

Each layer's per-edge work runs as two fused kernels
(:mod:`repro.tensor.kernels`) that walk the edges in cache-sized row
tiles: ``edge_messages`` computes ``phi_e`` (gather and concat folded
into its first matmul) times ``f_cut``, and ``edge_coord_weights``
computes ``phi_x``; the optional attention gate sits between them as
composed ops.  The node MLP's concat entry and the multiply/segment-sum
aggregation are fused kernels too.  The test suite checks them all
against the composed primitive ops they replace.  Both edge kernels
implement SiLU, the only activation :class:`ModelConfig` accepts.
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


#: RBF entries below this are zeroed: see :func:`edge_geometry_arrays_for`.
RBF_FLOOR = 2.0**-64


def edge_geometry_arrays_for(
    batch: GraphBatch, cutoff: float, num_rbf: int
) -> dict[str, np.ndarray]:
    """Raw per-batch edge features, keyed by name, in final shapes.

    The single source of truth for the geometry preprocessing shared by
    :class:`EdgeGeometry` (which wraps these arrays into Tensors for the
    layer stack) and the execution-plan prologue
    (:mod:`repro.tensor.plan`, which feeds them to plan replay as named
    inputs) — the two consumers must agree bit-for-bit.

    RBF entries below :data:`RBF_FLOOR` (2^-64) are set to zero at the
    float32 cast.  The Gaussian tails of long edges reach that far down,
    and the GEMM ``rbf @ W_rbf`` pays x86 denormal assists for every
    subnormal *product*: an entry just above float32 ``tiny`` times a
    weight below 1 is one, so flushing only subnormal entries is not
    enough.  The centres are one width apart, so each row holds an
    entry of at least ``exp(-1/8)``, and an entry below 2^-64 lies some
    40 binades under one float32 ulp of it: on the molecules and
    crystals the tests replay, the flush moves no output bit.  On a
    21,084-edge batch of crystals and molecules at width 64 that GEMM
    took 2.0 ms with the floor at ``tiny`` and 0.64 ms at 2^-64 (one
    OpenBLAS 0.3.31 thread on a 2-vCPU Xeon), for the same output bits.
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
    rbf[rbf < RBF_FLOOR] = 0.0
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
        self.edge_mlp = MLP([2 * width + config.num_rbf, width, width], rng, final_activation=True)
        self.node_mlp = MLP([2 * width, width, width], rng)
        self.coord_mlp = MLP([width, width, 1], rng)
        self.attention_mlp = MLP([width, 1], rng) if config.attention else None
        self.norm = LayerNorm(width) if config.layer_norm else None

    def forward(self, h: Tensor, x: Tensor, geometry: EdgeGeometry) -> tuple[Tensor, Tensor]:
        edge, coord = self.edge_mlp.layers, self.coord_mlp.layers
        messages = kernels.edge_messages(
            h,
            geometry.rbf,
            geometry.envelope,
            edge[0].weight,
            edge[0].bias,
            edge[1].weight,
            edge[1].bias,
            geometry.src,
            geometry.dst,
        )
        if self.attention_mlp is not None:
            # Per-edge scalar gate in (0, 1): the EGNN paper's "e_ij"
            # attention, an invariant function of the message.
            messages = messages * self.attention_mlp(messages).sigmoid()

        # Equivariant coordinate update along fixed unit edge vectors;
        # the weighted-vector product is folded into the segment sum.
        coord_weights = kernels.edge_coord_weights(
            messages, coord[0].weight, coord[0].bias, coord[1].weight, coord[1].bias
        )
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
