"""The multi-task model: EGNN backbone + energy/force heads.

This mirrors the HydraGNN architecture the paper trains (Sec. II-B,
III-B): one shared message-passing trunk, one output head per task, and
a combined multi-task objective.
"""

from __future__ import annotations

import numpy as np

from repro.graph.batch import GraphBatch
from repro.models.config import ModelConfig
from repro.models.egnn import EGNNBackbone
from repro.models.heads import GraphEnergyHead, NodeForceHead, mean_pool_inv_counts
from repro.nn.loss import mse_loss
from repro.nn.module import Module
from repro.tensor.core import Tensor, no_grad
from repro.tensor.plan import PlanCache
from repro.tensor.rng import rng as make_rng, split_rng


class HydraModel(Module):
    """Foundation-model architecture for atomistic property prediction.

    A forward is a prologue, :meth:`inputs`, which turns a batch into
    named arrays and dims, then an array program, :meth:`run`.  The
    execution-plan compiler traces :meth:`run` and re-runs :meth:`inputs`
    on every replay, so the planned and unplanned forwards share both.
    """

    #: The dim each index input counts into: a segment sum over ``src``
    #: or ``dst`` has ``num_nodes`` rows, one over ``node_graph`` has
    #: ``num_graphs``.  A plan resolves segment counts through this.
    INDEX_DIMS = {"src": "num_nodes", "dst": "num_nodes", "node_graph": "num_graphs"}

    def __init__(self, config: ModelConfig, seed: int | np.random.Generator = 0) -> None:
        super().__init__()
        self.config = config
        generator = make_rng(seed)
        backbone_rng, energy_rng, force_rng = split_rng(generator, 3)
        self.backbone = EGNNBackbone(config, backbone_rng)
        self.energy_head = GraphEnergyHead(config, energy_rng)
        self.force_head = NodeForceHead(config, force_rng)
        #: Per-model traced execution plans, one per shape bucket.  The
        #: no-grad inference entry points consult it; training never does.
        self.plans = PlanCache(self)

    def inputs(self, batch: GraphBatch) -> tuple[dict[str, np.ndarray], dict[str, int]]:
        """The prologue: ``batch`` as the named arrays and dims :meth:`run` reads."""
        node_graph = np.asarray(batch.node_graph, dtype=np.int64)
        arrays = {
            **self.backbone.inputs(batch),
            "node_graph": node_graph,
            "inv_counts": mean_pool_inv_counts(node_graph, batch.num_graphs),
        }
        dims = {"num_nodes": int(batch.num_nodes), "num_graphs": int(batch.num_graphs)}
        return arrays, dims

    def run(self, arrays: dict[str, np.ndarray], dims: dict[str, int]) -> dict[str, Tensor]:
        """Normalized per-atom energy (graph) and forces (node) from :meth:`inputs`."""
        h, x, _ = self.backbone.run(arrays, dims["num_nodes"])
        energy = self.energy_head(h, arrays["node_graph"], dims["num_graphs"], arrays["inv_counts"])
        forces = self.force_head(x)
        return {"energy": energy, "forces": forces}

    def forward(self, batch: GraphBatch) -> dict[str, Tensor]:
        """Predict normalized per-atom energy (graph) and forces (node)."""
        return self.run(*self.inputs(batch))

    def predict(self, batch: GraphBatch, plan: bool = True) -> dict[str, Tensor]:
        """Inference entry point: forward on the ``no_grad`` fast path.

        No autograd ``Function`` nodes are constructed and no
        intermediates are retained for backward (asserted in the test
        suite), which is what serving and evaluation loops should call.

        With ``plan=True`` (the default) the per-model :class:`PlanCache`
        serves the forward: the first batch of a shape bucket compiles a
        traced execution plan, later batches replay it with zero Python
        dispatch and bit-identical outputs.  ``plan=False`` (or any
        batch the compiler refuses) runs the regular op-by-op fast path.
        """
        with no_grad():
            if plan:
                outputs = self.plans.run(batch)
                if outputs is not None:
                    return {
                        name: Tensor._from_data(array, requires_grad=False)
                        for name, array in outputs.items()
                    }
            return self.forward(batch)

    def serve(self, batch: GraphBatch, plan: bool = True) -> dict[str, np.ndarray]:
        """Predict and return plain numpy arrays (the serving contract).

        Same ``no_grad`` fast path as :meth:`predict` (planned by
        default, see there), but the outputs are *owned copies* as plain
        numpy arrays — ``energy`` is ``(G, 1)`` normalized per-atom
        energy per graph, ``forces`` is ``(N, 3)`` stacked over the
        batch's nodes.  ``Tensor.numpy()`` shares the underlying buffer,
        which under an active :class:`BufferPool` is recyclable scratch;
        copying here means result caches can hold predictions
        indefinitely without pinning (or being corrupted by) pool
        buffers.
        """
        if plan:
            with no_grad():
                outputs = self.plans.run(batch)
            if outputs is not None:
                return outputs  # replay already hands out owned copies
        predictions = self.predict(batch, plan=False)
        return {name: np.array(tensor.numpy()) for name, tensor in predictions.items()}

    def loss(
        self,
        predictions: dict[str, Tensor],
        energy_target: np.ndarray,
        force_target: np.ndarray,
        energy_weight: float = 1.0,
        force_weight: float = 1.0,
    ) -> Tensor:
        """Multi-task MSE on normalized targets (the paper's test loss)."""
        energy_term = mse_loss(predictions["energy"], Tensor(energy_target))
        force_term = mse_loss(predictions["forces"], Tensor(force_target))
        return energy_term * energy_weight + force_term * force_weight
