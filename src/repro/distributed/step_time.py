"""Paper-scale step-time model (A100 compute + NVLink/NIC communication).

Measured wall-clock on this CPU substrate cannot be compared against
modeled NVLink transfer times, so Table II's *paper-scale* tier models
both sides of the ratio with the standard roofline-style decomposition:

    step = forward + backward (+ recompute)  [compute-bound]
         + optimizer update                  [HBM-bound]
         + gradient all-reduce (+ ZeRO all-gather)  [link-bound]
         (+ fixed per-step pipeline overhead: dataloading/host sync)

Forward FLOPs follow the EGNN layer inventory
(:func:`repro.models.factory.egnn_forward_flops`); backward is the usual
2x forward; activation checkpointing re-runs the forward once; Adam's
update streams 7 floats per parameter through HBM.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distributed.cost_model import CommCostModel
from repro.hpc.perlmutter import PERLMUTTER, MachineSpec
from repro.models.config import ModelConfig
from repro.models.factory import count_parameters, egnn_forward_flops

#: Adam reads w, g, m, v and writes w, m, v: 7 floats per parameter.
_ADAM_FLOATS_PER_PARAM = 7


@dataclass(frozen=True)
class StepTimeModel:
    """Models one synchronous data-parallel training step."""

    num_ranks: int
    spec: MachineSpec = PERLMUTTER
    compute_efficiency: float = 0.35  # achieved fraction of peak FLOPs
    overhead_seconds: float = 0.0  # dataloader / host-sync floor per step

    def breakdown(
        self,
        config: ModelConfig,
        num_nodes: int,
        num_edges: int,
        checkpointing: bool = False,
        zero: bool = False,
    ) -> dict[str, float]:
        """Per-phase seconds for one step at the given per-rank batch."""
        params = count_parameters(config)
        flops = egnn_forward_flops(config, num_nodes, num_edges)
        effective = self.spec.fp32_flops * self.compute_efficiency
        forward = flops / effective
        backward = 2.0 * forward
        recompute = forward if checkpointing else 0.0
        update = _ADAM_FLOATS_PER_PARAM * 4.0 * params / self.spec.hbm_bandwidth
        cost = CommCostModel(self.num_ranks, self.spec)
        grad_bytes = 4.0 * params
        communication = cost.all_reduce(grad_bytes)
        if zero:
            communication += cost.all_gather(grad_bytes)
        return {
            "forward": forward,
            "backward": backward,
            "recompute": recompute,
            "update": update,
            "communication": communication,
            "overhead": self.overhead_seconds,
        }

    def step_seconds(self, *args, **kwargs) -> float:
        return sum(self.breakdown(*args, **kwargs).values())

    def relative_times(
        self, config: ModelConfig, num_nodes: int, num_edges: int
    ) -> dict[str, float]:
        """Table II's three settings as percentages of the vanilla step."""
        vanilla = self.step_seconds(config, num_nodes, num_edges)
        ckpt = self.step_seconds(config, num_nodes, num_edges, checkpointing=True)
        zero = self.step_seconds(config, num_nodes, num_edges, checkpointing=True, zero=True)
        return {
            "vanilla": 100.0,
            "+activation_checkpointing": 100.0 * ckpt / vanilla,
            "+zero_optimizer": 100.0 * zero / vanilla,
        }
