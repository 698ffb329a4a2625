"""Model construction, exact parameter counting, and the width solver.

The paper scales models "by increasing the number of neurons in each
layer" to hit parameter targets from 0.1 M to 2 B.  We do the same: an
exact closed-form parameter count (mirroring construction, asserted
equal in the tests) lets a binary search find the hidden width whose
parameter count is closest to any target — including billion-parameter
configs that are never instantiated, only analyzed.  The forward FLOP
count sits beside it for the same reason.
"""

from __future__ import annotations

import numpy as np

from repro.models.config import ModelConfig
from repro.models.hydra import HydraModel

#: The model-size grid of Fig. 4 (parameters).
PAPER_MODEL_SIZES = (
    100_000,
    1_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
)

#: Fig. 5's sweep grids: depth 3..6, width 750..2500.
PAPER_DEPTH_GRID = (3, 4, 5, 6)
PAPER_WIDTH_GRID = (750, 1000, 1250, 1500, 1750, 2000, 2250, 2500)


def _mlp_parameters(sizes: list[int]) -> int:
    """Parameters of an :class:`repro.nn.mlp.MLP` with these layer sizes."""
    return sum(sizes[i] * sizes[i + 1] + sizes[i + 1] for i in range(len(sizes) - 1))


def count_parameters(config: ModelConfig) -> int:
    """Exact trainable-parameter count of ``HydraModel(config)``.

    Kept in closed form (never instantiates arrays) so billion-parameter
    configs can be counted instantly; equality with
    ``HydraModel(config).num_parameters()`` is enforced by the test suite.
    """
    width = config.hidden_dim
    total = config.vocab_size * width  # embedding
    per_layer = (
        _mlp_parameters([2 * width + config.num_rbf, width, width])  # edge_mlp
        + _mlp_parameters([2 * width, width, width])  # node_mlp
        + _mlp_parameters([width, width, 1])  # coord_mlp
    )
    if config.attention:
        per_layer += _mlp_parameters([width, 1])  # attention gate
    if config.layer_norm:
        per_layer += 2 * width
    total += config.num_layers * per_layer
    total += _mlp_parameters([width, config.head_dim, 1])  # energy head
    total += 1  # force-head gain
    return total


def egnn_forward_flops(config: ModelConfig, num_nodes: int, num_edges: int) -> float:
    """Forward FLOPs of one batch through the backbone + heads.

    Counts the matmuls, two FLOPs per multiply-add: per layer the edge,
    coordinate and node MLPs (and the attention gate when
    ``config.attention`` is on), then the energy head.
    """
    width = config.hidden_dim
    per_layer = 2.0 * (
        num_edges * (2 * width + config.num_rbf) * width  # edge MLP in
        + num_edges * width * width  # edge MLP hidden
        + num_edges * width * (width + 1)  # coord MLP
        + num_nodes * 2 * width * width  # node MLP in
        + num_nodes * width * width  # node MLP hidden
    )
    if config.attention:
        per_layer += 2.0 * num_edges * width  # attention gate (width -> 1)
    heads = 2.0 * num_nodes * width * (config.head_dim + 1)
    return config.num_layers * per_layer + heads


def solve_width(
    target_params: int,
    num_layers: int = 3,
    base: ModelConfig | None = None,
    max_width: int = 1_000_000,
) -> ModelConfig:
    """Find the width whose parameter count is closest to ``target_params``.

    The count is monotone in width, so a binary search suffices; among the
    two bracketing widths the closer one (relative error) wins.
    """
    base = base if base is not None else ModelConfig()
    if target_params < count_parameters(base.scaled(hidden_dim=1, num_layers=num_layers)):
        raise ValueError(f"target {target_params} smaller than the minimum model")
    low, high = 1, max_width
    if count_parameters(base.scaled(hidden_dim=high, num_layers=num_layers)) < target_params:
        raise ValueError(f"target {target_params} exceeds max_width={max_width} capacity")
    while high - low > 1:
        mid = (low + high) // 2
        if count_parameters(base.scaled(hidden_dim=mid, num_layers=num_layers)) < target_params:
            low = mid
        else:
            high = mid
    candidates = [base.scaled(hidden_dim=w, num_layers=num_layers) for w in (low, high)]
    return min(candidates, key=lambda c: abs(count_parameters(c) - target_params))


def build_model(config: ModelConfig, seed: int = 0) -> HydraModel:
    """Instantiate a :class:`HydraModel` (guarding absurd sizes).

    Configs above ~50 M parameters would allocate gigabytes of float32 on
    this substrate; the scaling experiments analyze such configs through
    the closed-form count and the analytic memory model instead.
    """
    params = count_parameters(config)
    if params > 100_000_000:
        raise MemoryError(
            f"refusing to materialize a {params:,}-parameter model; "
            "use count_parameters / the analytic memory model at this scale"
        )
    return HydraModel(config, seed=seed)


def model_size_ladder(
    targets: tuple[int, ...],
    num_layers: int = 3,
    base: ModelConfig | None = None,
) -> list[ModelConfig]:
    """Configs hitting each parameter target by width scaling."""
    return [solve_width(t, num_layers=num_layers, base=base) for t in targets]
