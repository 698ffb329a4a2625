"""EGNN backbone, multi-task heads, and model factory."""

from repro.models.config import ModelConfig
from repro.models.egnn import EGNNBackbone, EGNNLayer, EdgeGeometry
from repro.models.factory import (
    PAPER_DEPTH_GRID,
    PAPER_MODEL_SIZES,
    PAPER_WIDTH_GRID,
    build_model,
    count_parameters,
    egnn_forward_flops,
    model_size_ladder,
    solve_width,
)
from repro.models.heads import GraphEnergyHead, NodeForceHead
from repro.models.hydra import HydraModel
from repro.models.registry import describe, get_preset, preset_names

__all__ = [
    "EGNNBackbone",
    "EGNNLayer",
    "EdgeGeometry",
    "GraphEnergyHead",
    "HydraModel",
    "ModelConfig",
    "NodeForceHead",
    "PAPER_DEPTH_GRID",
    "PAPER_MODEL_SIZES",
    "PAPER_WIDTH_GRID",
    "build_model",
    "count_parameters",
    "egnn_forward_flops",
    "describe",
    "get_preset",
    "model_size_ladder",
    "preset_names",
]
