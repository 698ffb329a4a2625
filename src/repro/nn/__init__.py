"""Neural-network modules built on the autograd engine."""

from repro.nn.activations import SiLU
from repro.nn.embedding import Embedding
from repro.nn.linear import Linear
from repro.nn.loss import energy_force_loss, mae_loss, mse_loss
from repro.nn.mlp import MLP
from repro.nn.module import Module, ModuleList, Parameter, Sequential
from repro.nn.norm import LayerNorm

__all__ = [
    "Embedding",
    "LayerNorm",
    "Linear",
    "MLP",
    "Module",
    "ModuleList",
    "Parameter",
    "Sequential",
    "SiLU",
    "energy_force_loss",
    "mae_loss",
    "mse_loss",
]
