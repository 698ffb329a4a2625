"""Model configuration.

The paper varies exactly two architectural knobs during scaling: the
hidden width ("number of neurons in each layer") and the depth ("number
of layers").  Everything else is fixed, so the config is deliberately
small and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of the EGNN backbone + HydraGNN-style heads."""

    hidden_dim: int = 128
    num_layers: int = 3
    num_rbf: int = 16
    cutoff: float = 5.0
    vocab_size: int = 95  # atomic numbers 0..94 (0 unused)
    activation: str = "silu"
    layer_norm: bool = True
    head_hidden_dim: int | None = None  # defaults to hidden_dim
    checkpoint_activations: bool = False
    #: Edge attention gating from the original EGNN paper (Satorras et
    #: al., Sec. 3): messages are scaled by a learned sigmoid gate.  The
    #: paper's Sec. IV-A discusses attention as the mechanism that lets
    #: Transformers escape GNN locality; this switch enables the closest
    #: EGNN-native analogue for ablations.
    attention: bool = False

    def __post_init__(self) -> None:
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if self.num_rbf < 2:
            raise ValueError("num_rbf must be >= 2")
        if self.activation != "silu":
            # The tiled edge ops (repro.tensor.kernels) implement SiLU
            # only; the field stays because checkpoints store "silu".
            raise ValueError(f"activation must be 'silu', got {self.activation!r}")

    @property
    def head_dim(self) -> int:
        return self.head_hidden_dim if self.head_hidden_dim is not None else self.hidden_dim

    def with_checkpointing(self, enabled: bool = True) -> "ModelConfig":
        """Copy of this config with activation checkpointing toggled."""
        return replace(self, checkpoint_activations=enabled)

    def scaled(self, hidden_dim: int | None = None, num_layers: int | None = None) -> "ModelConfig":
        """Copy with a different width and/or depth (the scaling knobs)."""
        return replace(
            self,
            hidden_dim=hidden_dim if hidden_dim is not None else self.hidden_dim,
            num_layers=num_layers if num_layers is not None else self.num_layers,
        )
