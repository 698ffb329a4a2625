"""Single-process training loop.

Hyperparameters follow the paper's protocol (Sec. III-B): Adam, a fixed
10-epoch budget regardless of model or dataset size, and a multi-task
energy+force MSE on normalized targets.  The loop is deliberately plain —
dataloading, scheduling, clipping, evaluation — because the distributed
variants in :mod:`repro.distributed` reuse its pieces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.data.normalize import Normalizer
from repro.graph.atoms import AtomGraph
from repro.graph.batch import GraphBatch, batch_iterator, collate
from repro.models.hydra import HydraModel
from repro.optim.adam import Adam
from repro.optim.clip import clip_grad_norm
from repro.optim.lr_schedule import ConstantLR, apply_lr
from repro.tensor.allocator import BufferPool, use_pool
from repro.tensor.core import Tensor
from repro.tensor.rng import rng as make_rng
from repro.train.history import EpochRecord, TrainingHistory
from repro.train.metrics import collate_eval_batches, evaluate


@dataclass(frozen=True)
class TrainerConfig:
    """Training hyperparameters (paper defaults)."""

    epochs: int = 10  # the paper trains every model for 10 epochs
    batch_size: int = 16
    learning_rate: float = 1e-3
    grad_clip: float = 10.0
    energy_weight: float = 1.0
    force_weight: float = 1.0
    shuffle_seed: int = 0
    eval_batch_size: int = 32


class Trainer:
    """Trains one model on one corpus; returns a :class:`TrainingHistory`."""

    def __init__(
        self,
        model: HydraModel,
        normalizer: Normalizer,
        config: TrainerConfig | None = None,
        schedule=None,
    ) -> None:
        self.model = model
        self.normalizer = normalizer
        self.config = config or TrainerConfig()
        self.optimizer = Adam(model.parameters(), lr=self.config.learning_rate)
        self.schedule = schedule or ConstantLR(self.config.learning_rate)
        self.global_step = 0
        # Persistent across fit() epochs so step N+1 reuses step N's
        # activation/gradient buffers instead of reallocating them.
        self.buffer_pool = BufferPool()

    # ------------------------------------------------------------------
    # single step (reused by the distributed engines)
    # ------------------------------------------------------------------
    def compute_loss(self, batch: GraphBatch) -> Tensor:
        predictions = self.model(batch)
        return self.model.loss(
            predictions,
            self.normalizer.normalized_energy(batch),
            self.normalizer.normalized_forces(batch),
            energy_weight=self.config.energy_weight,
            force_weight=self.config.force_weight,
        )

    def train_step(self, batch: GraphBatch) -> tuple[float, float]:
        """One optimization step; returns ``(loss, grad_norm)``."""
        apply_lr(self.optimizer, self.schedule, self.global_step)
        self.model.zero_grad()
        loss = self.compute_loss(batch)
        loss.backward()
        grad_norm = clip_grad_norm(self.model.parameters(), self.config.grad_clip)
        self.optimizer.step()
        self.global_step += 1
        return loss.item(), grad_norm

    # ------------------------------------------------------------------
    # full runs
    # ------------------------------------------------------------------
    def fit(
        self,
        train_graphs: list[AtomGraph],
        test_graphs: list[AtomGraph],
        verbose: bool = False,
    ) -> TrainingHistory:
        if not train_graphs:
            raise ValueError("empty training set")
        history = TrainingHistory()
        shuffle_rng = make_rng(self.config.shuffle_seed)
        # Graphs are immutable, so the evaluation set is collated exactly
        # once and the batches reused by every epoch's evaluation.
        eval_batches = collate_eval_batches(test_graphs, self.config.eval_batch_size)
        metrics: dict[str, float] | None = None
        with use_pool(self.buffer_pool):
            for epoch in range(self.config.epochs):
                start = time.perf_counter()
                epoch_loss = 0.0
                epoch_norm = 0.0
                steps = 0
                for batch in batch_iterator(train_graphs, self.config.batch_size, shuffle_rng):
                    loss, grad_norm = self.train_step(batch)
                    epoch_loss += loss
                    epoch_norm += grad_norm
                    steps += 1
                metrics = evaluate(
                    self.model,
                    eval_batches,
                    self.normalizer,
                    energy_weight=self.config.energy_weight,
                    force_weight=self.config.force_weight,
                )
                record = EpochRecord(
                    epoch=epoch,
                    train_loss=epoch_loss / max(steps, 1),
                    test_loss=metrics["test_loss"],
                    learning_rate=self.optimizer.lr,
                    grad_norm=epoch_norm / max(steps, 1),
                    seconds=time.perf_counter() - start,
                )
                history.append(record)
                if verbose:
                    print(
                        f"epoch {epoch:3d}  train {record.train_loss:.4f}  "
                        f"test {record.test_loss:.4f}  lr {record.learning_rate:.2e}"
                    )
            # The model has not changed since the last epoch's evaluation,
            # so its metrics are final (epochs == 0 still evaluates once).
            history.final_metrics = metrics if metrics is not None else evaluate(
                self.model,
                eval_batches,
                self.normalizer,
                energy_weight=self.config.energy_weight,
                force_weight=self.config.force_weight,
            )
        return history


def quick_train(
    model: HydraModel,
    train_graphs: list[AtomGraph],
    test_graphs: list[AtomGraph],
    normalizer: Normalizer | None = None,
    config: TrainerConfig | None = None,
) -> TrainingHistory:
    """Convenience one-call training (fits the normalizer if not given)."""
    normalizer = normalizer or Normalizer.fit(train_graphs)
    trainer = Trainer(model, normalizer, config)
    return trainer.fit(train_graphs, test_graphs)
