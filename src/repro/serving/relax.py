"""Server-side geometry relaxation and trajectory sessions.

The trajectory workload — many consecutive forwards on nearly-identical
structures — is what multiplies the value of the serving stack's other
layers: one shape bucket means one traced plan replayed thousands of
times, and a :class:`~repro.graph.radius.SkinNeighborList` means the
radius graph is rebuilt only when atoms have actually moved.

Two entry points, both driven through a ``predict(graph) -> result``
callable so they ride whatever sits behind it (the micro-batcher, the
result cache, the plan cache — see
:meth:`~repro.serving.service.PredictionService.relax`):

- :func:`relax_positions` — a backtracking descent loop on the served
  forces.  The force head is a *direct* prediction (not an energy
  gradient), so the loop never assumes a conservative field: a trial
  step along the forces is **accepted only if the served energy
  decreases**, otherwise the step size is halved.  Termination is
  guaranteed by three caps — force convergence (``fmax``), step
  convergence (the trial displacement shrank below ``min_step``), and
  the ``max_steps`` evaluation budget.  The first two count as
  converged; exhausting the budget does not.
- :class:`TrajectorySession` — the caller owns the dynamics (an MD
  integrator, an external optimizer) and just wants consecutive
  predictions on an evolving structure without paying graph
  construction each step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.graph.atoms import AtomGraph
from repro.graph.radius import SkinNeighborList

#: Hard server-side bound on relax force evaluations per request — a
#: relax call is one bounded unit of work, not an unbounded job channel.
MAX_RELAX_STEPS = 1000


@dataclass(frozen=True)
class RelaxSettings:
    """Knobs for one relaxation; wire requests override a subset."""

    max_steps: int = 200  # force-evaluation budget (caps, not converges)
    fmax: float = 0.05  # converged when max per-atom |F| <= fmax
    step_size: float = 0.05  # initial displacement per unit force
    max_step: float = 0.15  # per-atom displacement cap per trial step
    min_step: float = 1e-4  # converged when the trial displacement shrinks below
    skin: float = 0.3  # Verlet skin for the incremental neighbor list
    cutoff: float = 5.0  # neighbor-search cutoff (the gateway passes its own)
    max_neighbors: int | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.max_steps <= MAX_RELAX_STEPS:
            raise ValueError(f"max_steps must be in [1, {MAX_RELAX_STEPS}]")
        for name in ("fmax", "step_size", "max_step", "min_step", "skin", "cutoff"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be a positive finite number, got {value}")


@dataclass(frozen=True)
class RelaxResult:
    """Outcome of one server-side relaxation."""

    converged: bool
    reason: str  # "fmax" | "step" | "max_steps"
    steps: int  # force evaluations (service predictions) spent
    energy: float
    energy_initial: float
    fmax: float  # final max per-atom |F|
    positions: np.ndarray  # (n, 3) relaxed coordinates
    forces: np.ndarray  # (n, 3) forces at the relaxed coordinates
    n_atoms: int
    physical_units: bool
    neighbor_rebuilds: int
    neighbor_reuses: int


class TrajectorySession:
    """Consecutive predictions on one evolving structure, graphs reused.

    The structure's identity (atomic numbers, cell, pbc) is fixed at
    session start; each :meth:`step` takes only the new positions, runs
    them through the session's :class:`SkinNeighborList` (reusing the
    candidate graph while displacements stay inside the skin bound), and
    predicts through the session's ``predict`` callable.  ``on_step``
    lets the owning service fold the session's neighbor-list counters
    into its telemetry as they happen.
    """

    def __init__(
        self,
        predict: Callable[[AtomGraph], object],
        atomic_numbers: np.ndarray,
        cell: np.ndarray | None = None,
        pbc: tuple[bool, bool, bool] = (False, False, False),
        cutoff: float = 5.0,
        skin: float = 0.3,
        max_neighbors: int | None = None,
        on_step: Callable[[int, int], None] | None = None,
    ) -> None:
        self._predict = predict
        self.atomic_numbers = np.asarray(atomic_numbers, dtype=np.int64)
        self.cell = None if cell is None else np.asarray(cell, dtype=np.float64).reshape(3, 3)
        self.pbc = tuple(bool(flag) for flag in pbc)
        self.neighbor_list = SkinNeighborList(cutoff, skin, max_neighbors)
        self.steps = 0
        self._on_step = on_step

    @property
    def rebuilds(self) -> int:
        return self.neighbor_list.rebuilds

    @property
    def reuses(self) -> int:
        return self.neighbor_list.reuses

    def build_graph(self, positions: np.ndarray) -> AtomGraph:
        """The model-input graph at ``positions`` (incremental edges)."""
        positions = np.asarray(positions, dtype=np.float64)
        before = (self.neighbor_list.rebuilds, self.neighbor_list.reuses)
        edge_index, edge_shift = self.neighbor_list.update(positions, self.cell, self.pbc)
        if self._on_step is not None:
            self._on_step(
                self.neighbor_list.rebuilds - before[0],
                self.neighbor_list.reuses - before[1],
            )
        return AtomGraph(
            atomic_numbers=self.atomic_numbers,
            positions=positions,
            edge_index=edge_index,
            edge_shift=edge_shift,
            cell=self.cell,
            pbc=self.pbc,
            source="trajectory",
        )

    def step(self, positions: np.ndarray):
        """Predict at ``positions``; returns the service's result type."""
        result = self._predict(self.build_graph(positions))
        self.steps += 1
        return result


def relax_positions(
    predict: Callable[[AtomGraph], object],
    graph: AtomGraph,
    settings: RelaxSettings | None = None,
    on_step: Callable[[int, int], None] | None = None,
) -> RelaxResult:
    """Relax ``graph``'s geometry by backtracking descent on served forces.

    ``predict`` must return an object with ``energy`` (float) and
    ``forces`` (``(n, 3)``) attributes — a
    :class:`~repro.serving.service.PredictionResult` in production.  The
    input graph's edges are ignored; every evaluated geometry gets its
    edges from the session's skin list (which builds them from scratch
    exactly once, on the first call); ``on_step`` is passed through to it.
    """
    settings = settings or RelaxSettings()
    session = TrajectorySession(
        predict,
        graph.atomic_numbers,
        cell=graph.cell,
        pbc=graph.pbc,
        cutoff=settings.cutoff,
        skin=settings.skin,
        max_neighbors=settings.max_neighbors,
        on_step=on_step,
    )

    def evaluate(positions: np.ndarray):
        result = session.step(positions)
        return float(result.energy), np.asarray(result.forces, dtype=np.float64), result

    positions = np.asarray(graph.positions, dtype=np.float64).copy()
    energy, forces, last = evaluate(positions)
    energy_initial = energy
    alpha = settings.step_size
    while True:
        fmax_now = float(np.sqrt((forces * forces).sum(axis=1).max()))
        if fmax_now <= settings.fmax:
            converged, reason = True, "fmax"
            break
        if alpha * fmax_now < settings.min_step:
            converged, reason = True, "step"
            break
        if session.steps >= settings.max_steps:
            converged, reason = False, "max_steps"
            break
        step = alpha * forces
        longest = float(np.sqrt((step * step).sum(axis=1).max()))
        if longest > settings.max_step:
            step *= settings.max_step / longest
        trial_energy, trial_forces, trial = evaluate(positions + step)
        if trial_energy < energy:
            positions, energy, forces, last = positions + step, trial_energy, trial_forces, trial
            # Grow cautiously after an accepted step, bounded so one lucky
            # stretch cannot catapult the next trial past the skin bound.
            alpha = min(alpha * 1.25, settings.step_size * 4.0)
        else:
            alpha *= 0.5
    return RelaxResult(
        converged=converged,
        reason=reason,
        steps=session.steps,
        energy=energy,
        energy_initial=energy_initial,
        fmax=fmax_now,
        positions=positions,
        forces=forces,
        n_atoms=graph.n_atoms,
        physical_units=bool(getattr(last, "physical_units", False)),
        neighbor_rebuilds=session.rebuilds,
        neighbor_reuses=session.reuses,
    )
