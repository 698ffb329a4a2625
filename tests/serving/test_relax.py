"""Relaxation and trajectory sessions through the PredictionService."""

import numpy as np
import pytest

from repro.graph import AtomGraph, build_edges
from repro.models import HydraModel, ModelConfig
from repro.serving import (
    MAX_RELAX_STEPS,
    PredictionService,
    RelaxSettings,
    ServiceConfig,
    relax_positions,
)

CONFIG = ModelConfig(hidden_dim=16, num_layers=2)
CUTOFF = 4.0


@pytest.fixture(scope="module")
def model():
    return HydraModel(CONFIG, seed=0)


def make_graph(n=12, seed=0, spread=4.5):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, spread, size=(n, 3))
    numbers = rng.integers(1, 9, size=n)
    edge_index, edge_shift = build_edges(positions, CUTOFF)
    return AtomGraph(
        atomic_numbers=numbers,
        positions=positions,
        edge_index=edge_index,
        edge_shift=edge_shift,
        source="test",
    )


class TestRelaxSettings:
    def test_rejects_out_of_range_max_steps(self):
        with pytest.raises(ValueError):
            RelaxSettings(max_steps=0)
        with pytest.raises(ValueError):
            RelaxSettings(max_steps=MAX_RELAX_STEPS + 1)

    @pytest.mark.parametrize("field", ["fmax", "step_size", "max_step", "min_step", "skin", "cutoff"])
    def test_rejects_non_positive_floats(self, field):
        with pytest.raises(ValueError):
            RelaxSettings(**{field: 0.0})


class TestRelaxLoop:
    def test_terminates_and_reports(self, model):
        service = PredictionService(model)
        graph = make_graph(seed=1)
        result = service.relax(graph, RelaxSettings(max_steps=50, cutoff=CUTOFF))
        assert result.reason in ("fmax", "step", "max_steps")
        assert result.converged == (result.reason != "max_steps")
        assert 1 <= result.steps <= 50
        assert result.positions.shape == (graph.n_atoms, 3)
        assert result.forces.shape == (graph.n_atoms, 3)
        assert np.isfinite(result.energy)
        # Energy never increases: trial steps are accepted only downhill.
        assert result.energy <= result.energy_initial

    def test_max_steps_budget_is_respected(self, model):
        service = PredictionService(model)
        graph = make_graph(seed=2)
        # An unreachable fmax forces the loop to its caps.
        settings = RelaxSettings(max_steps=5, fmax=1e-12, min_step=1e-12, cutoff=CUTOFF)
        result = service.relax(graph, settings)
        assert result.steps <= 5
        if result.reason == "max_steps":
            assert not result.converged

    def test_relax_counters_in_telemetry(self, model):
        service = PredictionService(model)
        result = service.relax(make_graph(seed=3), RelaxSettings(max_steps=30, cutoff=CUTOFF))
        relax = service.telemetry()["relax"]
        assert relax["sessions"] == 1
        assert relax["steps"] == result.steps
        assert relax["converged"] == int(result.converged)
        assert relax["neighbor_rebuilds"] == result.neighbor_rebuilds
        assert relax["neighbor_reuses"] == result.neighbor_reuses
        assert relax["neighbor_rebuilds"] + relax["neighbor_reuses"] == result.steps
        assert 0.0 <= relax["neighbor_reuse_rate"] <= 1.0

    def test_rides_plan_cache(self, model):
        """Consecutive relax steps replay one traced plan bucket."""
        service = PredictionService(model, ServiceConfig(plan=True))
        service.relax(make_graph(seed=4), RelaxSettings(max_steps=20, cutoff=CUTOFF))
        plans = service.telemetry()["plans"]
        assert plans["enabled"]
        assert plans["plan_hits"] >= 1

    def test_function_matches_service_method(self, model):
        """relax_positions over bare predict == service.relax (same arithmetic)."""
        graph = make_graph(seed=5)
        settings = RelaxSettings(max_steps=25, cutoff=CUTOFF)
        service_a = PredictionService(model)
        via_service = service_a.relax(graph, settings)
        service_b = PredictionService(model)
        via_function = relax_positions(service_b.predict, graph, settings)
        assert via_function.steps == via_service.steps
        assert via_function.reason == via_service.reason
        np.testing.assert_array_equal(via_function.positions, via_service.positions)
        assert via_function.energy == via_service.energy


class TestTrajectorySession:
    def test_session_reuses_neighbor_candidates(self, model):
        service = PredictionService(model)
        graph = make_graph(seed=6)
        session = service.trajectory(graph.atomic_numbers, cutoff=CUTOFF, skin=0.4)
        rng = np.random.default_rng(7)
        positions = graph.positions
        for _ in range(6):
            positions = positions + rng.normal(0.0, 0.005, size=positions.shape)
            result = session.step(positions)
            assert np.isfinite(result.energy)
        assert session.steps == 6
        assert session.rebuilds == 1
        assert session.reuses == 5

    def test_session_steps_feed_service_telemetry(self, model):
        service = PredictionService(model)
        graph = make_graph(seed=8)
        session = service.trajectory(graph.atomic_numbers, cutoff=CUTOFF)
        session.step(graph.positions)
        session.step(graph.positions + 0.003)
        relax = service.telemetry()["relax"]
        assert relax["sessions"] == 1
        assert relax["steps"] == 2
        assert relax["neighbor_rebuilds"] + relax["neighbor_reuses"] == 2

    def test_session_matches_one_shot_predict(self, model):
        """A session step equals a fresh predict on the same canonical graph."""
        from repro.graph.radius import SkinNeighborList

        service = PredictionService(model)
        graph = make_graph(seed=9)
        session = service.trajectory(graph.atomic_numbers, cutoff=CUTOFF, skin=0.3)
        stepped = session.step(graph.positions)

        nl = SkinNeighborList(CUTOFF, 0.3)
        edge_index, edge_shift = nl.update(graph.positions)
        reference = service.predict(
            AtomGraph(
                atomic_numbers=graph.atomic_numbers,
                positions=graph.positions,
                edge_index=edge_index,
                edge_shift=edge_shift,
                source="trajectory",
            )
        )
        assert stepped.energy == reference.energy
        np.testing.assert_array_equal(stepped.forces, reference.forces)


class TestServedMode:
    def test_relax_through_started_service(self, model):
        """Relax steps ride the micro-batcher of a two-slot service."""
        service = PredictionService(model, ServiceConfig(flush_interval_s=0.005))
        service.start(workers=2)
        try:
            result = service.relax(make_graph(seed=10), RelaxSettings(max_steps=20, cutoff=CUTOFF))
            assert result.steps >= 1
            assert service.telemetry()["relax"]["sessions"] == 1
        finally:
            service.stop()
