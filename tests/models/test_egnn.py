"""EGNN backbone: shapes, equivariance, checkpointing parity, subnormal-free RBF input."""

import copy

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from repro.data.sources.builders import bulk_crystal, random_molecule
from repro.graph.atoms import AtomGraph
from repro.graph.batch import collate
from repro.graph.features import gaussian_rbf
from repro.graph.radius import build_edges
from repro.models import EGNNBackbone, HydraModel, ModelConfig, get_preset
from repro.models.egnn import RBF_FLOOR, edge_geometry_arrays_for
from repro.tensor import kernels, no_grad
from repro.tensor.plan import compile_plan, plan_inputs
from tests.helpers import make_crystal_graphs, make_molecule_graphs, make_periodic_graphs
from tests.reference import composed_ops


@pytest.fixture(scope="module")
def batch():
    return collate(make_molecule_graphs(4, seed=3))


@pytest.fixture(scope="module")
def config():
    return ModelConfig(hidden_dim=16, num_layers=2)


class TestShapes:
    def test_backbone_outputs(self, batch, config):
        backbone = EGNNBackbone(config, seed=0)
        h, x, geometry = backbone(batch)
        assert h.shape == (batch.num_nodes, 16)
        assert x.shape == (batch.num_nodes, 3)
        assert geometry.rbf.shape == (batch.num_edges, config.num_rbf)

    def test_model_outputs(self, batch, config):
        model = HydraModel(config, seed=0)
        predictions = model(batch)
        assert predictions["energy"].shape == (batch.num_graphs, 1)
        assert predictions["forces"].shape == (batch.num_nodes, 3)

    def test_periodic_batch(self, config):
        batch = collate(make_periodic_graphs(2, seed=4))
        predictions = HydraModel(config, seed=0)(batch)
        assert np.isfinite(predictions["energy"].numpy()).all()
        assert np.isfinite(predictions["forces"].numpy()).all()

    def test_deterministic_construction(self, batch, config):
        a = HydraModel(config, seed=5)
        b = HydraModel(config, seed=5)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_different_seeds_differ(self, config):
        a = HydraModel(config, seed=1)
        b = HydraModel(config, seed=2)
        assert not np.array_equal(a.backbone.embedding.weight.data, b.backbone.embedding.weight.data)


def _transformed_batch(graphs, rotation: np.ndarray, translation: np.ndarray):
    moved = []
    for graph in graphs:
        clone = copy.deepcopy(graph)
        clone.positions = graph.positions @ rotation.T + translation
        clone.edge_shift = graph.edge_shift @ rotation.T
        moved.append(clone)
    return collate(moved)


class TestEquivariance:
    """The paper's stated reason for choosing EGNN (Sec. III-B)."""

    @pytest.fixture(scope="class")
    def model(self):
        return HydraModel(ModelConfig(hidden_dim=24, num_layers=3), seed=7)

    def test_rotation(self, model):
        graphs = make_molecule_graphs(3, seed=8)
        rotation = Rotation.from_euler("zyx", [0.3, -1.1, 0.6]).as_matrix()
        with no_grad():
            base = model(collate(graphs))
            rotated = model(_transformed_batch(graphs, rotation, np.zeros(3)))
        assert np.allclose(base["energy"].numpy(), rotated["energy"].numpy(), atol=1e-5)
        assert np.allclose(
            base["forces"].numpy() @ rotation.T, rotated["forces"].numpy(), atol=1e-5
        )

    def test_translation(self, model):
        graphs = make_molecule_graphs(3, seed=9)
        with no_grad():
            base = model(collate(graphs))
            moved = model(_transformed_batch(graphs, np.eye(3), np.array([5.0, -3.0, 1.0])))
        assert np.allclose(base["energy"].numpy(), moved["energy"].numpy(), atol=1e-5)
        assert np.allclose(base["forces"].numpy(), moved["forces"].numpy(), atol=1e-5)

    def test_reflection(self, model):
        graphs = make_molecule_graphs(3, seed=10)
        mirror = np.diag([-1.0, 1.0, 1.0])
        with no_grad():
            base = model(collate(graphs))
            mirrored = model(_transformed_batch(graphs, mirror, np.zeros(3)))
        assert np.allclose(base["energy"].numpy(), mirrored["energy"].numpy(), atol=1e-5)
        assert np.allclose(
            base["forces"].numpy() @ mirror.T, mirrored["forces"].numpy(), atol=1e-5
        )

    def test_permutation(self, model):
        graph = make_molecule_graphs(1, seed=11)[0]
        perm = np.random.default_rng(1).permutation(graph.n_atoms)
        inverse = np.argsort(perm)
        permuted = copy.deepcopy(graph)
        permuted.atomic_numbers = graph.atomic_numbers[perm]
        permuted.positions = graph.positions[perm]
        permuted.forces = graph.forces[perm]
        permuted.edge_index = inverse[graph.edge_index]
        with no_grad():
            base = model(collate([graph]))
            shuffled = model(collate([permuted]))
        assert np.allclose(base["energy"].numpy(), shuffled["energy"].numpy(), atol=1e-5)
        assert np.allclose(base["forces"].numpy()[perm], shuffled["forces"].numpy(), atol=1e-5)

    def test_graph_batch_independence(self, model):
        """Predictions for a graph are unchanged by its batch neighbors."""
        graphs = make_molecule_graphs(3, seed=12)
        with no_grad():
            alone = model(collate([graphs[0]]))
            together = model(collate(graphs))
        n0 = graphs[0].n_atoms
        assert np.allclose(
            alone["energy"].numpy()[0], together["energy"].numpy()[0], atol=1e-5
        )
        assert np.allclose(
            alone["forces"].numpy(), together["forces"].numpy()[:n0], atol=1e-5
        )


class TestCheckpointingParity:
    def test_forward_identical(self, batch):
        config = ModelConfig(hidden_dim=16, num_layers=3)
        plain = HydraModel(config, seed=3)
        ckpt = HydraModel(config.with_checkpointing(True), seed=3)
        with no_grad():
            a = plain(batch)
            b = ckpt(batch)
        assert np.allclose(a["energy"].numpy(), b["energy"].numpy(), atol=1e-6)
        assert np.allclose(a["forces"].numpy(), b["forces"].numpy(), atol=1e-6)

    def test_gradients_identical(self, batch):
        config = ModelConfig(hidden_dim=16, num_layers=3)
        plain = HydraModel(config, seed=3)
        ckpt = HydraModel(config.with_checkpointing(True), seed=3)
        target_e = np.zeros((batch.num_graphs, 1), dtype=np.float32)
        target_f = np.zeros((batch.num_nodes, 3), dtype=np.float32)
        for model in (plain, ckpt):
            model.zero_grad()
            model.loss(model(batch), target_e, target_f).backward()
        for (name, pa), (_, pb) in zip(plain.named_parameters(), ckpt.named_parameters()):
            assert pa.grad is not None and pb.grad is not None, name
            assert np.allclose(pa.grad, pb.grad, atol=1e-5), name

    def test_training_reduces_loss(self, batch):
        """Adam steps on one batch with real targets must reduce the loss."""
        from repro.optim import Adam

        rng = np.random.default_rng(0)
        config = ModelConfig(hidden_dim=16, num_layers=2)
        model = HydraModel(config, seed=4)
        optimizer = Adam(model.parameters(), lr=2e-3)
        target_e = rng.normal(size=(batch.num_graphs, 1)).astype(np.float32)
        target_f = rng.normal(size=(batch.num_nodes, 3)).astype(np.float32)
        losses = []
        for _ in range(12):
            model.zero_grad()
            loss = model.loss(model(batch), target_e, target_f)
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        assert min(losses[6:]) < losses[0]


class TestFusedKernelParity:
    """The fused kernels must match the composed primitive ops they replace."""

    def test_forward_identical(self, batch):
        model = HydraModel(ModelConfig(hidden_dim=32, num_layers=3, attention=True), seed=6)
        with no_grad():
            fused = model(batch)
            with composed_ops():
                reference = model(batch)
        for key in ("energy", "forces"):
            assert np.allclose(
                fused[key].numpy(), reference[key].numpy(), atol=1e-5
            ), key

    def test_backward_identical(self, batch):
        model = HydraModel(ModelConfig(hidden_dim=32, num_layers=2), seed=6)
        target_e = np.zeros((batch.num_graphs, 1), dtype=np.float32)
        target_f = np.zeros((batch.num_nodes, 3), dtype=np.float32)

        model.zero_grad()
        model.loss(model(batch), target_e, target_f).backward()
        fused_grads = {name: p.grad.copy() for name, p in model.named_parameters()}

        model.zero_grad()
        with composed_ops():
            model.loss(model(batch), target_e, target_f).backward()
        for name, param in model.named_parameters():
            assert param.grad is not None, name
            assert np.allclose(fused_grads[name], param.grad, atol=1e-5), name


def _md_stream_cell():
    """The MD benchmark's cell: unstrained 64-atom rocksalt, sheared triclinic."""
    shear = np.array([[1.0, 0.0, 0.0], [0.1, 1.0, 0.0], [0.05, 0.08, 1.0]])
    rng = np.random.default_rng(31)
    numbers, positions, cell = bulk_crystal(
        rng, "rocksalt", ["Mg", "O"], 4.21, (2, 2, 2), strain=0.0
    )
    return collate([_graph(numbers, positions @ shear, cell @ shear, (True, True, True))])


def _molecule():
    numbers, positions = random_molecule(np.random.default_rng(32), ["C", "N", "O"], 20)
    return collate([_graph(numbers, positions, None, (False, False, False))])


def _bulk_crystals():
    """Three dense periodic cells in one batch: several row tiles at width 64."""
    return collate(make_crystal_graphs(3, seed=33))


def _graph(numbers, positions, cell, pbc):
    edge_index, edge_shift = build_edges(positions, ModelConfig().cutoff, cell, pbc)
    return AtomGraph(
        atomic_numbers=numbers,
        positions=positions,
        edge_index=edge_index,
        edge_shift=edge_shift,
        cell=cell,
        pbc=pbc,
    )


class TestSubnormalFlush:
    """The geometry prologue zeroes every RBF entry below ``RBF_FLOOR``,
    and zeroing them moves no output bit."""

    @pytest.mark.parametrize(
        "structure,preset",
        [(_md_stream_cell, "tiny"), (_molecule, "tiny"), (_bulk_crystals, "base")],
        ids=["md_cell", "molecule", "bulk_base"],
    )
    def test_flush_is_invisible_to_the_planned_forward(self, structure, preset):
        batch = structure()
        config = get_preset(preset)
        tiny = np.finfo(np.float32).tiny
        assert RBF_FLOOR == 2.0**-64

        rbf = edge_geometry_arrays_for(batch, config.cutoff, config.num_rbf)["rbf"]
        assert rbf[rbf > 0].min() >= RBF_FLOOR

        src, dst = batch.edge_index
        _, distances = kernels.edge_geometry_arrays(batch.positions, batch.edge_shift, src, dst)
        unflushed = gaussian_rbf(distances, config.cutoff, config.num_rbf).astype(np.float32)
        assert ((unflushed >= tiny) & (unflushed < RBF_FLOOR)).any()  # the case is live
        assert np.array_equal(np.where(unflushed < RBF_FLOOR, 0.0, unflushed), rbf)

        model = HydraModel(config, seed=0)
        plan, _ = compile_plan(model, batch)
        inputs, dims = plan_inputs(model, batch)
        flushed_out = plan.replay(inputs, dims)
        unflushed_out = plan.replay({**inputs, "rbf": unflushed}, dims)
        for key in ("energy", "forces"):
            assert np.array_equal(flushed_out[key], unflushed_out[key]), key
