"""Model factory: exact counting, width solver, presets."""

from dataclasses import replace

import pytest

from repro.models import (
    PAPER_MODEL_SIZES,
    HydraModel,
    ModelConfig,
    build_model,
    count_parameters,
    describe,
    egnn_forward_flops,
    get_preset,
    model_size_ladder,
    preset_names,
    solve_width,
)


class TestCounting:
    @pytest.mark.parametrize("width,depth", [(4, 1), (8, 2), (16, 3), (48, 4), (64, 6)])
    def test_closed_form_matches_construction(self, width, depth):
        config = ModelConfig(hidden_dim=width, num_layers=depth)
        assert HydraModel(config, seed=0).num_parameters() == count_parameters(config)

    def test_no_layernorm_variant(self):
        config = ModelConfig(hidden_dim=16, num_layers=2, layer_norm=False)
        assert HydraModel(config, seed=0).num_parameters() == count_parameters(config)

    def test_head_dim_variant(self):
        config = ModelConfig(hidden_dim=16, num_layers=2, head_hidden_dim=32)
        assert HydraModel(config, seed=0).num_parameters() == count_parameters(config)

    def test_count_monotone_in_width(self):
        counts = [count_parameters(ModelConfig(hidden_dim=w)) for w in (8, 16, 32, 64)]
        assert counts == sorted(counts)

    def test_count_monotone_in_depth(self):
        counts = [
            count_parameters(ModelConfig(hidden_dim=32, num_layers=d)) for d in (1, 2, 4, 8)
        ]
        assert counts == sorted(counts)


class TestWidthSolver:
    @pytest.mark.parametrize("target", PAPER_MODEL_SIZES)
    def test_hits_paper_targets_within_1_percent(self, target):
        config = solve_width(int(target), num_layers=3)
        achieved = count_parameters(config)
        assert abs(achieved - target) / target < 0.01

    def test_respects_depth(self):
        config = solve_width(1_000_000, num_layers=5)
        assert config.num_layers == 5
        assert abs(count_parameters(config) - 1_000_000) / 1e6 < 0.02

    def test_too_small_target_rejected(self):
        with pytest.raises(ValueError):
            solve_width(10, num_layers=3)

    def test_too_large_target_rejected(self):
        with pytest.raises(ValueError):
            solve_width(10**15, num_layers=3, max_width=10_000)

    def test_ladder_is_increasing(self):
        ladder = model_size_ladder((int(1e5), int(1e6), int(1e7)))
        widths = [c.hidden_dim for c in ladder]
        assert widths == sorted(widths)


class TestBuildGuard:
    def test_build_small_model(self):
        model = build_model(ModelConfig(hidden_dim=8, num_layers=2))
        assert model.num_parameters() > 0

    def test_refuses_billion_parameter_build(self):
        config = solve_width(2_000_000_000, num_layers=3)
        with pytest.raises(MemoryError):
            build_model(config)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(hidden_dim=0)
        with pytest.raises(ValueError):
            ModelConfig(num_layers=0)
        with pytest.raises(ValueError):
            ModelConfig(num_rbf=1)

    def test_activation_is_silu_only(self):
        assert ModelConfig(activation="silu").activation == "silu"
        with pytest.raises(ValueError, match="activation must be 'silu'"):
            ModelConfig(activation="tanh")

    def test_checkpoint_with_activation_round_trips(self, tmp_path):
        from repro.train import load_checkpoint, save_checkpoint

        config = ModelConfig(hidden_dim=8, num_layers=2)
        path = save_checkpoint(tmp_path / "ckpt.npz", HydraModel(config, seed=0))
        restored, metadata = load_checkpoint(path)
        assert metadata["config"]["activation"] == "silu"
        assert restored.config == config


class TestForwardFlops:
    def test_attention_gate_adds_two_flops_per_edge_and_channel(self):
        layers, width, nodes, edges = 3, 24, 50, 700
        plain = ModelConfig(hidden_dim=width, num_layers=layers)
        gated = replace(plain, attention=True)
        extra = egnn_forward_flops(gated, nodes, edges) - egnn_forward_flops(plain, nodes, edges)
        assert extra == 2 * layers * edges * width

    def test_with_checkpointing_copy(self):
        config = ModelConfig()
        toggled = config.with_checkpointing(True)
        assert toggled.checkpoint_activations
        assert not config.checkpoint_activations

    def test_scaled_copy(self):
        config = ModelConfig(hidden_dim=8, num_layers=2)
        scaled = config.scaled(hidden_dim=32)
        assert scaled.hidden_dim == 32
        assert scaled.num_layers == 2


class TestPresets:
    def test_all_presets_resolve(self):
        for name in preset_names():
            config = get_preset(name)
            assert count_parameters(config) > 0

    def test_foundation_is_two_billion(self):
        config = get_preset("foundation")
        assert abs(count_parameters(config) - 2e9) / 2e9 < 0.01

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            get_preset("mega")

    def test_describe_mentions_size(self):
        text = describe(ModelConfig(hidden_dim=64))
        assert "width=64" in text and "params" in text
