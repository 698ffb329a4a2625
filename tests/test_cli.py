"""CLI coverage: every subcommand through ``main()`` with captured stdout."""

import pytest

from repro.cli import _parse_params, build_parser, main
from repro.models import HydraModel, ModelConfig
from repro.train import save_checkpoint


class TestParseParams:
    def test_suffixes(self):
        assert _parse_params("50M") == 50_000_000
        assert _parse_params("2B") == 2_000_000_000
        assert _parse_params("1.5k") == 1_500
        assert _parse_params("123") == 123
        assert _parse_params(" 10m ") == 10_000_000

    def test_junk_raises_clean_argparse_error(self):
        import argparse

        # "infM"/"nanB" parse as float but overflow/fail int() — they
        # must get the same clean error as plain junk.
        for junk in ("50X", "", "M", "fifty", "1..5M", "infM", "nanB"):
            with pytest.raises(argparse.ArgumentTypeError, match="invalid parameter count"):
                _parse_params(junk)


class TestExperiments:
    def test_lists_registered_artifacts(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "artifact" in out


class TestModel:
    def test_preset(self, capsys):
        assert main(["model", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "width=16" in out

    def test_param_target(self, capsys):
        assert main(["model", "50M"]) == 0
        out = capsys.readouterr().out
        assert "params" in out

    def test_junk_target_clean_error(self, capsys):
        assert main(["model", "50X"]) == 2
        captured = capsys.readouterr()
        assert "invalid parameter count '50X'" in captured.err
        assert "known presets" in captured.err
        assert "Traceback" not in captured.err


class TestCorpus:
    def test_summarizes_sources(self, capsys):
        assert main(["corpus", "12"]) == 0
        out = capsys.readouterr().out
        assert "ani1x" in out
        assert "TB at paper scale" in out


class TestPredict:
    def test_preset_prediction_table(self, capsys):
        import re

        assert main(["predict", "--graphs", "5", "--preset", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "energy/atom" in out
        # generate_corpus rounds the source mixture up, so assert the
        # summary shape rather than an exact count.
        assert re.search(r"served \d+ structures in \d+ micro-batches", out)

    def test_checkpoint_prediction(self, capsys, tmp_path):
        model = HydraModel(ModelConfig(hidden_dim=8, num_layers=2), seed=0)
        path = save_checkpoint(tmp_path / "m.npz", model)
        assert main(["predict", "--graphs", "3", "--checkpoint", str(path)]) == 0
        out = capsys.readouterr().out
        assert "served" in out and "micro-batches" in out

    def test_missing_checkpoint_clean_error(self, capsys, tmp_path):
        assert main(["predict", "--checkpoint", str(tmp_path / "nope.npz")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_preset_clean_error(self, capsys):
        assert main(["predict", "--preset", "gigantic"]) == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_results_deterministic_across_runs(self, capsys):
        assert main(["predict", "--graphs", "4", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["predict", "--graphs", "4", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    def test_input_file_with_json_output(self, capsys, tmp_path):
        """--input (wire structures) + --json emits a valid PredictResponse."""
        import json

        from repro.api import PredictResponse

        path = tmp_path / "structures.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "atomic_numbers": [1, 8, 1],
                        "positions": [
                            [0.0, 0.0, 0.0],
                            [0.96, 0.0, 0.0],
                            [1.2, 0.9, 0.0],
                        ],
                    }
                ]
            )
        )
        assert main(["predict", "--input", str(path), "--json"]) == 0
        response = PredictResponse.from_json_dict(json.loads(capsys.readouterr().out))
        assert response.model == "tiny"
        assert len(response.results) == 1
        assert response.results[0].n_atoms == 3
        assert response.results[0].forces.shape == (3, 3)

    def test_input_file_schema_error_is_clean(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[{"atomic_numbers": [1], "positions": [[0, 0]]}]')
        assert main(["predict", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "positions" in captured.err
        assert "Traceback" not in captured.err

    def test_missing_input_file_is_clean(self, capsys, tmp_path):
        assert main(["predict", "--input", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_batching_budget_is_a_clean_error(self, capsys):
        # The service builds its batcher at construction, which validates
        # the budgets there — before any structure is loaded.
        assert main(["predict", "--graphs", "2", "--max-atoms", "0"]) == 2
        captured = capsys.readouterr()
        assert "max_atoms and max_graphs must be >= 1" in captured.err
        assert "Traceback" not in captured.err


class TestServe:
    def test_requires_a_mode(self, capsys):
        """Bare `repro serve` must name its two modes, not guess one."""
        assert main(["serve"]) == 2
        err = capsys.readouterr().err
        assert "--http" in err and "--selftest" in err

    def test_modes_are_mutually_exclusive(self, capsys):
        assert main(["serve", "--http", "0", "--selftest"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_backend_choices_are_the_registered_backends(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--http", "0", "--backend", "parallel"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --backend: invalid choice: 'parallel'" in err
        assert "choose from" in err and "numpy" in err

    def test_autotune_cache_flag_is_gone(self, capsys, tmp_path):
        """A deployment still passing the retired flag fails before it serves."""
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--http", "0", "--autotune-cache", str(tmp_path / "a.json")])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --autotune-cache" in captured.err
        assert "serving model" not in captured.out  # never claimed to be up

    def test_selftest_session_summary(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--selftest",
                    "--graphs",
                    "6",
                    "--requests",
                    "24",
                    "--workers",
                    "2",
                    "--flush-interval",
                    "0.002",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cache hits" in out
        assert "micro-batches" in out
        assert "throughput" in out
        assert "buffer pool" in out

    def test_selftest_repeat_requests_hit_cache(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--selftest",
                    "--graphs",
                    "4",
                    "--requests",
                    "32",
                    "--workers",
                    "1",
                    "--concurrency",
                    "4",
                    "--flush-interval",
                    "0.002",
                ]
            )
            == 0
        )
        import re

        out = capsys.readouterr().out
        # 32 requests over 4 unique structures with small waves: the
        # steady state is all-hits, so the session must report some.
        hits = int(re.search(r"\((\d+) cache hits", out).group(1))
        assert hits > 0

    def test_selftest_overload_is_a_clean_error(self, capsys):
        """A queue bound smaller than the wave rejects with a hint, not a traceback."""
        code = main(
            [
                "serve",
                "--selftest",
                "--graphs",
                "8",
                "--requests",
                "8",
                "--workers",
                "1",
                "--concurrency",
                "8",
                "--max-pending",
                "1",
                "--flush-interval",
                "0.5",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "server overloaded" in captured.err
        assert "--max-pending" in captured.err
        assert "Traceback" not in captured.err


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
