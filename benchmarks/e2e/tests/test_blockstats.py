import statistics

import numpy as np
import pytest

from benchmarks.e2e import blockstats
from benchmarks.e2e.blockstats import Block


def test_quantile_matches_numpy_linear_interpolation():
    rng = np.random.default_rng(0)
    for size in (1, 2, 15, 30, 151):
        values = rng.exponential(size=size).tolist()
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert blockstats.quantile(values, q) == pytest.approx(np.quantile(values, q))


def test_quantile_rejects_an_empty_sample():
    with pytest.raises(ValueError):
        blockstats.quantile([], 0.5)


def test_block_summary_arithmetic():
    block = Block(latencies_ms=[1.0, 2.0, 3.0, 4.0, 10.0], structures=20, wall_s=0.5,
                  server_cpu_ms=50.0)
    summary = block.summary()
    assert summary["op_p50_ms"] == 3.0
    assert summary["op_p90_ms"] == pytest.approx(4.0 + 0.6 * 6.0)  # position 3.6 of 0..4
    assert summary["structures_per_s"] == 40.0
    assert summary["server_cpu_ms_per_structure"] == 2.5


def test_run_metric_is_the_median_over_blocks_so_one_burst_costs_one_block():
    calm = [Block([10.0] * 30, structures=30, wall_s=0.3, server_cpu_ms=90.0) for _ in range(11)]
    burst = Block([80.0] * 30, structures=30, wall_s=2.4, server_cpu_ms=900.0)
    aggregates = blockstats.block_aggregates(calm + [burst])
    assert aggregates["op_p50_ms"] == 10.0
    assert aggregates["op_p90_ms"] == 10.0
    assert aggregates["structures_per_s"] == pytest.approx(100.0)
    assert aggregates["server_cpu_ms_per_structure"] == pytest.approx(3.0)


def test_per_block_p90_is_taken_inside_each_block_not_pooled():
    # Block p90s are 1.9 and 100.9; pooling all 20 ops would give ~91.
    blocks = [
        Block([1.0] * 9 + [10.0], structures=10, wall_s=1.0, server_cpu_ms=None),
        Block([100.0] * 9 + [109.0], structures=10, wall_s=1.0, server_cpu_ms=None),
        Block([1.0] * 9 + [10.0], structures=10, wall_s=1.0, server_cpu_ms=None),
    ]
    aggregates = blockstats.block_aggregates(blocks)
    assert aggregates["op_p90_ms"] == pytest.approx(1.9)
    assert aggregates["server_cpu_ms_per_structure"] is None  # off Linux


def test_midmean_drops_both_tails_and_keeps_sub_tick_resolution():
    ticks = [57, 58, 58, 58, 59, 58, 57, 59, 58, 58, 58, 90]  # one burst block
    assert blockstats.midmean(ticks) == pytest.approx(58.0)
    assert blockstats.midmean([1, 2, 3, 4]) == 2.5
    assert blockstats.midmean([57, 58, 58, 59, 59, 59, 58, 58]) == pytest.approx(58.25)


def test_pooled_p99_reports_its_sample_count():
    blocks = [Block(list(range(1, 51)), 50, 1.0, None), Block(list(range(51, 101)), 50, 1.0, None)]
    value, samples = blockstats.pooled_p99(blocks)
    assert samples == 100
    assert value == pytest.approx(np.quantile(range(1, 101), 0.99))


def test_worsening_is_signed_by_direction():
    assert blockstats.worsening(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert blockstats.worsening(10.0, 9.0, "lower") == pytest.approx(-0.1)
    assert blockstats.worsening(100.0, 90.0, "higher") == pytest.approx(0.1)
    assert blockstats.worsening(100.0, 110.0, "higher") == pytest.approx(-0.1)


def test_relative_range_is_max_minus_min_over_median():
    values = [9.0, 10.0, 10.5, 11.0, 10.2, 9.8, 10.1, 10.3, 9.9, 10.4]
    assert blockstats.relative_range(values) == pytest.approx(2.0 / statistics.median(values))
