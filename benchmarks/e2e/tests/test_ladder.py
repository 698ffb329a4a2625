import math

from benchmarks.e2e import ladder
from benchmarks.e2e.ladder import Node, Trace


def test_self_times_sum_to_the_top_rung():
    leaves = [Node("serving.hashing.hash", 0.07), Node("models.hydra.forward", 1.35)]
    inline = Node(ladder.SERVICE, 1.56, leaves)
    started = Node(ladder.WAIT, 6.9, [inline])
    md = Node(ladder.MD, 8.0, [Node("graph.radius.skin_update", 0.9), started])
    local = Node(ladder.LOCAL, 8.1, [md])
    http = Node(ladder.HTTP, 8.4, [local])
    routed = Node(ladder.HOP, 9.2, [http])
    times = ladder.self_times(routed)
    assert math.isclose(sum(times.values()), 9.2, abs_tol=1e-12)
    assert math.isclose(times[ladder.HOP], 0.8)
    assert math.isclose(times[ladder.WAIT], 6.9 - 1.56)
    assert math.isclose(times[ladder.MD], 8.0 - 0.9 - 6.9)
    assert math.isclose(times[ladder.SERVICE], 1.56 - 0.07 - 1.35)
    assert times["models.hydra.forward"] == 1.35


def test_a_noisy_lower_rung_shows_as_negative_self_time_not_a_broken_sum():
    root = Node(ladder.HTTP, 10.0, [Node(ladder.LOCAL, 10.2)])
    times = ladder.self_times(root)
    assert times[ladder.HTTP] < 0
    assert math.isclose(sum(times.values()), 10.0)


def test_trace_records_one_span_per_op_with_its_parent():
    trace = Trace()
    results, durations = trace.run("layer", "above", [1, 2, 3], lambda x: x * 2)
    assert results == [2, 4, 6] and len(durations) == 3
    assert [(s[0], s[1], s[4]) for s in trace.spans] == [("layer", i, "above") for i in range(3)]
    for (_, _, start, end, _), duration in zip(trace.spans, durations):
        assert 0.0 <= start <= end
        assert math.isclose((end - start) * 1000.0, duration, abs_tol=1e-6)
