"""The real CLI subprocess: found by its ``bound_port=`` line, reaped whole."""

import pytest

from benchmarks.e2e import host, measure, servers, workloads
from benchmarks.e2e.workloads import WORKLOADS


def test_routed_server_serves_and_is_reaped_with_its_replica():
    workload = WORKLOADS["predict_routed"]
    with servers.Server(workload.preset, workload.server_args).start() as server:
        assert server.url.startswith("http://127.0.0.1:") and server.boot_s > 0
        tree = [(pid, host.start_time(pid)) for pid in server.pids()]
        assert len(tree) >= 2  # the router and one replica
        op = workloads.base_ops(workload, 0)[0]
        results, latencies, structures = measure.execute(
            measure.http_client(server.url), workload, op
        )
        assert structures == 1 and len(latencies) == 1
        assert measure.shape_errors(workload, op, results) == []
    assert server.process is None
    assert all(host.start_time(pid) != started for pid, started in tree)
    server.stop()  # idempotent


def test_a_server_that_cannot_boot_raises_with_its_output():
    with pytest.raises(servers.ServerError, match="bound_port"):
        servers.Server("no-such-preset").start()
    assert not servers._live
