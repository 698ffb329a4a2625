"""Admission policy and weighted-fair lanes: quotas, brownout, fairness."""

import time

import pytest

from repro.api import ApiGateway, OverloadedError, PredictRequest, StructurePayload
from repro.models import HydraModel, ModelConfig
from repro.serving import (
    ModelRegistry,
    AdmissionConfig,
    AdmissionController,
    BrownoutController,
    BrownoutShed,
    DeadlineExceeded,
    MicroBatcher,
    PredictionService,
    QuotaExceeded,
    ServeRequest,
    ServiceConfig,
    TokenBucket,
    merge_admission_telemetry,
    retry_after_header,
)
from tests.helpers import make_molecule_graphs


def _requests(count: int, lane: str = "interactive", prefix: str = "") -> list[ServeRequest]:
    graphs = make_molecule_graphs(count, seed=0)
    return [
        ServeRequest(graph=g, key=f"{prefix}{i}", lane=lane)
        for i, g in enumerate(graphs)
    ]


# ----------------------------------------------------------------------
# token bucket
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_fresh_client_starts_with_full_burst(self):
        bucket = TokenBucket(rate=1.0, burst=3.0, now=0.0)
        assert all(bucket.try_acquire(0.0) for _ in range(3))
        assert not bucket.try_acquire(0.0)

    def test_refills_at_rate_up_to_burst(self):
        bucket = TokenBucket(rate=2.0, burst=2.0, now=0.0)
        assert bucket.try_acquire(0.0, cost=2.0)
        assert not bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.5)  # 0.5s * 2/s = 1 token back
        assert not bucket.try_acquire(0.5)
        # A long idle period caps at burst, it does not bank unbounded credit.
        assert bucket.try_acquire(100.0, cost=2.0)
        assert not bucket.try_acquire(100.0)

    def test_retry_after_is_the_honest_deficit(self):
        bucket = TokenBucket(rate=2.0, burst=1.0, now=0.0)
        assert bucket.try_acquire(0.0)
        assert bucket.retry_after(0.0) == pytest.approx(0.5)  # 1 token / 2 per s
        assert bucket.retry_after(0.25) == pytest.approx(0.25)
        assert bucket.retry_after(0.5) == 0.0


# ----------------------------------------------------------------------
# weighted-fair lanes in the batcher
# ----------------------------------------------------------------------
class TestLaneFairness:
    def test_saturated_batch_matches_lane_weights(self):
        # 12 structures per lane, one batch of 12: the 8:3:1 weights say
        # 8 interactive, 3 bulk, 1 background.
        batcher = MicroBatcher(
            max_atoms=10**9, max_graphs=12, flush_interval_s=60.0, lane_aging_s=60.0
        )
        for lane, prefix in (("interactive", "i"), ("bulk", "b"), ("background", "g")):
            for request in _requests(12, lane=lane, prefix=prefix):
                batcher.submit(request)
        batch = batcher.next_batch()
        lanes = [r.lane for r in batch]
        assert len(batch) == 12
        assert lanes.count("interactive") == 8
        assert lanes.count("bulk") == 3
        assert lanes.count("background") == 1

    def test_fifo_within_each_lane(self):
        batcher = MicroBatcher(
            max_atoms=10**9, max_graphs=12, flush_interval_s=60.0, lane_aging_s=60.0
        )
        for lane, prefix in (("interactive", "i"), ("bulk", "b"), ("background", "g")):
            for request in _requests(12, lane=lane, prefix=prefix):
                batcher.submit(request)
        batch = batcher.next_batch()
        for lane in ("interactive", "bulk", "background"):
            keys = [r.key for r in batch if r.lane == lane]
            assert keys == sorted(keys, key=lambda k: int(k[1:]))

    def test_aged_request_jumps_the_schedule(self):
        # A background request past the aging bound is served before any
        # interactive work — starvation is bounded by lane_aging_s.
        batcher = MicroBatcher(
            max_atoms=10**9, max_graphs=2, flush_interval_s=60.0, lane_aging_s=0.05
        )
        old = ServeRequest(
            graph=make_molecule_graphs(1, seed=1)[0],
            key="bg-old",
            submitted_at=time.monotonic() - 1.0,
            lane="background",
        )
        batcher.submit(old)
        for request in _requests(3, lane="interactive", prefix="i"):
            batcher.submit(request)
        batch = batcher.next_batch()
        assert [r.key for r in batch] == ["bg-old", "i0"]

    def test_idle_lane_does_not_bank_credit(self):
        # background wakes after interactive has run for a while: its
        # clock clamps to the current virtual time, so it gets its 1-in-12
        # share, not a burst of accumulated priority.
        batcher = MicroBatcher(
            max_atoms=10**9, max_graphs=4, flush_interval_s=60.0, lane_aging_s=60.0
        )
        for request in _requests(8, lane="interactive", prefix="i"):
            batcher.submit(request)
        first = batcher.next_batch()
        assert [r.lane for r in first] == ["interactive"] * 4
        for request in _requests(4, lane="background", prefix="g"):
            batcher.submit(request)
        second = batcher.next_batch()
        # interactive still dominates; at most one background rides along
        assert [r.lane for r in second].count("background") <= 1

    def test_lane_depths_telemetry(self):
        batcher = MicroBatcher(max_atoms=10**9, max_graphs=64, flush_interval_s=60.0)
        for request in _requests(2, lane="bulk", prefix="b"):
            batcher.submit(request)
        assert batcher.lane_depths() == {"interactive": 0, "bulk": 2, "background": 0}


# ----------------------------------------------------------------------
# submit-time deadline shedding
# ----------------------------------------------------------------------
class TestSubmitShedding:
    def test_expired_on_arrival_rejected_at_submit(self):
        batcher = MicroBatcher(max_atoms=10**9, max_graphs=64, flush_interval_s=60.0)
        dead = ServeRequest(
            graph=make_molecule_graphs(1)[0],
            key="dead",
            deadline=time.monotonic() - 0.1,
        )
        with pytest.raises(DeadlineExceeded, match="arrived past its deadline"):
            batcher.submit(dead)
        assert batcher.expired == 1
        assert batcher.pending_graphs == 0

    def test_predicted_wait_sheds_at_submit(self):
        batcher = MicroBatcher(max_atoms=10**9, max_graphs=64, flush_interval_s=60.0)
        batcher.record_service(graphs=1, duration_s=1.0)  # 1 s per graph
        for request in _requests(5, prefix="fill"):
            batcher.submit(request)
        assert batcher.estimated_wait_s == pytest.approx(5.0)
        doomed = ServeRequest(
            graph=make_molecule_graphs(1, seed=1)[0],
            key="doomed",
            deadline=time.monotonic() + 0.5,
        )
        with pytest.raises(DeadlineExceeded, match="shed at submit"):
            batcher.submit(doomed)
        assert batcher.shed_predicted == 1
        assert batcher.expired == 1
        # A deadline the predicted wait fits inside is still admitted.
        fits = ServeRequest(
            graph=make_molecule_graphs(1, seed=2)[0],
            key="fits",
            deadline=time.monotonic() + 60.0,
        )
        batcher.submit(fits)
        assert batcher.pending_graphs == 6

    def test_service_time_ewma_tracks_new_measurements(self):
        batcher = MicroBatcher(max_atoms=10**9, max_graphs=64, flush_interval_s=60.0)
        batcher.record_service(graphs=2, duration_s=2.0)  # 1.0 s/graph
        batcher.record_service(graphs=1, duration_s=0.0)  # pulls the EWMA down
        batcher.submit(_requests(1)[0])
        assert 0.0 < batcher.estimated_wait_s < 1.0


# ----------------------------------------------------------------------
# brownout hysteresis
# ----------------------------------------------------------------------
class TestBrownout:
    def _hot(self, ctrl: BrownoutController, now: float, age: float = 2.0) -> None:
        for _ in range(8):
            ctrl.observe_wait(age, now=now)

    def test_enter_exit_hysteresis_one_level_per_dwell(self):
        ctrl = BrownoutController(
            enter_age_s=1.0, exit_age_s=0.5, dwell_s=1.0, sample_ttl_s=3.0
        )
        self._hot(ctrl, now=0.0)
        assert ctrl.update(0.0) == 1  # enter sheds background first
        assert ctrl.update(0.5) == 1  # dwell blocks the next step
        self._hot(ctrl, now=1.0)
        assert ctrl.update(1.0) == 2  # sustained overload escalates to bulk
        self._hot(ctrl, now=2.0)
        assert ctrl.update(2.0) == 2  # level 2 is the ceiling
        # Load pulse ends: hot samples age out, fresh waits are low.
        for _ in range(8):
            ctrl.observe_wait(0.1, now=6.0)
        assert ctrl.update(6.0) == 1  # exit steps down one level...
        assert ctrl.update(6.5) == 1  # ...and dwells
        assert ctrl.update(7.5) == 0
        assert ctrl.transitions == 4

    def test_p95_between_thresholds_holds_state(self):
        ctrl = BrownoutController(
            enter_age_s=1.0, exit_age_s=0.5, dwell_s=0.0, sample_ttl_s=100.0
        )
        self._hot(ctrl, now=0.0, age=0.75)  # between exit and enter
        assert ctrl.update(0.0) == 0  # never enters
        self._hot(ctrl, now=0.0, age=2.0)
        assert ctrl.update(0.1) == 1
        self._hot(ctrl, now=0.2, age=0.75)
        # p95 still reads the hot tail, and even once it reads 0.75 the
        # band between exit and enter holds the current level.
        assert ctrl.update(0.2) in (1, 2)

    def test_drained_queue_reads_healthy_and_exits(self):
        ctrl = BrownoutController(
            enter_age_s=1.0, exit_age_s=0.5, dwell_s=0.0, sample_ttl_s=1.0
        )
        self._hot(ctrl, now=0.0)
        assert ctrl.update(0.0) == 1
        # No dequeues at all after the pulse: samples expire, p95 reads 0.
        assert ctrl.update(5.0) == 0

    def test_sheds_in_priority_order_never_interactive(self):
        ctrl = BrownoutController(enter_age_s=1.0, dwell_s=0.0, sample_ttl_s=100.0)
        assert not any(ctrl.sheds(lane) for lane in ("interactive", "bulk", "background"))
        self._hot(ctrl, now=0.0)
        ctrl.update(0.0)
        assert ctrl.sheds("background") and not ctrl.sheds("bulk")
        assert not ctrl.sheds("interactive")
        ctrl.update(0.1)
        assert ctrl.sheds("background") and ctrl.sheds("bulk")
        assert not ctrl.sheds("interactive")

    def test_exit_threshold_must_be_below_enter(self):
        with pytest.raises(ValueError, match="hysteresis"):
            BrownoutController(enter_age_s=1.0, exit_age_s=1.0)


# ----------------------------------------------------------------------
# the admission gate
# ----------------------------------------------------------------------
class TestAdmissionController:
    def test_default_config_admits_everything(self):
        gate = AdmissionController()
        for lane in ("interactive", "bulk", "background"):
            gate.admit(client_id="anyone", lane=lane, now=0.0).release()
        section = gate.telemetry()
        assert section["lanes"]["interactive"]["admitted"] == 1
        assert section["shed"] == {"rate": 0, "concurrency": 0, "brownout": 0}

    def test_rate_quota_rejects_with_honest_hint(self):
        gate = AdmissionController(AdmissionConfig(client_rate=1.0, client_burst=2.0))
        gate.admit(client_id="a", now=0.0)
        gate.admit(client_id="a", now=0.0)
        with pytest.raises(QuotaExceeded, match="rate quota") as info:
            gate.admit(client_id="a", now=0.0)
        assert info.value.retry_after_s == pytest.approx(1.0, abs=0.01)
        # An unrelated client has its own bucket; anonymous is exempt.
        gate.admit(client_id="b", now=0.0)
        for _ in range(5):
            gate.admit(client_id=None, now=0.0)
        assert gate.telemetry()["shed"]["rate"] == 1

    def test_concurrency_quota_frees_on_lease_release(self):
        gate = AdmissionController(AdmissionConfig(client_concurrency=1))
        lease = gate.admit(client_id="a", now=0.0)
        with pytest.raises(QuotaExceeded, match="in flight"):
            gate.admit(client_id="a", now=0.0)
        lease.release()
        lease.release()  # idempotent: double release frees one slot once
        gate.admit(client_id="a", now=0.0)
        assert gate.telemetry()["shed"]["concurrency"] == 1

    def test_brownout_sheds_lanes_through_the_gate(self):
        gate = AdmissionController(
            AdmissionConfig(brownout_enter_s=0.5, brownout_dwell_s=0.0)
        )
        for _ in range(8):
            gate.observe_wait(2.0)
        with pytest.raises(BrownoutShed, match="background lane is shedding") as info:
            gate.admit(client_id="a", lane="background")
        assert info.value.retry_after_s is not None
        assert info.value.retry_after_s > 0
        # Interactive rides through even at the deepest brownout level.
        gate.admit(client_id="a", lane="interactive").release()
        assert gate.telemetry()["shed"]["brownout"] == 1

    def test_unknown_lane_is_a_caller_bug(self):
        with pytest.raises(ValueError, match="unknown lane"):
            AdmissionController().admit(lane="express")

    def test_bucket_table_evicts_least_recent_client(self):
        gate = AdmissionController(AdmissionConfig(client_rate=1.0, max_clients=2))
        gate.admit(client_id="a", now=0.0)
        gate.admit(client_id="b", now=0.0)
        gate.admit(client_id="c", now=0.0)
        assert "a" not in gate._buckets
        assert set(gate._buckets) == {"b", "c"}

    def test_telemetry_top_clients_ranked_by_requests(self):
        gate = AdmissionController()
        for _ in range(3):
            gate.admit(client_id="busy", now=0.0).release()
        gate.admit(client_id="quiet", now=0.0).release()
        top = gate.telemetry()["clients"]["top"]
        assert [entry["client"] for entry in top] == ["busy", "quiet"]
        assert top[0]["requests"] == 3


# ----------------------------------------------------------------------
# fleet aggregation + header formatting
# ----------------------------------------------------------------------
class TestFleetMerge:
    def test_merge_sums_counters_and_takes_worst_brownout(self):
        a = AdmissionController(AdmissionConfig(client_rate=1.0, client_burst=1.0))
        a.admit(client_id="x", now=0.0)
        with pytest.raises(QuotaExceeded):
            a.admit(client_id="x", now=0.0)
        b = AdmissionController(
            AdmissionConfig(brownout_enter_s=0.5, brownout_dwell_s=0.0)
        )
        for _ in range(8):
            b.observe_wait(2.0)
        with pytest.raises(BrownoutShed):
            b.admit(client_id="y", lane="background")
        b.admit(client_id="x", now=0.0).release()
        merged = merge_admission_telemetry([a.telemetry(), b.telemetry()])
        assert merged["shed"] == {"rate": 1, "concurrency": 0, "brownout": 1}
        assert merged["lanes"]["interactive"]["admitted"] == 2
        assert merged["lanes"]["background"]["shed"] == 1
        assert merged["brownout"]["level"] == 1
        assert merged["brownout"]["state"] == "shed_background"
        assert merged["brownout"]["enabled"] is True
        # x appears on both replicas: the union re-ranks it to the top.
        assert merged["clients"]["top"][0]["client"] == "x"
        assert merged["clients"]["top"][0]["requests"] == 2

    def test_merge_of_nothing_is_the_empty_shape(self):
        merged = merge_admission_telemetry([])
        assert merged["brownout"]["level"] == 0
        assert merged["clients"]["top"] == []

    def test_retry_after_header_is_integral_ceiling_floored_at_one(self):
        assert retry_after_header(None) == "1"
        assert retry_after_header(0.0) == "1"
        assert retry_after_header(0.2) == "1"
        assert retry_after_header(3.2) == "4"
        assert retry_after_header(5.0) == "5"


# ----------------------------------------------------------------------
# service integration: quota accounting across cache hits
# ----------------------------------------------------------------------
class TestServiceQuotas:
    @pytest.fixture(scope="class")
    def model(self):
        return HydraModel(ModelConfig(hidden_dim=16, num_layers=2), seed=0)

    def test_cache_hits_charge_rate_buckets(self, model):
        # burst 2, negligible refill: miss + hit both consume tokens, so
        # the third request is rejected even though it would be a cache
        # hit — the cache cannot launder quota.
        graph = make_molecule_graphs(1, seed=3)[0]
        service = PredictionService(
            model, ServiceConfig(client_rate=0.001, client_burst=2.0)
        )
        service.start(workers=1)
        try:
            first = service.predict(graph, client_id="tenant")
            assert not first.cached
            second = service.predict(graph, client_id="tenant")
            assert second.cached
            with pytest.raises(QuotaExceeded, match="rate quota"):
                service.predict(graph, client_id="tenant")
            # Anonymous traffic is exempt and still served from cache.
            assert service.predict(graph).cached
            section = service.telemetry()["admission"]
            assert section["shed"]["rate"] == 1
            assert section["clients"]["top"][0]["client"] == "tenant"
        finally:
            service.stop()

    def test_concurrency_slot_freed_after_each_request(self, model):
        # Sequential requests under client_concurrency=1 all pass: the
        # lease releases on completion (hit and miss paths both).
        graphs = make_molecule_graphs(3, seed=4)
        service = PredictionService(model, ServiceConfig(client_concurrency=1))
        service.start(workers=1)
        try:
            for graph in graphs:
                service.predict(graph, client_id="tenant")
            service.predict(graphs[0], client_id="tenant")  # cache-hit path
        finally:
            service.stop()

    def test_requests_without_identity_are_policy_free(self, model):
        # The pre-admission contract: no client_id, no priority, no knobs
        # beyond quotas -> nothing rejected, telemetry only counts lanes.
        graphs = make_molecule_graphs(2, seed=5)
        service = PredictionService(
            model, ServiceConfig(client_rate=1.0, client_concurrency=1)
        )
        service.start(workers=1)
        try:
            for graph in graphs + graphs:
                service.predict(graph)
            section = service.telemetry()["admission"]
            assert section["shed"] == {"rate": 0, "concurrency": 0, "brownout": 0}
            assert section["clients"]["active"] == 0
        finally:
            service.stop()


# ----------------------------------------------------------------------
# a brownout pulse through the in-process gateway, on explicit timestamps
# ----------------------------------------------------------------------
class TestBrownoutPulse:
    def test_brownout_enters_sheds_background_and_exits(self):
        """A burst of queue ages past the threshold enters brownout; while
        it holds, a background probe gets a typed 429 and interactive is
        served; once the pulse's samples age out, the controller exits.

        The controller's clock is driven by hand (``now=``), so no step
        depends on how fast this host drains a real flood.  The 60 s
        dwell holds the level still while real requests run in between.
        """
        registry = ModelRegistry()
        registry.register_model(
            "tiny", HydraModel(ModelConfig(hidden_dim=8, num_layers=2), seed=0)
        )
        gateway = ApiGateway(
            registry,
            workers=1,
            default_model="tiny",
            config=ServiceConfig(
                brownout_enter_s=0.02, brownout_exit_s=0.005, brownout_dwell_s=60.0
            ),
        )
        try:
            service = gateway.warm()
            brownout = service.admission.brownout
            payload = [StructurePayload.from_graph(g) for g in make_molecule_graphs(2, seed=6)]

            start = time.monotonic()
            for _ in range(brownout.min_samples):
                brownout.observe_wait(0.05, now=start)
            assert brownout.update(now=start) == 1  # normal -> shed_background

            with pytest.raises(OverloadedError) as shed:
                gateway.predict(PredictRequest(structures=[payload[0]], priority="background"))
            assert shed.value.http_status == 429
            assert shed.value.retry_after_s is not None and shed.value.retry_after_s > 0
            served = gateway.predict(PredictRequest(structures=payload, priority="interactive"))
            assert len(served.results) == len(payload)
            section = service.telemetry()["admission"]
            assert section["brownout"]["state"] == "shed_background"
            assert section["lanes"]["background"]["shed"] == 1
            assert section["lanes"]["interactive"]["shed"] == 0

            # The pulse is over: its samples (and the served requests'
            # waits) age out, the queue reads healthy, and one dwell later
            # the controller is back to normal.
            later = start + brownout.sample_ttl_s + brownout.dwell_s + 1.0
            assert brownout.update(now=later) == 0
            history = brownout.telemetry(now=later)["history"]
            assert [(step["from"], step["to"]) for step in history] == [
                ("normal", "shed_background"),
                ("shed_background", "normal"),
            ]
        finally:
            gateway.close()
