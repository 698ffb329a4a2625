"""``/v1/stats`` declared once: the table, the fold, and the sessions that count.

- **Golden.**  ``golden/replica_stats.json`` holds four replicas'
  ``models`` mappings as the router parses them: three live
  ``PredictionService.telemetry()`` dicts (predicts, cache hits, an
  expired deadline, relax, MD under three thermostats, a rate-quota
  shed, a brownout that climbed two levels) and one sparse entry from
  an "older replica".  ``golden/fleet_stats.json`` is what
  ``aggregate_model_telemetry`` answers for them — captured from the
  hand-written merge, since grown only by the four fields that merge
  used to drop.
- **Completeness.**  What a live replica emits and what
  ``repro.serving.telemetry.MODEL`` declares are the same keys.
- **Properties** of the generic fold: replica order, grouping, gaps.
- **Sessions.**  Relax, MD and trajectory runs count through one
  force-evaluation session, aborted runs included.
"""

import json
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.models import HydraModel, ModelConfig
from repro.serving import (
    DeadlineExceeded,
    MDSettings,
    PredictionService,
    RelaxSettings,
    ServiceConfig,
)
from repro.serving.router import aggregate_model_telemetry
from repro.serving.telemetry import (
    ANY,
    COUNTS,
    FIRST,
    LOCAL,
    MAX,
    MAX_S,
    MODEL,
    SATURATION,
    SUM,
    merge,
)
from tests.helpers import make_molecule_graphs

GOLDEN = Path(__file__).resolve().parent / "golden"


def load(name: str):
    return json.loads((GOLDEN / name).read_text())


def canonical(value) -> str:
    """Key-order-free text form; unlike ``==`` it tells ``0`` from ``0.0`` and ``False``."""
    return json.dumps(value, sort_keys=True)


def test_fleet_merge_reproduces_the_golden_exactly():
    merged = aggregate_model_telemetry(load("replica_stats.json"))
    assert merged == load("fleet_stats.json")
    assert canonical(merged) == canonical(load("fleet_stats.json"))


# ----------------------------------------------------------------------
# the table is the shape: producer keys == declared keys
# ----------------------------------------------------------------------
def leaves(table: dict, path: tuple = ()):
    """Every ``(path, rule)`` leaf of a (nested) section table."""
    for key, rule in table.items():
        if isinstance(rule, dict):
            yield from leaves(rule, (*path, key))
        else:
            yield (*path, key), rule


def at(entry: dict, path: tuple):
    for key in path:
        entry = entry[key]
    return entry


def assert_same_keys(produced: dict, table: dict, where: str = "model entry") -> None:
    assert set(produced) == set(table), f"{where}: producer and table disagree"
    for key, rule in table.items():
        if isinstance(rule, dict):
            assert_same_keys(produced[key], rule, f"{where}.{key}")


@pytest.fixture(scope="module")
def live_service():
    """A started service that has seen every workload the sections count."""
    model = HydraModel(ModelConfig(hidden_dim=16, num_layers=2), seed=0)
    service = PredictionService(model, ServiceConfig(flush_interval_s=0.002)).start(workers=1)
    graph = make_molecule_graphs(1, seed=2)[0]
    service.predict(graph, client_id="alice")
    service.predict(graph)  # a cache hit
    service.relax(graph, RelaxSettings(max_steps=3))
    for _ in service.md(graph, MDSettings(n_steps=2, timestep_fs=0.5)):
        pass
    yield service
    service.stop()


class TestTableIsTheShape:
    def test_every_emitted_key_is_declared_and_every_declared_key_emitted(self, live_service):
        """A field a replica reports cannot silently vanish from the fleet
        view: it has a merge rule, or it is declared replica-local."""
        assert_same_keys(live_service.telemetry(), MODEL)

    def test_fleet_view_of_one_replica_keeps_all_but_the_replica_local_fields(self, live_service):
        entry = json.loads(json.dumps(live_service.telemetry()))
        fleet = merge([entry])
        for path, rule in leaves(MODEL):
            if rule is LOCAL:
                with pytest.raises(KeyError):
                    at(fleet, path)
            else:
                at(fleet, path)  # present

    def test_what_the_fleet_view_used_to_drop_is_merged_by_a_declared_rule(self):
        """``estimated_wait_s``, ``admission.config`` and the brownout
        thresholds vanished in the hand-written merge; only the transition
        history is replica-local, and that is said in the table."""
        assert [path for path, rule in leaves(MODEL) if rule is LOCAL] == [
            ("admission", "brownout", "history")
        ]
        config = {"client_rate": 5.0, "client_burst": 10.0, "client_concurrency": 2}
        thresholds = {"enter_age_s": 0.5, "exit_age_s": 0.25}
        history = [{"from": "normal", "to": "shed_background", "queue_age_p95_s": 0.7}]
        idle = {
            "batching": {"estimated_wait_s": 0.0},
            "admission": {"config": config, "brownout": dict(thresholds, history=[])},
        }
        busy = {
            "batching": {"estimated_wait_s": 0.25},
            "admission": {"config": config, "brownout": dict(thresholds, history=history)},
        }
        fleet = merge([idle, busy])
        assert fleet["batching"]["estimated_wait_s"] == 0.25  # the worst replica's
        assert fleet["admission"]["config"] == config  # fleet-uniform: the first's
        assert {k: fleet["admission"]["brownout"][k] for k in thresholds} == thresholds
        assert "history" not in fleet["admission"]["brownout"]

    def test_top_client_records_carry_the_ranked_counters(self, live_service):
        top = live_service.telemetry()["admission"]["clients"]["top"]
        assert top == [{"client": "alice", "requests": 1, "shed": 0}]
        fleet = merge([{"admission": {"clients": {"top": top}}}])
        assert fleet["admission"]["clients"]["top"] == top

    def test_saturation_gauges_are_declared_too(self, live_service):
        assert set(live_service.saturation()) == set(SATURATION)
        assert merge([], SATURATION) == {
            "queue_depth": 0,
            "estimated_wait_s": 0.0,
            "brownout_level": 0,
            "brownout_state": "normal",
        }


# ----------------------------------------------------------------------
# the fold: order, grouping, gaps
# ----------------------------------------------------------------------
STATES = ("normal", "shed_background", "shed_bulk")
COUNTERS = st.integers(0, 10**6)
#: Dyadic values and small integer weights keep weighted means exact in
#: floating point, so "independent of order" can be asserted with ``==``.
DYADIC = st.integers(0, 64).map(lambda n: n / 8)
BY_RULE = {
    SUM: COUNTERS,
    MAX: COUNTERS,
    MAX_S: DYADIC,
    ANY: st.booleans(),
    COUNTS: st.dictionaries(st.sampled_from(["a", "b", "c"]), COUNTERS, max_size=3),
    FIRST: st.sampled_from([0, 64, 0.005, "numpy", False, None]),
    LOCAL: st.just("replica-local"),
}
RECORDS = st.lists(
    st.fixed_dictionaries(
        {"client": st.sampled_from("uvwxyz")}, optional={"requests": COUNTERS, "shed": COUNTERS}
    ),
    max_size=4,
    unique_by=lambda record: record["client"],
)


def values_for(path: tuple, rule):
    if path[-1] == "top":
        return RECORDS
    if path[-1] == "batches" or path[-1] == "requests":
        return st.integers(0, 16)  # the weights of the weighted means
    return BY_RULE.get(rule, DYADIC)  # ratios and weighted means: any small float


def sections(table: dict, path: tuple = ()):
    """Dicts shaped like ``table`` with any key — or whole section — missing."""
    optional = {}
    for key, rule in table.items():
        if isinstance(rule, dict):
            optional[key] = st.one_of(st.none(), sections(rule, (*path, key)))
        else:
            optional[key] = values_for((*path, key), rule)
    built = st.fixed_dictionaries({}, optional=optional)
    if path[-1:] == ("brownout",):
        # A replica's state is a function of its level, or both are missing.
        return built.map(
            lambda s: {**s, "state": STATES[s["level"] % 3]}
            if "level" in s
            else {k: v for k, v in s.items() if k != "state"}
        )
    return built


ENTRIES = st.lists(sections(MODEL), max_size=5)
#: FIRST reads position 0, so it alone depends on the order.
ORDER_FREE = [path for path, rule in leaves(MODEL) if rule not in (FIRST, LOCAL)]
#: A mean of means equals the whole mean only up to rounding, and a top-k
#: of top-ks has lost its tails; everything else regroups exactly.
GROUP_FREE = [
    path
    for path, rule in leaves(MODEL)
    if rule in (SUM, MAX, MAX_S, ANY, COUNTS)
    or (path[-1].endswith("_rate") and rule is not FIRST)  # the ratios of sums
    or path[-1] == "state"
]


_HISTOGRAMS = {path[-1] for path, rule in leaves(MODEL) if rule is COUNTS}


def _shape(merged: dict) -> dict:
    """The key skeleton of a merged entry (declared sub-sections only)."""
    return {
        key: _shape(value) if isinstance(value, dict) and key not in _HISTOGRAMS else None
        for key, value in merged.items()
    }


class TestFoldProperties:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(entries=ENTRIES, data=st.data())
    def test_replica_order_does_not_matter(self, entries, data):
        shuffled = data.draw(st.permutations(entries))
        merged, again = merge(entries), merge(shuffled)
        for path in ORDER_FREE:
            assert at(merged, path) == at(again, path), path

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(entries=ENTRIES, data=st.data())
    def test_grouping_does_not_matter(self, entries, data):
        """Merging two partial merges is merging everything: counters,
        histograms, maxima, and the ratios recomputed from the sums."""
        cut = data.draw(st.integers(0, len(entries)))
        whole = merge(entries)
        parts = [merge(entries[:cut]), merge(entries[cut:])]
        regrouped = merge(parts)
        for path in GROUP_FREE:
            assert at(regrouped, path) == at(whole, path), path
        for path, rule in leaves(MODEL):
            if rule is SUM:
                assert at(parts[0], path) + at(parts[1], path) == at(whole, path), path

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.one_of(sections(MODEL), st.just({"serving": None, "md": 3})), max_size=4))
    def test_gaps_never_raise_and_never_change_the_shape(self, entries):
        assert canonical(_shape(merge(entries))) == canonical(_shape(merge([])))

    def test_merging_nothing_is_the_empty_shape(self):
        empty = merge([])
        assert empty == merge([{}])
        assert empty["serving"]["requests"] == 0
        assert empty["serving"]["p95_latency_s"] == 0.0
        assert empty["batching"]["flush_reasons"] == {}
        assert empty["batching"]["max_atoms"] is None
        assert empty["admission"]["lanes"]["bulk"] == {"admitted": 0, "shed": 0, "depth": 0}
        assert empty["admission"]["clients"] == {"active": 0, "top": []}
        assert empty["admission"]["brownout"]["state"] == "normal"
        assert empty["md"]["thermostats"] == {}
        assert aggregate_model_telemetry([]) == {}


# ----------------------------------------------------------------------
# one session under relax, MD and trajectory
# ----------------------------------------------------------------------
class TestAbortedSessionsKeepTheirProgress:
    """A run stopped by its deadline is still a session that evaluated
    forces: relax used to count only after the descent *returned*, so an
    aborted one recorded nothing while the same abort in MD recorded
    everything."""

    @pytest.fixture()
    def service(self):
        return PredictionService(HydraModel(ModelConfig(hidden_dim=16, num_layers=2), seed=0))

    def test_expired_relax_is_counted(self, service):
        graph = make_molecule_graphs(1, seed=2)[0]
        with pytest.raises(DeadlineExceeded, match="relax deadline expired between force eval"):
            service.relax(graph, deadline=time.monotonic() - 1.0)
        stats = service.telemetry()
        assert stats["relax"] == {
            "sessions": 1,
            "steps": 1,  # the evaluation the deadline refused
            "converged": 0,
            "neighbor_rebuilds": 1,
            "neighbor_reuses": 0,
            "neighbor_reuse_rate": 0.0,
        }
        assert stats["batching"]["expired"] == 1

    def test_relax_and_md_record_the_same_abort_alike(self, service):
        graph = make_molecule_graphs(1, seed=2)[0]
        hopeless = RelaxSettings(max_steps=1000, fmax=1e-300, min_step=1e-300)
        with pytest.raises(DeadlineExceeded):
            service.relax(graph, hopeless, deadline=time.monotonic() + 0.03)
        with pytest.raises(DeadlineExceeded):
            for _ in service.md(
                graph, MDSettings(n_steps=5000, timestep_fs=0.1), deadline=time.monotonic() + 0.03
            ):
                pass
        stats = service.telemetry()
        # Whenever the deadline fell: every evaluation begun is a skin-list
        # update, and all of them are steps but MD's initial forces.
        for section, initial in ((stats["relax"], 0), (stats["md"], 1)):
            assert section["sessions"] == 1
            assert section["neighbor_rebuilds"] >= 1
            evaluations = section["neighbor_rebuilds"] + section["neighbor_reuses"]
            assert evaluations == section["steps"] + initial
        assert stats["batching"]["expired"] == 2

    def test_every_session_kind_admits_once_not_once_per_evaluation(self, service):
        graph = make_molecule_graphs(1, seed=2)[0]
        service.start(workers=1)
        try:
            service.relax(graph, RelaxSettings(max_steps=4), client_id="alice")
            for _ in service.md(graph, MDSettings(n_steps=3, timestep_fs=0.5), client_id="alice"):
                pass
            session = service.trajectory(graph.atomic_numbers)
            for shift in (0.0, 0.001, 0.002):
                session.step(graph.positions + shift)
            admission = service.telemetry()["admission"]
        finally:
            service.stop()
        assert admission["lanes"]["interactive"]["admitted"] == 3
        assert admission["clients"]["top"] == [{"client": "alice", "requests": 2, "shed": 0}]

    def test_expired_has_one_writer_under_concurrent_sessions(self, service):
        """Sessions on many threads, each refused at its first evaluation:
        a lost update on ``expired`` or the session counters would show."""
        graph = make_molecule_graphs(1, seed=2)[0]
        threads, rounds = 8, 40

        def hammer():
            for _ in range(rounds):
                with pytest.raises(DeadlineExceeded):
                    service.relax(graph, deadline=time.monotonic() - 1.0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=hammer) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
        stats = service.telemetry()
        assert stats["batching"]["expired"] == threads * rounds
        assert stats["relax"]["sessions"] == threads * rounds
        assert stats["relax"]["steps"] == threads * rounds
