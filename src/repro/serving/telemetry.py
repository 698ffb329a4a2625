"""Every field of a ``/v1/stats`` model entry, declared once with its merge rule.

A replica reports one entry per served model
(:meth:`PredictionService.telemetry`); the router folds the fleet's
entries into one (:func:`merge`).  Both read :data:`MODEL`: the table is
the shape — its keys are the keys a replica emits — and each leaf says
how N replicas' values become one.  A new counter is one line here plus
its increment.  Standard library only, so the router (which only
shuffles bytes) and offline readers can import the table alone.
"""

from __future__ import annotations

#: How many clients ``admission.clients.top`` lists, per replica and fleet-wide.
TOP_CLIENTS = 8

#: Replica-local: reported by each replica, absent from the fleet view.
LOCAL = None


def fieldwise(fold, zero):
    """A rule over the replicas' values of the field itself; a gap reads as ``zero``."""
    return lambda key, sections: fold([section.get(key) or zero for section in sections])


def add_counts(histograms) -> dict:
    """``{name: count}`` histograms, added key-wise."""
    merged: dict = {}
    for histogram in histograms:
        for name, count in histogram.items():
            merged[name] = merged.get(name, 0) + count
    return merged


def _largest(zero):
    return fieldwise(lambda values: max(values, default=zero), zero)


SUM = fieldwise(sum, 0)  # counters, and rates replicas earn concurrently
ANY = fieldwise(any, False)
MAX, MAX_S = _largest(0), _largest(0.0)  # MAX_S: seconds, so the empty fleet reads 0.0
COUNTS = fieldwise(add_counts, {})


def FIRST(key, sections):
    """Fleet-uniform (the supervisor launches every replica alike): the first's."""
    return sections[0].get(key) if sections else None


def ratio(numerator, *denominator):
    """A ratio of fleet sums — never a mean of per-replica ratios."""

    def rule(_key, sections):
        bottom = sum(SUM(name, sections) for name in denominator)
        return SUM(numerator, sections) / bottom if bottom else 0.0

    return rule


def mean_by(weight):
    """A mean weighted by another field.  For latency percentiles an approximation:
    the exact fleet percentile needs the per-request records, which stay replica-local."""

    def rule(key, sections):
        pairs = [(s.get(key, 0.0), s.get(weight, 0)) for s in sections]
        total = sum(w for _, w in pairs)
        return sum(value * w for value, w in pairs) / total if total > 0 else 0.0

    return rule


def at_worst(level, default):
    """What the replica with the highest ``level`` field reports (ties: the last)."""

    def rule(key, sections):
        worst, value = 0, default
        for section in sections:
            reported = section.get(level) or 0
            if reported >= worst:
                worst, value = reported, section.get(key, value)
        return value

    return rule


def top_k(identity, counters, k):
    """Ranked records: union by ``identity``, sum ``counters``, re-rank by the first."""

    def rule(key, sections):
        merged: dict = {}
        for section in sections:
            for record in section.get(key) or []:
                slot = merged.setdefault(record.get(identity), dict.fromkeys(counters, 0))
                for name in counters:
                    slot[name] += record.get(name, 0)
        ranked = sorted(merged.items(), key=lambda item: (-item[1][counters[0]], item[0]))
        return [{identity: name, **slot} for name, slot in ranked[:k]]

    return rule


_CACHE = {"hits": SUM, "misses": SUM, "evictions": SUM, "hit_rate": ratio("hits", "hits", "misses")}
_SKIN = {
    "neighbor_rebuilds": SUM,
    "neighbor_reuses": SUM,
    "neighbor_reuse_rate": ratio("neighbor_reuses", "neighbor_rebuilds", "neighbor_reuses"),
}
_LANE = {"admitted": SUM, "shed": SUM, "depth": SUM}  # depth: a gauge; the fleet backlog

MODEL = {
    "serving": {
        "requests": SUM,
        "cache_hits": SUM,
        "cache_hit_rate": ratio("cache_hits", "requests"),
        "batches": SUM,
        "mean_batch_graphs": mean_by("batches"),
        "mean_batch_atoms": mean_by("batches"),
        "p50_latency_s": mean_by("requests"),
        "p95_latency_s": mean_by("requests"),
        "mean_latency_s": mean_by("requests"),
        "wall_time_s": MAX_S,
        "requests_per_s": SUM,
        "atoms_per_s": SUM,
    },
    "result_cache": _CACHE,
    "buffer_pool": {**_CACHE, "reserved_bytes": SUM, "idle_buffers": SUM},
    "plans": {
        "enabled": ANY,
        "plans_compiled": SUM,
        "plan_hits": SUM,
        "plan_misses": SUM,
        "plan_fallbacks": SUM,
        "plan_hit_rate": ratio("plan_hits", "plan_hits", "plan_misses"),
        "cached_plans": SUM,
    },
    "batching": {
        "max_atoms": FIRST,
        "max_graphs": FIRST,
        "flush_interval_s": FIRST,
        "max_pending": FIRST,
        "rejected": SUM,
        "expired": SUM,
        "shed_predicted": SUM,
        "estimated_wait_s": MAX_S,
        "flush_reasons": COUNTS,
    },
    "admission": {
        "config": {"client_rate": FIRST, "client_burst": FIRST, "client_concurrency": FIRST},
        "lanes": {"interactive": _LANE, "bulk": _LANE, "background": _LANE},
        "shed": COUNTS,
        "clients": {"active": MAX, "top": top_k("client", ("requests", "shed"), TOP_CLIENTS)},
        "brownout": {
            "enabled": ANY,
            "state": at_worst("level", "normal"),
            "level": MAX,
            "transitions": SUM,
            "queue_age_p95_s": MAX_S,
            "enter_age_s": FIRST,
            "exit_age_s": FIRST,
            "history": LOCAL,  # each replica's own transitions, in its own time
        },
    },
    "relax": {"sessions": SUM, "steps": SUM, "converged": SUM, **_SKIN},
    "md": {"sessions": SUM, "steps": SUM, "steps_per_s": SUM, **_SKIN, "thermostats": COUNTS},
    "engine": {"backend": FIRST, "physical_units": FIRST},
}

#: The healthz ``saturation`` gauges, folded over one replica's services.
SATURATION = {
    "queue_depth": SUM,
    "estimated_wait_s": MAX_S,
    "brownout_level": MAX,
    "brownout_state": at_worst("brownout_level", "normal"),
}


def merge(entries: list[dict], table: dict = MODEL) -> dict:
    """Fold ``entries`` (dicts shaped like ``table``) into one; tolerant of gaps.

    A missing section or key contributes nothing — replicas on older code
    report only what they know — and ``merge([])`` is the empty shape.
    """
    merged = {}
    for key, rule in table.items():
        if isinstance(rule, dict):
            nested = (entry.get(key) for entry in entries)
            merged[key] = merge([n if isinstance(n, dict) else {} for n in nested], rule)
        elif rule is not LOCAL:
            merged[key] = rule(key, entries)
    return merged


def derive(table: dict, counters: dict) -> dict:
    """One replica's section: ``table``'s keys, ratio fields by the fleet's own rule."""
    return {
        key: counters[key] if key in counters else rule(key, [counters])
        for key, rule in table.items()
    }
