"""Admission policy: per-client quotas and brownout degradation.

The :class:`MicroBatcher` owns the *mechanism* of fairness — priority
lanes scheduled by weighted fair queueing (:mod:`repro.serving.batcher`).
This module owns the *policy* that decides whether a request is allowed
to reach the queue at all:

- **Per-client token buckets** (:class:`TokenBucket`): each ``client_id``
  refills at ``client_rate`` structures/second up to a ``client_burst``
  ceiling.  Cache hits bypass the batcher but still pass through here,
  so a client replaying one hot structure cannot launder unlimited
  traffic through the result cache.
- **Per-client concurrency quotas**: at most ``client_concurrency``
  structures in flight per client; the :class:`AdmissionLease` returned
  by :meth:`AdmissionController.admit` releases the slot when the
  request completes.
- **Brownout** (:class:`BrownoutController`): a hysteresis state machine
  over the queue-age p95.  When sustained queue age crosses the enter
  threshold the fleet degrades *in priority order* — background work is
  shed first, then bulk — and interactive traffic is never shed by
  brownout.  Exit uses a lower threshold plus a dwell time, so the
  controller cannot flap at the boundary.

Every rejection is typed and retryable: :class:`QuotaExceeded` and
:class:`BrownoutShed` subclass the batcher's :class:`ServiceOverloaded`
(HTTP 429) and carry an honest ``retry_after_s`` — the token deficit
over the refill rate, or the age the queue must drain — which the HTTP
layer surfaces as a ``Retry-After`` header.

Requests without a ``client_id`` are exempt from quotas (there is no
identity to account against) but still ride lanes and brownout, and
requests without knobs configured pass through untouched — the default
configuration is policy-free and byte-identical to the pre-admission
contract.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass

from repro.serving.batcher import DEFAULT_LANE, LANES, ServiceOverloaded
from repro.serving.stats import percentile
from repro.serving.telemetry import MODEL, TOP_CLIENTS, merge
from repro.wire import retry_after_header  # noqa: F401 - re-exported

#: Brownout levels, in shedding order: level 1 sheds ``background``,
#: level 2 sheds ``bulk`` as well.  ``interactive`` is never shed.
BROWNOUT_STATES = ("normal", "shed_background", "shed_bulk")

#: Lanes shed at each brownout level (cumulative by construction).
_SHED_AT_LEVEL = {0: (), 1: ("background",), 2: ("background", "bulk")}


class QuotaExceeded(ServiceOverloaded):
    """A per-client rate or concurrency quota rejected the request."""

    def __init__(self, message: str, retry_after_s: float | None = None) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class BrownoutShed(ServiceOverloaded):
    """The brownout controller shed this request's lane."""

    def __init__(self, message: str, retry_after_s: float | None = None) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class TokenBucket:
    """The classic token bucket: refill at ``rate``, hold at most ``burst``."""

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)  # a fresh client starts with full burst
        self.updated = float(now)

    def _refill(self, now: float) -> None:
        if now > self.updated:
            self.tokens = min(self.burst, self.tokens + (now - self.updated) * self.rate)
            self.updated = now

    def try_acquire(self, now: float, cost: float = 1.0) -> bool:
        self._refill(now)
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False

    def retry_after(self, now: float, cost: float = 1.0) -> float:
        """Seconds until ``cost`` tokens will be available (honest hint)."""
        self._refill(now)
        deficit = cost - self.tokens
        if deficit <= 0.0:
            return 0.0
        return deficit / self.rate


class BrownoutController:
    """Hysteresis state machine over the sustained queue-age p95.

    Feed it queue waits (:meth:`observe_wait`, one sample per dequeued
    request) and poll it (:meth:`update`, called on every admission
    check).  Samples older than ``sample_ttl_s`` are discarded, so an
    idle queue reads as healthy and a finished load pulse deterministically
    drains the signal.  Transitions move one level at a time and are
    separated by at least ``dwell_s`` — enter at ``enter_age_s``, exit at
    the lower ``exit_age_s`` — which is what keeps the controller from
    flapping when the p95 hovers at a threshold.
    """

    def __init__(
        self,
        enter_age_s: float,
        exit_age_s: float | None = None,
        dwell_s: float = 0.25,
        window: int = 512,
        min_samples: int = 8,
        sample_ttl_s: float | None = None,
    ) -> None:
        if enter_age_s < 0:
            raise ValueError("enter_age_s must be >= 0 (0 disables brownout)")
        self.enter_age_s = float(enter_age_s)
        self.exit_age_s = (
            float(exit_age_s) if exit_age_s is not None else self.enter_age_s / 2.0
        )
        if self.enter_age_s and self.exit_age_s >= self.enter_age_s:
            raise ValueError("exit_age_s must be below enter_age_s (hysteresis)")
        self.dwell_s = float(dwell_s)
        self.min_samples = int(min_samples)
        self.sample_ttl_s = (
            float(sample_ttl_s)
            if sample_ttl_s is not None
            else max(1.0, 4.0 * self.dwell_s)
        )
        self.level = 0
        self.transitions = 0
        self._history: deque[dict] = deque(maxlen=8)
        self._samples: deque[tuple[float, float]] = deque(maxlen=int(window))
        self._changed_at: float | None = None
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.enter_age_s > 0.0

    def observe_wait(self, age_s: float, now: float | None = None) -> None:
        if not self.enabled:
            return
        now = time.monotonic() if now is None else now
        with self._lock:
            self._samples.append((now, float(age_s)))

    def _p95_locked(self, now: float) -> float:
        while self._samples and now - self._samples[0][0] > self.sample_ttl_s:
            self._samples.popleft()
        if len(self._samples) < self.min_samples:
            # Too little recent evidence to *enter*; an idle/drained queue
            # reads as age zero, which is what lets brownout exit.
            return 0.0
        return percentile([age for _, age in self._samples], 95.0)

    def update(self, now: float | None = None) -> int:
        """Advance the state machine; returns the (possibly new) level."""
        if not self.enabled:
            return 0
        now = time.monotonic() if now is None else now
        with self._lock:
            p95 = self._p95_locked(now)
            dwelled = (
                self._changed_at is None or now - self._changed_at >= self.dwell_s
            )
            if dwelled and p95 >= self.enter_age_s and self.level < 2:
                self._transition_locked(self.level + 1, p95, now)
            elif dwelled and p95 <= self.exit_age_s and self.level > 0:
                self._transition_locked(self.level - 1, p95, now)
            return self.level

    def _transition_locked(self, level: int, p95: float, now: float) -> None:
        self._history.append(
            {
                "from": BROWNOUT_STATES[self.level],
                "to": BROWNOUT_STATES[level],
                "queue_age_p95_s": round(p95, 6),
                "at_monotonic": now,
            }
        )
        self.level = level
        self.transitions += 1
        self._changed_at = now

    def sheds(self, lane: str) -> bool:
        return lane in _SHED_AT_LEVEL[self.level]

    def retry_after(self, now: float | None = None) -> float:
        """How long a shed caller should wait: the age the queue must drain."""
        now = time.monotonic() if now is None else now
        with self._lock:
            p95 = self._p95_locked(now)
        return max(self.dwell_s, p95)

    def telemetry(self, now: float | None = None) -> dict:
        now = time.monotonic() if now is None else now
        with self._lock:
            p95 = self._p95_locked(now)
            history = [
                {key: entry[key] for key in ("from", "to", "queue_age_p95_s")}
                for entry in self._history
            ]
        return {
            "enabled": self.enabled,
            "state": BROWNOUT_STATES[self.level],
            "level": self.level,
            "transitions": self.transitions,
            "queue_age_p95_s": p95,
            "enter_age_s": self.enter_age_s,
            "exit_age_s": self.exit_age_s,
            "history": history,
        }


@dataclass(frozen=True)
class AdmissionConfig:
    """Quota and brownout knobs (all off by default — policy-free)."""

    #: Per-client refill rate, structures/second.  0 disables rate limits.
    client_rate: float = 0.0
    #: Per-client bucket capacity (burst).  0 derives ``max(1, 2*rate)``.
    client_burst: float = 0.0
    #: Per-client in-flight structure bound.  0 disables.
    client_concurrency: int = 0
    #: Queue-age p95 that enters brownout.  0 disables brownout.
    brownout_enter_s: float = 0.0
    #: Queue-age p95 that exits brownout (0 derives ``enter/2``).
    brownout_exit_s: float = 0.0
    #: Minimum seconds between brownout transitions.
    brownout_dwell_s: float = 0.25
    #: Token-bucket table bound; least-recently-seen clients are evicted.
    max_clients: int = 1024

    def effective_burst(self) -> float:
        if self.client_burst > 0:
            return float(self.client_burst)
        return max(1.0, 2.0 * self.client_rate)


class AdmissionLease:
    """A granted admission; release it when the request completes."""

    __slots__ = ("_controller", "_client", "_released")

    def __init__(self, controller: "AdmissionController", client: str | None) -> None:
        self._controller = controller
        self._client = client
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        if self._client is not None:
            self._controller._release(self._client)


class AdmissionController:
    """Quota + brownout gate in front of the micro-batcher.

    :meth:`admit` is called once per request at the service boundary —
    *before* the result-cache lookup, so cache hits charge rate buckets
    too — and raises a typed, retryable :class:`ServiceOverloaded`
    subclass when policy rejects.  With the default
    :class:`AdmissionConfig` every check passes and only the telemetry
    counters move.
    """

    #: How many clients the telemetry top-k lists.
    TOP_K = TOP_CLIENTS

    def __init__(self, config: AdmissionConfig | None = None) -> None:
        self.config = config or AdmissionConfig()
        self.brownout = BrownoutController(
            enter_age_s=self.config.brownout_enter_s,
            exit_age_s=self.config.brownout_exit_s or None,
            dwell_s=self.config.brownout_dwell_s,
        )
        self._lock = threading.Lock()
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()
        self._inflight: dict[str, int] = {}
        # Per-client lifetime accounting (top-k telemetry).
        self._client_requests: dict[str, int] = {}
        self._client_shed: dict[str, int] = {}
        self._lane_admitted = dict.fromkeys(LANES, 0)
        self._lane_shed = dict.fromkeys(LANES, 0)
        self._shed_reasons = {"rate": 0, "concurrency": 0, "brownout": 0}

    # ------------------------------------------------------------------
    # the gate
    # ------------------------------------------------------------------
    def admit(
        self,
        client_id: str | None = None,
        lane: str = DEFAULT_LANE,
        cost: float = 1.0,
        now: float | None = None,
    ) -> AdmissionLease:
        """Grant or reject one request; the lease releases concurrency."""
        if lane not in LANES:
            raise ValueError(f"unknown lane {lane!r}; expected one of {LANES}")
        now = time.monotonic() if now is None else now
        self.brownout.update(now)
        if self.brownout.sheds(lane):
            hint = self.brownout.retry_after(now)
            with self._lock:
                self._lane_shed[lane] += 1
                self._shed_reasons["brownout"] += 1
                if client_id is not None:
                    self._client_shed[client_id] = self._client_shed.get(client_id, 0) + 1
            raise BrownoutShed(
                f"brownout ({self.brownout.telemetry(now)['state']}): "
                f"{lane} lane is shedding; retry later",
                retry_after_s=round(hint, 3),
            )
        with self._lock:
            if client_id is not None:
                if self.config.client_rate > 0:
                    bucket = self._bucket_locked(client_id, now)
                    if not bucket.try_acquire(now, cost):
                        hint = bucket.retry_after(now, cost)
                        self._lane_shed[lane] += 1
                        self._shed_reasons["rate"] += 1
                        self._client_shed[client_id] = (
                            self._client_shed.get(client_id, 0) + 1
                        )
                        raise QuotaExceeded(
                            f"client {client_id!r} exceeded its rate quota "
                            f"({self.config.client_rate:g}/s); retry later",
                            retry_after_s=round(max(hint, 0.001), 3),
                        )
                if (
                    self.config.client_concurrency > 0
                    and self._inflight.get(client_id, 0) >= self.config.client_concurrency
                ):
                    self._lane_shed[lane] += 1
                    self._shed_reasons["concurrency"] += 1
                    self._client_shed[client_id] = self._client_shed.get(client_id, 0) + 1
                    raise QuotaExceeded(
                        f"client {client_id!r} already has "
                        f"{self.config.client_concurrency} structures in flight; "
                        "retry when one completes",
                        retry_after_s=0.1,
                    )
                self._inflight[client_id] = self._inflight.get(client_id, 0) + 1
                self._client_requests[client_id] = (
                    self._client_requests.get(client_id, 0) + 1
                )
            self._lane_admitted[lane] += 1
        return AdmissionLease(self, client_id)

    def _bucket_locked(self, client_id: str, now: float) -> TokenBucket:
        bucket = self._buckets.get(client_id)
        if bucket is None:
            bucket = TokenBucket(
                self.config.client_rate, self.config.effective_burst(), now
            )
            self._buckets[client_id] = bucket
            while len(self._buckets) > self.config.max_clients:
                self._buckets.popitem(last=False)
        else:
            self._buckets.move_to_end(client_id)
        return bucket

    def _release(self, client_id: str) -> None:
        with self._lock:
            remaining = self._inflight.get(client_id, 0) - 1
            if remaining > 0:
                self._inflight[client_id] = remaining
            else:
                self._inflight.pop(client_id, None)

    # ------------------------------------------------------------------
    # saturation signal
    # ------------------------------------------------------------------
    def observe_wait(self, age_s: float) -> None:
        """One dequeued request's queue age — the brownout input signal."""
        self.brownout.observe_wait(age_s)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def telemetry(self, lane_depths: dict[str, int] | None = None) -> dict:
        with self._lock:
            top = sorted(
                self._client_requests.items(), key=lambda item: (-item[1], item[0])
            )[: self.TOP_K]
            lanes = {
                lane: {
                    "admitted": self._lane_admitted[lane],
                    "shed": self._lane_shed[lane],
                    "depth": int((lane_depths or {}).get(lane, 0)),
                }
                for lane in LANES
            }
            payload = {
                "config": {
                    "client_rate": self.config.client_rate,
                    "client_burst": self.config.effective_burst()
                    if self.config.client_rate > 0
                    else self.config.client_burst,
                    "client_concurrency": self.config.client_concurrency,
                },
                "lanes": lanes,
                "shed": dict(self._shed_reasons),
                "clients": {
                    "active": len(self._client_requests),
                    "top": [
                        {
                            "client": client,
                            "requests": count,
                            "shed": self._client_shed.get(client, 0),
                        }
                        for client, count in top
                    ],
                },
            }
        payload["brownout"] = self.brownout.telemetry()
        return payload


def merge_admission_telemetry(sections: list[dict]) -> dict:
    """Fleet-aggregate per-replica ``admission`` telemetry sections.

    Lane counters and depths sum, the brownout view reports the *worst*
    replica's level, the per-client top-k is re-ranked over the union —
    each by the rule declared in :data:`repro.serving.telemetry.MODEL`.
    """
    return merge(sections, MODEL["admission"])
