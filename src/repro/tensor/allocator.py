"""Memory accounting and the one scratch allocator of the numpy tensor engine.

Two halves, both keyed on the calling thread's context stacks:

- :class:`MemoryTracker` — byte-accurate accounting of live buffers
  (below).
- :class:`BufferPool` — the engine's only scratch allocator: a
  shape-bucketed caching allocator that recycles a buffer once nothing
  outside the pool references it.  Training, the unplanned ``no_grad``
  forward, and execution-plan replays (:mod:`repro.tensor.plan`, whose
  generated code drops each value after its last read) all draw from
  whichever pool :func:`use_pool` made active, or from plain
  ``np.empty`` when none is.

The paper's Fig. 6 and Table II are statements about *peak device memory*
broken down by category (activations, weights, optimizer states, others).
To reproduce them without CUDA we track every live numpy buffer owned by
the engine and attribute it to a category at allocation time.

Design:

- A :class:`MemoryTracker` keeps a registry of live buffers keyed by
  ``id(array)``.  Buffers are removed automatically when the array is
  garbage collected (via :func:`weakref.finalize`), which on CPython means
  immediately after the last reference dies -- the same lifetime rule CUDA
  caching allocators observe for framework tensors.
- The category of a new buffer comes from the innermost
  :meth:`MemoryTracker.category` context.  Model parameters are created
  under ``weights``, optimizer state under ``optimizer_states``, input
  batches under ``other``; everything else defaults to ``activations``.
- Gradients produced during backward are registered under ``gradients``.
- On every registration the tracker updates the running total; when a new
  peak is reached it snapshots the full per-category breakdown.  That
  snapshot is exactly what Fig. 6's pie charts show.

Only *base-owning* arrays (``array.base is None``) are registered, so numpy
views (slices, reshapes that alias) are never double counted.
"""

from __future__ import annotations

import sys
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# Canonical category names, mirroring the paper's Fig. 6 legend.
WEIGHTS = "weights"
GRADIENTS = "gradients"
ACTIVATIONS = "activations"
OPTIMIZER_STATES = "optimizer_states"
OTHER = "other"

CATEGORIES = (WEIGHTS, GRADIENTS, ACTIVATIONS, OPTIMIZER_STATES, OTHER)


@dataclass(frozen=True)
class MemorySnapshot:
    """Immutable view of memory usage at one instant, in bytes."""

    by_category: dict[str, int]
    total: int

    def fraction(self, category: str) -> float:
        """Return the share of ``category`` in the total (0.0 if empty)."""
        if self.total == 0:
            return 0.0
        return self.by_category.get(category, 0) / self.total

    def as_percentages(self) -> dict[str, float]:
        """Return the breakdown as percentages summing to ~100."""
        return {name: 100.0 * self.fraction(name) for name in CATEGORIES}


@dataclass
class _LiveBuffer:
    nbytes: int
    category: str


class MemoryTracker:
    """Tracks live buffer bytes per category and the peak breakdown.

    Instances are cheap; the distributed simulator creates one tracker per
    simulated rank so that per-GPU peaks can be compared (ZeRO shrinks the
    per-rank optimizer-state share, which only a per-rank view can show).
    """

    def __init__(self, name: str = "default") -> None:
        self.name = name
        self._live: dict[int, _LiveBuffer] = {}
        self._current: dict[str, int] = {name: 0 for name in CATEGORIES}
        self._total = 0
        self._peak_total = 0
        self._peak_breakdown: dict[str, int] = dict(self._current)
        # Per-thread category stack: concurrent serving workers annotating
        # allocations must not see each other's ``category(...)`` blocks.
        self._category_local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # category context
    # ------------------------------------------------------------------
    @property
    def _category_stack(self) -> list[str]:
        stack = getattr(self._category_local, "stack", None)
        if stack is None:
            stack = self._category_local.stack = []
        return stack

    @property
    def active_category(self) -> str:
        if self._category_stack:
            return self._category_stack[-1]
        return ACTIVATIONS

    @contextmanager
    def category(self, name: str):
        """Attribute buffers allocated inside the block to ``name``."""
        if name not in CATEGORIES:
            raise ValueError(f"unknown memory category: {name!r}")
        self._category_stack.append(name)
        try:
            yield self
        finally:
            self._category_stack.pop()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, array: np.ndarray, category: str | None = None) -> None:
        """Register a base-owning array as live under ``category``.

        Views and already-registered buffers are ignored, so calling this
        twice on aliases of the same storage cannot double count.  Numpy
        scalars (e.g. the result of adding two 0-d arrays) carry no
        trackable buffer and are skipped.
        """
        if not isinstance(array, np.ndarray) or array.base is not None:
            return
        key = id(array)
        cat = category if category is not None else self.active_category
        if cat not in CATEGORIES:
            raise ValueError(f"unknown memory category: {cat!r}")
        with self._lock:
            if key in self._live:
                return
            nbytes = int(array.nbytes)
            self._live[key] = _LiveBuffer(nbytes, cat)
            self._current[cat] += nbytes
            self._total += nbytes
            if self._total > self._peak_total:
                self._peak_total = self._total
                self._peak_breakdown = dict(self._current)
        weakref.finalize(array, self._release, key)

    def _release(self, key: int) -> None:
        with self._lock:
            buf = self._live.pop(key, None)
            if buf is None:
                return
            self._current[buf.category] -= buf.nbytes
            self._total -= buf.nbytes

    def recategorize(self, array: np.ndarray, category: str) -> None:
        """Move an already-registered buffer to a different category."""
        if category not in CATEGORIES:
            raise ValueError(f"unknown memory category: {category!r}")
        key = id(array)
        with self._lock:
            buf = self._live.get(key)
            if buf is None or buf.category == category:
                return
            self._current[buf.category] -= buf.nbytes
            self._current[category] += buf.nbytes
            buf.category = category

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------
    def snapshot(self) -> MemorySnapshot:
        """Current live bytes per category."""
        with self._lock:
            return MemorySnapshot(dict(self._current), self._total)

    def peak(self) -> MemorySnapshot:
        """Breakdown captured at the moment of highest total usage."""
        with self._lock:
            return MemorySnapshot(dict(self._peak_breakdown), self._peak_total)

    def reset_peak(self) -> None:
        """Forget the recorded peak; current live buffers seed the new one."""
        with self._lock:
            self._peak_total = self._total
            self._peak_breakdown = dict(self._current)

    @property
    def current_total(self) -> int:
        return self._total

    @property
    def peak_total(self) -> int:
        return self._peak_total


# ----------------------------------------------------------------------
# Active-tracker stack.
#
# The engine always registers buffers with the *active* tracker, which by
# default is a process-global one.  The distributed launcher pushes the
# per-rank tracker while executing that rank's share of a step.  The
# stack itself is **thread-local**: every thread starts at the global
# tracker, and a ``use_tracker`` block on one thread is invisible to all
# others — the isolation that lets serving workers (or two simulated
# ranks on two threads) run engine code concurrently.
# ----------------------------------------------------------------------
_GLOBAL_TRACKER = MemoryTracker("global")


class _ContextStacks(threading.local):
    """Per-thread tracker and pool stacks (fresh and empty per thread)."""

    def __init__(self) -> None:
        self.trackers: list[MemoryTracker] = []
        self.pools: list["BufferPool"] = []


_stacks = _ContextStacks()


def active_tracker() -> MemoryTracker:
    """Return the tracker new buffers will be charged to."""
    if _stacks.trackers:
        return _stacks.trackers[-1]
    return _GLOBAL_TRACKER


def global_tracker() -> MemoryTracker:
    return _GLOBAL_TRACKER


@contextmanager
def use_tracker(tracker: MemoryTracker):
    """Charge buffers allocated on this thread inside the block to ``tracker``."""
    _stacks.trackers.append(tracker)
    try:
        yield tracker
    finally:
        _stacks.trackers.pop()


def track_array(array: np.ndarray, category: str | None = None) -> np.ndarray:
    """Register ``array`` with the active tracker and return it."""
    active_tracker().register(array, category)
    return array


@contextmanager
def track_as(category: str):
    """Shorthand for ``active_tracker().category(category)``."""
    with active_tracker().category(category):
        yield


# ----------------------------------------------------------------------
# Buffer pool.
#
# Training allocates the same activation/gradient shapes every step; a
# caching allocator (the CPU analogue of CUDA's) recycles those buffers
# instead of round-tripping through malloc.  The pool keeps a strong
# reference to every buffer it has handed out, bucketed by (shape, dtype).
# A buffer is reusable exactly when nobody *else* references it -- checked
# with ``sys.getrefcount`` at acquire time -- so recycling is automatic at
# step boundaries without an explicit free call: when the previous step's
# autograd graph dies, its buffers become reclaimable.
#
# Pooled buffers stay alive (and therefore stay visible to the active
# MemoryTracker under their original category), which mirrors the
# "reserved memory" semantics of real caching allocators.  The pool is
# opt-in via :func:`use_pool`; memory-profiling code paths leave it off so
# Fig. 6 lifetimes remain exact.
# ----------------------------------------------------------------------

#: Refcount of a bucket entry nobody outside the pool is using:
#: one reference from the bucket list, one from the loop variable, and one
#: from ``sys.getrefcount``'s own argument.
_IDLE_REFCOUNT = 3


@dataclass
class PoolStats:
    """Acquire-time counters: ``hits`` reused a buffer, ``misses`` malloc'd."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        """JSON-ready counters (what serving telemetry reports)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class BufferPool:
    """Shape/dtype-bucketed recycling pool for numpy scratch buffers.

    :meth:`acquire` returns an **uninitialized** array -- callers must
    fully overwrite it (or use :func:`pool_zeros`).  The pool is
    thread-safe: one lock guards the buckets, and the refcount idle test
    cannot hand a buffer to two threads (the first acquirer's reference
    marks it busy before the lock is released), so serving workers share
    one pool.  Retention is bounded
    two ways: at most ``max_per_bucket`` buffers per exact shape, and at
    most ``max_total_bytes`` across all buckets.  Over the byte budget the
    pool first evicts *idle* buffers from other buckets (variable-shape
    workloads -- shuffled batches -- would otherwise accrete dead shapes
    forever); if everything retained is busy, new allocations are simply
    handed out without being retained.
    """

    def __init__(self, max_per_bucket: int = 64, max_total_bytes: int = 256 * 2**20) -> None:
        self.max_per_bucket = int(max_per_bucket)
        self.max_total_bytes = int(max_total_bytes)
        self._buckets: dict[tuple[tuple[int, ...], np.dtype], list[np.ndarray]] = {}
        self._reserved = 0
        self.stats = PoolStats()
        self._lock = threading.Lock()

    def acquire(self, shape, dtype) -> np.ndarray:
        shape = tuple(int(s) for s in (shape if isinstance(shape, (tuple, list)) else (shape,)))
        dtype = np.dtype(dtype)
        key = (shape, dtype)
        with self._lock:
            bucket = self._buckets.get(key)
            if bucket is not None:
                for array in bucket:
                    if sys.getrefcount(array) == _IDLE_REFCOUNT:
                        self.stats.hits += 1
                        return array
            self.stats.misses += 1
            array = np.empty(shape, dtype=dtype)
            if bucket is None:
                bucket = self._buckets[key] = []
            if len(bucket) < self.max_per_bucket:
                if self._reserved + array.nbytes > self.max_total_bytes:
                    self._evict_idle(self._reserved + array.nbytes - self.max_total_bytes, skip=key)
                if self._reserved + array.nbytes <= self.max_total_bytes:
                    bucket.append(array)
                    self._reserved += array.nbytes
            return array

    def _evict_idle(self, bytes_needed: int, skip) -> None:
        """Drop idle retained buffers (stale shapes) to free budget."""
        freed = 0
        for key, bucket in list(self._buckets.items()):
            if key == skip:
                continue
            kept = []
            for array in bucket:
                if freed < bytes_needed and sys.getrefcount(array) == _IDLE_REFCOUNT:
                    freed += array.nbytes
                    self.stats.evictions += 1
                else:
                    kept.append(array)
            if len(kept) != len(bucket):
                self._buckets[key] = kept
            if not kept:
                del self._buckets[key]
        self._reserved -= freed

    def reserved_bytes(self) -> int:
        """Total bytes of all retained buffers (busy and idle)."""
        with self._lock:
            return self._reserved

    def idle_buffers(self) -> int:
        """Number of retained buffers currently reusable."""
        with self._lock:
            return sum(
                1
                for bucket in self._buckets.values()
                for array in bucket
                if sys.getrefcount(array) == _IDLE_REFCOUNT
            )

    def snapshot(self) -> dict[str, float]:
        """One JSON-ready dict of acquire counters plus retention state.

        Serving workers share a single pool across threads; this is the
        per-service telemetry surfaced next to latency/throughput stats.
        """
        stats = self.stats.as_dict()
        stats["reserved_bytes"] = self.reserved_bytes()
        stats["idle_buffers"] = self.idle_buffers()
        return stats

    def clear(self) -> None:
        with self._lock:
            self._buckets.clear()
            self._reserved = 0


def active_pool() -> BufferPool | None:
    """Return the pool scratch allocations recycle through, if any."""
    if _stacks.pools:
        return _stacks.pools[-1]
    return None


@contextmanager
def use_pool(pool: BufferPool | None = None):
    """Route this thread's engine scratch allocations through ``pool``.

    A fresh pool is created when none is given; pass a persistent pool to
    recycle buffers across many steps (what :class:`~repro.train.trainer.Trainer`
    does).  The pool *stack* is thread-local, but a single
    :class:`BufferPool` instance is internally locked, so many threads
    may enter ``use_pool`` on the *same* pool and share its buckets —
    the serving workers' configuration.
    """
    pool = pool if pool is not None else BufferPool()
    _stacks.pools.append(pool)
    try:
        yield pool
    finally:
        _stacks.pools.pop()


def pool_empty(shape, dtype) -> np.ndarray:
    """Uninitialized array from the active pool (plain ``np.empty`` if none)."""
    pool = active_pool()
    if pool is None:
        return np.empty(shape, dtype=dtype)
    return pool.acquire(shape, dtype)


def pool_zeros(shape, dtype) -> np.ndarray:
    """Zeroed array from the active pool (plain ``np.zeros`` if none)."""
    pool = active_pool()
    if pool is None:
        return np.zeros(shape, dtype=dtype)
    array = pool.acquire(shape, dtype)
    array.fill(0)
    return array
