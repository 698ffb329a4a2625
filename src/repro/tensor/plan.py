"""Traced inference execution plans: compile one forward per shape bucket.

The ``no_grad`` fast path skips autograd ``Function`` nodes but still
pays full Python dispatch on every served forward: a ``Tensor`` wrapper
and module call per op.  For a serving replica answering the same
*shapes* of traffic all day, that cost should be paid once per shape
bucket, not per request.

This module is the tracing compiler that makes it so:

- **Trace.**  :func:`compile_plan` runs the model's own array program,
  ``model.run(*model.inputs(batch))``, once under ``no_grad`` with
  every array of ``model.inputs`` bound as a named input.  The engine's
  per-thread tracer hook
  (:func:`repro.tensor.core.tracing`) hands every op to
  :meth:`PlanTracer.record`, which resolves each argument to a *slot*
  (a previous step's output), a *named input* (a batch-derived array
  ``model.inputs`` recomputes per replay), or a *baked constant* (model
  parameters, scalar coercions).  Each op is frozen to its ``infer``,
  the same callable the traced forward ran.
- **Scratch.**  A replay draws its scratch from whatever
  :class:`~repro.tensor.allocator.BufferPool` the caller has active (the
  service's shared pool for a served forward; plain ``np.empty`` with
  none).  The generated function deletes each value right after its
  last read, so the pool's refcount idle test recycles scratch by
  liveness — no schedule, no second allocator.
- **Replay.**  :meth:`ExecutionPlan.replay` takes a new batch's
  ``model.inputs`` (the prologue the unplanned forward runs too) and
  runs the step list as generated straight-line code over raw ndarrays:
  no ``Tensor`` objects, no module calls.  The first
  replay is verified bit-identical to the traced forward before the plan
  is admitted.

Safety rails, because a wrong plan is worse than a slow one:

- Any *unknown* array the tracer meets whose leading dimension matches
  the trace batch's node or edge count raises :class:`PlanTraceError` —
  a batch-dependent value almost slipped in as a constant.  Model code
  computes such arrays in its ``inputs`` instead.
- Symbolic segment counts: a ``num_segments`` kwarg is bound to the dim
  that ``model.INDEX_DIMS`` declares for the index input it reduces by,
  so replays with a different atom count in the same bucket reduce into
  the right number of rows.  A count with no declared dim refuses the
  trace rather than being guessed from its value.
- :class:`PlanCache` keys plans on power-of-two buckets of ``(nodes,
  edges, graphs)``, watches parameter storage identity (a rebound
  parameter array drops every plan), and falls back to the unplanned
  path — permanently, per key — whenever compilation refuses.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.tensor.core import no_grad, tracing


class PlanTraceError(RuntimeError):
    """A forward could not be captured as a safely replayable plan."""


def bucket(n: int) -> int:
    """Round ``n`` up to a power of two (0 stays 0) — the shape coarsening."""
    n = int(n)
    if n <= 0:
        return 0
    return 1 << (n - 1).bit_length()


# Argument-reference kinds inside a recorded step.
_CONST = 0  # payload is the literal value (parameter array, scalar, int)
_SLOT = 1  # payload is a slot index into the replay's value table
_DIM = 2  # payload is a named batch dimension ("num_nodes", "num_graphs")


class _Step:
    """One replayable op: a frozen callable plus resolved argument refs."""

    __slots__ = ("fn", "args", "kwargs", "out", "label")

    def __init__(self, fn, args, kwargs, out, label):
        self.fn = fn
        self.args = args  # tuple[(kind, payload), ...]
        self.kwargs = kwargs  # dict[str, (kind, payload)]
        self.out = out  # output slot index
        self.label = label  # the op's class name — introspection only


class PlanTracer:
    """Records one ``no_grad`` forward as a slot program.

    Installed via :func:`repro.tensor.core.tracing`; ``record`` is
    called by ``Function.apply`` in place of ``cls.infer``.  Holds a
    strong reference to every array it has mapped so ``id``-keyed slot
    resolution can never be confused by CPython reusing a freed object's
    address mid-trace.
    """

    def __init__(
        self,
        dims: dict[str, int],
        guard_dims: tuple[int, ...],
        constants: list[np.ndarray],
    ) -> None:
        self.dims = dict(dims)
        self._guard = {int(v) for v in guard_dims if int(v) > 0}
        self._slot_of: dict[int, int] = {}
        self._dim_for_slot: dict[int, str] = {}
        self._known_constants = {id(array) for array in constants}
        self._live: list = list(constants)
        self.steps: list[_Step] = []
        self.inputs: dict[str, int] = {}
        self.outputs: dict[str, int] = {}
        self.num_slots = 0

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------
    def bind(self, name: str, array: np.ndarray, dim: str | None = None) -> None:
        """Register a named per-batch input array (optionally tracking ``dim``)."""
        slot = self.num_slots
        self.num_slots += 1
        self.inputs[name] = slot
        self._slot_of[id(array)] = slot
        self._live.append(array)
        if dim is not None:
            self._dim_for_slot[slot] = dim

    def mark_output(self, name: str, array: np.ndarray) -> None:
        slot = self._slot_of.get(id(array))
        if slot is None:
            raise PlanTraceError(f"output {name!r} is not a traced value")
        self.outputs[name] = slot

    # ------------------------------------------------------------------
    # recording (called from Function.apply)
    # ------------------------------------------------------------------
    def record(self, cls, arrays: tuple, kwargs: dict) -> np.ndarray:
        args = tuple(self._ref(array) for array in arrays)
        kw = {key: self._kwarg_ref(key, value, kwargs) for key, value in kwargs.items()}
        out = cls.infer(*arrays, **kwargs)
        if not isinstance(out, np.ndarray):
            out = np.asarray(out)
        slot = self.num_slots
        self.num_slots += 1
        self._slot_of[id(out)] = slot
        self._live.append(out)
        self.steps.append(_Step(cls.infer, args, kw, slot, cls.__name__))
        return out

    def _ref(self, value):
        if isinstance(value, np.ndarray):
            slot = self._slot_of.get(id(value))
            if slot is not None:
                return (_SLOT, slot)
            self._check_bakeable(value)
            self._live.append(value)
        return (_CONST, value)

    def _check_bakeable(self, array: np.ndarray) -> None:
        """Refuse to bake an unknown array shaped like the batch."""
        if id(array) in self._known_constants or array.ndim == 0:
            return
        if array.shape[0] in self._guard:
            raise PlanTraceError(
                f"op captured an unregistered array of batch-shaped {array.shape}; "
                "it must be a named plan input, not a baked constant"
            )

    def _kwarg_ref(self, key: str, value, kwargs: dict):
        if isinstance(value, np.ndarray):
            return self._ref(value)
        if key == "num_segments":
            # Only the dim its index input was bound with: a match by
            # value could name the wrong dim, and the replay check, which
            # replays the trace batch itself, would not see it.
            dim = self._dim_for_slot.get(self._slot_of.get(id(kwargs.get("segments"))))
            if dim is None or self.dims.get(dim) != value:
                raise PlanTraceError(
                    f"segment count {value} is not the declared dim of its index input"
                )
            return (_DIM, dim)
        return (_CONST, value)


class ExecutionPlan:
    """A frozen kernel program for one (model, shape-bucket)."""

    def __init__(
        self,
        steps: list[_Step],
        num_slots: int,
        input_slots: dict[str, int],
        output_slots: dict[str, int],
        key: tuple,
    ) -> None:
        self.steps = steps
        self.num_slots = num_slots
        self.input_slots = input_slots
        self.output_slots = output_slots
        self.key = key
        self._compile_replay()

    def __len__(self) -> int:
        return len(self.steps)

    def labels(self) -> list[str]:
        """Step labels in program order (introspection and tests)."""
        return [step.label for step in self.steps]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _compile_replay(self) -> None:
        """Generate the replay function as straight-line Python source.

        Interpreting the step list costs a few microseconds of ref
        resolution per step — real money against sub-millisecond
        forwards.  Generating one function with one call per step
        (``v12 = fns[7](v5, v9, num_segments=num_nodes)``) leaves only
        the frozen callables themselves between the input arrays and the
        outputs.  Every non-output value is ``del``-ed right after its
        last read, so its buffer is idle in the caller's pool (the
        refcount test in :meth:`~repro.tensor.allocator.BufferPool.acquire`)
        before the next step asks for scratch.  The source is kept on
        ``self.source`` for inspection.
        """
        consts: list = []

        def expr(ref) -> str:
            kind, payload = ref
            if kind == _SLOT:
                return f"v{payload}"
            if kind == _DIM:
                return payload
            consts.append(payload)
            return f"consts[{len(consts) - 1}]"

        # Index of the step that last reads each value: -1 (the prologue)
        # for an input nothing reads, the defining step for a step output
        # nothing reads.
        last_read = [-1] * self.num_slots
        for index, step in enumerate(self.steps):
            last_read[step.out] = index
            for kind, payload in (*step.args, *step.kwargs.values()):
                if kind == _SLOT:
                    last_read[payload] = index
        outputs = set(self.output_slots.values())
        dead_after: dict[int, list[str]] = {}
        for slot, index in enumerate(last_read):
            if slot not in outputs:
                dead_after.setdefault(index, []).append(f"v{slot}")

        lines = ["def _replay(inputs, dims, fns, consts):"]

        def release(index: int) -> None:
            if index in dead_after:
                lines.append(f"    del {', '.join(dead_after[index])}")

        for name in sorted(self.dims_used()):
            lines.append(f"    {name} = dims[{name!r}]")
        for name, slot in self.input_slots.items():
            lines.append(f"    v{slot} = inputs[{name!r}]")
        release(-1)
        for index, step in enumerate(self.steps):
            parts = [expr(ref) for ref in step.args]
            parts += [f"{key}={expr(ref)}" for key, ref in step.kwargs.items()]
            lines.append(f"    v{step.out} = fns[{index}]({', '.join(parts)})")
            release(index)
        result = ", ".join(
            f"{name!r}: v{slot}" for name, slot in self.output_slots.items()
        )
        lines.append(f"    return {{{result}}}")
        self.source = "\n".join(lines)
        namespace: dict = {}
        exec(compile(self.source, "<execution-plan>", "exec"), {}, namespace)  # noqa: S102
        self._consts = consts
        self._fns = [step.fn for step in self.steps]
        self._replay_fn = namespace["_replay"]

    def dims_used(self) -> set[str]:
        """Symbolic dimension names any step resolves at replay time."""
        used: set[str] = set()
        for step in self.steps:
            for kind, payload in list(step.args) + list(step.kwargs.values()):
                if kind == _DIM:
                    used.add(payload)
        return used

    def replay(
        self, inputs: dict[str, np.ndarray], dims: dict[str, int]
    ) -> dict[str, np.ndarray]:
        """Execute the plan on a new batch's prologue arrays.

        Scratch comes from the caller's active pool (plain ``np.empty``
        with none), so the plan holds no per-replay state and concurrent
        replays need no lease.  The outputs are copies, so results a
        caller keeps (a result cache) never pin pool buffers.
        """
        outputs = self._replay_fn(inputs, dims, self._fns, self._consts)
        return {name: np.array(value) for name, value in outputs.items()}


def compile_plan(model, batch) -> tuple[ExecutionPlan, dict[str, np.ndarray]]:
    """Trace ``model.run`` over ``model.inputs(batch)`` into an :class:`ExecutionPlan`.

    ``model.inputs(batch)`` returns ``(arrays, dims)``: the batch-derived
    arrays, each bound as a named plan input, and the symbolic dims.
    ``model.INDEX_DIMS`` names the dim each index input counts into.
    ``model.run(arrays, dims)`` returns the outputs by name.

    Returns ``(plan, outputs)`` where ``outputs`` are the verified
    replay results for ``batch`` itself — compilation *is* this batch's
    forward.  A cold bucket therefore pays two forward executions: the
    traced forward and the generated replay, which must reproduce the
    trace bit-exactly before the plan is admitted.

    Raises :class:`PlanTraceError` when the forward cannot be captured
    (activation checkpointing, a batch-shaped array the tracer cannot
    account for, a segment count no index input declares, or a replay
    that fails bit-exact verification).
    """
    if model.config.checkpoint_activations:
        raise PlanTraceError("activation checkpointing has no replayable inference path")

    arrays, dims = model.inputs(batch)
    tracer = PlanTracer(
        dims=dims,
        guard_dims=(batch.num_nodes, batch.num_edges, batch.num_graphs),
        constants=[parameter.data for parameter in model.parameters()],
    )
    for name, array in arrays.items():
        tracer.bind(name, array, dim=model.INDEX_DIMS.get(name))
    with no_grad(), tracing(tracer):
        traced = {name: tensor.data for name, tensor in model.run(arrays, dims).items()}
    for name, array in traced.items():
        tracer.mark_output(name, array)

    plan = ExecutionPlan(
        steps=tracer.steps,
        num_slots=tracer.num_slots,
        input_slots=tracer.inputs,
        output_slots=tracer.outputs,
        key=plan_key(batch),
    )
    # The gate: the production path — the generated function, drawing
    # scratch from the caller's pool like every later replay — must
    # reproduce the traced forward bit for bit.
    outputs = plan.replay(arrays, dims)
    for name, array in traced.items():
        if not np.array_equal(outputs[name], array):
            raise PlanTraceError(
                f"generated replay of {name!r} diverged from the traced forward"
            )
    return plan, outputs


def plan_key(batch) -> tuple[int, int, int]:
    """The cache key: power-of-two buckets of (nodes, edges, graphs).

    Bucketing bounds how many plans a model compiles.
    """
    return bucket(batch.num_nodes), bucket(batch.num_edges), bucket(batch.num_graphs)


# ----------------------------------------------------------------------
# the per-model cache
# ----------------------------------------------------------------------
@dataclass
class PlanStats:
    """Counters surfaced through serving telemetry and ``/v1/stats``."""

    compiled: int = 0
    hits: int = 0
    misses: int = 0
    fallbacks: int = 0

    def as_dict(self) -> dict[str, float]:
        served = self.hits + self.misses
        return {
            "plans_compiled": self.compiled,
            "plan_hits": self.hits,
            "plan_misses": self.misses,
            "plan_fallbacks": self.fallbacks,
            "plan_hit_rate": self.hits / served if served else 0.0,
        }


#: Cache marker for buckets whose compilation refused: stay unplanned.
_FALLBACK = object()


class PlanCache:
    """Thread-safe per-model cache of compiled execution plans.

    Owned by :class:`~repro.models.hydra.HydraModel`; ``run`` is the
    single entry point the model's ``predict``/``serve`` consult.  A
    compile race between two serving workers is benign — both compile,
    the first insert wins, the loser's plan is discarded (its outputs
    are still used for the request that triggered it).
    """

    def __init__(self, model) -> None:
        self._model = model
        self._plans: dict[tuple, object] = {}
        self._lock = threading.Lock()
        self._parameters: list | None = None  # traversal cached; model is fixed
        self._param_ids: tuple[int, ...] | None = None
        self.stats = PlanStats()

    def __len__(self) -> int:
        with self._lock:
            return sum(1 for plan in self._plans.values() if plan is not _FALLBACK)

    def invalidate(self) -> None:
        """Drop every plan (and fallback marker); next forwards recompile."""
        with self._lock:
            self._plans.clear()
            self._param_ids = None

    def telemetry(self) -> dict[str, float]:
        payload = self.stats.as_dict()
        payload["cached_plans"] = len(self)
        return payload

    def run(self, batch) -> dict[str, np.ndarray] | None:
        """Planned outputs for ``batch``, or ``None`` → run unplanned."""
        key = plan_key(batch)
        parameters = self._parameters
        if parameters is None:
            parameters = self._parameters = self._model.parameters()
        ids = tuple(id(parameter.data) for parameter in parameters)
        # One locked section on the hot path: the parameter-rebind check
        # (optimizers update in place, which baked references track for
        # free; a rebound ``parameter.data`` drops every plan), the plan
        # lookup, and the counter for whichever outcome this is.
        with self._lock:
            if self._param_ids is None:
                self._param_ids = ids
            elif ids != self._param_ids:
                self._plans.clear()
                self._param_ids = ids
            plan = self._plans.get(key)
            if plan is _FALLBACK:
                self.stats.fallbacks += 1
            elif plan is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
        if plan is _FALLBACK:
            return None
        if plan is None:
            try:
                compiled, outputs = compile_plan(self._model, batch)
            except PlanTraceError:
                with self._lock:
                    self.stats.fallbacks += 1
                    self._plans.setdefault(key, _FALLBACK)
                return None
            with self._lock:
                self.stats.compiled += 1
                if self._plans.get(key) in (None, _FALLBACK):
                    self._plans[key] = compiled
            return outputs
        return plan.replay(*self._model.inputs(batch))
