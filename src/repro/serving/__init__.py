"""Batched inference serving on the no-grad fast path.

Structure-hash result cache → dynamic micro-batcher → fused
``HydraModel.serve`` forward, with a named-model registry and
latency/throughput telemetry.  See :mod:`repro.serving.service` for the
data flow.  :mod:`repro.serving.replicas` scales it past one process:
a fork+exec replica supervisor and the :mod:`~repro.serving.router`
that load-balances ``/v1/predict`` across the fleet.

The exports below are lazy (PEP 562): ``from repro.serving import X``
imports only the submodule that defines ``X``.  Importing any submodule
runs this file first, and the supervisor and router of a ``--replicas``
fleet import only the standard library, :mod:`repro.wire`,
:mod:`~repro.serving.telemetry` and :mod:`~repro.serving.faults` — an
eager import of the service here would load numpy and scipy into a
process that never runs a forward, and delay every replica it spawns.
Submodules therefore import each other by module path, never through
this package.
"""

from importlib import import_module

#: Public name → the submodule that defines it.
_EXPORTS = {
    "admission": (
        "BROWNOUT_STATES",
        "AdmissionConfig",
        "AdmissionController",
        "AdmissionLease",
        "BrownoutController",
        "BrownoutShed",
        "QuotaExceeded",
        "TokenBucket",
        "merge_admission_telemetry",
        "retry_after_header",
    ),
    "batcher": (
        "DEFAULT_LANE",
        "FLUSH_ATOMS",
        "FLUSH_GRAPHS",
        "FLUSH_WORKER",
        "LANE_WEIGHTS",
        "LANES",
        "DeadlineExceeded",
        "MicroBatcher",
        "ServeRequest",
        "ServiceOverloaded",
    ),
    "cache": ("CacheStats", "ResultCache"),
    "faults": ("FaultPlan", "FaultSpecError"),
    "hashing": ("structure_hash",),
    "md": (
        "ATOMIC_MASSES",
        "MAX_MD_STEPS",
        "MD_THERMOSTATS",
        "MDDiverged",
        "MDFrame",
        "MDResult",
        "MDSession",
        "MDSettings",
        "atomic_masses",
        "maxwell_boltzmann_velocities",
        "run_md",
    ),
    "registry": ("ModelRegistry", "RegistryEntry"),
    "relax": (
        "MAX_RELAX_STEPS",
        "RelaxResult",
        "RelaxSettings",
        "TrajectorySession",
        "relax_positions",
    ),
    "replicas": ("ReplicaSpec", "ReplicaStartupError", "ReplicaSupervisor"),
    "router": ("Router", "aggregate_model_telemetry"),
    "service": ("PredictionResult", "PredictionService", "ServiceConfig"),
    "stats": ("ServingStats", "StatsSummary", "percentile"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value
