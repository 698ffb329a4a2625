"""Batched inference serving on the no-grad fast path.

Structure-hash result cache → dynamic micro-batcher → fused
``HydraModel.serve`` forward, with a named-model registry and
latency/throughput telemetry.  See :mod:`repro.serving.service` for the
data flow.  :mod:`repro.serving.replicas` scales it past one process:
a fork+exec replica supervisor and the :mod:`~repro.serving.router`
that load-balances ``/v1/predict`` across the fleet.
"""

from repro.serving.admission import (
    BROWNOUT_STATES,
    AdmissionConfig,
    AdmissionController,
    AdmissionLease,
    BrownoutController,
    BrownoutShed,
    QuotaExceeded,
    TokenBucket,
    merge_admission_telemetry,
    retry_after_header,
)
from repro.serving.batcher import (
    DEFAULT_LANE,
    FLUSH_ATOMS,
    FLUSH_GRAPHS,
    FLUSH_WORKER,
    LANE_WEIGHTS,
    LANES,
    DeadlineExceeded,
    MicroBatcher,
    ServeRequest,
    ServiceOverloaded,
)
from repro.serving.cache import CacheStats, ResultCache
from repro.serving.faults import FaultPlan, FaultSpecError
from repro.serving.hashing import structure_hash
from repro.serving.md import (
    ATOMIC_MASSES,
    MAX_MD_STEPS,
    MD_THERMOSTATS,
    MDDiverged,
    MDFrame,
    MDResult,
    MDSession,
    MDSettings,
    atomic_masses,
    maxwell_boltzmann_velocities,
    run_md,
)
from repro.serving.registry import ModelRegistry, RegistryEntry
from repro.serving.relax import (
    MAX_RELAX_STEPS,
    RelaxResult,
    RelaxSettings,
    TrajectorySession,
    relax_positions,
)
from repro.serving.replicas import ReplicaSpec, ReplicaStartupError, ReplicaSupervisor
from repro.serving.router import Router, aggregate_model_telemetry
from repro.serving.service import PredictionResult, PredictionService, ServiceConfig
from repro.serving.stats import ServingStats, StatsSummary, percentile

__all__ = [
    "ATOMIC_MASSES",
    "BROWNOUT_STATES",
    "DEFAULT_LANE",
    "FLUSH_ATOMS",
    "FLUSH_GRAPHS",
    "FLUSH_WORKER",
    "LANES",
    "LANE_WEIGHTS",
    "MAX_MD_STEPS",
    "MAX_RELAX_STEPS",
    "MD_THERMOSTATS",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionLease",
    "BrownoutController",
    "BrownoutShed",
    "CacheStats",
    "DeadlineExceeded",
    "FaultPlan",
    "FaultSpecError",
    "MDDiverged",
    "MDFrame",
    "MDResult",
    "MDSession",
    "MDSettings",
    "MicroBatcher",
    "ModelRegistry",
    "PredictionResult",
    "PredictionService",
    "QuotaExceeded",
    "RegistryEntry",
    "RelaxResult",
    "RelaxSettings",
    "ReplicaSpec",
    "ReplicaStartupError",
    "ReplicaSupervisor",
    "ResultCache",
    "Router",
    "ServeRequest",
    "ServiceConfig",
    "ServiceOverloaded",
    "ServingStats",
    "StatsSummary",
    "TokenBucket",
    "TrajectorySession",
    "aggregate_model_telemetry",
    "atomic_masses",
    "maxwell_boltzmann_velocities",
    "merge_admission_telemetry",
    "percentile",
    "relax_positions",
    "retry_after_header",
    "run_md",
    "structure_hash",
]
