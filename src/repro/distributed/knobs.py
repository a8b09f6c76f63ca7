"""The consolidated simulation-knob bundle shared by every pricing surface.

The 14 scheduler/collective/fault knobs (bucket size, overlap policy,
topology, collective algorithms, chunk pipelining, dedup assumption,
cross-bucket pipelining, scheduler backend and the fault/policy knobs) live
in exactly one place: :class:`SimulationKnobs`.  ``TrainerConfig`` and
``BenchmarkConfig`` hold one as their ``knobs`` field, ``run_benchmark`` and
``compare_compressors`` take one as ``knobs=``, and the sweep grid
(``repro.harness.sweep.SWEEP_KNOBS``) derives its canonical knob order from
:data:`KNOB_FIELDS`, so a knob added here is automatically a sweepable axis.

Validation lives here too.  :func:`validate_knob` holds every per-knob rule;
``SimulationKnobs.__post_init__`` runs it on each field and the sweep runs it
on each axis value, so the two surfaces cannot disagree about a value.
Cross-knob consistency (``backup_workers`` requiring the ``backup-workers``
policy, ...) is checked by ``__post_init__`` on the assembled bundle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from numbers import Integral, Real
from typing import Mapping

from .faults import validate_sync_policy
from .schedule import validate_cross_bucket, validate_overlap, validate_scheduler_backend
from .topology import (
    ClusterTopology,
    SparseAggregateModel,
    get_collective_algorithm,
    get_topology,
    validate_pipeline_chunks,
)

#: Smallest bucket: one fp32 gradient element.
MIN_BUCKET_BYTES = 4


def _require_int(name: str, value, minimum: int) -> None:
    if not isinstance(value, Integral) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an int >= {minimum}, got {value!r}")


def _require_factor(name: str, value) -> None:
    if (
        not isinstance(value, Real)
        or isinstance(value, bool)
        or not math.isfinite(value)
        or value < 1.0
    ):
        raise ValueError(f"{name} must be a finite multiplier >= 1, got {value!r}")


def validate_knob(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is a valid setting of knob ``name``.

    The single per-knob rule set: :class:`SimulationKnobs` applies it to every
    field and the sweep to every axis value.
    """
    if name == "bucket_bytes":
        if value is not None:
            _require_int(name, value, MIN_BUCKET_BYTES)
    elif name == "overlap":
        validate_overlap(value)
    elif name == "topology":
        if isinstance(value, str):
            get_topology(value)  # fail fast on unknown preset names
        elif value is not None and not isinstance(value, ClusterTopology):
            raise ValueError(
                f"topology must be a preset name, a ClusterTopology or None, got {value!r}"
            )
    elif name in ("allreduce_algorithm", "allgather_algorithm"):
        if not isinstance(value, str):
            raise ValueError(f"{name} must be an algorithm name, got {value!r}")
        get_collective_algorithm(value, op=name.split("_")[0])
    elif name == "pipeline_chunks":
        validate_pipeline_chunks(value)
    elif name == "dedup_assumption":
        if value is not None:
            SparseAggregateModel(value)  # fail fast on unknown assumptions
    elif name == "cross_bucket_pipeline":
        validate_cross_bucket(value)
    elif name == "scheduler_backend":
        validate_scheduler_backend(value)
    elif name == "sync_policy":
        validate_sync_policy(value)
    elif name == "backup_workers":
        _require_int(name, value, 0)
    elif name == "time_window_factor":
        if value is not None:
            _require_factor(name, value)
    elif name in ("straggler_severity", "link_degradation"):
        _require_factor(name, value)
    else:
        raise ValueError(f"unknown knob {name!r}; known: {list(KNOB_FIELDS)}")


@dataclass(frozen=True)
class SimulationKnobs:
    """Every knob that shapes how one training iteration is priced.

    Field order is load-bearing: it is the canonical knob order of the sweep
    grid (the collective/scheduler knobs first, the fault/policy knobs
    appended), so adding a field at the end extends the grid without re-keying
    any existing sweep point.
    """

    #: Bytes per gradient bucket (``None`` = one fused buffer, no bucketing).
    bucket_bytes: int | None = None
    #: Overlap policy of the event-driven schedule (see ``schedule.py``).
    overlap: str = "none"
    #: Cluster topology: preset name, explicit ``ClusterTopology``, or ``None``
    #: for the degenerate single-level topology over the caller's network.
    topology: object = None
    #: Collective algorithm pricing the dense baseline all-reduce.
    allreduce_algorithm: str = "ring-allreduce"
    #: Collective algorithm pricing the sparse all-gather.
    allgather_algorithm: str = "flat-allgather"
    #: Payload chunks hierarchical collective phases pipeline over.
    pipeline_chunks: int = 1
    #: Index-overlap assumption for per-node sparse dedup, or ``None``.
    dedup_assumption: str | None = None
    #: Schedule buckets on per-link network lanes (cross-bucket pipelining).
    cross_bucket_pipeline: bool = False
    #: Scheduler implementation: ``"loop"`` or ``"vectorized"``.
    scheduler_backend: str = "loop"
    #: Synchronization policy under faults: ``"full-sync"``,
    #: ``"backup-workers"`` or ``"time-window"`` (see ``faults.py``).
    sync_policy: str = "full-sync"
    #: Slowest workers the ``backup-workers`` policy cuts per iteration.
    backup_workers: int = 0
    #: ``time-window`` accumulation window as a multiple of the fastest
    #: worker's finish time (``None`` = the policy default when selected).
    time_window_factor: float | None = None
    #: Deterministic compute slowdown (>= 1) of the designated straggler
    #: (worker 0); 1.0 = homogeneous cluster.
    straggler_severity: float = 1.0
    #: Deterministic link-time multiplier (>= 1) of the designated straggler
    #: (worker 0); 1.0 = clean links.
    link_degradation: float = 1.0

    def __post_init__(self) -> None:
        for name in KNOB_FIELDS:
            validate_knob(name, getattr(self, name))
        if self.backup_workers > 0 and self.sync_policy != "backup-workers":
            raise ValueError(
                "backup_workers > 0 requires sync_policy='backup-workers', "
                f"got {self.sync_policy!r}"
            )
        if self.time_window_factor is not None and self.sync_policy != "time-window":
            raise ValueError(
                "time_window_factor requires sync_policy='time-window', "
                f"got {self.sync_policy!r}"
            )

    @property
    def faulted(self) -> bool:
        """True when any fault/policy knob departs from the clean-cluster default."""
        return faults_active(self.as_dict())

    def replace(self, **overrides) -> "SimulationKnobs":
        """A copy with ``overrides`` applied (re-validated)."""
        return replace(self, **overrides)

    def as_dict(self) -> dict:
        """Field name -> value, in canonical knob order."""
        return {name: getattr(self, name) for name in KNOB_FIELDS}


#: Canonical knob order — the single source the sweep grid derives from.
KNOB_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(SimulationKnobs))

#: The fault/policy knobs; pricing goes through the fault layer only when
#: one of them leaves its default.
FAULT_KNOBS: tuple[str, ...] = (
    "sync_policy",
    "backup_workers",
    "time_window_factor",
    "straggler_severity",
    "link_degradation",
)


def knob_defaults() -> dict:
    """Field name -> default, in canonical knob order."""
    return {f.name: f.default for f in fields(SimulationKnobs)}


_CLEAN_FAULTS: dict = {name: knob_defaults()[name] for name in FAULT_KNOBS}


def faults_active(config: Mapping) -> bool:
    """True when any fault/policy knob in ``config`` departs from its default."""
    return any(config[name] != clean for name, clean in _CLEAN_FAULTS.items())
