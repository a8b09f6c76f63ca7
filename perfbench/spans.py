"""Layer attribution for the traced benchmark run.

The traced run wraps the public entry point of each layer of the ``repro``
package from outside: every wrapper replaces the name its callers look up
(a class attribute, or a function as imported into the calling module), so
``src/`` is never edited.  A wrapper opens a span on entry and closes it on
exit; spans carry a name, CPU start/end (``time.process_time_ns``), the
parent span and the op they belong to, and are kept in memory until the run
writes them out.

A layer's *self* time is its span's CPU time minus the time its child spans
cover.  Every op runs under a root span; the root's self time is the CPU the
op spent outside every wrapped layer and is reported as ``unattributed``, so
the layer self times plus ``unattributed`` add up to the traced op CPU.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from dataclasses import dataclass
from time import process_time_ns
from typing import Callable

#: Layers in reporting order; each maps onto one module of the ``repro``
#: package.  ``trainer`` is the orchestration in ``DistributedTrainer.run``.
LAYERS: tuple[str, ...] = (
    "trainer",
    "nn",
    "optim",
    "compressors",
    "pipeline",
    "collectives",
    "topology",
    "schedule",
    "timeline",
    "faults",
    "sweep",
    "tuner",
)

ROOT = "op"


@dataclass(frozen=True)
class Target:
    """One wrapped name: ``owner.attr`` is replaced by a span-opening wrapper.

    ``label`` (optional) names a sub-account of the layer from the call's
    arguments, e.g. the compressor a call belongs to; nested spans of the same
    layer inherit the outermost label.  ``count`` (optional) returns counter
    increments from the call's arguments and result.  ``tag`` (optional)
    returns a key every span nested in this call is also accounted under,
    e.g. the sweep point being evaluated.
    """

    owner: object
    attr: str
    layer: str
    label: Callable | None = None
    count: Callable | None = None
    tag: Callable | None = None


class Tracer:
    """Span stack, per-layer self-time accounts and counters of one run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id, op)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.tag_self_ns: dict[tuple, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.tag_counts: dict[tuple, float] = defaultdict(float)
        self.op_ns: int = 0
        self.ops: int = 0
        self.gc_ns: int = 0
        self._stack: list[list] = []  # [id, name, layer, start_ns, child_ns, label, tag]
        self._active: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._op = -1
        self._gc_start = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str, layer: str, label, tag) -> None:
        top = self._stack[-1]
        if label is None and top[2] == layer:
            label = top[5]
        if tag is None:
            tag = top[6]
        self._active[layer] += 1
        self._stack.append([self._next_id, name, layer, process_time_ns(), 0, label, tag])
        self._next_id += 1

    def _exit(self) -> None:
        end = process_time_ns()
        span_id, name, layer, start, child_ns, label, tag = self._stack.pop()
        self._active[layer] -= 1
        duration = end - start
        own = duration - child_ns
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += duration
        self.spans.append((span_id, name, start, end, parent[0] if parent else None, self._op))
        if layer == ROOT:
            self.op_ns += duration
            self.self_ns["unattributed"] += own
            return
        self.self_ns[layer] += own
        if label is not None:
            self.self_ns[f"{layer}.{label}"] += own
        if tag is not None:
            self.tag_self_ns[(layer, tag)] += own

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._stack.append([self._next_id, ROOT, ROOT, process_time_ns(), 0, None, None])
        self._next_id += 1

    def end_op(self) -> None:
        self._exit()
        self.ops += 1

    def active(self, layer: str) -> bool:
        """True while a span of ``layer`` is open."""
        return self._active[layer] > 0

    def add(self, counter: str, amount: float = 1.0) -> None:
        self.counts[counter] += amount
        tag = self._stack[-1][6] if self._stack else None
        if tag is not None:
            self.tag_counts[(counter, tag)] += amount

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, target: Target, original):
        name = f"{target.layer}.{getattr(original, '__qualname__', target.attr)}"
        layer, label, count, tag = target.layer, target.label, target.count, target.tag

        def traced(*args, **kwargs):
            if not self._stack:  # outside an op: run untraced
                return original(*args, **kwargs)
            self._enter(
                name,
                layer,
                label(args) if label is not None else None,
                tag(args, kwargs) if tag is not None else None,
            )
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit()
            if count is not None:
                for counter, amount in count(self, args, kwargs, result).items():
                    self.add(counter, amount)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self, targets: list[Target]) -> None:
        """Replace every target name with its wrapper (undo with :meth:`uninstall`)."""
        if self._patches:
            raise RuntimeError("tracer wrappers are already installed")
        for target in targets:
            original = getattr(target.owner, target.attr)
            self._patches.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self._wrap(target, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_start = process_time_ns()
        elif self._stack:
            self.gc_ns += process_time_ns() - self._gc_start


def _gradient_elements(tracer: Tracer, args, _kwargs, _result) -> dict:
    """Elements entering the compressors layer (outermost compressor calls only)."""
    if tracer.active("compressors"):
        return {}
    return {"compressors.elements": float(getattr(args[1], "size", 0))}


def _fit_outcome(tracer: Tracer, args, kwargs, result) -> dict:
    counts = {"pipeline.fit_calls": 1.0, "pipeline.fits": float(result is not None)}
    counts.update(_gradient_elements(tracer, args, kwargs, result))
    return counts


def _schedule_buckets(_tracer: Tracer, args, kwargs, _result) -> dict:
    tasks = kwargs.get("ready_seconds", kwargs.get("tasks", args[0] if args else ()))
    return {"schedule.buckets": float(len(tasks))}


def _timeline_reprice(tracer: Tracer, _args, _kwargs, _result) -> dict:
    return {"faults.reprices": 1.0} if tracer.active("faults") else {}


#: Fault/policy knobs; a sweep point is faulted when any leaves its default.
_FAULT_KNOBS = ("sync_policy", "backup_workers", "time_window_factor", "straggler_severity",
                "link_degradation")


def _point_counter(defaults: dict):
    """Counts evaluated sweep points, and the faulted ones among them."""
    clean = {knob: defaults[knob] for knob in _FAULT_KNOBS}

    def count(_tracer: Tracer, args, kwargs, _result) -> dict:
        config = (args[1] if len(args) > 1 else kwargs["point"]).config
        faulted = any(config[knob] != value for knob, value in clean.items())
        return {"sweep.points": 1.0, "faults.points": float(faulted)}

    return count


def _point_key(args, kwargs):
    point = args[1] if len(args) > 1 else kwargs["point"]
    return point.key


def layer_targets() -> list[Target]:
    """Every wrapped entry point of the ``repro`` layers, by layer.

    Functions are wrapped where their callers look them up (e.g.
    ``simulate_iteration_arrays`` as imported into ``repro.distributed.timeline``),
    methods on their defining class.
    """
    import repro.distributed.timeline as timeline_mod
    import repro.distributed.trainer as trainer_mod
    import repro.distributed.worker as worker_mod
    import repro.harness.sweep as sweep_mod
    import repro.harness.tuner as tuner_mod
    import repro.pipeline.pipeline as pipeline_mod
    from repro.compressors.base import Compressor
    from repro.compressors.registry import available_compressors
    from repro.distributed.knobs import knob_defaults
    from repro.distributed.topology import CollectiveModel
    from repro.optim.error_feedback import ErrorFeedback
    from repro.optim.sgd import SGD
    from repro.pipeline import CompressionPipeline

    available_compressors()  # the registry import loads every compressor class
    points = _point_counter(knob_defaults())
    targets = [
        Target(trainer_mod.DistributedTrainer, "run", "trainer"),
        Target(
            worker_mod.Worker,
            "compute_gradient",
            "nn",
            count=lambda *_: {"nn.calls": 1.0},
        ),
        Target(worker_mod, "clip_flat_by_norm", "optim"),
        Target(ErrorFeedback, "correct", "optim"),
        Target(ErrorFeedback, "update", "optim"),
        Target(SGD, "step", "optim"),
        Target(CompressionPipeline, "compress", "pipeline"),
        Target(pipeline_mod, "estimate_multi_stage", "compressors"),
        Target(trainer_mod, "allgather_sparse", "collectives"),
        Target(trainer_mod, "allreduce_dense", "collectives"),
        Target(timeline_mod, "simulate_iteration", "schedule", count=_schedule_buckets),
        Target(timeline_mod, "simulate_iteration_arrays", "schedule", count=_schedule_buckets),
        Target(timeline_mod.TimelineModel, "compressed_iteration", "timeline", count=_timeline_reprice),
        Target(timeline_mod.TimelineModel, "baseline_iteration", "timeline", count=_timeline_reprice),
        Target(trainer_mod, "price_iteration", "faults"),
        Target(sweep_mod, "price_iteration", "faults"),
        Target(sweep_mod, "run_sweep", "sweep"),
        Target(tuner_mod, "run_sweep", "sweep"),
        Target(sweep_mod, "evaluate_point", "sweep", count=points, tag=_point_key),
        Target(tuner_mod, "evaluate_point", "sweep", count=points, tag=_point_key),
        Target(
            tuner_mod,
            "autotune",
            "tuner",
            count=lambda _t, _a, _k, result: {"tuner.points": float(result.queries)},
        ),
    ]
    for attr in ("allreduce_cost", "allgather_cost", "allgather_phase_table"):
        targets.append(
            Target(CollectiveModel, attr, "topology", count=lambda *_: {"topology.calls": 1.0})
        )

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    compressor_label = lambda args: getattr(args[0], "name", None)  # noqa: E731
    classes = {Compressor, *subclasses(Compressor)}
    for cls in sorted(classes, key=lambda c: c.__qualname__):
        if issubclass(cls, CompressionPipeline):
            continue
        compress = cls.__dict__.get("compress")
        if compress is not None and not getattr(compress, "__isabstractmethod__", False):
            targets.append(
                Target(cls, "compress", "compressors", label=compressor_label, count=_gradient_elements)
            )
        if "fit_all_buckets" in cls.__dict__:
            targets.append(
                Target(cls, "fit_all_buckets", "compressors", label=compressor_label, count=_fit_outcome)
            )
    return targets
