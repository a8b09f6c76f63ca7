"""Synchronous data-parallel SGD with gradient compression (Algorithm 2).

``DistributedTrainer`` simulates the paper's training stack end-to-end:

1. every worker draws a mini-batch from its shard and computes a local
   gradient (forward/backward on the shared replica),
2. the gradient is error-feedback corrected and compressed by the worker's own
   compressor instance,
3. sparse contributions are aggregated with all-gather semantics (dense
   all-reduce for the no-compression baseline),
4. every replica applies the same averaged update (so one shared model object
   suffices),
5. the iteration is priced by the timeline model (compute + compression +
   communication) to produce simulated wall-clock time, from which
   throughput and time-to-quality speed-ups are derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..compressors.base import Compressor
from ..compressors.registry import create_compressor
from ..compressors.topk import NoCompression
from ..data.loader import BatchIterator, shard_dataset
from ..gradients.capture import GradientCapture
from ..nn.losses import accuracy, cross_entropy, perplexity
from ..nn.module import Module
from ..optim.lr_scheduler import LRScheduler
from ..optim.sgd import SGD
from ..perfmodel.costs import DeviceProfile
from ..perfmodel.device import GPU_V100
from ..pipeline import CompressionPipeline
from ..tensor.flatten import FlatSpec, unflatten
from .backend import create_worker_backend, validate_worker_backend
from .collectives import allgather_sparse, allreduce_dense
from .faults import ClusterProfile, FaultModel, get_sync_policy, price_iteration
from .knobs import SimulationKnobs
from .metrics import IterationRecord, TrainingMetrics
from .network import CLUSTER_ETHERNET_10G, NetworkModel
from .timeline import TimelineModel
from .topology import (
    ClusterTopology,
    CollectiveModel,
    SparseAggregateModel,
    get_topology,
)
from .worker import Worker

@dataclass
class TrainerConfig:
    """Hyper-parameters of one distributed training run.

    Every simulation knob (bucketing, overlap, topology, collective
    algorithms, scheduler backend, fault/policy settings) rides in ``knobs``;
    see :class:`~repro.distributed.knobs.SimulationKnobs`.  A topology preset
    name is resolved here, and its worker count must match ``num_workers``.
    """

    num_workers: int = 8
    batch_size: int = 16
    iterations: int = 100
    ratio: float = 0.01
    lr: float = 0.1
    momentum: float = 0.0
    nesterov: bool = False
    weight_decay: float = 0.0
    use_error_feedback: bool = True
    clip_norm: float | None = None
    warmup_iterations: int = 0
    seed: int = 0
    compute_seconds: float = 0.01
    dimension_scale: float = 1.0
    #: Snap bucket boundaries to the model's layer boundaries (DDP-style) and
    #: derive per-bucket gradient-ready times from reverse layer order.
    #: Ignored unless ``knobs.bucket_bytes`` is set.
    layer_aware_buckets: bool = True
    #: How per-worker compression executes: ``"serial"`` (in-process, the
    #: default) or ``"process"`` (chunked dispatch to a process pool so
    #: multi-worker runs use real cores).  Both are bit-for-bit identical on
    #: fixed seeds; see :mod:`repro.distributed.backend`.
    worker_backend: str = "serial"
    #: Explicit per-worker heterogeneity (mutually exclusive with the
    #: single-straggler knobs ``straggler_severity`` / ``link_degradation``);
    #: ``None`` = homogeneous.
    cluster_profile: "ClusterProfile | None" = None
    #: Fault injectors applied per iteration, in order (``StragglerInjector``,
    #: ``LinkDegradation``, ``WorkerChurn``, or anything with
    #: ``apply(iteration, rates)``).
    fault_injectors: tuple = ()
    #: The simulation knobs this run is priced under.
    knobs: SimulationKnobs = field(default_factory=SimulationKnobs)

    def __post_init__(self) -> None:
        if not isinstance(self.knobs, SimulationKnobs):
            raise ValueError(f"knobs must be a SimulationKnobs bundle, got {self.knobs!r}")
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError("ratio must be in (0, 1]")
        if self.warmup_iterations < 0:
            raise ValueError("warmup_iterations must be non-negative")
        if self.compute_seconds < 0.0:
            raise ValueError("compute_seconds must be non-negative")
        validate_worker_backend(self.worker_backend)
        self.fault_injectors = tuple(self.fault_injectors)
        knobs = self.knobs
        if self.cluster_profile is not None:
            if self.cluster_profile.num_workers != self.num_workers:
                raise ValueError(
                    f"cluster_profile has {self.cluster_profile.num_workers} workers "
                    f"but num_workers is {self.num_workers}"
                )
            if knobs.straggler_severity != 1.0 or knobs.link_degradation != 1.0:
                raise ValueError(
                    "pass either cluster_profile or the single-straggler knobs "
                    "(straggler_severity / link_degradation), not both"
                )
        if isinstance(knobs.topology, str):
            self.knobs = knobs = knobs.replace(topology=get_topology(knobs.topology))
        if knobs.topology is not None and knobs.topology.num_workers != self.num_workers:
            raise ValueError(
                f"topology {knobs.topology.name or knobs.topology!r} has "
                f"{knobs.topology.num_workers} workers but num_workers is {self.num_workers}"
            )
        if knobs.backup_workers >= self.num_workers:
            raise ValueError(
                f"backup_workers ({knobs.backup_workers}) must leave at least one "
                f"participant out of num_workers ({self.num_workers})"
            )

    @property
    def faulted(self) -> bool:
        """True when any heterogeneity/fault/policy configuration is active."""
        return (
            self.cluster_profile is not None
            or bool(self.fault_injectors)
            or self.knobs.faulted
        )

    def build_fault_model(self) -> FaultModel:
        """The fault model this config describes (homogeneous profile when clean)."""
        knobs = self.knobs
        if self.cluster_profile is not None:
            profile = self.cluster_profile
        elif knobs.straggler_severity != 1.0 or knobs.link_degradation != 1.0:
            profile = ClusterProfile.degraded(
                self.num_workers,
                compute=knobs.straggler_severity,
                link=knobs.link_degradation,
            )
        else:
            profile = ClusterProfile.homogeneous(self.num_workers)
        return FaultModel(profile=profile, injectors=self.fault_injectors)

    def resolve_topology(self, network: NetworkModel) -> ClusterTopology:
        """The cluster topology this config trains over.

        ``None`` builds the degenerate single-level topology: every worker on
        ``network``, which reproduces the pre-topology pricing exactly.
        """
        if self.knobs.topology is None:
            return ClusterTopology.flat(network, self.num_workers)
        return self.knobs.topology


@dataclass
class TrainingRunResult:
    """Output of one full training run."""

    metrics: TrainingMetrics
    final_evaluation: dict[str, float] = field(default_factory=dict)
    compressor_name: str = ""
    config: TrainerConfig | None = None


class DistributedTrainer:
    """Simulated synchronous data-parallel training with compressed gradients."""

    def __init__(
        self,
        model: Module,
        dataset,
        compressor: str | Compressor,
        config: TrainerConfig,
        *,
        network: NetworkModel = CLUSTER_ETHERNET_10G,
        device: DeviceProfile = GPU_V100,
        compressor_kwargs: dict | None = None,
        scheduler: LRScheduler | None = None,
        capture: GradientCapture | None = None,
    ) -> None:
        self.model = model
        self.config = config
        self.capture = capture
        self.scheduler = scheduler
        knobs = config.knobs

        flat_spec = FlatSpec.from_named_shapes(
            {name: p.shape for name, p in model.named_parameters().items()}
        )
        shards = shard_dataset(dataset, config.num_workers, seed=config.seed)
        self.workers: list[Worker] = []
        for worker_id, shard in enumerate(shards):
            comp = self._make_compressor(
                compressor,
                compressor_kwargs,
                knobs.bucket_bytes,
                flat_spec=flat_spec if config.layer_aware_buckets else None,
            )
            batches = BatchIterator(shard, config.batch_size, seed=config.seed + 101 * worker_id)
            self.workers.append(
                Worker(
                    worker_id,
                    model,
                    batches,
                    comp,
                    use_error_feedback=config.use_error_feedback,
                    clip_norm=config.clip_norm,
                )
            )
        self.compressor_name = self.workers[0].compressor.name
        self.is_baseline = isinstance(self.workers[0].compressor, NoCompression)

        self.optimizer = SGD(
            model,
            lr=config.lr,
            momentum=config.momentum,
            nesterov=config.nesterov,
            weight_decay=config.weight_decay,
        )
        if scheduler is not None:
            scheduler.optimizer = self.optimizer

        dimension = self.workers[0].flat_spec.total_size
        self.collective = CollectiveModel(
            topology=config.resolve_topology(network),
            allreduce_algorithm=knobs.allreduce_algorithm,
            allgather_algorithm=knobs.allgather_algorithm,
            pipeline_chunks=knobs.pipeline_chunks,
            allgather_dedup=(
                SparseAggregateModel(knobs.dedup_assumption)
                if knobs.dedup_assumption is not None
                else None
            ),
        )
        self.timeline = TimelineModel(
            network=network,
            device=device,
            compute_seconds=config.compute_seconds,
            num_workers=config.num_workers,
            model_dimension=dimension,
            dimension_scale=config.dimension_scale,
            overlap=knobs.overlap,
            collective=self.collective,
            cross_bucket_pipeline=knobs.cross_bucket_pipeline,
            scheduler_backend=knobs.scheduler_backend,
        )
        self._warmup_compressor = NoCompression()
        self.backend = create_worker_backend(config.worker_backend)
        # Fault layer: None on the clean path so the nominal iteration code is
        # exactly the pre-fault code (bit-for-bit schedules and timings).
        self.fault_model = config.build_fault_model() if config.faulted else None
        self.sync_policy = get_sync_policy(
            knobs.sync_policy,
            backup_workers=knobs.backup_workers,
            time_window_factor=knobs.time_window_factor,
        )

    @staticmethod
    def _make_compressor(
        compressor: str | Compressor,
        kwargs: dict | None,
        bucket_bytes: int | None = None,
        flat_spec: FlatSpec | None = None,
    ) -> Compressor:
        if isinstance(compressor, Compressor):
            # A shared instance would entangle per-worker adaptive state, so a
            # pre-built compressor is only allowed for single-worker runs.
            built = compressor
        else:
            built = create_compressor(compressor, **(kwargs or {}))
        if bucket_bytes is None or isinstance(built, NoCompression):
            # The dense baseline all-reduces one fused buffer regardless.
            return built
        if isinstance(built, CompressionPipeline):
            # Already bucketed (e.g. a "sidco-*-bucketed" registry name): the
            # trainer config's bucket size and layer layout win over the
            # factory defaults.
            built.bucket_bytes = int(bucket_bytes)
            built.flat_spec = flat_spec
            return built
        return CompressionPipeline(built, bucket_bytes=bucket_bytes, flat_spec=flat_spec)

    # -- training ---------------------------------------------------------------

    def run(self, *, evaluate_on=None) -> TrainingRunResult:
        """Train for ``config.iterations`` iterations and return metrics."""
        cfg = self.config
        metrics = TrainingMetrics()
        wall_time = 0.0
        self.model.train()

        try:
            for iteration in range(cfg.iterations):
                wall_time = self._run_iteration(iteration, metrics, wall_time)
        finally:
            # Release the process pool (a no-op for the serial backend); a
            # later run() lazily rebuilds it.
            self.backend.close()

        evaluation = self.evaluate(evaluate_on) if evaluate_on is not None else {}
        return TrainingRunResult(
            metrics=metrics,
            final_evaluation=evaluation,
            compressor_name=self.compressor_name,
            config=cfg,
        )

    def _run_iteration(self, iteration: int, metrics: TrainingMetrics, wall_time: float) -> float:
        cfg = self.config
        in_warmup = iteration < cfg.warmup_iterations
        lr = self.scheduler.step() if self.scheduler is not None else self.optimizer.lr

        # Fault layer: resolve this iteration's membership.  Inactive workers
        # (churn) skip the step entirely — their batch stream does not advance
        # and they contribute no gradient.  On the clean path `workers` is the
        # untouched full list and the code below is exactly the pre-fault path.
        if self.fault_model is None:
            rates = None
            workers = self.workers
        else:
            rates = self.fault_model.rates_for_iteration(iteration)
            flags = rates.active.tolist()
            for worker, flag in zip(self.workers, flags):
                worker.active = bool(flag)
            workers = [w for w, flag in zip(self.workers, flags) if flag]
            if not workers:
                raise RuntimeError("fault injection left no active workers this iteration")

        if in_warmup and not self.is_baseline:
            worker_steps = []
            for worker in workers:
                # Warm-up: train uncompressed (the paper's 5-epoch warm-up).
                loss, flat = worker.compute_gradient()
                result = self._warmup_compressor.compress(flat, 1.0)
                worker_steps.append((loss, result, flat))
        else:
            # Model-touching halves stay in-process; the compress calls in the
            # middle go through the configured backend (serial, or chunked
            # process-pool dispatch) in deterministic worker order.
            prepared = [worker.prepare() for worker in workers]
            compressed = self.backend.compress_all(
                [worker.compressor for worker in workers],
                [p.corrected for p in prepared],
                cfg.ratio,
            )
            worker_steps = []
            for worker, prep, (result, compressor) in zip(workers, prepared, compressed):
                # The returned compressor carries the state evolved by the
                # call (identity for the serial backend, a pickle round-trip
                # for the process pool); store it back so the next iteration
                # continues the stream.
                worker.compressor = compressor
                step = worker.finalize(prep, result)
                worker_steps.append((step.loss, step.compression, step.corrected_gradient))

        losses = [s[0] for s in worker_steps]
        results = [s[1] for s in worker_steps]

        if self.capture is not None:
            self.capture.record(iteration, worker_steps[0][2])

        # Nominal-rate timing: the components every record reports.  Under
        # faults it also seeds the per-worker pricing memo so the nominal
        # workers' finish time is bit-for-bit this number.
        if self.is_baseline or in_warmup:
            timing = self.timeline.baseline_iteration()

            def price(compute_scale: float, comm_scale: float) -> float:
                if compute_scale == 1.0 and comm_scale == 1.0:
                    return timing.total
                return self.timeline.baseline_iteration(
                    compute_scale=compute_scale, comm_scale=comm_scale
                ).total
        else:
            timing = self.timeline.compressed_iteration(results)

            def price(compute_scale: float, comm_scale: float) -> float:
                if compute_scale == 1.0 and comm_scale == 1.0:
                    return timing.total
                return self.timeline.compressed_iteration(
                    results, compute_scale=compute_scale, comm_scale=comm_scale
                ).total

        # Sync policy: which of the active workers' gradients aggregate, and
        # what the cluster-level iteration time is.
        if rates is None:
            faulted = None
            participating_steps = worker_steps
            iteration_seconds = timing.total
        else:
            faulted = price_iteration(price, rates, self.sync_policy)
            keep = faulted.outcome.participating
            participating_steps = [
                step for w, step in zip(rates.active_indices, worker_steps) if keep[w]
            ]
            iteration_seconds = faulted.iteration_seconds

        if self.is_baseline or in_warmup:
            collective = allreduce_dense([s[2] for s in participating_steps])
        else:
            collective = allgather_sparse([s[1].sparse for s in participating_steps])

        aggregated = collective.aggregated
        named_grads = unflatten(aggregated, self.workers[0].flat_spec)
        self.optimizer.step(named_grads)

        wall_time += iteration_seconds
        achieved_ratio = float(np.mean([r.achieved_ratio for r in results]))
        thresholds = [r.threshold for r in results if r.threshold is not None]
        metrics.append(
            IterationRecord(
                iteration=iteration,
                loss=float(np.mean(losses)),
                achieved_ratio=achieved_ratio,
                target_ratio=1.0 if (self.is_baseline or in_warmup) else cfg.ratio,
                threshold=float(np.mean(thresholds)) if thresholds else None,
                compute_time=timing.compute,
                compression_time=timing.compression,
                communication_time=timing.communication,
                iteration_time=iteration_seconds,
                serialized_time=timing.serialized,
                wall_time=wall_time,
                samples=cfg.batch_size * len(participating_steps),
                learning_rate=lr,
                dedup_ratio=timing.dedup_ratio,
                participating_workers=(
                    None if faulted is None else faulted.outcome.num_participating
                ),
                stragglers_cut=0 if faulted is None else faulted.outcome.stragglers_cut,
            )
        )
        return wall_time

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, dataset, *, batch_size: int = 64) -> dict[str, float]:
        """Mean loss, top-1 accuracy and perplexity of the current model on ``dataset``."""
        self.model.eval()
        n = len(dataset)
        losses: list[float] = []
        accuracies: list[float] = []
        for start in range(0, n, batch_size):
            idx = np.arange(start, min(start + batch_size, n))
            subset = dataset.subset(idx)
            logits = self.model(subset.inputs)
            loss, _ = cross_entropy(logits, subset.targets)
            losses.append(loss)
            accuracies.append(accuracy(logits, subset.targets))
        self.model.train()
        mean_loss = float(np.mean(losses))
        return {
            "loss": mean_loss,
            "accuracy": float(np.mean(accuracies)),
            "perplexity": perplexity(mean_loss),
        }


def train_baseline_and_compressed(
    model_factory,
    dataset,
    compressors: list[str],
    config: TrainerConfig,
    **trainer_kwargs,
) -> dict[str, TrainingRunResult]:
    """Train the same task once per compressor (plus the dense baseline).

    ``model_factory`` must build a freshly initialised (but identically seeded)
    model per run so every compressor starts from the same weights.
    """
    results: dict[str, TrainingRunResult] = {}
    for name in ["none", *compressors]:
        model = model_factory()
        trainer = DistributedTrainer(model, dataset, name, config, **trainer_kwargs)
        results[name] = trainer.run()
    return results
