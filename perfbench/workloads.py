"""The four benchmark workloads.

Each workload is built from the workload seed alone; the program only ever
sees the inputs generated here.  One *op* is the unit the benchmark times, and
within one workload every op does the same work:

* ``train`` -- one synchronous iteration of the ``lstm-ptb`` proxy and one of
  the ``resnet20-cifar10`` proxy (8 workers each, ``sidco-e`` at ratio 0.01,
  1 MiB full-scale buckets, ``comm+compress`` overlap).
* ``compress`` -- one pooled ~4M-element gradient through ``sidco-e``,
  ``dgc``, ``topk``, ``gaussiank`` and ``redsync``, each in a
  ``CompressionPipeline`` with 4 MiB buckets at ratio 0.01.
* ``plan-tune`` -- a fresh-cache ``autotune(vgg16-cifar10, "ethernet-4x8")``
  followed by a warm re-query of the same pair under ``speedup_vs_dense``.
* ``plan-sched`` -- a memo-off ``run_sweep`` over a bucket-count ladder with
  cross-bucket pipelining on ``torus-2d`` and ``fat-tree-128``, plus the
  serial-lane twin of the largest rung and a faulted twin per preset.

Every workload also checks each op's outputs (:meth:`check`) and reduces
them to the simulated outputs the benchmark reports (:meth:`simulated`):
per-call estimation errors ``|achieved_ratio / target_ratio - 1|`` and
simulated iteration times in ms.  These come from the first ``sim_ops`` timed
ops, which every run completes, so they are a pure function of the seed; the
stateful workloads (training, adaptive compressors) need more of them before
the mean stops depending on which seed the early ops drew.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

import repro.harness.sweep as sweep_mod
import repro.harness.tuner as tuner_mod
from repro.compressors.registry import create_compressor
from repro.distributed import DistributedTrainer, SimulationKnobs, TrainerConfig
from repro.gradients.synthetic import realistic_gradient
from repro.harness.configs import get_benchmark
from repro.harness.sweep import DEFAULT_CONSTRAINTS, SweepCache, SweepSpec, WorkloadSpec
from repro.harness.tuner import DEFAULT_TUNE_AXES, TUNE_TARGETS
from repro.perfmodel.device import GPU_V100
from repro.pipeline import CompressionPipeline

MIB = 2**20
RATIO = 0.01


def _ordered(low: float, mid: float, high: float) -> bool:
    """``low <= mid <= high`` up to float summation-order rounding."""
    slack = 1e-9 * max(abs(high), 1e-12)
    return low <= mid + slack and mid <= high + slack


def _est_error(achieved: float, target: float) -> float:
    return abs(achieved / target - 1.0)


class Train:
    """Two proxy trainers stepped one synchronous iteration per op."""

    name = "train"
    models = ("lstm-ptb", "resnet20-cifar10")
    #: Early in training the stage controller is still settling and the
    #: per-seed estimation error swings widely; 128 iterations average it out.
    sim_ops = 128

    def __init__(self, seed: int) -> None:
        self.trainers = []
        for index, model_name in enumerate(self.models):
            config = get_benchmark(model_name)
            model_seed = seed * 2 + index
            knobs = SimulationKnobs(
                bucket_bytes=config.proxy_bucket_bytes(1 * MIB), overlap="comm+compress"
            )
            trainer_config = TrainerConfig(
                num_workers=8,
                batch_size=config.proxy_batch_size,
                iterations=1,
                warmup_iterations=0,
                ratio=RATIO,
                lr=config.proxy_lr,
                momentum=config.proxy_momentum,
                nesterov=config.proxy_nesterov,
                clip_norm=config.proxy_clip_norm,
                seed=model_seed,
                compute_seconds=config.compute_seconds(),
                dimension_scale=config.dimension_scale(),
                worker_backend="serial",
                knobs=knobs,
            )
            self.trainers.append(
                DistributedTrainer(
                    config.build_proxy_model(seed=model_seed + 1),
                    config.build_proxy_dataset(seed=model_seed),
                    "sidco-e",
                    trainer_config,
                )
            )

    def op(self):
        return [trainer.run().metrics.records[0] for trainer in self.trainers]

    def check(self, records) -> list[str]:
        problems = []
        for model_name, record in zip(self.models, records):
            if not math.isfinite(record.loss):
                problems.append(f"{model_name}: loss {record.loss} is not finite")
            if not 0.0 < record.achieved_ratio <= 1.0:
                problems.append(f"{model_name}: achieved ratio {record.achieved_ratio} outside (0, 1]")
            if not _ordered(record.compute_time, record.iteration_time, record.serialized_time):
                problems.append(
                    f"{model_name}: compute {record.compute_time} <= iteration "
                    f"{record.iteration_time} <= serialized {record.serialized_time} fails"
                )
        return problems

    def simulated(self, records) -> tuple[list[float], list[float]]:
        errors = [_est_error(r.achieved_ratio, r.target_ratio) for r in records]
        return errors, [r.iteration_time * 1000.0 for r in records]


class Compress:
    """The paper's compressor line-up over a pool of seeded gradients."""

    name = "compress"
    sim_ops = 8
    lineup = ("sidco-e", "dgc", "topk", "gaussiank", "redsync")
    elements = 4 * MIB
    pool_size = 4

    def __init__(self, seed: int) -> None:
        self.pool = [
            realistic_gradient(
                self.elements, seed=int(np.random.SeedSequence((seed, i)).generate_state(1)[0])
            )
            for i in range(self.pool_size)
        ]
        self.pipelines = [
            CompressionPipeline(create_compressor(name), bucket_bytes=4 * MIB)
            for name in self.lineup
        ]
        self._next = 0

    def op(self):
        gradient = self.pool[self._next % self.pool_size]
        self._next += 1
        return gradient, [pipeline.compress(gradient, RATIO) for pipeline in self.pipelines]

    def check(self, output) -> list[str]:
        gradient, results = output
        problems = []
        for name, result in zip(self.lineup, results):
            indices = result.sparse.indices
            if indices.size and (indices.min() < 0 or indices.max() >= gradient.size):
                problems.append(f"{name}: index out of range")
                continue
            increasing = bool(np.all(indices[1:] > indices[:-1]))
            if not increasing and np.unique(indices).size != indices.size:
                problems.append(f"{name}: duplicate indices")
            if not np.array_equal(result.sparse.values, gradient[indices]):
                problems.append(f"{name}: values differ from the gradient at their indices")
        return problems

    def simulated(self, output) -> tuple[list[float], list[float]]:
        """Estimation errors, and the V100 device model's compression time of the op."""
        _gradient, results = output
        errors = [_est_error(r.achieved_ratio, RATIO) for r in results]
        return errors, [sum(GPU_V100.trace_cost(r.ops) for r in results) * 1000.0]


class PlanTune:
    """A cold auto-tuner query, then a warm re-query under a second target."""

    name = "plan-tune"
    sim_ops = 1
    topology = "ethernet-4x8"
    targets = ("iteration_seconds", "speedup_vs_dense")

    def __init__(self, seed: int) -> None:
        self.workload = WorkloadSpec.from_benchmark("vgg16-cifar10", seed=seed)
        coarse = SweepSpec(
            workloads=(self.workload,),
            axes={**DEFAULT_TUNE_AXES, "topology": (self.topology,)},
        )
        self.coarse_points = len(coarse.expand())

    def op(self):
        cache = SweepCache()
        cold = tuner_mod.autotune(self.workload, self.topology, target=self.targets[0], cache=cache)
        hits_after_cold = cache.hits
        warm = tuner_mod.autotune(self.workload, self.topology, target=self.targets[1], cache=cache)
        return cold, warm, hits_after_cold, cache

    def check(self, output) -> list[str]:
        cold, warm, hits_after_cold, cache = output
        problems = []
        for result in (cold, warm):
            sign = -1.0 if TUNE_TARGETS[result.target] == "max" else 1.0
            argbest = min(result.trace, key=lambda r: (sign * r.metrics[result.target], r.point.key))
            if argbest.point != result.best.point:
                problems.append(f"{result.target}: best is not the argbest of the trace")
        cold_points = {record.point for record in cold.trace}
        warm_coarse = warm.trace[: self.coarse_points]
        if any(record.point not in cold_points for record in warm_coarse):
            problems.append("warm re-query evaluated a coarse point the cold query did not")
        if cache.hits - hits_after_cold < self.coarse_points:
            problems.append("warm re-query's coarse points were not all cache hits")
        return problems

    def simulated(self, output) -> tuple[list[float], list[float]]:
        cold = output[0]
        errors = [
            _est_error(r.metrics["achieved_ratio"], r.config["ratio"]) for r in cold.trace
        ]
        return errors, [cold.best.metrics["iteration_seconds"] * 1000.0]

    def layer_counts(self, output) -> dict:
        cache = output[3]
        return {"sweep.cache_hits": cache.hits, "sweep.cache_lookups": cache.hits + cache.misses}


class PlanSched:
    """A fixed memo-off sweep that stresses the cross-bucket scheduler and faults."""

    name = "plan-sched"
    sim_ops = 1
    presets = ("torus-2d", "fat-tree-128")
    #: Full-scale bucket budgets: about 2, 8, 29 and 115 buckets of vgg16.
    ladder = (32 * MIB, 8 * MIB, 2 * MIB, MIB // 2)
    straggler_severity = 4.0

    def __init__(self, seed: int) -> None:
        self.workload = WorkloadSpec.from_benchmark("vgg16-cifar10", seed=seed)
        largest = self.ladder[-1]
        # (topology, bucket_bytes, cross_bucket, faulted) of every point.
        self.points = set()
        for preset in self.presets:
            self.points.update((preset, b, True, False) for b in self.ladder)
            self.points.add((preset, largest, False, False))  # serial-lane twin
            self.points.add((preset, largest, True, True))  # faulted twin
        self.spec = SweepSpec(
            workloads=(self.workload,),
            axes={
                "compressor": ("sidco-e",),
                "ratio": (RATIO,),
                "topology": self.presets,
                "bucket_bytes": self.ladder,
                "overlap": ("comm",),
                "allgather_algorithm": ("hierarchical",),
                "cross_bucket_pipeline": (True, False),
                "scheduler_backend": ("vectorized",),
                "sync_policy": ("full-sync", "backup-workers"),
                "backup_workers": (0, 1),
                "straggler_severity": (1.0, self.straggler_severity),
            },
            constraints=(*DEFAULT_CONSTRAINTS, self._admits),
        )
        self.digest = None

    def _admits(self, config) -> bool:
        faulted = config["straggler_severity"] != 1.0
        if faulted != (config["sync_policy"] == "backup-workers"):
            return False
        if faulted != (config["backup_workers"] == 1):
            return False
        key = (config["topology"], config["bucket_bytes"], config["cross_bucket_pipeline"], faulted)
        return key in self.points

    def op(self):
        return sweep_mod.run_sweep(self.spec, memoize=False)

    @staticmethod
    def _digest(result) -> str:
        h = hashlib.sha256()
        for record in result.records:
            for name in sorted(record.metrics):
                value = record.metrics[name]
                h.update(f"{name}={float(value).hex()};".encode())
        return h.hexdigest()

    def check(self, result) -> list[str]:
        problems = []
        if len(result.records) != len(self.points):
            problems.append(f"{len(result.records)} points priced, expected {len(self.points)}")
        serial = {}
        for record in result.records:
            c, m = record.config, record.metrics
            label = f"{c['topology']}/{c['bucket_bytes']}/cb={c['cross_bucket_pipeline']}"
            if not _ordered(m["compute_seconds"], m["clean_iteration_seconds"], m["serialized_seconds"]):
                problems.append(f"{label}: compute <= iteration <= serialized fails")
            if not m["straggler_overhead"] >= 1.0:
                problems.append(f"{label}: straggler_overhead {m['straggler_overhead']} < 1")
            if not c["cross_bucket_pipeline"]:
                serial[(c["topology"], c["bucket_bytes"])] = m["iteration_seconds"]
        for record in result.records:
            c, m = record.config, record.metrics
            twin = serial.get((c["topology"], c["bucket_bytes"]))
            clean = c["straggler_severity"] == 1.0
            if clean and c["cross_bucket_pipeline"] and twin is not None:
                if m["iteration_seconds"] > twin:
                    problems.append(f"{c['topology']}: cross-bucket slower than its serial twin")
        digest = self._digest(result)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append("simulated outputs differ from the first op's")
        return problems

    def simulated(self, result) -> tuple[list[float], list[float]]:
        errors = [
            _est_error(r.metrics["achieved_ratio"], r.config["ratio"]) for r in result.records
        ]
        return errors, [
            float(np.mean([r.metrics["iteration_seconds"] for r in result.records])) * 1000.0
        ]

    def layer_metrics(self, tracer, ops: int) -> dict:
        """Log-log slope of schedule self CPU against bucket count, per preset."""
        slopes = {}
        for preset in self.presets:
            xs, ys = [], []
            for bucket_bytes in self.ladder:
                key = sweep_mod.SweepPoint.from_config(
                    self.workload.name, self._config(preset, bucket_bytes)
                ).key
                buckets = tracer.tag_counts.get(("schedule.buckets", key), 0.0)
                cpu = tracer.tag_self_ns.get(("schedule", key), 0)
                if buckets > 0 and cpu > 0:
                    xs.append(math.log(buckets / ops))
                    ys.append(math.log(cpu / ops))
            slopes[f"schedule.slope.{preset}"] = (
                float(np.polyfit(xs, ys, 1)[0]) if len(xs) >= 2 else 0.0
            )
        return slopes

    def _config(self, preset: str, bucket_bytes: int) -> dict:
        config = {knob: values[0] for knob, values in self.spec.axes.items()}
        config.update(topology=preset, bucket_bytes=bucket_bytes, cross_bucket_pipeline=True)
        return config


WORKLOADS = {cls.name: cls for cls in (Train, Compress, PlanTune, PlanSched)}
