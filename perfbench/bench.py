"""Measurement loop, statistics and the result record of one benchmark run.

One run builds a workload, times closed-loop ops for a fixed wall-clock
window and reduces them to metrics.  Op times are CPU time of this single
process (``time.process_time``), measured around the program call only: the
output checks run between ops, outside the timed region.

* Untraced run: every ``end_to_end`` metric.  The host-time metrics
  (``setup_s``, ``ops_per_cpu_s``, ``op_p50_cpu_ms``, ``op_tail_cpu_ms``) are
  scaled to a reference host speed with a :class:`HostGauge` sampled in the
  same stretch of time; the unscaled values and the gauge readings are in
  the details line.
* Traced run: ops alternate between untraced and traced (wrappers installed
  around the op, removed after it), which gives the per-layer self times
  (unscaled CPU time) and the tracing overhead from the same window.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from spans import LAYERS, Tracer, layer_targets
from workloads import WORKLOADS, Compress

#: Builds (set-up plus one untimed warm-up op) per run; ``setup_s`` reports
#: the median build on top of the one-off import time.
SETUP_REPEATS = 3
#: ``op_tail_cpu_ms`` is the highest percentile with this many samples beyond it.
TAIL_SAMPLES = 10
#: CPU ms of one :class:`HostGauge` sample on the reference host (a 2-vCPU
#: Xeon VM at 2.1 GHz, Python 3.11, NumPy 2.4).  Host-time metrics are
#: reported at reference speed: raw CPU time x REFERENCE_GAUGE_MS / gauge.
REFERENCE_GAUGE_MS = 2.5
#: Gauge samples taken after the imports and after each build.
SETUP_GAUGE_SAMPLES = 10

END_TO_END = {
    "setup_s": "s",
    "ops_per_cpu_s": "1/s",
    "op_p50_cpu_ms": "ms",
    "op_tail_cpu_ms": "ms",
    "peak_rss_mb": "MB",
    "est_error": "ratio",
    "sim_iter_ms": "ms",
}

PER_LAYER = {
    **{f"{layer}.cpu_ms": "ms/op" for layer in LAYERS},
    **{f"compressors.{name}.cpu_ms": "ms/op" for name in Compress.lineup},
    "nn.calls": "calls/op",
    "compressors.elements_per_cpu_s": "1/s",
    "pipeline.batched_ratio": "ratio",
    "topology.calls": "calls/op",
    "schedule.buckets": "buckets/op",
    "schedule.slope.torus-2d": "slope",
    "schedule.slope.fat-tree-128": "slope",
    "faults.reprices": "calls/point",
    "sweep.points": "points/op",
    "sweep.cache_hit_ratio": "ratio",
    "tuner.points": "points/op",
    "gc.pause_ms": "ms/op",
    "unattributed.cpu_ms": "ms/op",
    "trace.op_cpu_ms": "ms/op",
    "trace.overhead_ratio": "ratio",
}


def environment(seed: int) -> dict:
    """What the numbers depend on besides the code: interpreter, BLAS, pins."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(Path(__file__).resolve().parent.parent),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu_count": os.cpu_count(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "thread_pins": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
        "seed": seed,
    }


def _git_sha(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class HostGauge:
    """A fixed kernel that does not call the program: a gauge of host speed.

    On a shared host the same code takes 20-40% more CPU time while other
    tenants load the machine, for stretches of seconds to minutes.  The gauge
    mixes the kinds of work the workloads do -- interpreter-bound object
    code, cache-resident NumPy and cache-missing NumPy -- without allocating,
    and is sampled between ops, so its median CPU time tracks the host's
    speed over the same stretch as the ops.
    """

    def __init__(self) -> None:
        self._small = np.arange(32768, dtype=np.float64)[::-1].copy()
        self._sorted = np.empty_like(self._small)
        self._large = np.ones(1 << 18)
        self._scaled = np.empty_like(self._large)

    def _kernel(self) -> None:
        table = {}
        for i in range(3000):
            table[i & 511] = (i, i * 0.5)
        for _ in range(3):
            self._sorted[:] = self._small
            self._sorted.sort()
        for _ in range(4):
            np.multiply(self._large, 1.5, out=self._scaled)
            self._scaled.sum()

    def sample(self) -> float:
        """CPU seconds of one warm pass of the kernel.

        The first, untimed pass refills the caches the preceding op evicted,
        so the reading does not depend on the program's memory footprint.
        """
        self._kernel()
        start = time.process_time()
        self._kernel()
        return time.process_time() - start


def reference_factor(samples: list[float]) -> float:
    """Scale that maps CPU time measured alongside ``samples`` onto the reference host."""
    return REFERENCE_GAUGE_MS / (1000.0 * statistics.median(samples))


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_SAMPLES beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return ordered[-1], 100.0
    rank = n - 1 - TAIL_SAMPLES
    return ordered[rank], 100.0 * rank / (n - 1)


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")
        self.workload_cls = WORKLOADS[workload]
        self.sim_ops = self.workload_cls.sim_ops
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failures: list[str] = []
        self.errors: list[float] = []
        self.iter_ms: list[float] = []
        self.op_cpu: list[float] = []
        self.traced_cpu: list[float] = []
        self.gauge = HostGauge()
        self.setup_gauge: list[float] = []
        self.window_gauge: list[float] = []
        self.tracer = Tracer() if trace else None

    def _setup(self):
        builds = []
        workload = None
        self.setup_gauge.extend(self.gauge.sample() for _ in range(SETUP_GAUGE_SAMPLES))
        for _ in range(SETUP_REPEATS):
            workload = None
            gc.collect()
            start = time.perf_counter()
            workload = self.workload_cls(self.seed)
            output = workload.op()
            builds.append(time.perf_counter() - start)
            self._check(workload, output)
            self.setup_gauge.extend(self.gauge.sample() for _ in range(SETUP_GAUGE_SAMPLES))
        return workload, statistics.median(builds)

    def _check(self, workload, output) -> None:
        self.attempted += 1
        problems = workload.check(output)
        if problems:
            self.failures.append("; ".join(problems))

    def _op(self, workload, traced: bool):
        if traced:
            self.tracer.install(self._targets)
            self.tracer.begin_op(self.attempted)
        start = time.process_time()
        try:
            output = workload.op()
        finally:
            cpu = time.process_time() - start
            if traced:
                self.tracer.end_op()
                self.tracer.uninstall()
        (self.traced_cpu if traced else self.op_cpu).append(cpu)
        if traced and hasattr(workload, "layer_counts"):
            for counter, amount in workload.layer_counts(output).items():
                self.tracer.add(counter, amount)
        return output

    def execute(self, import_s: float) -> dict:
        if self.trace:
            self._targets = layer_targets()
        workload, build_s = self._setup()
        deadline = time.perf_counter() + self.seconds
        # Ops past the window only to complete the sim_ops prefix, bounded.
        overrun = deadline + max(self.seconds, 30.0)
        index = 0
        while (now := time.perf_counter()) < deadline or (
            len(self.iter_ms) < self.sim_ops and now < overrun
        ):
            traced = self.trace and index % 2 == 1
            index += 1
            try:
                output = self._op(workload, traced)
            except Exception as exc:  # a failing op counts against the attempted ones
                self.attempted += 1
                self.failures.append(f"{type(exc).__name__}: {exc}")
                continue
            self._check(workload, output)
            self.window_gauge.append(self.gauge.sample())
            if len(self.iter_ms) < self.sim_ops:
                errors, iter_ms = workload.simulated(output)
                self.errors.extend(errors)
                self.iter_ms.append(float(np.mean(iter_ms)))
        if not self.op_cpu or (self.trace and not self.traced_cpu):
            raise RuntimeError(f"no op completed: {self.failures[:3]}")
        if len(self.iter_ms) < self.sim_ops:
            self.failures.append(f"only {len(self.iter_ms)} of {self.sim_ops} simulated-output ops ran")
        self.setup_s = import_s + build_s
        self.workload = workload
        return self.result()

    # -- reduction ----------------------------------------------------------

    def raw_host_times(self) -> dict:
        """The host-time metrics as measured on this host, before scaling."""
        value, percentile = tail(self.op_cpu)
        self.tail_percentile = percentile
        return {
            "setup_s": self.setup_s,
            "ops_per_cpu_s": len(self.op_cpu) / sum(self.op_cpu),
            "op_p50_cpu_ms": statistics.median(self.op_cpu) * 1000.0,
            "op_tail_cpu_ms": value * 1000.0,
        }

    def end_to_end(self) -> dict:
        raw = self.raw_host_times()
        factor = reference_factor(self.window_gauge)
        return {
            "setup_s": raw["setup_s"] * reference_factor(self.setup_gauge),
            "ops_per_cpu_s": raw["ops_per_cpu_s"] / factor,
            "op_p50_cpu_ms": raw["op_p50_cpu_ms"] * factor,
            "op_tail_cpu_ms": raw["op_tail_cpu_ms"] * factor,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "est_error": float(np.mean(self.errors)),
            "sim_iter_ms": float(np.mean(self.iter_ms)),
        }

    def per_layer(self) -> dict:
        t = self.tracer
        ops = max(t.ops, 1)
        ms = lambda ns: ns / 1e6 / ops  # noqa: E731
        counts = t.counts
        values = {f"{layer}.cpu_ms": ms(t.self_ns.get(layer, 0)) for layer in LAYERS}
        for name in Compress.lineup:
            values[f"compressors.{name}.cpu_ms"] = ms(t.self_ns.get(f"compressors.{name}", 0))
        compressors_s = t.self_ns.get("compressors", 0) / 1e9
        fit_calls = counts.get("pipeline.fit_calls", 0.0)
        lookups = counts.get("sweep.cache_lookups", 0.0)
        faulted_points = counts.get("faults.points", 0.0)
        values.update(
            {
                "nn.calls": counts.get("nn.calls", 0.0) / ops,
                "compressors.elements_per_cpu_s": (
                    counts.get("compressors.elements", 0.0) / compressors_s if compressors_s else 0.0
                ),
                "pipeline.batched_ratio": (
                    counts.get("pipeline.fits", 0.0) / fit_calls if fit_calls else 0.0
                ),
                "topology.calls": counts.get("topology.calls", 0.0) / ops,
                "schedule.buckets": counts.get("schedule.buckets", 0.0) / ops,
                "schedule.slope.torus-2d": 0.0,
                "schedule.slope.fat-tree-128": 0.0,
                "faults.reprices": (
                    counts.get("faults.reprices", 0.0) / faulted_points if faulted_points else 0.0
                ),
                "sweep.points": counts.get("sweep.points", 0.0) / ops,
                "sweep.cache_hit_ratio": (
                    counts.get("sweep.cache_hits", 0.0) / lookups if lookups else 0.0
                ),
                "tuner.points": counts.get("tuner.points", 0.0) / ops,
                "gc.pause_ms": ms(t.gc_ns),
                "unattributed.cpu_ms": ms(t.self_ns.get("unattributed", 0)),
                "trace.op_cpu_ms": ms(t.op_ns),
                "trace.overhead_ratio": (
                    (len(self.op_cpu) / sum(self.op_cpu))
                    / (len(self.traced_cpu) / sum(self.traced_cpu))
                ),
            }
        )
        if hasattr(self.workload, "layer_metrics"):
            values.update(self.workload.layer_metrics(t, ops))
        return values

    def conservation(self) -> float:
        """|layer self times + unattributed - traced op CPU| as a share of op CPU."""
        t = self.tracer
        attributed = sum(t.self_ns.get(layer, 0) for layer in LAYERS) + t.self_ns.get(
            "unattributed", 0
        )
        return abs(attributed - t.op_ns) / max(t.op_ns, 1)

    def result(self) -> dict:
        correct = not self.failures
        if self.trace:
            values, units = self.per_layer(), PER_LAYER
            if self.conservation() > 1e-9:
                correct = False
                self.failures.append("layer self times do not add up to the traced op CPU")
        else:
            values, units = self.end_to_end(), END_TO_END
        return {
            "correct": correct,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
        }

    def details(self) -> dict:
        """What the one-line result leaves out: samples, tail percentile, failures."""
        info = {
            "workload": self.workload_cls.name,
            "timed_ops": len(self.op_cpu),
            "traced_ops": len(self.traced_cpu),
            "sim_ops": self.sim_ops,
            "failures": self.failures[:20],
        }
        if self.op_cpu and not self.trace:
            info["op_tail_percentile"] = self.tail_percentile
            deciles = statistics.quantiles(self.op_cpu, n=10) if len(self.op_cpu) > 1 else []
            info["op_cpu_ms_deciles"] = [round(1000.0 * q, 3) for q in deciles]
            info["raw_host_times"] = self.raw_host_times()
            info["gauge_ms"] = 1000.0 * statistics.median(self.window_gauge)
            info["setup_gauge_ms"] = 1000.0 * statistics.median(self.setup_gauge)
        if self.trace:
            t = self.tracer
            info["unattributed_share"] = t.self_ns.get("unattributed", 0) / max(t.op_ns, 1)
        return info

    def write_trace(self, path: Path, env: dict) -> None:
        """Spans as (id, name, start_ns, end_ns, parent_id, op), written at the end of the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "environment": env,
            "details": self.details(),
            "span_fields": ["id", "name", "start_cpu_ns", "end_cpu_ns", "parent", "op"],
            "spans": self.tracer.spans,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def main(workload: str, seed: int, seconds: float, trace: bool, import_s: float, out_dir: Path) -> int:
    run = Run(workload, seed, seconds, trace)
    result = run.execute(import_s)
    env = environment(seed)
    if trace:
        run.write_trace(out_dir / f"{workload}-seed{seed}-trace.json", env)
    print(json.dumps({"environment": env, "details": run.details()}))
    sys.stdout.flush()
    print(json.dumps(result))
    return 0
