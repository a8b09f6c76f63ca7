"""Self-tests of the benchmark: attribution, the metric contract, refusal.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import workloads  # noqa: E402
from repro.optim.sgd import SGD  # noqa: E402

#: CPU seconds spun per ``SGD.step``: large next to the ~130 ms op, so host
#: speed drift between the compared runs stays small against the rise.
SPIN_S = 0.1


def _run_train(seconds: float, trace: bool) -> dict:
    run = bench.Run("train", seed=3, seconds=seconds, trace=trace)
    result = run.execute(import_s=0.0)
    assert result["correct"], run.failures
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    if not trace:
        # The spin is a fixed amount of CPU time, so compare unscaled times.
        values.update(run.raw_host_times())
    return values


def test_spin_in_sgd_step_is_attributed_to_optim(monkeypatch):
    """A fixed CPU spin in ``SGD.step`` shows in ``optim`` and in the op time."""
    monkeypatch.setattr(workloads.Train, "sim_ops", 2)
    base_layers = _run_train(3.0, trace=True)
    base = _run_train(3.0, trace=False)

    original = SGD.step

    def spinning_step(self, *args, **kwargs):
        end = time.process_time() + SPIN_S
        while time.process_time() < end:
            pass
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SGD, "step", spinning_step)
    spun_layers = _run_train(3.0, trace=True)
    spun = _run_train(3.0, trace=False)

    added_ms = 2 * SPIN_S * 1000.0  # one SGD.step per trainer, two trainers per op
    optim_rise = spun_layers["optim.cpu_ms"] - base_layers["optim.cpu_ms"]
    assert abs(optim_rise - added_ms) < 0.05 * added_ms
    op_rise = spun["op_p50_cpu_ms"] - base["op_p50_cpu_ms"]
    assert abs(op_rise - added_ms) < 0.25 * added_ms
    for layers in (base_layers, spun_layers):
        assert layers["unattributed.cpu_ms"] < 0.05 * layers["trace.op_cpu_ms"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == bench.END_TO_END
    assert per_layer == bench.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    value, percentile = bench.tail(samples)
    assert sum(s > value for s in samples) == bench.TAIL_SAMPLES
    assert percentile == 100.0 * 89 / 99


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    completed = subprocess.run(
        [*spec["command"], "--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
