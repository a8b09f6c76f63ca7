"""Tests for the SimulationKnobs bundle and its single-store contract.

Every surface that prices an iteration (``TrainerConfig``,
``BenchmarkConfig``, the sweep grid, ``run_benchmark``) reads its knobs from a
``SimulationKnobs`` bundle: no config carries its own copy of a knob, and the
bundle and the sweep apply the same per-knob validation rules.
"""

import math
from dataclasses import fields

import pytest

from repro.distributed import KNOB_FIELDS, SimulationKnobs, TrainerConfig, knob_defaults
from repro.harness import BenchmarkConfig
from repro.harness.sweep import DEFAULT_KNOBS, SWEEP_KNOBS, SweepSpec, WorkloadSpec


def _benchmark_config(**kwargs) -> BenchmarkConfig:
    return BenchmarkConfig(
        name="x",
        task="t",
        quality_metric="accuracy",
        full_dimension=1000,
        per_worker_batch=8,
        learning_rate=0.1,
        epochs=1,
        comm_overhead=0.5,
        optimizer="sgd",
        **kwargs,
    )


class TestSingleSourceOfTruth:
    def test_knob_fields_order_matches_dataclass(self):
        assert KNOB_FIELDS == tuple(f.name for f in fields(SimulationKnobs))

    def test_sweep_knobs_derive_from_knob_fields(self):
        assert SWEEP_KNOBS == ("compressor", "ratio", *KNOB_FIELDS)
        assert set(DEFAULT_KNOBS) == set(SWEEP_KNOBS)

    @pytest.mark.parametrize("config_cls", [TrainerConfig, BenchmarkConfig])
    def test_configs_store_no_flat_knobs(self, config_cls):
        # The bundle is the only knob store: no config field mirrors a knob.
        names = {f.name for f in fields(config_cls)}
        assert names.isdisjoint(KNOB_FIELDS)
        assert "knobs" in names

    def test_configs_default_to_the_default_bundle(self):
        assert TrainerConfig().knobs == SimulationKnobs()
        assert _benchmark_config().knobs == SimulationKnobs()

    def test_benchmark_config_bundles_knobs(self):
        config = _benchmark_config(
            knobs=SimulationKnobs(overlap="comm", sync_policy="time-window", time_window_factor=2.0)
        )
        knobs = config.knobs
        assert knobs.overlap == "comm"
        assert knobs.time_window_factor == 2.0
        assert knobs.faulted


#: Bad per-knob values: each must be rejected by the bundle and by a sweep axis.
BAD_KNOB_VALUES = [
    ("bucket_bytes", 0),
    ("bucket_bytes", 3),
    ("bucket_bytes", 2.5),
    ("bucket_bytes", True),
    ("pipeline_chunks", 0),
    ("pipeline_chunks", True),
    ("backup_workers", -1),
    ("backup_workers", True),
    ("straggler_severity", 0.5),
    ("straggler_severity", math.nan),
    ("link_degradation", math.inf),
    ("time_window_factor", 0.5),
    ("overlap", "x"),
    ("topology", "no-such-fabric"),
    ("allgather_algorithm", "ring-allreduce"),
    ("dedup_assumption", "correlated"),
    ("cross_bucket_pipeline", 1),
    ("scheduler_backend", "gpu"),
    ("sync_policy", "quorum"),
]

#: Good per-knob values (free of cross-knob implications): both accept them.
GOOD_KNOB_VALUES = [
    ("bucket_bytes", None),
    ("bucket_bytes", 4),
    ("pipeline_chunks", 2),
    ("straggler_severity", 1.5),
    ("overlap", "comm"),
]


def _sweep_axis(knob, value) -> SweepSpec:
    workload = WorkloadSpec(name="w", dimension=10**6, comm_overhead=0.5)
    return SweepSpec(workloads=(workload,), axes={knob: (value,)})


class TestBundleAndSweepAgree:
    @pytest.mark.parametrize(("knob", "value"), BAD_KNOB_VALUES)
    def test_bad_value_rejected_by_both(self, knob, value):
        with pytest.raises(ValueError):
            SimulationKnobs(**{knob: value})
        with pytest.raises(ValueError):
            _sweep_axis(knob, value)

    @pytest.mark.parametrize(("knob", "value"), GOOD_KNOB_VALUES)
    def test_good_value_accepted_by_both(self, knob, value):
        assert getattr(SimulationKnobs(**{knob: value}), knob) == value
        assert _sweep_axis(knob, value).axes[knob] == (value,)


class TestValidation:
    def test_defaults_are_clean(self):
        knobs = SimulationKnobs()
        assert not knobs.faulted
        assert knobs.as_dict() == knob_defaults()

    def test_cross_knob_implications(self):
        with pytest.raises(ValueError, match="backup_workers > 0 requires"):
            SimulationKnobs(backup_workers=1)
        with pytest.raises(ValueError, match="time_window_factor requires"):
            SimulationKnobs(time_window_factor=1.5)
        # The consistent combinations construct fine.
        assert SimulationKnobs(sync_policy="backup-workers", backup_workers=2).faulted
        assert SimulationKnobs(sync_policy="time-window", time_window_factor=1.5).faulted

    def test_rate_knobs_must_be_finite_and_at_least_one(self):
        for name in ("straggler_severity", "link_degradation"):
            for bad in (0.5, 0.0, float("inf"), float("nan")):
                with pytest.raises(ValueError, match=name):
                    SimulationKnobs(**{name: bad})

    def test_per_knob_validators_run(self):
        with pytest.raises(ValueError, match="bucket_bytes"):
            SimulationKnobs(bucket_bytes=0)
        with pytest.raises(ValueError, match="overlap"):
            SimulationKnobs(overlap="all-of-it")
        with pytest.raises(ValueError, match="sync policy"):
            SimulationKnobs(sync_policy="quorum")
        with pytest.raises(ValueError):
            SimulationKnobs(topology="no-such-fabric")

    def test_replace_revalidates(self):
        knobs = SimulationKnobs()
        assert knobs.replace(overlap="comm").overlap == "comm"
        with pytest.raises(ValueError):
            knobs.replace(backup_workers=1)
