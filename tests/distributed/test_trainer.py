"""Integration tests for the distributed trainer."""

import numpy as np
import pytest

from repro.data import make_blobs_classification
from repro.distributed import (
    DistributedTrainer,
    SimulationKnobs,
    TrainerConfig,
    train_baseline_and_compressed,
)
from repro.gradients import GradientCapture
from repro.nn import build_model
from repro.optim import WarmupStepDecay


def _dataset(seed=0):
    return make_blobs_classification(num_examples=128, num_features=16, num_classes=4, seed=seed)


def _model(seed=1):
    return build_model("mlp", input_dim=16, hidden_dims=(32,), num_classes=4, seed=seed)


#: 512-byte buckets: several per layer of the test MLP.
_BUCKETED = SimulationKnobs(bucket_bytes=512)


def _config(**kwargs):
    defaults = dict(num_workers=4, batch_size=8, iterations=30, ratio=0.01, lr=0.05, seed=0, compute_seconds=0.01)
    defaults.update(kwargs)
    return TrainerConfig(**defaults)


class TestTrainingLoop:
    def test_loss_decreases_with_compression(self):
        trainer = DistributedTrainer(_model(), _dataset(), "sidco-e", _config())
        result = trainer.run(evaluate_on=_dataset())
        losses = result.metrics.losses
        assert losses[-5:].mean() < losses[:5].mean()
        assert result.final_evaluation["accuracy"] > 0.5

    def test_metrics_recorded_every_iteration(self):
        result = DistributedTrainer(_model(), _dataset(), "topk", _config(iterations=12)).run()
        assert len(result.metrics) == 12
        assert result.metrics.total_time > 0.0

    def test_baseline_matches_target_ratio_one(self):
        result = DistributedTrainer(_model(), _dataset(), "none", _config()).run()
        assert np.allclose(result.metrics.achieved_ratios, 1.0)

    def test_warmup_iterations_uncompressed(self):
        config = _config(iterations=10, warmup_iterations=4, ratio=0.001)
        result = DistributedTrainer(_model(), _dataset(), "topk", config).run()
        ratios = result.metrics.achieved_ratios
        assert np.allclose(ratios[:4], 1.0)
        assert np.all(ratios[4:] < 0.01)

    def test_capture_hook_receives_gradients(self):
        capture = GradientCapture(iterations={2, 5}, normalize=False)
        config = _config(iterations=8)
        DistributedTrainer(_model(), _dataset(), "topk", config, capture=capture).run()
        assert capture.captured_iterations == [2, 5]
        assert capture.get(2).size == _model().num_parameters()

    def test_scheduler_changes_learning_rate(self):
        model = _model()
        dataset = _dataset()
        config = _config(iterations=10, lr=1.0)
        trainer = DistributedTrainer(model, dataset, "topk", config)
        trainer.scheduler = WarmupStepDecay(trainer.optimizer, warmup_iterations=5, decay_every=100)
        result = trainer.run()
        lrs = [r.learning_rate for r in result.metrics.records]
        assert lrs[0] < lrs[4]

    def test_compression_reduces_communication_time(self):
        config = _config(iterations=10, ratio=0.001, dimension_scale=100.0)
        compressed = DistributedTrainer(_model(), _dataset(), "sidco-e", config).run()
        baseline = DistributedTrainer(_model(), _dataset(), "none", config).run()
        assert (
            compressed.metrics.component_breakdown()["communication"]
            < baseline.metrics.component_breakdown()["communication"]
        )

    def test_error_feedback_improves_aggressive_compression(self):
        # With EC off and very aggressive compression the model learns slower.
        config_ec = _config(iterations=60, ratio=0.005, use_error_feedback=True, seed=3)
        config_no = _config(iterations=60, ratio=0.005, use_error_feedback=False, seed=3)
        with_ec = DistributedTrainer(_model(seed=5), _dataset(3), "topk", config_ec).run()
        without = DistributedTrainer(_model(seed=5), _dataset(3), "topk", config_no).run()
        assert with_ec.metrics.final_loss <= without.metrics.final_loss + 0.05

    def test_estimation_quality_close_to_one_for_topk(self):
        result = DistributedTrainer(_model(), _dataset(), "topk", _config()).run()
        mean, _ = result.metrics.estimation_quality()
        assert 0.8 < mean < 1.2


class TestHelpers:
    def test_train_baseline_and_compressed(self):
        results = train_baseline_and_compressed(
            _model, _dataset(), ["topk", "sidco-e"], _config(iterations=10)
        )
        assert set(results) == {"none", "topk", "sidco-e"}
        assert all(len(r.metrics) == 10 for r in results.values())

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrainerConfig(num_workers=0)
        with pytest.raises(ValueError):
            TrainerConfig(ratio=0.0)
        with pytest.raises(ValueError):
            TrainerConfig(iterations=0)
        with pytest.raises(ValueError):
            TrainerConfig(warmup_iterations=-1)
        with pytest.raises(ValueError):
            TrainerConfig(knobs=SimulationKnobs(bucket_bytes=0))


class TestBucketedPipeline:
    def test_bucket_bytes_wraps_worker_compressors(self):
        from repro.pipeline import CompressionPipeline

        trainer = DistributedTrainer(_model(), _dataset(), "sidco-e", _config(knobs=_BUCKETED))
        assert all(isinstance(w.compressor, CompressionPipeline) for w in trainer.workers)
        assert trainer.compressor_name == "sidco-e-bucketed"
        result = trainer.run()
        assert len(result.metrics) == 30
        assert result.metrics.final_loss < result.metrics.records[0].loss

    def test_bucket_bytes_overrides_prebucketed_registry_default(self):
        # Asking for an already-bucketed compressor name must still honour the
        # trainer config's bucket size, not the factory's 4 MiB default.
        trainer = DistributedTrainer(
            _model(), _dataset(), "sidco-e-bucketed", _config(knobs=_BUCKETED)
        )
        assert all(w.compressor.bucket_bytes == 512 for w in trainer.workers)

    def test_baseline_is_never_bucketed(self):
        trainer = DistributedTrainer(_model(), _dataset(), "none", _config(knobs=_BUCKETED))
        assert trainer.is_baseline
        assert trainer.compressor_name == "none"

    def test_bucketed_training_matches_unbucketed_loss_closely(self):
        # Per-bucket thresholds change *which* elements ship, but training
        # still converges to a comparable loss.
        plain = DistributedTrainer(_model(seed=7), _dataset(1), "sidco-e", _config(seed=1)).run()
        bucketed = DistributedTrainer(
            _model(seed=7), _dataset(1), "sidco-e",
            _config(seed=1, knobs=SimulationKnobs(bucket_bytes=2048)),
        ).run()
        assert bucketed.metrics.final_loss < plain.metrics.final_loss * 1.25 + 0.05

    def test_bucketed_communication_time_accounts_per_bucket_latency(self):
        plain = DistributedTrainer(_model(), _dataset(), "topk", _config(seed=2)).run()
        bucketed = DistributedTrainer(
            _model(), _dataset(), "topk", _config(seed=2, knobs=_BUCKETED)
        ).run()
        # Same payload split across many all-gathers pays extra per-message
        # latency, so bucketed communication is >= the single-shot pricing.
        assert (
            bucketed.metrics.records[-1].communication_time
            >= plain.metrics.records[-1].communication_time
        )

    def test_layer_aware_buckets_snap_to_model_layers(self):
        trainer = DistributedTrainer(_model(), _dataset(), "topk", _config(knobs=_BUCKETED))
        worker = trainer.workers[0]
        assert worker.compressor.flat_spec is not None
        layout = worker.compressor.layout_for(worker.flat_spec.total_size)
        assert not layout.is_uniform
        slot_offsets = set(worker.flat_spec.offsets().tolist())
        capacity = layout.bucket_size
        for boundary in layout.boundaries:
            # Every cut is a layer boundary, or a budget-sized cut inside an
            # oversized layer.
            in_oversized = any(
                s.offset < boundary < s.offset + s.size
                for s in worker.flat_spec.slots
                if s.size > capacity
            )
            assert boundary in slot_offsets or in_oversized

    def test_layer_aware_buckets_can_be_disabled(self):
        trainer = DistributedTrainer(
            _model(), _dataset(), "topk", _config(knobs=_BUCKETED, layer_aware_buckets=False)
        )
        worker = trainer.workers[0]
        assert worker.compressor.flat_spec is None
        assert worker.compressor.layout_for(worker.flat_spec.total_size).is_uniform


class TestOverlapPolicy:
    def test_invalid_overlap_rejected(self):
        with pytest.raises(ValueError):
            TrainerConfig(knobs=SimulationKnobs(overlap="pipelined"))

    def test_overlap_reduces_wall_time_not_loss(self):
        serial = DistributedTrainer(
            _model(seed=5), _dataset(3), "topk", _config(seed=3, knobs=_BUCKETED)
        ).run()
        overlapped = DistributedTrainer(
            _model(seed=5), _dataset(3), "topk",
            _config(seed=3, knobs=SimulationKnobs(bucket_bytes=512, overlap="comm+compress")),
        ).run()
        # Identical training math: the schedule only reprices time.
        np.testing.assert_allclose(overlapped.metrics.losses, serial.metrics.losses)
        assert overlapped.metrics.total_time < serial.metrics.total_time
        # The serialised-equivalent time of the overlapped run matches the
        # serial run's actual time.
        assert overlapped.metrics.serialized_total_time == pytest.approx(
            serial.metrics.total_time
        )
        summary = overlapped.metrics.overlap_summary()
        assert 0.0 < summary["overlap_saving"] < 1.0

    def test_overlap_noop_without_buckets(self):
        serial = DistributedTrainer(_model(), _dataset(), "topk", _config(seed=4)).run()
        overlapped = DistributedTrainer(
            _model(), _dataset(), "topk",
            _config(seed=4, knobs=SimulationKnobs(overlap="comm+compress")),
        ).run()
        assert overlapped.metrics.total_time == pytest.approx(serial.metrics.total_time)
        assert overlapped.metrics.overlap_summary()["overlap_saving"] == pytest.approx(0.0)


class TestTopologyThreading:
    """Cluster topology + collective-algorithm choices threaded end to end."""

    def _two_level(self):
        from repro.distributed import ClusterTopology
        from repro.distributed.network import CLUSTER_ETHERNET_10G, NODE_INFINIBAND_100G

        return ClusterTopology(
            num_nodes=2,
            devices_per_node=2,
            inter_node=CLUSTER_ETHERNET_10G,
            intra_node=NODE_INFINIBAND_100G,
            name="test-2x2",
        )

    def test_invalid_algorithm_rejected_at_config_time(self):
        with pytest.raises(ValueError):
            TrainerConfig(knobs=SimulationKnobs(allgather_algorithm="ring-allreduce"))
        with pytest.raises(ValueError):
            TrainerConfig(knobs=SimulationKnobs(allreduce_algorithm="nccl"))

    def test_topology_worker_mismatch_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="workers"):
            _config(num_workers=8, knobs=SimulationKnobs(topology=self._two_level()))  # 4 workers

    def test_unknown_preset_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="unknown topology"):
            _config(num_workers=8, knobs=SimulationKnobs(topology="cluster99"))

    def test_preset_resolved_by_name(self):
        from repro.distributed import get_topology
        from repro.distributed.network import CLUSTER_ETHERNET_10G

        config = _config(num_workers=8, knobs=SimulationKnobs(topology="cluster1"))
        assert config.resolve_topology(CLUSTER_ETHERNET_10G) is get_topology("cluster1")

    def test_default_topology_is_flat_over_network(self):
        from repro.distributed.network import CLUSTER_ETHERNET_10G

        topo = _config(num_workers=4).resolve_topology(CLUSTER_ETHERNET_10G)
        assert topo.is_single_level
        assert topo.num_workers == 4
        assert topo.bottleneck_link is CLUSTER_ETHERNET_10G

    def test_trainer_wires_collective_into_timeline(self):
        config = _config(
            knobs=SimulationKnobs(topology=self._two_level(), allgather_algorithm="hierarchical")
        )
        trainer = DistributedTrainer(_model(), _dataset(), "topk", config)
        assert trainer.collective.topology.name == "test-2x2"
        assert trainer.timeline.collective is trainer.collective

    def test_hierarchical_topology_run_prices_cheaper_iterations(self):
        flat = DistributedTrainer(
            _model(seed=7), _dataset(5), "topk",
            _config(
                seed=5,
                knobs=SimulationKnobs(
                    topology=self._two_level(), allgather_algorithm="flat-allgather"
                ),
            ),
        ).run()
        hier = DistributedTrainer(
            _model(seed=7), _dataset(5), "topk",
            _config(
                seed=5,
                knobs=SimulationKnobs(
                    topology=self._two_level(), allgather_algorithm="hierarchical"
                ),
            ),
        ).run()
        # Identical training math; only the communication pricing changes.
        np.testing.assert_allclose(hier.metrics.losses, flat.metrics.losses)
        assert hier.metrics.total_time < flat.metrics.total_time

    def test_flat_topology_run_matches_default_exactly(self):
        from repro.distributed import ClusterTopology
        from repro.distributed.network import CLUSTER_ETHERNET_10G

        default = DistributedTrainer(_model(), _dataset(), "topk", _config(seed=6)).run()
        flat = DistributedTrainer(
            _model(), _dataset(), "topk",
            _config(
                seed=6,
                knobs=SimulationKnobs(topology=ClusterTopology.flat(CLUSTER_ETHERNET_10G, 4)),
            ),
        ).run()
        assert flat.metrics.total_time == default.metrics.total_time


class TestDedupPipelineThreading:
    """pipeline_chunks / dedup_assumption threaded config -> collective -> metrics."""

    def _two_level(self):
        from repro.distributed import ClusterTopology
        from repro.distributed.network import CLUSTER_ETHERNET_10G, NODE_INFINIBAND_100G

        return ClusterTopology(
            num_nodes=2,
            devices_per_node=2,
            inter_node=CLUSTER_ETHERNET_10G,
            intra_node=NODE_INFINIBAND_100G,
            name="test-2x2",
        )

    def test_invalid_knobs_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="pipeline_chunks"):
            _config(knobs=SimulationKnobs(pipeline_chunks=0))
        with pytest.raises(ValueError, match="unknown dedup assumption"):
            _config(knobs=SimulationKnobs(dedup_assumption="correlated"))

    def test_trainer_builds_dedup_and_pipelined_collective(self):
        config = _config(
            knobs=SimulationKnobs(
                topology=self._two_level(),
                allgather_algorithm="hierarchical",
                pipeline_chunks=4,
                dedup_assumption="uniform",
            )
        )
        trainer = DistributedTrainer(_model(), _dataset(), "topk", config)
        assert trainer.collective.pipeline_chunks == 4
        assert trainer.collective.allgather_dedup.assumption == "uniform"

    def test_dedup_run_prices_cheaper_and_records_achieved_ratio(self):
        base = dict(seed=5, ratio=0.1, iterations=10)
        knobs = SimulationKnobs(topology=self._two_level(), allgather_algorithm="hierarchical")
        plain = DistributedTrainer(
            _model(seed=7), _dataset(5), "topk", _config(**base, knobs=knobs)
        ).run()
        deduped = DistributedTrainer(
            _model(seed=7), _dataset(5), "topk",
            _config(**base, knobs=knobs.replace(dedup_assumption="uniform")),
        ).run()
        # Dedup only reprices the wire: identical training math, lower cost.
        np.testing.assert_allclose(deduped.metrics.losses, plain.metrics.losses)
        assert deduped.metrics.total_time < plain.metrics.total_time
        assert deduped.metrics.mean_dedup_ratio() > 1.0
        assert plain.metrics.mean_dedup_ratio() == 1.0
        assert all(r.dedup_ratio > 1.0 for r in deduped.metrics.records)

    def test_knobs_off_match_pr3_run_exactly(self):
        knobs = SimulationKnobs(topology=self._two_level(), allgather_algorithm="hierarchical")
        default = DistributedTrainer(
            _model(), _dataset(), "topk", _config(seed=6, knobs=knobs)
        ).run()
        knobs_off = DistributedTrainer(
            _model(), _dataset(), "topk",
            _config(seed=6, knobs=knobs.replace(pipeline_chunks=1, dedup_assumption=None)),
        ).run()
        assert knobs_off.metrics.total_time == default.metrics.total_time


class TestCrossBucketThreading:
    """cross_bucket_pipeline threaded config -> timeline -> run metrics."""

    def _two_level(self):
        from repro.distributed import ClusterTopology
        from repro.distributed.network import CLUSTER_ETHERNET_10G, CLUSTER_ETHERNET_25G

        return ClusterTopology(
            num_nodes=2,
            devices_per_node=2,
            inter_node=CLUSTER_ETHERNET_10G,
            intra_node=CLUSTER_ETHERNET_25G,
            name="test-2x2-torus",
        )

    def test_invalid_flag_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="cross_bucket_pipeline"):
            _config(knobs=SimulationKnobs(cross_bucket_pipeline="yes"))

    def test_trainer_threads_flag_into_timeline(self):
        config = _config(
            knobs=SimulationKnobs(
                topology=self._two_level(),
                allgather_algorithm="hierarchical",
                overlap="comm",
                cross_bucket_pipeline=True,
            )
        )
        trainer = DistributedTrainer(_model(), _dataset(), "topk", config)
        assert trainer.timeline.cross_bucket_pipeline

    def test_cross_bucket_run_no_slower_and_same_serialized_time(self):
        base = dict(seed=5, ratio=0.1, iterations=8, dimension_scale=2000.0)
        knobs = SimulationKnobs(
            overlap="comm", topology=self._two_level(), allgather_algorithm="hierarchical",
            bucket_bytes=512,
        )
        serial = DistributedTrainer(
            _model(seed=7), _dataset(5), "topk", _config(**base, knobs=knobs)
        ).run()
        cross = DistributedTrainer(
            _model(seed=7), _dataset(5), "topk",
            _config(**base, knobs=knobs.replace(cross_bucket_pipeline=True)),
        ).run()
        assert cross.metrics.total_time < serial.metrics.total_time
        # The flat component sum is scheduling-invariant.
        assert cross.metrics.serialized_total_time == pytest.approx(
            serial.metrics.serialized_total_time
        )
        assert cross.config.knobs.cross_bucket_pipeline
