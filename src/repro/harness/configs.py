"""Benchmark registry mirroring Table 1 of the paper.

Each :class:`BenchmarkConfig` couples the *full-size* facts from Table 1
(model dimension, per-worker batch size, communication-overhead fraction,
optimizer family, quality metric) with the *proxy* the simulator actually
trains (a scaled-down model of the same architectural family on a synthetic
dataset).  Training dynamics come from the proxy; wall-clock behaviour comes
from the full-size dimension via the timeline/performance models, so the
compute/communication balance of every benchmark matches its Table 1 row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..data import (
    make_image_classification,
    make_language_modeling,
    make_sequence_classification,
)
from ..distributed.knobs import SimulationKnobs
from ..distributed.network import CLUSTER_ETHERNET_10G, NetworkModel
from ..distributed.timeline import compute_time_for_overhead
from ..nn.models import build_model

#: Number of workers in the paper's dedicated cluster (Appendix D, Cluster 1).
PAPER_NUM_WORKERS = 8

#: Compression ratios evaluated throughout the paper.
PAPER_RATIOS: tuple[float, ...] = (0.1, 0.01, 0.001)


@dataclass(frozen=True)
class BenchmarkConfig:
    """One row of Table 1 plus the proxy used to simulate it."""

    name: str
    task: str
    quality_metric: str
    # -- full-size facts from Table 1 -------------------------------------
    full_dimension: int
    per_worker_batch: int
    learning_rate: float
    epochs: int
    comm_overhead: float
    optimizer: str  # "sgd" or "nesterov"
    # -- proxy used by the simulator ---------------------------------------
    proxy_model: str = "mlp"
    proxy_model_kwargs: dict = field(default_factory=dict)
    proxy_dataset: str = "blobs"
    proxy_dataset_kwargs: dict = field(default_factory=dict)
    proxy_iterations: int = 60
    proxy_batch_size: int = 8
    proxy_lr: float = 0.1
    proxy_momentum: float = 0.0
    proxy_nesterov: bool = False
    proxy_clip_norm: float | None = None
    #: The simulation knobs this benchmark runs under by default.
    #: ``knobs.bucket_bytes`` is stated against the full-size model and
    #: rescaled to the proxy by :meth:`proxy_bucket_bytes`; a set
    #: ``knobs.topology`` fixes the worker count.
    knobs: SimulationKnobs = field(default_factory=SimulationKnobs)

    def build_proxy_model(self, *, seed: int = 1):
        """Instantiate a freshly initialised proxy model."""
        return build_model(self.proxy_model, seed=seed, **self.proxy_model_kwargs)

    def build_proxy_dataset(self, *, seed: int = 0):
        """Build the synthetic dataset the proxy trains on."""
        builders: dict[str, Callable] = {
            "images": make_image_classification,
            "language": make_language_modeling,
            "sequences": make_sequence_classification,
        }
        if self.proxy_dataset not in builders:
            raise ValueError(f"unknown proxy dataset {self.proxy_dataset!r}")
        return builders[self.proxy_dataset](seed=seed, **self.proxy_dataset_kwargs)

    def compute_seconds(self, network: NetworkModel = CLUSTER_ETHERNET_10G, num_workers: int = PAPER_NUM_WORKERS) -> float:
        """Per-iteration compute time implied by this benchmark's comm-overhead fraction."""
        return compute_time_for_overhead(network, num_workers, self.full_dimension, self.comm_overhead)

    def dimension_scale(self) -> float:
        """Factor mapping the proxy gradient dimension to the full-size dimension."""
        model = self.build_proxy_model()
        proxy_dim = model.num_parameters()
        return self.full_dimension / proxy_dim

    def proxy_bucket_bytes(self, full_scale_bytes: int | None = None) -> int | None:
        """Bucket byte budget rescaled to the proxy's gradient dimension.

        Bucket budgets are always stated against the full-size model
        (``full_scale_bytes`` overrides this config's ``knobs.bucket_bytes``); the
        proxy trains a much smaller gradient, so the budget shrinks by the
        dimension scale to keep the *number* of buckets (and hence the
        per-bucket communication structure) the same as at full size.
        """
        budget = self.knobs.bucket_bytes if full_scale_bytes is None else full_scale_bytes
        if budget is None:
            return None
        return max(int(round(budget / self.dimension_scale())), 4)


def _lm_config() -> BenchmarkConfig:
    return BenchmarkConfig(
        name="lstm-ptb",
        task="language_modeling",
        quality_metric="perplexity",
        full_dimension=66_034_000,
        per_worker_batch=20,
        learning_rate=22.0,
        epochs=30,
        comm_overhead=0.94,
        optimizer="nesterov",
        proxy_model="lstm_lm",
        proxy_model_kwargs={"vocab_size": 64, "embedding_dim": 16, "hidden_size": 32, "num_layers": 2},
        proxy_dataset="language",
        proxy_dataset_kwargs={"num_sequences": 160, "seq_len": 16, "vocab_size": 64},
        proxy_iterations=80,
        proxy_batch_size=8,
        proxy_lr=0.5,
        proxy_momentum=0.9,
        proxy_nesterov=True,
        proxy_clip_norm=5.0,
    )


def _an4_config() -> BenchmarkConfig:
    return BenchmarkConfig(
        name="lstm-an4",
        task="speech_recognition",
        quality_metric="accuracy",
        full_dimension=43_476_256,
        per_worker_batch=20,
        learning_rate=0.004,
        epochs=150,
        comm_overhead=0.80,
        optimizer="nesterov",
        proxy_model="lstm_seq",
        proxy_model_kwargs={"input_dim": 12, "hidden_size": 32, "num_layers": 2, "num_classes": 8},
        proxy_dataset="sequences",
        proxy_dataset_kwargs={"num_examples": 192, "num_classes": 8, "seq_len": 16, "num_features": 12},
        proxy_iterations=80,
        proxy_batch_size=8,
        proxy_lr=0.2,
        proxy_momentum=0.9,
        proxy_nesterov=True,
        proxy_clip_norm=5.0,
    )


def _resnet20_config() -> BenchmarkConfig:
    return BenchmarkConfig(
        name="resnet20-cifar10",
        task="image_classification",
        quality_metric="accuracy",
        full_dimension=269_467,
        per_worker_batch=512,
        learning_rate=0.1,
        epochs=140,
        comm_overhead=0.10,
        optimizer="sgd",
        proxy_model="resnet",
        proxy_model_kwargs={"in_channels": 3, "num_blocks": 2, "width": 8, "num_classes": 10},
        proxy_dataset="images",
        proxy_dataset_kwargs={"num_examples": 256, "num_classes": 10, "image_size": 16},
        proxy_iterations=50,
        proxy_batch_size=8,
        proxy_lr=0.05,
    )


def _vgg16_config() -> BenchmarkConfig:
    return BenchmarkConfig(
        name="vgg16-cifar10",
        task="image_classification",
        quality_metric="accuracy",
        full_dimension=14_982_987,
        per_worker_batch=512,
        learning_rate=0.1,
        epochs=140,
        comm_overhead=0.60,
        optimizer="sgd",
        proxy_model="cnn",
        proxy_model_kwargs={"in_channels": 3, "image_size": 16, "channels": (8, 16), "num_classes": 10},
        proxy_dataset="images",
        proxy_dataset_kwargs={"num_examples": 256, "num_classes": 10, "image_size": 16},
        proxy_iterations=50,
        proxy_batch_size=8,
        proxy_lr=0.05,
    )


def _resnet50_config() -> BenchmarkConfig:
    return BenchmarkConfig(
        name="resnet50-imagenet",
        task="image_classification",
        quality_metric="accuracy",
        full_dimension=25_559_081,
        per_worker_batch=160,
        learning_rate=0.2,
        epochs=90,
        comm_overhead=0.72,
        optimizer="nesterov",
        proxy_model="resnet",
        proxy_model_kwargs={"in_channels": 3, "num_blocks": 3, "width": 10, "num_classes": 16},
        proxy_dataset="images",
        proxy_dataset_kwargs={"num_examples": 320, "num_classes": 16, "image_size": 16},
        proxy_iterations=60,
        proxy_batch_size=8,
        proxy_lr=0.05,
        proxy_momentum=0.9,
        proxy_nesterov=True,
    )


def _vgg19_config() -> BenchmarkConfig:
    return BenchmarkConfig(
        name="vgg19-imagenet",
        task="image_classification",
        quality_metric="accuracy",
        full_dimension=143_671_337,
        per_worker_batch=160,
        learning_rate=0.05,
        epochs=90,
        comm_overhead=0.83,
        optimizer="nesterov",
        proxy_model="cnn",
        proxy_model_kwargs={"in_channels": 3, "image_size": 16, "channels": (12, 24), "num_classes": 16},
        proxy_dataset="images",
        proxy_dataset_kwargs={"num_examples": 320, "num_classes": 16, "image_size": 16},
        proxy_iterations=60,
        proxy_batch_size=8,
        proxy_lr=0.05,
        proxy_momentum=0.9,
        proxy_nesterov=True,
    )


#: The six benchmarks of Table 1, keyed by name.
TABLE1: dict[str, BenchmarkConfig] = {
    cfg.name: cfg
    for cfg in (
        _lm_config(),
        _an4_config(),
        _resnet20_config(),
        _vgg16_config(),
        _resnet50_config(),
        _vgg19_config(),
    )
}


def get_benchmark(name: str) -> BenchmarkConfig:
    """Look up a Table 1 benchmark by name."""
    key = name.lower()
    if key not in TABLE1:
        raise ValueError(f"unknown benchmark {name!r}; known: {sorted(TABLE1)}")
    return TABLE1[key]


def table1_rows() -> list[dict]:
    """Summary rows reproducing the columns of Table 1."""
    rows = []
    for cfg in TABLE1.values():
        rows.append(
            {
                "benchmark": cfg.name,
                "task": cfg.task,
                "parameters": cfg.full_dimension,
                "per_worker_batch": cfg.per_worker_batch,
                "learning_rate": cfg.learning_rate,
                "epochs": cfg.epochs,
                "comm_overhead": cfg.comm_overhead,
                "optimizer": cfg.optimizer,
                "quality_metric": cfg.quality_metric,
            }
        )
    return rows
