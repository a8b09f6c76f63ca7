"""Multi-level cluster topology and pluggable collective-algorithm models.

The paper's speed-ups come from two very different fabrics — a TCP 10/25 Gbps
Ethernet cluster of single-GPU servers (Appendix D, Cluster 1) and a 100 Gbps
InfiniBand fabric inside one 8-GPU node (Cluster 2).  A single flat
:class:`~repro.distributed.network.NetworkModel` link cannot express the
difference, nor can one closed form express the algorithms real stacks choose
per fabric (ring vs recursive doubling, flat vs hierarchical sparse
all-gather).

This module models both dimensions:

* :class:`ClusterTopology` — a hierarchy of :class:`LinkLevel` entries
  (devices → racks → pods, each with its own :class:`NetworkModel` and
  oversubscription factor).  The classic construction is two-level —
  ``num_nodes`` x ``devices_per_node`` workers with an *intra-node* link
  (NVLink/InfiniBand inside a server) and an *inter-node* link (the Ethernet
  between servers) — and ``devices_per_node == 1`` or ``num_nodes == 1``
  degenerates to the old single-level model.  :meth:`ClusterTopology.from_levels`
  builds deeper fabrics (the ``fat-tree-128`` and ``dragonfly-64`` presets).
* Collective algorithms — ``ring-allreduce``, ``recursive-doubling``,
  ``flat-allgather`` and ``hierarchical`` — each returning a
  :class:`CollectiveCost` whose per-phase breakdown sums exactly to the total,
  so the event-driven iteration schedule can place every phase on the network
  lane.
* :class:`CollectiveModel` — a topology plus one algorithm choice per
  operation; the single-level case with ``ring-allreduce``/``flat-allgather``
  reproduces ``NetworkModel.allreduce_time``/``allgather_time`` bit-for-bit
  (the golden tests pin this), which is what makes the refactor safe.

Sparse all-gather payloads grow with the participant count (every worker
contributes its own (index, value) selection), which is why the hierarchical
algorithm helps: the inter-node ring exchanges one node-aggregated payload per
node instead of one per device.  The price is that the aggregate must also be
distributed *inside* each node, so hierarchical only wins when the intra-node
link is sufficiently faster than the inter-node link — see
:func:`hierarchical_crossover_factor` for the exact sufficient condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import (
    CLUSTER_ETHERNET_10G,
    CLUSTER_ETHERNET_25G,
    NODE_INFINIBAND_100G,
    NetworkModel,
    lookup_preset,
)

#: Collective operations the algorithm layer knows how to price.
COLLECTIVE_OPS: tuple[str, ...] = ("allreduce", "allgather")

#: Index-overlap assumptions the sparse-aggregate dedup model supports.
DEDUP_ASSUMPTIONS: tuple[str, ...] = ("uniform", "identical", "disjoint")


@dataclass(frozen=True)
class SparseAggregateModel:
    """Expected size of a deduplicated union of sparse top-k selections.

    When a node leader reduces its ``D`` devices' (index, value) payloads
    before the inter-node exchange, overlapping indices collapse into one
    entry, so the node aggregate is the *union* of the selections — between
    one worker's payload (everyone picked the same indices) and ``D`` payloads
    (nobody overlapped).  Where the union lands depends on how correlated the
    selections are; this model offers the three standard assumptions:

    ``"uniform"``
        Each worker's k indices are an independent uniform draw from the n
        bucket slots.  The expected union is the closed form
        ``n * (1 - (1 - k/n)^D)``, i.e. a per-worker multiplier of
        ``(1 - (1 - rho)^D) / rho`` at density ``rho = k/n``.  Real top-k
        gradients overlap *more* than uniform draws, so this is the
        conservative default.
    ``"identical"``
        Every worker selects exactly the same k indices (perfectly correlated
        gradients) — the lower bound: the union is one worker's payload.
    ``"disjoint"``
        No two workers share an index — the upper bound: the union is the
        plain concatenation, capped at the dense bucket size.
    """

    assumption: str = "uniform"

    def __post_init__(self) -> None:
        if self.assumption not in DEDUP_ASSUMPTIONS:
            raise ValueError(
                f"unknown dedup assumption {self.assumption!r}; "
                f"known: {list(DEDUP_ASSUMPTIONS)}"
            )

    @staticmethod
    def _check(density: float, participants: int) -> None:
        if not 0.0 < density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {density}")
        if participants < 1:
            raise ValueError("participants must be >= 1")

    def union_factor(self, density: float, participants: int) -> float:
        """Expected union size as a multiple of one worker's selection.

        Always in ``[1, min(participants, 1/density)]``: the union can never
        be smaller than one contribution nor larger than the concatenation or
        the dense bucket.
        """
        self._check(density, participants)
        if participants == 1:
            return 1.0
        cap = min(float(participants), 1.0 / density)
        if self.assumption == "identical":
            return 1.0
        if self.assumption == "disjoint":
            return cap
        return min((1.0 - (1.0 - density) ** participants) / density, cap)

    def union_payload_bytes(self, payload_bytes: float, density: float, participants: int) -> float:
        """Expected deduplicated aggregate of ``participants`` payloads of ``payload_bytes``."""
        _check_payload(payload_bytes)
        return payload_bytes * self.union_factor(density, participants)

    def dedup_ratio(self, density: float, participants: int) -> float:
        """Concatenated-over-deduplicated size: how much the reduce shrinks the aggregate."""
        return participants / self.union_factor(density, participants)


@dataclass(frozen=True)
class LinkLevel:
    """One level of a cluster's link hierarchy: ``fanout`` children per group.

    ``link`` prices the fabric joining the level's groups;
    ``oversubscription`` divides its effective bandwidth (a 4:1 oversubscribed
    fat-tree core delivers a quarter of the line rate under all-to-all load)
    and must be >= 1 — oversubscribing a level can never speed it up.
    ``name`` labels the level's phases in collective cost breakdowns
    (``"intra"``/``"inter"`` for the classic two-level decomposition).
    """

    fanout: int
    link: NetworkModel
    oversubscription: float = 1.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {self.fanout}")
        if not self.oversubscription >= 1.0:
            raise ValueError(
                f"oversubscription must be >= 1, got {self.oversubscription}"
            )

    @property
    def effective_link(self) -> NetworkModel:
        """The level's link with oversubscription priced in.

        An oversubscription of exactly 1 returns the link object unchanged, so
        un-oversubscribed levels keep bit-for-bit identity with the two-level
        model they generalize.
        """
        if self.oversubscription == 1.0:
            return self.link
        return NetworkModel(
            bandwidth_gbps=self.link.bandwidth_gbps / self.oversubscription,
            latency_s=self.link.latency_s,
            name=f"{self.link.name}/os{self.oversubscription:g}",
            efficiency=self.link.efficiency,
        )


@dataclass(frozen=True)
class ClusterTopology:
    """A cluster as a hierarchy of link levels.

    The classic construction is two-level — ``num_nodes`` servers with
    ``devices_per_node`` workers each, ``intra_node`` pricing traffic inside a
    server and ``inter_node`` the Ethernet between servers — and either level
    may be trivial, degenerating to the old single-level model.

    ``levels`` generalizes this to an arbitrary hierarchy
    (innermost-to-outermost :class:`LinkLevel` entries, e.g. devices → racks →
    pods for a fat-tree): build one with :meth:`from_levels`.  When ``levels``
    is omitted it is synthesized from the two-level fields, so every
    pre-existing topology is exactly the two-level special case.
    """

    num_nodes: int
    devices_per_node: int
    inter_node: NetworkModel
    intra_node: NetworkModel
    name: str = ""
    levels: tuple[LinkLevel, ...] | None = None

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.devices_per_node < 1:
            raise ValueError("devices_per_node must be >= 1")
        if self.levels is None:
            object.__setattr__(
                self,
                "levels",
                (
                    LinkLevel(self.devices_per_node, self.intra_node, name="intra"),
                    LinkLevel(self.num_nodes, self.inter_node, name="inter"),
                ),
            )
            return
        levels = tuple(self.levels)
        if not levels:
            raise ValueError("levels must contain at least one LinkLevel")
        object.__setattr__(self, "levels", levels)
        outer = 1
        for level in levels[1:]:
            outer *= level.fanout
        if self.devices_per_node != levels[0].fanout or self.num_nodes != outer:
            raise ValueError(
                "two-level summary fields disagree with levels: expected "
                f"devices_per_node={levels[0].fanout}, num_nodes={outer}; use "
                "ClusterTopology.from_levels to build multi-level topologies"
            )

    @classmethod
    def from_levels(cls, levels, *, name: str = "") -> "ClusterTopology":
        """Build a topology from innermost-to-outermost :class:`LinkLevel` entries.

        The legacy two-level summary fields are derived for compatibility:
        ``devices_per_node`` is the innermost fanout, ``num_nodes`` the product
        of the remaining fanouts, and ``intra_node``/``inter_node`` the
        innermost/outermost effective links.
        """
        levels = tuple(levels)
        if not levels:
            raise ValueError("levels must contain at least one LinkLevel")
        num_nodes = 1
        for level in levels[1:]:
            num_nodes *= level.fanout
        return cls(
            num_nodes=num_nodes,
            devices_per_node=levels[0].fanout,
            inter_node=levels[-1].effective_link,
            intra_node=levels[0].effective_link,
            name=name,
            levels=levels,
        )

    @property
    def num_workers(self) -> int:
        return self.num_nodes * self.devices_per_node

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def is_single_level(self) -> bool:
        """True when at most one level has more than one participant."""
        return sum(1 for level in self.levels if level.fanout > 1) <= 1

    @property
    def bottleneck_link(self) -> NetworkModel:
        """The link a flat (topology-oblivious) collective is gated by.

        A ring laid out group-by-group advances every step at the pace of its
        slowest hop: the outermost level that actually spans several groups.
        A fully trivial hierarchy falls back to the innermost link.
        """
        for level in reversed(self.levels):
            if level.fanout > 1:
                return level.effective_link
        return self.levels[0].effective_link

    def degraded(self, factor: float) -> "ClusterTopology":
        """This topology with every link's effective bandwidth cut by ``factor``.

        Models a uniformly degraded fabric (congestion, a failed parallel
        link): each level keeps its structure but delivers ``1/factor`` of
        its bandwidth, i.e. the level's oversubscription grows by ``factor``.
        ``factor == 1`` returns ``self`` unchanged, preserving bit-for-bit
        identity with the clean fabric.
        """
        factor = float(factor)
        if not math.isfinite(factor) or factor < 1.0:
            raise ValueError(f"degradation factor must be finite and >= 1, got {factor!r}")
        if factor == 1.0:
            return self
        levels = tuple(
            LinkLevel(
                fanout=level.fanout,
                link=level.link,
                oversubscription=level.oversubscription * factor,
                name=level.name,
            )
            for level in self.levels
        )
        name = f"{self.name}/deg{factor:g}" if self.name else f"deg{factor:g}"
        return ClusterTopology.from_levels(levels, name=name)

    @classmethod
    def flat(cls, network: NetworkModel, num_workers: int, *, name: str = "") -> "ClusterTopology":
        """The degenerate single-level topology: every worker on one shared link."""
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        return cls(
            num_nodes=num_workers,
            devices_per_node=1,
            inter_node=network,
            intra_node=network,
            name=name or f"flat-{network.name}-x{num_workers}",
        )


@dataclass(frozen=True)
class CollectivePhase:
    """One phase of a collective: where it runs, how long, how much it moves.

    ``start`` is the phase's relative start offset within the collective:
    ``None`` means "serial — right after the previous phase" (the pre-pipeline
    contract), an explicit float places the phase on a pipelined timeline
    where phases on *different* links may overlap.  ``chunk`` identifies which
    payload chunk a pipelined phase carries (``None`` for unchunked phases).
    """

    name: str
    link: str
    seconds: float
    volume_bytes: float = 0.0
    start: float | None = None
    chunk: int | None = None


@dataclass(frozen=True)
class CollectiveCost:
    """Per-phase cost breakdown of one collective operation.

    For serial phases (``start is None`` throughout — every pre-pipeline
    algorithm), ``total`` is the plain sum of the phase durations: phase *k+1*
    consumes phase *k*'s output, which is what lets the schedule simulator
    place them back-to-back on the network lane.  Chunk-pipelined costs carry
    explicitly placed phases instead, and ``total`` is the makespan — the end
    of the last phase, with same-link phases still strictly serial.
    """

    op: str
    algorithm: str
    num_workers: int
    phases: tuple[CollectivePhase, ...] = ()
    #: Number of payload chunks the phases were pipelined over (1 = serial).
    pipeline_chunks: int = 1
    #: Concatenated-over-deduplicated node-aggregate size achieved by the
    #: sparse dedup model (1.0 when dedup is off or structurally impossible).
    dedup_ratio: float = 1.0

    @property
    def total(self) -> float:
        total = 0.0
        cursor = 0.0
        for phase in self.phases:
            start = cursor if phase.start is None else phase.start
            end = start + phase.seconds
            cursor = end
            if end > total:
                total = end
        return total

    @property
    def is_pipelined(self) -> bool:
        """True when any phase carries an explicit pipelined placement."""
        return any(phase.start is not None for phase in self.phases)

    @property
    def serial_seconds(self) -> float:
        """The back-to-back traversal time: plain sum of every phase duration."""
        total = 0.0
        for phase in self.phases:
            total += phase.seconds
        return total

    @property
    def volume_bytes(self) -> float:
        return sum(phase.volume_bytes for phase in self.phases)


@dataclass(frozen=True, eq=False)
class PhaseTable:
    """Batched serial collective pricing: one (bucket, phase) matrix per field.

    For a fixed topology and algorithm every bucket's cost has the same phase
    structure (trivial levels contribute no phases regardless of payload), so
    ``B`` buckets price as ``(B, P)`` matrices sharing per-column names and
    links.  Row ``b`` is elementwise bit-identical to the scalar
    :class:`CollectiveCost` of bucket ``b`` — the affine per-phase pricing
    ``steps * (latency + payload / bandwidth)`` commutes with batching — which
    is what lets the vectorized scheduler reproduce the loop backend exactly.
    """

    names: tuple[str, ...]
    links: tuple[str, ...]
    #: (B, P) serial per-phase durations, in phase order.
    seconds: np.ndarray
    #: (B, P) per-phase wire volumes.
    volumes: np.ndarray
    #: (B,) per-bucket achieved dedup ratios.
    dedup_ratios: np.ndarray

    @property
    def num_buckets(self) -> int:
        return self.seconds.shape[0]

    @property
    def totals(self) -> np.ndarray:
        """(B,) serial collective totals — the cumulative cursor walk, batched."""
        if self.seconds.shape[1] == 0:
            return np.zeros(self.num_buckets)
        return np.cumsum(self.seconds, axis=1)[:, -1]


def _check_payload(num_bytes: float) -> None:
    if num_bytes < 0:
        raise ValueError("payload bytes must be non-negative")


def validate_pipeline_chunks(pipeline_chunks: int) -> int:
    """Return ``pipeline_chunks`` if it is a valid chunk count, else raise."""
    if (
        not isinstance(pipeline_chunks, int)
        or isinstance(pipeline_chunks, bool)
        or pipeline_chunks < 1
    ):
        raise ValueError(f"pipeline_chunks must be a positive integer, got {pipeline_chunks!r}")
    return pipeline_chunks


@dataclass(frozen=True)
class _PhaseSpec:
    """Serial description of one collective phase, ready to be chunk-pipelined.

    ``steps`` messages of ``step_bytes`` each over ``link``; the serial
    duration is ``steps * (latency + step_bytes / bandwidth)``, and splitting
    the payload into ``C`` chunks makes each chunk cost
    ``steps * (latency + (step_bytes / C) / bandwidth)`` — the latency is paid
    per chunk, which is why pipelining only wins when the overlap across
    links recovers more than the extra message starts.
    """

    name: str
    link: NetworkModel
    steps: int
    step_bytes: float
    volume_bytes: float

    def chunk_seconds(self, pipeline_chunks: int) -> float:
        return self.steps * (
            self.link.latency_s + (self.step_bytes / pipeline_chunks) / self.link.bytes_per_second
        )


def _pipeline_phases(
    specs: list[_PhaseSpec], serial: list[CollectivePhase], pipeline_chunks: int
) -> list[CollectivePhase]:
    """Chunk-pipeline a multi-phase collective, falling back to serial when it loses.

    Chunk *c*'s phase *p* starts once the same link has drained chunk *c-1*'s
    phase *p* and phase *p-1* has delivered chunk *c* — the classic software
    pipeline, whose makespan is latency + max-dominated instead of a pure sum.
    Because every chunk pays each phase's message latencies again, chunking a
    single-phase (or latency-bound) collective is a strict loss; this helper
    then returns the serial phases unchanged, so the pipelined cost is never
    worse than the serial one.
    """
    if not specs or pipeline_chunks == 1:
        return serial
    serial_total = 0.0
    for phase in serial:
        serial_total += phase.seconds
    chunk_seconds = [spec.chunk_seconds(pipeline_chunks) for spec in specs]
    # Greedy earliest-start list scheduling: an operation (chunk c, phase p)
    # becomes ready when phase p-1 has delivered chunk c, and every link
    # serves its queue work-conservingly — one transfer at a time, earliest
    # ready first.  Tracking occupancy per *link* (not per phase) matters
    # because several phases may share a fabric (e.g. the hierarchical
    # all-gather's intra-node gather and broadcast), and two chunks' phases
    # must never overlap on one wire.
    spans: dict[tuple[int, int], tuple[float, float]] = {}
    link_free: dict[str, float] = {}
    pending = [(chunk, p) for chunk in range(pipeline_chunks) for p in range(len(specs))]
    while pending:
        best = None
        for chunk, p in pending:
            if p > 0 and (chunk, p - 1) not in spans:
                continue
            ready = spans[(chunk, p - 1)][1] if p > 0 else 0.0
            start = max(ready, link_free.get(specs[p].link.name, 0.0))
            key = (start, chunk, p)
            if best is None or key < best[0]:
                best = (key, chunk, p, start)
        _, chunk, p, start = best
        end = start + chunk_seconds[p]
        spans[(chunk, p)] = (start, end)
        link_free[specs[p].link.name] = end
        pending.remove((chunk, p))
    makespan = max(end for _, end in spans.values())
    if makespan >= serial_total:
        return serial
    return [
        CollectivePhase(
            name=specs[p].name,
            link=specs[p].link.name,
            seconds=chunk_seconds[p],
            volume_bytes=specs[p].volume_bytes / pipeline_chunks,
            start=spans[(chunk, p)][0],
            chunk=chunk,
        )
        for chunk in range(pipeline_chunks)
        for p in range(len(specs))
    ]


class CollectiveAlgorithm:
    """Base class: prices one or both collective ops over a :class:`ClusterTopology`.

    ``density``, ``dedup`` and ``pipeline_chunks`` are accepted by every
    algorithm so :class:`CollectiveModel` can thread them uniformly; only the
    algorithms with a per-node reduce point (hierarchical) and phases on more
    than one link can act on them — single-link collectives have nothing to
    deduplicate or overlap, so the knobs are documented no-ops there.
    """

    name: str = ""
    supported_ops: tuple[str, ...] = ()
    #: Instance-level knob defaults, overridable per :meth:`cost` call.
    pipeline_chunks: int = 1
    dedup: SparseAggregateModel | None = None

    def cost(
        self,
        topology: ClusterTopology,
        op: str,
        num_bytes: float,
        *,
        density: float | None = None,
        dedup: SparseAggregateModel | None = None,
        pipeline_chunks: int | None = None,
    ) -> CollectiveCost:
        if op not in COLLECTIVE_OPS:
            raise ValueError(f"unknown collective op {op!r}; known: {list(COLLECTIVE_OPS)}")
        if op not in self.supported_ops:
            raise ValueError(
                f"algorithm {self.name!r} does not model {op!r}; "
                f"it supports {list(self.supported_ops)}"
            )
        _check_payload(num_bytes)
        if pipeline_chunks is None:
            pipeline_chunks = self.pipeline_chunks
        validate_pipeline_chunks(pipeline_chunks)
        if dedup is None:
            dedup = self.dedup
        phases, dedup_ratio = getattr(self, "_" + op)(
            topology, num_bytes, density=density, dedup=dedup, pipeline_chunks=pipeline_chunks
        )
        phases = tuple(phases)
        # Report the chunk count actually priced: a latency-bound fallback to
        # serial phases (or an algorithm with nothing to pipeline) is 1-chunk
        # pricing no matter what the caller asked for.
        priced_chunks = pipeline_chunks if any(p.start is not None for p in phases) else 1
        return CollectiveCost(
            op=op,
            algorithm=self.name,
            num_workers=topology.num_workers,
            phases=phases,
            pipeline_chunks=priced_chunks,
            dedup_ratio=dedup_ratio,
        )

    def batched_allgather(
        self,
        topology: ClusterTopology,
        payloads: np.ndarray,
        densities: list[float | None],
        dedup: SparseAggregateModel | None,
    ) -> PhaseTable | None:
        """Serial all-gather pricing for a whole batch of bucket payloads.

        Returns ``None`` when the algorithm has no batched form (the caller
        falls back to per-bucket :meth:`cost` calls).  Implementations must be
        row-for-row bit-identical to the scalar pricing — the contract the
        vectorized scheduler backend builds on.
        """
        return None


class RingAllreduce(CollectiveAlgorithm):
    """Ring all-reduce: reduce-scatter then all-gather, ``2(N-1)`` chunk steps.

    On a single-level topology the two phases sum exactly to
    ``NetworkModel.allreduce_time`` (each phase is ``(N-1)`` steps of one
    ``1/N`` chunk; doubling a float is exact, so the split is lossless).
    """

    name = "ring-allreduce"
    supported_ops = ("allreduce",)

    def _allreduce(self, topology: ClusterTopology, num_bytes: float, **_knobs):
        n = topology.num_workers
        if n == 1:
            return [], 1.0
        link = topology.bottleneck_link
        chunk = num_bytes / n
        seconds = (n - 1) * (link.latency_s + chunk / link.bytes_per_second)
        volume = (n - 1) * chunk
        return [
            CollectivePhase("reduce-scatter", link.name, seconds, volume),
            CollectivePhase("ring-allgather", link.name, seconds, volume),
        ], 1.0


class RecursiveDoubling(CollectiveAlgorithm):
    """Recursive doubling: ``ceil(log2 N)`` rounds of pairwise exchange.

    All-reduce exchanges the full buffer every round (few latencies, more
    bytes — the latency-bound regime ring all-reduce loses in).  All-gather
    doubles the gathered block every round, so the total volume matches the
    ring's ``(N-1)`` payloads while paying only ``log2 N`` latencies.
    """

    name = "recursive-doubling"
    supported_ops = ("allreduce", "allgather")

    def _allreduce(self, topology: ClusterTopology, num_bytes: float, **_knobs):
        n = topology.num_workers
        if n == 1:
            return [], 1.0
        link = topology.bottleneck_link
        rounds = math.ceil(math.log2(n))
        return [
            CollectivePhase(
                f"round-{k}",
                link.name,
                link.latency_s + num_bytes / link.bytes_per_second,
                num_bytes,
            )
            for k in range(rounds)
        ], 1.0

    def _allgather(self, topology: ClusterTopology, num_bytes: float, **_knobs):
        n = topology.num_workers
        if n == 1:
            return [], 1.0
        link = topology.bottleneck_link
        rounds = math.ceil(math.log2(n))
        phases = []
        for k in range(rounds):
            block = min(2**k, n - 2**k) * num_bytes
            phases.append(
                CollectivePhase(
                    f"round-{k}",
                    link.name,
                    link.latency_s + block / link.bytes_per_second,
                    block,
                )
            )
        return phases, 1.0

    def batched_allgather(self, topology, payloads, densities, dedup):
        payloads = np.asarray(payloads, dtype=float)
        num_buckets = payloads.shape[0]
        n = topology.num_workers
        if n == 1:
            return PhaseTable(
                (), (), np.zeros((num_buckets, 0)), np.zeros((num_buckets, 0)),
                np.ones(num_buckets),
            )
        link = topology.bottleneck_link
        rounds = math.ceil(math.log2(n))
        blocks = np.stack(
            [min(2**k, n - 2**k) * payloads for k in range(rounds)], axis=1
        )
        return PhaseTable(
            names=tuple(f"round-{k}" for k in range(rounds)),
            links=(link.name,) * rounds,
            seconds=link.latency_s + blocks / link.bytes_per_second,
            volumes=blocks,
            dedup_ratios=np.ones(num_buckets),
        )


class FlatAllgather(CollectiveAlgorithm):
    """Topology-oblivious ring all-gather: ``N-1`` steps of one payload each.

    The single-level case is, expression for expression, the old
    ``NetworkModel.allgather_time`` closed form; on a multi-node topology
    every step is gated by the inter-node hop (see
    :attr:`ClusterTopology.bottleneck_link`).
    """

    name = "flat-allgather"
    supported_ops = ("allgather",)

    def _allgather(self, topology: ClusterTopology, num_bytes: float, **_knobs):
        n = topology.num_workers
        if n == 1:
            return [], 1.0
        link = topology.bottleneck_link
        steps = n - 1
        seconds = steps * (link.latency_s + num_bytes / link.bytes_per_second)
        return [CollectivePhase("ring-allgather", link.name, seconds, steps * num_bytes)], 1.0

    def batched_allgather(self, topology, payloads, densities, dedup):
        payloads = np.asarray(payloads, dtype=float)
        num_buckets = payloads.shape[0]
        n = topology.num_workers
        if n == 1:
            return PhaseTable(
                (), (), np.zeros((num_buckets, 0)), np.zeros((num_buckets, 0)),
                np.ones(num_buckets),
            )
        link = topology.bottleneck_link
        steps = n - 1
        seconds = steps * (link.latency_s + payloads / link.bytes_per_second)
        return PhaseTable(
            names=("ring-allgather",),
            links=(link.name,),
            seconds=seconds[:, None],
            volumes=(steps * payloads)[:, None],
            dedup_ratios=np.ones(num_buckets),
        )


def _aggregate_factor(
    dedup: SparseAggregateModel | None, density: float | None, size: int
) -> float:
    """Size of a ``size``-worker sparse aggregate, in payloads per worker.

    With a dedup model and a known density the aggregate is the expected index
    union; otherwise it is the raw concatenation.  Shared by the serial and
    batched hierarchical pricing so both compute bit-identical factors.
    """
    if dedup is not None and density is not None and size > 1:
        return dedup.union_factor(density, size)
    return float(size)


class Hierarchical(CollectiveAlgorithm):
    """Multi-level collective: gather up the hierarchy, exchange at the top, broadcast down.

    *All-gather* (sparse payloads, one per worker): every non-outermost level
    ring-gathers its groups' aggregates to a leader over that level's link,
    the outermost level's leaders ring-all-gather the full subtree aggregates,
    and each lower level broadcasts the global result back down.  On the
    classic two-level topology this is exactly: each node gathers its ``D``
    device payloads, the ``M`` leaders exchange ``D``-payload aggregates over
    ``M-1`` inter-node steps (instead of ``N-1``), and each leader broadcasts
    the ``N``-payload result to its devices.

    *All-reduce* (dense): binomial-tree reduce towards the top at every lower
    level, ring all-reduce among the outermost leaders, binomial broadcast
    back down — volume does not grow with participants, so the win is purely
    fewer top-level latencies/steps.

    Degenerate cases collapse exactly: a trivial level (``fanout == 1``)
    contributes no phases, so ``devices_per_node == 1`` leaves only the
    inter-node phase (identical to the flat/ring algorithm), ``num_nodes ==
    1`` leaves only the intra-node phases, and one worker costs zero.

    Two knobs refine the sparse all-gather beyond the PR-3 serial pricing:

    * ``dedup`` + ``density`` — the node leader's reduce deduplicates
      overlapping indices before the inter-node exchange, so the node
      aggregate shrinks from ``D`` payloads to the expected union
      (:class:`SparseAggregateModel`), and the final broadcast ships the
      global union instead of the raw ``N - 1``-payload concatenation.  The
      no-dedup case matches the disjoint-union bound while the dense-bucket
      cap is slack (density <= 1/participants); past it, even disjoint
      selections cannot exceed the bucket, so ``disjoint`` prices lower.
    * ``pipeline_chunks`` — the payload is split into chunks and the
      intra/inter phases overlap chunk-by-chunk, so the cost becomes latency
      + max-dominated instead of a pure phase sum.  ``pipeline_chunks=1`` (or
      any chunking that loses to the extra message latencies) keeps the
      serial phases bit-for-bit.
    """

    name = "hierarchical"
    supported_ops = ("allreduce", "allgather")

    def __init__(
        self,
        pipeline_chunks: int = 1,
        dedup: SparseAggregateModel | None = None,
    ) -> None:
        self.pipeline_chunks = validate_pipeline_chunks(pipeline_chunks)
        self.dedup = dedup

    def _allgather(
        self,
        topology: ClusterTopology,
        num_bytes: float,
        *,
        density: float | None = None,
        dedup: SparseAggregateModel | None = None,
        pipeline_chunks: int = 1,
    ):
        levels = topology.levels
        n = topology.num_workers
        # Each reduce point dedups its subtree's overlapping selections into
        # one aggregate; the final broadcasts ship the n-worker global union.
        # The no-dedup aggregates (``size`` payloads) coincide with the
        # disjoint-union bound until its dense-bucket cap bites (density >
        # 1/participants), which is why both paths share one formula pair.
        phases = []
        specs = []
        # Upward: every non-outermost level gathers its groups' subtree
        # aggregates to a leader, f-1 ring steps of the growing aggregate.
        subtree = 1
        for level in levels[:-1]:
            if level.fanout > 1:
                link = level.effective_link
                payload = _aggregate_factor(dedup, density, subtree) * num_bytes
                steps = level.fanout - 1
                seconds = steps * (link.latency_s + payload / link.bytes_per_second)
                phase_name = f"{level.name or 'level'}-gather"
                phases.append(
                    CollectivePhase(phase_name, link.name, seconds, steps * payload)
                )
                specs.append(_PhaseSpec(phase_name, link, steps, payload, steps * payload))
            subtree *= level.fanout
        # Top: the outermost level's leaders ring-all-gather the aggregates.
        top = levels[-1]
        if top.fanout > 1:
            link = top.effective_link
            payload = _aggregate_factor(dedup, density, subtree) * num_bytes
            steps = top.fanout - 1
            seconds = steps * (link.latency_s + payload / link.bytes_per_second)
            phase_name = f"{top.name or 'top'}-allgather"
            phases.append(CollectivePhase(phase_name, link.name, seconds, steps * payload))
            specs.append(_PhaseSpec(phase_name, link, steps, payload, steps * payload))
        # Downward: each lower level broadcasts the global aggregate (minus
        # the receiver's own payload) back towards the devices.
        gathered = (_aggregate_factor(dedup, density, n) - 1.0) * num_bytes
        for level in reversed(levels[:-1]):
            if level.fanout > 1:
                link = level.effective_link
                seconds = link.latency_s + gathered / link.bytes_per_second
                phase_name = f"{level.name or 'level'}-broadcast"
                phases.append(CollectivePhase(phase_name, link.name, seconds, gathered))
                specs.append(_PhaseSpec(phase_name, link, 1, gathered, gathered))
        # The dedup win is measured at the top-level exchange: how much the
        # below-top subtree aggregate shrank versus plain concatenation.
        dedup_ratio = subtree / _aggregate_factor(dedup, density, subtree)
        if pipeline_chunks > 1:
            phases = _pipeline_phases(specs, phases, pipeline_chunks)
        return phases, dedup_ratio

    def _allreduce(
        self,
        topology: ClusterTopology,
        num_bytes: float,
        *,
        density: float | None = None,
        dedup: SparseAggregateModel | None = None,
        pipeline_chunks: int = 1,
    ):
        levels = topology.levels
        phases = []
        specs = []

        def tree_phase(level: LinkLevel, suffix: str) -> None:
            link = level.effective_link
            rounds = math.ceil(math.log2(level.fanout))
            seconds = rounds * (link.latency_s + num_bytes / link.bytes_per_second)
            phase_name = f"{level.name or 'level'}-{suffix}"
            phases.append(
                CollectivePhase(phase_name, link.name, seconds, rounds * num_bytes)
            )
            specs.append(_PhaseSpec(phase_name, link, rounds, num_bytes, rounds * num_bytes))

        # Binomial-tree reduce towards the top at every non-outermost level...
        for level in levels[:-1]:
            if level.fanout > 1:
                tree_phase(level, "reduce")
        # ...ring all-reduce among the outermost leaders...
        top = levels[-1]
        if top.fanout > 1:
            link = top.effective_link
            chunk = num_bytes / top.fanout
            steps = 2 * (top.fanout - 1)
            seconds = steps * (link.latency_s + chunk / link.bytes_per_second)
            phase_name = f"{top.name or 'top'}-allreduce"
            phases.append(CollectivePhase(phase_name, link.name, seconds, steps * chunk))
            specs.append(_PhaseSpec(phase_name, link, steps, chunk, steps * chunk))
        # ...and binomial broadcast back down.
        for level in reversed(levels[:-1]):
            if level.fanout > 1:
                tree_phase(level, "broadcast")
        if pipeline_chunks > 1:
            phases = _pipeline_phases(specs, phases, pipeline_chunks)
        return phases, 1.0

    def batched_allgather(self, topology, payloads, densities, dedup):
        payloads = np.asarray(payloads, dtype=float)
        num_buckets = payloads.shape[0]
        levels = topology.levels
        n = topology.num_workers

        distinct_densities = set(densities)
        factor_cache: dict[int, np.ndarray] = {}

        def factors(size: int) -> np.ndarray:
            # Per-bucket union factors via the same scalar helper the serial
            # path uses — bit-identical by construction — evaluated once per
            # distinct (density, size) pair: sweeps usually compress every
            # bucket at one ratio, collapsing the O(B) loop to a dict lookup.
            cached = factor_cache.get(size)
            if cached is None:
                by_density = {
                    density: _aggregate_factor(dedup, density, size)
                    for density in distinct_densities
                }
                cached = factor_cache[size] = np.array(
                    [by_density[density] for density in densities]
                )
            return cached

        names: list[str] = []
        links: list[str] = []
        seconds_cols: list[np.ndarray] = []
        volume_cols: list[np.ndarray] = []
        subtree = 1
        for level in levels[:-1]:
            if level.fanout > 1:
                link = level.effective_link
                payload = factors(subtree) * payloads
                steps = level.fanout - 1
                names.append(f"{level.name or 'level'}-gather")
                links.append(link.name)
                seconds_cols.append(
                    steps * (link.latency_s + payload / link.bytes_per_second)
                )
                volume_cols.append(steps * payload)
            subtree *= level.fanout
        top = levels[-1]
        if top.fanout > 1:
            link = top.effective_link
            payload = factors(subtree) * payloads
            steps = top.fanout - 1
            names.append(f"{top.name or 'top'}-allgather")
            links.append(link.name)
            seconds_cols.append(steps * (link.latency_s + payload / link.bytes_per_second))
            volume_cols.append(steps * payload)
        gathered = (factors(n) - 1.0) * payloads
        for level in reversed(levels[:-1]):
            if level.fanout > 1:
                link = level.effective_link
                names.append(f"{level.name or 'level'}-broadcast")
                links.append(link.name)
                seconds_cols.append(link.latency_s + gathered / link.bytes_per_second)
                volume_cols.append(gathered)
        if seconds_cols:
            seconds = np.stack(seconds_cols, axis=1)
            volumes = np.stack(volume_cols, axis=1)
        else:
            seconds = np.zeros((num_buckets, 0))
            volumes = np.zeros((num_buckets, 0))
        return PhaseTable(
            names=tuple(names),
            links=tuple(links),
            seconds=seconds,
            volumes=volumes,
            dedup_ratios=subtree / factors(subtree),
        )


#: Pluggable collective algorithms, keyed by name.
COLLECTIVE_ALGORITHMS: dict[str, CollectiveAlgorithm] = {
    algo.name: algo
    for algo in (RingAllreduce(), RecursiveDoubling(), FlatAllgather(), Hierarchical())
}


def get_collective_algorithm(name: str, *, op: str | None = None) -> CollectiveAlgorithm:
    """Look up a collective algorithm by name, optionally requiring ``op`` support."""
    key = name.lower()
    if key not in COLLECTIVE_ALGORITHMS:
        raise ValueError(
            f"unknown collective algorithm {name!r}; known: {sorted(COLLECTIVE_ALGORITHMS)}"
        )
    algorithm = COLLECTIVE_ALGORITHMS[key]
    if op is not None and op not in algorithm.supported_ops:
        raise ValueError(
            f"collective algorithm {name!r} does not model {op!r}; "
            f"it supports {list(algorithm.supported_ops)}"
        )
    return algorithm


def hierarchical_crossover_factor(topology: ClusterTopology) -> float:
    """Intra/inter effective-bandwidth ratio above which hierarchical all-gather always wins.

    With serial phases, the hierarchical all-gather must move the full
    ``(N-1)``-payload aggregate over the intra-node link (gather + broadcast)
    to save ``D-1`` of every ``D`` payloads on the inter-node ring, so merely
    matching the inter-node bandwidth is *not* enough — at equal bandwidths it
    moves strictly more bytes than the flat ring.  Comparing the closed forms
    (``p`` the per-worker payload, ``L/b`` latency and effective bandwidth,
    ``a``/``i`` the intra/inter links)::

        hierarchical <= flat
          <=>  D*L_a + (N+D-2) * p/b_a  <=  (N-M)*L_i + (D-1) * p/b_i

    which holds for *every* payload whenever ``L_a <= L_i`` (the intra fabric
    is no slower to start a message; ``D <= N-M`` covers the latency terms)
    and ``b_a >= b_i * (N+D-2)/(D-1)`` — the factor this function returns.
    Multi-GPU servers clear it easily: the 4x8 Ethernet preset needs ~5.4x
    and its InfiniBand intra-node link is ~17x the effective TCP rate.

    Single-level topologies have nothing to cross over, so the factor is
    ``inf`` (hierarchical degenerates to the flat algorithm instead).
    """
    if topology.is_single_level:
        return math.inf
    n, d = topology.num_workers, topology.devices_per_node
    return (n + d - 2) / (d - 1)


@dataclass(frozen=True)
class CollectiveModel:
    """A cluster topology plus one algorithm choice per collective operation.

    The single-level model built by :meth:`flat` with the default algorithms
    reproduces ``NetworkModel.allreduce_time``/``allgather_time`` exactly —
    the old closed forms are the degenerate case of this layer.

    ``pipeline_chunks`` and ``allgather_dedup`` thread the hierarchical
    algorithm's chunk-pipelining and sparse-dedup knobs through every priced
    collective; both default to off (``1`` / ``None``), in which case the
    model reproduces the serial PR-3 costs bit-for-bit.  Single-link
    algorithms have nothing to overlap or deduplicate, so the knobs are
    no-ops for them.
    """

    topology: ClusterTopology
    allreduce_algorithm: str = "ring-allreduce"
    allgather_algorithm: str = "flat-allgather"
    #: Payload chunks the hierarchical phases pipeline over (1 = serial).
    pipeline_chunks: int = 1
    #: Sparse-aggregate dedup model applied to hierarchical all-gathers when
    #: the caller supplies a payload density; ``None`` disables dedup.
    allgather_dedup: SparseAggregateModel | None = None

    def __post_init__(self) -> None:
        get_collective_algorithm(self.allreduce_algorithm, op="allreduce")
        get_collective_algorithm(self.allgather_algorithm, op="allgather")
        validate_pipeline_chunks(self.pipeline_chunks)

    @property
    def num_workers(self) -> int:
        return self.topology.num_workers

    @classmethod
    def flat(cls, network: NetworkModel, num_workers: int, **kwargs) -> "CollectiveModel":
        """Degenerate single-level model over one shared link (the pre-topology behaviour)."""
        return cls(topology=ClusterTopology.flat(network, num_workers), **kwargs)

    def allreduce_cost(self, num_bytes: float) -> CollectiveCost:
        """Per-phase cost of all-reducing a dense buffer of ``num_bytes``."""
        algorithm = get_collective_algorithm(self.allreduce_algorithm, op="allreduce")
        return algorithm.cost(
            self.topology, "allreduce", num_bytes, pipeline_chunks=self.pipeline_chunks
        )

    def allgather_cost(
        self, payload_bytes_per_worker: float, *, density: float | None = None
    ) -> CollectiveCost:
        """Per-phase cost of all-gathering one sparse payload per worker.

        ``density`` is the payload's non-zero fraction of its dense bucket;
        it feeds the sparse dedup model (when one is configured) so the
        hierarchical inter-node exchange carries the expected index union
        instead of the raw concatenation.  ``None`` (unknown density)
        disables dedup for this call.
        """
        algorithm = get_collective_algorithm(self.allgather_algorithm, op="allgather")
        return algorithm.cost(
            self.topology,
            "allgather",
            payload_bytes_per_worker,
            density=density,
            dedup=self.allgather_dedup,
            pipeline_chunks=self.pipeline_chunks,
        )

    def allgather_phase_table(
        self, payloads, densities: list[float | None]
    ) -> PhaseTable | None:
        """Batched all-gather pricing for ``B`` bucket payloads at once.

        ``payloads`` is a length-``B`` array of per-worker payload bytes and
        ``densities`` the matching per-bucket dense fractions (``None``
        disables dedup for that bucket, exactly like
        :meth:`allgather_cost`).  Returns ``None`` when the configuration has
        no batched form — chunk pipelining reshapes phases per payload, and a
        custom algorithm may not implement batching — in which case callers
        fall back to per-bucket :meth:`allgather_cost` calls.  Row ``b`` of a
        returned table is bit-identical to ``allgather_cost(payloads[b],
        density=densities[b])``.
        """
        if self.pipeline_chunks != 1:
            return None
        algorithm = get_collective_algorithm(self.allgather_algorithm, op="allgather")
        return algorithm.batched_allgather(
            self.topology, payloads, densities, self.allgather_dedup
        )

    def allreduce_time(self, num_bytes: float) -> float:
        return self.allreduce_cost(num_bytes).total

    def allgather_time(self, payload_bytes_per_worker: float) -> float:
        return self.allgather_cost(payload_bytes_per_worker).total


#: Appendix D, Cluster 1: 8 single-GPU servers on 10 Gbps (or 25 Gbps) TCP
#: Ethernet.  One device per node, so the intra-node link never carries
#: collective traffic; it is set to the in-server InfiniBand-class bus for
#: completeness.
TOPOLOGY_CLUSTER1_10G = ClusterTopology(
    num_nodes=8,
    devices_per_node=1,
    inter_node=CLUSTER_ETHERNET_10G,
    intra_node=NODE_INFINIBAND_100G,
    name="cluster1-ethernet-10g",
)
TOPOLOGY_CLUSTER1_25G = ClusterTopology(
    num_nodes=8,
    devices_per_node=1,
    inter_node=CLUSTER_ETHERNET_25G,
    intra_node=NODE_INFINIBAND_100G,
    name="cluster1-ethernet-25g",
)

#: Appendix D, Cluster 2: one shared server with 8 GPUs on a 100 Gbps
#: InfiniBand/NVLink-class fabric.  Single node, so the inter-node link is
#: idle; it is set to the datacentre Ethernet the server hangs off.
TOPOLOGY_CLUSTER2_100G = ClusterTopology(
    num_nodes=1,
    devices_per_node=8,
    inter_node=CLUSTER_ETHERNET_10G,
    intra_node=NODE_INFINIBAND_100G,
    name="cluster2-infiniband-100g",
)

#: The two-level scaling scenario the hierarchical algorithms target: 4
#: Cluster 2-class servers (8 devices each on InfiniBand) joined by Cluster
#: 1's 10 Gbps TCP Ethernet.
TOPOLOGY_ETHERNET_4X8 = ClusterTopology(
    num_nodes=4,
    devices_per_node=8,
    inter_node=CLUSTER_ETHERNET_10G,
    intra_node=NODE_INFINIBAND_100G,
    name="ethernet-4x8",
)

#: A 4x4 2-D torus of single-GPU boxes: every row is a 25 Gbps Ethernet ring,
#: rows are joined column-wise by the 10 Gbps fabric.  Expressed through the
#: same two-level decomposition the hierarchical algorithms use — the row ring
#: plays the intra-node role (gather along the row first), the column ring
#: the inter-node role — which is exactly how 2-D torus collectives
#: decompose dimension-by-dimension.
TOPOLOGY_TORUS_2D = ClusterTopology(
    num_nodes=4,
    devices_per_node=4,
    inter_node=CLUSTER_ETHERNET_10G,
    intra_node=CLUSTER_ETHERNET_25G,
    name="torus-2d",
)

#: A production-scale three-tier fat-tree: 128 nodes of 8 InfiniBand-coupled
#: devices, 8 nodes per rack on 25 Gbps edge links, 4 racks per pod behind a
#: 2:1 oversubscribed 25 Gbps aggregation tier, and 4 pods behind a 4:1
#: oversubscribed 10 Gbps core — the hierarchy ROADMAP item 1 asks for, where
#: the two-level presets stop at 4x8.
TOPOLOGY_FAT_TREE_128 = ClusterTopology.from_levels(
    (
        LinkLevel(8, NODE_INFINIBAND_100G, name="node"),
        LinkLevel(8, CLUSTER_ETHERNET_25G, name="rack"),
        LinkLevel(4, CLUSTER_ETHERNET_25G, oversubscription=2.0, name="pod"),
        LinkLevel(4, CLUSTER_ETHERNET_10G, oversubscription=4.0, name="core"),
    ),
    name="fat-tree-128",
)

#: A dragonfly of 8 groups x 8 nodes x 4 devices (64 nodes, 256 workers):
#: all-to-all 25 Gbps links inside a group, 2:1 oversubscribed 10 Gbps global
#: links between groups.
TOPOLOGY_DRAGONFLY_64 = ClusterTopology.from_levels(
    (
        LinkLevel(4, NODE_INFINIBAND_100G, name="node"),
        LinkLevel(8, CLUSTER_ETHERNET_25G, name="group"),
        LinkLevel(8, CLUSTER_ETHERNET_10G, oversubscription=2.0, name="global"),
    ),
    name="dragonfly-64",
)

TOPOLOGIES: dict[str, ClusterTopology] = {
    "cluster1": TOPOLOGY_CLUSTER1_10G,
    "cluster1-25g": TOPOLOGY_CLUSTER1_25G,
    "cluster2": TOPOLOGY_CLUSTER2_100G,
    "ethernet-4x8": TOPOLOGY_ETHERNET_4X8,
    "torus-2d": TOPOLOGY_TORUS_2D,
    "fat-tree-128": TOPOLOGY_FAT_TREE_128,
    "dragonfly-64": TOPOLOGY_DRAGONFLY_64,
}


def get_topology(name: str) -> ClusterTopology:
    """Look up a predefined cluster topology by short key or full name."""
    return lookup_preset(TOPOLOGIES, name, "topology")
