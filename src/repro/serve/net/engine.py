"""The network replay engine: hop-by-hop cache probing over a topology.

:class:`NetworkReplayEngine` routes every request from its receiver
toward the origin along the topology's precomputed route, probing each
caching node on the way; the first node holding the content serves it
(the source always can), and on the return path the pluggable
:class:`~repro.serve.net.strategies.PlacementStrategy` decides which
nodes keep a copy — each placement passing through the node's finite
:class:`~repro.serve.net.queue.AdmissionQueue` first.

Execution shape
---------------
Node caches are shared by every receiver, so a network replay cannot
shard per receiver the way :class:`~repro.serve.engine.ServingEngine`
shards per EDP.  The parallel unit is instead the **replica**: each
replica replays the whole network against its own independent request
streams (receiver ``r`` of replica ``j`` consumes lane
``j * n_receivers + r`` of one shared
:class:`~repro.serve.stream.RequestStream`), and replicas are grouped
into :class:`~repro.runtime.ExecutionPlan` work items.  Every lane's
draws are keyed per ``(lane, slot)`` from the root seed, each replica
is replayed slot-ordered in one item, and per-item results and
telemetry merge in item order — so reports are bit-identical across
``serial`` and any ``process:N`` backend, across shard counts, and
across chunk sizes.

Semantics (documented in ``docs/serving.md``)
---------------------------------------------
* A slot's batch of ``c`` requests for content ``k`` probes the route
  once; all ``c`` requests are served where the probe first hits.
* End-to-end latency per request is the round trip to the serving
  node: ``2 *`` the route's cumulative one-way edge latency.
* The placement pass walks the return path top-down (serving node
  toward receiver); a strategy "yes" becomes a queue offer, and an
  admitted write evicts strategy-chosen victims until the copy fits.
* Request timeliness draws are generated (the stream is shared with
  the single-cache engine) but staleness is not modelled on the
  network plane — copies are replaced, never refreshed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.content.workloads import Workload
from repro.core.parameters import MFGCPConfig
from repro.obs.telemetry import NULL_TELEMETRY, SolverTelemetry
from repro.runtime import ExecutorLike
from repro.serve.cache import EdgeCache
from repro.serve.engine import ReplayEngine
from repro.serve.net.queue import AdmissionQueue
from repro.serve.net.report import (
    NetworkReplayStats,
    NetworkServingReport,
    NodeServingStats,
)
from repro.serve.net.strategies import (
    PlacementSite,
    PlacementStrategy,
    make_strategy,
)
from repro.serve.net.topology import CacheNetworkTopology, parse_topology
from repro.serve.stream import RequestStream, SlotPolicyRng


@dataclass(frozen=True)
class NetworkReplaySpec:
    """Everything one shard needs to replay its replicas (picklable).

    Attributes
    ----------
    topology:
        The cache network (routes and latencies precomputed).
    stream:
        The request recipe; lane ``j * n_receivers + r`` feeds receiver
        ``r`` of replica ``j`` (``stream.n_edps`` must equal
        ``n_replicas * n_receivers``), and it fixes the trace geometry.
    n_receivers, n_replicas:
        The lane-indexing geometry.
    sizes_mb:
        Catalog sizes per content.
    node_capacity_mb:
        Per-router cache capacity.
    queue_capacity, queue_service_rate:
        Admission-queue shape shared by every caching node.
    chunk_slots:
        Slots per chunk (bounded memory: one ``chunk_slots``-slot block
        per receiver lane is resident at a time); ``0`` means one chunk
        per replay.  Never affects results.
    """

    topology: CacheNetworkTopology
    stream: RequestStream
    n_receivers: int
    n_replicas: int
    sizes_mb: Tuple[float, ...]
    node_capacity_mb: float
    queue_capacity: int
    queue_service_rate: float
    chunk_slots: int = 0

    def __post_init__(self) -> None:
        if self.n_receivers != self.topology.n_receivers:
            raise ValueError(
                f"spec names {self.n_receivers} receivers but the topology "
                f"has {self.topology.n_receivers}"
            )
        if self.n_replicas < 1:
            raise ValueError(f"n_replicas must be positive, got {self.n_replicas}")
        if self.stream.n_edps != self.n_replicas * self.n_receivers:
            raise ValueError(
                f"stream provides {self.stream.n_edps} lanes; "
                f"{self.n_replicas} replicas x {self.n_receivers} receivers "
                f"need {self.n_replicas * self.n_receivers}"
            )
        if len(self.sizes_mb) != self.stream.n_contents:
            raise ValueError(
                f"{len(self.sizes_mb)} sizes for {self.stream.n_contents} contents"
            )
        if self.node_capacity_mb <= 0:
            raise ValueError(
                f"node_capacity_mb must be positive, got {self.node_capacity_mb}"
            )
        if self.chunk_slots < 0:
            raise ValueError(
                f"chunk_slots must be non-negative, got {self.chunk_slots}"
            )


def _route_capacity_prefix(
    route: Tuple[int, ...], caches: Dict[int, EdgeCache]
) -> List[float]:
    """Cumulative cache capacity along ``route``'s caching routers.

    Entry ``pos`` is the capacity of positions ``1..pos``, added left to
    right from 0 exactly as a per-hop ``sum`` would, so the
    ``path_capacity`` a placement site reads is bit-identical.
    """
    prefix = [0]
    for pos in range(1, len(route) - 1):
        prefix.append(prefix[-1] + caches[route[pos]].capacity_mb)
    return prefix


def _serve_receiver_slot(
    spec: NetworkReplaySpec,
    strategy: PlacementStrategy,
    caches: Dict[int, EdgeCache],
    queues: Dict[int, AdmissionQueue],
    stats: NetworkReplayStats,
    receiver: int,
    slot: int,
    t: float,
    contents: List[int],
    counts: List[int],
    capacity_prefix: List[float],
    policy_rng: SlotPolicyRng,
    max_depth: int,
    measured: bool = True,
) -> None:
    """Serve one receiver's slot batch: probe, account, place.

    ``contents`` lists the requested content indices in ascending
    order, ``counts`` is the slot's per-content request row, and
    ``capacity_prefix`` is :func:`_route_capacity_prefix` of the
    receiver's route.  The single place network serving semantics
    live; every backend, shard layout and chunk size funnels through
    here, which is what makes replays bit-identical by construction.
    ``measured`` gates every stats counter (warmup slots mutate caches
    and queues but report nothing).
    """
    topo = spec.topology
    sizes = spec.sizes_mb
    route = topo.routes[receiver]
    route_latency = topo.route_latencies[receiver]
    for k in contents:
        count = counts[k]
        # Probe hop by hop toward the origin; positions
        # 1..len-2 are caching routers, the last is the source.
        serving_pos = len(route) - 1
        entry = None
        for pos in range(1, len(route) - 1):
            entry = caches[route[pos]].lookup(k)
            if entry is not None:
                serving_pos = pos
                break
        if measured:
            stats.requests += count
            stats.hops += serving_pos * count
            stats.max_hops = max(stats.max_hops, serving_pos)
            stats.latency_s += 2.0 * route_latency[serving_pos] * count
        if entry is not None:
            entry.last_used = t
            entry.hits += count
            if measured:
                stats.cache_hits += count
                stats.per_node[route[serving_pos]].hits += count
        elif measured:
            stats.source_hits += count

        # Placement pass: return path, serving node downward.
        if serving_pos <= 1:
            continue
        if measured:
            stats.placement_walks += 1
        size = sizes[k]
        downstream_index = 0
        for pos in range(serving_pos - 1, 0, -1):
            node = route[pos]
            cache = caches[node]
            downstream_index += 1
            site = PlacementSite(
                node=node,
                slot=slot,
                content=k,
                hops_from_server=serving_pos - pos,
                hops_to_receiver=pos,
                path_len=serving_pos,
                downstream_index=downstream_index,
                is_edge=(pos == 1),
                depth=int(topo.depths[node]),
                max_depth=max_depth,
                path_capacity=capacity_prefix[pos] / size,
                node_capacity=cache.capacity_mb / size,
            )
            if not strategy.should_place(site, policy_rng):
                continue
            if measured:
                stats.placement_attempts += 1
            node_stats = stats.per_node[node]
            if not queues[node].offer(t):
                continue
            if not cache.fits(size):
                continue
            while not cache.has_room(size):
                victim = strategy.victim(slot, cache, policy_rng)
                cache.evict(victim)
                if measured:
                    node_stats.evictions += 1
            cache.store(k, size, t)
            if measured:
                node_stats.placements += 1


def _check_occupancy(
    spec: NetworkReplaySpec,
    strategy: PlacementStrategy,
    caches: Dict[int, EdgeCache],
    telemetry: SolverTelemetry,
) -> None:
    if not telemetry.enabled:
        return
    # Invariant check: placement/eviction must never leave a node cache
    # over capacity (a strategy bug), and each running total must match
    # the entries it summarises.
    faults = []
    for node, cache in sorted(caches.items()):
        _, problem = cache.audit()
        if problem is not None:
            faults.append((node, problem))
    if faults:
        node, problem = faults[0]
        telemetry.diag(
            "net.occupancy",
            "error",
            value=float(len(faults)),
            threshold=float(spec.node_capacity_mb),
            message=(
                f"{len(faults)} node caches fail the occupancy check "
                f"(node {node}: {problem})"
            ),
            nodes=[node for node, _ in faults],
            strategy=strategy.name,
        )


def _replay_replica_stream(
    spec: NetworkReplaySpec,
    strategy: PlacementStrategy,
    replica: int,
    telemetry: SolverTelemetry = NULL_TELEMETRY,
) -> NetworkReplayStats:
    """Replay one replica from chunked streams under bounded memory.

    Receiver lane ``r`` consumes stream EDP ``replica * n_receivers +
    r``; at most one ``chunk_slots``-slot chunk per lane is resident at
    a time, so peak memory is independent of the replay horizon.
    Policy draws key per ``(lane, slot)``, so results are invariant to
    the chunk size.  Warmup slots (``stream.warmup_slots``) exercise
    caches and queues but touch no counters — queue counters are
    baselined at the warmup boundary and the pre-boundary portion
    subtracted at fold time.
    """
    stream = spec.stream
    topo = spec.topology
    caches: Dict[int, EdgeCache] = {
        int(v): EdgeCache(capacity_mb=spec.node_capacity_mb) for v in topo.routers
    }
    queues: Dict[int, AdmissionQueue] = {
        int(v): AdmissionQueue(
            capacity=spec.queue_capacity, service_rate=spec.queue_service_rate
        )
        for v in topo.routers
    }
    stats = NetworkReplayStats.empty(topo)
    stats.replicas = 1
    stats.elapsed_t = stream.measured_slots * stream.dt
    max_depth = max(int(topo.depths[v]) for v in topo.routers)
    warmup = stream.warmup_slots
    receivers = range(spec.n_receivers)
    lanes = [replica * spec.n_receivers + r for r in receivers]
    rngs = [SlotPolicyRng(stream, lane) for lane in lanes]
    prefixes = [_route_capacity_prefix(topo.routes[r], caches) for r in receivers]
    chunk_slots = spec.chunk_slots or stream.n_slots

    baseline: Optional[Dict[int, Tuple[int, int, float]]] = None
    if warmup == 0:
        baseline = {int(v): (0, 0, 0.0) for v in topo.routers}
    for index in range(stream.n_chunks(chunk_slots)):
        chunks = [stream.chunk(lane, index, chunk_slots) for lane in lanes]
        rows = [chunk.counts.tolist() for chunk in chunks]
        totals = [chunk.counts.sum(axis=1).tolist() for chunk in chunks]
        for local in range(chunks[0].n_slots):
            slot = chunks[0].start_slot + local
            if baseline is None and slot == warmup:
                baseline = {
                    node: (
                        queue.accepted,
                        queue.rejected,
                        queue.backlog_integral,
                    )
                    for node, queue in queues.items()
                }
            measured = slot >= warmup
            t = (slot + 0.5) * stream.dt
            for r in receivers:
                if not totals[r][local]:
                    continue
                _serve_receiver_slot(
                    spec,
                    strategy,
                    caches,
                    queues,
                    stats,
                    r,
                    slot,
                    t,
                    np.flatnonzero(chunks[r].counts[local]).tolist(),
                    rows[r][local],
                    prefixes[r],
                    rngs[r].at(slot),
                    max_depth,
                    measured=measured,
                )

    for node, queue in sorted(queues.items()):
        base_accepted, base_rejected, base_backlog = baseline[node]
        node_stats = stats.per_node[node]
        node_stats.queue_accepted += queue.accepted - base_accepted
        node_stats.queue_rejected += queue.rejected - base_rejected
        node_stats.queue_backlog_time += queue.backlog_integral - base_backlog
    _check_occupancy(spec, strategy, caches, telemetry)
    return stats


def replay_network_shard(
    spec: NetworkReplaySpec,
    strategy: PlacementStrategy,
    replica_ids: Tuple[int, ...],
    telemetry: SolverTelemetry = NULL_TELEMETRY,
) -> List[NetworkReplayStats]:
    """Replay one shard of replicas (the ExecutionPlan work item).

    Module-level and argument-complete so it pickles to pool workers;
    telemetry is the per-worker buffered observer the runtime injects.
    Returns one stats record *per replica*, never pre-merged — the
    engine folds them in global replica order, so float accumulators
    (latency, queue backlog) sum in the same order under every shard
    grouping.
    """
    with telemetry.span("replay_network_shard"):
        results = [
            _replay_replica_stream(
                spec, strategy, int(replica), telemetry=telemetry
            )
            for replica in replica_ids
        ]
    if telemetry.enabled:
        requests = sum(s.requests for s in results)
        cache_hits = sum(s.cache_hits for s in results)
        telemetry.inc("net.requests", float(requests))
        telemetry.inc("net.cache_hits", float(cache_hits))
        telemetry.inc(
            "net.source_hits", float(sum(s.source_hits for s in results))
        )
        telemetry.inc(
            "net.placements",
            float(
                sum(
                    node.placements
                    for s in results
                    for node in s.per_node.values()
                )
            ),
        )
        telemetry.inc(
            "net.queue_rejections",
            float(
                sum(
                    node.queue_rejected
                    for s in results
                    for node in s.per_node.values()
                )
            ),
        )
        for stats in results:
            if stats.requests:
                telemetry.observe(
                    "net.replica_hit_ratio", stats.cache_hits / stats.requests
                )
                telemetry.observe(
                    "net.replica_mean_hops", stats.hops / stats.requests
                )
        telemetry.event(
            "net_shard",
            strategy=strategy.name,
            topology=spec.topology.name,
            replicas=len(replica_ids),
            requests=requests,
            cache_hits=cache_hits,
            source_hits=sum(s.source_hits for s in results),
        )
    return results


class NetworkReplayEngine(ReplayEngine):
    """Replay a workload through a cache network under on-path strategies.

    Parameters
    ----------
    workload:
        A :class:`repro.content.workloads.Workload` (catalog,
        popularity, timeliness law, request process).
    topology:
        A :class:`CacheNetworkTopology` or a grammar spec
        (``"tree:2x4"``, ``"path:6"``, ``"ring:8"``, ``"mesh:12x3"``).
    capacity_fraction / node_capacity_mb:
        Per-router cache size, as a fraction of the catalog volume or
        absolute (absolute wins when both are given).  The network's
        total cache budget is ``node_capacity_mb * len(routers)`` —
        strategies compared by one engine always share it.
    rate_per_receiver:
        Request intensity override per receiver; defaults to the
        workload's own per-EDP rate.
    n_replicas:
        Independent full-network replays averaged into one report;
        also the parallel grain (replicas shard across workers).  A
        stream needs ``n_replicas * n_receivers`` lanes.
    topology_seed:
        MESH placement geometry seed.
    queue_capacity, queue_service_rate:
        Admission-queue shape per node; the rate defaults to each
        node's fair share of the network's total request rate.

    The other parameters (``config``, ``n_slots``, ``seed``, ``shards``,
    ``executor``, ``telemetry``, ``batch_size``, ``stream``,
    ``stream_chunk``) are those of :class:`~repro.serve.engine.ReplayEngine`.
    """

    _prefix = "net"
    _phase = "serve-net:{}"
    _kind = "strategy"
    _lanes = "lanes"
    _hits_field = "cache_hits"

    def __init__(
        self,
        workload: Workload,
        topology: Union[str, CacheNetworkTopology],
        *,
        config: Optional[MFGCPConfig] = None,
        n_slots: int = 25,
        capacity_fraction: float = 0.1,
        node_capacity_mb: Optional[float] = None,
        rate_per_receiver: Optional[float] = None,
        n_replicas: int = 2,
        shards: Optional[int] = None,
        seed: int = 0,
        topology_seed: int = 0,
        queue_capacity: int = 8,
        queue_service_rate: Optional[float] = None,
        executor: ExecutorLike = None,
        telemetry: SolverTelemetry = NULL_TELEMETRY,
        batch_size: int = 32,
        stream: Optional[RequestStream] = None,
        stream_chunk: int = 0,
    ) -> None:
        if n_replicas < 1:
            raise ValueError(f"n_replicas must be positive, got {n_replicas}")
        self.topology = (
            topology
            if isinstance(topology, CacheNetworkTopology)
            else parse_topology(topology, seed=int(topology_seed))
        )
        self.n_replicas = int(n_replicas)
        n_receivers = self.topology.n_receivers
        super().__init__(
            workload, self.n_replicas, self.n_replicas * n_receivers,
            config=config, n_slots=n_slots, rate=rate_per_receiver,
            rate_field="rate_per_receiver", seed=seed, shards=shards,
            executor=executor, telemetry=telemetry, batch_size=batch_size,
            stream=stream, stream_chunk=stream_chunk,
        )
        self.node_capacity_mb = self._capacity(
            capacity_fraction, node_capacity_mb, "node_capacity_mb"
        )
        self.queue_capacity = int(queue_capacity)
        if queue_service_rate is None:
            # Fair share of the network's total request rate per node:
            # admission keeps up on average, bursts still reject.
            queue_service_rate = max(
                self.stream.rate_per_edp * n_receivers / len(self.topology.routers), 1e-9
            )
        elif not 0.0 < queue_service_rate < math.inf:
            raise ValueError(
                "queue_service_rate must be positive and finite, got "
                f"{queue_service_rate}"
            )
        self.queue_service_rate = float(queue_service_rate)

    def build_strategy(self, name: str) -> PlacementStrategy:
        """Instantiate a strategy by name (solving equilibria for mfg)."""
        key = str(name).strip().lower()
        kwargs = {}
        if key == "mfg":
            kwargs = dict(
                equilibria=self.solve_equilibria(),
                sizes_mb=self.sizes_mb,
                update_periods=self.update_periods,
                slot_times=self.stream.slot_times(),
                horizon=self.stream.horizon,
            )
        return make_strategy(key, **kwargs)

    def spec(self) -> NetworkReplaySpec:
        """The picklable replay recipe shards receive."""
        return NetworkReplaySpec(
            topology=self.topology,
            stream=self.stream,
            n_receivers=self.topology.n_receivers,
            n_replicas=self.n_replicas,
            sizes_mb=self.sizes_mb,
            node_capacity_mb=self.node_capacity_mb,
            queue_capacity=self.queue_capacity,
            queue_service_rate=self.queue_service_rate,
            chunk_slots=self.stream_chunk,
        )

    def replay(self, strategy: Union[str, PlacementStrategy]) -> NetworkServingReport:
        """Replay all replicas under one placement strategy."""
        strategy_obj = (
            strategy if isinstance(strategy, PlacementStrategy)
            else self.build_strategy(strategy)
        )
        # Fold per-replica stats in global replica order (item order
        # preserves it): float sums are then grouping-independent.
        totals = NetworkReplayStats.empty(self.topology)
        for replica_stats in self._run_shards(
            replay_network_shard, self.spec(), strategy_obj
        ):
            totals.merge(replica_stats)
        report = NetworkServingReport(
            strategy=strategy_obj.name,
            topology=self.topology.name,
            n_slots=self.stream.n_slots,
            dt=self.stream.dt,
            seed=self.stream.seed,
            n_replicas=self.n_replicas,
            node_capacity_mb=self.node_capacity_mb,
            per_node=tuple(
                totals.per_node[node] for node in sorted(totals.per_node)
            ),
            totals=totals,
        )
        if self.telemetry.enabled:
            self.telemetry.gauge(
                f"net.{strategy_obj.name}.hit_ratio", report.hit_ratio
            )
            self.telemetry.event(
                "network_report",
                strategy=report.strategy,
                topology=report.topology,
                requests=report.requests,
                hit_ratio=report.hit_ratio,
                source_share=report.source_share,
                mean_hops=report.mean_hops,
                mean_latency_s=report.mean_latency_s,
                rejection_rate=report.rejection_rate,
            )
        return report
