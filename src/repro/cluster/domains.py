"""The load-information directory: K domain shards plus summaries.

:class:`DomainDirectory` is the paper's global load index (§3.3.1),
partitioned into ``K = ClusterConfig.domains`` *domains* — contiguous
node-id slices — each owning a
:class:`~repro.cluster.loadinfo.LoadInfoDirectory` shard that runs the
dirty-node exchange and candidate indexes over ``N/K`` nodes.  One
exchange tick drives every shard, scheduled only while some shard has
a dirty node (:mod:`repro.sim.daemon`).  Across domains (real systems
shard or gossip at scale) only a compact :class:`DomainSummary`
travels, exchanged on a separate, typically *slower* period
(``ClusterConfig.domain_exchange_interval_s``): inter-domain staleness
is an explicit modeled knob.

Placement is two-level: schedulers first rank domains from the
summaries (local domain always first), then pick a node inside the
chosen domain's shard.  Blocking detection and reservation escalate
across domains the same way when the local one is memory-exhausted.
With the default ``K = 1`` one shard spans the cluster and there is no
remote domain, hence no reader for summaries: a one-domain directory
computes none, schedules no summary tick, and activates each candidate
order lazily on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.cluster.loadinfo import LoadInfoDirectory, NodeSnapshot
from repro.cluster.state import ClusterState
from repro.obs.bus import NULL_CHANNEL, Channel
from repro.sim.daemon import DaemonTick
from repro.sim.engine import EventHandle, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.workstation import Workstation


@dataclass(frozen=True)
class DomainSummary:
    """Compact cross-domain view of one domain's *published* state.

    Aggregated from the owning shard's snapshot store, not from live
    nodes — a summary is at best as fresh as the shard's own exchange,
    and between summary rounds remote domains see it staler still.
    """

    domain_id: int
    #: Total idle memory over the shard's live published snapshots.
    idle_memory_mb: float
    #: Nodes currently in the shard's accepting order.
    accepting_count: int
    #: Smallest published job count in the domain.
    least_num_jobs: int
    #: Live nodes whose published view shows them thrashing.
    thrashing_count: int
    #: Instant the summary was computed (== the summary round time).
    timestamp: float

    def _data(self) -> tuple:
        """Comparison key: everything but the timestamp, so unchanged
        domains do not bump the version just by being re-stamped."""
        return (self.idle_memory_mb, self.accepting_count,
                self.least_num_jobs, self.thrashing_count)


class DomainDirectory:
    """K :class:`LoadInfoDirectory` shards, one exchange tick, and the
    inter-domain summaries (K > 1 only)."""

    def __init__(self, sim: Simulator, nodes: List["Workstation"],
                 num_domains: int,
                 state: ClusterState,
                 exchange_interval_s: float = 1.0,
                 summary_interval_s: float = 5.0,
                 obs: Optional[Channel] = None,
                 obs_domain: Optional[Channel] = None):
        if num_domains < 1:
            raise ValueError("num_domains must be >= 1")
        if num_domains > len(nodes):
            raise ValueError("num_domains cannot exceed the node count")
        if summary_interval_s < 0:
            raise ValueError("summary_interval_s must be >= 0")
        self._sim = sim
        self._nodes = nodes
        self.num_domains = num_domains
        self.exchange_interval_s = exchange_interval_s
        self.summary_interval_s = summary_interval_s
        self.obs = obs if obs is not None else NULL_CHANNEL
        #: ``loadinfo.domain`` obs channel (summary rounds).
        self.obs_domain = (obs_domain if obs_domain is not None
                           else NULL_CHANNEL)
        n = len(nodes)
        #: Contiguous slice [lo, hi) of node ids per domain.
        self._bounds: List[Tuple[int, int]] = [
            (d * n // num_domains, (d + 1) * n // num_domains)
            for d in range(num_domains)]
        self._domain_of: List[int] = [
            d for d, (lo, hi) in enumerate(self._bounds)
            for _ in range(lo, hi)]
        self._fault_hook = None
        #: The exchange tick (None in live mode) and summary handle.
        self._exchange: Optional[DaemonTick] = None
        self._summary_handle: Optional[EventHandle] = None
        #: Summary exchange rounds completed.
        self.summary_rounds = 0
        self._summary_version = 0
        self._summaries: List[DomainSummary] = []
        #: Concatenated candidate views keyed by local domain; each
        #: entry is ``(order_version_at_build, ids)``.
        self._accepting_cache: Dict[Optional[int],
                                    Tuple[int, List[int]]] = {}
        self._load_cache: Dict[Optional[int], Tuple[int, List[int]]] = {}
        self._shards = [
            LoadInfoDirectory(sim, nodes[lo:hi], state,
                              exchange_interval_s, self.obs,
                              self._arm_exchange)
            for lo, hi in self._bounds]
        if exchange_interval_s > 0:
            self._exchange = DaemonTick(
                sim, self, "_exchange_tick", exchange_interval_s, priority=2,
                armed=any(shard._dirty for shard in self._shards))
        if num_domains > 1:
            self._refresh_summaries(emit=False)
            if summary_interval_s > 0:
                self._schedule_summary(sim.now + summary_interval_s)

    # ------------------------------------------------------------------
    # periodic activities
    # ------------------------------------------------------------------
    def _arm_exchange(self) -> None:
        """A shard went dirty: schedule the next exchange round.  A
        self-rescheduling exchange was queued before a summary due at
        the same instant unless the summary's period is the longer one,
        so such a summary is queued behind the round again."""
        exchange = self._exchange
        if exchange.handle is None:
            exchange.arm()
            summary = self._summary_handle
            if (summary is not None and summary.time == exchange.next_time
                    and self.summary_interval_s <= self.exchange_interval_s):
                summary.cancel()
                self._schedule_summary(summary.time)

    def _exchange_tick(self) -> None:
        # Only dirty shards refresh (K no-op calls per round add up at
        # 10k nodes).  A dropped update leaves its shard dirty and keeps
        # the tick armed; otherwise it parks until the next dirty mark.
        keep = False
        for shard in self._shards:
            if shard._dirty:
                shard.refresh()
                if shard._dirty:
                    keep = True
        self._exchange.fired(keep=keep)

    def _schedule_summary(self, time: float) -> None:
        self._summary_handle = self._sim.schedule_at(
            time, self._summary_tick, priority=2, daemon=True)

    def _summary_tick(self) -> None:
        self._refresh_summaries(emit=True)
        self._schedule_summary(self._sim.now + self.summary_interval_s)

    def _refresh_summaries(self, emit: bool) -> int:
        """Recompute all K summaries from the shards' published
        aggregates (O(1) per shard); bump the version only if any
        domain's data actually changed.

        An unchanged domain keeps its previous summary object — and
        its previous timestamp, which is when its data was really
        computed — so steady-state rounds build nothing.
        """
        now = self._sim.now
        old = self._summaries
        changed = 0
        fresh = []
        for d, shard in enumerate(self._shards):
            data = (shard.published_idle_mb(), shard.accepting_count(),
                    shard.least_num_jobs(), shard.thrashing_count())
            if old and old[d]._data() == data:
                fresh.append(old[d])
                continue
            changed += 1
            fresh.append(DomainSummary(
                domain_id=d,
                idle_memory_mb=data[0],
                accepting_count=data[1],
                least_num_jobs=data[2],
                thrashing_count=data[3],
                timestamp=now))
        self._summaries = fresh
        self.summary_rounds += 1
        if changed:
            self._summary_version += 1
        obs = self.obs_domain
        if emit and obs.enabled:
            obs.emit(now, "summary", round=self.summary_rounds,
                     changed=changed, domains=self.num_domains,
                     idle_mb=sum(s.idle_memory_mb for s in fresh),
                     accepting=sum(s.accepting_count for s in fresh),
                     thrashing=sum(s.thrashing_count for s in fresh))
        return changed

    # ------------------------------------------------------------------
    # domain-level API
    # ------------------------------------------------------------------
    def summaries(self) -> List[DomainSummary]:
        """Current inter-domain summaries, by domain id (none with one
        domain).  A period of 0 makes every read recompute them."""
        if self.summary_interval_s == 0 and self.num_domains > 1:
            self._refresh_summaries(emit=False)
        return self._summaries

    def domain_of(self, node_id: int) -> int:
        """Domain owning ``node_id``."""
        return self._domain_of[node_id]

    def domain_bounds(self, domain: int) -> Tuple[int, int]:
        """Contiguous node-id slice ``[lo, hi)`` of ``domain``."""
        return self._bounds[domain]

    def shard(self, domain: int) -> LoadInfoDirectory:
        """The per-domain directory shard."""
        return self._shards[domain]

    def ranked_remote_domains(self, local_domain: Optional[int]
                              ) -> List[int]:
        """Remote domains ordered most-promising first by summary idle
        memory (ties to the lower id) — the escalation order for
        reservation and blocking-destination searches."""
        remote = [d for d in range(self.num_domains) if d != local_domain]
        if self.num_domains > 1:  # one domain: no summary, no ranking
            summaries = self.summaries()
            remote.sort(key=lambda d: (-summaries[d].idle_memory_mb, d))
        return remote

    # ------------------------------------------------------------------
    # node-level API (scheduling / faults layers)
    # ------------------------------------------------------------------
    @property
    def order_version(self) -> int:
        """Monotone version over every shard order plus the summary
        ranking; schedulers key cached candidate views on it."""
        if self.num_domains == 1:  # no summaries: the shard's version
            return self._shards[0].order_version
        return (sum(shard.order_version for shard in self._shards)
                + self._summary_version)

    @property
    def refreshes(self) -> int:
        """Total shard exchange refreshes (shards with nothing dirty
        are skipped, so this counts performed rounds, not K x ticks)."""
        return sum(shard.refreshes for shard in self._shards)

    @property
    def fault_hook(self):
        """Lossy-exchange hook, fanned out to every shard."""
        return self._fault_hook

    @fault_hook.setter
    def fault_hook(self, hook) -> None:
        self._fault_hook = hook
        for shard in self._shards:
            shard.fault_hook = hook

    def refresh(self) -> None:
        """One exchange round across all shards (tests/manual use)."""
        for shard in self._shards:
            shard.refresh()

    def accepting_ids(self, local_domain: Optional[int] = None
                      ) -> List[int]:
        """Accepting node ids, two-level ordered: the local domain's
        shard order first, then remote domains ranked by summary
        ``(-idle_memory_mb, -accepting_count, domain_id)`` — each
        remote domain's own shard order inside.

        A remote domain whose (possibly stale) summary advertises zero
        accepting nodes is skipped entirely: that is the modeled cost
        of staleness.  With no local domain every domain is included.
        With one domain the answer is its shard's order.
        """
        if self.num_domains == 1:
            return self._shards[0].accepting_ids()
        return self._two_level(
            local_domain, self._accepting_cache,
            LoadInfoDirectory.accepting_ids,
            lambda s: (-s.idle_memory_mb, -s.accepting_count),
            skip_empty=local_domain is not None)

    def load_order_ids(self, local_domain: Optional[int] = None
                       ) -> List[int]:
        """Live node ids, local domain's load order first, then remote
        domains ranked by summary ``(least_num_jobs, domain_id)``."""
        if self.num_domains == 1:
            return self._shards[0].load_order_ids()
        return self._two_level(local_domain, self._load_cache,
                               LoadInfoDirectory.load_order_ids,
                               lambda s: (s.least_num_jobs,),
                               skip_empty=False)

    def _two_level(self, local_domain: Optional[int], cache: dict,
                   shard_ids, rank, skip_empty: bool) -> List[int]:
        """``shard_ids`` of the local shard, then of the remote ones in
        ``(rank(summary), domain_id)`` order, cached per order version."""
        cached = cache.get(local_domain)
        if cached is not None and cached[0] == self.order_version:
            return cached[1]
        summaries = self.summaries()
        ids: List[int] = []
        if local_domain is not None:
            ids.extend(shard_ids(self._shards[local_domain]))
        remote = [d for d in range(self.num_domains) if d != local_domain]
        remote.sort(key=lambda d: (*rank(summaries[d]), d))
        for d in remote:
            if skip_empty and summaries[d].accepting_count == 0:
                continue
            ids.extend(shard_ids(self._shards[d]))
        cache[local_domain] = (self.order_version, ids)
        return ids

    def least_num_jobs(self, domain: Optional[int] = None) -> int:
        """Smallest published job count — in one domain's shard, or
        across the whole cluster when ``domain`` is None."""
        if domain is not None:
            return self._shards[domain].least_num_jobs()
        return min((shard.least_num_jobs() for shard in self._shards
                    if shard.load_order_ids()), default=0)

    def evict(self, node_id: int) -> None:
        """Remove a crashed node from its owning shard's orders."""
        self._shards[self._domain_of[node_id]].evict(node_id)

    def readmit(self, node_id: int) -> None:
        """Put a recovered node back into its owning shard's orders."""
        self._shards[self._domain_of[node_id]].readmit(node_id)

    def snapshot(self, node_id: int) -> NodeSnapshot:
        """The owning shard's current view of ``node_id``."""
        return self._shards[self._domain_of[node_id]].snapshot(node_id)

    def snapshots(self) -> List[NodeSnapshot]:
        """Views of all nodes, ordered by node id (shards are
        contiguous ascending slices, so concatenation is sorted)."""
        snaps: List[NodeSnapshot] = []
        for shard in self._shards:
            snaps.extend(shard.snapshots())
        return snaps
