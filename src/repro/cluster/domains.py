"""Sharded load-information domains.

At production scale a single global :class:`LoadInfoDirectory` stops
being realistic: every exchange round is O(cluster) and every
blocking/reservation decision becomes a cluster-wide scan.  Real
systems shard or gossip.  This module partitions the cluster into
``K`` *domains* — contiguous node-id slices — each owning a private
directory shard that runs the existing dirty-node exchange and
candidate indexes over ``N/K`` nodes.

Across domains only a compact :class:`DomainSummary` travels (total
idle memory, accepting count, least-loaded key, thrashing count),
exchanged on a separate, typically *slower* period
(``ClusterConfig.domain_exchange_interval_s``), so inter-domain
staleness is an explicit modeled knob, independent of the fast
intra-domain ``load_exchange_interval_s``.

Placement becomes two-level: schedulers first rank domains from the
summaries (local domain always first), then pick a node inside the
chosen domain's shard.  Blocking detection and reservation work the
same way — per-domain scans with cross-domain escalation when the
local domain is memory-exhausted.

:class:`DomainDirectory` is a drop-in facade over the shards: it
exposes the same surface the scheduling/faults layers consume from
the flat directory (``snapshots``/``snapshot``/``accepting_ids``/
``load_order_ids``/``least_num_jobs``/``order_version``/``evict``/
``readmit``/``fault_hook``), plus the domain-level API
(``summaries``/``domain_of``/``domain_bounds``/
``ranked_remote_domains``).  ``ClusterConfig.domains == 1`` does not
build this class at all — the flat directory is constructed
unchanged, so the default path stays byte-identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.cluster.loadinfo import LoadInfoDirectory, NodeSnapshot
from repro.cluster.state import ClusterState
from repro.obs.bus import NULL_CHANNEL, Channel
from repro.sim.engine import Simulator

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
    """K per-domain :class:`LoadInfoDirectory` shards plus summaries.

    The shards are constructed ``managed=True``: this directory drives
    one exchange tick per round for all of them (instead of K
    self-scheduled ticks) and one summary tick on the slower period.
    """

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
        self._domain_of: List[int] = [0] * n
        for d, (lo, hi) in enumerate(self._bounds):
            for node_id in range(lo, hi):
                self._domain_of[node_id] = d
        self._fault_hook = None
        self._shards: List[LoadInfoDirectory] = [
            LoadInfoDirectory(sim, nodes[lo:hi], state,
                              exchange_interval_s=exchange_interval_s,
                              obs=self.obs, managed=True)
            for lo, hi in self._bounds]
        #: Summary exchange rounds completed.
        self.summary_rounds = 0
        self._summary_version = 0
        self._summaries: List[DomainSummary] = []
        self._refresh_summaries(emit=False)
        #: Concatenated candidate views keyed by local domain; each
        #: entry is ``(order_version_at_build, ids)``.
        self._accepting_cache: Dict[Optional[int],
                                    Tuple[int, List[int]]] = {}
        self._load_cache: Dict[Optional[int], Tuple[int, List[int]]] = {}
        if exchange_interval_s > 0:
            self._schedule_exchange()
        if summary_interval_s > 0:
            self._schedule_summary()

    # ------------------------------------------------------------------
    # periodic activities
    # ------------------------------------------------------------------
    def _schedule_exchange(self) -> None:
        self._sim.schedule(self.exchange_interval_s, self._exchange_tick,
                           priority=2, daemon=True)

    def _exchange_tick(self) -> None:
        # A shard with no dirty nodes would no-op its refresh; skip
        # the call entirely — K no-op calls per round add up at 10k
        # nodes.  (Unpopulated shards always run.)
        for shard in self._shards:
            if shard._dirty or not shard._snapshots:
                shard.refresh()
        self._schedule_exchange()

    def _schedule_summary(self) -> None:
        self._sim.schedule(self.summary_interval_s, self._summary_tick,
                           priority=2, daemon=True)

    def _summary_tick(self) -> None:
        self._refresh_summaries(emit=True)
        self._schedule_summary()

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
        """Current inter-domain summaries, by domain id.  A period of
        0 disables summary staleness: every read recomputes."""
        if self.summary_interval_s == 0:
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
        summaries = self.summaries()
        remote = [d for d in range(self.num_domains) if d != local_domain]
        remote.sort(key=lambda d: (-summaries[d].idle_memory_mb, d))
        return remote

    # ------------------------------------------------------------------
    # flat-directory facade (scheduling / faults layers)
    # ------------------------------------------------------------------
    @property
    def order_version(self) -> int:
        """Monotone version over every shard order plus the summary
        ranking; schedulers key cached candidate views on it."""
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
        """
        cached = self._accepting_cache.get(local_domain)
        if cached is not None and cached[0] == self.order_version:
            return cached[1]
        summaries = self.summaries()
        ids: List[int] = []
        if local_domain is not None:
            ids.extend(self._shards[local_domain].accepting_ids())
        remote = [d for d in range(self.num_domains) if d != local_domain]
        remote.sort(key=lambda d: (-summaries[d].idle_memory_mb,
                                   -summaries[d].accepting_count, d))
        for d in remote:
            if local_domain is not None and summaries[d].accepting_count == 0:
                continue
            ids.extend(self._shards[d].accepting_ids())
        self._accepting_cache[local_domain] = (self.order_version, ids)
        return ids

    def load_order_ids(self, local_domain: Optional[int] = None
                       ) -> List[int]:
        """Live node ids, local domain's load order first, then remote
        domains ranked by summary ``(least_num_jobs, domain_id)``."""
        cached = self._load_cache.get(local_domain)
        if cached is not None and cached[0] == self.order_version:
            return cached[1]
        summaries = self.summaries()
        ids: List[int] = []
        if local_domain is not None:
            ids.extend(self._shards[local_domain].load_order_ids())
        remote = [d for d in range(self.num_domains) if d != local_domain]
        remote.sort(key=lambda d: (summaries[d].least_num_jobs, d))
        for d in remote:
            ids.extend(self._shards[d].load_order_ids())
        self._load_cache[local_domain] = (self.order_version, ids)
        return ids

    def least_num_jobs(self, domain: Optional[int] = None) -> int:
        """Smallest published job count — in one domain's shard, or
        across the whole cluster when ``domain`` is None."""
        if domain is not None:
            return self._shards[domain].least_num_jobs()
        best = None
        for shard in self._shards:
            if shard._load_order is None:
                shard.load_order_ids()  # activate the order lazily
            entries = shard._load_order.entries
            if entries and (best is None or entries[0][0] < best):
                best = entries[0][0]
        return 0 if best is None else best

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
