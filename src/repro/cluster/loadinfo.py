"""Global load-index directory shard.

Each workstation "maintains a global load index file which contains
CPU, memory, and I/O load status information of other computing
nodes.  The load sharing system periodically collects and distributes
the load information among the workstations" (paper §3.3.1).

A shard holds that index for one domain (:mod:`repro.cluster.domains`;
one shard spans the cluster by default) and publishes a snapshot of
each of its nodes once per exchange round.  Schedulers *select*
candidates from snapshots (possibly stale) and perform a live
admission check at the chosen node, the way a real remote submission
would.  A period of 0 disables staleness: every lookup reads the live
node.

Rounds cost nothing until something needs them.  The owning directory
keeps the round grid and closes a round at the first state change
after its grid time, through the cluster state's pre-change hook,
while the state rows still read what they read at that time
(:meth:`LoadInfoDirectory.refresh`).  Closing a round publishes one
row per dirty node — a tuple of the :class:`NodeSnapshot` fields —
and applies it to the published aggregates.  The candidate orders
take the published rows at their first read
(:meth:`LoadInfoDirectory._order`), and a :class:`NodeSnapshot` is
built only when one is read.  Every reader first asks the directory
to close a due round.  A round that nobody reads before the next one
closes costs a row copy per changed node, and no engine event.  Only
a lossy exchange keeps a tick (:attr:`LoadInfoDirectory.fault_hook`):
its drops, delays and random draws happen at the grid times
themselves.

Beyond the published rows, a shard incrementally maintains the two
candidate orders the scheduling layer consumes on its hot path:

* the **accepting order** — accepting nodes sorted by
  ``(-idle_memory_mb, num_jobs, node_id)``, backing
  ``candidates_by_idle_memory`` / ``find_migration_destination``;
* the **load order** — all live nodes sorted by ``(num_jobs,
  node_id)``, backing the CPU-based policy.

Under fault injection, crashed nodes leave both orders immediately
(:meth:`LoadInfoDirectory.evict`) and return on recovery
(:meth:`LoadInfoDirectory.readmit`); a lossy exchange is modelled by
the :attr:`LoadInfoDirectory.fault_hook` dropping or delaying
per-node updates.

Each order is activated lazily on first use and then kept sorted:
one exchange round updates only the nodes that actually changed since
the previous round (workstations report changes through their
change-listener hook), and in live mode (``exchange_interval_s == 0``)
every node change updates the order in place (amortized O(log N)
comparisons per update).  Reading an order is an O(1) cached-list
lookup; ``order_version`` lets schedulers cache derived candidate
views.  The orders reproduce exactly what sorting a fresh
``snapshots()`` list would yield — a property pinned by tests.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.cluster.state import (
    FLAG_ACCEPTING,
    FLAG_ALIVE,
    FLAG_THRASHING,
    ClusterState,
)
from repro.obs.bus import NULL_CHANNEL, Channel
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.domains import DomainDirectory
    from repro.cluster.workstation import Workstation


@dataclass(frozen=True)
class NodeSnapshot:
    """Published load state of one workstation.

    ``timestamp`` is the grid time of the round that published the
    snapshot — for a node that has not changed across exchange rounds
    this is the round that last observed a change, since unchanged
    nodes are not re-collected.
    """

    node_id: int
    num_jobs: int
    idle_memory_mb: float
    total_demand_mb: float
    fault_rate_per_s: float
    accepting: bool
    timestamp: float
    #: Fail-stop liveness (fault injection); dead nodes are excluded
    #: from both candidate orders until re-admitted.
    alive: bool = True
    #: Published thrashing state, carried in the load report so domain
    #: summaries can aggregate it without touching live nodes.
    thrashing: bool = False


class _CandidateOrder:
    """One incrementally maintained sorted order over the nodes.

    Entries are key tuples ending in the node id, so the sort is total
    and ``ids()`` can strip the keys.  ``update`` keeps the list sorted
    under single-node changes via bisection; a node whose key is
    ``None`` is excluded (used for the accepting filter).
    """

    __slots__ = ("entries", "key_of", "_ids")

    def __init__(self, keyed: Iterable[Tuple[int, Optional[tuple]]]):
        self.key_of: Dict[int, Optional[tuple]] = dict(keyed)
        self.entries: List[tuple] = sorted(
            key for key in self.key_of.values() if key is not None)
        self._ids: Optional[List[int]] = None

    def update(self, node_id: int, key: Optional[tuple]) -> bool:
        """Move ``node_id`` to its new position; True if anything moved."""
        old = self.key_of.get(node_id)
        if old == key:
            return False
        if old is not None:
            index = bisect_left(self.entries, old)
            del self.entries[index]
        if key is not None:
            insort(self.entries, key)
        self.key_of[node_id] = key
        self._ids = None
        return True

    def ids(self) -> List[int]:
        """Node ids in order (cached between changes)."""
        if self._ids is None:
            self._ids = [entry[-1] for entry in self.entries]
        return self._ids


class LoadInfoDirectory:
    """Load information over a slice of nodes, published once per
    exchange round of the owning :class:`DomainDirectory`, which it
    tells when the shard goes from clean to dirty."""

    def __init__(self, sim: Simulator, nodes: List["Workstation"],
                 state: ClusterState,
                 exchange_interval_s: float,
                 obs: Optional[Channel],
                 owner: "DomainDirectory", domain: int):
        if exchange_interval_s < 0:
            raise ValueError("exchange_interval_s must be >= 0")
        self._sim = sim
        self._nodes = nodes
        self._owner = owner
        #: Index of this shard in the owner.
        self.domain = domain
        #: Id-based lookup: a shard may cover a *subset* of the
        #: cluster, so node ids are not list indexes.
        self._node_by_id: Dict[int, "Workstation"] = {
            node.node_id: node for node in nodes}
        #: Columnar cluster state: snapshot collection and candidate
        #: keys read the published columns (array loads over dirty
        #: node ids) instead of per-object property calls.
        self._state = state
        #: ``loadinfo.exchange`` obs channel (disabled by default).
        self.obs = obs if obs is not None else NULL_CHANNEL
        self.exchange_interval_s = exchange_interval_s
        #: Published view, node id -> the :class:`NodeSnapshot` fields
        #: in order (periodic mode; a snapshot is built when read).
        self._rows: Dict[int, tuple] = {}
        #: Nodes published since the candidate orders last read their
        #: rows; the first read of an order moves them.
        self._unordered: Set[int] = set()
        #: Fault-injection hook consulted once per refreshed node each
        #: exchange round: ``hook(node_id) -> (action, delay_s)`` with
        #: action one of ``"deliver"``/``"drop"``/``"delay"``.  Dropped
        #: updates stay dirty and are retried next round; delayed ones
        #: apply their (by then possibly stale) row after ``delay_s``.
        #: ``None`` (the default) delivers everything.
        self.fault_hook = None
        self.refreshes = 0
        #: Bumped whenever a maintained candidate order may have
        #: changed; schedulers key cached candidate views on it.
        self.order_version = 0
        #: Accepting nodes by (-idle_memory_mb, num_jobs, node_id);
        #: None until first queried (lazy activation).
        self._accepting_order: Optional[_CandidateOrder] = None
        #: All nodes by (num_jobs, node_id); None until first queried.
        self._load_order: Optional[_CandidateOrder] = None
        #: Nodes that changed since their row was last published.
        self._dirty: Set[int] = set()
        #: Aggregates over the published rows of live nodes, maintained
        #: on every publication so a domain summary costs O(1) per
        #: shard instead of a per-node walk.
        self._agg_idle_mb = 0.0
        self._agg_thrashing = 0
        for node in nodes:
            node.add_change_listener(self._node_changed)
        if exchange_interval_s > 0:
            # The first round collects every node.
            self._dirty.update(self._node_by_id)
            self.refresh(sim.now)

    # ------------------------------------------------------------------
    def refresh(self, time: float) -> None:
        """Close one exchange round at grid time ``time``.

        Only nodes that reported a change since their last collection
        are collected — an unchanged node's snapshot would come out
        field-identical, so skipping it is free.  Each dirty node's
        row, in ascending node id, is published with timestamp
        ``time``; the candidate orders take it at their next read.
        The caller runs this before any row changes after ``time``, so
        the rows still read what they read then.
        """
        self.refreshes += 1
        dirty = self._dirty
        if not dirty:
            return
        node_ids = sorted(dirty)
        dirty.clear()
        hook = self.fault_hook
        dropped = delayed = 0
        for node_id in node_ids:
            if hook is not None:
                action, delay_s = hook(node_id)
                if action == "drop":
                    # The update was lost: the node stays dirty so the
                    # next round retries it.
                    dirty.add(node_id)
                    dropped += 1
                    continue
                if action == "delay":
                    self._sim.schedule(
                        delay_s,
                        functools.partial(self._apply_delayed,
                                          self._row(node_id, time)),
                        priority=2, daemon=True)
                    delayed += 1
                    continue
            self._publish(self._row(node_id, time))
            self._unordered.add(node_id)
        obs = self.obs
        if obs.enabled:
            if hook is not None:
                obs.emit(time, "exchange", refreshed=len(node_ids),
                         round=self.refreshes, dropped=dropped,
                         delayed=delayed)
            else:
                obs.emit(time, "exchange", refreshed=len(node_ids),
                         round=self.refreshes)

    def _order(self) -> None:
        """Move the nodes published since the last read to their
        places in the active candidate orders."""
        unordered = self._unordered
        if self._accepting_order is not None or self._load_order is not None:
            rows = self._rows
            moved = False
            for node_id in unordered:
                moved |= self._reposition(node_id,
                                          self._row_keys(rows[node_id]))
            if moved:
                self.order_version += 1
        unordered.clear()

    def _current(self) -> None:
        """Bring the candidate orders up to date for a read: close a
        due round, then move what closed rounds published."""
        self._owner.catch_up()
        if self._unordered:
            self._order()

    def _apply_delayed(self, row: tuple) -> None:
        """Land a delayed exchange update.

        Out-of-order delivery is the point: the row may be staler than
        what a later round already published — a real lossy network
        re-delivers old load reports too.  An update for a node that
        has crashed since collection is discarded (the eviction wins).
        """
        node_id = row[0]
        if not self._node_by_id[node_id].alive:
            return
        self._publish(row)
        if self._reposition(node_id, self._row_keys(row)):
            self.order_version += 1

    def _row(self, node_id: int, time: float) -> tuple:
        """The :class:`NodeSnapshot` fields of ``node_id``'s row, as
        published at ``time``."""
        state = self._state
        bits = state.flags[node_id]
        alive = bool(bits & FLAG_ALIVE)
        return (node_id,
                ((state.num_running[node_id] + state.inbound_jobs[node_id])
                 if alive else 0),
                state.idle_memory_mb[node_id],
                state.total_demand_mb[node_id],
                state.fault_rate_per_s[node_id],
                bool(bits & FLAG_ACCEPTING),
                time,
                alive,
                alive and bool(bits & FLAG_THRASHING))

    def _publish(self, row: tuple) -> None:
        """Store a row, maintaining the live-node aggregates.  Every
        publication counts, one that no reader saw included: float
        sums depend on the order of their terms."""
        node_id = row[0]
        old = self._rows.get(node_id)
        if old is not None and old[7]:
            self._agg_idle_mb -= old[2]
            self._agg_thrashing -= old[8]
        if row[7]:
            self._agg_idle_mb += row[2]
            self._agg_thrashing += row[8]
        self._rows[node_id] = row

    # ------------------------------------------------------------------
    # candidate orders
    # ------------------------------------------------------------------
    @staticmethod
    def _row_keys(row: tuple) -> Tuple[Optional[tuple], Optional[tuple]]:
        node_id, num_jobs, idle, _, _, accepting, _, alive, _ = row
        if not alive:
            return None, None
        accepting_key = (-idle, num_jobs, node_id) if accepting else None
        return accepting_key, (num_jobs, node_id)

    def _live_keys(self, node: "Workstation"
                   ) -> Tuple[Optional[tuple], Optional[tuple]]:
        state = self._state
        node_id = node.node_id
        bits = state.flags[node_id]
        if not bits & FLAG_ALIVE:
            return None, None
        num_jobs = (state.num_running[node_id]
                    + state.inbound_jobs[node_id])
        accepting_key = ((-state.idle_memory_mb[node_id], num_jobs,
                          node_id) if bits & FLAG_ACCEPTING else None)
        return accepting_key, (num_jobs, node_id)

    def _keys_of(self, node: "Workstation") -> Tuple[Optional[tuple], tuple]:
        """Key pair (accepting order, load order) under the directory's
        staleness regime."""
        if self.exchange_interval_s == 0:
            return self._live_keys(node)
        return self._row_keys(self._rows[node.node_id])

    def _reposition(self, node_id: int,
                    keys: Tuple[Optional[tuple], tuple]) -> bool:
        accepting_key, load_key = keys
        moved = False
        if self._accepting_order is not None:
            moved |= self._accepting_order.update(node_id, accepting_key)
        if self._load_order is not None:
            moved |= self._load_order.update(node_id, load_key)
        return moved

    def _node_changed(self, node: "Workstation") -> None:
        """Workstation change hook: live mode repositions the node in
        the active orders immediately; periodic mode marks it dirty for
        the next exchange round, telling the owner when the shard goes
        from clean to dirty."""
        if self.exchange_interval_s == 0:
            if self._reposition(node.node_id, self._live_keys(node)):
                self.order_version += 1
        else:
            if not self._dirty:
                self._owner._shard_dirtied(self)
            self._dirty.add(node.node_id)

    # ------------------------------------------------------------------
    # fail-stop membership (fault injection)
    # ------------------------------------------------------------------
    def evict(self, node_id: int) -> None:
        """Remove a crashed node from both candidate orders at once.

        Eviction is immediate rather than waiting for the next
        exchange round: a real load-sharing system learns of a crash
        through connection failure, not through the periodic load
        report.  In periodic mode the dead row is published so stale
        reads also see the node as gone.
        """
        if self.exchange_interval_s != 0:
            self._publish(self._row(node_id, self._sim.now))
            self._dirty.discard(node_id)
        if self._reposition(node_id, (None, None)):
            self.order_version += 1

    def readmit(self, node_id: int) -> None:
        """Put a recovered node back into the candidate orders."""
        node = self._node_by_id[node_id]
        if self.exchange_interval_s != 0:
            self._publish(self._row(node_id, self._sim.now))
            self._dirty.discard(node_id)
        if self._reposition(node_id, self._keys_of(node)):
            self.order_version += 1

    def accepting_ids(self) -> List[int]:
        """Accepting node ids ordered by (idle memory desc, job count
        asc, node id) — identical to sorting a fresh ``snapshots()``
        list, without the per-call rebuild."""
        self._current()
        if self._accepting_order is None:
            self._accepting_order = _CandidateOrder(
                (node.node_id, self._keys_of(node)[0])
                for node in self._nodes)
            self.order_version += 1
        return self._accepting_order.ids()

    def load_order_ids(self) -> List[int]:
        """All live node ids ordered by (job count asc, node id)."""
        self._current()
        if self._load_order is None:
            self._load_order = _CandidateOrder(
                (node.node_id, self._keys_of(node)[1])
                for node in self._nodes)
            self.order_version += 1
        return self._load_order.ids()

    def least_num_jobs(self) -> int:
        """Smallest published job count across all nodes (O(1) once
        the load order is active: reads its first entry instead of
        materializing the full ids list)."""
        if self._load_order is None:
            self.load_order_ids()  # activate the order lazily
        else:
            self._current()
        entries = self._load_order.entries
        return entries[0][0] if entries else 0

    # ------------------------------------------------------------------
    # published aggregates (domain summaries)
    # ------------------------------------------------------------------
    def published_idle_mb(self) -> float:
        """Total idle memory over the published view of live nodes."""
        if self.exchange_interval_s == 0:
            return sum(snap.idle_memory_mb for snap in self.snapshots()
                       if snap.alive)
        self._owner.catch_up()
        return self._agg_idle_mb

    def thrashing_count(self) -> int:
        """Live nodes whose published view shows them thrashing."""
        if self.exchange_interval_s == 0:
            return sum(1 for snap in self.snapshots()
                       if snap.alive and snap.thrashing)
        self._owner.catch_up()
        return self._agg_thrashing

    def accepting_count(self) -> int:
        """Nodes currently in the accepting order (O(1) once the
        order is active: its length is the count — the ids list the
        public accessor materializes is not needed)."""
        if self._accepting_order is None:
            self.accepting_ids()  # activate the order lazily
        else:
            self._current()
        return len(self._accepting_order.entries)

    # ------------------------------------------------------------------
    def snapshot(self, node_id: int) -> NodeSnapshot:
        """The current view of ``node_id`` (live when period is 0)."""
        if self.exchange_interval_s == 0:
            return NodeSnapshot(*self._row(node_id, self._sim.now))
        self._owner.catch_up()
        return NodeSnapshot(*self._rows[node_id])

    def snapshots(self) -> List[NodeSnapshot]:
        """Views of all nodes, ordered by node id."""
        return [self.snapshot(node.node_id) for node in self._nodes]
