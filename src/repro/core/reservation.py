"""Reservation lifecycle for virtual cluster reconfiguration (§2.1).

A reservation goes through:

``RESERVING``
    The chosen workstation stops accepting submissions/migrations and
    drains.  The *reserving period* ends when its running jobs have
    completed (``ReservationMode.DRAIN_ALL``, the paper's primary
    rule) or as soon as its idle memory fits the candidate job
    (``ReservationMode.FIRST_FIT``, the alternative the paper mentions
    parenthetically).  If blocking disappears meanwhile, the
    reservation is cancelled and the node returns to normal load
    sharing — the *adaptive* part.

``SERVING``
    Large jobs are migrated in.  The reservation is *released* (flag
    turned off, normal submissions resume) when the workstation
    completes all migrated jobs.

The manager enforces an upper bound on simultaneously reserved
workstations (§2.2: reserving too many would starve normal jobs) and a
reserving-period timeout (§2.3: if a workstation cannot be reserved
within a predetermined interval the cluster is truly heavily loaded).
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.cluster.cluster import Cluster
from repro.cluster.job import Job
from repro.cluster.workstation import _EPS, Workstation


class ReservationMode(enum.Enum):
    """When does the reserving period end?"""

    DRAIN_ALL = "drain-all"    # all running jobs complete (paper default)
    FIRST_FIT = "first-fit"    # idle memory fits the candidate job


class ReservationState(enum.Enum):
    RESERVING = "reserving"
    SERVING = "serving"
    RELEASED = "released"
    CANCELLED = "cancelled"


_res_counter = itertools.count()


@dataclass
class Reservation:
    """One reserved workstation and its special-service bookkeeping."""

    node: Workstation
    mode: ReservationMode
    needed_mb: float
    created_at: float
    reservation_id: int = field(default_factory=lambda: next(_res_counter))
    state: ReservationState = ReservationState.RESERVING
    serving_since: Optional[float] = None
    closed_at: Optional[float] = None
    migrated_job_ids: Set[int] = field(default_factory=set)
    #: Jobs currently in flight towards this reservation.
    inbound: int = 0

    @property
    def active(self) -> bool:
        return self.state in (ReservationState.RESERVING,
                              ReservationState.SERVING)

    def ready(self) -> bool:
        """Has the reserving period ended?"""
        if self.state is not ReservationState.RESERVING:
            return False
        if self.node.num_running == 0:
            return True
        if self.mode is ReservationMode.FIRST_FIT:
            return self.node.idle_memory_mb >= self.needed_mb
        return False


@dataclass(frozen=True)
class ReservationEvent:
    """Timeline entry (reserve / ready / assign / release / ...)."""

    time: float
    kind: str
    node_id: int
    reservation_id: int
    job_id: Optional[int] = None


class ReservationManager:
    """Tracks reservations and drives their lifecycle."""

    def __init__(self, cluster: Cluster,
                 mode: ReservationMode = ReservationMode.DRAIN_ALL,
                 max_reserved: int = 4,
                 reserve_timeout_s: float = 300.0):
        if max_reserved < 1:
            raise ValueError("max_reserved must be at least 1")
        if max_reserved >= cluster.num_nodes:
            raise ValueError("cannot allow reserving every node")
        self.cluster = cluster
        self.mode = mode
        self.max_reserved = max_reserved
        self.reserve_timeout_s = reserve_timeout_s
        #: The active reservations by node id, in the order they were
        #: made: :meth:`_close` pops a reservation as it leaves the
        #: active states, so every entry is RESERVING or SERVING.
        self._by_node: Dict[int, Reservation] = {}
        #: How many of them are RESERVING (kept by reserve, assign and
        #: _close, the only places a state leaves or enters it).
        self._num_reserving = 0
        #: Bumped where a reservation is made, starts serving or closes
        #: (reserve, assign, _close): with the cluster state version it
        #: keys the reuse scan's cached answer.
        self._version = 0
        #: ``(state version, _version)`` of ``_reuse_best``.
        self._reuse_key: Optional[tuple] = None
        #: The first SERVING reservation with a free slot and the most
        #: idle memory (None if no serving node has a free slot).
        self._reuse_best: Optional[Reservation] = None
        self.history: List[Reservation] = []
        self.timeline: List[ReservationEvent] = []
        self._obs = cluster.obs.channel("reconfig.reservation")
        #: Fired when a reserving period completes: callback(reservation).
        self.on_ready: Optional[Callable[[Reservation], None]] = None
        cluster.on_job_finished(self._job_finished)
        if cluster.faults is not None:
            cluster.faults.reservation_manager = self

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def active_reservations(self) -> List[Reservation]:
        return list(self._by_node.values())

    @property
    def num_reserved(self) -> int:
        return len(self._by_node)

    @property
    def num_reserving(self) -> int:
        """Reservations still in their reserving period."""
        return self._num_reserving

    def can_reserve(self) -> bool:
        return len(self._by_node) < self.max_reserved

    def reservation_for_node(self, node_id: int) -> Optional[Reservation]:
        return self._by_node.get(node_id)

    def serving_reservation_with_capacity(self, demand_mb: float
                                          ) -> Optional[Reservation]:
        """The paper's reuse path: an existing reserved workstation
        with enough available resources for a job demanding
        ``demand_mb``.  The one with the most idle memory wins; on a
        tie, the earliest made.

        Every reservation with room for the job is serving and has a
        free slot, so the first such reservation with the most idle
        memory (cached until a node row or a reservation changes) is
        the answer if it has room, and no reservation has room if it
        does not.
        """
        key = (self.cluster.state.version, self._version)
        if key != self._reuse_key:
            self._reuse_best = self._most_idle_serving()
            self._reuse_key = key
        best = self._reuse_best
        if (best is not None
                and best.node.idle_memory_mb >= demand_mb - _EPS):
            return best
        return None

    def _most_idle_serving(self) -> Optional[Reservation]:
        best = None
        best_idle = 0.0
        for reservation in self._by_node.values():
            if reservation.state is not ReservationState.SERVING:
                continue
            node = reservation.node
            if not node.has_free_slot:
                continue
            idle = node.idle_memory_mb
            if best is None or idle > best_idle:
                best = reservation
                best_idle = idle
        return best

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def reserve(self, node: Workstation, needed_mb: float) -> Reservation:
        """Start a reserving period on ``node``."""
        if node.reserved:
            raise ValueError(f"node {node.node_id} is already reserved")
        if not self.can_reserve():
            raise ValueError("reservation limit reached")
        node.reserved = True
        reservation = Reservation(node=node, mode=self.mode,
                                  needed_mb=needed_mb,
                                  created_at=self.cluster.sim.now)
        self._by_node[node.node_id] = reservation
        self._num_reserving += 1
        self._version += 1
        self.history.append(reservation)
        self._log("reserve", reservation)
        if self.reserve_timeout_s > 0:
            self.cluster.sim.schedule(
                self.reserve_timeout_s,
                functools.partial(self._timeout, reservation), daemon=True)
        # An idle node is ready immediately (zero-length reserving period).
        if reservation.ready():
            self._mark_ready(reservation)
        return reservation

    def assign(self, reservation: Reservation, job: Job) -> None:
        """Record that ``job`` is being migrated into ``reservation``
        (call before the transfer starts)."""
        if not reservation.active:
            raise ValueError("reservation is not active")
        if reservation.state is ReservationState.RESERVING:
            self._num_reserving -= 1
        reservation.state = ReservationState.SERVING
        self._version += 1
        if reservation.serving_since is None:
            reservation.serving_since = self.cluster.sim.now
        reservation.migrated_job_ids.add(job.job_id)
        reservation.inbound += 1
        self._log("assign", reservation, job.job_id)

    def job_arrived(self, reservation: Reservation, job: Job) -> None:
        """Record that an inbound migration landed."""
        reservation.inbound = max(0, reservation.inbound - 1)
        self._log("arrive", reservation, job.job_id)

    def cancel(self, reservation: Reservation) -> None:
        """Blocking disappeared during the reserving period: return the
        node to normal load sharing."""
        if reservation.state is not ReservationState.RESERVING:
            return
        self._close(reservation, ReservationState.CANCELLED, "cancel")

    def release(self, reservation: Reservation) -> None:
        """All migrated jobs completed: turn the reservation flag off."""
        if not reservation.active:
            return
        self._close(reservation, ReservationState.RELEASED, "release")

    def _close(self, reservation: Reservation, state: ReservationState,
               kind: str) -> None:
        """Move an active reservation to its final ``state`` and return
        its node to normal load sharing."""
        if reservation.state is ReservationState.RESERVING:
            self._num_reserving -= 1
        reservation.state = state
        reservation.closed_at = self.cluster.sim.now
        node = reservation.node
        node.reserved = False
        self._by_node.pop(node.node_id, None)
        self._version += 1
        self._log(kind, reservation)
        self.cluster.notify_node_changed(node)

    def _timeout(self, reservation: Reservation) -> None:
        if reservation.state is ReservationState.RESERVING:
            self._log("timeout", reservation)
            self.cancel(reservation)

    # ------------------------------------------------------------------
    # fault handling
    # ------------------------------------------------------------------
    def node_crashed(self, node_id: int) -> Optional[Reservation]:
        """A reserved workstation failed: abort its reservation so the
        reconfiguration routine can re-trigger elsewhere.  Returns the
        aborted reservation, or None if the node held none."""
        reservation = self._by_node.get(node_id)
        if reservation is None:
            return None
        self._close(reservation, ReservationState.CANCELLED, "crash-abort")
        return reservation

    def migration_abandoned(self, reservation: Reservation,
                            job: Job) -> None:
        """An inbound migration never landed (transfer retries
        exhausted): undo its assignment so the reservation does not
        wait forever for a job that fell back to its source."""
        job.dedicated = False
        if not reservation.active:
            return
        reservation.inbound = max(0, reservation.inbound - 1)
        reservation.migrated_job_ids.discard(job.job_id)
        self._log("abandon", reservation, job.job_id)
        if (reservation.state is ReservationState.SERVING
                and not reservation.migrated_job_ids
                and reservation.inbound == 0):
            self.release(reservation)

    # ------------------------------------------------------------------
    # event wiring
    # ------------------------------------------------------------------
    def _job_finished(self, job: Job, node: Workstation) -> None:
        reservation = self._by_node.get(node.node_id)
        if reservation is None:
            return
        if reservation.state is ReservationState.SERVING:
            reservation.migrated_job_ids.discard(job.job_id)
            # The paper releases "when the reserved workstation
            # completes executions of all the migrated jobs"; leftover
            # local jobs (FIRST_FIT mode) do not extend the reservation.
            if not reservation.migrated_job_ids and reservation.inbound == 0:
                self.release(reservation)
            return
        if reservation.ready():
            self._mark_ready(reservation)

    def _mark_ready(self, reservation: Reservation) -> None:
        self._log("ready", reservation)
        if self.on_ready is not None:
            self.on_ready(reservation)

    def _log(self, kind: str, reservation: Reservation,
             job_id: Optional[int] = None) -> None:
        now = self.cluster.sim.now
        self.timeline.append(ReservationEvent(
            time=now, kind=kind,
            node_id=reservation.node.node_id,
            reservation_id=reservation.reservation_id, job_id=job_id))
        obs = self._obs
        if obs.enabled:
            obs.emit(now, kind, node=reservation.node.node_id,
                     reservation=reservation.reservation_id, job=job_id,
                     needed_mb=reservation.needed_mb,
                     mode=reservation.mode.value)
