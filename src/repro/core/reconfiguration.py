"""V-Reconfiguration: the paper's adaptive and virtual reconfiguration.

Extends :class:`~repro.scheduling.g_loadsharing.GLoadSharing` with the
reconfiguration routine of §2.1::

    While the load sharing system is on
        if job submissions or/and migrations are allowed
            general_dynamic_load_sharing();
        else  # start reconfiguration
            if exists reservation_flag(reserved_ID) == 1
               and the workstation has enough available resources:
                node_ID = reserved_ID
            else:
                node_ID = reserve_a_workstation()
                reservation_flag(node_ID) = 1
            job_ID = find_most_memory_intensive_job()
            migrate_job(job_ID, node_ID)

Mapping to this event-driven implementation:

* "job submissions or/and migrations are allowed" — the negative case
  is the blocking problem, detected by the base policy's overload path
  and delivered through :meth:`on_blocking`;
* ``reserve_a_workstation()`` — picks the most lightly loaded
  non-reserved workstation with the largest idle memory, blocks
  submissions to it, and waits for the reserving period to end (the
  manager fires :attr:`ReservationManager.on_ready`);
* the routine activates only when accumulated idle memory in the
  cluster exceeds the average user memory of a workstation, and it
  adaptively cancels the reservation if the blocking problem
  disappears during the reserving period;
* the reservation is released when the reserved workstation completes
  all migrated jobs, at which point the scheduler views it as a
  regular workstation again.
"""

from __future__ import annotations

import functools
from typing import Optional

from repro.cluster.cluster import Cluster
from repro.cluster.job import Job, JobState
from repro.cluster.workstation import Workstation
from repro.core.blocking import BlockingDetector
from repro.core.reservation import (
    Reservation,
    ReservationManager,
    ReservationMode,
    ReservationState,
)
from repro.scheduling.g_loadsharing import GLoadSharing


class VReconfiguration(GLoadSharing):
    """Dynamic load sharing supported by virtual reconfiguration.

    The default reserving-period rule is the paper's parenthetical
    alternative ("end the reserving period as soon as the available
    memory space in the reserved workstation is sufficiently large for
    a job migration with large memory demand"): with our compressed
    job lifetimes, waiting for a full drain leaves reservations stuck
    behind multiprogrammed nodes for several job lifetimes.  The
    drain-all rule is available via ``mode`` and measured by the
    reservation-mode ablation.
    """

    name = "V-Reconfiguration"

    def __init__(self, cluster: Cluster,
                 mode: ReservationMode = ReservationMode.FIRST_FIT,
                 max_reserved: int = 4,
                 reserve_timeout_s: float = 600.0,
                 blocking_persistence: int = 2,
                 reservation_backoff_s: float = 30.0,
                 max_concurrent_reserving: int = 3,
                 age_weighted_victims: bool = False,
                 **kwargs):
        super().__init__(cluster, **kwargs)
        self.detector = BlockingDetector(cluster)
        self.reservations = ReservationManager(
            cluster, mode=mode,
            max_reserved=min(max_reserved, cluster.num_nodes - 1),
            reserve_timeout_s=reserve_timeout_s)
        self.reservations.on_ready = self._reservation_ready
        #: Blocking must be observed this many times in a row on a node
        #: before a reserving period starts ("a certain amount of page
        #: faults", §2.1).
        self.blocking_persistence = max(1, blocking_persistence)
        #: Hysteresis after a cancelled/timed-out reservation.
        self.reservation_backoff_s = reservation_backoff_s
        #: How many reserving periods may run at once (several blocked
        #: hot spots can be relieved in parallel).
        self.max_concurrent_reserving = max(1, max_concurrent_reserving)
        #: When True, victims are ranked by demand x predicted
        #: remaining lifetime (§2.2 cites [5]: a job that has stayed
        #: long is predicted to stay even longer) instead of demand
        #: alone — an extension ablated in the benchmarks.
        self.age_weighted_victims = age_weighted_victims
        self._blocked_streak: dict = {}
        self._last_blocked_at: dict = {}
        self._backoff_until = 0.0
        self._obs_reserve = cluster.obs.channel("reconfig.reservation")

    # ------------------------------------------------------------------
    # the reconfiguration routine
    # ------------------------------------------------------------------
    def on_blocking(self, node: Workstation, job: Job,
                    demand_mb: float) -> None:
        """Blocking detected: reuse a reserved workstation or start a
        reserving period.  Counts and emits the blocking as the base
        hook does (inlined: under saturation this runs every visit)."""
        self.stats.blocking_events += 1
        obs = self._obs_block
        if obs.enabled:
            obs.emit(self.sim.now, "blocking", node=node.node_id,
                     job=job.job_id, fault_rate_per_s=node.fault_rate_per_s)
        if not self._migratable_to_reservation(job, demand_mb):
            return
        # Reuse path: an existing reserved workstation with enough
        # available resources.
        reservations = self.reservations
        reservation = reservations.serving_reservation_with_capacity(
            demand_mb)
        if reservation is not None:
            self._migrate_to_reservation(job, node, reservation)
            return
        # Persistence: blocking must be seen on this node in a row ("a
        # certain amount of page faults", §2.1); a streak that lapses
        # for more than 2.5 monitor periods starts over.
        node_id = node.node_id
        now = self.sim.now
        last = self._last_blocked_at.get(node_id)
        if last is None or now - last > 2.5 * self.config.monitor_interval_s:
            streak = 1
        else:
            streak = self._blocked_streak[node_id] + 1
        self._blocked_streak[node_id] = streak
        self._last_blocked_at[node_id] = now
        if streak < self.blocking_persistence:
            return
        # Bounded parallelism: a few reserving periods may overlap, but
        # don't hoard nodes for one episode.
        if reservations.num_reserving >= self.max_concurrent_reserving:
            return
        if not reservations.can_reserve():
            return
        if now < self._backoff_until:
            return
        # Activation condition: accumulated idle memory must exceed the
        # average user memory of a workstation (§2.1, §2.3).
        idle = self.cluster.total_idle_memory_mb(exclude_reserved=True)
        threshold = self.cluster.average_user_memory_mb()
        if idle <= threshold:
            self.stats.extra["activation_skipped"] = (
                self.stats.extra.get("activation_skipped", 0) + 1)
            obs = self._obs_block
            if obs.enabled:
                obs.emit(now, "activation-skipped",
                         node=node_id, idle_memory_mb=idle,
                         threshold_mb=threshold)
            return
        candidate = self._reserve_a_workstation(exclude=node_id,
                                                needed_mb=demand_mb)
        if candidate is None:
            return
        self.stats.extra["reservations"] = (
            self.stats.extra.get("reservations", 0) + 1)
        reservations.reserve(candidate, needed_mb=demand_mb)

    def _migratable_to_reservation(self, job: Job, demand_mb: float) -> bool:
        """Like :meth:`_migratable` but with a softer payoff bound: a
        reserved workstation removes the job's page faults entirely, so
        the transfer pays for itself sooner.  ``demand_mb`` is the
        job's current demand."""
        if job.state is not JobState.RUNNING:
            return False
        cost = self.cluster.network.migration_cost_s(demand_mb)
        return job.remaining_work_s > max(
            self.min_remaining_for_migration_s, cost)

    def _reserve_a_workstation(self, exclude: int,
                               needed_mb: float) -> Optional[Workstation]:
        """The most lightly loaded workstation with the largest idle
        memory (§2.1).  "Most lightly loaded" is operationalized as the
        node whose reserving period will end soonest: the estimated
        time until, with submissions blocked, enough memory has been
        freed for the candidate job.

        The pick comes from the blocked node's own domain; when that
        domain has no reservable node, from the summary-ranked remote
        domain that first offers one (the migration then crosses the
        domain boundary over the ordinary network model)."""
        directory = self.cluster.directory
        local = directory.domain_of(exclude)
        chosen = self._reservable_in(local, exclude, needed_mb)
        if chosen is not None:
            return chosen
        for d in directory.ranked_remote_domains(local):
            chosen = self._reservable_in(d, exclude, needed_mb)
            if chosen is None:
                continue
            self.stats.extra["cross_domain_reservations"] = (
                self.stats.extra.get("cross_domain_reservations", 0) + 1)
            obs = self._obs_reserve
            if obs.enabled:
                obs.emit(self.sim.now, "cross-domain-reserve",
                         node=chosen.node_id, domain=d,
                         from_domain=local, blocked_node=exclude)
            return chosen
        return None

    def _reservable_in(self, domain: int, exclude: int,
                       needed_mb: float) -> Optional[Workstation]:
        """The best node to reserve in ``domain``, or None."""
        lo, hi = self.cluster.directory.domain_bounds(domain)
        candidates = [n for n in self.cluster.nodes[lo:hi]
                      if n.alive and not n.reserved
                      and n.node_id != exclude and not n.thrashing]
        if not candidates:
            return None
        # Prefer nodes that are already not accepting submissions
        # (slot-capped): blocking those costs the cluster no admission
        # capacity during the reserving period.
        return min(candidates, key=lambda n: (
            n.accepting, self._time_to_fit(n, needed_mb), -n.idle_memory_mb,
            n.node_id))

    @staticmethod
    def _time_to_fit(node: Workstation, needed_mb: float) -> float:
        """Estimated seconds until ``node`` (blocked from new
        submissions) has ``needed_mb`` idle: walk its jobs shortest-
        remaining-first, accumulating freed memory."""
        idle = node.idle_memory_mb
        if idle >= needed_mb:
            return 0.0
        horizon = 0.0
        jobs = sorted(node.running_jobs, key=lambda j: j.remaining_work_s)
        for job in jobs:
            horizon = job.remaining_work_s  # rates are <= 1, so this is
            idle += job.current_demand_mb   # an optimistic lower bound
            if idle >= needed_mb:
                return horizon
        return horizon

    # ------------------------------------------------------------------
    def _reservation_ready(self, reservation: Reservation) -> None:
        """The reserving period ended: adaptively either migrate the
        most memory-intensive faulting job in, or cancel."""
        victim = self.detector.most_memory_intensive_stuck_job()
        if victim is None:
            # No strictly *stuck* job; still serve the largest faulting
            # job if one exists (it was large enough to trigger the
            # reservation and remains the cluster's paging hot spot).
            victim = self._largest_faulting_job()
        if victim is None:
            # Blocking disappeared: back to normal load sharing.
            self._cancel_with_backoff(reservation)
            return
        job, node = victim
        if not self._migratable_to_reservation(job, job.current_demand_mb):
            self._cancel_with_backoff(reservation)
            return
        self._migrate_to_reservation(job, node, reservation)

    def _victim_score(self, job: Job) -> float:
        """Rank migration victims: by memory demand (the paper's
        rule), optionally weighted by the job's age as a predictor of
        remaining lifetime (§2.2, citing [5])."""
        if not self.age_weighted_victims:
            return job.current_demand_mb
        age = max(0.0, self.sim.now - job.submit_time)
        return job.current_demand_mb * (1.0 + age)

    def _largest_faulting_job(self):
        best = None
        for node in self.cluster.nodes:
            if node.reserved:
                continue
            job, demand = node.most_memory_intensive(faulting_only=True)
            if job is None or not self._migratable_to_reservation(job,
                                                                  demand):
                continue
            if best is None or (self._victim_score(job)
                                > self._victim_score(best[0])):
                best = (job, node)
        return best

    def _cancel_with_backoff(self, reservation: Reservation) -> None:
        """Adaptive cancellation: blocking disappeared during the
        reserving period, so release the node and hold off on new
        reservations for the backoff window."""
        self.stats.extra["backoff_cancellations"] = (
            self.stats.extra.get("backoff_cancellations", 0) + 1)
        obs = self._obs_reserve
        if obs.enabled:
            obs.emit(self.sim.now, "backoff-cancel",
                     node=reservation.node.node_id,
                     reservation=reservation.reservation_id,
                     backoff_until=self.sim.now + self.reservation_backoff_s)
        self.reservations.cancel(reservation)
        self._backoff_until = self.sim.now + self.reservation_backoff_s

    def _migrate_to_reservation(self, job: Job, source: Workstation,
                                reservation: Reservation) -> None:
        job.dedicated = True
        self.reservations.assign(reservation, job)
        self.stats.extra["reconfiguration_migrations"] = (
            self.stats.extra.get("reconfiguration_migrations", 0) + 1)
        self.migrate(
            job, source, reservation.node,
            on_arrival=functools.partial(
                self.reservations.job_arrived, reservation),
            on_abandoned=functools.partial(
                self.reservations.migration_abandoned, reservation))

    # ------------------------------------------------------------------
    # checkpoint fork support
    # ------------------------------------------------------------------
    def retire(self) -> None:
        """On top of the base retirement, wind the reservation machinery
        down: reserving periods that have not served yet are cancelled
        (their nodes return to normal load sharing for the successor),
        and the ready hook is detached so a drain completing later
        cannot trigger a migration by the retired policy.  SERVING
        reservations keep draining their already-migrated jobs — that
        work is physically on the reserved node — and release normally
        through the manager's job-finished listener."""
        super().retire()
        self.reservations.on_ready = None
        for reservation in list(self.reservations.active_reservations):
            if reservation.state is ReservationState.RESERVING:
                self.reservations.cancel(reservation)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    @property
    def reservation_timeline(self):
        return self.reservations.timeline
