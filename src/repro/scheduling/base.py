"""Shared machinery for load-sharing policies.

The base class implements everything the paper's §1 framework
describes around the placement decision itself:

* **submission handling** — a job submitted at its home workstation is
  placed by :meth:`select_node`; a remote placement is charged the
  remote submission cost ``r``; when no node qualifies the job waits
  in a FIFO pending queue and placement is retried on every cluster
  state change;
* **monitoring** — a periodic monitor (default 1 s) checks each node
  for thrashing and calls :meth:`handle_overload`, where concrete
  policies implement their migration logic; the monitor is scheduled
  only while some node thrashes (:mod:`repro.sim.daemon`);
* **migration mechanics** — preemptive migration freezes the job,
  transfers its working-set image at cost ``r + D/B``, and restarts it
  at the destination, charging the delay to the job's ``t_mig``.

Subclasses override :meth:`select_node`, :meth:`handle_overload`, and
optionally :meth:`on_blocking` (called when an overloaded node has no
qualified migration destination — the trigger of the paper's
reconfiguration routine).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional
from collections import deque

from repro.cluster.cluster import Cluster
from repro.cluster.job import Job, JobState
from repro.cluster.workstation import _EPS, Workstation
from repro.sim.daemon import DaemonTick


class _TransferArrival:
    """Arrival callback of one migration-transfer attempt.

    A callable class rather than a closure so pending transfers can be
    pickled into a checkpoint (closures cannot).  ``delay`` is filled
    in *after* :meth:`Network.migrate` returns — under contention the
    transfer time is only known once the link queue has been consulted,
    but the callback object must exist before the call.
    """

    __slots__ = ("policy", "job", "source", "destination", "image_mb",
                 "on_arrival", "on_abandoned", "attempt", "failed", "delay")

    def __init__(self, policy: "LoadSharingPolicy", job: Job,
                 source: Workstation, destination: Workstation,
                 image_mb: float,
                 on_arrival: Optional[Callable[[Job], None]],
                 on_abandoned: Optional[Callable[[Job], None]],
                 attempt: int, failed: bool):
        self.policy = policy
        self.job = job
        self.source = source
        self.destination = destination
        self.image_mb = image_mb
        self.on_arrival = on_arrival
        self.on_abandoned = on_abandoned
        self.attempt = attempt
        self.failed = failed
        self.delay = 0.0

    def __call__(self) -> None:
        job, destination = self.job, self.destination
        if self.failed or not destination.alive:
            # The image was lost in flight, or the destination died
            # while it was on the wire.  The time is spent either
            # way; release the slot and decide on a retry.
            job.acct.migration_s += self.delay
            destination.inbound_jobs -= 1
            self.policy._transfer_failed(job, self.source, destination,
                                         self.image_mb, self.on_arrival,
                                         self.on_abandoned, self.attempt)
            return
        job.acct.migration_s += self.delay
        destination.inbound_jobs -= 1
        destination.add_job(job)
        if self.on_arrival is not None:
            self.on_arrival(job)
        self.policy.cluster.notify_node_changed(destination)


@dataclass
class PolicyStats:
    """Counters a policy accumulates while driving a workload."""

    submissions: int = 0
    local_placements: int = 0
    remote_submissions: int = 0
    migrations: int = 0
    migration_attempts: int = 0
    blocking_events: int = 0
    pending_peak: int = 0
    overload_checks: int = 0
    extra: Dict[str, float] = field(default_factory=dict)


class LoadSharingPolicy:
    """Base class; concrete policies override the placement hooks."""

    #: Human-readable policy name used in reports.
    name = "base"

    def __init__(self, cluster: Cluster,
                 migration_cooldown_s: float = 60.0,
                 min_remaining_for_migration_s: float = 5.0,
                 migration_payoff_factor: float = 2.0):
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = cluster.config
        self.stats = PolicyStats()
        self.migration_cooldown_s = migration_cooldown_s
        self.min_remaining_for_migration_s = min_remaining_for_migration_s
        self.migration_payoff_factor = migration_payoff_factor
        self._pending: Deque[Job] = deque()
        self._wait_started: Dict[int, float] = {}
        self._last_migration: Dict[int, float] = {}
        self._draining = False
        #: Cached candidate view keyed on (directory order version,
        #: exclude): one drain round over the pending queue — and any
        #: burst of selections between directory updates — reuses a
        #: single list instead of rebuilding per job.
        self._candidates_key: Optional[tuple] = None
        self._candidates_view: List[Workstation] = []
        #: Obs channels, cached once so the emit sites are a single
        #: attribute load + bool test while observability is off.
        self._obs_place = cluster.obs.channel("cluster.placement")
        self._obs_migrate = cluster.obs.channel("cluster.migration")
        self._obs_block = cluster.obs.channel("reconfig.blocking")
        self._obs_job = cluster.obs.channel("cluster.job")
        if cluster.faults is not None:
            cluster.faults.policy = self
        self._retired = False
        cluster.on_node_changed(self._on_node_changed)
        #: The overload monitor's tick: parked while no node thrashes,
        #: re-armed when one starts to.
        self._monitor = DaemonTick(self.sim, self, "_monitor_tick",
                                   self.config.monitor_interval_s,
                                   priority=3,
                                   armed=bool(cluster.thrashing_nodes))
        cluster.on_thrashing(self._wake_monitor)

    # ------------------------------------------------------------------
    # submission path
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Entry point: a job arrives at its home workstation."""
        self.stats.submissions += 1
        job.state = JobState.PENDING
        self._wait_started[job.job_id] = self.sim.now
        obs = self._obs_job
        if obs.enabled:
            obs.emit(self.sim.now, "submit", job=job.job_id,
                     home=job.home_node, cpu_work_s=job.cpu_work_s,
                     demand_mb=job.current_demand_mb, program=job.program)
        if not self._try_place(job):
            self._enqueue_pending(job)

    def _enqueue_pending(self, job: Job) -> None:
        self.cluster.state.pre_change()
        self._pending.append(job)
        self.stats.pending_peak = max(self.stats.pending_peak,
                                      len(self._pending))

    def _try_place(self, job: Job) -> bool:
        node = self.select_node(job)
        if node is None:
            return False
        if node.node_id == job.home_node:
            self.stats.local_placements += 1
            self._start(job, node)
        else:
            self.stats.remote_submissions += 1
            job.remote_submissions += 1
            self._start_remote(job, node)
        return True

    def _start(self, job: Job, node: Workstation) -> None:
        self._charge_wait(job)
        obs = self._obs_place
        if obs.enabled:
            obs.emit(self.sim.now, "local", job=job.job_id,
                     node=node.node_id, demand_mb=job.current_demand_mb)
        node.add_job(job)
        self.cluster.notify_node_changed(node)

    def _start_remote(self, job: Job, node: Workstation) -> None:
        self._charge_wait(job)
        obs = self._obs_place
        if obs.enabled:
            obs.emit(self.sim.now, "remote", job=job.job_id,
                     node=node.node_id, home=job.home_node,
                     demand_mb=job.current_demand_mb)
        job.state = JobState.MIGRATING
        node.inbound_jobs += 1
        delay = self.cluster.network.remote_cost_s
        self.cluster.network.submit_remote(
            functools.partial(self._remote_arrival, job, node, delay))

    def _remote_arrival(self, job: Job, node: Workstation,
                        delay: float) -> None:
        """A remote submission's image landed (or tried to)."""
        job.acct.migration_s += delay
        if not node.alive:
            # The destination crashed while the submission was in
            # flight: release the slot and requeue the job.
            node.inbound_jobs -= 1
            self._requeue_in_flight(job)
            return
        node.inbound_jobs -= 1
        node.add_job(job)
        self.cluster.notify_node_changed(node)

    def _charge_wait(self, job: Job) -> None:
        started = self._wait_started.pop(job.job_id, None)
        if started is None:
            return
        waited = self.sim.now - started
        if waited > 0:
            job.acct.queue_s += waited
            job.acct.pending_s += waited

    # ------------------------------------------------------------------
    # pending queue retry
    # ------------------------------------------------------------------
    def _on_node_changed(self, node: Workstation) -> None:
        self._drain_pending()

    def _drain_pending(self) -> None:
        if self._draining or not self._pending:
            return
        self.cluster.state.pre_change()
        self._draining = True
        try:
            progressed = True
            while progressed and self._pending:
                progressed = False
                for _ in range(len(self._pending)):
                    job = self._pending.popleft()
                    if self._try_place(job):
                        progressed = True
                    else:
                        self._pending.append(job)
                        # FIFO fairness: if the head cannot be placed,
                        # don't let later jobs overtake it this round.
                        break
        finally:
            self._draining = False

    @property
    def pending_jobs(self) -> List[Job]:
        return list(self._pending)

    @property
    def pending_count(self) -> int:
        """Pending-queue length without the list copy ``pending_jobs``
        makes — probed by every collector sample, so O(1) matters."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # monitoring and migration
    # ------------------------------------------------------------------
    def _wake_monitor(self) -> None:
        """A node started thrashing: arm the parked monitor."""
        self._monitor.arm()

    def _monitor_tick(self) -> None:
        """Check overloaded nodes once per monitor period.

        Only the cluster's maintained thrashing set is visited
        (ascending node id, live re-verified — a node handled earlier
        in the tick may have stopped thrashing).  No node can *become*
        thrashing synchronously inside a tick — demand only arrives
        through delayed network events — so the set always covers what
        a full scan would find.  A tick that ends with the set empty
        parks the monitor until a node starts thrashing again.
        """
        hot = self.cluster.thrashing_nodes
        if hot:
            nodes = self.cluster.nodes
            stats = self.stats
            handle_overload = self.handle_overload
            for node_id in sorted(hot):
                stats.overload_checks += 1
                node = nodes[node_id]
                if node.thrashing and not node._reserved:
                    handle_overload(node)
        self._monitor.fired(keep=bool(self.cluster.thrashing_nodes)
                            and not self._retired)

    def _migratable(self, job: Job, demand_mb: float) -> bool:
        """A migration must plausibly pay for itself: the job keeps
        running, its remaining work covers the transfer cost of its
        current demand ``demand_mb`` a few times over, and it has not
        just been moved."""
        if job.state is not JobState.RUNNING:
            return False
        cost = self.cluster.network.migration_cost_s(demand_mb)
        needed = max(self.min_remaining_for_migration_s,
                     self.migration_payoff_factor * cost)
        if job.remaining_work_s < needed:
            return False
        last = self._last_migration.get(job.job_id)
        return last is None or (self.sim.now - last
                                >= self.migration_cooldown_s)

    def migrate(self, job: Job, source: Workstation,
                destination: Workstation,
                on_arrival: Optional[Callable[[Job], None]] = None,
                on_abandoned: Optional[Callable[[Job], None]] = None
                ) -> float:
        """Preemptively migrate ``job``; returns the charged delay.

        Under fault injection a transfer may fail in flight (or land
        on a node that died meanwhile); failed transfers retry with
        capped exponential backoff and finally fall back to local
        execution — ``on_abandoned`` fires once if the job never
        reaches ``destination`` (so reservation bookkeeping can undo
        its assignment).
        """
        if job.state is not JobState.RUNNING:
            raise ValueError(f"cannot migrate job {job.job_id} in state "
                             f"{job.state}")
        image_mb = job.current_demand_mb
        source.remove_job(job)
        job.state = JobState.MIGRATING
        job.migrations += 1
        self.stats.migrations += 1
        self._last_migration[job.job_id] = self.sim.now
        delay = self._start_transfer(job, source, destination, image_mb,
                                     on_arrival, on_abandoned, attempt=0)
        obs = self._obs_migrate
        if obs.enabled:
            obs.emit(self.sim.now, "migrate", job=job.job_id,
                     source=source.node_id, dest=destination.node_id,
                     image_mb=image_mb, delay_s=delay,
                     dedicated=job.dedicated)
        self.cluster.notify_node_changed(source)
        return delay

    def _start_transfer(self, job: Job, source: Workstation,
                        destination: Workstation, image_mb: float,
                        on_arrival: Optional[Callable[[Job], None]],
                        on_abandoned: Optional[Callable[[Job], None]],
                        attempt: int) -> float:
        """One transfer attempt of a migrating job's memory image."""
        faults = self.cluster.faults
        failed = faults is not None and faults.migration_transfer_fails()
        destination.inbound_jobs += 1
        arrive = _TransferArrival(self, job, source, destination, image_mb,
                                  on_arrival, on_abandoned, attempt, failed)
        arrive.delay = self.cluster.network.migrate(image_mb, arrive)
        return arrive.delay

    def _transfer_failed(self, job: Job, source: Workstation,
                         destination: Workstation, image_mb: float,
                         on_arrival: Optional[Callable[[Job], None]],
                         on_abandoned: Optional[Callable[[Job], None]],
                         attempt: int) -> None:
        faults = self.cluster.faults
        cfg = faults.config
        faults.record_migration_failure(job, source, destination, attempt)
        if attempt < cfg.migration_max_retries:
            backoff = min(cfg.migration_backoff_cap_s,
                          cfg.migration_backoff_base_s * (2.0 ** attempt))
            faults.record_migration_retry(job, destination, attempt + 1,
                                          backoff)
            self.sim.schedule(
                backoff,
                functools.partial(self._retry_transfer, job, source,
                                  destination, image_mb, on_arrival,
                                  on_abandoned, attempt + 1))
            return
        self._abandon_migration(job, source, on_abandoned)

    def _retry_transfer(self, job: Job, source: Workstation,
                        destination: Workstation, image_mb: float,
                        on_arrival: Optional[Callable[[Job], None]],
                        on_abandoned: Optional[Callable[[Job], None]],
                        attempt: int) -> None:
        """Backoff elapsed: re-verify the destination, then re-send.

        The reserved flag is deliberately *not* re-checked: reservation
        migrations legitimately target a reserved workstation, and for
        ordinary migrations a reservation that appeared mid-retry
        still leaves the capacity checks authoritative.
        """
        if destination.alive and destination.has_room_for(
                job.current_demand_mb):
            self._start_transfer(job, source, destination, image_mb,
                                 on_arrival, on_abandoned, attempt)
            return
        self._abandon_migration(job, source, on_abandoned)

    def _abandon_migration(self, job: Job, source: Workstation,
                           on_abandoned: Optional[Callable[[Job], None]]
                           ) -> None:
        """Retries exhausted (or the destination is gone): fall back
        to local execution at the source, or requeue if the source
        itself died meanwhile."""
        faults = self.cluster.faults
        if on_abandoned is not None:
            on_abandoned(job)
        job.dedicated = False
        faults.record_migration_fallback(job, source)
        if source.alive:
            source.add_job(job)
            self.cluster.notify_node_changed(source)
        else:
            self._requeue_in_flight(job)

    def _requeue_in_flight(self, job: Job) -> None:
        """An in-flight job lost its destination and has no live node
        to fall back to: re-enter the submission path."""
        self.cluster.faults.record_inflight_requeue(job)
        job.state = JobState.PENDING
        self._wait_started[job.job_id] = self.sim.now
        obs = self._obs_job
        if obs.enabled:
            obs.emit(self.sim.now, "requeue", job=job.job_id,
                     reason="in-flight")
        if not self._try_place(job):
            self._enqueue_pending(job)

    def requeue_lost_jobs(self, node: Workstation,
                          jobs: List[Job]) -> None:
        """Crash-recovery hook (fault injection): jobs torn off a dead
        ``node`` re-enter the submission path in their running order.
        The injector has already applied the crash policy (progress
        reset for ``requeue``, kept for ``checkpoint``)."""
        obs = self._obs_job
        for job in jobs:
            self._wait_started[job.job_id] = self.sim.now
            if obs.enabled:
                obs.emit(self.sim.now, "requeue", job=job.job_id,
                         reason="crash", node=node.node_id)
            if not self._try_place(job):
                self._enqueue_pending(job)

    # ------------------------------------------------------------------
    # checkpoint fork support
    # ------------------------------------------------------------------
    def retire(self) -> None:
        """Permanently stop this policy's autonomous activity.

        Used when a checkpoint fork replaces the policy mid-run: the
        monitor tick is cancelled and the node-change and thrashing
        listeners removed, so the retiree makes no further placement or
        migration decisions and its monitor, armed or parked, stays
        parked.  Callbacks already in flight (transfer arrivals,
        retry backoffs) still execute against the shared cluster — they
        represent work physically on the wire — and land their jobs or
        requeue them into the pending deque the successor adopted.
        """
        self._retired = True
        self._monitor.cancel()
        self.cluster.remove_node_changed_listener(self._on_node_changed)
        self.cluster.remove_thrashing_listener(self._wake_monitor)

    def adopt_pending_from(self, old: "LoadSharingPolicy") -> None:
        """Take over a retired predecessor's queue state *by reference*.

        Sharing (rather than copying) the deque and the wait/cooldown
        maps means the predecessor's in-flight callbacks — which hold
        references to the same objects — keep landing in the queue the
        successor drains.  Call after :meth:`retire` on ``old``.
        """
        self._pending = old._pending
        self._wait_started = old._wait_started
        self._last_migration = old._last_migration
        self.stats.pending_peak = max(self.stats.pending_peak,
                                      len(self._pending))
        self._drain_pending()

    # ------------------------------------------------------------------
    # policy hooks
    # ------------------------------------------------------------------
    def select_node(self, job: Job) -> Optional[Workstation]:
        """Choose a workstation for a submission, or None to queue."""
        raise NotImplementedError

    def handle_overload(self, node: Workstation) -> None:
        """React to a thrashing node (called by the monitor)."""

    def on_blocking(self, node: Workstation, job: Job,
                    demand_mb: float) -> None:
        """Called when ``node`` thrashes but no qualified migration
        destination exists — the paper's blocking problem.  ``job`` is
        the migration candidate that could not be placed and
        ``demand_mb`` its current demand, as the victim loop read it."""
        self.stats.blocking_events += 1
        obs = self._obs_block
        if obs.enabled:
            obs.emit(self.sim.now, "blocking", node=node.node_id,
                     job=job.job_id, fault_rate_per_s=node.fault_rate_per_s)

    # ------------------------------------------------------------------
    # helpers shared by concrete policies
    # ------------------------------------------------------------------
    def _live_node(self, node_id: int) -> Workstation:
        return self.cluster.nodes[node_id]

    def candidates_by_idle_memory(self,
                                  exclude: Optional[int] = None
                                  ) -> List[Workstation]:
        """Nodes ordered by (idle memory desc, job count asc) using the
        possibly stale load directory; each is live-verified by the
        caller.

        Reads the directory's maintained accepting order (O(1)
        amortized; the returned list is cached per directory version
        and must not be mutated).  The domain of ``exclude`` comes
        first, then remote domains as the stale summaries rank (or
        skip) them; the cache key holds, as ``exclude`` fixes both.
        """
        directory = self.cluster.directory
        local = directory.domain_of(exclude) if exclude is not None else None
        ordered = directory.accepting_ids(local_domain=local)
        key = (directory.order_version, exclude)
        if key != self._candidates_key:
            nodes = self.cluster.nodes
            self._candidates_view = [nodes[node_id] for node_id in ordered
                                     if node_id != exclude]
            self._candidates_key = key
        return self._candidates_view

    def find_migration_destination(self, job: Job, exclude: Optional[int],
                                   demand_mb: float
                                   ) -> Optional[Workstation]:
        """Qualified destination per [3]: enough idle memory for the
        job's current demand ``demand_mb`` and a free slot; largest
        idle memory wins.

        A qualified node has idle memory of at least ``demand - _EPS``
        (``has_room_for``), so when that exceeds the cluster's bound on
        a destination's idle memory no candidate can qualify and the
        candidate list is never built: on a saturated cluster nearly
        every search ends here.
        """
        if demand_mb - _EPS > self.cluster.destination_idle_bound_mb():
            return None
        for node in self.candidates_by_idle_memory(exclude=exclude):
            if node.accepts_migration(job):
                return node
        return None
