"""Workstation model: multiprogrammed node with memory-aware progress.

Between simulator events every rate on a node is constant, so the node
advances all running jobs analytically and schedules exactly one
internal event at the earliest job completion or memory-phase
boundary.  On every state change (arrival, departure, migration, phase
boundary) accounting is brought up to date and rates are recomputed
from the CPU model (:mod:`repro.cluster.cpu`) and the paging model
(:mod:`repro.cluster.memory`).

Per-job accounting accumulates the paper's §5 decomposition:
``wall = cpu + page + io + queue (+ migration, charged elsewhere)``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.cluster.config import ClusterConfig, WorkstationSpec
from repro.cluster.cpu import progress_rates
from repro.cluster.job import Job, JobState
from repro.cluster.memory import PagingAssessment, PagingModel
from repro.cluster.state import (
    FLAG_ACCEPTING,
    FLAG_ALIVE,
    FLAG_RESERVED,
    FLAG_STARVING,
    FLAG_THRASHING,
    ClusterState,
)
from repro.obs.bus import NULL_CHANNEL
from repro.sim.engine import EventHandle, Simulator

_EPS = 1e-9


class Workstation:
    """One node of the simulated cluster.

    The workstation is a thin façade over its row of the columnar
    :class:`~repro.cluster.state.ClusterState`: every externally
    visible state change also writes through to the state columns
    (:meth:`_sync_row`) so batch consumers never have to walk node
    objects.
    """

    def __init__(self, sim: Simulator, node_id: int, spec: WorkstationSpec,
                 config: ClusterConfig, paging: PagingModel,
                 on_job_finished: Optional[Callable[[Job, "Workstation"], None]] = None,
                 *, state: ClusterState):
        self._sim = sim
        self.node_id = node_id
        self.spec = spec
        self.config = config
        self._paging = paging
        self.on_job_finished = on_job_finished
        self.user_memory_mb = config.user_memory_mb(spec)
        #: Columnar cluster state this node writes through to.
        self._state = state

        #: Observers notified after every externally visible state
        #: change (recompute, reservation flag, in-flight arrivals).
        #: The cluster tracks its thrashing set through this, and the
        #: load directory marks changed nodes dirty instead of
        #: re-snapshotting all N nodes every exchange round.
        self._change_listeners: List[Callable[["Workstation"], None]] = []

        #: Fail-stop liveness (fault injection).  A dead node reports
        #: no capacity, accepts nothing, and advances no job.
        self._alive = True
        #: Submissions/migrations blocked by a reservation (the paper's
        #: reservation flag) or by an overload condition.
        self._reserved = False
        #: Jobs committed to this node but still in transit (remote
        #: submissions and migrations reserve their slot up front, so
        #: concurrent placements do not over-commit a node).
        self._inbound_jobs = 0

        self._running: List[Job] = []
        #: Advance lanes built by ``_recompute``: six entries per
        #: running job, ``job, job.acct, rate, rate / speed, rate *
        #: fault_stall, rate * io_stall``; ``_advance`` multiplies the
        #: last three by ``dt``.  One flat list rather than a tuple per
        #: job, so a recompute allocates one container, not one per job.
        self._lanes: list = []
        self._assessment: Optional[PagingAssessment] = None
        self._last_update = sim.now
        self._next_event: Optional[EventHandle] = None

        # Cached aggregates.  Between simulator events every per-job
        # demand and rate on this node is constant (phase boundaries
        # and completions each get their own internal event, which
        # calls _recompute), so these values are exact until the next
        # state change — queries never need to re-sum the job list.
        self._total_demand_cache = 0.0
        self._fault_rate_cache = 0.0
        self._starving_cache = False

        # Diagnostics
        self.busy_cpu_s = 0.0
        self.completed_jobs = 0
        #: Recomputes run (surfaced as the
        #: ``obs.workstation_recomputes`` gauge).
        self.recomputes = 0

        #: ``memory.fault`` obs channel (thrashing transitions); the
        #: owning cluster points this at its bus.
        self.obs_fault = NULL_CHANNEL
        #: ``cluster.job`` obs channel (job start/stop/finish on this
        #: node, with accounting snapshots); wired by the cluster.
        self.obs_job = NULL_CHANNEL
        self._was_thrashing = False
        state.user_memory_mb[node_id] = self.user_memory_mb
        self._sync_row()

    def _emit_job(self, kind: str, job: Job, **extra) -> None:
        """Emit a ``cluster.job`` event carrying the job's cumulative
        accounting.  Callers guarantee the accounting is current (every
        emit site runs right after ``_advance``), so lifecycle trackers
        can compute exact per-segment cpu/page/io deltas."""
        acct = job.acct
        self.obs_job.emit(self._sim.now, kind, job=job.job_id,
                          node=self.node_id, cpu_s=acct.cpu_s,
                          page_s=acct.page_s, io_s=acct.io_s,
                          dedicated=job.dedicated, **extra)

    # ------------------------------------------------------------------
    # change notifications
    # ------------------------------------------------------------------
    def add_change_listener(self,
                            listener: Callable[["Workstation"], None]) -> None:
        """Subscribe to state changes of this node (see __init__)."""
        self._change_listeners.append(listener)

    def _notify_changed(self) -> None:
        for listener in self._change_listeners:
            listener(self)

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def reserved(self) -> bool:
        return self._reserved

    @reserved.setter
    def reserved(self, value: bool) -> None:
        self._reserved = value
        self._sync_row()
        self._notify_changed()

    @property
    def inbound_jobs(self) -> int:
        return self._inbound_jobs

    @inbound_jobs.setter
    def inbound_jobs(self, value: int) -> None:
        self._inbound_jobs = value
        self._sync_row()
        self._notify_changed()

    # ------------------------------------------------------------------
    # queries (always consistent with the current instant)
    # ------------------------------------------------------------------
    @property
    def num_running(self) -> int:
        return len(self._running)

    @property
    def committed_jobs(self) -> int:
        """Running jobs plus in-flight arrivals (slot accounting)."""
        return len(self._running) + self._inbound_jobs

    @property
    def running_jobs(self) -> List[Job]:
        """Snapshot list of the jobs currently running here."""
        self._advance()
        return list(self._running)

    @property
    def total_demand_mb(self) -> float:
        """Sum of current per-job demands (cached; see __init__)."""
        return self._total_demand_cache

    @property
    def idle_memory_mb(self) -> float:
        if not self._alive:
            return 0.0
        return max(0.0, self.user_memory_mb - self._total_demand_cache)

    @property
    def fault_rate_per_s(self) -> float:
        """Aggregate page faults per wall-clock second on this node."""
        return self._fault_rate_cache

    @property
    def has_starving_job(self) -> bool:
        """True when some job spends most of its potential progress
        stalled on page faults — the silently starved large job of the
        paper's §2.2 ("less competitive than jobs with small memory
        allocations")."""
        return self._starving_cache

    @property
    def thrashing(self) -> bool:
        """Overloaded by paging: either the node-aggregate fault rate
        exceeds the detection threshold, or some job is starving."""
        return (self._fault_rate_cache > self.config.fault_rate_threshold
                or self._starving_cache)

    @property
    def has_free_slot(self) -> bool:
        return self.committed_jobs < self.config.cpu_threshold

    @property
    def accepting(self) -> bool:
        """Submission-eligibility per [3]: alive, idle memory present,
        a job slot free, and not blocked by a reservation."""
        return (self._alive
                and not self.reserved
                and self.has_free_slot
                and self.idle_memory_mb >= self.config.min_idle_mb)

    def has_room_for(self, demand_mb: float) -> bool:
        """A free job slot and enough idle memory for ``demand_mb``
        (``has_free_slot`` and ``idle_memory_mb``, read from the
        fields: a dead node's idle memory reads 0).  Liveness and the
        reservation flag are left to the caller."""
        idle = (max(0.0, self.user_memory_mb - self._total_demand_cache)
                if self._alive else 0.0)
        return (len(self._running) + self._inbound_jobs
                < self.config.cpu_threshold
                and idle >= demand_mb - _EPS)

    def accepts_migration(self, job: Job) -> bool:
        """Qualified migration destination per [3]: enough idle memory
        for the job's current demand and a free job slot."""
        return (self._alive
                and not self._reserved
                and self.has_room_for(job.current_demand_mb))

    # ------------------------------------------------------------------
    # state changes
    # ------------------------------------------------------------------
    def add_job(self, job: Job) -> None:
        """Start (or resume) ``job`` on this node."""
        if not self._alive:
            raise ValueError(f"node {self.node_id} is down")
        if job.state is JobState.FINISHED:
            raise ValueError(f"job {job.job_id} already finished")
        if any(j.job_id == job.job_id for j in self._running):
            raise ValueError(f"job {job.job_id} already on node {self.node_id}")
        self._advance()
        job.state = JobState.RUNNING
        job.node_id = self.node_id
        self._running.append(job)
        if self.obs_job.enabled:
            self._emit_job("start", job)
        self._recompute()

    def remove_job(self, job: Job) -> None:
        """Detach ``job`` (for migration or suspension)."""
        self._advance()
        if job not in self._running:
            raise ValueError(f"job {job.job_id} not on node {self.node_id}")
        self._running.remove(job)
        if self.obs_job.enabled:
            self._emit_job("stop", job, reason="detach")
        job.node_id = None
        self._recompute()

    def crash(self) -> List[Job]:
        """Fail-stop this node; returns the jobs it was running.

        Accounting is brought up to the crash instant first, so the
        lost jobs' progress/accounting reflect work done until the
        failure.  The returned jobs are detached (``state=PENDING``,
        ``node_id=None``) and owned by the caller — the fault injector
        applies the crash policy (requeue vs. checkpoint) and hands
        them to the scheduling policy.  In-flight arrivals are *not*
        touched: their network callbacks observe ``alive`` on landing.
        """
        if not self._alive:
            raise ValueError(f"node {self.node_id} is already down")
        self._advance()
        lost = list(self._running)
        self._running.clear()
        for job in lost:
            if self.obs_job.enabled:
                self._emit_job("stop", job, reason="crash")
            job.node_id = None
            job.state = JobState.PENDING
            job.faulting = False
        self._alive = False
        self._recompute()
        return lost

    def recover(self) -> None:
        """Return a crashed node to service (empty, full capacity)."""
        if self._alive:
            raise ValueError(f"node {self.node_id} is not down")
        self._alive = True
        # Dead time belongs to nobody's accounting.
        self._last_update = self._sim.now
        self._recompute()

    def most_memory_intensive_job(self, faulting_only: bool = False
                                  ) -> Optional[Job]:
        """The paper's ``find_most_memory_intensive_job()``: the running
        job with the largest current memory demand (optionally only
        among jobs currently suffering page faults)."""
        return self.most_memory_intensive(faulting_only)[0]

    def most_memory_intensive(self, faulting_only: bool = False
                              ) -> Tuple[Optional[Job], float]:
        """``(job, demand_mb)`` of :meth:`most_memory_intensive_job`:
        the victim and its ``current_demand_mb``, read once after the
        advance so the overload path can pass the demand along
        (``(None, 0.0)`` without a qualifying job).

        The demand is read fresh, not taken from the last recompute:
        ``demand_at`` tolerates ``_TOL``, so a job advanced to within
        it of a phase start already reads the next phase before the
        boundary event fires."""
        self._advance()
        best = None
        best_demand = 0.0
        for job in self._running:
            if faulting_only and not job.faulting:
                continue
            demand = job.memory.demand_at(job.progress_s)
            # The maximum of (demand, -job_id): ties go to the lowest id.
            if (best is None or demand > best_demand
                    or (demand == best_demand and job.job_id < best.job_id)):
                best = job
                best_demand = demand
        return best, best_demand

    # ------------------------------------------------------------------
    # internal mechanics
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Bring progress and accounting up to the current instant."""
        now = self._sim.now
        if now == self._last_update:
            return
        dt = now - self._last_update
        if dt <= 0:
            return
        self._last_update = now
        busy = self.busy_cpu_s
        # Each part is ``(rate op factor) * dt``, the order in which the
        # unhoisted ``rate / speed * dt`` is evaluated; regrouping (say
        # ``rate * (fault_stall * dt)``) would change float bits.
        lane = iter(self._lanes)
        for job, acct, rate, cpu_rate, page_rate, io_rate in zip(
                lane, lane, lane, lane, lane, lane):
            progress = job.progress_s + rate * dt
            work = job.cpu_work_s
            job.progress_s = progress if progress < work else work
            cpu_part = cpu_rate * dt
            page_part = page_rate * dt
            io_part = io_rate * dt
            acct.cpu_s += cpu_part
            acct.page_s += page_part
            acct.io_s += io_part
            queued = dt - cpu_part - page_part - io_part
            if queued > 0.0:
                acct.queue_s += queued
            busy += cpu_part
        self.busy_cpu_s = busy

    def _recompute(self) -> None:
        """Recompute paging state and progress rates; reschedule the
        node's internal event.

        One pass over the running jobs reads every per-job input.  When
        some job faults, :meth:`_fault_fixed_point` resolves the
        thrashing penalties; otherwise a single rate allocation is
        exact.
        """
        running = self._running
        demand_list = []
        dedicated_list = []
        io_list = []
        cache_list = []
        for job in running:
            demand_list.append(job.memory.demand_at(job.progress_s))
            dedicated_list.append(job.dedicated)
            io_list.append(job.io_stall_per_cpu_s)
            cache_list.append(job.buffer_cache_mb)
        demands = tuple(demand_list)
        dedicated = tuple(dedicated_list)
        self.recomputes += 1
        self._total_demand_cache = sum(demands)
        self._assessment = self._paging.assess(demands, self.user_memory_mb)
        lambdas = self._assessment.fault_rates_per_cpu_s
        speed = self.spec.speed_factor
        tax = self.config.context_switch_tax

        # I/O buffer cache: lives in free memory, reclaimed before
        # anyone pages.  When pressure squeezes it below what the
        # node's I/O-active jobs want, their I/O stalls inflate
        # (uncached I/O costs the configured penalty factor more).
        cache_wanted = sum(cache_list)
        if cache_wanted > 0:
            free = max(0.0, self.user_memory_mb - self._total_demand_cache)
            cache_hit = min(1.0, free / cache_wanted)
            io_factor = 1.0 + self.config.uncached_io_penalty \
                * (1.0 - cache_hit)
        else:
            io_factor = 1.0
        io_stalls = [io * io_factor for io in io_list]

        lanes = []
        if any(lam > 0 for lam in lambdas):
            rates, fault_stalls = self._fault_fixed_point(
                lambdas, io_stalls, speed, tax, dedicated)
            self._fault_rate_cache = sum(
                rate * lam for rate, lam in zip(rates, lambdas))
            self._starving_cache = any(
                stall >= 1.0 for stall in fault_stalls)
            for job, lam, rate, fault_stall, io_stall in zip(
                    running, lambdas, rates, fault_stalls, io_stalls):
                job.faulting = lam > 0.0
                lanes += (job, job.acct, rate, rate / speed,
                          rate * fault_stall, rate * io_stall)
        else:
            # Nobody faults: every fault stall ``lam * service *
            # inflation`` is 0.0, so the stalls are the I/O stalls
            # alone and one rate allocation at full capacity is the
            # fixed point.  ``sum`` of the zero fault rates is the int
            # 0 on an empty node and 0.0 otherwise.
            rates = self._allocate_rates(speed, tax, io_stalls, 1.0,
                                         dedicated)
            self._fault_rate_cache = 0.0 if running else 0
            self._starving_cache = False
            for job, rate, io_stall in zip(running, rates, io_stalls):
                job.faulting = False
                lanes += (job, job.acct, rate, rate / speed, 0.0,
                          rate * io_stall)
        self._lanes = lanes
        obs = self.obs_fault
        if obs.enabled:
            thrash = self.thrashing
            if thrash != self._was_thrashing:
                self._was_thrashing = thrash
                obs.emit(self._sim.now,
                         "thrash-on" if thrash else "thrash-off",
                         node=self.node_id,
                         fault_rate_per_s=self._fault_rate_cache,
                         jobs=len(self._running))
        self._sync_row()
        self._schedule_next_event()
        self._notify_changed()

    def _fault_fixed_point(self, lambdas: List[float],
                           io_stalls: List[float], speed: float,
                           tax: float, dedicated: Tuple[bool, ...]
                           ) -> Tuple[List[float], List[float]]:
        """Rates and fault stalls of a node where some job faults.

        Thrashing has two node-level penalties on top of the per-job
        stalls: kernel CPU burned handling faults (shrinks usable
        capacity for everyone) and paging-disk contention (stall per
        fault inflates as the disk approaches saturation).  Both depend
        on the progress rates, which depend back on them, so a short
        fixed-point iteration resolves the coupling.
        """
        service = self.config.fault_service_s
        overhead_s = self.config.fault_cpu_overhead_ms / 1000.0
        max_inflation = self.config.paging_disk_max_inflation
        inflation = 1.0
        capacity_factor = 1.0
        rates: list = []
        fault_stalls: list = []
        for _ in range(3):
            fault_stalls = [lam * service * inflation for lam in lambdas]
            stalls = [fault + io
                      for fault, io in zip(fault_stalls, io_stalls)]
            rates = self._allocate_rates(speed, tax, stalls,
                                         capacity_factor, dedicated)
            faults_per_s = sum(r * lam for r, lam in zip(rates, lambdas))
            disk_util = min(0.99, faults_per_s * service)
            new_inflation = min(max_inflation, 1.0 / (1.0 - disk_util))
            new_capacity = max(0.05, 1.0 - faults_per_s * overhead_s)
            if new_inflation == inflation and new_capacity == capacity_factor:
                # Exact fixed point: the next iteration would recompute
                # identical stalls and rates, so the remaining passes
                # are no-ops and the early exit is behavior-identical.
                break
            inflation = new_inflation
            capacity_factor = new_capacity
        return rates, fault_stalls

    def _sync_row(self) -> None:
        """Write this node's published state through to its columnar
        row.

        Runs at every externally visible change point (end of a full
        ``_recompute`` and the reserved/inbound setters), immediately
        before listeners are notified, so a batch consumer reading the
        columns sees exactly what the object properties return at the
        same instant.  The pre-change hooks run first, on the row as
        it was.  Float columns hold the property values bit-for-
        bit; the flag bits mirror ``alive``/``reserved``/``thrashing``/
        ``accepting``/``has_starving_job``.
        """
        state = self._state
        state.pre_change()
        state.version += 1
        i = self.node_id
        alive = self._alive
        idle = (max(0.0, self.user_memory_mb - self._total_demand_cache)
                if alive else 0.0)
        state.total_demand_mb[i] = self._total_demand_cache
        state.idle_memory_mb[i] = idle
        state.fault_rate_per_s[i] = self._fault_rate_cache
        state.num_running[i] = len(self._running)
        state.inbound_jobs[i] = self._inbound_jobs
        bits = 0
        if alive:
            bits = FLAG_ALIVE
            if (self._fault_rate_cache > self.config.fault_rate_threshold
                    or self._starving_cache):
                bits |= FLAG_THRASHING
            if self._starving_cache:
                bits |= FLAG_STARVING
            if (not self._reserved
                    and (len(self._running) + self._inbound_jobs
                         < self.config.cpu_threshold)
                    and idle >= self.config.min_idle_mb):
                bits |= FLAG_ACCEPTING
        if self._reserved:
            bits |= FLAG_RESERVED
        state.flags[i] = bits

    def _allocate_rates(self, speed: float, tax: float, stalls: list,
                        capacity_factor: float,
                        dedicated_flags: Tuple[bool, ...]) -> list:
        """Water-fill CPU capacity, giving jobs under dedicated service
        (migrated to a reserved workstation; ``dedicated_flags[i]`` is
        job *i*'s flag) strict priority: they are served first, and
        other jobs share what remains."""
        if not any(dedicated_flags):
            return progress_rates(speed, tax, stalls,
                                  capacity_factor=capacity_factor)
        dedicated = [i for i, flag in enumerate(dedicated_flags) if flag]
        rates = [0.0] * len(dedicated_flags)
        others = [i for i, flag in enumerate(dedicated_flags) if not flag]
        # Special service, not starvation: while a dedicated job is
        # served, co-resident jobs keep a quarter of the node.
        share = 0.75 if others else 1.0
        priority_rates = progress_rates(
            speed, tax, [stalls[i] for i in dedicated],
            capacity_factor=share * capacity_factor)
        used = 0.0
        for i, rate in zip(dedicated, priority_rates):
            rates[i] = rate
            used += rate / speed
        if others:
            leftover = max(0.05, capacity_factor - used)
            other_rates = progress_rates(
                speed, tax, [stalls[i] for i in others],
                capacity_factor=leftover)
            for i, rate in zip(others, other_rates):
                rates[i] = rate
        return rates

    def _schedule_next_event(self) -> None:
        if self._next_event is not None:
            self._next_event.cancel()
            self._next_event = None
        # Strict ``<``: on a tie the earlier horizon stays.
        horizon = None
        lanes = self._lanes
        for job, rate in zip(lanes[::6], lanes[2::6]):
            if rate <= 0:
                continue
            progress = job.progress_s
            work = job.cpu_work_s
            dt_done = max(0.0, work - progress) / rate  # remaining_work_s
            if horizon is None or dt_done < horizon:
                horizon = dt_done
            boundary = job.memory.next_boundary(progress)
            if boundary is not None and boundary < work:
                dt_phase = (boundary - progress) / rate
                if dt_phase < horizon:
                    horizon = dt_phase
        if horizon is None:
            return
        self._next_event = self._sim.schedule(
            max(0.0, horizon), self._on_internal_event)

    def _on_internal_event(self) -> None:
        self._next_event = None
        self._advance()
        finished = [job for job in self._running
                    if job.remaining_work_s <= _EPS]
        for job in finished:
            self._running.remove(job)
            job.progress_s = job.cpu_work_s
            job.state = JobState.FINISHED
            job.node_id = None
            job.finish_time = self._sim.now
            self.completed_jobs += 1
            if self.obs_job.enabled:
                self._emit_job("finish", job)
        self._recompute()
        if self.on_job_finished is not None:
            for job in finished:
                self.on_job_finished(job, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Workstation {self.node_id} jobs={self.num_running}"
                f" idle={self.idle_memory_mb:.0f}MB"
                f" reserved={self.reserved}>")
