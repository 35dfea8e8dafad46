"""Job suspension: the brute-force alternative the paper rejects.

§1: "One simple solution would be to temporarily suspend the large
jobs so that the job submissions will not be blocked.  However, this
approach will not be fair to the large jobs that may starve if job
submissions continue to flow."

The policy extends G-Loadsharing: when blocking is detected, the most
memory-intensive faulting job is *suspended* (removed from its node,
its memory released) instead of being given a reserved workstation.  A
suspended job resumes only when some workstation can take it back —
under sustained submission pressure that may be very late, which is
exactly the unfairness the paper predicts (visible in the large-job
slowdown tail measured by the baseline benchmark).
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.job import Job, JobState
from repro.cluster.workstation import Workstation
from repro.scheduling.g_loadsharing import GLoadSharing


class SuspensionPolicy(GLoadSharing):
    """G-Loadsharing plus suspend-the-large-job blocking relief."""

    name = "Suspension"

    def __init__(self, *args, max_suspension_s: float = 300.0, **kwargs):
        super().__init__(*args, **kwargs)
        self._suspended: List[Job] = []
        self._suspend_started = {}
        self._resuming = False
        self._retry_scheduled = False
        self._suspension_counts: dict = {}
        #: A job is never suspended more than this many times: without
        #: a cap, a job that remains the blocking victim after a forced
        #: resume would ping-pong between suspension and resumption
        #: forever, starving it completely (the §1 critique, taken to
        #: its pathological end).
        self.max_suspensions_per_job = 3
        #: A job suspended longer than this is force-resumed on the
        #: least-loaded node even without a qualified destination —
        #: brute-force suspension must not become a livelock when no
        #: node can ever fit the job.
        self.max_suspension_s = max_suspension_s

    # ------------------------------------------------------------------
    def on_blocking(self, node: Workstation, job: Job,
                    demand_mb: float) -> None:
        super().on_blocking(node, job, demand_mb)
        if job.state is not JobState.RUNNING:
            return
        count = self._suspension_counts.get(job.job_id, 0)
        if count >= self.max_suspensions_per_job:
            return
        self._suspension_counts[job.job_id] = count + 1
        node.remove_job(job)
        job.state = JobState.SUSPENDED
        self._suspended.append(job)
        self._suspend_started[job.job_id] = self.sim.now
        self.stats.extra["suspensions"] = (
            self.stats.extra.get("suspensions", 0) + 1)
        self._ensure_retry()
        self.cluster.notify_node_changed(node)

    # ------------------------------------------------------------------
    def _ensure_retry(self) -> None:
        """A suspended job is real pending work: keep a non-daemon
        retry alive so the simulation cannot drain while one waits."""
        if self._retry_scheduled or not self._suspended:
            return
        self._retry_scheduled = True
        self.sim.schedule(self.config.monitor_interval_s,
                          self._retry_tick, priority=3)

    def _retry_tick(self) -> None:
        self._retry_scheduled = False
        self._resume_suspended()
        self._ensure_retry()

    def _on_node_changed(self, node: Workstation) -> None:
        self._resume_suspended()
        super()._on_node_changed(node)

    def _resume_suspended(self) -> None:
        if self._resuming or not self._suspended:
            return
        self._resuming = True
        try:
            waiting, self._suspended = self._suspended, []
            resumed = []
            for job in waiting:
                destination = self.find_migration_destination(
                    job, None, job.current_demand_mb)
                if destination is None:
                    started = self._suspend_started.get(job.job_id,
                                                        self.sim.now)
                    if self.sim.now - started >= self.max_suspension_s:
                        destination = self._least_loaded_node()
                    if destination is None:
                        self._suspended.append(job)
                        continue
                started = self._suspend_started.pop(job.job_id,
                                                    self.sim.now)
                waited = self.sim.now - started
                job.acct.queue_s += waited
                job.acct.pending_s += waited
                destination.add_job(job)
                resumed.append(destination)
        finally:
            self._resuming = False
        for destination in resumed:
            self.cluster.notify_node_changed(destination)

    def _least_loaded_node(self) -> Optional[Workstation]:
        candidates = [n for n in self.cluster.nodes
                      if n.alive and not n.reserved]
        if not candidates:
            return None
        return min(candidates,
                   key=lambda n: (n.committed_jobs, -n.idle_memory_mb,
                                  n.node_id))

    @property
    def suspended_jobs(self) -> List[Job]:
        return list(self._suspended)
