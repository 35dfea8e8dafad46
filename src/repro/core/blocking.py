"""Quantitative detection of the job blocking problem.

The paper's first contribution is stating *when* blocking occurs
(§1-2): a workstation experiences page faults beyond a threshold, but
the scheduler cannot find a qualified destination (enough idle memory
for the candidate job's current demand, plus a free job slot) to
migrate jobs away from it.  The reconfiguration routine additionally
activates only when the *accumulated* idle memory in the cluster
exceeds the average user memory space of a workstation — otherwise
memory is genuinely exhausted and reserving cannot help (§2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.job import Job
from repro.cluster.workstation import Workstation


@dataclass(frozen=True)
class BlockingReport:
    """Snapshot of the blocking state of a cluster at one instant."""

    time: float
    blocked_nodes: Tuple[int, ...]
    #: The migration candidate on each blocked node (job ids).
    stuck_jobs: Tuple[int, ...]
    total_idle_memory_mb: float
    average_user_memory_mb: float

    @property
    def blocking(self) -> bool:
        """True when at least one node is blocked."""
        return bool(self.blocked_nodes)


class BlockingDetector:
    """Evaluates the blocking condition against live cluster state."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster

    # ------------------------------------------------------------------
    def destination_for(self, job: Job,
                        exclude: Optional[int] = None
                        ) -> Optional[Workstation]:
        """A qualified migration destination for ``job``, or None.

        The scan is two-level: the blocked node's own domain first, and
        only if it has no qualified node do we escalate to remote
        domains in summary-ranked order, taking the best node of the
        first domain that qualifies."""
        directory = self.cluster.directory
        local = directory.domain_of(exclude) if exclude is not None else None
        if local is not None:
            best = self._best_in(local, job, exclude)
            if best is not None:
                return best
        for d in directory.ranked_remote_domains(local):
            best = self._best_in(d, job, exclude)
            if best is not None:
                return best
        return None

    def _best_in(self, domain: int, job: Job,
                 exclude: Optional[int]) -> Optional[Workstation]:
        """Largest-idle-memory qualified destination in ``domain``."""
        lo, hi = self.cluster.directory.domain_bounds(domain)
        best: Optional[Workstation] = None
        for node in self.cluster.nodes[lo:hi]:
            if node.node_id == exclude or node.reserved:
                continue
            if not node.accepts_migration(job):
                continue
            if best is None or node.idle_memory_mb > best.idle_memory_mb:
                best = node
        return best

    def node_blocked(self, node: Workstation) -> Optional[Job]:
        """If ``node`` is blocked, return the stuck migration candidate."""
        if node.reserved or not node.thrashing:
            return None
        job = node.most_memory_intensive_job(faulting_only=True)
        if job is None:
            return None
        if self.destination_for(job, exclude=node.node_id) is not None:
            return None
        return job

    def assess(self) -> BlockingReport:
        """Evaluate every node and produce a report."""
        blocked: List[int] = []
        stuck: List[int] = []
        for node in self.cluster.nodes:
            job = self.node_blocked(node)
            if job is not None:
                blocked.append(node.node_id)
                stuck.append(job.job_id)
        return BlockingReport(
            time=self.cluster.sim.now,
            blocked_nodes=tuple(blocked),
            stuck_jobs=tuple(stuck),
            total_idle_memory_mb=self.cluster.total_idle_memory_mb(
                exclude_reserved=True),
            average_user_memory_mb=self.cluster.average_user_memory_mb(),
        )

    def most_memory_intensive_stuck_job(self
                                        ) -> Optional[Tuple[Job, Workstation]]:
        """The cluster-wide migration victim: the stuck job with the
        largest current memory demand, with its node."""
        best: Optional[Tuple[Job, Workstation]] = None
        for node in self.cluster.nodes:
            job = self.node_blocked(node)
            if job is None:
                continue
            if best is None or (job.current_demand_mb
                                > best[0].current_demand_mb):
                best = (job, node)
        return best
