"""Per-run summary: everything the paper's figures report for one
(trace, policy) execution."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.cluster.job import Job, total_accounting
from repro.metrics.collector import MetricsCollector
from repro.scheduling.base import LoadSharingPolicy
from repro.sim.portable import left_sum


@dataclass
class RunSummary:
    """Aggregated results of running one trace under one policy."""

    policy: str
    trace: str
    num_jobs: int
    makespan_s: float

    # Figure 1 / 3 quantities
    total_execution_time_s: float       # sum of per-job wall times
    total_queuing_time_s: float         # T_que

    # Figure 2 / 4 quantities
    average_slowdown: float
    average_idle_memory_mb: float
    average_job_balance_skew: float

    # §5 breakdown
    total_cpu_time_s: float             # T_cpu
    total_paging_time_s: float          # T_page
    total_io_time_s: float
    total_migration_time_s: float       # T_mig
    total_pending_time_s: float

    # policy activity
    migrations: int
    remote_submissions: int
    blocking_events: int
    extra: Dict[str, float] = field(default_factory=dict)
    slowdowns: List[float] = field(default_factory=list)
    #: node id -> number of reservations placed there (policies with a
    #: reservation timeline only; lets sweep consumers reason about
    #: placement — e.g. §2.3's big-memory-node prediction — without
    #: holding the live policy object, which never crosses a process
    #: boundary in parallel sweeps.
    reservation_placements: Dict[int, int] = field(default_factory=dict)

    @property
    def max_slowdown(self) -> float:
        return max(self.slowdowns) if self.slowdowns else 0.0

    def slowdown_percentile(self, q: float) -> float:
        """Percentile of per-job slowdowns (q in [0, 100])."""
        if not self.slowdowns:
            return 0.0
        ordered = sorted(self.slowdowns)
        k = min(len(ordered) - 1, max(0, int(round(q / 100.0
                                                   * (len(ordered) - 1)))))
        return ordered[k]


def summarize_run(policy: LoadSharingPolicy, jobs: List[Job],
                  collector: MetricsCollector, trace_name: str
                  ) -> RunSummary:
    """Build a :class:`RunSummary` after the simulation has drained."""
    unfinished = [job for job in jobs if not job.finished]
    if unfinished:
        raise ValueError(
            f"{len(unfinished)} jobs never finished (first: "
            f"{unfinished[0]!r}); the simulation did not drain")
    totals = total_accounting(jobs)
    placements: Dict[int, int] = {}
    for event in getattr(policy, "reservation_timeline", ()):
        if event.kind == "reserve":
            placements[event.node_id] = placements.get(event.node_id, 0) + 1
    slowdowns = [job.slowdown() for job in jobs]
    makespan = max(job.finish_time for job in jobs) if jobs else 0.0
    total_exec = left_sum(job.finish_time - job.submit_time for job in jobs)
    return RunSummary(
        policy=policy.name,
        trace=trace_name,
        num_jobs=len(jobs),
        makespan_s=makespan,
        total_execution_time_s=total_exec,
        total_queuing_time_s=totals.queue_s,
        average_slowdown=(left_sum(slowdowns) / len(slowdowns)
                          if slowdowns else 0.0),
        average_idle_memory_mb=collector.average_idle_memory_mb(
            until=makespan),
        average_job_balance_skew=collector.average_job_balance_skew(
            until=makespan),
        total_cpu_time_s=totals.cpu_s,
        total_paging_time_s=totals.page_s,
        total_io_time_s=totals.io_s,
        total_migration_time_s=totals.migration_s,
        total_pending_time_s=totals.pending_s,
        migrations=policy.stats.migrations,
        remote_submissions=policy.stats.remote_submissions,
        blocking_events=policy.stats.blocking_events,
        extra=dict(policy.stats.extra),
        slowdowns=slowdowns,
        reservation_placements=placements,
    )
