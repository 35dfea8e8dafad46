"""Job model: work, time-varying memory demand, lifetime accounting.

A job is described by its total CPU work (its measured lifetime in a
dedicated environment, per the paper's tracing methodology in §3.1) and
a *memory profile*: a piecewise-constant memory demand as a function of
CPU progress.  Tying demand to progress rather than wall time mirrors
program behaviour — a slowed-down job reaches its memory-hungry phase
later.

Accounting follows the paper's §5 decomposition exactly::

    t_exe(i) = t_cpu(i) + t_page(i) + t_que(i) + t_mig(i)

with an extra ``t_io`` bucket for the I/O-active programs of workload
group 2 (folded into ``t_page``-style stalls by the workstation model)
and ``t_pending`` tracking the share of ``t_que`` spent waiting for a
placement (diagnostics only).
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.sim.portable import IdCounter


class JobState(enum.Enum):
    """Lifecycle of a job inside the cluster."""

    PENDING = "pending"        # submitted, waiting for a placement
    RUNNING = "running"        # executing on a workstation
    MIGRATING = "migrating"    # frozen, image in transit
    SUSPENDED = "suspended"    # explicitly suspended by a policy
    FINISHED = "finished"


def _check_point(start_progress: float, demand_mb: float) -> None:
    """The per-segment checks of :class:`Phase`, shared by every
    profile constructor."""
    if start_progress < 0:
        raise ValueError("start_progress must be non-negative")
    if demand_mb < 0:
        raise ValueError("demand_mb must be non-negative")


@dataclass(frozen=True)
class Phase:
    """One piecewise-constant segment of a memory profile.

    ``start_progress`` is the CPU progress (in seconds of work) at
    which the segment begins; it ends where the next segment starts.
    """

    start_progress: float
    demand_mb: float

    def __post_init__(self) -> None:
        _check_point(self.start_progress, self.demand_mb)


class MemoryProfile:
    """Piecewise-constant memory demand as a function of CPU progress.

    Stored as two columns, the segment starts and their demands, so a
    lookup is one C-level bisection over the starts; :attr:`phases`
    builds :class:`Phase` objects only when asked.
    """

    __slots__ = ("_starts", "_demands")

    def __init__(self, phases: Sequence[Phase]):
        self._set_columns([p.start_progress for p in phases],
                          [p.demand_mb for p in phases])

    def _set_columns(self, starts: List[float],
                     demands: List[float]) -> None:
        if not starts:
            raise ValueError("a memory profile needs at least one phase")
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise ValueError("phases must have strictly increasing starts")
        if starts[0] != 0.0:
            raise ValueError("first phase must start at progress 0")
        self._starts: Tuple[float, ...] = tuple(starts)
        self._demands: Tuple[float, ...] = tuple(demands)

    @classmethod
    def constant(cls, demand_mb: float) -> "MemoryProfile":
        """A profile with a single flat demand."""
        return cls.from_pairs(((0.0, demand_mb),))

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[float, float]]
                   ) -> "MemoryProfile":
        """Build from ``(start_progress, demand_mb)`` pairs."""
        starts = []
        demands = []
        for start, demand in pairs:
            _check_point(start, demand)
            starts.append(start)
            demands.append(demand)
        profile = cls.__new__(cls)
        profile._set_columns(starts, demands)
        return profile

    @property
    def phases(self) -> Tuple[Phase, ...]:
        return tuple(Phase(start, demand)
                     for start, demand in zip(self._starts, self._demands))

    @property
    def pairs(self) -> List[Tuple[float, float]]:
        """The profile as ``(start_progress, demand_mb)`` pairs (the
        input of :meth:`from_pairs`)."""
        return list(zip(self._starts, self._demands))

    @property
    def peak_demand_mb(self) -> float:
        """Maximum demand over the whole profile (the working set of
        the paper's Tables 1 and 2)."""
        return max(self._demands)

    #: Progress comparisons tolerate this much float error so that a
    #: job advanced exactly onto a boundary is counted as past it.
    _TOL = 1e-9

    def demand_at(self, progress: float) -> float:
        """Memory demand (MB) at a given CPU progress: the demand of
        the last segment starting at or before ``progress + _TOL``."""
        i = bisect_right(self._starts, progress + self._TOL)
        return self._demands[i - 1 if i else 0]

    def next_boundary(self, progress: float) -> Optional[float]:
        """The next phase start strictly after ``progress``, if any."""
        starts = self._starts
        i = bisect_right(starts, progress + self._TOL)
        return starts[i] if i < len(starts) else None

    def __getstate__(self):
        return self._starts, self._demands

    def __setstate__(self, state) -> None:
        self._starts, self._demands = state


@dataclass
class JobAccounting:
    """Wall-clock decomposition of a job's execution (paper §5)."""

    cpu_s: float = 0.0        # time actually receiving CPU service
    page_s: float = 0.0       # page-fault stall time
    io_s: float = 0.0         # I/O stall time
    queue_s: float = 0.0      # runnable/pending but not served
    migration_s: float = 0.0  # frozen during migration / remote submit
    pending_s: float = 0.0    # subset of queue_s spent unplaced

    @property
    def wall_s(self) -> float:
        """Total accounted wall-clock time."""
        return (self.cpu_s + self.page_s + self.io_s + self.queue_s
                + self.migration_s)


_job_counter = IdCounter()


@dataclass
class Job:
    """One schedulable job instance in a trace."""

    program: str
    cpu_work_s: float
    memory: MemoryProfile
    submit_time: float = 0.0
    home_node: int = 0
    #: Extra wall-clock stall per CPU-second of work due to I/O
    #: (workload group 2 contains I/O-active programs).
    io_stall_per_cpu_s: float = 0.0
    #: Buffer cache the job's I/O wants (MB).  The cache lives in the
    #: node's free memory and is reclaimed before anyone pages, so it
    #: never causes faults — but when memory pressure squeezes it the
    #: job's I/O stalls inflate (uncached I/O).  The paper's tracing
    #: facility monitors exactly this (§3.1: "the status of I/O buffer
    #: cache in each workstation").
    buffer_cache_mb: float = 0.0
    job_id: int = field(default_factory=_job_counter)

    # --- runtime state (owned by the cluster model) --------------------
    state: JobState = JobState.PENDING
    node_id: Optional[int] = None
    progress_s: float = 0.0
    finish_time: Optional[float] = None
    migrations: int = 0
    remote_submissions: int = 0
    #: True while the paging model attributes a non-zero fault rate.
    faulting: bool = False
    #: Receives dedicated service on a reserved workstation: strict
    #: CPU priority over co-resident jobs (paper §2.1: reserved
    #: workstations "provide special services to the jobs demanding
    #: large memory allocations").
    dedicated: bool = False
    acct: JobAccounting = field(default_factory=JobAccounting)

    def __post_init__(self) -> None:
        if self.cpu_work_s <= 0:
            raise ValueError("cpu_work_s must be positive")
        if self.io_stall_per_cpu_s < 0:
            raise ValueError("io_stall_per_cpu_s must be non-negative")

    # ------------------------------------------------------------------
    @property
    def remaining_work_s(self) -> float:
        return max(0.0, self.cpu_work_s - self.progress_s)

    @property
    def finished(self) -> bool:
        return self.state is JobState.FINISHED

    @property
    def current_demand_mb(self) -> float:
        """Memory demand at the current execution point."""
        return self.memory.demand_at(self.progress_s)

    @property
    def peak_demand_mb(self) -> float:
        return self.memory.peak_demand_mb

    def slowdown(self) -> float:
        """Wall-clock execution time over dedicated CPU execution time
        (the paper's primary metric, §4)."""
        if self.finish_time is None:
            raise ValueError(f"job {self.job_id} has not finished")
        wall = self.finish_time - self.submit_time
        return wall / self.cpu_work_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Job {self.job_id} {self.program} state={self.state.value}"
                f" node={self.node_id} progress={self.progress_s:.1f}"
                f"/{self.cpu_work_s:.1f}s demand={self.current_demand_mb:.0f}MB>")


def total_accounting(jobs: List[Job]) -> JobAccounting:
    """Sum per-job accounting into workload totals (T_cpu, T_page, ...)."""
    total = JobAccounting()
    for job in jobs:
        total.cpu_s += job.acct.cpu_s
        total.page_s += job.acct.page_s
        total.io_s += job.acct.io_s
        total.queue_s += job.acct.queue_s
        total.migration_s += job.acct.migration_s
        total.pending_s += job.acct.pending_s
    return total
