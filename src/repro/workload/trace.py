"""Workload traces: containers and the on-disk format.

The paper's traces (§3.3.2) carry, per job, a header (submission time,
job ID, lifetime measured in a dedicated environment) followed by
execution-activity records at 10 ms intervals (CPU cycles, memory
demand/allocation, buffer-cache allocation, number of I/Os).

We store activities *run-length encoded*: an ``A`` line is emitted
only when the activity vector changes, which is lossless for the
piecewise-constant profiles used here while keeping files small.
:meth:`TraceJob.activity_records` expands back to the full 10 ms
series when record-level fidelity is wanted.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterator, List, Optional, TextIO, Tuple, Union

from repro.cluster.job import Job, MemoryProfile
from repro.workload.programs import WorkloadGroup

RECORD_INTERVAL_MS = 10.0

FORMAT_HEADER = "# repro-trace v1"


@dataclass(frozen=True)
class ActivityRecord:
    """One 10 ms execution-activity sample."""

    offset_ms: float
    cpu_fraction: float
    memory_mb: float
    buffer_cache_mb: float = 0.0
    io_ops: int = 0


@dataclass
class TraceJob:
    """One job of a workload trace (header + compressed activities).

    ``memory`` is the job's validated memory profile, built once where
    the trace is made (a trace job given none gets a flat profile at
    ``peak_demand_mb``).  Every :class:`~repro.cluster.job.Job` built
    from this trace job holds that same object: a profile is immutable,
    so the jobs of several runs of one memoized trace may share it.
    """

    job_index: int
    submit_time: float
    program: str
    lifetime_s: float
    home_node: int
    peak_demand_mb: float
    io_stall_per_cpu_s: float = 0.0
    buffer_cache_mb: float = 0.0
    #: Memory demand over CPU progress (``None`` means flat at peak).
    memory: Optional[MemoryProfile] = None

    def __post_init__(self) -> None:
        if self.lifetime_s <= 0:
            raise ValueError("lifetime_s must be positive")
        if self.memory is None:
            self.memory = MemoryProfile.constant(self.peak_demand_mb)

    # ------------------------------------------------------------------
    def to_job(self) -> Job:
        """Materialize a runnable :class:`~repro.cluster.job.Job` that
        shares this trace job's memory profile."""
        return Job(
            program=self.program,
            cpu_work_s=self.lifetime_s,
            memory=self.memory,
            submit_time=self.submit_time,
            home_node=self.home_node,
            io_stall_per_cpu_s=self.io_stall_per_cpu_s,
            buffer_cache_mb=self.buffer_cache_mb,
        )

    def activity_records(self) -> Iterator[ActivityRecord]:
        """Expand to the paper's 10 ms record series (one record per
        10 ms of dedicated execution)."""
        profile = self.memory
        steps = int(round(self.lifetime_s * 1000.0 / RECORD_INTERVAL_MS))
        io_per_interval = self.io_stall_per_cpu_s * RECORD_INTERVAL_MS
        for k in range(max(1, steps)):
            offset_ms = k * RECORD_INTERVAL_MS
            progress = offset_ms / 1000.0
            yield ActivityRecord(
                offset_ms=offset_ms,
                cpu_fraction=1.0,
                memory_mb=profile.demand_at(progress),
                buffer_cache_mb=self.buffer_cache_mb,
                io_ops=int(io_per_interval * 1000),
            )


@dataclass
class Trace:
    """A full workload trace (e.g. SPEC-Trace-3)."""

    name: str
    group: WorkloadGroup
    trace_index: int
    duration_s: float
    jobs: List[TraceJob]

    def __post_init__(self) -> None:
        submit_times = [job.submit_time for job in self.jobs]
        if submit_times != sorted(submit_times):
            raise ValueError("trace jobs must be sorted by submit time")

    # ------------------------------------------------------------------
    @property
    def num_jobs(self) -> int:
        return len(self.jobs)

    def total_work_s(self) -> float:
        """Total CPU demand of the trace (dedicated seconds)."""
        return sum(job.lifetime_s for job in self.jobs)

    def build_jobs(self) -> List[Job]:
        """Materialize all runnable jobs, in submission order: fresh
        mutable :class:`~repro.cluster.job.Job` objects, each sharing
        its trace job's immutable memory profile."""
        return [job.to_job() for job in self.jobs]

    # ------------------------------------------------------------------
    # on-disk format
    # ------------------------------------------------------------------
    def write(self, target: Union[str, TextIO]) -> None:
        """Write the trace to a path or text stream."""
        if isinstance(target, str):
            with open(target, "w") as stream:
                self._write_stream(stream)
        else:
            self._write_stream(target)

    def _write_stream(self, out: TextIO) -> None:
        out.write(f"{FORMAT_HEADER} name={self.name} "
                  f"group={self.group.value} index={self.trace_index} "
                  f"duration={self.duration_s:.3f} jobs={len(self.jobs)}\n")
        for job in self.jobs:
            out.write(
                f"J {job.job_index} {job.submit_time:.6f} {job.program} "
                f"{job.lifetime_s:.6f} {job.home_node} "
                f"{job.peak_demand_mb:.3f} {job.io_stall_per_cpu_s:.6f} "
                f"{job.buffer_cache_mb:.3f}\n")
            for start, demand in job.memory.pairs:
                out.write(f"A {start:.6f} {demand:.3f}\n")

    @classmethod
    def read(cls, source: Union[str, TextIO]) -> "Trace":
        """Read a trace from a path or text stream."""
        if isinstance(source, str):
            with open(source) as stream:
                return cls._read_stream(stream)
        return cls._read_stream(source)

    @classmethod
    def _read_stream(cls, stream: TextIO) -> "Trace":
        header = stream.readline().strip()
        if not header.startswith(FORMAT_HEADER):
            raise ValueError("not a repro-trace file")
        meta = dict(part.split("=", 1)
                    for part in header[len(FORMAT_HEADER):].split()
                    if "=" in part)
        jobs: List[TraceJob] = []
        current: List[str] = []
        phases: List[Tuple[float, float]] = []

        def flush() -> None:
            if not current:
                return
            jobs.append(TraceJob(
                job_index=int(current[0]),
                submit_time=float(current[1]),
                program=current[2],
                lifetime_s=float(current[3]),
                home_node=int(current[4]),
                peak_demand_mb=float(current[5]),
                io_stall_per_cpu_s=float(current[6]),
                buffer_cache_mb=(float(current[7])
                                 if len(current) > 7 else 0.0),
                memory=MemoryProfile.from_pairs(phases) if phases else None,
            ))

        for line in stream:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "J":
                flush()
                current = parts[1:]
                phases = []
            elif parts[0] == "A":
                phases.append((float(parts[1]), float(parts[2])))
            else:
                raise ValueError(f"unknown trace line: {line.strip()!r}")
        flush()
        return cls(
            name=meta.get("name", "trace"),
            group=WorkloadGroup(meta.get("group", "spec")),
            trace_index=int(meta.get("index", "0")),
            duration_s=float(meta.get("duration", "0")),
            jobs=jobs,
        )

    def dumps(self) -> str:
        """Serialize to a string (round-trips through :meth:`read`)."""
        buf = io.StringIO()
        self._write_stream(buf)
        return buf.getvalue()


def summarize(trace: Trace) -> str:
    """One-line human summary used by examples and reports."""
    peak = max((job.peak_demand_mb for job in trace.jobs), default=0.0)
    return (f"{trace.name}: {trace.num_jobs} jobs over "
            f"{trace.duration_s:.0f}s, total work "
            f"{trace.total_work_s():.0f}s, peak demand {peak:.0f}MB")
