"""One simulated run, wired the same way everywhere.

:meth:`World.build` wires a fresh run from a trace, a checkpoint
pickles a ``World`` and restoring hands it back.  Every arrival enters
through :meth:`World.admit`, whose one heap event per job calls
:meth:`World.submit`, which forwards to the current ``world.policy``;
so a fork, which only swaps ``world.policy``, hands every later
arrival to the successor.
"""

from __future__ import annotations

import functools
from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Type

from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.cluster.job import Job
from repro.core.reconfiguration import VReconfiguration
from repro.metrics import summary as run_summary
from repro.metrics.collector import MetricsCollector, PolicyPendingProbe
from repro.scheduling import (
    CpuBasedPolicy,
    GLoadSharing,
    LoadSharingPolicy,
    LocalPolicy,
    MemoryBasedPolicy,
    SrptOracle,
    SuspensionPolicy,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.session import ObsSession
    from repro.workload.trace import Trace

#: Registry of runnable policies, keyed by CLI-friendly names.
POLICIES: Dict[str, Type[LoadSharingPolicy]] = {
    "local": LocalPolicy,
    "cpu": CpuBasedPolicy,
    "memory": MemoryBasedPolicy,
    "g-loadsharing": GLoadSharing,
    "suspension": SuspensionPolicy,
    "srpt-oracle": SrptOracle,
    "v-reconfiguration": VReconfiguration,
}


class World:
    """The cluster, policy, collector, jobs and trace name of one run,
    plus the ``summary`` :meth:`finish` computed, a restored world's
    checkpoint header ``meta``, and the observing ``obs`` session.
    Neither ``meta`` nor ``obs`` is pickled (see :mod:`repro.sim.checkpoint`).
    """

    def __init__(self, cluster: Cluster, policy,
                 collector: Optional[MetricsCollector] = None,
                 jobs: Optional[List[Job]] = None,
                 trace_name: Optional[str] = None):
        self.cluster = cluster
        self.policy = policy
        self.collector = collector
        self.jobs = jobs
        self.trace_name = trace_name
        self.summary: Optional[run_summary.RunSummary] = None
        self.meta: Dict[str, Any] = {}
        self.obs: Optional["ObsSession"] = None

    @classmethod
    def build(cls, trace: "Trace", policy_name: str, config: ClusterConfig,
              policy_kwargs: Optional[dict] = None,
              obs: Optional["ObsSession"] = None) -> "World":
        """A fresh, unstarted run of ``trace`` under ``policy_name``,
        observed by ``obs`` from before the first job is admitted."""
        if policy_name not in POLICIES:
            raise KeyError(f"unknown policy {policy_name!r}; "
                           f"choose from {sorted(POLICIES)}")
        cluster = Cluster(config)
        policy = POLICIES[policy_name](cluster, **(policy_kwargs or {}))
        collector = MetricsCollector(
            cluster, pending_probe=PolicyPendingProbe(policy))
        world = cls(cluster, policy, collector, [], trace.name)
        if obs is not None:
            obs.observe(world)
        with world.phase("build_jobs"):
            jobs = trace.build_jobs()
        for job in jobs:
            world.admit(job)
        return world

    def admit(self, job: Job) -> None:
        """Add ``job`` to the run; it arrives at ``job.submit_time``."""
        self.jobs.append(job)
        self.cluster.sim.schedule_at(job.submit_time,
                                     functools.partial(self.submit, job))

    def submit(self, job: Job) -> None:
        """The arrival event: hand ``job`` to the current policy."""
        self.policy.submit(job)

    def run(self, until: Optional[float] = None) -> None:
        """Run the engine to ``until``, or to completion.  An
        open-ended run goes through the observing session's wrappers
        (self-profiling, paced serving) when there is one."""
        sim = self.cluster.sim
        if until is not None:
            sim.run(until=until)
        elif self.obs is not None:
            with self.obs.phase("simulate"):
                self.obs.run_engine(sim)
        else:
            sim.run()

    def finish(self) -> run_summary.RunSummary:
        """Summarize the finished run (fault counters and the observing
        session's metrics folded in) into ``summary``."""
        with self.phase("summarize"):
            # Looked up at call time, so a wrapper on the module applies.
            summary = run_summary.summarize_run(
                self.policy, self.jobs, self.collector, self.trace_name)
        if self.cluster.faults is not None:
            # Fault-free runs add no keys (byte-identical extras).
            summary.extra.update(self.cluster.faults.extra_metrics())
        if self.obs is not None:
            self.obs.finalize(summary)
        self.summary = summary
        return summary

    def phase(self, name: str):
        """Time a phase of the run on the observing session, if any."""
        return self.obs.phase(name) if self.obs is not None else nullcontext()

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state["obs"] = None
        state["meta"] = {}
        return state


__all__ = ["POLICIES", "World"]
