"""Constructed blocking scenario: the paper's geometry, by design.

The published traces leave the blocking problem's frequency to chance
(it depends on which nodes big jobs happen to land on), and under a
work-conserving simulator the surrounding queue dynamics dominate any
trace-level construction.  This module therefore demonstrates the
mechanism's envelope on a *deterministic batch*: a 32-node cluster is
driven into the paper's §2 blocking state, and the two policies race
to resolve it.

The constructed state (all submissions in the first second, placed by
the policies themselves through normal home-node submission):

* **wedge nodes** (4 of 32): a large job whose working set grows
  quickly to 240 MB — more than any node's idle memory while other
  jobs run ("could not fit in any single workstation with other
  running jobs") — co-located with two long I/O-active medium jobs.
  Once grown, the large job starves under the biased residency model
  (§2.2: large jobs are less competitive);
* **filler nodes** (28 of 32): four short I/O-active fillers each,
  occupying every CPU-threshold slot while using little memory — the
  paper's "workstations reaching their CPU thresholds may still have
  idle memory space".

G-Loadsharing finds no qualified migration destination for a starving
240 MB job (no node has both a free slot and a big-enough idle slab):
the blocking problem.  The large jobs crawl until their companions
drain.  V-Reconfiguration reserves a filler workstation — whose idle
memory already fits the job, so the first-fit reserving period ends
immediately — and migrates the starving job there, resolving each
wedge within a couple of monitor periods.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.config import ClusterConfig, WorkstationSpec
from repro.cluster.job import MemoryProfile
from repro.experiments.runner import run_trace
from repro.experiments.world import World
from repro.sim.rng import RandomStreams
from repro.workload.programs import WorkloadGroup
from repro.workload.trace import Trace, TraceJob

#: Cluster used by the scenario (the paper's cluster 1 dimensions,
#: with the paper's original 10 Mbps Ethernet: scenario job lifetimes
#: are long enough that a working-set transfer pays for itself).
SCENARIO_CLUSTER = ClusterConfig(
    spec=WorkstationSpec(cpu_mhz=400, memory_mb=384.0, swap_mb=380.0),
    cpu_threshold=4,
    network_bandwidth_mbps=10.0,
)


def build_blocking_trace(num_nodes: int = 32,
                         seed: int = 0,
                         num_wedges: Optional[int] = None,
                         large_work_s: float = 900.0,
                         medium_work_s: float = 300.0,
                         filler_work_s: float = 150.0) -> Trace:
    """Construct the blocking batch described in the module docstring.

    All jobs are submitted within the first second to empty nodes, so
    home-first placement reproduces the designed layout exactly.
    """
    if num_wedges is None:
        num_wedges = max(1, num_nodes // 8)
    if num_wedges >= num_nodes:
        raise ValueError("need at least one filler node")
    jitter = RandomStreams(seed).spawn("blocking-batch").stream("jitter")
    jobs: List[TraceJob] = []
    index = 0

    def add(t: float, work: float, peak: float, home: int,
            phases=None, io: float = 0.0) -> None:
        nonlocal index
        jobs.append(TraceJob(
            job_index=index, submit_time=t, program="scenario",
            lifetime_s=work, home_node=home, peak_demand_mb=peak,
            io_stall_per_cpu_s=io,
            memory=MemoryProfile.from_pairs(phases) if phases else None))
        index += 1

    # Wedge nodes: large job + two medium companions.
    for w in range(num_wedges):
        home = num_nodes - 1 - w
        work = large_work_s * (1.0 + 0.2 * jitter.random())
        add(0.10 + 0.01 * w, work, peak=240.0, home=home,
            phases=[(0.0, 130.0), (20.0, 190.0), (40.0, 240.0)])
        for k in range(2):
            peak = 112.0 + 10.0 * jitter.random()
            add(0.30 + 0.01 * w + 0.1 * k,
                medium_work_s * (1.0 + 0.2 * jitter.random()),
                peak=peak, home=home, io=2.0,
                phases=[(0.0, 0.5 * peak), (8.0, peak)])

    # Filler nodes: four I/O-active small jobs each (slots full).
    for node in range(num_nodes - num_wedges):
        for k in range(4):
            add(0.50 + 0.001 * (4 * node + k),
                filler_work_s * (1.0 + 0.3 * jitter.random()),
                peak=12.0 + 6.0 * jitter.random(), home=node, io=1.0)

    jobs.sort(key=lambda job: job.submit_time)
    for new_index, job in enumerate(jobs):
        job.job_index = new_index
    duration = max(job.submit_time for job in jobs) + 1.0
    return Trace(name=f"Blocking-Scenario-{seed}", group=WorkloadGroup.SPEC,
                 trace_index=0, duration_s=duration, jobs=jobs)


def run_blocking_scenario(policy: str, seed: int = 0,
                          num_nodes: int = 32,
                          config: Optional[ClusterConfig] = None,
                          obs=None,
                          faults=None,
                          checkpoint_at: Optional[float] = None,
                          checkpoint_to: Optional[str] = None,
                          **trace_kwargs) -> World:
    """Run the constructed scenario batch under ``policy``.

    ``obs`` is an optional :class:`~repro.obs.session.ObsSession`; the
    scenario is the canonical source of a reservation-bearing Perfetto
    trace because its V-Reconfiguration run deterministically reserves
    and rescues (see module docstring).  ``faults`` overrides the
    config's failure model (see :mod:`repro.faults`).  ``num_nodes``
    sizes the cluster when no explicit ``config`` is given (a given
    ``config`` wins outright — its own ``num_nodes`` sizes both the
    cluster and the trace).  ``checkpoint_at``/``checkpoint_to`` are
    forwarded to :func:`~repro.experiments.runner.run_trace`.
    """
    cfg = (config if config is not None
           else SCENARIO_CLUSTER.replace(num_nodes=num_nodes))
    if faults is not None:
        cfg = cfg.replace(faults=faults)
    trace = build_blocking_trace(num_nodes=cfg.num_nodes, seed=seed,
                                 **trace_kwargs)
    return run_trace(trace, policy, cfg, obs=obs,
                     checkpoint_at=checkpoint_at,
                     checkpoint_to=checkpoint_to)


def large_job_slowdowns(result: World) -> List[float]:
    """Slowdowns of the scenario's large jobs (the rescued class)."""
    return [job.slowdown() for job in result.cluster.finished_jobs
            if job.peak_demand_mb > 200.0]
