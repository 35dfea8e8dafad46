"""Shared test fixtures: tiny clusters and jobs with known behaviour."""

import dataclasses
import functools

from repro.cluster import Cluster, ClusterConfig, WorkstationSpec
from repro.cluster.job import Job, MemoryProfile
from repro.experiments.runner import default_config
from repro.experiments.world import World
from repro.sim.checkpoint import snapshot_bytes
from repro.workload.generator import build_trace
from repro.workload.programs import WorkloadGroup


def tiny_config(num_nodes=4, memory_mb=100.0, cpu_threshold=3,
                **kwargs) -> ClusterConfig:
    defaults = dict(
        num_nodes=num_nodes,
        spec=WorkstationSpec(memory_mb=memory_mb, swap_mb=memory_mb),
        kernel_reserved_mb=0.0,
        load_exchange_interval_s=0.0,   # fresh load info for determinism
        monitor_interval_s=0.5,
        cpu_threshold=cpu_threshold,
    )
    defaults.update(kwargs)
    return ClusterConfig(**defaults)


def tiny_cluster(**kwargs) -> Cluster:
    return Cluster(tiny_config(**kwargs))


def job(work=50.0, demand=30.0, home=0, submit=0.0, **kwargs) -> Job:
    return Job(program=kwargs.pop("program", "t"), cpu_work_s=work,
               memory=MemoryProfile.constant(demand),
               home_node=home, submit_time=submit, **kwargs)


@functools.lru_cache(maxsize=None)
def paused_snapshot(num_jobs: int, until: float) -> bytes:
    """Checkpoint bytes of SPEC-Trace-1's first ``num_jobs`` jobs under
    V-Reconfiguration on the paper's cluster, paused at ``until``."""
    trace = build_trace(WorkloadGroup.SPEC, 1, seed=0)
    trace = dataclasses.replace(trace, jobs=trace.jobs[:num_jobs])
    world = World.build(trace, "v-reconfiguration",
                        default_config(WorkloadGroup.SPEC))
    world.run(until=until)
    return snapshot_bytes(world)


def drive(policy, jobs):
    """Schedule submissions for ``jobs`` through ``policy``."""
    sim = policy.cluster.sim
    for j in jobs:
        sim.schedule_at(j.submit_time, lambda j=j: policy.submit(j))
