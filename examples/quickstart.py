#!/usr/bin/env python
"""Quickstart: simulate a small cluster under two scheduling policies.

Builds an 8-node cluster, submits a mixed workload (small jobs plus
one memory hog), and compares plain dynamic load sharing
(G-Loadsharing) against the paper's virtual reconfiguration
(V-Reconfiguration).

Run:  python examples/quickstart.py
"""

from repro.cluster import Cluster, ClusterConfig, Job, MemoryProfile
from repro.cluster.config import WorkstationSpec
from repro.core import VReconfiguration
from repro.experiments.world import World
from repro.scheduling import GLoadSharing


def build_workload():
    """A hog that grows to 240 MB plus a stream of 40 small jobs."""
    jobs = [Job(program="hog", cpu_work_s=600.0,
                memory=MemoryProfile.from_pairs(
                    [(0.0, 120.0), (30.0, 240.0)]),
                submit_time=1.0, home_node=0)]
    for i in range(40):
        jobs.append(Job(
            program=f"small-{i}", cpu_work_s=90.0,
            memory=MemoryProfile.constant(70.0),
            submit_time=2.0 + 4.0 * i, home_node=i % 8))
    return jobs


def run(policy_class):
    config = ClusterConfig(
        num_nodes=8,
        spec=WorkstationSpec(memory_mb=384.0, swap_mb=380.0),
        cpu_threshold=4,
    )
    cluster = Cluster(config)
    world = World(cluster, policy_class(cluster), jobs=[])
    for job in build_workload():
        world.admit(job)
    world.run()
    jobs, policy = world.jobs, world.policy
    slowdowns = [job.slowdown() for job in jobs]
    hog = jobs[0]
    return {
        "policy": policy.name,
        "makespan_s": max(job.finish_time for job in jobs),
        "average_slowdown": sum(slowdowns) / len(slowdowns),
        "hog_slowdown": hog.slowdown(),
        "total_page_s": sum(job.acct.page_s for job in jobs),
        "migrations": policy.stats.migrations,
        "blocking_events": policy.stats.blocking_events,
    }


def main():
    print("Quickstart: 8 nodes, 41 jobs, one growing memory hog\n")
    for policy_class in (GLoadSharing, VReconfiguration):
        result = run(policy_class)
        print(f"{result['policy']}:")
        for key, value in result.items():
            if key == "policy":
                continue
            if isinstance(value, float):
                print(f"  {key:20s} {value:10.2f}")
            else:
                print(f"  {key:20s} {value:10d}")
        print()


if __name__ == "__main__":
    main()
