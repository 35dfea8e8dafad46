#!/usr/bin/env python
"""Heterogeneous clusters and the network-RAM extension (paper §2.3/§6).

The paper's §6 notes real systems "are likely to be heterogeneous from
CPU speed, memory capacity, to network interfaces", and §2.3 points at
network RAM ([12]) for jobs that cannot fit even a reserved
workstation.  This example exercises both extensions:

* a 16-node cluster where a quarter of the nodes have double memory
  and 1.5x CPU speed — §2.3 says reserved workstations should be the
  ones with large memory, and the reconfiguration's candidate choice
  naturally prefers them (largest idle memory);
* the same workload with network RAM enabled: page faults are served
  from remote memory (~1 ms) instead of disk (10 ms).

Run:  python examples/heterogeneous_cluster.py
"""

from repro.cluster import Cluster, ClusterConfig, Job, MemoryProfile
from repro.cluster.config import WorkstationSpec
from repro.core import VReconfiguration
from repro.experiments.world import World


def make_config(network_ram=False):
    config = ClusterConfig(
        num_nodes=16,
        spec=WorkstationSpec(cpu_mhz=233, memory_mb=128.0, swap_mb=128.0),
        cpu_threshold=4,
        network_ram=network_ram,
    )
    # four big-memory nodes (the natural reservation targets)
    for node_id in (12, 13, 14, 15):
        config.node_overrides[node_id] = WorkstationSpec(
            cpu_mhz=350, memory_mb=256.0, swap_mb=256.0,
            speed_factor=1.5)
    return config


def build_workload():
    jobs = []
    # two jobs too large for a small node's 120 MB user space
    for k in range(2):
        jobs.append(Job(program=f"huge-{k}", cpu_work_s=400.0,
                        memory=MemoryProfile.from_pairs(
                            [(0.0, 80.0), (20.0, 170.0)]),
                        submit_time=1.0 + k, home_node=k))
    for i in range(36):
        jobs.append(Job(program=f"small-{i}", cpu_work_s=80.0,
                        memory=MemoryProfile.constant(40.0),
                        submit_time=2.0 + 3.0 * i, home_node=i % 12))
    return jobs


def run(network_ram):
    cluster = Cluster(make_config(network_ram))
    world = World(cluster, VReconfiguration(cluster), jobs=[])
    for job in build_workload():
        world.admit(job)
    world.run()
    jobs, policy = world.jobs, world.policy
    huge = [job for job in jobs if job.program.startswith("huge")]
    reserved_used = {event.node_id
                     for event in policy.reservation_timeline
                     if event.kind == "assign"}
    return {
        "network_ram": network_ram,
        "total_page_s": sum(job.acct.page_s for job in jobs),
        "huge_slowdowns": [round(job.slowdown(), 2) for job in huge],
        "reserved_nodes_used": sorted(reserved_used),
        "reservations": policy.stats.extra.get("reservations", 0),
    }


def main():
    print("Heterogeneous 16-node cluster "
          "(nodes 12-15: 256 MB, 1.5x speed)\n")
    for network_ram in (False, True):
        result = run(network_ram)
        label = "network RAM" if network_ram else "disk paging"
        print(f"{label}:")
        for key, value in result.items():
            if key == "network_ram":
                continue
            print(f"  {key:20s} {value}")
        print()
    print("Note how reservations (if any were needed) land on the "
          "big-memory nodes,\nand network RAM shrinks the paging "
          "penalty of jobs that exceed a small node.")


if __name__ == "__main__":
    main()
