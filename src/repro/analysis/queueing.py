"""Queueing-theory validation of the simulation substrate.

The reproduction's credibility rests on the simulator behaving like
the system it models.  This module provides closed-form results from
queueing theory and helpers to measure the corresponding quantities in
the simulator, so tests can validate the substrate against theory:

* **M/G/1-PS**: a processor-sharing server with Poisson arrivals has
  mean slowdown ``1 / (1 - rho)`` *independently of the service-time
  distribution* — our round-robin CPU model is PS in the limit, so a
  single workstation with ample memory must reproduce this;
* **M/M/1-FCFS**: with one job slot (CPU threshold 1) the node is an
  FCFS queue; mean sojourn ``1 / (mu - lambda)``;
* utilization law: throughput x mean service = utilization.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig, WorkstationSpec
from repro.cluster.job import Job, MemoryProfile
from repro.experiments.world import World
from repro.scheduling.local import LocalPolicy


def ps_mean_slowdown(rho: float) -> float:
    """M/G/1-PS mean slowdown: 1 / (1 - rho)."""
    if not 0 <= rho < 1:
        raise ValueError("rho must be in [0, 1)")
    return 1.0 / (1.0 - rho)


def mm1_mean_sojourn(arrival_rate: float, service_rate: float) -> float:
    """M/M/1 mean time in system: 1 / (mu - lambda)."""
    if service_rate <= arrival_rate:
        raise ValueError("unstable queue: mu must exceed lambda")
    return 1.0 / (service_rate - arrival_rate)


@dataclass
class SingleNodeExperiment:
    """Measured statistics of a single-workstation simulation."""

    rho: float
    num_jobs: int
    mean_slowdown: float
    mean_sojourn_s: float
    utilization: float


def run_single_node(arrival_rate: float,
                    mean_service_s: float,
                    num_jobs: int = 2000,
                    seed: int = 0,
                    cpu_threshold: int = 64,
                    service_sampler: Optional[
                        Callable[[random.Random], float]] = None,
                    warmup_fraction: float = 0.1
                    ) -> SingleNodeExperiment:
    """Drive one workstation with Poisson arrivals and measure it.

    Memory demands are negligible, so the node is a pure PS server
    (or FCFS with ``cpu_threshold=1``).  The context-switch tax is
    zeroed for an exact comparison with theory.
    """
    rng = random.Random(seed)
    if service_sampler is None:
        def service_sampler(r: random.Random) -> float:
            return r.expovariate(1.0 / mean_service_s)

    config = ClusterConfig(
        num_nodes=1,
        spec=WorkstationSpec(memory_mb=100000.0, swap_mb=0.0),
        cpu_threshold=cpu_threshold,
        context_switch_ms=0.0,
        load_exchange_interval_s=0.0,
        monitor_interval_s=1e9,  # effectively off
        sample_interval_s=1e9,
    )
    cluster = Cluster(config)
    world = World(cluster, LocalPolicy(cluster), jobs=[])
    t = 0.0
    for _ in range(num_jobs):
        t += rng.expovariate(arrival_rate)
        work = max(1e-3, service_sampler(rng))
        world.admit(Job(program="mg1", cpu_work_s=work,
                        memory=MemoryProfile.constant(1.0),
                        submit_time=t, home_node=0))
    world.run()

    jobs = world.jobs
    warmup = int(warmup_fraction * num_jobs)
    measured = jobs[warmup:]
    slowdowns = [job.slowdown() for job in measured]
    sojourns = [job.finish_time - job.submit_time for job in measured]
    makespan = max(job.finish_time for job in jobs)
    busy = cluster.nodes[0].busy_cpu_s
    return SingleNodeExperiment(
        rho=arrival_rate * mean_service_s,
        num_jobs=len(measured),
        mean_slowdown=sum(slowdowns) / len(slowdowns),
        mean_sojourn_s=sum(sojourns) / len(sojourns),
        utilization=busy / makespan,
    )
