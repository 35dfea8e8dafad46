"""Synthesizes the paper's ten workload traces.

``build_trace(group, index, seed)`` reproduces SPEC-Trace-1..5 and
App-Trace-1..5 (§3.3.2): arrival instants follow the lognormal rate
function with the published parameters, each arrival draws a program
from the group catalog, is perturbed by a small lifetime/working-set
jitter (real runs of the same program differ slightly), and is
assigned a uniformly random home workstation among the 32 nodes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import List, Optional

from repro.sim.rng import RandomStreams
from repro.workload.arrivals import LognormalArrivals, trace_spec
from repro.workload.programs import (
    Program,
    WorkloadGroup,
    programs_for_group,
)
from repro.workload.trace import Trace, TraceJob


class TraceGenerator:
    """Deterministic (seeded) generator of workload traces."""

    def __init__(self, num_nodes: int = 32, seed: int = 0,
                 lifetime_jitter: float = 0.10,
                 working_set_jitter: float = 0.05):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if not 0 <= lifetime_jitter < 1:
            raise ValueError("lifetime_jitter must be in [0, 1)")
        if not 0 <= working_set_jitter < 1:
            raise ValueError("working_set_jitter must be in [0, 1)")
        self.num_nodes = num_nodes
        self.seed = seed
        self.lifetime_jitter = lifetime_jitter
        self.working_set_jitter = working_set_jitter

    # ------------------------------------------------------------------
    def build(self, group: WorkloadGroup, index: int) -> Trace:
        """Build trace ``index`` (1..5) for ``group``."""
        spec = trace_spec(index)
        label = f"{group.value}-{index}"
        streams = RandomStreams(self.seed).spawn(label)
        arrivals = LognormalArrivals(spec, rng=streams.stream("arrivals"))
        programs = programs_for_group(group)
        choose = streams.stream("programs")
        place = streams.stream("home-nodes")
        perturb = streams.stream("profiles")

        cum_weights = list(accumulate(p.weight for p in programs))
        jobs: List[TraceJob] = []
        for job_index, submit_time in enumerate(arrivals.arrival_times()):
            program = choose.choices(programs, cum_weights=cum_weights)[0]
            lifetime = self._jitter(perturb, program.lifetime_s,
                                    self.lifetime_jitter)
            peak = self._jitter(perturb, program.working_set_mb,
                                self.working_set_jitter)
            peak = max(peak, program.working_set_min_mb + 1.0)
            memory = program.memory_profile(lifetime, peak)
            jobs.append(TraceJob(
                job_index=job_index,
                submit_time=submit_time,
                program=program.name,
                lifetime_s=lifetime,
                home_node=place.randrange(self.num_nodes),
                peak_demand_mb=memory.peak_demand_mb,
                io_stall_per_cpu_s=program.io_stall_per_cpu_s,
                buffer_cache_mb=program.buffer_cache_mb,
                memory=memory,
            ))
        name = ("SPEC-Trace-" if group is WorkloadGroup.SPEC
                else "App-Trace-") + str(index)
        return Trace(name=name, group=group, trace_index=index,
                     duration_s=spec.duration_s, jobs=jobs)

    @staticmethod
    def _jitter(rng, value: float, fraction: float) -> float:
        if fraction <= 0:
            return value
        return value * (1.0 + rng.uniform(-fraction, fraction))


@lru_cache(maxsize=32)
def _cached_build(group: WorkloadGroup, index: int, seed: int,
                  num_nodes: int) -> Trace:
    return TraceGenerator(num_nodes=num_nodes, seed=seed).build(group, index)


def build_trace(group: WorkloadGroup, index: int, seed: int = 0,
                num_nodes: int = 32,
                generator: Optional[TraceGenerator] = None) -> Trace:
    """Convenience wrapper used by the experiment harness.

    Default-parameter builds (no explicit ``generator``) are memoized:
    a sweep that replays the same trace under several policies
    generates it once.  The cached :class:`Trace` and its ``TraceJob``
    records are treated as immutable by the whole experiment stack —
    each run materializes fresh mutable :class:`~repro.cluster.job.Job`
    objects via :meth:`Trace.build_jobs` (sharing only the immutable
    memory profiles), so sharing the trace between runs (or returning
    it to several callers) is safe.
    """
    if generator is not None:
        return generator.build(group, index)
    return _cached_build(group, index, seed, num_nodes)


def clear_trace_cache() -> None:
    """Drop memoized traces (tests and long-lived sweep processes)."""
    _cached_build.cache_clear()


def program_mix(trace: Trace) -> dict:
    """Histogram of program names in a trace (diagnostics)."""
    mix: dict = {}
    for job in trace.jobs:
        mix[job.program] = mix.get(job.program, 0) + 1
    return mix
