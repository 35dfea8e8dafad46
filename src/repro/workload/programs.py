"""Program catalogs for the two workload groups (paper Tables 1 and 2).

The numeric columns of Tables 1 and 2 are partially corrupted in the
available text of the paper, so the catalogs below are *reconstructions*
(see DESIGN.md §5): working sets for workload group 1 use well-known
SPEC CPU2000 memory footprints, lifetimes are anchored to the one
legible value (apsi = 2,619.0 s on the 400 MHz Pentium II); workload
group 2 uses plausible values for a 233 MHz Pentium with 128 MB such
that the mix is CPU-, memory- and I/O-diverse and a small fraction of
jobs cannot pairwise coexist in memory — the precondition for the
paper's blocking problem.

Each program carries a *profile shape*: ``(progress_fraction,
demand_fraction)`` control points expanded into a piecewise-constant
:class:`~repro.cluster.job.MemoryProfile` once per generated trace
job; every run's job of that trace job shares it.  Demand is tied to
CPU progress, so a slowed-down job reaches its memory-hungry phase
later, as a real program would.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.cluster.job import MemoryProfile


class WorkloadGroup(enum.Enum):
    """The paper's two workload groups."""

    SPEC = "spec"   # workload group 1: SPEC 2000, cluster 1
    APP = "app"     # workload group 2: scientific/system apps, cluster 2


#: Default ramp: programs allocate ~40% of the working set at startup,
#: grow to the peak a quarter of the way in, and release some memory in
#: the final phase.
DEFAULT_SHAPE: Tuple[Tuple[float, float], ...] = (
    (0.00, 0.40),
    (0.10, 0.75),
    (0.25, 1.00),
    (0.90, 0.70),
)


@dataclass(frozen=True)
class Program:
    """One catalog entry (a row of Table 1 or Table 2)."""

    name: str
    group: WorkloadGroup
    description: str
    input_name: str
    #: Peak working set in MB (Table "working set" column; for ranged
    #: programs this is the upper end and ``working_set_min_mb`` the
    #: lower end).
    working_set_mb: float
    #: Dedicated-environment execution time in seconds (Table
    #: "lifetime" column).
    lifetime_s: float
    working_set_min_mb: float = 0.0
    #: I/O stall seconds per CPU-second (group 2 contains I/O-active
    #: programs; group 1 is CPU/memory intensive only).
    io_stall_per_cpu_s: float = 0.0
    #: Buffer cache the program's I/O wants (MB); sized from the I/O
    #: intensity when not set explicitly.
    buffer_cache_mb: float = 0.0
    #: Memory profile control points; demand fractions are relative to
    #: ``working_set_mb``.
    shape: Tuple[Tuple[float, float], ...] = DEFAULT_SHAPE
    #: Relative frequency of the program in generated job pools.  The
    #: paper relies on the observation (§2.2, citing [5, 9]) that the
    #: percentage of exceptionally large jobs in real workloads is very
    #: low, so the large/long programs carry small weights.
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.working_set_mb <= 0:
            raise ValueError(f"{self.name}: working_set_mb must be positive")
        if self.lifetime_s <= 0:
            raise ValueError(f"{self.name}: lifetime_s must be positive")
        if not self.shape or self.shape[0][0] != 0.0:
            raise ValueError(f"{self.name}: shape must start at progress 0")

    # ------------------------------------------------------------------
    def memory_profile(self, lifetime_s: float,
                       peak_mb: float) -> MemoryProfile:
        """Expand the shape into a profile for a concrete job instance."""
        floor = self.working_set_min_mb
        pairs = []
        last_start = -1.0
        for progress_frac, demand_frac in self.shape:
            start = progress_frac * lifetime_s
            if start <= last_start:  # guard against degenerate lifetimes
                continue
            pairs.append((start, max(floor, demand_frac * peak_mb)))
            last_start = start
        return MemoryProfile.from_pairs(pairs)


def _spec(name: str, description: str, input_name: str, ws: float,
          lifetime: float, weight: float = 1.0,
          shape=DEFAULT_SHAPE) -> Program:
    return Program(name=name, group=WorkloadGroup.SPEC,
                   description=description, input_name=input_name,
                   working_set_mb=ws, lifetime_s=lifetime, shape=shape,
                   weight=weight)


def _app(name: str, description: str, input_name: str, ws: float,
         lifetime: float, ws_min: float = 0.0, io: float = 0.0,
         weight: float = 1.0, shape=DEFAULT_SHAPE) -> Program:
    return Program(name=name, group=WorkloadGroup.APP,
                   description=description, input_name=input_name,
                   working_set_mb=ws, working_set_min_mb=ws_min,
                   lifetime_s=lifetime, io_stall_per_cpu_s=io, shape=shape,
                   weight=weight, buffer_cache_mb=120.0 * io)


#: Table 1 — the 6 SPEC 2000 programs of workload group 1
#: (400 MHz Pentium II, 384 MB memory, 380 MB swap).  apsi's lifetime
#: is the one legible table value; the other lifetimes are scaled so a
#: trace's aggregate CPU demand lands in the regime where the paper's
#: results live (heavy but not hopeless, gains growing with the rate).
SPEC_PROGRAMS: Tuple[Program, ...] = (
    _spec("apsi", "climate modeling", "apsi.in", 191.0, 2619.0,
          weight=0.02),
    _spec("gcc", "optimized C compiler", "166.i", 90.0, 120.0,
          weight=0.26,
          shape=((0.0, 0.30), (0.05, 0.60), (0.30, 1.00), (0.85, 0.55))),
    _spec("gzip", "data compression", "input.graphic", 95.0, 130.0,
          weight=0.26,
          shape=((0.0, 0.50), (0.15, 1.00), (0.80, 0.80))),
    _spec("mcf", "combinatorial optimization", "inp.in", 190.0, 650.0,
          weight=0.06,
          shape=((0.0, 0.55), (0.05, 0.95), (0.20, 1.00))),
    _spec("vortex", "database", "lendian1.raw", 72.0, 100.0,
          weight=0.21),
    _spec("bzip", "data compression", "input.graphic", 92.0, 125.0,
          weight=0.19,
          shape=((0.0, 0.45), (0.10, 1.00), (0.85, 0.75))),
)

#: Table 2 — the 7 application programs of workload group 2
#: (233 MHz Pentium, 128 MB memory, 128 MB swap).
APP_PROGRAMS: Tuple[Program, ...] = (
    _app("bit-r", "bit-reversals", "2^20 elements", 9.0, 20.0,
         io=0.005, weight=0.20, shape=((0.0, 0.9), (0.1, 1.0))),
    _app("m-sort", "merge-sort", "2^20 entries", 28.0, 110.0,
         io=0.020, weight=0.18, shape=((0.0, 0.55), (0.10, 1.00))),
    _app("m-m", "matrix multiplication", "1,500x1,500", 26.0, 350.0,
         weight=0.16, shape=((0.0, 0.95), (0.05, 1.00))),
    _app("t-sim", "trace-driven simulation", "31,000 events", 50.0, 240.0,
         ws_min=12.0, io=0.050, weight=0.15,
         shape=((0.0, 0.25), (0.20, 0.60), (0.45, 1.00), (0.90, 0.50))),
    _app("metis", "partitioning meshes", "1M-4M nodes", 45.0, 160.0,
         ws_min=20.0, io=0.030, weight=0.15,
         shape=((0.0, 0.45), (0.15, 0.80), (0.40, 1.00))),
    _app("r-sphere", "cell-projection volume rendering (sphere)",
         "150,000 cells", 38.0, 260.0, io=0.080, weight=0.12,
         shape=((0.0, 0.60), (0.10, 1.00), (0.85, 0.70))),
    _app("r-wing", "cell-projection volume rendering (aircraft wing)",
         "500,000 cells", 112.0, 400.0, ws_min=60.0, io=0.080, weight=0.04,
         shape=((0.0, 0.55), (0.10, 0.85), (0.30, 1.00), (0.92, 0.65))),
)

_CATALOGS: Dict[WorkloadGroup, Tuple[Program, ...]] = {
    WorkloadGroup.SPEC: SPEC_PROGRAMS,
    WorkloadGroup.APP: APP_PROGRAMS,
}


def programs_for_group(group: WorkloadGroup) -> Tuple[Program, ...]:
    """The catalog for a workload group."""
    return _CATALOGS[group]
