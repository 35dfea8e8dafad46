"""Seeded input builders for the end-to-end benchmark.

Every input is derived from the workload seed; the program receives
only the generated jobs.  A *tiled* trace is ``copies`` copies of one
of the paper's traces, each generated for the paper's 32-node cluster
with its own seed (``1000 * seed + copy``), shifted onto its own block
of 32 home nodes and merged by submit time.  Per-node load therefore
equals the paper's at any cluster size, so a larger cluster times
scheduling at scale rather than an idle cluster.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List

from repro.workload.generator import TraceGenerator, build_trace
from repro.workload.programs import WorkloadGroup
from repro.workload.trace import Trace

#: Nodes of the paper's clusters; one trace copy per block of this many.
PAPER_NODES = 32

#: ``/submit`` job shape of the live workload: short and small, so the
#: service path (HTTP, validation, admission, publishing) does the work.
INGEST_LIFETIME_S = 0.5
INGEST_DEMAND_MB = 8.0


def paper_trace(group: WorkloadGroup, index: int, seed: int) -> Trace:
    """One of the paper's ten traces for a 32-node cluster.

    Goes through ``build_trace`` with an explicit generator, which
    bypasses its memo: every call pays the full generation cost, as a
    fresh process would.
    """
    return build_trace(group, index,
                       generator=TraceGenerator(num_nodes=PAPER_NODES,
                                                seed=seed))


def tiled_trace(group: WorkloadGroup, index: int, seed: int,
                copies: int) -> Trace:
    """``copies`` independent copies of a paper trace on
    ``PAPER_NODES * copies`` nodes (see the module docstring)."""
    if copies < 1:
        raise ValueError(f"copies must be >= 1: {copies!r}")
    tagged = []
    for copy_index in range(copies):
        copy = paper_trace(group, index, 1000 * seed + copy_index)
        shift = PAPER_NODES * copy_index
        for job in copy.jobs:
            tagged.append((job.submit_time, copy_index, job.job_index,
                           dataclasses.replace(
                               job, home_node=job.home_node + shift)))
    tagged.sort(key=lambda item: item[:3])
    jobs = [dataclasses.replace(job, job_index=i)
            for i, (_, _, _, job) in enumerate(tagged)]
    return Trace(name=f"{copy.name}x{copies}", group=group,
                 trace_index=index, duration_s=copy.duration_s, jobs=jobs)


def ingest_batches(seed: int, batches: int,
                   batch_size: int) -> List[List[dict]]:
    """``/submit`` bodies: ``batches`` lists of ``batch_size`` job
    specs with seeded home nodes on the paper's 32-node cluster."""
    rng = random.Random(seed)
    return [[{"program": "ingest", "lifetime_s": INGEST_LIFETIME_S,
              "peak_demand_mb": INGEST_DEMAND_MB,
              "home_node": rng.randrange(PAPER_NODES)}
             for _ in range(batch_size)]
            for _ in range(batches)]
