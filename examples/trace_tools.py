#!/usr/bin/env python
"""Working with workload traces: generate, save, inspect, replay.

Shows the trace toolchain the paper's methodology describes (§3.3.2):
a generated trace with its per-job header and activity records, the
on-disk format round-trip, and a replay of a saved trace.

Run:  python examples/trace_tools.py
"""

import os
import tempfile

from repro.experiments.runner import default_config, run_trace
from repro.workload.generator import build_trace
from repro.workload.programs import WorkloadGroup
from repro.workload.trace import Trace, summarize


def main():
    trace = build_trace(WorkloadGroup.APP, 1, seed=7)
    print(summarize(trace))

    job = trace.jobs[0]
    print(f"\nFirst job header: id={job.job_index} "
          f"submit={job.submit_time:.2f}s program={job.program} "
          f"lifetime={job.lifetime_s:.1f}s home={job.home_node}")
    print("Memory phases (progress_s -> demand_mb):")
    for start, demand in job.memory.pairs:
        print(f"  {start:8.1f} -> {demand:7.1f}")

    records = list(job.activity_records())
    print(f"\n10 ms activity records: {len(records)} "
          f"(paper §3.3.2 format); first three:")
    for record in records[:3]:
        print(f"  t+{record.offset_ms:6.0f}ms cpu={record.cpu_fraction} "
              f"mem={record.memory_mb:.1f}MB io_ops={record.io_ops}")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "app-trace-1.trace")
        trace.write(path)
        size_kb = os.path.getsize(path) / 1024
        loaded = Trace.read(path)
        print(f"\nSaved to {path} ({size_kb:.0f} KiB), "
              f"loaded {loaded.num_jobs} jobs back")

        print("\nReplaying the saved trace (25% subsample) under "
              "G-Loadsharing ...")
        loaded.jobs = loaded.jobs[::4]
        result = run_trace(loaded, "g-loadsharing",
                           default_config(WorkloadGroup.APP))
        print(f"  makespan {result.summary.makespan_s:,.0f}s, "
              f"average slowdown {result.summary.average_slowdown:.2f}")


if __name__ == "__main__":
    main()
