"""Unit tests for trace containers, the on-disk format, and the generator."""

import dataclasses
import hashlib
import io
import json
import os

import pytest

from repro.cluster.job import MemoryProfile
from repro.workload import (
    Trace,
    TraceGenerator,
    TraceJob,
    WorkloadGroup,
    build_trace,
)
from repro.workload.generator import program_mix
from repro.workload.trace import RECORD_INTERVAL_MS, summarize


def make_trace_job(index=0, submit=1.0, program="gzip", lifetime=290.0,
                   **kwargs):
    defaults = dict(home_node=3, peak_demand_mb=180.0,
                    io_stall_per_cpu_s=0.0,
                    memory=MemoryProfile.from_pairs([(0.0, 90.0),
                                                     (30.0, 180.0)]))
    defaults.update(kwargs)
    return TraceJob(job_index=index, submit_time=submit, program=program,
                    lifetime_s=lifetime, **defaults)


class TestTraceJob:
    def test_to_job_materializes_fields(self):
        tj = make_trace_job()
        job = tj.to_job()
        assert job.program == "gzip"
        assert job.cpu_work_s == 290.0
        assert job.submit_time == 1.0
        assert job.home_node == 3
        assert job.current_demand_mb == 90.0
        assert job.peak_demand_mb == 180.0

    def test_default_phase_is_flat_peak(self):
        tj = TraceJob(job_index=0, submit_time=0.0, program="p",
                      lifetime_s=10.0, home_node=0, peak_demand_mb=42.0)
        assert tj.memory.pairs == [(0.0, 42.0)]

    def test_jobs_share_the_trace_job_profile(self):
        tj = make_trace_job()
        assert tj.to_job().memory is tj.memory
        assert tj.to_job().memory is tj.memory
        assert dataclasses.replace(tj, job_index=5).memory is tj.memory

    def test_activity_records_expand_to_10ms_grid(self):
        tj = make_trace_job(lifetime=0.05)  # 50 ms -> 5 records
        records = list(tj.activity_records())
        assert len(records) == 5
        assert records[1].offset_ms == RECORD_INTERVAL_MS
        assert all(r.memory_mb == 90.0 for r in records)

    def test_activity_records_follow_phases(self):
        tj = make_trace_job(lifetime=60.0)
        records = list(tj.activity_records())
        assert records[0].memory_mb == 90.0
        assert records[-1].memory_mb == 180.0

    def test_invalid_lifetime(self):
        with pytest.raises(ValueError):
            make_trace_job(lifetime=0.0)


class TestTraceRoundTrip:
    def build(self):
        jobs = [make_trace_job(index=i, submit=float(i)) for i in range(4)]
        return Trace(name="SPEC-Trace-9", group=WorkloadGroup.SPEC,
                     trace_index=9, duration_s=100.0, jobs=jobs)

    def test_round_trip_through_string(self):
        trace = self.build()
        text = trace.dumps()
        loaded = Trace.read(io.StringIO(text))
        assert loaded.name == trace.name
        assert loaded.group == trace.group
        assert loaded.trace_index == 9
        assert loaded.num_jobs == 4
        for a, b in zip(trace.jobs, loaded.jobs):
            assert a.submit_time == pytest.approx(b.submit_time)
            assert a.program == b.program
            assert a.memory.pairs == pytest.approx(b.memory.pairs)

    def test_round_trip_through_file(self, tmp_path):
        trace = self.build()
        path = str(tmp_path / "trace.txt")
        trace.write(path)
        loaded = Trace.read(path)
        assert loaded.num_jobs == trace.num_jobs

    def test_rejects_non_trace_file(self):
        with pytest.raises(ValueError):
            Trace.read(io.StringIO("not a trace\n"))

    def test_rejects_unknown_line(self):
        text = self.build().dumps() + "X bogus\n"
        with pytest.raises(ValueError):
            Trace.read(io.StringIO(text))

    def test_unsorted_jobs_rejected(self):
        jobs = [make_trace_job(index=0, submit=5.0),
                make_trace_job(index=1, submit=1.0)]
        with pytest.raises(ValueError):
            Trace(name="bad", group=WorkloadGroup.SPEC, trace_index=1,
                  duration_s=10.0, jobs=jobs)

    def test_summarize(self):
        text = summarize(self.build())
        assert "SPEC-Trace-9" in text
        assert "4 jobs" in text


class TestGenerator:
    def test_builds_published_job_counts(self):
        trace = build_trace(WorkloadGroup.SPEC, 3, seed=0)
        assert trace.name == "SPEC-Trace-3"
        assert trace.num_jobs == 578

    def test_app_traces(self):
        trace = build_trace(WorkloadGroup.APP, 1, seed=0)
        assert trace.name == "App-Trace-1"
        assert trace.num_jobs == 359

    def test_deterministic_for_same_seed(self):
        a = build_trace(WorkloadGroup.SPEC, 2, seed=5)
        b = build_trace(WorkloadGroup.SPEC, 2, seed=5)
        assert a.dumps() == b.dumps()

    def test_different_seeds_differ(self):
        a = build_trace(WorkloadGroup.SPEC, 2, seed=5)
        b = build_trace(WorkloadGroup.SPEC, 2, seed=6)
        assert a.dumps() != b.dumps()

    def test_home_nodes_in_range(self):
        trace = build_trace(WorkloadGroup.APP, 2, seed=0, num_nodes=32)
        assert all(0 <= job.home_node < 32 for job in trace.jobs)

    def test_all_programs_appear(self):
        trace = build_trace(WorkloadGroup.SPEC, 5, seed=0)
        mix = program_mix(trace)
        assert set(mix) == {"apsi", "gcc", "gzip", "mcf", "vortex", "bzip"}

    def test_jitter_bounds(self):
        gen = TraceGenerator(seed=1, lifetime_jitter=0.10,
                             working_set_jitter=0.05)
        trace = gen.build(WorkloadGroup.SPEC, 1)
        from repro.workload.programs import programs_for_group
        catalog = {program.name: program
                   for program in programs_for_group(WorkloadGroup.SPEC)}
        for job in trace.jobs:
            program = catalog[job.program]
            assert (0.89 * program.lifetime_s <= job.lifetime_s
                    <= 1.11 * program.lifetime_s)

    def test_generated_trace_round_trips(self):
        trace = build_trace(WorkloadGroup.APP, 1, seed=3)
        loaded = Trace.read(io.StringIO(trace.dumps()))
        assert loaded.num_jobs == trace.num_jobs
        assert loaded.jobs[10].program == trace.jobs[10].program

    def test_invalid_generator_parameters(self):
        with pytest.raises(ValueError):
            TraceGenerator(num_nodes=0)
        with pytest.raises(ValueError):
            TraceGenerator(lifetime_jitter=1.5)
        with pytest.raises(ValueError):
            TraceGenerator(working_set_jitter=-0.1)


#: sha256 of ``Trace.dumps()`` for the ten paper traces, written by
#: ``tests/golden/make_paper_traces.py``.  Pins the generator's draws
#: and every byte of the trace file format.
PAPER_TRACES_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                                        "paper_traces.json")

#: Seeds the golden covers.
PAPER_TRACE_SEEDS = (0, 7)


def paper_trace_digests() -> dict:
    """``{"seed=S": {trace name: sha256 of its file text}}``."""
    digests = {}
    for seed in PAPER_TRACE_SEEDS:
        generator = TraceGenerator(seed=seed)
        digests[f"seed={seed}"] = {
            trace.name: hashlib.sha256(trace.dumps().encode()).hexdigest()
            for trace in (generator.build(group, index)
                          for group in WorkloadGroup
                          for index in range(1, 6))}
    return digests


def test_paper_traces_match_golden():
    with open(PAPER_TRACES_GOLDEN_PATH) as stream:
        golden = json.load(stream)
    assert paper_trace_digests() == golden
