"""Self-test of the end-to-end benchmark (``python -m pytest
benchmarks``): input builders, the lapped engine runs and the result
printer, at small sizes."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

assert run.bootstrap() is None

import host  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.workload.programs import WorkloadGroup  # noqa: E402

SPEC = WorkloadGroup.SPEC


def test_builders_are_deterministic_per_seed_and_differ_across_seeds():
    builders = [
        lambda seed: inputs.paper_trace(SPEC, 1, seed).dumps(),
        lambda seed: inputs.tiled_trace(SPEC, 1, seed, 2).dumps(),
        lambda seed: inputs.ingest_batches(seed, 3, 4),
    ]
    for build in builders:
        assert build(0) == build(0)
        assert build(0) != build(1)


def test_tiled_trace_keeps_the_paper_load_per_node():
    copies = 3
    single = inputs.paper_trace(SPEC, 1, 0)
    tiled = inputs.tiled_trace(SPEC, 1, 0, copies)
    nodes = inputs.PAPER_NODES
    hours = single.duration_s / 3600.0
    assert tiled.duration_s == single.duration_s
    assert (tiled.num_jobs / (nodes * copies * hours)
            == pytest.approx(single.num_jobs / (nodes * hours)))
    for block in range(copies):
        homes = [job.home_node for job in tiled.jobs
                 if block * nodes <= job.home_node < (block + 1) * nodes]
        assert len(homes) == single.num_jobs
    assert [job.job_index for job in tiled.jobs] == list(range(tiled.num_jobs))


def test_lapped_runs_execute_the_same_events(monkeypatch):
    monkeypatch.setattr(workloads, "LAP_S", 0.0)     # lap every chunk
    cell = workloads.Cell(SPEC, 1, workloads.V)
    trace, config = cell.build(0)
    plain = workloads.build_world(trace, cell.policy, config)
    plain.cluster.sim.run()
    lapped = workloads.build_world(trace, cell.policy, config)
    clock = host.HostClock()
    with workloads.lapped_runs(clock):
        lapped.cluster.sim.run()
    assert len(clock.samples) > 2
    assert lapped.cluster.sim.event_count == plain.cluster.sim.event_count
    assert (workloads.summary_digest(lapped.summarize())
            == workloads.summary_digest(plain.summarize()))


def test_printer_emits_exactly_the_declared_metrics_with_units():
    spec = run.load_spec()
    m = workloads.Measurement(setups=[0.1, 0.2], run_s=1.0, answer_s=0.5,
                              events=10, event_run_s=1.0)
    totals = spans.Totals(self_time={}, calls={}, hits={}, durations={},
                          distinct={}, roots={"op x": 1.0}, spans=0)
    layer_values, _ = run.per_layer_metrics(totals, m, m, cpu_s=1.0)
    for values, trace in ((run.end_to_end_metrics(m), False),
                          (layer_values, True)):
        declared = run.declared(spec, trace)
        line = run.result_line(values, declared, attempted=1, failed=0,
                               correct=True)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [d["name"] for d in declared]
        assert all(entry["unit"] for entry in line["metrics"].values())
        json.dumps(line)
        with pytest.raises(ValueError):
            run.result_line(dict(values, bogus=1.0), declared, 1, 0, True)
