"""Integration tests: the obs layer observing real runs.

Covers the acceptance path end to end: an instrumented
V-Reconfiguration run produces a Perfetto-loadable trace with
reservation spans and per-node migration events, the metrics snapshot
reaches ``RunSummary.extra`` (and therefore the exporters and the
parallel-sweep process boundary), and instrumentation never changes
scheduling behavior.
"""

import dataclasses
import io
import json

import pytest

from repro.experiments.parallel import (
    RunSpec,
    disable_progress,
    enable_progress,
    pop_sweep_timings,
    render_sweep_timings,
    run_specs,
    set_obs_default,
)
from repro.experiments.runner import run_experiment
from repro.experiments.scenario import run_blocking_scenario
from repro.obs.bus import CHANNELS
from repro.obs.session import EXTRA_PREFIX, ObsSession
from repro.workload.programs import WorkloadGroup

from helpers import job, tiny_cluster


@pytest.fixture(scope="module")
def scenario_obs():
    """One instrumented scenario run shared by the read-only tests."""
    obs = ObsSession(record_events=True, run_label="scenario-test")
    result = run_blocking_scenario("v-reconfiguration", obs=obs)
    return obs, result


class TestObsSession:
    def test_attach_is_single_use(self):
        obs = ObsSession()
        obs.attach(tiny_cluster())
        with pytest.raises(ValueError, match="single-use"):
            obs.attach(tiny_cluster())

    def test_sim_events_excluded_from_trace_channels(self):
        # The engine emits nothing per event: the exact count is read
        # from it at finalize.
        assert "sim.event" not in CHANNELS
        cluster = tiny_cluster()
        obs = ObsSession(record_events=True)
        obs.attach(cluster)
        cluster.nodes[0].add_job(job(work=5.0, demand=10.0))
        cluster.sim.run()
        snapshot = obs.finalize()
        assert snapshot["sim_events_executed"] == cluster.sim.event_count
        assert obs.events
        assert {event.channel for event in obs.events} <= set(CHANNELS)

    def test_phase_records_wall_time(self):
        obs = ObsSession()
        with obs.phase("demo"):
            pass
        assert obs.finalize()["phase_demo_wall_s"] >= 0.0

    def test_finalize_merges_into_extra(self, scenario_obs):
        _, result = scenario_obs
        extra = result.summary.extra
        obs_keys = [k for k in extra if k.startswith(EXTRA_PREFIX)]
        assert obs_keys
        assert extra["obs.reservation_reserve"] >= 1
        assert extra["obs.migrations"] >= 1
        assert extra["obs.sim_events_executed"] == \
            result.cluster.sim.event_count
        json.dumps(extra)  # exporter-safe

    def test_scenario_metrics(self, scenario_obs):
        obs, _ = scenario_obs
        snapshot = obs.finalize()
        assert snapshot["blocking_detections"] >= 1
        assert snapshot["thrashing_transitions"] >= 2
        assert snapshot["loadinfo_exchanges"] >= 1
        assert snapshot["migration_mb"] > 0
        assert snapshot["reservation_lifetime_s_count"] >= 1
        assert snapshot["placements_local"] > 0


class TestPerfettoTrace:
    def test_reservation_spans_present(self, scenario_obs):
        obs, _ = scenario_obs
        buffer = io.StringIO()
        document = obs.write_trace(buffer)
        assert json.loads(buffer.getvalue()) == document
        spans = [e for e in document["traceEvents"]
                 if e.get("ph") == "X"
                 and e["name"].startswith("reservation")]
        assert len(spans) >= 1
        assert all(e["dur"] >= 0 for e in spans)

    def test_migration_events_land_on_node_tracks(self, scenario_obs):
        obs, _ = scenario_obs
        document = obs.write_trace(io.StringIO())
        outs = [e for e in document["traceEvents"]
                if e["name"].startswith("migrate-out")]
        arrivals = [e for e in document["traceEvents"]
                    if e["name"].startswith("migrate-in")]
        assert outs and arrivals
        for event in outs:
            assert event["pid"] == 1
            assert event["tid"] == event["args"]["source"]
        for event in arrivals:
            assert event["tid"] == event["args"]["dest"]

    def test_jsonl_log_round_trips(self, scenario_obs):
        obs, _ = scenario_obs
        buffer = io.StringIO()
        count = obs.write_log(buffer)
        records = [json.loads(line)
                   for line in buffer.getvalue().splitlines()]
        assert len(records) == count == len(obs.events)
        channels = {record["channel"] for record in records}
        assert "reconfig.reservation" in channels
        assert "cluster.migration" in channels


class TestDeterminism:
    def test_obs_does_not_change_scheduling(self):
        plain = run_experiment(WorkloadGroup.SPEC, 1, seed=0, scale=0.1,
                               policy="v-reconfiguration")
        obs = ObsSession(record_events=False)
        instrumented = run_experiment(WorkloadGroup.SPEC, 1, seed=0,
                                      scale=0.1,
                                      policy="v-reconfiguration", obs=obs)
        stripped = dataclasses.replace(
            instrumented.summary,
            extra={k: v for k, v in instrumented.summary.extra.items()
                   if not k.startswith(EXTRA_PREFIX)})
        assert stripped == plain.summary


class TestSweepTelemetry:
    SPEC = dict(group=WorkloadGroup.SPEC, trace_index=1, seed=0, scale=0.1)

    def test_run_spec_obs_flag(self):
        pop_sweep_timings()
        summaries = run_specs([RunSpec(obs=True, **self.SPEC)], jobs=1)
        assert any(k.startswith(EXTRA_PREFIX)
                   for k in summaries[0].extra)
        timings = pop_sweep_timings()
        assert len(timings) == 1
        assert timings[0].events > 0
        assert timings[0].wall_s > 0
        assert timings[0].events_per_s > 0

    def test_obs_default_covers_parallel_workers(self):
        pop_sweep_timings()
        set_obs_default(True)
        try:
            specs = [RunSpec(policy=p, **self.SPEC)
                     for p in ("local", "g-loadsharing")]
            summaries = run_specs(specs, jobs=2)
        finally:
            set_obs_default(False)
        for summary in summaries:
            assert any(k.startswith(EXTRA_PREFIX) for k in summary.extra)
        assert len(pop_sweep_timings()) == 2

    def test_timings_preserve_submission_order(self):
        pop_sweep_timings()
        specs = [RunSpec(label=f"run-{i}", **self.SPEC) for i in range(3)]
        run_specs(specs, jobs=2)
        assert [t.label for t in pop_sweep_timings()] == \
            ["run-0", "run-1", "run-2"]

    def test_progress_line(self):
        stream = io.StringIO()
        enable_progress(stream)
        try:
            run_specs([RunSpec(label="p", **self.SPEC)] * 2, jobs=1)
        finally:
            disable_progress()
        text = stream.getvalue()
        assert "[1/2]" in text and "[2/2]" in text
        assert text.endswith("\n")  # final tick closes the line

    def test_render_sweep_timings_table(self):
        pop_sweep_timings()
        run_specs([RunSpec(label="timed-run", **self.SPEC)], jobs=1,
                  progress=False)
        table = render_sweep_timings(pop_sweep_timings())
        assert "timed-run" in table
        assert "TOTAL" in table
        assert "ev/s" in table


class TestTracerDecisions:
    """Reconfiguration *non*-events surface on the obs bus."""

    def _vpolicy(self, cluster):
        from repro.core.reconfiguration import VReconfiguration

        return VReconfiguration(cluster, blocking_persistence=1,
                                reservation_backoff_s=10.0,
                                migration_cooldown_s=0.0,
                                min_remaining_for_migration_s=1.0)

    def _recorded(self, cluster, channel, kind):
        events = []
        cluster.obs.subscribe(
            channel, lambda e: events.append(e) if e.kind == kind else None)
        return events

    def test_activation_skipped_recorded(self):
        cluster = tiny_cluster(num_nodes=2, memory_mb=100.0,
                               cpu_threshold=3)
        policy = self._vpolicy(cluster)
        skipped = self._recorded(cluster, "reconfig.blocking",
                                 "activation-skipped")
        for node_id in range(2):
            cluster.nodes[node_id].add_job(job(work=300.0, demand=60.0))
            cluster.nodes[node_id].add_job(job(work=300.0, demand=60.0))
        cluster.sim.run(until=20.0)
        assert len(skipped) >= 1
        data = skipped[0].data
        assert data["node"] is not None
        assert data["idle_memory_mb"] <= data["threshold_mb"]
        assert len(skipped) == policy.stats.extra["activation_skipped"]

    def test_backoff_cancel_recorded(self):
        cluster = tiny_cluster(num_nodes=3, memory_mb=100.0)
        policy = self._vpolicy(cluster)
        cancels = self._recorded(cluster, "reconfig.reservation",
                                 "backoff-cancel")
        # Reserving an idle node completes the reserving period at
        # once; with no blocked victim anywhere the policy adaptively
        # cancels with backoff — the path under test.
        reservation = policy.reservations.reserve(cluster.nodes[2],
                                                  needed_mb=50.0)
        assert len(cancels) == 1
        assert cancels[0].data["node"] == 2
        assert cancels[0].data["reservation"] == \
            reservation.reservation_id
        assert cancels[0].data["backoff_until"] > cluster.sim.now
        assert policy.stats.extra["backoff_cancellations"] == 1


class TestCli:
    def test_runner_cli_obs_exports(self, tmp_path, capsys):
        from repro.experiments.runner import main

        trace_out = str(tmp_path / "run.trace.json")
        metrics_out = str(tmp_path / "run.metrics.json")
        csv_out = str(tmp_path / "run.csv")
        code = main(["--trace", "1", "--scale", "0.1",
                     "--policy", "v-reconfiguration",
                     "--trace-out", trace_out,
                     "--obs-metrics", metrics_out,
                     "--export-csv", csv_out])
        assert code == 0
        out = capsys.readouterr().out
        assert "obs:" in out
        with open(trace_out) as stream:
            document = json.load(stream)
        assert document["traceEvents"]
        with open(metrics_out) as stream:
            snapshot = json.load(stream)
        assert snapshot["sim_events_executed"] > 0
        with open(csv_out) as stream:
            header = stream.readline()
        assert header.startswith("trace,policy")

    def test_experiments_cli_scenario_trace(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        trace_out = str(tmp_path / "scenario.trace.json")
        code = main(["scenario", "--trace-out", trace_out])
        assert code == 0
        assert "[wrote Perfetto trace" in capsys.readouterr().out
        with open(trace_out) as stream:
            document = json.load(stream)
        spans = [e for e in document["traceEvents"]
                 if e.get("ph") == "X"
                 and e["name"].startswith("reservation")]
        assert spans  # the acceptance criterion's reservation spans

    def test_experiments_cli_rejects_orphan_trace_out(self, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["table1", "--trace-out", "/tmp/nope.json"])

    def test_experiments_cli_obs_sweep_prints_timing_table(self, capsys):
        from repro.experiments.__main__ import main

        code = main(["figure3", "--scale", "0.06", "--obs"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Sweep timing" in out
        assert "TOTAL" in out
        disable_progress()
        set_obs_default(False)
