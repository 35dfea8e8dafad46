"""ObsSession streaming logs and Prometheus export."""

import io
import json

from repro.obs.metrics import MetricsRegistry
from repro.obs.session import ObsSession

from helpers import job, tiny_cluster


def streamed_run(**session_kwargs):
    cluster = tiny_cluster()
    obs = ObsSession(**session_kwargs)
    obs.attach(cluster)
    for i in range(3):
        cluster.nodes[i].add_job(job(work=10.0, demand=20.0))
    cluster.sim.run()
    return cluster, obs


class TestStreamingLog:
    def test_streams_to_path_and_closes_on_finalize(self, tmp_path):
        target = tmp_path / "run.jsonl"
        _, obs = streamed_run(record_events=False,
                              stream_log=str(target))
        snapshot = obs.finalize()
        records = [json.loads(line)
                   for line in target.read_text().splitlines()]
        assert records
        assert snapshot["streamed_events"] == len(records)
        assert {"t", "channel", "kind"} <= set(records[0])
        assert obs._stream is None  # session-owned handle closed

    def test_streams_to_caller_owned_handle(self):
        buffer = io.StringIO()
        _, obs = streamed_run(record_events=False, stream_log=buffer)
        obs.finalize()
        assert not buffer.closed  # caller-owned: flushed, not closed
        lines = buffer.getvalue().splitlines()
        assert lines and json.loads(lines[0])

    def test_stream_is_line_buffered_for_tailing(self, tmp_path):
        # A `tail -f` consumer must see complete lines *during* the
        # run, not only after finalize flushes/closes the handle.
        target = tmp_path / "run.jsonl"
        cluster = tiny_cluster()
        obs = ObsSession(record_events=False, stream_log=str(target))
        obs.attach(cluster)
        for i in range(3):
            cluster.nodes[i].add_job(job(work=10.0, demand=20.0))
        cluster.sim.run(until=5.0)  # mid-run: stream still open
        lines = target.read_text().splitlines()
        assert lines, "no events visible before finalize"
        for line in lines:
            json.loads(line)  # every visible line is complete JSON
        cluster.sim.run()
        obs.finalize()

    def test_stream_matches_recorded_events(self):
        buffer = io.StringIO()
        _, obs = streamed_run(record_events=True, stream_log=buffer)
        obs.finalize()
        streamed = [json.loads(line)
                    for line in buffer.getvalue().splitlines()]
        assert streamed == [e.to_jsonable() for e in obs.events]


class TestPromExport:
    def test_registry_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("migrations").inc(3)
        registry.gauge("idle-memory.mb").set(12.5)
        registry.histogram("delay_s").observe(1.0)
        registry.histogram("delay_s").observe(3.0)
        buffer = io.StringIO()
        count = registry.write_prom(buffer, namespace="repro",
                                    labels={"run": 'a"b\\c'})
        text = buffer.getvalue()
        samples = [line for line in text.splitlines()
                   if line and not line.startswith("#")]
        assert count == len(samples)  # returns the sample count
        assert "# TYPE repro_migrations counter" in text
        assert 'repro_migrations{run="a\\"b\\\\c"} 3' in text
        # Bad metric characters are sanitized for Prometheus.
        assert "# TYPE repro_idle_memory_mb gauge" in text
        assert "# TYPE repro_delay_s summary" in text
        assert 'repro_delay_s_count{run="a\\"b\\\\c"} 2' in text
        assert 'repro_delay_s_sum{run="a\\"b\\\\c"} 4' in text
        assert "repro_delay_s_avg" in text

    def test_no_labels(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        buffer = io.StringIO()
        registry.write_prom(buffer, labels={})
        assert "repro_hits 1" in buffer.getvalue()

    def test_session_write_prom_defaults_to_run_label(self, tmp_path):
        _, obs = streamed_run(record_events=False,
                              run_label="prom-test")
        target = tmp_path / "metrics.prom"
        count = obs.write_prom(str(target))
        text = target.read_text()
        assert count > 0
        assert 'run="prom-test"' in text
        assert "repro_sim_events_executed" in text
