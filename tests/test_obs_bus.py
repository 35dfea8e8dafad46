"""Unit tests for the obs layer: event bus, metrics, exporters."""

import io
import json

import pytest

from repro.obs.bus import CHANNELS, NULL_CHANNEL, Channel, EventBus, ObsEvent
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace_export import chrome_trace, write_chrome_trace, write_jsonl


class TestChannel:
    def test_disabled_until_subscribed(self):
        channel = Channel("test")
        assert not channel.enabled
        seen = []
        channel.subscribe(seen.append)
        assert channel.enabled
        channel.unsubscribe(seen.append)
        assert not channel.enabled

    def test_emit_delivers_structured_event(self):
        channel = Channel("test")
        seen = []
        channel.subscribe(seen.append)
        channel.emit(12.5, "place", job=7, node=3)
        assert seen == [ObsEvent("test", 12.5, "place",
                                 {"job": 7, "node": 3})]

    def test_emit_without_subscribers_is_noop(self):
        channel = Channel("test")
        channel.emit(0.0, "anything")  # must not raise

    def test_null_channel_is_shared_and_disabled(self):
        assert not NULL_CHANNEL.enabled

    def test_multiple_subscribers_all_receive(self):
        channel = Channel("test")
        a, b = [], []
        channel.subscribe(a.append)
        channel.subscribe(b.append)
        channel.emit(1.0, "x")
        assert len(a) == len(b) == 1
        channel.unsubscribe(a.append)
        assert channel.enabled  # b is still attached


class TestEventBus:
    def test_known_channels(self):
        bus = EventBus()
        for name in CHANNELS:
            assert bus.channel(name).name == name

    def test_unknown_channel_raises(self):
        bus = EventBus()
        with pytest.raises(KeyError, match="unknown obs channel"):
            bus.channel("no.such.channel")

    def test_extra_channels(self):
        bus = EventBus(extra_channels=("custom.stream",))
        assert not bus.channel("custom.stream").enabled

    def test_subscribe_many(self):
        bus = EventBus()
        seen = []
        bus.subscribe_many(("cluster.placement", "cluster.migration"),
                           seen.append)
        bus.channel("cluster.placement").emit(0.0, "local")
        bus.channel("cluster.migration").emit(0.0, "migrate")
        bus.channel("memory.fault").emit(0.0, "thrash-on")  # not subscribed
        assert [e.channel for e in seen] == ["cluster.placement",
                                             "cluster.migration"]

    def test_subscribe_many_none_means_all(self):
        bus = EventBus()
        bus.subscribe_many(None, lambda event: None)
        assert all(ch.enabled for ch in bus.channels())

    def test_buses_are_independent(self):
        first, second = EventBus(), EventBus()
        first.subscribe("cluster.placement", lambda event: None)
        assert not second.channel("cluster.placement").enabled


class TestObsEvent:
    def test_to_jsonable_flattens(self):
        event = ObsEvent("cluster.migration", 3.0, "migrate",
                         {"job": 1, "image_mb": 40.0})
        record = event.to_jsonable()
        assert record == {"t": 3.0, "channel": "cluster.migration",
                          "kind": "migrate", "job": 1, "image_mb": 40.0}
        json.dumps(record)


class TestMetricsRegistry:
    def test_counter(self):
        registry = MetricsRegistry()
        registry.counter("migrations").inc()
        registry.counter("migrations").inc(2.0)
        assert registry.snapshot() == {"migrations": 3.0}

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            MetricsRegistry().counter("c").inc(-1.0)

    def test_gauge_keeps_last_value(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(4)
        registry.gauge("depth").set(2)
        assert registry.snapshot() == {"depth": 2.0}

    def test_histogram_snapshot(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lifetime_s")
        for value in (10.0, 30.0, 20.0):
            hist.observe(value)
        snapshot = registry.snapshot()
        assert snapshot["lifetime_s_count"] == 3.0
        assert snapshot["lifetime_s_sum"] == 60.0
        assert snapshot["lifetime_s_min"] == 10.0
        assert snapshot["lifetime_s_max"] == 30.0
        assert snapshot["lifetime_s_avg"] == 20.0

    def test_empty_histogram_snapshot(self):
        registry = MetricsRegistry()
        registry.histogram("unused")
        assert registry.snapshot() == {"unused_count": 0.0}

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")

    def test_snapshot_is_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zeta").inc()
        registry.counter("alpha").inc()
        assert list(registry.snapshot()) == ["alpha", "zeta"]


def _events():
    return [
        ObsEvent("cluster.placement", 1.0, "local", {"job": 5, "node": 2}),
        ObsEvent("reconfig.reservation", 2.0, "reserve",
                 {"node": 3, "reservation": 0, "needed_mb": 100.0,
                  "mode": "first-fit", "job": None}),
        ObsEvent("cluster.migration", 4.0, "migrate",
                 {"job": 5, "source": 2, "dest": 3, "image_mb": 100.0,
                  "delay_s": 2.0, "dedicated": True}),
        ObsEvent("reconfig.reservation", 9.0, "release",
                 {"node": 3, "reservation": 0, "needed_mb": 100.0,
                  "mode": "first-fit", "job": None}),
        ObsEvent("reconfig.reservation", 10.0, "reserve",
                 {"node": 1, "reservation": 1, "needed_mb": 50.0,
                  "mode": "first-fit", "job": None}),
    ]


class TestChromeTrace:
    def test_reservation_span_pairs_reserve_and_release(self):
        document = chrome_trace(_events(), run_label="unit")
        spans = [e for e in document["traceEvents"]
                 if e.get("ph") == "X" and "reservation r0" in e["name"]]
        assert len(spans) == 1
        assert spans[0]["ts"] == pytest.approx(2.0e6)
        assert spans[0]["dur"] == pytest.approx(7.0e6)
        assert spans[0]["tid"] == 3

    def test_open_reservation_closed_at_end(self):
        spans = [e for e in chrome_trace(_events())["traceEvents"]
                 if e.get("ph") == "X" and "reservation r1" in e["name"]]
        assert len(spans) == 1
        assert "(open)" in spans[0]["name"]
        assert spans[0]["dur"] == pytest.approx(0.0)  # end_time == 10.0

    def test_migration_renders_three_events(self):
        events = [e for e in chrome_trace(_events())["traceEvents"]
                  if "migrate" in e["name"]]
        phases = sorted(e["ph"] for e in events)
        assert phases == ["X", "i", "i"]
        span = next(e for e in events if e["ph"] == "X")
        assert span["pid"] == 2  # network track
        out = next(e for e in events if e["name"].startswith("migrate-out"))
        arrival = next(e for e in events
                       if e["name"].startswith("migrate-in"))
        assert out["tid"] == 2 and arrival["tid"] == 3
        assert arrival["ts"] - out["ts"] == pytest.approx(2.0e6)

    def test_node_tracks_are_named(self):
        document = chrome_trace(_events(), run_label="unit")
        thread_names = {e["tid"]: e["args"]["name"]
                        for e in document["traceEvents"]
                        if e.get("ph") == "M"
                        and e["name"] == "thread_name" and e["pid"] == 1}
        assert thread_names[2] == "node 2"
        assert thread_names[3] == "node 3"

    def test_events_sorted_by_timestamp(self):
        stamps = [e["ts"] for e in chrome_trace(_events())["traceEvents"]
                  if "ts" in e]
        assert stamps == sorted(stamps)

    def test_write_to_path(self, tmp_path):
        path = str(tmp_path / "trace.json")
        write_chrome_trace(_events(), path, run_label="unit")
        with open(path) as stream:
            document = json.load(stream)
        assert document["otherData"]["run"] == "unit"


class TestJsonl:
    def test_round_trip(self):
        buffer = io.StringIO()
        count = write_jsonl(_events(), buffer)
        lines = buffer.getvalue().splitlines()
        assert count == len(lines) == len(_events())
        first = json.loads(lines[0])
        assert first["channel"] == "cluster.placement"
        assert first["t"] == 1.0

    def test_empty_stream(self):
        buffer = io.StringIO()
        assert write_jsonl([], buffer) == 0
        assert buffer.getvalue() == ""
