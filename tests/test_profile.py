"""Engine self-profiler: exclusive timers, coverage, determinism, and
the Perfetto self-profile track."""

import dataclasses
import json
import time

import pytest

from repro.experiments.scenario import run_blocking_scenario
from repro.obs.profile import OTHER_PHASE, EngineProfiler
from repro.obs.session import ObsSession
from repro.obs.trace_export import PROFILE_PID, chrome_trace

from helpers import job, tiny_cluster


class TestTimerCore:
    def test_exclusive_times_subtract_children(self):
        profiler = EngineProfiler()
        profiler._enter("parent")
        time.sleep(0.01)
        profiler._enter("child")
        time.sleep(0.01)
        profiler._exit()
        profiler._exit()
        # The child's wall time is charged to the child only.
        assert profiler.exclusive_s["child"] >= 0.008
        assert profiler.exclusive_s["parent"] < (
            profiler.exclusive_s["child"] + profiler.exclusive_s["parent"])
        assert profiler.calls == {"parent": 1, "child": 1}

    def test_wrap_method_missing_attr(self):
        profiler = EngineProfiler()
        assert profiler.wrap_method(object(), "nope", "x") is False
        assert profiler._wrapped == []

    def test_wrap_and_detach_restore_class_method(self):
        cluster = tiny_cluster()
        node = cluster.nodes[0]
        original = node._recompute
        profiler = EngineProfiler().attach(cluster)
        assert node._recompute is not original
        assert node._recompute.__wrapped__ == original
        with profiler.unwrapped():
            # The instance attribute is gone; the class method shows
            # again.
            assert "_recompute" not in vars(node)
        assert node._recompute is not original

    def test_coverage_zero_before_any_run(self):
        assert EngineProfiler().coverage() == 0.0


class TestProfiledRun:
    @pytest.fixture(scope="class")
    def profiled(self):
        obs = ObsSession(record_events=True, profile=True,
                         run_label="profile-test")
        result = run_blocking_scenario("v-reconfiguration", obs=obs)
        return obs, result

    def test_phase_timers_tile_engine_wall(self, profiled):
        obs, _ = profiled
        report = obs.profiler.report()
        assert report["engine_wall_s"] > 0
        # Exclusive timers tile the inclusive span (acceptance: >= 90%).
        assert report["coverage"] >= 0.9
        assert report["coverage"] <= 1.05  # no double counting

    def test_expected_phases_fired(self, profiled):
        obs, _ = profiled
        phases = obs.profiler.report()["phases_s"]
        for phase in ("recompute", "placement", "reconfiguration",
                      "loadinfo", OTHER_PHASE):
            assert phase in phases, phases
            assert phases[phase] >= 0.0
        assert obs.profiler.calls["recompute"] > 0
        # Exchange rounds close and reach the orders inside other
        # phases.
        assert obs.profiler.calls["loadinfo"] > 0

    def test_aggregates_reach_summary_extra(self, profiled):
        _, result = profiled
        extra = result.summary.extra
        assert extra["obs.profile_coverage"] >= 0.9
        assert extra["obs.profile_engine_wall_s"] > 0
        assert extra["obs.profile_recompute_calls"] > 0

    def test_profiling_is_deterministic(self, profiled):
        _, profiled_result = profiled
        plain = run_blocking_scenario("v-reconfiguration")
        stripped = {
            key: value
            for key, value in profiled_result.summary.extra.items()
            if not key.startswith("obs.")}
        assert dataclasses.replace(
            profiled_result.summary,
            extra=stripped) == dataclasses.replace(
            plain.summary, extra={
                key: value
                for key, value in plain.summary.extra.items()
                if not key.startswith("obs.")})

    def test_profile_track_in_chrome_trace(self, profiled):
        obs, _ = profiled
        trace = chrome_trace(obs.events, run_label="profile-test",
                             profile=obs.profiler)
        profile_events = [event for event in trace["traceEvents"]
                          if event.get("pid") == PROFILE_PID]
        spans = [event for event in profile_events
                 if event.get("ph") == "X"]
        names = {span["name"] for span in spans}
        assert "engine loop" in names
        assert "recompute" in names
        # Phase spans are laid end-to-end and stay inside the loop span.
        loop = next(span for span in spans
                    if span["name"] == "engine loop")
        for span in spans:
            if span["name"] != "engine loop":
                assert span["ts"] >= loop["ts"]
                assert (span["ts"] + span["dur"]
                        <= loop["ts"] + loop["dur"] + 1)
        trace_json = json.dumps(trace)
        assert "self-profile track" in trace_json

    def test_trace_without_profiler_has_no_profile_track(self, profiled):
        obs, _ = profiled
        trace = chrome_trace(obs.events, run_label="profile-test")
        assert not [event for event in trace["traceEvents"]
                    if event.get("pid") == PROFILE_PID]
