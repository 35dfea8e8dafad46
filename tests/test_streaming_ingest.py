"""Streaming job ingest and the live control plane.

End-to-end contract: jobs POSTed to a live run's ``/submit`` endpoint
are admitted at slice boundaries and the final summary is *identical*
(modulo ``obs.`` telemetry extras) to running a trace that contained
those jobs from the start — streamed arrival is an interface change,
not a semantics change.  Plus: ``/checkpoint`` and ``/fork`` against
the live engine, stdin ingest through the runner CLI, and the
SIGTERM/stream-log shutdown regression (a killed service run must not
leave a truncated JSONL tail).
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments.runner import run_trace
from repro.experiments.scenario import (SCENARIO_CLUSTER,
                                        build_blocking_trace,
                                        run_blocking_scenario)
from repro.obs.live import validate_job_spec
from repro.obs.session import ObsSession
from repro.sim import checkpoint
from repro.sim.checkpoint import restore_bytes, resume
from repro.workload.trace import Trace, TraceJob

from helpers import tiny_cluster

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI_ENV = dict(os.environ,
               PYTHONPATH=os.path.join(REPO_ROOT, "src"))

#: Streamed batch: submitted over HTTP mid-run with an explicit future
#: submit time, so admission instants are pinned regardless of the
#: wall-clock interleaving of the POST with engine slices.
STREAM_AT = 900.0
STREAM_BATCH = [
    {"program": "streamed", "lifetime_s": 40.0 + 5.0 * k,
     "peak_demand_mb": 24.0, "home_node": k % 8,
     "submit_time": STREAM_AT + 0.25 * k, "io_stall_per_cpu_s": 0.5}
    for k in range(4)
]


def world_summary(summary) -> dict:
    """Canonical summary minus ``obs.`` extras (telemetry carries
    wall-clock-dependent fields like publish counts)."""
    data = dataclasses.asdict(summary)
    data["extra"] = {key: value for key, value in data["extra"].items()
                     if not key.startswith("obs.")}
    return json.loads(json.dumps(data, sort_keys=True))


def post(url, payload, as_bytes=False):
    data = payload if isinstance(payload, bytes) else \
        json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=data, method="POST")
    with urllib.request.urlopen(request, timeout=30) as resp:
        body = resp.read()
        return resp.status, body if as_bytes else json.loads(body)


# ----------------------------------------------------------------------
# end to end: streamed == batched
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def streamed_run():
    """A paced scenario run that receives STREAM_BATCH over HTTP while
    executing; yields (obs, result)."""
    obs = ObsSession(record_events=False, window_s=100.0, serve=0,
                     pace=600.0, run_label="ingest-test")
    cfg = SCENARIO_CLUSTER.replace(num_nodes=8)
    box = {}

    def run():
        box["result"] = run_blocking_scenario(
            "v-reconfiguration", seed=0, config=cfg, obs=obs)

    thread = threading.Thread(target=run)
    thread.start()
    deadline = time.time() + 10.0
    while (obs.live is None or obs.live.port is None) \
            and time.time() < deadline:
        time.sleep(0.01)
    status, reply = post(f"{obs.live.url}/submit", STREAM_BATCH)
    assert status == 202 and reply["accepted"] == len(STREAM_BATCH)
    thread.join(timeout=120)
    assert not thread.is_alive(), "paced streamed run did not finish"
    yield obs, box["result"]
    obs.close()


def test_streamed_jobs_run_to_completion(streamed_run):
    _, result = streamed_run
    streamed = [job for job in result.cluster.finished_jobs
                if job.program == "streamed"]
    assert len(streamed) == len(STREAM_BATCH)
    assert all(job.submit_time >= STREAM_AT for job in streamed)


def test_snapshot_reports_ingest_stats(streamed_run):
    obs, _ = streamed_run
    with urllib.request.urlopen(f"{obs.live.url}/snapshot.json",
                                timeout=5) as resp:
        snapshot = json.loads(resp.read())
    assert snapshot["ingest"]["received"] == len(STREAM_BATCH)
    assert snapshot["ingest"]["admitted"] == len(STREAM_BATCH)
    assert snapshot["ingest"]["rejected"] == 0
    assert snapshot["ingest"]["queued"] == 0


def test_ingest_counters_reach_summary_extra(streamed_run):
    _, result = streamed_run
    assert result.summary.extra["obs.live_jobs_received"] == \
        float(len(STREAM_BATCH))
    assert result.summary.extra["obs.live_jobs_admitted"] == \
        float(len(STREAM_BATCH))


def test_streamed_summary_matches_batch_trace(streamed_run):
    """The semantics pin: the streamed run's world summary equals a
    plain batch run whose trace contained the same jobs all along."""
    _, streamed_result = streamed_run
    base = build_blocking_trace(num_nodes=8, seed=0)
    extra = [TraceJob(job_index=base.num_jobs + k,
                      submit_time=spec["submit_time"],
                      program=spec["program"],
                      lifetime_s=spec["lifetime_s"],
                      home_node=spec["home_node"],
                      peak_demand_mb=spec["peak_demand_mb"],
                      io_stall_per_cpu_s=spec["io_stall_per_cpu_s"])
             for k, spec in enumerate(STREAM_BATCH)]
    batch_trace = Trace(name=base.name, group=base.group,
                        trace_index=base.trace_index,
                        duration_s=max(base.duration_s,
                                       STREAM_AT + 2.0),
                        jobs=base.jobs + extra)
    batched = run_trace(batch_trace, "v-reconfiguration",
                        SCENARIO_CLUSTER.replace(num_nodes=8))
    # (Event counts are NOT compared: the sliced live drive processes
    # daemon ticks up to the last slice boundary past the makespan,
    # which the open-ended batch run stops before.  The summary is
    # immune — its collector averages clip at the makespan.)
    assert world_summary(streamed_result.summary) == \
        world_summary(batched.summary)


# ----------------------------------------------------------------------
# live control plane: /checkpoint and /fork against a paced run
# ----------------------------------------------------------------------
def test_live_checkpoint_and_fork(tmp_path):
    obs = ObsSession(record_events=False, window_s=100.0, serve=0,
                     pace=400.0, run_label="control-test")
    cfg = SCENARIO_CLUSTER.replace(num_nodes=8)
    box = {}

    def run():
        box["result"] = run_blocking_scenario(
            "v-reconfiguration", seed=0, config=cfg, obs=obs)

    thread = threading.Thread(target=run)
    thread.start()
    try:
        while obs.live is None or obs.live.port is None:
            time.sleep(0.01)
        url = obs.live.url
        time.sleep(2 * 0.25)

        # Bytes variant: the response body is a restorable snapshot.
        status, data = post(f"{url}/checkpoint", b"", as_bytes=True)
        assert status == 200
        restored = restore_bytes(data, advance_counters=False)
        live_now = restored.cluster.sim.now
        assert 0.0 < live_now
        side = resume(restored)
        assert side.summary.num_jobs == len(restored.jobs)

        # A client-named path is refused: the server writes no files.
        target = tmp_path / "live.ckpt"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(f"{url}/checkpoint", {"path": str(target)})
        assert excinfo.value.code == 400
        assert not target.exists()

        # Fork: an independent what-if universe, live run unperturbed.
        status, reply = post(f"{url}/fork",
                             {"policy": "g-loadsharing"})
        assert status == 200
        assert reply["policy"] == "G-Loadsharing"
        assert reply["forked_from"] == "V-Reconfiguration"
        assert reply["summary"]["average_slowdown"] > 0
    finally:
        thread.join(timeout=120)
        obs.close()
    assert not thread.is_alive()
    # The live run still finished normally after all that surgery.
    assert box["result"].summary.num_jobs > 0


def test_one_fork_replay_at_a_time(monkeypatch):
    """While one ``/fork`` replay is held, ``/submit`` and ``/metrics``
    still answer and a second ``/fork`` gets 503 with Retry-After."""
    entered, release = threading.Event(), threading.Event()

    def held_resume(world):
        entered.set()
        assert release.wait(30)
        return resume(world)

    monkeypatch.setattr(checkpoint, "resume", held_resume)
    obs = ObsSession(record_events=False, window_s=100.0, serve=0,
                     pace=400.0, run_label="fork-slot-test")
    cfg = SCENARIO_CLUSTER.replace(num_nodes=8)
    box = {}

    def run():
        box["result"] = run_blocking_scenario(
            "v-reconfiguration", seed=0, config=cfg, obs=obs)

    def first_fork():
        box["first"] = post(f"{obs.live.url}/fork",
                            {"policy": "g-loadsharing"})

    thread = threading.Thread(target=run)
    forker = threading.Thread(target=first_fork)
    thread.start()
    deadline = time.time() + 10.0
    while (obs.live is None or obs.live.port is None) \
            and time.time() < deadline:
        time.sleep(0.01)
    obs.live.add_ingest_hold()  # the run stays live until released
    time.sleep(2 * 0.25)
    forker.start()
    try:
        assert entered.wait(30)
        url = obs.live.url
        status, reply = post(f"{url}/submit", STREAM_BATCH[:1])
        assert status == 202 and reply["accepted"] == 1
        with urllib.request.urlopen(f"{url}/metrics", timeout=5) as resp:
            assert resp.status == 200
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(f"{url}/fork", {"policy": "g-loadsharing"})
        assert excinfo.value.code == 503
        assert excinfo.value.headers["Retry-After"] == "1"
        assert b"already running" in excinfo.value.read()
    finally:
        release.set()
        forker.join(timeout=60)
        obs.live.release_ingest_hold()
        thread.join(timeout=120)
        obs.close()
    assert not forker.is_alive() and not thread.is_alive()
    assert box["first"][0] == 200
    assert box["first"][1]["policy"] == "G-Loadsharing"
    assert box["result"].summary.num_jobs > 0


# ----------------------------------------------------------------------
# validation and error paths
# ----------------------------------------------------------------------
class TestSpecValidation:
    def test_valid_minimal_spec(self):
        spec = {"program": "x", "lifetime_s": 1.0,
                "peak_demand_mb": 10.0, "home_node": 0}
        assert validate_job_spec(spec, num_nodes=4) is None

    @pytest.mark.parametrize("mutation,fragment", [
        ({"lifetime_s": 0}, "positive"),
        ({"lifetime_s": "long"}, "positive"),
        ({"peak_demand_mb": -1}, "non-negative"),
        ({"home_node": 4}, "home_node"),
        ({"home_node": True}, "home_node"),
        ({"typo_key": 1}, "unknown"),
        ({"memory_phases": []}, "memory_phases"),
        ({"memory_phases": [[0.0]]}, "memory_phases"),
        ({"submit_time": -5.0}, "submit_time"),
    ])
    def test_invalid_specs(self, mutation, fragment):
        spec = {"program": "x", "lifetime_s": 1.0,
                "peak_demand_mb": 10.0, "home_node": 0}
        spec.update(mutation)
        assert fragment in validate_job_spec(spec, num_nodes=4)

    def test_missing_key_and_non_dict(self):
        assert "missing" in validate_job_spec(
            {"program": "x"}, num_nodes=4)
        assert "object" in validate_job_spec([1, 2], num_nodes=4)


class TestPostErrors:
    @pytest.fixture()
    def unbound_server(self):
        """A served session attached to a bare cluster — no bind_run,
        so the write endpoints must refuse."""
        obs = ObsSession(record_events=False, serve=0)
        obs.attach(tiny_cluster())
        yield obs
        obs.close()

    def test_submit_without_world_is_503(self, unbound_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(f"{unbound_server.live.url}/submit",
                 [{"program": "x", "lifetime_s": 1.0,
                   "peak_demand_mb": 1.0, "home_node": 0}])
        assert excinfo.value.code == 503
        assert b"bind_run" in excinfo.value.read()

    def test_checkpoint_without_world_is_503(self, unbound_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(f"{unbound_server.live.url}/checkpoint", b"")
        assert excinfo.value.code == 503

    def test_unknown_post_path_is_404(self, unbound_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(f"{unbound_server.live.url}/nope", b"")
        assert excinfo.value.code == 404
        assert b"/submit" in excinfo.value.read()

    def test_invalid_batch_rejected_wholesale(self):
        obs = ObsSession(record_events=False, serve=0)
        cluster = tiny_cluster()
        obs.attach(cluster, policy=object())
        try:
            obs.bind_run(collector=None, jobs=[], trace_name="t")
            good = {"program": "x", "lifetime_s": 1.0,
                    "peak_demand_mb": 1.0, "home_node": 0}
            bad = {"program": "x", "lifetime_s": -1.0,
                   "peak_demand_mb": 1.0, "home_node": 0}
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(f"{obs.live.url}/submit", [good, bad])
            assert excinfo.value.code == 400
            details = json.loads(excinfo.value.read())["details"]
            assert any("job[1]" in line for line in details)
            assert obs.live.jobs_rejected == 2
            assert not obs.live._ingest_queue
        finally:
            obs.close()

    def test_submit_body_parse_errors(self):
        obs = ObsSession(record_events=False, serve=0)
        obs.attach(tiny_cluster(), policy=object())
        try:
            obs.bind_run(collector=None, jobs=[], trace_name="t")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(f"{obs.live.url}/submit", b"")
            assert excinfo.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(f"{obs.live.url}/submit", b"{not json")
            assert excinfo.value.code == 400
        finally:
            obs.close()

    def test_fork_requires_policy(self):
        obs = ObsSession(record_events=False, serve=0)
        obs.attach(tiny_cluster(), policy=object())
        try:
            obs.bind_run(collector=None, jobs=[], trace_name="t")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(f"{obs.live.url}/fork", {})
            assert excinfo.value.code == 400
        finally:
            obs.close()


def test_jsonl_body_accepted():
    """/submit accepts JSONL (one spec per line) as well as JSON."""
    obs = ObsSession(record_events=False, serve=0)
    obs.attach(tiny_cluster(), policy=object())
    try:
        obs.bind_run(collector=None, jobs=[], trace_name="t")
        lines = b"\n".join(json.dumps(
            {"program": "jl", "lifetime_s": 1.0,
             "peak_demand_mb": 1.0, "home_node": 0}).encode()
            for _ in range(3))
        status, reply = post(f"{obs.live.url}/submit", lines)
        assert status == 202 and reply["accepted"] == 3
        assert len(obs.live._ingest_queue) == 3
    finally:
        obs.close()


# ----------------------------------------------------------------------
# stdin ingest through the runner CLI
# ----------------------------------------------------------------------
def _cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner"] + args,
        env=CLI_ENV, cwd=REPO_ROOT, **kwargs)


def test_cli_submit_stdin_admits_jobs(tmp_path):
    out = tmp_path / "stdin.json"
    specs = "\n".join(json.dumps(
        {"program": "stdin-job", "lifetime_s": 30.0,
         "peak_demand_mb": 16.0, "home_node": k}) for k in range(2))
    proc = _cli(["--trace", "3", "--scale", "0.05", "--serve", "0",
                 "--submit-stdin", "--export-json", str(out)],
                input=specs + "\n", text=True, capture_output=True,
                timeout=300)
    assert proc.returncode == 0, proc.stderr
    baseline = tmp_path / "base.json"
    base = _cli(["--trace", "3", "--scale", "0.05",
                 "--export-json", str(baseline)],
                text=True, capture_output=True, timeout=300)
    assert base.returncode == 0, base.stderr
    with open(out) as stream:
        with_stdin = json.load(stream)
    with open(baseline) as stream:
        without = json.load(stream)
    assert with_stdin[0]["num_jobs"] == without[0]["num_jobs"] + 2


# ----------------------------------------------------------------------
# SIGTERM: the streaming log must close at a line boundary
# ----------------------------------------------------------------------
def test_sigterm_leaves_parseable_stream_log(tmp_path):
    log = tmp_path / "events.jsonl"
    # Paced far below real time so the run is mid-flight when killed.
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.runner",
         "--trace", "3", "--scale", "0.1", "--serve", "0",
         "--pace", "30", "--stream-log", str(log)],
        env=CLI_ENV, cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.time() + 60.0
        while time.time() < deadline:
            if log.exists() and log.stat().st_size > 2000:
                break
            time.sleep(0.1)
        else:
            pytest.fail("stream log never grew; run did not start")
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 143  # SystemExit via handler
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = log.read_text().splitlines()
    assert lines, "stream log is empty"
    for line in lines:  # every line parses — no truncated tail
        json.loads(line)
