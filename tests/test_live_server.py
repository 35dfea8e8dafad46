"""Live monitoring HTTP server: endpoint payloads, health statuses,
paced driving, and agreement between ``/snapshot.json`` and the run
summary."""

import json
import select
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments.scenario import run_blocking_scenario
from repro.obs import live
from repro.obs.live import (POOL_WORKERS, PUBLISH_WALL_S, SLICE_WALL_S,
                            LiveMonitor)
from repro.obs.session import ObsSession

from helpers import job, tiny_cluster


def fetch(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers, resp.read()


@pytest.fixture(scope="module")
def served_run():
    """One scenario run served on an ephemeral port; the server keeps
    answering after finalize (until ``close``), so tests probe it
    post-run without racing the engine."""
    obs = ObsSession(record_events=False, window_s=100.0, serve=0,
                     run_label="live-test")
    result = run_blocking_scenario("v-reconfiguration", obs=obs)
    yield obs, result
    obs.close()


class TestEndpoints:
    def test_metrics_exposition(self, served_run):
        obs, _ = served_run
        status, headers, body = fetch(f"{obs.live.url}/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        assert text.endswith("\n")
        assert "# TYPE repro_blocking_detections counter" in text
        assert 'run="live-test"' in text

    def test_healthz(self, served_run):
        obs, _ = served_run
        status, headers, body = fetch(f"{obs.live.url}/healthz")
        assert status == 200  # ok or degraded both answer 200
        assert headers["Content-Type"].startswith("application/json")
        verdict = json.loads(body)
        assert verdict["status"] in ("ok", "degraded")
        assert verdict["windows_evaluated"] == obs.health.windows_evaluated

    def test_snapshot_agrees_with_summary(self, served_run):
        obs, result = served_run
        status, _, body = fetch(f"{obs.live.url}/snapshot.json")
        assert status == 200
        snapshot = json.loads(body)
        assert snapshot["totals"]["jobs_finished"] == result.summary.num_jobs
        assert snapshot["totals"]["migrations"] == result.summary.migrations
        assert snapshot["t"] == result.cluster.sim.now

    def test_dashboard_html(self, served_run):
        obs, _ = served_run
        status, headers, body = fetch(f"{obs.live.url}/dashboard")
        assert status == 200
        assert headers["Content-Type"].startswith("text/html")
        html = body.decode()
        assert "<svg" in html
        assert "live-test" in html

    def test_root_serves_dashboard(self, served_run):
        obs, _ = served_run
        _, headers, _ = fetch(f"{obs.live.url}/")
        assert headers["Content-Type"].startswith("text/html")

    def test_unknown_path_404_lists_endpoints(self, served_run):
        obs, _ = served_run
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(f"{obs.live.url}/nope")
        assert excinfo.value.code == 404
        assert b"/snapshot.json" in excinfo.value.read()

    def test_payloads_are_uncacheable(self, served_run):
        obs, _ = served_run
        _, headers, _ = fetch(f"{obs.live.url}/metrics")
        assert headers["Cache-Control"] == "no-store"

    def test_requests_are_counted(self, served_run):
        obs, _ = served_run
        before = obs.live.requests_served
        fetch(f"{obs.live.url}/healthz")
        assert obs.live.requests_served == before + 1

    @pytest.mark.parametrize("method", ["GET", "POST"])
    def test_unknown_paths_are_counted_once(self, served_run, method):
        obs, _ = served_run
        before = obs.live.requests_served
        request = urllib.request.Request(
            f"{obs.live.url}/nope", method=method,
            data=b"" if method == "POST" else None)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 404
        assert obs.live.requests_served == before + 1

    def test_count_moves_before_the_reply_is_sent(self, served_run,
                                                  monkeypatch):
        """Every server socket write stalls after sending, so a count
        taken after the body would still be missing when the client
        reads the reply."""
        obs, _ = served_run
        send = socket.socket.sendall

        def stalled_sendall(sock, data, *flags):
            sent = send(sock, data, *flags)
            if threading.current_thread().name.startswith(
                    "repro-live-worker"):
                time.sleep(0.2)
            return sent

        monkeypatch.setattr(socket.socket, "sendall", stalled_sendall)
        before = obs.live.requests_served
        fetch(f"{obs.live.url}/healthz")
        assert obs.live.requests_served == before + 1

    def test_concurrent_requests_are_all_counted(self, served_run):
        obs, _ = served_run
        before = obs.live.requests_served
        clients, each = 8, 10

        def scrape():
            for _ in range(each):
                fetch(f"{obs.live.url}/healthz")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=scrape)
                       for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert obs.live.requests_served == before + clients * each

    def test_live_aggregates_reach_summary(self, served_run):
        obs, result = served_run
        extra = result.summary.extra
        assert extra["obs.live_publishes"] >= 1
        assert "obs.live_requests" in extra


class TestLiveMonitorUnit:
    def test_port_file(self, tmp_path):
        port_file = tmp_path / "port.txt"
        obs = ObsSession(record_events=False, serve=0,
                         serve_port_file=str(port_file))
        cluster = tiny_cluster()
        obs.attach(cluster)
        try:
            assert int(port_file.read_text().strip()) == obs.live.port
        finally:
            obs.close()

    def test_stopped_server_refuses_connections(self):
        obs = ObsSession(record_events=False, serve=0)
        cluster = tiny_cluster()
        obs.attach(cluster)
        url = obs.live.url
        fetch(f"{url}/healthz")  # answers before any engine slice
        obs.close()
        with pytest.raises(urllib.error.URLError):
            fetch(f"{url}/healthz")

    def test_critical_health_returns_503(self):
        obs = ObsSession(record_events=False, window_s=5.0, serve=0,
                         health_rules=["critical: pending_jobs >= 0"])
        cluster = tiny_cluster()
        obs.attach(cluster)
        try:
            cluster.nodes[0].add_job(job(work=20.0, demand=10.0))
            obs.run_engine(cluster.sim)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(f"{obs.live.url}/healthz")
            assert excinfo.value.code == 503
            assert json.loads(excinfo.value.read())["status"] == "critical"
        finally:
            obs.close()


def served_session():
    """A serving session on a bare cluster (no engine running)."""
    obs = ObsSession(record_events=False, serve=0)
    obs.attach(tiny_cluster())
    return obs


def connect(obs):
    return socket.create_connection(("127.0.0.1", obs.live.port),
                                    timeout=10)


def read_reply(sock) -> bytes:
    """Read until the server closes the connection."""
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def pool_workers():
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("repro-live-worker")]


class TestWorkerPool:
    def test_connections_share_a_fixed_pool_of_threads(self):
        """32 open connections at once are all answered, by the accept
        thread plus ``POOL_WORKERS`` workers started on the first."""
        others = set(pool_workers())  # other tests' servers
        baseline = threading.active_count()
        obs = served_session()
        sockets = []
        try:
            assert set(pool_workers()) == others  # none before a client
            peak = threading.active_count()
            for _ in range(32):
                sockets.append(connect(obs))
                peak = max(peak, threading.active_count())
            time.sleep(0.2)  # a thread per connection would start now
            peak = max(peak, threading.active_count())
            for sock in sockets:
                sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            replies = []
            for sock in sockets:
                replies.append(read_reply(sock))
                peak = max(peak, threading.active_count())
            assert all(reply.startswith(b"HTTP/1.0 200") for reply in replies)
            assert peak <= baseline + POOL_WORKERS + 1
        finally:
            for sock in sockets:
                sock.close()
            obs.close()

    def test_full_queue_answers_503(self, monkeypatch):
        """Idle clients hold every worker and queue slot; the accept
        thread refuses each further connection itself."""
        monkeypatch.setattr(live, "QUEUE_BOUND", 1)
        obs = served_session()
        extra = 3
        sockets = [connect(obs)
                   for _ in range(POOL_WORKERS + live.QUEUE_BOUND + extra)]
        try:
            refused = []
            deadline = time.monotonic() + 10.0
            while len(refused) < extra and time.monotonic() < deadline:
                ready, _, _ = select.select(
                    [sock for sock in sockets if sock not in refused],
                    [], [], 0.1)
                refused.extend(ready)
            assert len(refused) >= extra
            for sock in refused:
                reply = read_reply(sock)
                assert reply.startswith(b"HTTP/1.0 503")
                assert b"\r\nRetry-After: 1\r\n" in reply
            assert obs.live.requests_served == len(refused)
            for sock in sockets:
                sock.close()
            # Closed idle clients free their workers.
            status, _, _ = fetch(f"{obs.live.url}/healthz")
            assert status == 200
        finally:
            for sock in sockets:
                sock.close()
            obs.close()

    def test_idle_connection_is_dropped_after_read_timeout(
            self, monkeypatch):
        """A client that connects and sends nothing holds its worker
        only for the read timeout; the worker then serves the request
        queued behind it."""
        monkeypatch.setattr(live, "READ_TIMEOUT_S", 0.3)
        obs = served_session()
        idle = [connect(obs) for _ in range(POOL_WORKERS)]
        try:
            status, _, _ = fetch(f"{obs.live.url}/healthz")
            assert status == 200
            for sock in idle:
                assert read_reply(sock) == b""  # closed without a reply
        finally:
            for sock in idle:
                sock.close()
            obs.close()

    def test_stop_leaves_no_pool_worker(self):
        others = set(pool_workers())  # other tests' servers
        obs = served_session()
        fetch(f"{obs.live.url}/healthz")
        workers = set(pool_workers()) - others
        assert len(workers) == POOL_WORKERS
        obs.close()
        assert not any(worker.is_alive() for worker in workers)


class TestPacedDrive:
    def test_paced_run_reaches_real_time(self):
        # 20 sim-seconds of work at 40 sim-s per wall-s: roughly half a
        # second of wall time, a couple of publish slices.
        obs = ObsSession(record_events=False, window_s=5.0, serve=0,
                         pace=40.0)
        cluster = tiny_cluster()
        obs.attach(cluster)
        try:
            cluster.nodes[0].add_job(job(work=20.0, demand=10.0))
            polled = []

            def poll():
                try:
                    _, _, body = fetch(f"{obs.live.url}/snapshot.json")
                    polled.append(json.loads(body))
                except urllib.error.URLError:
                    pass

            timer = threading.Timer(PUBLISH_WALL_S * 1.2, poll)
            timer.start()
            obs.run_engine(cluster.sim)
            timer.join()
            assert cluster.sim.now >= 20.0
            assert obs.live.publishes >= 2
            # Mid-run poll observed a consistent, partially advanced run.
            if polled:
                assert 0.0 <= polled[0]["t"] <= cluster.sim.now
            snap = obs.window.snapshot(cluster.sim.now)
            assert snap["totals"]["jobs_finished"] == 1.0
            assert "sim_lag_s" in snap
        finally:
            obs.close()

    def test_paced_slices_admit_more_often_than_they_publish(self):
        # 20 sim-seconds at 40 sim-s per wall-s in slices of
        # 40 * SLICE_WALL_S sim-seconds; payloads are rendered at most
        # once per PUBLISH_WALL_S, plus the initial and final ones.
        obs = ObsSession(record_events=False, window_s=5.0, serve=0,
                         pace=40.0)
        cluster = tiny_cluster()
        obs.attach(cluster)
        sim = cluster.sim
        slices = []
        run = sim.run

        def counted(until=None, max_events=None):
            slices.append(until - sim.now)
            return run(until=until, max_events=max_events)

        sim.run = counted
        try:
            cluster.nodes[0].add_job(job(work=20.0, demand=10.0))
            start = time.perf_counter()
            obs.run_engine(sim)
            wall = time.perf_counter() - start
            assert sim.now >= 20.0
            assert len(slices) >= 20
            assert all(width == pytest.approx(40.0 * SLICE_WALL_S)
                       for width in slices)
            assert obs.live.publishes <= 2 + wall / PUBLISH_WALL_S
        finally:
            obs.close()

    def test_waiting_for_ingest_is_not_lag(self):
        # The run goes dry under an ingest hold, idles ~0.4 s, then a
        # job arrives: the pacer is not behind schedule once it runs it.
        obs = ObsSession(record_events=False, window_s=5.0, serve=0,
                         pace=40.0)
        cluster = tiny_cluster()
        obs.attach(cluster)
        arrivals = []

        def admit(sim):
            if not arrivals:
                return 0
            arrivals.pop()
            cluster.nodes[0].add_job(job(work=4.0, demand=10.0))
            return 1

        obs.live._admit_ingest = admit
        obs.live.add_ingest_hold()
        timers = [threading.Timer(0.4, arrivals.append, (True,)),
                  threading.Timer(0.8, obs.live.release_ingest_hold)]
        try:
            cluster.nodes[0].add_job(job(work=4.0, demand=10.0))
            for timer in timers:
                timer.start()
            obs.run_engine(cluster.sim)
            for timer in timers:
                timer.join()
            assert cluster.sim.now >= 8.0
            assert obs.live.sim_lag_max_s < 0.2
        finally:
            obs.close()

    def test_unpaced_drive_uses_window_slices(self):
        obs = ObsSession(record_events=False, window_s=5.0, serve=0)
        cluster = tiny_cluster()
        obs.attach(cluster)
        try:
            cluster.nodes[0].add_job(job(work=20.0, demand=10.0))
            obs.run_engine(cluster.sim)
            # One publish per 5 s window slice plus the initial and
            # final ones.
            assert obs.live.publishes >= 4
            assert obs.live.sim_lag_max_s == 0.0
        finally:
            obs.close()

    def test_pace_requires_positive_value(self):
        obs = ObsSession(record_events=False, serve=0, pace=-1.0)
        with pytest.raises(ValueError, match="pace"):
            obs.attach(tiny_cluster())


def bound_session():
    """A serving session whose world takes ``/submit`` (no engine)."""
    obs = ObsSession(record_events=False, serve=0)
    obs.attach(tiny_cluster(), policy=object())
    obs.bind_run(collector=None, jobs=[], trace_name="t")
    return obs


SPEC = {"program": "x", "lifetime_s": 1.0, "peak_demand_mb": 1.0,
        "home_node": 0}


def submit_request(specs) -> bytes:
    body = json.dumps(specs).encode()
    return (b"POST /submit HTTP/1.0\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body))


def exchange(obs, *parts, pause=0.0) -> bytes:
    """Send ``parts`` one after another, ``pause`` seconds apart, and
    read the reply until the server closes."""
    with connect(obs) as sock:
        for part in parts:
            sock.sendall(part)
            time.sleep(pause)
        return read_reply(sock)


class TestRequestLimits:
    @pytest.mark.parametrize("request_bytes,status", [
        (b"GARBAGE\r\n\r\n", 400),
        (b"GET /healthz\r\n\r\n", 400),
        (b"GET /healthz HTTP/2.0\r\n\r\n", 400),
        (b"GET healthz HTTP/1.0\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.0\r\nno colon here\r\n\r\n", 400),
        (b"POST /submit HTTP/1.0\r\nContent-Length: abc\r\n\r\n", 400),
        (b"POST /submit HTTP/1.0\r\nContent-Length: -2\r\n\r\n", 400),
        (b"POST /submit HTTP/1.0\r\nContent-Length: 1\r\n"
         b"Content-Length: 1\r\n\r\nx", 400),
        (b"DELETE /submit HTTP/1.0\r\n\r\n", 501),
        (b"HEAD /healthz HTTP/1.0\r\n\r\n", 501),
        (b"POST /submit HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
         b"0\r\n\r\n", 501),
    ])
    def test_malformed_requests_are_refused(self, request_bytes, status):
        obs = served_session()
        try:
            before = obs.live.requests_served
            reply = exchange(obs, request_bytes)
            assert reply.startswith(b"HTTP/1.0 %d " % status)
            assert obs.live.requests_served == before + 1
        finally:
            obs.close()

    def test_oversized_body_is_refused_before_it_is_read(self):
        """The 413 arrives although no byte of the body was sent: the
        worker did not wait for it."""
        obs = served_session()
        try:
            reply = exchange(obs, b"POST /submit HTTP/1.0\r\n"
                             b"Content-Length: %d\r\n\r\n"
                             % (live.MAX_BODY_BYTES + 1))
            assert reply.startswith(b"HTTP/1.0 413 ")
            reply = exchange(obs, b"POST /submit HTTP/1.0\r\n"
                             b"Content-Length: 1%s\r\n\r\n" % (b"0" * 5000))
            assert reply.startswith(b"HTTP/1.0 413 ")
        finally:
            obs.close()

    def test_oversized_head_is_refused(self):
        obs = served_session()
        try:
            # One header line past the cap, never finished.
            reply = exchange(obs, b"GET /healthz HTTP/1.0\r\nX-Big: "
                             + b"a" * (live.MAX_HEAD_BYTES + 1))
            assert reply.startswith(b"HTTP/1.0 431 ")
            lines = b"".join(b"X-%d: 1\r\n" % i
                             for i in range(live.MAX_HEADER_LINES + 1))
            reply = exchange(obs, b"GET /healthz HTTP/1.0\r\n" + lines
                             + b"\r\n")
            assert reply.startswith(b"HTTP/1.0 431 ")
            lines = b"".join(b"X-%d: 1\r\n" % i
                             for i in range(live.MAX_HEADER_LINES))
            reply = exchange(obs, b"GET /healthz HTTP/1.0\r\n" + lines
                             + b"\r\n")
            assert reply.startswith(b"HTTP/1.0 200 ")
        finally:
            obs.close()

    def test_request_split_into_single_bytes(self):
        obs = bound_session()
        try:
            request = submit_request([SPEC])
            reply = exchange(obs, *(request[i:i + 1]
                                    for i in range(len(request))),
                             pause=0.001)
            assert reply.startswith(b"HTTP/1.0 202 ")
            assert json.loads(reply.split(b"\r\n\r\n", 1)[1]) \
                == {"accepted": 1}
        finally:
            obs.close()

    def test_body_sent_after_the_headers(self):
        obs = bound_session()
        try:
            request = submit_request([SPEC, SPEC])
            head, body = request.split(b"\r\n\r\n", 1)
            reply = exchange(obs, head + b"\r\n\r\n", body, pause=0.2)
            assert reply.startswith(b"HTTP/1.0 202 ")
            assert obs.live.jobs_received == 2
        finally:
            obs.close()

    def test_bare_newlines_end_the_head(self):
        obs = served_session()
        try:
            reply = exchange(obs, b"GET /healthz HTTP/1.0\nHost: x\n\n")
            assert reply.startswith(b"HTTP/1.0 200 ")
        finally:
            obs.close()

    def test_reply_headers(self):
        obs = served_session()
        try:
            reply = exchange(obs, b"GET /healthz HTTP/1.0\r\n\r\n")
            head, body = reply.split(b"\r\n\r\n", 1)
            lines = head.split(b"\r\n")
            assert lines[0] == b"HTTP/1.0 200 OK"
            headers = dict(line.split(b": ", 1) for line in lines[1:])
            assert headers == {
                b"Server": b"repro-live/1.0",
                b"Content-Type": b"application/json",
                b"Content-Length": str(len(body)).encode(),
                b"Cache-Control": b"no-store",
            }
        finally:
            obs.close()

    def test_trickling_client_is_dropped_at_the_deadline(self,
                                                         monkeypatch):
        """One deadline covers the whole request: a byte every 50 ms
        never lets a per-read timeout of 0.3 s expire, yet the worker
        drops the client 0.3 s after it connected."""
        monkeypatch.setattr(live, "READ_TIMEOUT_S", 0.3)
        obs = served_session()
        try:
            with connect(obs) as sock:
                start = time.monotonic()
                dropped = None
                for byte in b"GET /healthz HTTP/1.0\r\n" + b"X" * 100:
                    try:
                        sock.sendall(bytes([byte]))
                    except OSError:
                        dropped = time.monotonic() - start
                        break
                    ready, _, _ = select.select([sock], [], [], 0.05)
                    if ready:
                        assert sock.recv(65536) == b""  # no reply
                        dropped = time.monotonic() - start
                        break
                assert dropped is not None and dropped < 1.5
        finally:
            obs.close()

    def test_handler_error_answers_500_and_keeps_serving(self,
                                                         monkeypatch):
        obs = bound_session()
        try:
            def broken(raw):
                raise RuntimeError("boom")

            monkeypatch.setattr(obs.live, "handle_submit", broken)
            reply = exchange(obs, submit_request([SPEC]))
            assert reply.startswith(b"HTTP/1.0 500 ")
            status, _, _ = fetch(f"{obs.live.url}/healthz")
            assert status == 200
        finally:
            obs.close()

    def test_refused_clients_read_their_503(self, monkeypatch):
        """Every connection is refused; each client has sent a 2 kB
        POST and still reads the whole 503."""
        import http.client

        monkeypatch.setattr(live, "QUEUE_BOUND", 0)
        obs = served_session()
        body = b"x" * 2048
        try:
            for _ in range(100):
                conn = http.client.HTTPConnection("127.0.0.1", obs.live.port,
                                                  timeout=10)
                try:
                    conn.request("POST", "/submit", body=body)
                    reply = conn.getresponse()
                    assert reply.status == 503
                    assert reply.getheader("Retry-After") == "1"
                    assert reply.read() == b"server busy; retry later\n"
                finally:
                    conn.close()
        finally:
            obs.close()


class TestLifecycle:
    def test_close_is_prompt_and_leaves_no_server_thread(self):
        def server_threads():
            return {thread for thread in threading.enumerate()
                    if thread.name.startswith(("repro-live-worker",
                                               "repro-live-http"))}

        others = server_threads()  # other tests' servers
        obs = served_session()
        fetch(f"{obs.live.url}/healthz")
        mine = server_threads() - others
        assert len(mine) == POOL_WORKERS + 1
        start = time.perf_counter()
        obs.close()
        assert time.perf_counter() - start < 0.25
        assert not any(thread.is_alive() for thread in mine)
