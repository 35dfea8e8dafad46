"""Live monitoring plane: an HTTP server over a paced engine.

:class:`LiveMonitor` is the simulator's service mode: it runs a small
HTTP/1.0 server, served by a fixed pool of worker threads, on an
ephemeral (or chosen) port next to the simulation and drives the
engine in bounded real-time slices so the run can be *watched* — by a
human on ``/dashboard``, by a Prometheus scraper on ``/metrics``, by
an orchestrator probe on ``/healthz``.

Endpoints:

* ``GET /metrics`` — Prometheus text exposition of the live metrics
  registry (the same :meth:`MetricsRegistry.write_prom` payload the
  batch path writes at the end of a run);
* ``GET /healthz`` — the health-rule engine's verdict as JSON;
  ``200`` while ok/degraded, ``503`` once a critical alert is active;
* ``GET /snapshot.json`` — the windowed aggregation snapshot (rates,
  cumulative totals, quantile sketches, staleness, sim lag);
* ``GET /dashboard`` (and ``/``) — a self-refreshing, self-contained
  inline-SVG page built from the same components as the batch HTML
  reports;
* ``POST /submit`` — streaming job ingest: a JSON object, JSON array,
  or JSONL body of job specs (``program``, ``lifetime_s``,
  ``peak_demand_mb``, ``home_node``, optional ``submit_time``,
  ``io_stall_per_cpu_s``, ``buffer_cache_mb``, ``memory_phases``);
  valid specs are queued and the engine admits them at the next slice
  boundary (``202``); any invalid spec rejects the whole batch
  (``400``);
* ``POST /checkpoint`` — snapshot the live run (see
  :mod:`repro.sim.checkpoint`): the request body must be empty and
  the response body *is* the checkpoint
  (``application/octet-stream``); the server never writes files, so
  a non-empty body is rejected (``400``);
* ``POST /fork`` — what-if replay: ``{"policy": ..., "policy_kwargs":
  {...}}`` snapshots the live run, restores an independent copy on
  the handler thread, swaps in the requested policy and runs it to
  completion, answering with that universe's run summary.  The live
  run is paused only for the snapshot.  One replay runs at a time: a
  ``/fork`` that arrives during another gets ``503``.  A ``policy``
  that is not a known name, ``policy_kwargs`` that are not an object,
  or keywords the policy's constructor rejects get ``400``.

Serving: one accept thread hands each connection to ``POOL_WORKERS``
daemon worker threads through a queue of ``QUEUE_BOUND`` connections,
so a flood of connections costs neither a thread nor a socket each
beyond that bound.  When the queue is full the accept thread answers
``503`` itself, half-closes the connection and closes it about a
second later, so a client still sending its request reads the ``503``
rather than a reset.  Every ``503`` carries ``Retry-After``.

A worker reads one request per connection (HTTP/1.0, no keep-alive)
and answers it with one write.  Reading the request line, the headers
and the ``Content-Length`` body has one deadline of ``READ_TIMEOUT_S``
in total, so a client that sends nothing, or trickles a byte at a
time, holds its worker for at most that long and is then dropped
without a reply.  Malformed or oversized requests are answered before
any handler runs: ``400`` for a malformed request line, header line or
``Content-Length``; ``413`` for a body over ``MAX_BODY_BYTES`` (before
any of it is read); ``431`` for a head over ``MAX_HEAD_BYTES`` or
``MAX_HEADER_LINES`` header lines; ``501`` for a method other than
``GET``/``POST`` or a ``Transfer-Encoding`` body.

Threading model — the invariant that keeps this safe without slowing
the engine: **HTTP handler threads never touch live state.**  The
engine thread *publishes* fully rendered, immutable payload bytes
under a lock at slice boundaries; handlers only read the latest
published payloads.  Staleness is bounded by the publish interval and
the engine never blocks on a scrape.

The write endpoints keep the same invariant from the other side:
handler threads only *validate primitives and enqueue*.  Job
construction (which allocates ids from a process-global counter) and
world serialization happen on the engine thread at slice boundaries;
``/checkpoint`` hands the engine a request-plus-event and waits for
the engine to service it (``503`` if the engine never reaches a
boundary within the timeout).  ``/fork`` restores its copy with
``advance_counters=False`` so the throwaway universe cannot disturb
the id space of the run still executing.

Streaming ingest sources (``--submit-stdin``, long-lived service
mode) can place a *hold* on the drive loop: with a hold active the
loop idles at wall pace when the simulation runs dry instead of
exiting, so jobs arriving later still find a live engine.

Pacing: ``pace`` is simulated seconds per wall second.  ``pace=0``
runs the engine as fast as possible (publishing between slices);
``pace>0`` runs ``SLICE_WALL_S``-wide slices, publishes every
``PUBLISH_WALL_S`` and sleeps between slices to hold the ratio, and
reports ``sim_lag_s`` — how far (in wall seconds) the engine is
behind its real-time schedule — into the windowed snapshot and the
metrics registry, where a health rule can watch it.
"""

from __future__ import annotations

import collections
import json
import math
import queue
import socket
import sys
import threading
import time
import traceback
from http import HTTPStatus
from io import StringIO
from typing import (TYPE_CHECKING, Callable, Dict, List, NamedTuple,
                    Optional, Tuple, Union)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.session import ObsSession
    from repro.sim.engine import Simulator

#: Wall-clock width of one paced engine slice: how often a paced or
#: idling engine admits queued jobs and serves control requests.  A
#: burst of submissions is admitted over many slices, so the engine's
#: work on it interleaves with the requests instead of landing in one
#: block whose place depends on when the burst began.
SLICE_WALL_S = 0.025

#: Wall-clock interval between publishes of a paced or idling engine.
PUBLISH_WALL_S = 0.25

#: Wall seconds a control request (``/checkpoint``, ``/fork``) waits
#: for the engine to reach a slice boundary before answering 503.
CONTROL_TIMEOUT_S = 10.0

#: Worker threads that serve accepted connections.
POOL_WORKERS = 4

#: Accepted connections that may wait for a free worker; one more is
#: answered 503 by the accept thread.
QUEUE_BOUND = 64

#: Wall seconds a worker gives a client to send its whole request (and
#: to take its reply) before dropping it.
READ_TIMEOUT_S = 5.0

#: Largest request head (request line plus headers) answered; a larger
#: one gets 431.
MAX_HEAD_BYTES = 64 * 1024

#: Most header lines a request may carry; more get 431.
MAX_HEADER_LINES = 100

#: Largest request body read; a larger ``Content-Length`` gets 413.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: ``Retry-After`` seconds sent with every 503.
RETRY_AFTER_S = 1

#: Wall seconds a refused connection stays half-closed, so that its
#: client can finish sending and read the 503, before it is closed.
_REFUSED_LINGER_S = 1.0

#: One published payload: (body bytes, content type, HTTP status).
Payload = Tuple[bytes, str, int]

#: Keys a ``/submit`` job spec may carry (anything else is rejected —
#: silent typos would otherwise become silently-default jobs).
_SPEC_KEYS = frozenset({
    "program", "lifetime_s", "peak_demand_mb", "home_node",
    "submit_time", "io_stall_per_cpu_s", "buffer_cache_mb",
    "memory_phases",
})


def _finite(value) -> bool:
    """A JSON number that converts to a finite float (``1e999`` parses
    to infinity, and ``10**400`` overflows ``float``); not a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def validate_job_spec(spec, num_nodes: int) -> Optional[str]:
    """Validate one raw ``/submit`` job spec (primitives only — safe
    on any thread).  Returns an error string, or None when valid."""
    if not isinstance(spec, dict):
        return f"job spec must be an object, got {type(spec).__name__}"
    unknown = set(spec) - _SPEC_KEYS
    if unknown:
        return f"unknown job spec keys: {sorted(unknown)}"
    for key in ("program", "lifetime_s", "peak_demand_mb", "home_node"):
        if key not in spec:
            return f"job spec missing required key {key!r}"
    if not isinstance(spec["program"], str) or not spec["program"]:
        return "program must be a non-empty string"
    lifetime = spec["lifetime_s"]
    if not _finite(lifetime) or lifetime <= 0:
        return f"lifetime_s must be a positive number: {lifetime!r}"
    peak = spec["peak_demand_mb"]
    if not _finite(peak) or peak < 0:
        return f"peak_demand_mb must be a non-negative number: {peak!r}"
    home = spec["home_node"]
    if not isinstance(home, int) or isinstance(home, bool) \
            or not 0 <= home < num_nodes:
        return (f"home_node must be an integer in [0, {num_nodes}): "
                f"{home!r}")
    for key in ("submit_time", "io_stall_per_cpu_s", "buffer_cache_mb"):
        if key in spec:
            value = spec[key]
            if not _finite(value) or value < 0:
                return f"{key} must be a non-negative number: {value!r}"
    phases = spec.get("memory_phases")
    if phases is not None:
        if not isinstance(phases, list) or not phases:
            return "memory_phases must be a non-empty array"
        for pair in phases:
            if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                    or not all(_finite(v) and v >= 0 for v in pair)):
                return (f"memory_phases entries must be "
                        f"[progress_s, demand_mb] pairs: {pair!r}")
    return None


def _job_from_spec(spec: dict, now: float):
    """Materialize a validated spec into a runnable Job.  Engine
    thread only: ``Job()`` allocates a process-global id.  Requested
    submit times in the past clamp to ``now`` (the admission instant)
    so streamed jobs cannot claim queueing delay they never saw."""
    from repro.cluster.job import Job, MemoryProfile

    peak = float(spec["peak_demand_mb"])
    phases = spec.get("memory_phases")
    profile = (MemoryProfile.from_pairs([(float(p), float(d))
                                         for p, d in phases])
               if phases else MemoryProfile.constant(peak))
    return Job(
        program=spec["program"],
        cpu_work_s=float(spec["lifetime_s"]),
        memory=profile,
        submit_time=max(float(spec.get("submit_time", now)), now),
        home_node=spec["home_node"],
        io_stall_per_cpu_s=float(spec.get("io_stall_per_cpu_s", 0.0)),
        buffer_cache_mb=float(spec.get("buffer_cache_mb", 0.0)),
    )


class _ControlRequest:
    """A handler-thread request serviced by the engine thread at the
    next slice boundary (currently: snapshot the world)."""

    __slots__ = ("done", "result", "error")

    def __init__(self):
        self.done = threading.Event()
        self.result: Optional[bytes] = None
        self.error: Optional[str] = None


class RequestHead(NamedTuple):
    """A parsed request head."""

    method: str  # "GET" or "POST"
    target: str  # the request target as sent, query string included
    length: int  # body bytes (``Content-Length``, 0 without one)


def parse_request_head(head: bytes) -> Union[RequestHead, int]:
    """Parse a request line and its header lines (CRLF or LF
    separated, without the blank line that ends them).  Returns the
    parsed head, or the status that refuses it: 400 for a malformed
    request line, header line or ``Content-Length``; 413 for a
    ``Content-Length`` over ``MAX_BODY_BYTES``; 431 for a head over
    ``MAX_HEAD_BYTES`` or ``MAX_HEADER_LINES`` header lines; 501 for a
    method other than GET/POST or a ``Transfer-Encoding`` body.  Never
    raises."""
    if len(head) > MAX_HEAD_BYTES:
        return 431
    lines = head.split(b"\n")
    if len(lines) - 1 > MAX_HEADER_LINES:
        return 431
    words = lines[0].split()
    if (len(words) != 3 or words[2] not in (b"HTTP/1.0", b"HTTP/1.1")
            or not words[1].startswith(b"/")):
        return 400
    if words[0] not in (b"GET", b"POST"):
        return 501
    length = None
    for line in lines[1:]:
        name, colon, value = line.partition(b":")
        name = name.strip().lower()
        if not colon or not name:
            return 400
        if name == b"transfer-encoding":
            return 501  # only Content-Length bodies are read
        if name != b"content-length":
            continue
        value = value.strip()
        # bytes.isdigit() is ASCII-only: no sign, no Unicode digits.
        if length is not None or not value.isdigit():
            return 400
        digits = value.lstrip(b"0") or b"0"
        length = int(digits) if len(digits) <= 18 else MAX_BODY_BYTES + 1
        if length > MAX_BODY_BYTES:
            return 413
    return RequestHead(words[0].decode("ascii"), words[1].decode("latin-1"),
                       length or 0)


def _end_of_head(data: bytearray, start: int) -> Tuple[int, int]:
    """Where the head in ``data`` ends and its body begins, searching
    for the blank line from ``start``; ``(-1, -1)`` while there is
    none yet."""
    crlf = data.find(b"\n\r\n", start)
    lf = data.find(b"\n\n", start)
    if lf >= 0 and (crlf < 0 or lf < crlf):
        return lf, lf + 2
    if crlf >= 0:
        return crlf, crlf + 3
    return -1, -1


def _recv(conn: socket.socket, deadline: float) -> bytes:
    """The client's next bytes; ``b""`` once it has closed or
    ``deadline`` (``time.monotonic()``) has passed."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return b""
    conn.settimeout(remaining)
    try:
        return conn.recv(65536)
    except socket.timeout:
        return b""


def _discard_and_close(conn: socket.socket) -> None:
    """Close a non-blocking connection after discarding what its client
    sent, so that the close ends the connection rather than resetting
    it."""
    try:
        for _ in range(16):
            if not conn.recv(65536):
                break
    except OSError:
        pass
    conn.close()


_TEXT = "text/plain; charset=utf-8"

#: Reply bodies of the statuses that refuse a request before any
#: handler runs.
_REFUSED_REQUESTS = {
    400: b"malformed request line, header or Content-Length\n",
    413: b"request body too large\n",
    431: b"request head too large\n",
    501: b"not implemented; send GET, or POST with Content-Length\n",
}


class _LiveServer:
    """The monitor's HTTP/1.0 server: a listening socket on 127.0.0.1,
    an accept thread blocked in ``accept()``, and ``POOL_WORKERS``
    daemon workers, started on the first connection, that each answer
    one request per connection.  A connection that finds the queue
    full is answered 503 from the accept thread."""

    def __init__(self, monitor: "LiveMonitor", port: int):
        self.monitor = monitor
        self._listener = socket.create_server(("127.0.0.1", port))
        self.port: int = self._listener.getsockname()[1]
        # Only the accept thread puts, so checking the size before a
        # put keeps the bound.  (A ``queue.Queue`` hands a connection
        # over about 0.1 ms slower per request.)
        self._connections: "queue.SimpleQueue" = queue.SimpleQueue()
        self._workers: List[threading.Thread] = []
        self._stopping = False
        self._acceptor = threading.Thread(target=self._accept_loop,
                                          name="repro-live-http",
                                          daemon=True)
        self._acceptor.start()

    # ------------------------------------------------------------------
    # accept thread
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        """Queue or refuse each connection until :meth:`close`.  Blocks
        in ``accept()`` while no refused connection lingers, and wakes
        to close a refused one when its linger ends."""
        listener = self._listener
        # (close at, connection) of refused connections, oldest first.
        parked: "collections.deque" = collections.deque()
        try:
            while True:
                listener.settimeout(
                    max(0.001, parked[0][0] - time.monotonic())
                    if parked else None)
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    conn = None
                except OSError:  # e.g. out of descriptors: back off
                    conn = None
                    time.sleep(0.05)
                if self._stopping:
                    if conn is not None:
                        conn.close()
                    return
                now = time.monotonic()
                while parked and parked[0][0] <= now:
                    _discard_and_close(parked.popleft()[1])
                if conn is not None:
                    self._queue_or_refuse(conn, parked)
        finally:
            for _, conn in parked:
                _discard_and_close(conn)

    def _queue_or_refuse(self, conn: socket.socket,
                         parked: "collections.deque") -> None:
        if not self._workers:
            for index in range(POOL_WORKERS):
                worker = threading.Thread(target=self._serve_queue,
                                          name=f"repro-live-worker-{index}",
                                          daemon=True)
                worker.start()
                self._workers.append(worker)
        if self._connections.qsize() < QUEUE_BOUND:
            self._connections.put(conn)
            return
        try:
            conn.setblocking(False)  # never stall the accept loop
            conn.send(self._reply(b"server busy; retry later\n", _TEXT, 503))
            conn.shutdown(socket.SHUT_WR)
        except OSError:
            conn.close()
            return
        # Half-closed, the connection still takes the rest of the
        # request, so the client reads the 503 instead of a reset.
        if len(parked) >= max(QUEUE_BOUND, 1):
            _discard_and_close(parked.popleft()[1])
        parked.append((time.monotonic() + _REFUSED_LINGER_S, conn))

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _serve_queue(self) -> None:
        """Worker thread: serve queued connections until a ``None``."""
        while True:
            conn = self._connections.get()
            if conn is None:
                return
            try:
                self._serve(conn)
            except OSError:
                pass  # the client went away mid-request or mid-reply
            finally:
                conn.close()

    def _serve(self, conn: socket.socket) -> None:
        """Read one request and send its reply in one write; a client
        that closes or runs out of time first gets no reply."""
        request = self._read_request(conn)
        if request is None:
            return
        if isinstance(request, int):
            reply = self._reply(_REFUSED_REQUESTS[request], _TEXT, request)
        else:
            reply = self._respond(*request)
        conn.settimeout(READ_TIMEOUT_S)
        conn.sendall(reply)
        conn.shutdown(socket.SHUT_WR)

    @staticmethod
    def _read_request(conn: socket.socket
                      ) -> Union[Tuple[RequestHead, bytes], int, None]:
        """Read one request, all of it within one ``READ_TIMEOUT_S``.
        Returns the head and body, the status that refuses them, or
        None when the client closed or ran out of time first."""
        deadline = time.monotonic() + READ_TIMEOUT_S
        data = bytearray()
        scanned = 0
        while True:
            end, start = _end_of_head(data, scanned)
            if end >= 0:
                break
            if len(data) > MAX_HEAD_BYTES:
                return 431
            scanned = max(0, len(data) - 2)
            chunk = _recv(conn, deadline)
            if not chunk:
                return None
            data += chunk
        head = parse_request_head(bytes(data[:end]))
        if isinstance(head, int):
            return head
        body = data[start:start + head.length]
        while len(body) < head.length:
            chunk = _recv(conn, deadline)
            if not chunk:
                return None
            body += chunk
        return head, bytes(body[:head.length])

    def _respond(self, head: RequestHead, raw: bytes) -> bytes:
        monitor = self.monitor
        path = head.target.split("?", 1)[0].rstrip("/")
        try:
            if head.method == "GET":
                payload = monitor.payload(path or "/dashboard")
                if payload is None:
                    return self._reply(
                        b"not found; endpoints: /metrics /healthz "
                        b"/snapshot.json /dashboard\n", _TEXT, 404)
                return self._reply(*payload, no_store=True)
            # Write endpoints validate and enqueue only; the engine
            # does the work.
            if path == "/submit":
                return self._reply(*monitor.handle_submit(raw))
            if path == "/checkpoint":
                return self._reply(*monitor.handle_checkpoint(raw))
            if path == "/fork":
                return self._reply(*monitor.handle_fork(raw))
            return self._reply(b"not found; POST endpoints: /submit "
                               b"/checkpoint /fork\n", _TEXT, 404)
        except Exception:  # noqa: BLE001 - keep the worker serving
            traceback.print_exc(file=sys.stderr)
            return self._reply(b"internal server error\n", _TEXT, 500)

    def _reply(self, body: bytes, content_type: str, status: int,
               no_store: bool = False) -> bytes:
        """One reply's bytes, counted once before it is sent (so a
        client that has read it sees the count), whatever its
        status."""
        self.monitor.count_request()
        head = (f"HTTP/1.0 {status} {HTTPStatus(status).phrase}\r\n"
                f"Server: repro-live/1.0\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n")
        if no_store:
            head += "Cache-Control: no-store\r\n"
        if status == 503:
            head += f"Retry-After: {RETRY_AFTER_S}\r\n"
        return (head + "\r\n").encode("latin-1") + body

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop accepting, close queued and refused connections, and
        stop the workers, waiting up to ``READ_TIMEOUT_S`` in all for
        busy ones to finish their request."""
        deadline = time.monotonic() + READ_TIMEOUT_S
        self._stopping = True
        try:  # wake the accept thread out of accept()
            socket.create_connection(("127.0.0.1", self.port),
                                     timeout=READ_TIMEOUT_S).close()
        except OSError:
            pass
        self._acceptor.join(READ_TIMEOUT_S)
        self._listener.close()
        while True:
            try:
                conn = self._connections.get_nowait()
            except queue.Empty:
                break
            conn.close()
        for _ in self._workers:
            self._connections.put(None)
        for worker in self._workers:
            worker.join(max(0.0, deadline - time.monotonic()))
        self._workers = []


class LiveMonitor:
    """HTTP monitoring server plus the paced engine drive loop."""

    def __init__(self, session: "ObsSession", port: int = 0,
                 pace: float = 0.0,
                 port_file: Optional[str] = None,
                 refresh_s: float = 2.0):
        if pace < 0:
            raise ValueError(f"pace must be >= 0 sim-s/wall-s: {pace!r}")
        self.session = session
        self.requested_port = port
        self.pace = float(pace)
        self.port_file = port_file
        self.refresh_s = refresh_s
        self.port: Optional[int] = None
        self.publishes = 0
        self.requests_served = 0
        self.sim_lag_s = 0.0
        self.sim_lag_max_s = 0.0
        self._server: Optional[_LiveServer] = None
        self._lock = threading.Lock()
        self._payloads: Dict[str, Payload] = {}
        # Streaming-ingest plane: raw validated specs queued by any
        # thread, admitted by the engine thread at slice boundaries.
        self._ingest_lock = threading.Lock()
        self._ingest_queue: List[dict] = []
        self._ingest_holds = 0
        self.jobs_received = 0
        self.jobs_admitted = 0
        self.jobs_rejected = 0
        # Control plane (/checkpoint, /fork): requests the engine
        # services between slices.
        self._control_lock = threading.Lock()
        self._control_queue: List[_ControlRequest] = []
        # Held while a /fork replay runs; a second /fork answers 503.
        self._fork_slot = threading.Lock()

    # ------------------------------------------------------------------
    # server lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "LiveMonitor":
        """Bind the server, write the port file, start serving."""
        server = _LiveServer(self, self.requested_port)
        self._server = server
        self.port = server.port
        if self.port_file:
            with open(self.port_file, "w", encoding="utf-8") as stream:
                stream.write(f"{self.port}\n")
        self.publish()  # endpoints answer before the first slice
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            self._server = None

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    # ------------------------------------------------------------------
    # streaming ingest (enqueue from any thread; admit on engine)
    # ------------------------------------------------------------------
    @property
    def _world_bound(self) -> bool:
        """The session's world has a policy and a job list (a
        ``World.build`` run, or ``attach`` plus ``bind_run``) —
        prerequisite of every write endpoint."""
        world = self.session.world
        return (world is not None and world.policy is not None
                and world.jobs is not None)

    def enqueue_jobs(self, specs) -> Tuple[int, List[str]]:
        """Validate raw job specs and queue the valid ones for
        admission.  All-or-nothing: one invalid spec rejects the whole
        batch (a partially admitted batch is harder to reason about
        than a resubmitted one).  Returns ``(accepted, errors)``."""
        specs = list(specs)
        num_nodes = self.session.world.cluster.config.num_nodes
        errors = []
        for index, spec in enumerate(specs):
            problem = validate_job_spec(spec, num_nodes)
            if problem is not None:
                errors.append(f"job[{index}]: {problem}")
        with self._ingest_lock:
            self.jobs_received += len(specs)
            if errors:
                self.jobs_rejected += len(specs)
                return 0, errors
            self._ingest_queue.extend(specs)
        return len(specs), []

    def add_ingest_hold(self) -> None:
        """Keep the drive loop alive while an ingest source (stdin
        reader, service supervisor) may still produce jobs."""
        with self._ingest_lock:
            self._ingest_holds += 1

    def release_ingest_hold(self) -> None:
        with self._ingest_lock:
            self._ingest_holds = max(0, self._ingest_holds - 1)

    def ingest_stdin(self) -> threading.Thread:
        """Admit JSONL job specs from stdin (one spec — or array of
        specs — per line) until EOF; holds the drive loop open for the
        stream's lifetime."""
        import sys

        self.add_ingest_hold()

        def reader() -> None:
            try:
                for line in sys.stdin:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        parsed = json.loads(line)
                    except (ValueError, RecursionError):
                        with self._ingest_lock:
                            self.jobs_received += 1
                            self.jobs_rejected += 1
                        print("[ingest] rejected stdin line: not JSON",
                              file=sys.stderr)
                        continue
                    _, errors = self.enqueue_jobs(
                        parsed if isinstance(parsed, list) else [parsed])
                    for problem in errors:
                        print(f"[ingest] rejected stdin spec: {problem}",
                              file=sys.stderr)
            finally:
                self.release_ingest_hold()

        thread = threading.Thread(target=reader, name="repro-ingest-stdin",
                                  daemon=True)
        thread.start()
        return thread

    def _admit_ingest(self, sim: "Simulator") -> int:
        """Engine thread: build Jobs from queued specs and schedule
        their submissions.  Runs between slices, so admission order —
        and therefore job-id assignment — is single-threaded and
        deterministic given the same arrival interleaving."""
        with self._ingest_lock:
            if not self._ingest_queue:
                return 0
            batch, self._ingest_queue = self._ingest_queue, []
        world = self.session.world
        for spec in batch:
            world.admit(_job_from_spec(spec, sim.now))
        with self._ingest_lock:
            self.jobs_admitted += len(batch)
        return len(batch)

    # ------------------------------------------------------------------
    # control plane (/checkpoint, /fork)
    # ------------------------------------------------------------------
    def _request_snapshot(self) -> Tuple[Optional[bytes], str, int]:
        """Handler thread: ask the engine for a world snapshot and
        wait.  Returns ``(bytes, error, status)``."""
        if not self._world_bound:
            return (None, "run world not bound (no policy/job list); "
                    "checkpointing needs the experiment runner's "
                    "bind_run", 503)
        request = _ControlRequest()
        with self._control_lock:
            self._control_queue.append(request)
        if not request.done.wait(CONTROL_TIMEOUT_S):
            return (None, "engine did not reach a slice boundary in "
                    f"{CONTROL_TIMEOUT_S:.0f}s", 503)
        if request.error is not None:
            return None, request.error, 500
        return request.result, "", 200

    def _service_control(self, sim: "Simulator") -> None:
        """Engine thread: serve queued snapshot requests while the
        simulation is paused at a slice boundary."""
        with self._control_lock:
            if not self._control_queue:
                return
            requests, self._control_queue = self._control_queue, []
        from repro.sim.checkpoint import snapshot_bytes
        for request in requests:
            try:
                request.result = snapshot_bytes(self.session.world)
            except Exception as exc:  # noqa: BLE001 - report to caller
                request.error = f"snapshot failed: {exc}"
            request.done.set()

    # ------------------------------------------------------------------
    # POST endpoint bodies (handler threads)
    # ------------------------------------------------------------------
    @staticmethod
    def _json_payload(obj, status: int) -> Payload:
        return ((json.dumps(obj, indent=2, sort_keys=True) + "\n")
                .encode("utf-8"), "application/json", status)

    def handle_submit(self, raw: bytes) -> Payload:
        if not self._world_bound:
            return self._json_payload(
                {"error": "run world not bound; job ingest needs the "
                          "experiment runner's bind_run"}, 503)
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            return self._json_payload({"error": "body is not UTF-8"}, 400)
        specs: List[dict] = []
        try:
            parsed = json.loads(text)
            specs = parsed if isinstance(parsed, list) else [parsed]
        except (ValueError, RecursionError):  # too deep nests raise
            # JSONL fallback: one spec per line.
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    specs.append(json.loads(line))
                except (ValueError, RecursionError):
                    return self._json_payload(
                        {"error": f"undecodable JSONL line: {line[:80]!r}"},
                        400)
        if not specs:
            return self._json_payload({"error": "no job specs in body"}, 400)
        accepted, errors = self.enqueue_jobs(specs)
        if errors:
            return self._json_payload(
                {"error": "invalid job specs", "details": errors}, 400)
        return self._json_payload({"accepted": accepted}, 202)

    def handle_checkpoint(self, raw: bytes) -> Payload:
        if raw.strip():
            return self._json_payload(
                {"error": "body must be empty; the checkpoint is "
                          "returned in the response body"}, 400)
        data, error, status = self._request_snapshot()
        if data is None:
            return self._json_payload({"error": error}, status)
        return data, "application/octet-stream", 200

    def handle_fork(self, raw: bytes) -> Payload:
        try:
            body = json.loads(raw.decode("utf-8")) if raw.strip() else {}
        except (ValueError, UnicodeDecodeError, RecursionError):
            return self._json_payload({"error": "body must be JSON"}, 400)
        if (not isinstance(body, dict)
                or not isinstance(body.get("policy"), str)
                or not body["policy"]):
            return self._json_payload(
                {"error": "body must be a JSON object naming a "
                          "'policy' to fork to"}, 400)
        if not isinstance(body.get("policy_kwargs", {}), (dict, type(None))):
            return self._json_payload(
                {"error": "'policy_kwargs' must be a JSON object"}, 400)
        if not self._fork_slot.acquire(blocking=False):
            return self._json_payload(
                {"error": "a fork replay is already running"}, 503)
        try:
            return self._replay_fork(body)
        finally:
            self._fork_slot.release()

    def _replay_fork(self, body: dict) -> Payload:
        data, error, status = self._request_snapshot()
        if data is None:
            return self._json_payload({"error": error}, status)
        # The forked universe is private to this handler thread; the
        # live engine continues unperturbed.  advance_counters=False:
        # a replay creates no new jobs, and the live engine owns the
        # process-global id counters.
        import dataclasses

        from repro.sim.checkpoint import (CheckpointError, fork,
                                          restore_bytes, resume)
        try:
            restored = restore_bytes(data, advance_counters=False)
            restored = fork(restored, policy=body["policy"],
                            policy_kwargs=body.get("policy_kwargs"))
            forked_from = restored.meta.get("forked_from")
            result = resume(restored)
        except CheckpointError as exc:
            return self._json_payload({"error": str(exc)}, 400)
        except Exception as exc:  # noqa: BLE001 - report to caller
            return self._json_payload(
                {"error": f"fork replay failed: {exc}"}, 500)
        return self._json_payload(
            {"policy": result.summary.policy,
             "forked_from": forked_from,
             "forked_at": restored.meta.get("sim_now"),
             "summary": dataclasses.asdict(result.summary)}, 200)

    # ------------------------------------------------------------------
    # publishing (engine thread only)
    # ------------------------------------------------------------------
    def payload(self, path: str) -> Optional[Payload]:
        with self._lock:
            return self._payloads.get(path)

    def count_request(self) -> None:
        """Count a reply; handler threads call this before sending it,
        so a client that has read its reply sees the count."""
        with self._lock:
            self.requests_served += 1

    def publish(self) -> None:
        """Render every endpoint's payload from current state and swap
        them in atomically.  Runs on the engine thread; handlers only
        ever see complete, immutable payloads."""
        session = self.session
        prom = StringIO()
        session.registry.write_prom(prom,
                                    labels={"run": session.run_label})
        metrics = (prom.getvalue().encode("utf-8"),
                   "text/plain; version=0.0.4; charset=utf-8", 200)

        now = (session.world.cluster.sim.now
               if session.world is not None else 0.0)
        snapshot = {}
        if session.window is not None:
            snapshot = session.window.snapshot(now)
            if self.pace > 0:
                snapshot["sim_lag_s"] = self.sim_lag_s
                snapshot["sim_lag_max_s"] = self.sim_lag_max_s
        with self._ingest_lock:
            snapshot["ingest"] = {
                "received": self.jobs_received,
                "admitted": self.jobs_admitted,
                "rejected": self.jobs_rejected,
                "queued": len(self._ingest_queue),
                "holds": self._ingest_holds,
            }
        snapshot_payload = (
            (json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
            .encode("utf-8"), "application/json", 200)

        if session.health is not None:
            verdict = session.health.verdict(now)
        else:
            verdict = {"status": "ok", "t": now, "rules": [],
                       "active": [], "incidents": 0,
                       "windows_evaluated": 0}
        health_status = 503 if verdict["status"] == "critical" else 200
        health_payload = (
            (json.dumps(verdict, indent=2, sort_keys=True) + "\n")
            .encode("utf-8"), "application/json", health_status)

        from repro.obs.report import render_live_dashboard
        history = (list(session.window.history)
                   if session.window is not None else [])
        incidents = (session.health.incident_records()
                     if session.health is not None else [])
        html = render_live_dashboard(
            title=f"Live run — {session.run_label}",
            snapshot=snapshot, history=history, verdict=verdict,
            incidents=incidents, refresh_s=self.refresh_s,
            paced=self.pace > 0)
        dashboard = (html.encode("utf-8"),
                     "text/html; charset=utf-8", 200)

        with self._lock:
            self._payloads = {
                "/metrics": metrics,
                "/snapshot.json": snapshot_payload,
                "/healthz": health_payload,
                "/dashboard": dashboard,
            }
        self.publishes += 1

    # ------------------------------------------------------------------
    # paced engine drive (engine thread)
    # ------------------------------------------------------------------
    def drive(self, sim: "Simulator",
              run_fn: Optional[Callable[..., float]] = None) -> None:
        """Advance the engine in bounded slices and (when paced) sleep
        to hold the sim-seconds-per-wall-second ratio.  Unpaced, every
        slice boundary publishes; paced or idling, a boundary publishes
        once ``PUBLISH_WALL_S`` has passed since the last publish."""
        if run_fn is None:
            run_fn = sim.run
        window = self.session.window
        if self.pace > 0:
            slice_sim = self.pace * SLICE_WALL_S
        elif window is not None:
            slice_sim = window.window_s
        else:
            slice_sim = 100.0
        wall_start = time.perf_counter()
        published = wall_start
        sim_start = sim.now
        registry = self.session.registry
        while True:
            # Slice boundary: the engine is paused, so this is the one
            # safe instant to serve snapshot requests and to turn
            # queued ingest specs into scheduled submissions.
            self._service_control(sim)
            admitted = self._admit_ingest(sim)
            if not sim.has_non_daemon_work and not admitted:
                with self._ingest_lock:
                    holding = self._ingest_holds > 0
                if not holding:
                    break
                # Simulation ran dry but an ingest source is still
                # open: idle at wall pace until jobs arrive or the
                # source closes.  Waiting for work is not falling
                # behind, so the real-time schedule moves past the wait
                # and ``sim_lag_s`` counts only time spent running.
                published = self._publish_due(published)
                idle = time.perf_counter()
                time.sleep(SLICE_WALL_S)
                wall_start += time.perf_counter() - idle
                continue
            run_fn(until=sim.now + slice_sim)
            if self.pace > 0:
                expected = (sim.now - sim_start) / self.pace
                actual = time.perf_counter() - wall_start
                lag = actual - expected
                self.sim_lag_s = max(0.0, lag)
                if self.sim_lag_s > self.sim_lag_max_s:
                    self.sim_lag_max_s = self.sim_lag_s
                if window is not None:
                    window.record_sim_lag(self.sim_lag_s)
                registry.gauge("sim_lag_s").set(self.sim_lag_s)
                published = self._publish_due(published)
                if lag < 0:
                    time.sleep(min(-lag, SLICE_WALL_S))
            else:
                self.publish()
        # Final drain so a checkpoint request racing the last slice
        # cannot hang until its timeout.
        self._service_control(sim)
        self.publish()

    def _publish_due(self, published: float) -> float:
        """Publish if ``PUBLISH_WALL_S`` has passed since
        ``published``; returns the time of the latest publish."""
        now = time.perf_counter()
        if now - published < PUBLISH_WALL_S:
            return published
        self.publish()
        return now

    def aggregate(self) -> Dict[str, float]:
        """Flat gauges for ``RunSummary.extra`` (``obs.live_*``)."""
        out = {
            "live_publishes": float(self.publishes),
            "live_requests": float(self.requests_served),
        }
        if self.pace > 0:
            out["live_pace_sim_per_wall"] = self.pace
            out["live_sim_lag_max_s"] = self.sim_lag_max_s
        if self.jobs_received:
            out["live_jobs_received"] = float(self.jobs_received)
            out["live_jobs_admitted"] = float(self.jobs_admitted)
            out["live_jobs_rejected"] = float(self.jobs_rejected)
        return out


__all__ = ["LiveMonitor", "SLICE_WALL_S", "PUBLISH_WALL_S",
           "CONTROL_TIMEOUT_S", "POOL_WORKERS", "QUEUE_BOUND",
           "READ_TIMEOUT_S", "MAX_HEAD_BYTES", "MAX_HEADER_LINES",
           "MAX_BODY_BYTES", "RETRY_AFTER_S", "RequestHead",
           "parse_request_head", "validate_job_spec"]
