"""The five workloads of the end-to-end benchmark.

Each workload runs in a fresh process (see ``run.py``), drives the
program only through its public entry points (the world ``run_trace``
builds, from ``Cluster``/``POLICIES``/``MetricsCollector``, run by
``Simulator.run``; ``ObsSession`` and its HTTP server;
``snapshot_bytes``/``restore_bytes``/``fork``/``resume``),
measures for about ``seconds`` of wall time, and checks every output.
It returns a :class:`Measurement`; ``run.py`` turns it into metrics.

Timing boundaries: an operation's *set-up* runs from the start of input
generation to the engine's first ``Simulator.run`` call; its *run* from
there to the summary.  An *answer* is what one request of the workload
waits for (see ``README.md``).  These times are in reference-host
seconds (see ``host.py``): the wall time of each stretch of work, a
quarter second or less where the program can be paused, is scaled by
the host's speed measured just before and after it.  A run reports the
median over its repetitions.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import itertools
import json
import math
import statistics
import sys
import threading
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.experiments.runner import POLICIES, default_config
from repro.metrics.collector import MetricsCollector, PolicyPendingProbe
from repro.metrics import summary as run_summary
from repro.obs.session import ObsSession
from repro.sim.checkpoint import fork, restore_bytes, resume, snapshot_bytes
from repro.sim.engine import Simulator
from repro.workload.programs import WorkloadGroup

import inputs
import loadgen
from host import HostClock

SPEC, APP = WorkloadGroup.SPEC, WorkloadGroup.APP
G, V = "g-loadsharing", "v-reconfiguration"


# ----------------------------------------------------------------------
# measurement records
# ----------------------------------------------------------------------
class Extra(NamedTuple):
    """A workload-specific number."""

    value: float
    unit: str
    #: ``"lower"`` or ``"higher"`` is better; ``None`` for a count that
    #: is neither.
    better: Optional[str] = "lower"


@dataclass
class Measurement:
    """What one workload run measured (times in reference-host
    seconds)."""

    setups: List[float] = field(default_factory=list)
    #: Time of one pass of the workload's work.
    run_s: float = 0.0
    #: What one request of the workload waits for.
    answer_s: float = 0.0
    #: Engine events executed, and the time spent running them.
    events: int = 0
    event_run_s: float = 0.0
    #: Summary digests by operation key (checked against goldens and
    #: across repetitions, traced and untraced).
    digests: Dict[str, str] = field(default_factory=dict)
    #: Workload-specific numbers by name.
    extras: Dict[str, Extra] = field(default_factory=dict)
    #: Domain-directory summary rounds (the domains layer's refreshes).
    domain_rounds: int = 0


def summary_digest(summary) -> str:
    """Stable digest of every field of a ``RunSummary``."""
    text = json.dumps(dataclasses.asdict(summary), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


class _Op:
    def __init__(self, label: str):
        self.label = label
        self.problems: List[str] = []

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


class Ledger:
    """Counts operations and their failures, and checks outputs.

    ``goldens`` maps operation keys to the committed summary digests
    of this workload and seed (empty for seeds without goldens).
    """

    def __init__(self, goldens: Optional[Dict[str, str]] = None):
        self.goldens = goldens or {}
        self.attempted = 0
        self.failed = 0
        #: Wall time of the operations run under an ``op ...`` span,
        #: measured outside the span (the traced-run guard compares
        #: the tracer's root spans with it).
        self.spanned_s = 0.0

    @contextmanager
    def op(self, label: str, span=None):
        """One operation; with ``span`` (a span factory, see
        ``_spans``) it also runs under an ``op <label>`` root span."""
        op = _Op(label)
        self.attempted += 1
        start = perf_counter()
        try:
            with span(f"op {label}", "harness") if span else nullcontext():
                yield op
        except Exception:  # noqa: BLE001 - one broken operation must
            # not hide the rest of the run; it is counted and reported.
            traceback.print_exc(file=sys.stderr)
            op.problems.append("raised")
        if span:
            self.spanned_s += perf_counter() - start
        if op.problems:
            self.failed += 1
            print(f"[e2e] {label}: FAILED ({'; '.join(op.problems)})",
                  file=sys.stderr)

    def expect(self, op: _Op, key: str, summary,
               measurement: Measurement) -> None:
        """Digest ``summary``; it must equal the golden (when the seed
        has goldens) and every earlier repetition of the same key."""
        digest = summary_digest(summary)
        seen = measurement.digests.setdefault(key, digest)
        op.check(seen == digest, f"{key}: summary differs between repetitions")
        if self.goldens:
            golden = self.goldens.get(key)
            op.check(golden == digest,
                     f"{key}: digest {digest} != golden {golden}")


def check_summary(op: _Op, summary, num_jobs: int) -> None:
    """Invariants every drained run satisfies, for any seed."""
    op.check(summary.num_jobs == num_jobs,
             f"{summary.num_jobs} jobs summarized, {num_jobs} submitted")
    op.check(math.isfinite(summary.makespan_s) and summary.makespan_s > 0,
             f"makespan {summary.makespan_s!r}")
    op.check(min(summary.slowdowns, default=1.0) >= 1.0 - 1e-9,
             "a job ran faster than dedicated execution")


class EngineProbe:
    """Class-level wrapper on ``Simulator.run`` recording when each
    call starts: the first starts the live engine's time.  ``hook``
    runs at every call (the live workload samples admissions there)."""

    def __init__(self, hook: Optional[Callable[[], None]] = None):
        self.hook = hook
        self.calls: List[float] = []

    def __enter__(self) -> "EngineProbe":
        self._original = vars(Simulator)["run"]
        original, calls, hook = self._original, self.calls, self.hook

        @functools.wraps(original)
        def run(sim, *args, **kwargs):
            calls.append(perf_counter())
            if hook is not None:
                hook()
            return original(sim, *args, **kwargs)

        Simulator.run = run
        return self

    def __exit__(self, *exc) -> None:
        Simulator.run = self._original

    @property
    def first(self) -> float:
        return self.calls[0]


#: Wall seconds between host-speed samples while the engine runs.
LAP_S = 0.25
#: Engine events between checks of the lap time.
CHUNK_EVENTS = 500


@contextmanager
def lapped_runs(clock: HostClock):
    """Class-level wrapper on ``Simulator.run``: an open-ended run
    (``run()``, as ``run_trace`` and ``resume`` make) executes in chunks
    of ``CHUNK_EVENTS`` — the same events in the same order — and laps
    ``clock`` about every ``LAP_S`` of wall time, so a long run is timed
    in short stretches.  Installed inside the tracer's wrappers, so the
    sampling stays outside the engine's spans."""
    original = vars(Simulator)["run"]

    @functools.wraps(original)
    def run(sim, until=None, max_events=None):
        if until is not None or max_events is not None:
            return original(sim, until, max_events)
        lap_start = perf_counter()
        while sim.has_non_daemon_work:
            original(sim, max_events=CHUNK_EVENTS)
            if perf_counter() - lap_start >= LAP_S:
                clock.lap()
                lap_start = perf_counter()
        return sim.now

    Simulator.run = run
    try:
        yield
    finally:
        Simulator.run = original


def settle() -> None:
    """Collect the previous operation's cyclic garbage (a finished
    world is one big cycle) outside any timed region, so one
    operation's leftovers neither pause the next nor raise its memory
    peak."""
    gc.collect()


def _spans(tracer):
    return tracer.span if tracer is not None else (
        lambda name, layer: nullcontext())


# ----------------------------------------------------------------------
# explicit world construction (the engine runs in laps; whatif_fork
# pauses it for snapshots; live_ingest needs the session's server before
# the engine starts)
# ----------------------------------------------------------------------
@dataclass
class World:
    cluster: Cluster
    policy: object
    collector: MetricsCollector
    jobs: list
    trace_name: str

    def summarize(self):
        # Looked up at call time, so the tracer's wrapper applies.
        return run_summary.summarize_run(self.policy, self.jobs,
                                         self.collector, self.trace_name)


def build_world(trace, policy_name: str, config,
                obs: Optional[ObsSession] = None) -> World:
    """The world ``run_trace`` builds, left unstarted (same wiring
    order, so summaries match ``run_trace``'s, which the goldens pin)."""
    cluster = Cluster(config)
    policy = POLICIES[policy_name](cluster)
    collector = MetricsCollector(cluster,
                                 pending_probe=PolicyPendingProbe(policy))
    if obs is not None:
        obs.attach(cluster, policy=policy)
    jobs = trace.build_jobs()
    for job in jobs:
        cluster.sim.schedule_at(job.submit_time,
                                functools.partial(policy.submit, job))
    if obs is not None:
        obs.bind_run(collector=collector, jobs=jobs, trace_name=trace.name)
    return World(cluster, policy, collector, jobs, trace.name)


# ----------------------------------------------------------------------
# simulation workloads made of cells (paper_sweep, blocking_heavy,
# scaled_domains)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Cell:
    """One (input, policy, cluster) run of a simulation workload.
    ``copies=None`` runs the paper trace itself on 32 nodes."""

    group: WorkloadGroup
    index: int
    policy: str
    copies: Optional[int] = None
    domains: int = 1

    @property
    def key(self) -> str:
        size = "" if self.copies is None else f"x{self.copies}"
        domains = f"/d{self.domains}" if self.domains > 1 else ""
        return f"{self.group.value}-{self.index}{size}/{self.policy}{domains}"

    def build(self, seed: int):
        if self.copies is None:
            trace = inputs.paper_trace(self.group, self.index, seed)
            nodes = inputs.PAPER_NODES
        else:
            trace = inputs.tiled_trace(self.group, self.index, seed,
                                       self.copies)
            nodes = inputs.PAPER_NODES * self.copies
        config = default_config(self.group).replace(num_nodes=nodes,
                                                    domains=self.domains)
        return trace, config


#: The paper's evaluation: 10 traces x {G, V} at full scale, 32 nodes.
PAPER_SWEEP = tuple(Cell(group, index, policy)
                    for group in (SPEC, APP) for index in range(1, 6)
                    for policy in (G, V))

#: The paper's blocking regime at scale (see README for the choice).
BLOCKING_HEAVY = (Cell(APP, 5, V, copies=3),)

#: The only workload on the domain-sharded directory.
SCALED_DOMAINS = (Cell(SPEC, 3, V, copies=16, domains=16),)

#: Set-up-only rounds per run, ahead of the measured operations: set-up
#: is short and jittery (a live set-up ranges 15-37 ms within one
#: process), so extra samples steady its median.
SETUP_ROUNDS = 9


def time_setups(cells: Tuple[Cell, ...], seed: int, clock: HostClock,
                setups: Dict[str, List[float]]) -> None:
    """``SETUP_ROUNDS`` set-ups of every cell, each discarded: input
    generation plus the world ``run_trace`` builds before its engine
    starts.  The host's speed is sampled once per round."""
    for _ in range(SETUP_ROUNDS):
        walls = []
        for cell in cells:
            start = perf_counter()
            trace, config = cell.build(seed)
            build_world(trace, cell.policy, config)
            walls.append(perf_counter() - start)
            settle()
        scale = clock.scale()
        for cell, wall in zip(cells, walls):
            setups.setdefault(cell.key, []).append(wall * scale)


def run_cell(cell: Cell, seed: int, clock: HostClock):
    """Build one cell's input and world and run it to its summary, as
    ``run_trace`` does (the goldens pin the two to the same summary);
    returns ``(trace, world, summary, setup_s, run_s)``.  Call under
    :func:`lapped_runs`."""
    clock.restart()
    trace, config = cell.build(seed)
    world = build_world(trace, cell.policy, config)
    setup = clock.lap()
    before = clock.total
    world.cluster.sim.run()
    summary = world.summarize()
    clock.lap()
    return trace, world, summary, setup, clock.total - before


def measure_cells(cells: Tuple[Cell, ...], seed: int, seconds: float,
                  ledger: Ledger, tracer=None) -> Measurement:
    """Set up and run the cells round-robin for ``seconds`` (at least
    one full round).  ``run_s`` is one pass: the sum of each cell's
    median run time; the answer is one pass with its set-ups (what a
    user of the sweep waits for).  Per-cell medians, so cells repeated
    by a partial last round do not shift them."""
    m = Measurement()
    span = _spans(tracer)
    clock = HostClock()
    runs: Dict[str, List[float]] = {cell.key: [] for cell in cells}
    answers: Dict[str, List[float]] = {cell.key: [] for cell in cells}
    setups: Dict[str, List[float]] = {cell.key: [] for cell in cells}
    deadline = perf_counter() + seconds
    time_setups(cells, seed, clock, setups)
    for i in itertools.count():
        if i >= len(cells) and perf_counter() >= deadline:
            break
        cell = cells[i % len(cells)]
        with ledger.op(cell.key, span) as op, lapped_runs(clock):
            trace, world, summary, setup, run = run_cell(cell, seed, clock)
            check_summary(op, summary, trace.num_jobs)
            ledger.expect(op, cell.key, summary, m)
            setups[cell.key].append(setup)
            answers[cell.key].append(setup + run)
            runs[cell.key].append(run)
            m.events += world.cluster.sim.event_count
            m.event_run_s += run
            m.domain_rounds += getattr(world.cluster.directory,
                                       "summary_rounds", 0)
            del world
        settle()
    m.run_s = sum(statistics.median(v) for v in runs.values() if v)
    m.answer_s = sum(statistics.median(v) for v in answers.values() if v)
    m.setups = [statistics.median(v) for v in setups.values() if v]
    m.extras["passes"] = Extra(min(len(v) for v in runs.values()), "count",
                               None)
    m.extras["host.slowdown"] = Extra(clock.slowdown, "ratio", None)
    return m


def paper_sweep(seed, seconds, ledger, tracer=None):
    return measure_cells(PAPER_SWEEP, seed, seconds, ledger, tracer)


def blocking_heavy(seed, seconds, ledger, tracer=None):
    return measure_cells(BLOCKING_HEAVY, seed, seconds, ledger, tracer)


def scaled_domains(seed, seconds, ledger, tracer=None):
    return measure_cells(SCALED_DOMAINS, seed, seconds, ledger, tracer)


# ----------------------------------------------------------------------
# whatif_fork
# ----------------------------------------------------------------------
WHATIF_INPUT = Cell(SPEC, 3, G, copies=4)
WHATIF_FORK_POLICY = V
SNAPSHOT_EVERY_S = 300.0
FORK_AT_S = 1800.0
FORKS_PER_PASS = 2


def run_with_snapshots(world: World, horizon_s: float, span,
                       clock: HostClock, sizes: List[int],
                       durations: List[float]) -> bytes:
    """Run to completion, snapshotting every ``SNAPSHOT_EVERY_S``
    simulated seconds before ``horizon_s`` (the trace's arrival window,
    so every seed takes the same number of snapshots) and lapping
    ``clock`` after each; returns the ``FORK_AT_S`` snapshot.  Call
    under :func:`lapped_runs`."""
    sim = world.cluster.sim
    fork_point = b""
    for k in itertools.count(1):
        at = k * SNAPSHOT_EVERY_S
        if at >= horizon_s:
            break
        sim.run(until=at)
        start = perf_counter()
        with span("snapshot_bytes", "sim.checkpoint"):
            data = snapshot_bytes(cluster=world.cluster, policy=world.policy,
                                  collector=world.collector,
                                  jobs=world.jobs,
                                  trace_name=world.trace_name)
        durations.append(perf_counter() - start)
        sizes.append(len(data))
        if at == FORK_AT_S:
            fork_point = data
        clock.lap()
    sim.run()
    return fork_point


def restore_and_resume(data: bytes, policy: Optional[str], span,
                       restores: List[float], resumes: List[float]):
    """``restore_bytes`` + ``fork`` (``policy=None`` keeps the
    checkpointed one) + ``resume`` to the summary."""
    start = perf_counter()
    with span("restore_bytes", "sim.checkpoint"):
        restored = restore_bytes(data)
    with span("fork", "sim.checkpoint"):
        restored = fork(restored, policy=policy)
    middle = perf_counter()
    with span("resume", "sim.checkpoint"):
        result = resume(restored)
    restores.append(middle - start)
    resumes.append(perf_counter() - middle)
    return result


def whatif_fork(seed, seconds, ledger, tracer=None):
    """Passes of: a G-Loadsharing base run snapshotted every 300 sim-s;
    the t=1800 snapshot restored as a control branch that must equal
    the base run; and forks of it to V-Reconfiguration (the answers).
    ``run_s`` is the median base run with its snapshots, the answer the
    median fork."""
    m = Measurement()
    span = _spans(tracer)
    clock = HostClock()
    runs: List[float] = []
    answers: List[float] = []
    sizes: List[int] = []
    snap_s: List[float] = []
    restores: List[float] = []
    resumes: List[float] = []
    setups: Dict[str, List[float]] = {}
    deadline = perf_counter() + seconds
    time_setups((WHATIF_INPUT,), seed, clock, setups)
    m.setups = setups[WHATIF_INPUT.key]
    passes = 0
    while not passes or perf_counter() < deadline:
        passes += 1
        fork_point = None
        with ledger.op("base", span) as op, lapped_runs(clock):
            clock.restart()
            trace, config = WHATIF_INPUT.build(seed)
            world = build_world(trace, WHATIF_INPUT.policy, config)
            setup = clock.lap()
            before = clock.total
            fork_point = run_with_snapshots(world, trace.duration_s, span,
                                            clock, sizes, snap_s)
            base = world.summarize()
            clock.lap()
            run = clock.total - before
            op.check(bool(fork_point), f"no snapshot at t={FORK_AT_S:g}")
            check_summary(op, base, trace.num_jobs)
            ledger.expect(op, "base", base, m)
            m.setups.append(setup)
            runs.append(run)
            m.events += world.cluster.sim.event_count
            m.event_run_s += run
            num_jobs = trace.num_jobs
            del world
        settle()
        if not fork_point:
            break
        with ledger.op("control", span) as op:
            control = restore_and_resume(fork_point, None, span, [], [])
            op.check(dataclasses.asdict(control.summary)
                     == dataclasses.asdict(base),
                     "control branch differs from the uninterrupted run")
            del control
        settle()
        for _ in range(FORKS_PER_PASS):
            with ledger.op("fork", span) as op, lapped_runs(clock):
                clock.restart()
                before = clock.total
                forked = restore_and_resume(fork_point, WHATIF_FORK_POLICY,
                                            span, restores, resumes)
                clock.lap()
                answers.append(clock.total - before)
                check_summary(op, forked.summary, num_jobs)
                op.check(forked.summary.policy != base.policy,
                         "fork kept the base policy")
                ledger.expect(op, "fork", forked.summary, m)
                del forked
            settle()
    m.run_s = statistics.median(runs) if runs else 0.0
    m.answer_s = statistics.median(answers) if answers else 0.0
    if sizes:
        m.extras.update({
            "checkpoint.snapshots": Extra(len(sizes) // passes, "count",
                                          None),
            "checkpoint.snapshot_p50_ms": Extra(
                statistics.median(snap_s) * 1e3, "ms"),
            "checkpoint.snapshot_kb": Extra(statistics.median(sizes) / 1024,
                                            "kB"),
        })
    if restores:
        m.extras.update({
            "checkpoint.restore_s": Extra(statistics.median(restores), "s"),
            "checkpoint.resume_s": Extra(statistics.median(resumes), "s"),
        })
    m.extras["passes"] = Extra(passes, "count", None)
    m.extras["host.slowdown"] = Extra(clock.slowdown, "ratio", None)
    return m


# ----------------------------------------------------------------------
# live_ingest
# ----------------------------------------------------------------------
LIVE_INPUT = Cell(SPEC, 3, V)
LIVE_PACE = 1000.0          # simulated seconds per wall second
LIVE_WINDOW_S = 50.0
LIVE_SAMPLE_PERIOD_S = 10.0
BATCH_JOBS = 8              # jobs per POST
#: 80 POSTs/s: a sixth of the closed loop's capacity on a quiet host and
#: a third at the host's 2x slow spells, so the open loop's latency stays
#: a service time, not a queue that grows with the host's slowdown.
OPEN_RATE_JOBS_PER_S = 640.0
OPEN_SHARE = 0.9            # share of the run spent in the open loop
BURST_JOBS = 1000           # jobs per closed-loop burst
CLOSED_BURSTS = 8


def live_world(seed: int):
    """Set up one live run: trace, cluster, policy, collector and a
    serving, paced ``ObsSession`` with default health rules."""
    trace, config = LIVE_INPUT.build(seed)
    session = ObsSession(record_events=False,
                         run_label=f"e2e-live-{seed}",
                         window_s=LIVE_WINDOW_S,
                         sample_period=LIVE_SAMPLE_PERIOD_S,
                         serve=0, pace=LIVE_PACE)
    world = build_world(trace, LIVE_INPUT.policy, config, obs=session)
    return trace, world, session


def live_ingest(seed, seconds, ledger, tracer=None):
    """One paced live run fed over HTTP: an open loop at
    ``OPEN_RATE_JOBS_PER_S`` for ``OPEN_SHARE`` of ``seconds``, then a
    closed loop of ``CLOSED_BURSTS`` bursts of ``BURST_JOBS``; every
    accepted job must then be admitted.  The answer is the median
    open-loop POST from its send to its 202, ``run_s`` the median burst
    (first send to last reply).  The host's speed is sampled between
    the open loop's one-second segments and around each burst."""
    m = Measurement()
    span = _spans(tracer)
    clock = HostClock()
    for _ in range(SETUP_ROUNDS):
        start = perf_counter()
        _, _, session = live_world(seed)
        wall = perf_counter() - start
        session.close()
        m.setups.append(wall * clock.scale())
        settle()

    interval = BATCH_JOBS / OPEN_RATE_JOBS_PER_S
    open_batches = inputs.ingest_batches(
        seed, max(1, int(OPEN_SHARE * seconds / interval)), BATCH_JOBS)
    closed_batches = inputs.ingest_batches(
        seed + 1, CLOSED_BURSTS * BURST_JOBS // BATCH_JOBS, BATCH_JOBS)
    per_burst = BURST_JOBS // BATCH_JOBS
    bursts = [closed_batches[i:i + per_burst]
              for i in range(0, len(closed_batches), per_burst)]
    record = loadgen.LoadRecord()
    admissions: List[Tuple[float, int]] = []

    with ledger.op("live run", span) as op:
        clock.restart()
        trace, world, session = live_world(seed)
        m.setups.append(clock.lap())
        monitor = session.live
        monitor.add_ingest_hold()

        def generate() -> None:
            try:
                loadgen.open_loop(monitor.port, open_batches, interval,
                                  record, clock)
                loadgen.closed_loop(monitor.port, bursts,
                                    lambda: monitor.jobs_admitted, record,
                                    clock)
            except Exception as exc:  # noqa: BLE001 - reported below
                record.error = repr(exc)
            finally:
                monitor.release_ingest_hold()

        def sample_admissions() -> None:
            admissions.append((perf_counter(), monitor.jobs_admitted))

        generator = threading.Thread(target=generate, name="e2e-loadgen")
        try:
            with EngineProbe(hook=sample_admissions) as probe:
                generator.start()
                session.run_engine(world.cluster.sim)
            summary = world.summarize()
            session.finalize(summary)
        finally:
            generator.join(timeout=60.0)
            session.close()
        op.check(not generator.is_alive(), "load generator did not stop")
        op.check(record.error is None, f"load generator: {record.error}")
        accepted = record.accepted
        op.check(monitor.jobs_admitted == accepted,
                 f"{monitor.jobs_admitted} jobs admitted, {accepted} "
                 f"accepted")
        op.check(monitor.jobs_rejected == 0,
                 f"{monitor.jobs_rejected} jobs rejected")
        check_summary(op, summary, trace.num_jobs + accepted)
        m.events = world.cluster.sim.event_count
        event_wall_s = perf_counter() - probe.first
        m.extras.update({
            "obs.publishes": Extra(monitor.publishes, "count", None),
            "obs.sim_lag_max_s": Extra(monitor.sim_lag_max_s, "s"),
        })

    if m.events and record.open_scales:
        m.event_run_s = event_wall_s * statistics.median(record.open_scales)
    posts = record.posts
    for post in posts:
        with ledger.op("POST /submit") as op:
            op.check(post.status == 202 and post.accepted == BATCH_JOBS,
                     f"status {post.status}, {post.accepted} accepted")
    latencies = [post.latency_s for post in record.open_posts]
    if latencies:
        m.answer_s = statistics.median(
            post.service_s * scale
            for post, scale in zip(record.open_posts, record.open_scales))
        m.extras["submit_p50_ms"] = Extra(statistics.median(latencies) * 1e3,
                                          "ms")
        m.extras["submit_p99_ms"] = Extra(quantile(latencies, 0.99) * 1e3,
                                          "ms")
        m.extras["loadgen.late_p99_ms"] = Extra(
            quantile([post.late_s for post in record.open_posts], 0.99)
            * 1e3, "ms")
    if record.closed_bursts and record.error is None:
        m.run_s = statistics.median(record.closed_bursts_ref)
        m.extras["ingest_jobs_per_s"] = Extra(
            len(record.closed_bursts) * BURST_JOBS
            / sum(record.closed_bursts), "jobs/s", "higher")
    m.extras["loadgen.posts"] = Extra(len(posts), "count", None)
    admit = _admission_latencies(record.open_posts, admissions)
    if admit:
        m.extras["obs.admit_p99_ms"] = Extra(quantile(admit, 0.99) * 1e3,
                                             "ms")
    m.extras["host.slowdown"] = Extra(clock.slowdown, "ratio", None)
    return m


def _admission_latencies(posts: List[loadgen.Post],
                         admissions: List[Tuple[float, int]]
                         ) -> List[float]:
    """Due time of each open-loop batch until the engine's admitted
    count (sampled at each slice start) first covers it."""
    latencies = []
    covered = 0
    samples = iter(admissions)
    sample = next(samples, None)
    for post in posts:
        covered += post.accepted
        while sample is not None and sample[1] < covered:
            sample = next(samples, None)
        if sample is None:
            break
        latencies.append(sample[0] - post.due)
    return latencies


#: Workload name -> measuring function (seed, seconds, ledger, tracer).
WORKLOADS: Dict[str, Callable[..., Measurement]] = {
    "paper_sweep": paper_sweep,
    "blocking_heavy": blocking_heavy,
    "scaled_domains": scaled_domains,
    "live_ingest": live_ingest,
    "whatif_fork": whatif_fork,
}
