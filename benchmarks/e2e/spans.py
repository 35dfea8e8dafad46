"""In-memory span tracing of the program, from outside the program.

Class-level wrappers around the program's public functions record one
span per call — name, layer, start, end, parent span, and the job id
when the call takes a ``Job`` — or, for calls too hot to span, only a
count.  :meth:`Tracer.installed` puts the wrappers in place around one
workload's entry calls and removes them after; nothing under ``src/``
knows about them.

Self time (a span's duration minus the time its child spans cover) is
accumulated online per ``(span, parent span)`` pair, so every call is
attributed even though the Chrome trace written at exit keeps only the
first ``MAX_SPANS`` spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

SPAN = "span"
COUNT = "count"

#: Spans kept for the Chrome trace (the totals count every call).
MAX_SPANS = 100_000


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``owner`` is ``"module:Class"`` or
    ``"module"``; ``job_arg`` the positional index (``self`` is 0) of
    a ``Job`` argument; ``distinct`` maps the call's arguments to a key
    whose distinct values are counted."""

    owner: str
    attr: str
    layer: str
    mode: str = SPAN
    job_arg: Optional[int] = None
    keep_durations: bool = False
    count_hits: bool = False
    distinct: Optional[Callable[[tuple], object]] = None

    @property
    def name(self) -> str:
        _, _, cls = self.owner.partition(":")
        return f"{cls}.{self.attr}" if cls else self.attr


def _reservation_id(args: tuple) -> object:
    return args[1].reservation_id


#: The program's public functions, grouped by layer (module).
TARGETS: Tuple[Target, ...] = (
    Target("repro.sim.engine:Simulator", "run", "sim"),
    Target("repro.sim.engine:Simulator", "schedule_at", "sim", COUNT),
    Target("repro.cluster.workstation:Workstation", "add_job",
           "cluster.workstation", job_arg=1),
    Target("repro.cluster.workstation:Workstation", "remove_job",
           "cluster.workstation", job_arg=1),
    Target("repro.cluster.workstation:Workstation", "accepts_migration",
           "cluster.workstation", COUNT),
    Target("repro.cluster.memory:PagingModel", "assess", "cluster.memory"),
    Target("repro.cluster.network:Network", "migrate", "cluster.network"),
    Target("repro.cluster.loadinfo:LoadInfoDirectory", "refresh",
           "cluster.loadinfo"),
    Target("repro.cluster.loadinfo:LoadInfoDirectory", "accepting_ids",
           "cluster.loadinfo"),
    Target("repro.cluster.loadinfo:LoadInfoDirectory", "load_order_ids",
           "cluster.loadinfo"),
    Target("repro.cluster.loadinfo:LoadInfoDirectory", "snapshots",
           "cluster.loadinfo"),
    Target("repro.cluster.domains:DomainDirectory", "refresh",
           "cluster.domains"),
    Target("repro.cluster.domains:DomainDirectory", "accepting_ids",
           "cluster.domains"),
    Target("repro.cluster.domains:DomainDirectory", "load_order_ids",
           "cluster.domains"),
    Target("repro.cluster.domains:DomainDirectory", "ranked_remote_domains",
           "cluster.domains"),
    Target("repro.cluster.domains:DomainDirectory", "summaries",
           "cluster.domains"),
    Target("repro.scheduling.base:LoadSharingPolicy", "submit",
           "scheduling", job_arg=1),
    Target("repro.scheduling.g_loadsharing:GLoadSharing", "select_node",
           "scheduling", job_arg=1),
    Target("repro.scheduling.base:LoadSharingPolicy",
           "find_migration_destination", "scheduling", job_arg=1,
           count_hits=True),
    Target("repro.scheduling.base:LoadSharingPolicy",
           "candidates_by_idle_memory", "scheduling"),
    Target("repro.scheduling.base:LoadSharingPolicy", "migrate",
           "scheduling", job_arg=1),
    Target("repro.core.reconfiguration:VReconfiguration", "on_blocking",
           "core", job_arg=2),
    Target("repro.core.blocking:BlockingDetector", "assess", "core"),
    Target("repro.core.reservation:ReservationManager", "reserve", "core"),
    Target("repro.core.reservation:ReservationManager", "assign", "core",
           job_arg=2, distinct=_reservation_id),
    Target("repro.core.reservation:ReservationManager", "release", "core"),
    Target("repro.metrics.collector:MetricsCollector", "sample", "metrics"),
    # Called through the module (the workloads and checkpoint.resume
    # look it up at call time), so the module attribute is wrapped.
    Target("repro.metrics.summary", "summarize_run", "metrics"),
    Target("repro.obs.live:LiveMonitor", "publish", "obs",
           keep_durations=True),
    Target("repro.obs.live:LiveMonitor", "handle_submit", "obs",
           keep_durations=True),
    Target("repro.obs.sampler:ClusterSampler", "sample", "obs"),
    Target("repro.obs.health:HealthEngine", "evaluate", "obs"),
    Target("repro.workload.generator:TraceGenerator", "build", "setup"),
    Target("repro.workload.trace:Trace", "build_jobs", "setup"),
    Target("repro.cluster.cluster:Cluster", "__init__", "setup"),
)

_MISSING = object()


class _ThreadState:
    """Per-thread span stack and accumulators (merged at report time,
    so the hot path takes no lock)."""

    __slots__ = ("tid", "stack", "self_time", "calls", "hits",
                 "durations", "distinct", "roots")

    def __init__(self, tid: int):
        self.tid = tid
        #: Open spans: [name, start, child time, span id].
        self.stack: List[list] = []
        self.self_time: Dict[Tuple[str, Optional[str]], float] = {}
        self.calls: Dict[str, int] = {}
        self.hits: Dict[str, int] = {}
        self.durations: Dict[str, List[float]] = {}
        self.distinct: Dict[str, set] = {}
        #: Summed duration of the root spans, by name.
        self.roots: Dict[str, float] = {}


@dataclass
class Totals:
    """Merged tracer accumulators of every thread."""

    self_time: Dict[Tuple[str, Optional[str]], float]
    calls: Dict[str, int]
    hits: Dict[str, int]
    durations: Dict[str, List[float]]
    distinct: Dict[str, int]
    #: Summed duration of the root spans, by name.
    roots: Dict[str, float]
    spans: int

    def self_s(self, *names: str, parent: Optional[str] = None) -> float:
        """Self time of spans named ``names`` (under ``parent`` only,
        when given)."""
        return sum(t for (name, par), t in self.self_time.items()
                   if name in names and (parent is None or par == parent))

    @property
    def root_time(self) -> float:
        return sum(self.roots.values())

    def root_s(self, prefix: str) -> float:
        """Summed duration of the root spans whose name starts with
        ``prefix``."""
        return sum(t for name, t in self.roots.items()
                   if name.startswith(prefix))

    def count(self, *names: str) -> int:
        return sum(self.calls.get(name, 0) for name in names)


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        #: Recorded spans: (id, parent id, name, layer, tid, start, end,
        #: job id).  Parent id 0 marks a root span.
        self.spans: List[tuple] = []
        self.epoch = perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self._states) + 1)
                self._states.append(state)
            self._local.state = state
            return state

    def _open(self, state: _ThreadState, name: str) -> list:
        frame = [name, perf_counter(), 0.0, next(self._ids)]
        state.stack.append(frame)
        return frame

    def _close(self, state: _ThreadState, frame: list, layer: str,
               job: Optional[int]) -> float:
        end = perf_counter()
        stack = state.stack
        stack.pop()
        parent = stack[-1] if stack else None
        duration = end - frame[1]
        key = (frame[0], parent[0] if parent is not None else None)
        state.self_time[key] = (state.self_time.get(key, 0.0)
                                + duration - frame[2])
        state.calls[frame[0]] = state.calls.get(frame[0], 0) + 1
        if parent is not None:
            parent[2] += duration
        else:
            state.roots[frame[0]] = state.roots.get(frame[0], 0.0) + duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((frame[3], parent[3] if parent else 0,
                               frame[0], layer, state.tid, frame[1], end,
                               job))
        return duration

    @contextmanager
    def span(self, name: str, layer: str):
        """A span around a block of the benchmark's own code (the
        operation root, checkpoint calls the workload makes itself)."""
        state = self._state()
        frame = self._open(state, name)
        try:
            yield
        finally:
            self._close(state, frame, layer, None)

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, target: Target) -> Callable:
        name, layer = target.name, target.layer
        state_of = self._state
        if target.mode == COUNT:
            def counted(*args, **kwargs):
                calls = state_of().calls
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return functools.wraps(fn)(counted)

        open_, close = self._open, self._close
        job_arg, keep = target.job_arg, target.keep_durations
        hits, distinct = target.count_hits, target.distinct

        def spanned(*args, **kwargs):
            state = state_of()
            stack = state.stack
            if stack and stack[-1][0] == name:
                # A super() chain re-entering the same function is one
                # call, not a nested one.
                return fn(*args, **kwargs)
            frame = open_(state, name)
            job = None
            try:
                result = fn(*args, **kwargs)
            finally:
                if job_arg is not None and len(args) > job_arg:
                    job = getattr(args[job_arg], "job_id", None)
                duration = close(state, frame, layer, job)
            if keep:
                state.durations.setdefault(name, []).append(duration)
            if hits and result is not None:
                state.hits[name] = state.hits.get(name, 0) + 1
            if distinct is not None:
                state.distinct.setdefault(name, set()).add(distinct(args))
            return result
        return functools.wraps(fn)(spanned)

    def install(self) -> None:
        for target in TARGETS:
            module_name, _, cls_name = target.owner.partition(":")
            owner = importlib.import_module(module_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            own = vars(owner).get(target.attr, _MISSING)
            original = getattr(owner, target.attr)
            setattr(owner, target.attr, self._wrap(original, target))
            self._patches.append((owner, target.attr, own))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # reports
    # ------------------------------------------------------------------
    def totals(self) -> Totals:
        self_time: Dict[Tuple[str, Optional[str]], float] = {}
        calls: Dict[str, int] = {}
        hits: Dict[str, int] = {}
        durations: Dict[str, List[float]] = {}
        distinct: Dict[str, set] = {}
        roots: Dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, value in state.self_time.items():
                self_time[key] = self_time.get(key, 0.0) + value
            for source, into in ((state.calls, calls), (state.hits, hits),
                                 (state.roots, roots)):
                for key, value in source.items():
                    into[key] = into.get(key, 0) + value
            for key, values in state.durations.items():
                durations.setdefault(key, []).extend(values)
            for key, values in state.distinct.items():
                distinct.setdefault(key, set()).update(values)
        return Totals(self_time=self_time, calls=calls, hits=hits,
                      durations=durations,
                      distinct={k: len(v) for k, v in distinct.items()},
                      roots=roots, spans=len(self.spans))

    def write_chrome_trace(self, path: str, meta: dict) -> int:
        """Write the recorded spans as Chrome trace-event JSON (load in
        ui.perfetto.dev); returns the number of spans written."""
        events = []
        for span_id, parent, name, layer, tid, start, end, job in self.spans:
            args = {"span": span_id, "parent": parent}
            if job is not None:
                args["job"] = job
            events.append({"name": name, "cat": layer, "ph": "X",
                           "pid": 1, "tid": tid,
                           "ts": round((start - self.epoch) * 1e6, 3),
                           "dur": round((end - start) * 1e6, 3),
                           "args": args})
        with open(path, "w", encoding="utf-8") as stream:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": meta}, stream)
        return len(events)
