"""ObsSession: wires a run's event bus to a recorder and a registry.

One session observes one run.  ``observe`` subscribes to the run's
channels; during the run the session keeps a structured event list and
live metrics; ``finalize`` folds engine-level gauges in and merges the
snapshot (``obs.``-prefixed) into the run summary's ``extra`` dict so
the numbers survive CSV/JSON export and process boundaries.

Subscription is per-channel: the recorder (event buffer + streaming
JSONL log) subscribes to every channel, but metric derivation is
a per-channel handler table.  A channel with neither a recorder nor a
metric handler is never subscribed at all, so it stays *disabled* and
its emit sites skip payload construction entirely — a metrics-only
session (``record_events=False``, no stream log) leaves the hottest
channel (``cluster.job``, four events per job) switched off.

Channel-to-metric mapping:

==========================  =============================================
channel                     metrics
==========================  =============================================
``cluster.placement``       ``placements_local`` / ``placements_remote``
``cluster.migration``       ``migrations``, ``migration_mb``,
                            ``migration_delay_s`` histogram
``reconfig.blocking``       ``blocking_detections``, ``activation_skipped``
``reconfig.reservation``    ``reservation_<kind>`` counters,
                            ``reservation_lifetime_s`` histogram
``loadinfo.exchange``       ``loadinfo_exchanges``, ``loadinfo_nodes_refreshed``
``memory.fault``            ``thrashing_transitions``
``fault.injection``         ``fault_<kind>`` counters (crash, recover,
                            migration_failed, ...) plus
                            ``fault_lost_jobs``
``obs.alert``               ``alerts_raised_<severity>``, ``alerts_cleared``
==========================  =============================================

Observers schedule no engine event and add nothing to a checkpoint;
the executed event count is read from the engine at finalize.

The live-telemetry extensions (windowed aggregation, health rules, the
HTTP monitoring server, engine self-profiling) are opt-in constructor
parameters; with all of them off the session behaves exactly as the
batch observability stack always has.
"""

from __future__ import annotations

import atexit
import json
import time
from contextlib import contextmanager
from typing import (TYPE_CHECKING, Dict, List, Optional, Sequence, TextIO,
                    Union)

from repro.obs.bus import CHANNELS, EventBus, ObsEvent
from repro.obs.lifecycle import JobLifecycleTracker
from repro.obs.metrics import MetricsRegistry
from repro.obs.sampler import ClusterSampler
from repro.obs.trace_export import write_chrome_trace, write_jsonl

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster
    from repro.experiments.world import World
    from repro.metrics.summary import RunSummary
    from repro.obs.health import HealthEngine
    from repro.obs.live import LiveMonitor
    from repro.obs.profile import EngineProfiler
    from repro.obs.window import WindowAggregator

#: Prefix under which the metrics snapshot lands in ``RunSummary.extra``.
EXTRA_PREFIX = "obs."


class ObsSession:
    """Observation of one run: event recording plus metrics."""

    #: channel name -> metric-handler method name.  Channels absent
    #: from this table derive no session metrics and stay disabled
    #: for metrics-only sessions (``cluster.job``, ``loadinfo.domain``
    #: are consumed only by the optional window aggregator).
    _METRIC_HANDLERS = {
        "cluster.placement": "_metric_placement",
        "cluster.migration": "_metric_migration",
        "reconfig.blocking": "_metric_blocking",
        "reconfig.reservation": "_metric_reservation",
        "loadinfo.exchange": "_metric_exchange",
        "memory.fault": "_metric_memory_fault",
        "fault.injection": "_metric_fault",
        "obs.alert": "_metric_alert",
    }

    def __init__(self, record_events: bool = True,
                 run_label: str = "run",
                 stream_log: Union[str, TextIO, None] = None,
                 lifecycle: bool = False,
                 sample_period: Optional[float] = None,
                 window_s: Optional[float] = None,
                 health_rules: Optional[Sequence[str]] = None,
                 serve: Optional[int] = None,
                 serve_port_file: Optional[str] = None,
                 pace: float = 0.0,
                 profile: bool = False,
                 ingest_stdin: bool = False):
        """``stream_log`` writes every observed event to a line-buffered
        JSONL file *as it happens* — independent of ``record_events``,
        so long runs get a full tail-able log without holding it all.
        ``lifecycle=True`` attaches a
        :class:`~repro.obs.lifecycle.JobLifecycleTracker`;
        ``sample_period`` (seconds of simulated time) attaches a
        :class:`~repro.obs.sampler.ClusterSampler`.  Both fold their
        aggregates into the metrics snapshot at finalize.

        Live-telemetry extensions:

        * ``window_s`` attaches a
          :class:`~repro.obs.window.WindowAggregator` with that window
          width (also attached implicitly, at the default width, when
          serving or health rules need it);
        * ``health_rules`` attaches a
          :class:`~repro.obs.health.HealthEngine` with the given rule
          strings (defaults apply when serving without explicit rules);
        * ``serve`` (a port; 0 means ephemeral) starts a
          :class:`~repro.obs.live.LiveMonitor` HTTP server, with
          ``serve_port_file`` recording the bound port and ``pace``
          (simulated seconds per wall second; 0 = unpaced) bounding
          real-time slices — drive the engine through
          :meth:`run_engine`;
        * ``profile=True`` attaches an
          :class:`~repro.obs.profile.EngineProfiler` around the
          engine's hot entry points.
        """
        self.registry = MetricsRegistry()
        self.events: List[ObsEvent] = []
        self.record_events = record_events
        self.run_label = run_label
        #: The observed run, set by :meth:`observe`.  The live
        #: monitor's control plane (``/checkpoint``, ``/fork``,
        #: ``/submit``) snapshots or extends it.
        self.world: Optional["World"] = None
        self.lifecycle: Optional[JobLifecycleTracker] = (
            JobLifecycleTracker() if lifecycle else None)
        self.sample_period = sample_period
        self.sampler: Optional[ClusterSampler] = None
        self.window_s = window_s
        self.health_rules = health_rules
        self.serve = serve
        self.serve_port_file = serve_port_file
        self.pace = float(pace)
        self.profile = profile
        self.ingest_stdin = ingest_stdin
        self.window: Optional["WindowAggregator"] = None
        self.health: Optional["HealthEngine"] = None
        self.live: Optional["LiveMonitor"] = None
        self.profiler: Optional["EngineProfiler"] = None
        self._stream_target = stream_log
        self._stream: Optional[TextIO] = None
        self._stream_owned = False
        self._streamed_events = 0
        self._summary: Optional["RunSummary"] = None
        self._reserve_started: Dict[int, float] = {}
        self._finalized = False

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def observe(self, world: "World") -> "ObsSession":
        """Subscribe to ``world``'s bus and become its observer, so
        ``world.run()``/``world.finish()`` go through this session.
        Call before the run starts (:meth:`World.build
        <repro.experiments.world.World.build>` does)."""
        if self.world is not None:
            raise ValueError("ObsSession is single-use; already attached")
        self.world = world
        world.obs = self
        cluster = world.cluster
        if self._stream_target is not None:
            if isinstance(self._stream_target, str):
                # Line-buffered so `tail -f` sees each event as the
                # simulation produces it, not at close time.
                self._stream = open(self._stream_target, "w",
                                    encoding="utf-8", buffering=1)
                self._stream_owned = True
                # Interpreter-exit safety net: a served run killed by
                # SIGTERM (systemd stop, ^C wrapper scripts) must not
                # leave a truncated JSONL tail in the streaming log.
                # The runner CLI converts SIGTERM into SystemExit, so
                # atexit handlers run; this one closes the log at a
                # line boundary.  Unregistered on finalize/close.
                atexit.register(self._atexit_flush)
            else:
                self._stream = self._stream_target
        bus: EventBus = cluster.obs
        recording = self.record_events or self._stream is not None
        for name in CHANNELS:
            if recording:
                bus.subscribe(name, self._record)
            handler = self._METRIC_HANDLERS.get(name)
            if handler is not None:
                bus.subscribe(name, getattr(self, handler))
        if self.lifecycle is not None:
            self.lifecycle.attach(bus)
        if self.sample_period is not None:
            self.sampler = ClusterSampler(cluster,
                                          self.sample_period).start()
        self._attach_live_plane(cluster, world.policy)
        return self

    def attach(self, cluster: "Cluster", policy=None) -> "ObsSession":
        """Observe a run wired by hand: a world of ``cluster`` and
        ``policy`` (needed only for the placement/reconfiguration
        self-profiling phases), the rest given by :meth:`bind_run`."""
        from repro.experiments.world import World

        return self.observe(World(cluster, policy))

    def bind_run(self, collector=None, jobs=None,
                 trace_name: Optional[str] = None) -> "ObsSession":
        """Complete a hand-wired world (see :meth:`attach`) with its
        metrics collector, job list and trace name.  With them bound,
        a serving session can checkpoint the run (``/checkpoint``),
        replay it under another policy (``/fork``), and admit streamed
        jobs (``/submit``) — without them those endpoints answer 503."""
        world = self.world
        world.collector = collector
        world.jobs = jobs
        world.trace_name = trace_name
        return self

    def _atexit_flush(self) -> None:
        """Close a session-owned stream log at interpreter exit so an
        interrupted run cannot leave a half-written JSONL line."""
        stream = self._stream
        if stream is not None and self._stream_owned and not stream.closed:
            try:
                stream.flush()
                stream.close()
            except OSError:  # pragma: no cover - exit-path best effort
                pass
        self._stream = None

    def _attach_live_plane(self, cluster: "Cluster", policy) -> None:
        """Wire the opt-in live-telemetry extensions (window
        aggregation, health rules, self-profiling, HTTP server)."""
        want_window = (self.window_s is not None
                       or self.serve is not None
                       or self.health_rules is not None)
        if want_window:
            from repro.obs.window import DEFAULT_WINDOW_S, WindowAggregator
            width = (self.window_s if self.window_s is not None
                     else DEFAULT_WINDOW_S)
            self.window = WindowAggregator(window_s=width).attach(cluster)
        if self.health_rules is not None or self.serve is not None:
            from repro.obs.health import DEFAULT_RULES, HealthEngine
            rules = (self.health_rules if self.health_rules is not None
                     else DEFAULT_RULES)
            self.health = HealthEngine(
                rules, channel=cluster.obs.channel("obs.alert"))
            self.window.add_observer(self.health.evaluate)
        if self.profile:
            from repro.obs.profile import EngineProfiler
            observers = tuple(
                (obj, attr) for obj, attr in ((self.sampler, "sample"),
                                              (self.window, "_close_window"))
                if obj is not None)
            self.profiler = EngineProfiler().attach(
                cluster, policy=policy, observers=observers)
        if self.serve is not None:
            from repro.obs.live import LiveMonitor
            self.live = LiveMonitor(
                self, port=self.serve, pace=self.pace,
                port_file=self.serve_port_file).start()
            if self.ingest_stdin:
                self.live.ingest_stdin()

    # ------------------------------------------------------------------
    # engine driving
    # ------------------------------------------------------------------
    def run_engine(self, sim) -> None:
        """Run the attached cluster's engine to completion through
        whatever live-telemetry wrappers this session carries: the
        profiler's phase span, and (when serving) the live monitor's
        paced slice loop.  With neither, this is just ``sim.run()`` —
        runners can call it unconditionally."""
        if self.profiler is not None:
            profiler = self.profiler

            def run_fn(until=None, max_events=None):
                return profiler.run(sim, until=until, max_events=max_events)
        else:
            run_fn = sim.run
        if self.live is not None:
            self.live.drive(sim, run_fn)
        else:
            run_fn()

    # ------------------------------------------------------------------
    # subscribers
    # ------------------------------------------------------------------
    def _record(self, event: ObsEvent) -> None:
        if self.window is not None:
            # Windows that ended before this event close first, so an
            # alert they raise is recorded ahead of it.
            self.window.catch_up()
        if self.record_events:
            self.events.append(event)
        if self._stream is not None:
            self._stream.write(json.dumps(event.to_jsonable()) + "\n")
            self._streamed_events += 1

    def _metric_placement(self, event: ObsEvent) -> None:
        self.registry.counter(f"placements_{event.kind}").inc()

    def _metric_migration(self, event: ObsEvent) -> None:
        registry = self.registry
        registry.counter("migrations").inc()
        registry.counter("migration_mb").inc(
            event.data.get("image_mb", 0.0))
        registry.histogram("migration_delay_s").observe(
            event.data.get("delay_s", 0.0))

    def _metric_blocking(self, event: ObsEvent) -> None:
        if event.kind == "activation-skipped":
            self.registry.counter("activation_skipped").inc()
        else:
            self.registry.counter("blocking_detections").inc()

    def _metric_reservation(self, event: ObsEvent) -> None:
        kind = event.kind.replace("-", "_")
        self.registry.counter(f"reservation_{kind}").inc()
        rid = event.data.get("reservation")
        if event.kind == "reserve":
            self._reserve_started[rid] = event.time
        elif event.kind in ("release", "cancel"):
            started = self._reserve_started.pop(rid, None)
            if started is not None:
                self.registry.histogram(
                    "reservation_lifetime_s").observe(event.time - started)

    def _metric_exchange(self, event: ObsEvent) -> None:
        self.registry.counter("loadinfo_exchanges").inc()
        self.registry.counter("loadinfo_nodes_refreshed").inc(
            event.data.get("refreshed", 0))

    def _metric_memory_fault(self, event: ObsEvent) -> None:
        self.registry.counter("thrashing_transitions").inc()

    def _metric_fault(self, event: ObsEvent) -> None:
        kind = event.kind.replace("-", "_")
        self.registry.counter(f"fault_{kind}").inc()
        if event.kind == "crash":
            self.registry.counter("fault_lost_jobs").inc(
                event.data.get("lost_jobs", 0))

    def _metric_alert(self, event: ObsEvent) -> None:
        if event.kind == "raise":
            severity = event.data.get("severity", "warning")
            self.registry.counter(f"alerts_raised_{severity}").inc()
        elif event.kind == "clear":
            self.registry.counter("alerts_cleared").inc()

    # ------------------------------------------------------------------
    # phase timing
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str):
        """Record the wall time of a run phase as a gauge
        (``phase_<name>_wall_s``)."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.registry.gauge(f"phase_{name}_wall_s").set(
                time.perf_counter() - started)

    # ------------------------------------------------------------------
    # finalization and export
    # ------------------------------------------------------------------
    def finalize(self, summary: Optional["RunSummary"] = None
                 ) -> Dict[str, float]:
        """Fold in engine gauges, lifecycle/sampler/window/health/
        profile aggregates, and (optionally) merge the snapshot into
        ``summary.extra`` under the ``obs.`` prefix.  Also closes a
        session-owned streaming log.  The live HTTP server publishes
        its final payloads but keeps serving until :meth:`close`."""
        if self.world is not None and not self._finalized:
            cluster = self.world.cluster
            sim = cluster.sim
            # Close the windows owed while the stream log is open.
            if self.window is not None:
                self.window.catch_up()
            self.registry.gauge("sim_events_executed").set(sim.event_count)
            self.registry.gauge("heap_compactions").set(sim.compactions)
            self.registry.gauge("recorded_events").set(len(self.events))
            self.registry.gauge("workstation_recomputes").set(
                sum(node.recomputes for node in cluster.nodes))
            if self._stream is not None:
                self.registry.gauge("streamed_events").set(
                    self._streamed_events)
                if self._stream_owned:
                    self._stream.close()
                    atexit.unregister(self._atexit_flush)
                else:
                    self._stream.flush()
                self._stream = None
            if self.lifecycle is not None:
                self.lifecycle.finalize(end_time=sim.now)
                for key, value in self.lifecycle.aggregate().items():
                    self.registry.gauge(key).set(value)
            if self.sampler is not None:
                for key, value in self.sampler.aggregate().items():
                    self.registry.gauge(key).set(value)
            if self.window is not None:
                for key, value in self.window.aggregate().items():
                    self.registry.gauge(key).set(value)
            if self.health is not None:
                for key, value in self.health.aggregate(
                        end_time=sim.now).items():
                    self.registry.gauge(key).set(value)
            if self.profiler is not None:
                for key, value in self.profiler.aggregate().items():
                    self.registry.gauge(key).set(value)
            if self.live is not None:
                for key, value in self.live.aggregate().items():
                    self.registry.gauge(key).set(value)
            self._finalized = True
            if self.live is not None:
                self.live.publish()
        snapshot = self.registry.snapshot()
        if summary is not None:
            self._summary = summary
            for key, value in snapshot.items():
                summary.extra[EXTRA_PREFIX + key] = value
        return snapshot

    def close(self) -> None:
        """Stop the live HTTP server (if any) and release the stream
        log.  Idempotent; call after the final exports."""
        if self.live is not None:
            self.live.stop()
        if self._stream is not None:
            if self._stream_owned:
                self._stream.close()
                atexit.unregister(self._atexit_flush)
            self._stream = None

    def write_trace(self, target: Union[str, TextIO]) -> dict:
        """Write the Chrome trace-event JSON (Perfetto-loadable),
        including the self-profiling track when profiling is on."""
        return write_chrome_trace(self.events, target,
                                  run_label=self.run_label,
                                  profile=self.profiler)

    def write_log(self, target: Union[str, TextIO]) -> int:
        """Write the structured JSONL run log."""
        return write_jsonl(self.events, target)

    def write_metrics(self, target: Union[str, TextIO]) -> Dict[str, float]:
        """Write the metrics snapshot as a JSON object."""
        snapshot = self.finalize()
        payload = json.dumps(snapshot, indent=2, sort_keys=True)
        if isinstance(target, str):
            with open(target, "w") as stream:
                stream.write(payload + "\n")
        else:
            target.write(payload + "\n")
        return snapshot

    def write_prom(self, target: Union[str, TextIO],
                   labels: Optional[Dict[str, str]] = None) -> int:
        """Write the metrics in Prometheus text exposition format
        (labels default to the run label)."""
        self.finalize()
        if labels is None:
            labels = {"run": self.run_label}
        return self.registry.write_prom(target, labels=labels)

    def write_sampler_csv(self, target: Union[str, TextIO]) -> int:
        """Write the cluster sampler's wide-row CSV time series."""
        if self.sampler is None:
            raise ValueError(
                "no sampler attached (pass sample_period= to ObsSession)")
        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as stream:
                return self.sampler.write_csv(stream)
        return self.sampler.write_csv(target)

    def write_report(self, target: str,
                     title: Optional[str] = None) -> str:
        """Render this run's self-contained HTML report.

        Requires ``lifecycle=True`` and a prior ``finalize(summary)``
        (what the experiment runners do)."""
        if self.lifecycle is None:
            raise ValueError(
                "no lifecycle tracker (pass lifecycle=True to ObsSession)")
        if self._summary is None:
            raise ValueError("finalize(summary) has not run yet")
        import dataclasses

        from repro.obs.report import render_run_report, write_report
        summary = dataclasses.asdict(self._summary)
        html = render_run_report(
            title or f"Run report — {self.run_label}",
            summary, self.lifecycle, self.sampler,
            health=self.health)
        return write_report(target, html)
