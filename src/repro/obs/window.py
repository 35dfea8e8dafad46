"""Streaming windowed aggregation over the obs event bus.

The batch obs stack (registry snapshots, lifecycle aggregates) only
answers questions *after* a run; the live telemetry plane needs
"what is the blocking rate *right now*" while the engine is mid-run.
:class:`WindowAggregator` subscribes to the bus channels that carry
scheduling signal and maintains:

* **rolling rate counters** (:class:`RollingCounter`) — submits,
  finishes, requeues, blocking detections, placements, migrations,
  load-info exchanges, closed per window into an events/s rate;
* **windowed gauges** (:class:`WindowedGauge`) — last/min/max of a
  value within the current window (directory staleness, sim lag);
* **quantile sketches** (:class:`P2Quantile`, the Jain & Chlamtac
  P² algorithm) — slowdown and placement-latency p50/p95 without
  retaining the observation stream: five markers per quantile, O(1)
  per observation.

Every ``window_s`` simulated seconds a window closes into a snapshot
keyed by its end time, kept in a bounded history ring (what the live
dashboard charts) and handed to the window observers (the health-rule
engine).  No event closes it: :meth:`WindowAggregator.catch_up` closes
every window whose end has passed on the collector's grid rule
(:meth:`repro.sim.daemon.TickGrid.catch_up`, priority 5), before each
bus event is counted and before every read.

Cumulative totals ride along in every snapshot so the *final*
snapshot agrees with the end-of-run :class:`RunSummary` on
overlapping metrics (jobs finished, migrations, mean slowdown) — the
live view and the batch view can be cross-checked against each other.

Nothing here perturbs scheduling: the aggregator schedules nothing
and only reads event payloads.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from typing import (TYPE_CHECKING, Callable, Deque, Dict, List, Optional,
                    Tuple)

from repro.obs.bus import ObsEvent
from repro.sim.daemon import TickGrid

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster

#: Snapshot history ring length: at the default 50 s window this spans
#: a 12 000 s run, plenty for a dashboard chart.
HISTORY_LIMIT = 240

#: Default window width in simulated seconds.
DEFAULT_WINDOW_S = 50.0

#: Grid priority of the window ends (after monitors at 3 and the
#: metrics collector's grid at 4, alongside the cluster sampler).
TICK_PRIORITY = 5


class RollingCounter:
    """Event count folded per window plus a cumulative total.

    ``inc`` is the hot path (called from bus subscribers); ``roll``
    runs once per closed window and converts the open window's count
    into the closed-window rate.
    """

    __slots__ = ("total", "current", "last_count", "last_rate")

    def __init__(self):
        self.total = 0.0
        self.current = 0.0
        self.last_count = 0.0
        self.last_rate = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.total += amount
        self.current += amount

    def roll(self, window_s: float) -> None:
        self.last_count = self.current
        self.last_rate = self.current / window_s if window_s > 0 else 0.0
        self.current = 0.0


class WindowedGauge:
    """Last/min/max of a sampled value within the current window."""

    __slots__ = ("value", "window_min", "window_max", "samples")

    def __init__(self):
        self.value: Optional[float] = None
        self.window_min = math.inf
        self.window_max = -math.inf
        self.samples = 0

    def set(self, value: float) -> None:
        value = float(value)
        self.value = value
        self.samples += 1
        if value < self.window_min:
            self.window_min = value
        if value > self.window_max:
            self.window_max = value

    def roll(self) -> None:
        self.window_min = math.inf
        self.window_max = -math.inf
        self.samples = 0


class P2Quantile:
    """Streaming quantile estimate via the P² algorithm
    (Jain & Chlamtac, CACM 1985).

    Five markers track the running estimate of the ``p``-quantile in
    O(1) memory and O(1) per observation; count/sum/min/max ride along
    so the mean is exact.  Below five observations the estimate is the
    nearest-rank quantile of the sorted buffer.
    """

    __slots__ = ("p", "count", "total", "min", "max", "_q", "_n", "_np",
                 "_dn")

    def __init__(self, p: float):
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must be in (0, 1): {p!r}")
        self.p = p
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._q: List[float] = []
        self._n = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._np = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
        self._dn = (0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        q = self._q
        if self.count <= 5:
            bisect.insort(q, value)
            return
        n = self._n
        if value < q[0]:
            q[0] = value
            k = 0
        elif value >= q[4]:
            q[4] = value
            k = 3
        else:
            k = 0
            for i in range(1, 4):
                if value < q[i]:
                    break
                k = i
        for i in range(k + 1, 5):
            n[i] += 1.0
        np_ = self._np
        for i in range(5):
            np_[i] += self._dn[i]
        for i in (1, 2, 3):
            d = np_[i] - n[i]
            if ((d >= 1.0 and n[i + 1] - n[i] > 1.0)
                    or (d <= -1.0 and n[i - 1] - n[i] < -1.0)):
                d = 1.0 if d > 0 else -1.0
                candidate = self._parabolic(i, d)
                if not q[i - 1] < candidate < q[i + 1]:
                    candidate = self._linear(i, d)
                q[i] = candidate
                n[i] += d

    def _parabolic(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i])
            / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1])
            / (n[i] - n[i - 1]))

    def _linear(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        j = i + int(d)
        return q[i] + d * (q[j] - q[i]) / (n[j] - n[i])

    def value(self) -> Optional[float]:
        """Current estimate of the ``p``-quantile (None before any
        observation)."""
        if self.count == 0:
            return None
        if self.count <= 5:
            rank = min(self.count - 1,
                       int(round(self.p * (self.count - 1))))
            return self._q[rank]
        return self._q[2]

    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None


#: A window observer receives each closed-window snapshot.
WindowObserver = Callable[[dict], None]

#: (counter attribute, bus channel) wiring for the rate counters that
#: map one-to-one onto a channel's event stream.
_RATE_KEYS = ("submit", "finish", "requeue", "blocking",
              "placement_local", "placement_remote", "migration",
              "exchange")


#: Counter key -> friendly name used in the snapshot ``totals`` dict.
_TOTAL_ALIASES = {
    "submit": "jobs_submitted", "finish": "jobs_finished",
    "requeue": "requeues", "blocking": "blocking_detections",
    "placement_local": "placements_local",
    "placement_remote": "placements_remote",
    "migration": "migrations", "exchange": "loadinfo_exchanges",
}


class WindowAggregator:
    """Windowed live view of one run, fed by the obs event bus."""

    def __init__(self, window_s: float = DEFAULT_WINDOW_S,
                 history: int = HISTORY_LIMIT):
        if window_s <= 0:
            raise ValueError(f"window_s must be positive: {window_s!r}")
        self.window_s = float(window_s)
        self.history: Deque[dict] = deque(maxlen=history)
        self.counters: Dict[str, RollingCounter] = {
            key: RollingCounter() for key in _RATE_KEYS}
        self.slowdown = P2Quantile(0.95)
        self.slowdown_p50 = P2Quantile(0.50)
        self.placement_latency = P2Quantile(0.95)
        self.placement_latency_p50 = P2Quantile(0.50)
        self.sim_lag = WindowedGauge()
        self.windows_closed = 0
        self.cluster: Optional["Cluster"] = None
        #: The window ends, from :meth:`attach` on.
        self._grid: Optional[TickGrid] = None
        self._observers: List[WindowObserver] = []
        #: job -> wall of queue entry (submit or requeue), popped at
        #: the next placement decision: feeds placement latency.
        self._pending_since: Dict[int, float] = {}
        #: job -> (original submit time, cpu_work_s): feeds slowdown.
        self._submitted: Dict[int, Tuple[float, float]] = {}
        self._last_exchange_t: Optional[float] = None
        self._last_domain_t: Optional[float] = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, cluster: "Cluster") -> "WindowAggregator":
        """Subscribe to the cluster's bus; the first window opens now."""
        if self.cluster is not None:
            raise ValueError("WindowAggregator is single-use; "
                             "already attached")
        self.cluster = cluster
        self._grid = TickGrid(cluster.sim, self.window_s, TICK_PRIORITY)
        bus = cluster.obs
        bus.subscribe("cluster.job", self._on_job)
        bus.subscribe("cluster.placement", self._on_placement)
        bus.subscribe("cluster.migration", self._on_migration)
        bus.subscribe("reconfig.blocking", self._on_blocking)
        bus.subscribe("loadinfo.exchange", self._on_exchange)
        bus.subscribe("loadinfo.domain", self._on_domain)
        return self

    def add_observer(self, observer: WindowObserver) -> None:
        """Register a callable invoked with each closed-window
        snapshot (the health engine's evaluation hook)."""
        self._observers.append(observer)

    # ------------------------------------------------------------------
    # bus subscribers
    # ------------------------------------------------------------------
    def _on_job(self, event: ObsEvent) -> None:
        self.catch_up()
        kind = event.kind
        if kind == "submit":
            job = event.data.get("job")
            self.counters["submit"].inc()
            self._pending_since[job] = event.time
            self._submitted[job] = (event.time,
                                    event.data.get("cpu_work_s") or 0.0)
        elif kind == "finish":
            job = event.data.get("job")
            self.counters["finish"].inc()
            self._pending_since.pop(job, None)
            record = self._submitted.pop(job, None)
            if record is not None and record[1] > 0:
                # Same formula as Job.slowdown(): wall / cpu_work_s.
                slowdown = (event.time - record[0]) / record[1]
                self.slowdown.observe(slowdown)
                self.slowdown_p50.observe(slowdown)
        elif kind == "requeue":
            job = event.data.get("job")
            self.counters["requeue"].inc()
            self._pending_since[job] = event.time

    def _on_placement(self, event: ObsEvent) -> None:
        self.catch_up()
        key = ("placement_local" if event.kind == "local"
               else "placement_remote")
        self.counters[key].inc()
        since = self._pending_since.pop(event.data.get("job"), None)
        if since is not None:
            latency = event.time - since
            self.placement_latency.observe(latency)
            self.placement_latency_p50.observe(latency)

    def _on_migration(self, event: ObsEvent) -> None:
        self.catch_up()
        self.counters["migration"].inc()

    def _on_blocking(self, event: ObsEvent) -> None:
        self.catch_up()
        if event.kind != "activation-skipped":
            self.counters["blocking"].inc()

    def _on_exchange(self, event: ObsEvent) -> None:
        self.catch_up()
        self.counters["exchange"].inc()
        self._last_exchange_t = event.time

    def _on_domain(self, event: ObsEvent) -> None:
        self.catch_up()
        self._last_domain_t = event.time

    # ------------------------------------------------------------------
    # closing windows
    # ------------------------------------------------------------------
    def catch_up(self) -> None:
        """Close every window whose end has passed at the engine's
        position."""
        grid = self._grid
        if grid is not None and grid.next_time <= grid.sim.now:
            for end in grid.catch_up():
                self._close_window(end)

    def _close_window(self, end: float) -> None:
        """Roll the window ending at ``end`` into the history and hand
        its snapshot to the observers."""
        for counter in self.counters.values():
            counter.roll(self.window_s)
        self.windows_closed += 1
        snapshot = self._build_snapshot(end, closed=True)
        self.sim_lag.roll()
        self.history.append(snapshot)
        for observer in self._observers:
            observer(snapshot)

    def _build_snapshot(self, now: float, closed: bool) -> dict:
        counters = self.counters
        if closed:
            rates = {key: counters[key].last_rate for key in _RATE_KEYS}
            counts = {key: counters[key].last_count for key in _RATE_KEYS}
        else:
            # Open-window view: scale the partial window as if closed
            # (used by on-demand snapshots between window ends).
            rates = {key: counters[key].current / self.window_s
                     for key in _RATE_KEYS}
            counts = {key: counters[key].current for key in _RATE_KEYS}
        quantiles = {
            "slowdown_p95": self.slowdown.value(),
            "slowdown_p50": self.slowdown_p50.value(),
            "slowdown_mean": self.slowdown.mean(),
            "slowdown_max": (self.slowdown.max
                             if self.slowdown.count else None),
            "placement_latency_p95": self.placement_latency.value(),
            "placement_latency_p50": self.placement_latency_p50.value(),
            "placement_latency_mean": self.placement_latency.mean(),
        }
        staleness = {
            "loadinfo_age_s": (now - self._last_exchange_t
                               if self._last_exchange_t is not None
                               else None),
            "domain_summary_age_s": (now - self._last_domain_t
                                     if self._last_domain_t is not None
                                     else None),
        }
        snapshot = {
            "t": now,
            "closed": closed,
            "window_s": self.window_s,
            "window": self.windows_closed,
            "rates": rates,
            "counts": counts,
            "totals": {alias: counters[key].total
                       for key, alias in _TOTAL_ALIASES.items()},
            "quantiles": quantiles,
            "staleness": staleness,
            "pending_jobs": float(len(self._pending_since)),
        }
        if self.sim_lag.value is not None:
            snapshot["sim_lag_s"] = self.sim_lag.value
            snapshot["sim_lag_max_s"] = (
                self.sim_lag.window_max
                if self.sim_lag.samples else self.sim_lag.value)
        return snapshot

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def record_sim_lag(self, lag_s: float) -> None:
        """Record the engine's real-time lag (set by the pacer; sim
        seconds the engine is behind its wall-clock schedule)."""
        self.catch_up()
        self.sim_lag.set(lag_s)

    def snapshot(self, now: Optional[float] = None) -> dict:
        """On-demand snapshot: the open window scaled to full width
        plus cumulative totals (what ``/snapshot.json`` serves)."""
        self.catch_up()
        if now is None:
            now = self.cluster.sim.now if self.cluster is not None else 0.0
        return self._build_snapshot(now, closed=False)

    def aggregate(self) -> Dict[str, float]:
        """Flat aggregate view folded into ``RunSummary.extra`` by the
        session (``obs.window_*`` keys)."""
        self.catch_up()
        out: Dict[str, float] = {
            "window_width_s": self.window_s,
            "window_count": float(self.windows_closed),
            "window_jobs_finished": self.counters["finish"].total,
            "window_requeues": self.counters["requeue"].total,
            "window_blocking_detections": self.counters["blocking"].total,
        }
        for name, sketch in (("slowdown", self.slowdown),
                             ("placement_latency", self.placement_latency)):
            if sketch.count:
                out[f"window_{name}_p95"] = sketch.value()
                out[f"window_{name}_mean"] = sketch.mean()
                out[f"window_{name}_samples"] = float(sketch.count)
        if self.sim_lag.value is not None:
            out["window_sim_lag_s"] = self.sim_lag.value
        return out


def resolve_metric(snapshot: dict, name: str) -> Optional[float]:
    """Resolve a dotted health-rule metric name against a snapshot.

    Grammar: ``<counter>.rate`` / ``<counter>.count`` /
    ``<counter>.total`` read the rate/count/total namespaces
    (``blocking.rate``, ``finish.count``, ``migration.total``);
    ``<sketch>.p95`` / ``.p50`` / ``.mean`` read the quantile sketches
    (``slowdown.p95``); ``loadinfo.age_s`` / ``domain.age_s`` read
    directory staleness; ``sim_lag`` reads the pacer's lag gauge; any
    other name falls through to a top-level snapshot key.  Unknown or
    not-yet-observed metrics resolve to None (absence).
    """
    if name == "sim_lag":
        return snapshot.get("sim_lag_s")
    if name == "loadinfo.age_s":
        return snapshot.get("staleness", {}).get("loadinfo_age_s")
    if name == "domain.age_s":
        return snapshot.get("staleness", {}).get("domain_summary_age_s")
    if "." in name:
        head, _, tail = name.partition(".")
        if tail == "rate":
            return snapshot.get("rates", {}).get(head)
        if tail == "count":
            return snapshot.get("counts", {}).get(head)
        if tail == "total":
            totals = snapshot.get("totals", {})
            return totals.get(_TOTAL_ALIASES.get(head, head),
                              totals.get(head))
        if tail in ("p95", "p50", "mean", "max"):
            return snapshot.get("quantiles", {}).get(f"{head}_{tail}")
    value = snapshot.get(name)
    return value if isinstance(value, (int, float)) else None


__all__ = ["DEFAULT_WINDOW_S", "HISTORY_LIMIT", "P2Quantile",
           "RollingCounter", "WindowAggregator", "WindowedGauge",
           "resolve_metric"]
