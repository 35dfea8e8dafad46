"""Periodic cluster-state sampling into compact time series.

:class:`ClusterSampler` keeps every workstation's load state on a
fixed grid of simulated times: running-job count, total memory demand,
idle memory, page-fault rate, and the thrashing/reserved/alive flags.

No event takes the rows: like the metrics collector
(:mod:`repro.metrics.collector`), :meth:`ClusterSampler.flush` runs
before each change to the cluster's state columns and appends, from
the still-unchanged state, the row of every grid time that has passed
(:meth:`repro.sim.daemon.TickGrid.catch_up`); the views flush before
they read.  The sampler only copies state columns, never
lazily-advancing views like ``Workstation.running_jobs``.

Storage is columnar: one ``array('d')`` per metric holding
``ticks x nodes`` values row-major, plus one packed flag byte per
(tick, node).  A 32-node run sampled every 10 s for an hour costs
about 400 kB — small enough to hold for any sweep point.
"""

from __future__ import annotations

from array import array
from typing import IO, TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.cluster.state import FLAG_ALIVE, FLAG_RESERVED, FLAG_THRASHING
from repro.sim.daemon import TickGrid

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster

#: Per-node float metrics captured each tick (column order in the CSV).
SAMPLE_FIELDS = ("running", "demand_mb", "idle_mb", "fault_rate_per_s")


def _flag_str(flags: int) -> str:
    """Human-readable flag column value (``"-"`` for a dead node)."""
    if not flags & FLAG_ALIVE:
        return "-"
    out = "A"
    if flags & FLAG_RESERVED:
        out += "R"
    if flags & FLAG_THRASHING:
        out += "T"
    return out


class ClusterSampler:
    """Snapshots per-node load state on a fixed simulated period
    (``times``, ``series`` and ``flags`` are complete after
    :meth:`flush`; the views flush first)."""

    def __init__(self, cluster: "Cluster", period_s: float):
        if period_s <= 0:
            raise ValueError(f"sample period must be positive: {period_s!r}")
        self.cluster = cluster
        self.period_s = float(period_s)
        self.num_nodes = cluster.num_nodes
        self.times = array("d")
        #: metric name -> row-major ticks x nodes samples.
        self.series: Dict[str, array] = {
            name: array("d") for name in SAMPLE_FIELDS}
        self.flags = bytearray()
        #: The sampling grid, from :meth:`start` on.
        self._grid: Optional[TickGrid] = None
        #: Load-information domains (1 = no per-domain output columns).
        #: Domain series are *views* computed on demand from the stored
        #: per-node columns; ``sample()`` itself is domain-blind.
        self.domains = cluster.config.domains
        self._domain_bounds = [cluster.directory.domain_bounds(d)
                               for d in range(self.domains)]

    # ------------------------------------------------------------------
    def start(self) -> "ClusterSampler":
        """Take the row at ``now`` and sample every ``period_s`` from
        then on.  Idempotent."""
        if self._grid is not None:
            return self
        sim = self.cluster.sim
        self.sample([sim.now])
        # Priority 5: a row at grid time t sees every change at t.
        self._grid = TickGrid(sim, self.period_s, priority=5)
        self.cluster.state.pre_change_hooks.append(self.flush)
        return self

    def flush(self) -> None:
        """Append a row for every grid time that has passed, from the
        state as it stands (unchanged since the earliest of them:
        every change runs this first)."""
        grid = self._grid
        if grid is not None and grid.next_time <= grid.sim.now:
            times = grid.catch_up()
            if times:
                self.sample(times)

    def sample(self, times: Optional[List[float]] = None) -> None:
        """Append the current state as the row of each of ``times``
        (default: one row at ``now``).

        The row is copied straight from the cluster's state columns —
        bulk ``extend`` calls plus one flag-byte ``translate``, zero
        per-node attribute reads (pinned by a regression test).
        """
        state = self.cluster.state
        if times is None:
            times = [self.cluster.sim.now]
        k = len(times)
        self.times.extend(times)
        series = self.series  # num_running alone needs a conversion
        series["running"].extend(array("d", map(float, state.num_running))
                                 * k)
        series["demand_mb"].extend(state.total_demand_mb * k)
        series["idle_mb"].extend(state.idle_memory_mb * k)
        series["fault_rate_per_s"].extend(state.fault_rate_per_s * k)
        self.flags.extend(state.sampler_flags() * k)

    # ------------------------------------------------------------------
    # views (each flushes first)
    # ------------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        self.flush()
        return len(self.times)

    def _rows(self, domain: Optional[int] = None) -> List[Tuple[int, int]]:
        """Index bounds of each tick's row in the stored series, or of
        one domain's slice of it."""
        n = self.num_nodes
        lo, hi = (0, n) if domain is None else self._domain_bounds[domain]
        return [(i * n + lo, i * n + hi) for i in range(self.num_samples)]

    def node_series(self, metric: str, node_id: int) -> List[float]:
        """One node's time series for ``metric``."""
        data = self.series[metric]
        return [data[lo + node_id] for lo, _ in self._rows()]

    def totals(self, metric: str,
               domain: Optional[int] = None) -> List[float]:
        """Cluster-wide (or one domain's) sum of ``metric`` per tick."""
        data = self.series[metric]
        return [sum(data[lo:hi]) for lo, hi in self._rows(domain)]

    def flag_counts(self, bit: int,
                    domain: Optional[int] = None) -> List[int]:
        """Number of nodes (of one domain, if given) with ``bit`` set,
        per tick."""
        flags = self.flags
        return [sum(1 for b in flags[lo:hi] if b & bit)
                for lo, hi in self._rows(domain)]

    # ------------------------------------------------------------------
    # exports
    # ------------------------------------------------------------------
    def aggregate(self) -> Dict[str, float]:
        """Flat float summary for ``RunSummary.extra`` (prefixed
        ``sampler_``; see :class:`~repro.obs.session.ObsSession`)."""
        ticks = self.num_samples
        out: Dict[str, float] = {
            "sampler_samples": float(ticks),
            "sampler_period_s": self.period_s,
        }
        if ticks == 0:
            return out
        idle = self.totals("idle_mb")
        running = self.totals("running")
        thrash = self.flag_counts(FLAG_THRASHING)
        reserved = self.flag_counts(FLAG_RESERVED)
        dead = [self.num_nodes - alive
                for alive in self.flag_counts(FLAG_ALIVE)]
        out["sampler_mean_idle_mb"] = sum(idle) / ticks
        out["sampler_min_idle_mb"] = min(idle)
        out["sampler_mean_running"] = sum(running) / ticks
        out["sampler_peak_running"] = max(running)
        out["sampler_mean_thrashing_nodes"] = sum(thrash) / ticks
        out["sampler_peak_thrashing_nodes"] = float(max(thrash))
        out["sampler_mean_reserved_nodes"] = sum(reserved) / ticks
        out["sampler_peak_reserved_nodes"] = float(max(reserved))
        out["sampler_mean_dead_nodes"] = sum(dead) / ticks
        if self.domains > 1:
            # Imbalance across domains: per-tick spread (max - min) of
            # the domain idle-memory totals.  A large spread means the
            # two-level placement is leaving whole domains idle while
            # others page — the topology study's balance signal.
            per_domain = [self.totals("idle_mb", d)
                          for d in range(self.domains)]
            spreads = [max(vals) - min(vals)
                       for vals in zip(*per_domain)]
            out["sampler_domains"] = float(self.domains)
            out["sampler_mean_domain_idle_spread_mb"] = sum(spreads) / ticks
            out["sampler_peak_domain_idle_spread_mb"] = max(spreads)
        return out

    def write_csv(self, stream: IO[str]) -> int:
        """Wide-row CSV: one row per tick; cluster totals first, then
        ``<metric>_n<id>`` columns per node plus a ``flags_n<id>``
        column.  Returns the number of data rows written."""
        n = self.num_nodes
        # (column, per-tick values, format spec): floats print with
        # "g", node counts as plain integers.
        totals = [("total_running", self.totals("running"), "g"),
                  ("total_demand_mb", self.totals("demand_mb"), "g"),
                  ("total_idle_mb", self.totals("idle_mb"), "g"),
                  ("thrashing_nodes", self.flag_counts(FLAG_THRASHING), ""),
                  ("reserved_nodes", self.flag_counts(FLAG_RESERVED), ""),
                  ("alive_nodes", self.flag_counts(FLAG_ALIVE), "")]
        for d in range(self.domains if self.domains > 1 else 0):
            totals += [(f"idle_mb_d{d}", self.totals("idle_mb", d), "g"),
                       (f"running_d{d}", self.totals("running", d), "g"),
                       (f"thrashing_d{d}",
                        self.flag_counts(FLAG_THRASHING, d), "")]
        header = ["t"] + [name for name, _, _ in totals]
        for node_id in range(n):
            for metric in SAMPLE_FIELDS:
                header.append(f"{metric}_n{node_id}")
            header.append(f"flags_n{node_id}")
        stream.write(",".join(header) + "\n")
        columns = [self.series[name] for name in SAMPLE_FIELDS]
        for i, (lo, _) in enumerate(self._rows()):
            row = [f"{self.times[i]:g}"]
            row += [format(values[i], spec) for _, values, spec in totals]
            for node_id in range(n):
                for column in columns:
                    row.append(f"{column[lo + node_id]:g}")
                row.append(_flag_str(self.flags[lo + node_id]))
            stream.write(",".join(row) + "\n")
        return len(self.times)

    def to_jsonable(self) -> dict:
        """Compact dict for embedding in reports: times + cluster
        totals + per-node idle series (the report's timeline inputs)."""
        self.flush()
        out = {
            "period_s": self.period_s,
            "num_nodes": self.num_nodes,
            "times": list(self.times),
            "total_running": self.totals("running"),
            "total_idle_mb": self.totals("idle_mb"),
            "thrashing_nodes": self.flag_counts(FLAG_THRASHING),
            "reserved_nodes": self.flag_counts(FLAG_RESERVED),
            "alive_nodes": self.flag_counts(FLAG_ALIVE),
        }
        if self.domains > 1:
            out["domains"] = self.domains
            out["domain_idle_mb"] = [self.totals("idle_mb", d)
                                     for d in range(self.domains)]
        return out
