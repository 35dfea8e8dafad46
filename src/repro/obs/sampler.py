"""Periodic cluster-state sampling into compact time series.

:class:`ClusterSampler` runs a *daemon* tick on the cluster's
simulator (so it never keeps an idle run alive) and snapshots every
workstation's load state on each tick: running-job count, total
memory demand, idle memory, page-fault rate, and the
thrashing/reserved/alive flags.

The sampler is deliberately read-only over **cached** workstation
state — the same `_recompute`-maintained caches the load directory
reads — and never touches lazily-advancing views like
``Workstation.running_jobs``, which would re-time-slice job progress
and perturb the run.  Because the tick is a daemon event and nothing
in :class:`~repro.metrics.summary.RunSummary` depends on simulator
sequence numbers, an instrumented run produces a byte-identical
summary to an uninstrumented one (the obs-overhead benchmark gates
exactly this).

Storage is columnar: one ``array('d')`` per metric holding
``ticks x nodes`` values row-major, plus one packed flag byte per
(tick, node).  A 32-node run sampled every 10 s for an hour costs
about 400 kB — small enough to hold for any sweep point.
"""

from __future__ import annotations

from array import array
from typing import IO, TYPE_CHECKING, Dict, List

from repro.cluster.state import FLAG_ALIVE, FLAG_RESERVED, FLAG_THRASHING

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
    """Snapshots per-node load state on a fixed simulated period."""

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
        self._started = False
        #: Load-information domains (1 = no per-domain output columns).
        #: Domain series are *views* computed on demand from the stored
        #: per-node columns; ``sample()`` itself is domain-blind.
        self.domains = cluster.config.domains
        self._domain_bounds = [cluster.directory.domain_bounds(d)
                               for d in range(self.domains)]

    # ------------------------------------------------------------------
    def start(self) -> "ClusterSampler":
        """Take the t=0 sample and begin ticking.  Idempotent."""
        if self._started:
            return self
        self._started = True
        self._tick()
        return self

    def _tick(self) -> None:
        self.sample()
        # priority 5: after every state change at the same instant
        # (monitors run at 3; the metrics collector samples as of 4),
        # so a sample at time t sees the post-update state of t.
        self.cluster.sim.schedule(self.period_s, self._tick,
                                  priority=5, daemon=True)

    def sample(self) -> None:
        """Append one snapshot row for every node (also usable
        directly, without the periodic tick).

        The row is copied straight from the cluster's state columns —
        bulk ``extend`` calls plus one flag-byte ``translate``, zero
        per-node attribute reads (pinned by a regression test).
        """
        state = self.cluster.state
        self.times.append(self.cluster.sim.now)
        # num_running is an int column; extend() with a same-type
        # array is a memcpy, so only this one needs a conversion.
        self.series["running"].extend(map(float, state.num_running))
        self.series["demand_mb"].extend(state.total_demand_mb)
        self.series["idle_mb"].extend(state.idle_memory_mb)
        self.series["fault_rate_per_s"].extend(state.fault_rate_per_s)
        self.flags.extend(state.sampler_flags())

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        return len(self.times)

    def node_series(self, metric: str, node_id: int) -> List[float]:
        """One node's time series for ``metric``."""
        data = self.series[metric]
        n = self.num_nodes
        return [data[i * n + node_id] for i in range(self.num_samples)]

    def totals(self, metric: str) -> List[float]:
        """Cluster-wide sum of ``metric`` per tick."""
        data = self.series[metric]
        n = self.num_nodes
        return [sum(data[i * n:(i + 1) * n])
                for i in range(self.num_samples)]

    def flag_counts(self, bit: int) -> List[int]:
        """Number of nodes with ``bit`` set, per tick."""
        n = self.num_nodes
        return [sum(1 for b in self.flags[i * n:(i + 1) * n] if b & bit)
                for i in range(self.num_samples)]

    def domain_totals(self, metric: str, domain: int) -> List[float]:
        """One domain's per-tick sum of ``metric`` (node-slice view
        over the stored series)."""
        lo, hi = self._domain_bounds[domain]
        data = self.series[metric]
        n = self.num_nodes
        return [sum(data[i * n + lo:i * n + hi])
                for i in range(self.num_samples)]

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
            per_domain = [self.domain_totals("idle_mb", d)
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
        header = ["t", "total_running", "total_demand_mb",
                  "total_idle_mb", "thrashing_nodes", "reserved_nodes",
                  "alive_nodes"]
        if self.domains > 1:
            for d in range(self.domains):
                header.append(f"idle_mb_d{d}")
                header.append(f"running_d{d}")
                header.append(f"thrashing_d{d}")
        for node_id in range(n):
            for metric in SAMPLE_FIELDS:
                header.append(f"{metric}_n{node_id}")
            header.append(f"flags_n{node_id}")
        stream.write(",".join(header) + "\n")
        columns = [self.series[name] for name in SAMPLE_FIELDS]
        for i in range(self.num_samples):
            lo, hi = i * n, (i + 1) * n
            row = [f"{self.times[i]:g}",
                   f"{sum(self.series['running'][lo:hi]):g}",
                   f"{sum(self.series['demand_mb'][lo:hi]):g}",
                   f"{sum(self.series['idle_mb'][lo:hi]):g}",
                   str(sum(1 for b in self.flags[lo:hi]
                           if b & FLAG_THRASHING)),
                   str(sum(1 for b in self.flags[lo:hi]
                           if b & FLAG_RESERVED)),
                   str(sum(1 for b in self.flags[lo:hi]
                           if b & FLAG_ALIVE))]
            if self.domains > 1:
                for dlo, dhi in self._domain_bounds:
                    row.append(f"{sum(self.series['idle_mb'][lo + dlo:lo + dhi]):g}")
                    row.append(f"{sum(self.series['running'][lo + dlo:lo + dhi]):g}")
                    row.append(str(sum(1 for b in self.flags[lo + dlo:lo + dhi]
                                       if b & FLAG_THRASHING)))
            for node_id in range(n):
                for column in columns:
                    row.append(f"{column[lo + node_id]:g}")
                row.append(_flag_str(self.flags[lo + node_id]))
            stream.write(",".join(row) + "\n")
        return self.num_samples

    def to_jsonable(self) -> dict:
        """Compact dict for embedding in reports: times + cluster
        totals + per-node idle series (the report's timeline inputs)."""
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
            out["domain_idle_mb"] = [self.domain_totals("idle_mb", d)
                                     for d in range(self.domains)]
        return out
