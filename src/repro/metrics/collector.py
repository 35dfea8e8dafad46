"""Periodic cluster sampling.

The paper collects the total idle memory volume and the number of
active jobs in each workstation every second (§4.1-4.2), and verifies
that the averages are insensitive to the sampling interval (we expose
the interval so the benchmark suite can repeat that check).

The 1 Hz sample is the dominant scaling cost of large-cluster runs:
most simulated seconds see *no* node change (job events are sparse
compared to the tick).  The collector therefore subscribes to node
change and pending-queue notifications:

* The tick parks after every sample (:mod:`repro.sim.daemon`); the
  next change re-arms it on the same grid.  Every grid tick skipped
  meanwhile would have repeated the last sample, so the collector
  appends those copies, each with its own ``time``, before the change
  applies.  Copies still due at the engine's position are appended
  before :attr:`MetricsCollector.samples` is read and before a
  checkpoint is written (:meth:`MetricsCollector.flush`).
* A tick recomputes the sample components only if a node changed
  since the last sample; otherwise it reuses the previous components,
  which are identical by construction (same inputs, same arithmetic).
  Changed ticks read the columns of the cluster's
  :class:`~repro.cluster.state.ClusterState` rather than node
  properties.

Balance skew is computed once per sample into a parallel series
instead of per access, so summarize-time averaging is O(samples)
instead of O(samples x N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.state import FLAG_ALIVE, FLAG_RESERVED
from repro.sim.daemon import DaemonTick


@dataclass(frozen=True)
class ClusterSample:
    """One sampling instant."""

    time: float
    total_idle_memory_mb: float
    #: Active job counts per node; reserved (and crashed) nodes hold
    #: None so that the balance skew is computed "among all
    #: non-reserved workstations".
    jobs_per_node: Tuple[Optional[int], ...]
    num_reserved: int
    pending_jobs: int

    @property
    def job_balance_skew(self) -> float:
        """Standard deviation of active jobs among non-reserved nodes."""
        return _skew_of(self.jobs_per_node)


#: Byte-translate tables over the packed flags column: C-speed
#: classification of all N nodes at once.  ``_EXCLUDED_TABLE`` marks
#: nodes whose job count is None in the skew vector (reserved or
#: dead); ``_RESERVED_TABLE`` marks reserved nodes.
_EXCLUDED_TABLE = bytes(
    1 if (b & FLAG_RESERVED or not b & FLAG_ALIVE) else 0
    for b in range(256))
_RESERVED_TABLE = bytes(1 if b & FLAG_RESERVED else 0 for b in range(256))


def _skew_of(jobs_per_node: Tuple[Optional[int], ...]) -> float:
    """Balance skew of one counts vector (shared by the per-sample
    property and the collector's per-tick cache so both produce the
    same floats)."""
    counts = [c for c in jobs_per_node if c is not None]
    if not counts:
        return 0.0
    mean = sum(counts) / len(counts)
    # Few distinct counts among many nodes: square each deviation once
    # and sum the same floats in the same order through a C-level map.
    table = {c: (c - mean) ** 2 for c in set(counts)}
    return math.sqrt(sum(map(table.__getitem__, counts)) / len(counts))


class PolicyPendingProbe:
    """Picklable pending-queue probe: ``probe()`` returns the policy's
    current pending count.  Used instead of a lambda so a collector
    wired to a policy can cross a checkpoint boundary; forks repoint
    :attr:`policy` at the successor."""

    __slots__ = ("policy",)

    def __init__(self, policy):
        self.policy = policy

    def __call__(self) -> int:
        return self.policy.pending_count


class MetricsCollector:
    """Samples cluster state every ``sample_interval_s`` seconds."""

    def __init__(self, cluster: Cluster,
                 sample_interval_s: Optional[float] = None,
                 pending_probe=None):
        self.cluster = cluster
        self.sample_interval_s = (
            sample_interval_s if sample_interval_s is not None
            else cluster.config.sample_interval_s)
        if self.sample_interval_s <= 0:
            raise ValueError("sample_interval_s must be positive")
        #: Optional callable returning the current pending-queue length.
        self.pending_probe = pending_probe
        self._samples: List[ClusterSample] = []
        #: Per-sample balance skew, parallel to ``samples``: computed
        #: once at sample time so summarize-time averaging does not
        #: revisit every counts vector.
        self._skews: List[float] = []
        self._state = cluster.state
        # Change-driven caching: any externally visible node change
        # flags the next tick for recomputation; clean ticks reuse the
        # previous components verbatim.  The pending-queue length is
        # NOT cached: it is probed fresh at every sample.
        self._dirty = True
        self._cached_idle = 0.0
        self._cached_jobs: Tuple[Optional[int], ...] = ()
        self._cached_skew = 0.0
        self._cached_reserved = 0
        for node in cluster.nodes:
            node.add_change_listener(self._mark_dirty)
        cluster.on_pending_changed(self._wake)
        self._sample_tick = DaemonTick(cluster.sim, self, "_tick",
                                       self.sample_interval_s, priority=4)

    @property
    def samples(self) -> List[ClusterSample]:
        """Every sample up to the engine's current position."""
        self.flush()
        return self._samples

    @samples.setter
    def samples(self, samples: List[ClusterSample]) -> None:
        self._samples = samples

    def _tick(self) -> None:
        self.sample()
        # Until a node or the pending queue changes, every grid tick
        # would repeat this sample: park, and let flush() copy it.
        self._sample_tick.fired(keep=False)

    def _mark_dirty(self, node) -> None:
        self._dirty = True
        if self._sample_tick.handle is None:
            self._wake()

    def _wake(self) -> None:
        """Something the samples read changed: append the copies the
        parked tick owes, then arm it for the next grid time."""
        self.flush()
        self._sample_tick.arm()

    def flush(self) -> None:
        """Append the samples a parked tick skipped up to the engine's
        current position: each a copy of the last sample at its own
        grid time (nothing changed since, so sampling would have
        reproduced it)."""
        times = self._sample_tick.catch_up()
        if times:
            last = self._samples[-1]
            fields = (last.total_idle_memory_mb, last.jobs_per_node,
                      last.num_reserved, last.pending_jobs)
            self._samples.extend(ClusterSample(time, *fields)
                                 for time in times)
            self._skews.extend([self._cached_skew] * len(times))

    def sample(self) -> ClusterSample:
        """Take one sample immediately (also used by tests).

        Components are recomputed from the state columns only when a
        node changed since the last sample; a clean tick's reused
        components are what recomputation would produce (no node
        changed, so no input changed).
        """
        self.flush()
        state = self._state
        if self._dirty:
            self._dirty = False
            num_running = state.num_running
            excluded = bytes(state.flags).translate(_EXCLUDED_TABLE)
            if excluded.count(1) == 0:
                # Common case: every node alive and unreserved, so the
                # jobs vector is the running-count column verbatim.
                jobs = tuple(num_running)
                self._cached_reserved = 0
            else:
                jobs = tuple(None if excl else num_running[node_id]
                             for node_id, excl in enumerate(excluded))
                self._cached_reserved = bytes(state.flags).translate(
                    _RESERVED_TABLE).count(1)
            self._cached_idle = sum(state.idle_memory_mb)
            # A change to memory alone leaves the job counts, and so
            # the skew, as they were.
            if jobs != self._cached_jobs:
                self._cached_jobs = jobs
                self._cached_skew = _skew_of(jobs)
        pending = self.pending_probe() if self.pending_probe else 0
        sample = ClusterSample(
            time=self.cluster.sim.now,
            total_idle_memory_mb=self._cached_idle,
            jobs_per_node=self._cached_jobs,
            num_reserved=self._cached_reserved,
            pending_jobs=pending,
        )
        self._samples.append(sample)
        self._skews.append(self._cached_skew)
        return sample

    # ------------------------------------------------------------------
    def average_idle_memory_mb(self, until: Optional[float] = None) -> float:
        """Time-averaged total idle memory over the workload lifetime."""
        total = 0.0
        count = 0
        for s in self.samples:
            if until is not None and s.time > until:
                break
            total += s.total_idle_memory_mb
            count += 1
        return total / count if count else 0.0

    def average_job_balance_skew(self, until: Optional[float] = None
                                 ) -> float:
        """Time-averaged balance skew among non-reserved workstations.

        Uses the per-tick skew series cached at sample time (same
        floats as the per-sample property); samples injected directly
        into ``samples`` (tests) fall back to the property.
        """
        total = 0.0
        count = 0
        samples = self.samples
        if len(self._skews) == len(samples):
            for s, skew in zip(samples, self._skews):
                if until is not None and s.time > until:
                    break
                total += skew
                count += 1
        else:
            for s in samples:
                if until is not None and s.time > until:
                    break
                total += s.job_balance_skew
                count += 1
        return total / count if count else 0.0

    def reserved_node_seconds(self) -> float:
        """Integral of the reserved-node count (reconfiguration cost).

        Integrates over the *actual* spacing between samples: each
        sample's count is held for the interval since the previous one
        (left-closed step function from t=0), so manual :meth:`sample`
        calls between periodic ticks refine the integral instead of
        each being billed a full ``sample_interval_s``.
        """
        total = 0.0
        last_time = 0.0
        for s in self.samples:
            total += s.num_reserved * (s.time - last_time)
            last_time = s.time
        return total
