"""Cluster sampling on a fixed grid, kept as one columnar series.

The paper collects the total idle memory volume and the number of
active jobs in each workstation every second (§4.1-4.2), and verifies
that the averages are insensitive to the sampling interval (we expose
the interval so the benchmark suite can repeat that check).

No event takes the samples.  The sample owed at a grid time is the
cluster as it stood then, and that is exactly the state just before
the first change after it.  So every writer of what a sample reads
runs :meth:`ClusterState.pre_change
<repro.cluster.state.ClusterState.pre_change>` before it writes:
``Workstation._sync_row``, the one writer of the state columns, and
the policies' pending-queue mutators.  The collector's hook,
:meth:`MetricsCollector.flush`, emits every grid time that has passed
by then from the still-unchanged state.  Which times have passed is
:meth:`repro.sim.daemon.TickGrid.catch_up`'s rule, the one the daemon
ticks follow: a sample at grid time ``t`` sees every change at ``t``
that a priority-4 tick would have seen.  The averages and a checkpoint
flush before they read.  A checkpoint does not pickle the hook; the
restored collector registers it again.

The series is struct-of-arrays, one entry per grid time:

* ``times``, ``idle_memory_mb`` (cluster total) and ``skews`` are
  ``array('d')`` columns; ``reserved`` and ``pending`` (node and job
  counts) are ``array('l')`` columns;
* ``vectors`` holds, per sample, a reference to the job-count vector:
  ``bytes`` with one byte per node, its running-job count, or
  :data:`EXCLUDED` for a reserved or dead node (the paper's skew is
  taken "among all non-reserved workstations").  Samples share one
  vector object until the counts change.

One :meth:`MetricsCollector.sample` call reads the state once for all
the grid times a flush emits, and recomputes the components only if
some row was written since the last call (``ClusterState.version``).
The vector is built from the state columns in C; the balance skew is
computed once per new vector, so summarize-time averaging is
O(samples) instead of O(samples x N).
"""

from __future__ import annotations

import math
from array import array
from typing import List, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.state import FLAG_ALIVE, FLAG_RESERVED
from repro.sim.daemon import TickGrid
from repro.sim.portable import left_sum

#: Vector byte of a node left out of the balance skew (reserved or
#: dead); running-job counts must stay below it.
EXCLUDED = 0xFF
_EXCLUDED_BYTE = bytes([EXCLUDED])

#: Byte-translate tables over the packed flags column: C-speed
#: classification of all N nodes at once.  ``_EXCLUDED_TABLE`` gives
#: EXCLUDED for a reserved or dead node and 0 otherwise (the mask
#: OR-ed over the counts); ``_RESERVED_TABLE`` marks reserved nodes.
_EXCLUDED_TABLE = bytes(
    EXCLUDED if (b & FLAG_RESERVED or not b & FLAG_ALIVE) else 0
    for b in range(256))
_RESERVED_TABLE = bytes(1 if b & FLAG_RESERVED else 0 for b in range(256))


def _skew_of(vector: bytes) -> float:
    """Balance skew of one job-count vector: the population standard
    deviation of the counts of the nodes it does not exclude."""
    counts = vector.replace(_EXCLUDED_BYTE, b"")
    if not counts:
        return 0.0
    mean = sum(counts) / len(counts)
    # Few distinct counts among many nodes: square each deviation once
    # and sum the same floats in the same order through a C-level map.
    table = {c: (c - mean) ** 2 for c in set(counts)}
    return math.sqrt(left_sum(map(table.__getitem__, counts)) / len(counts))


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
    """Samples cluster state every ``sample_interval_s`` seconds.

    Read the columns after :meth:`flush`, which appends the samples
    owed up to the engine's current position.
    """

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
        self.times = array("d")
        self.idle_memory_mb = array("d")
        self.skews = array("d")
        self.reserved = array("l")
        self.pending = array("l")
        self.vectors: List[bytes] = []
        self._state = cluster.state
        # Components of the last sample and the state version they were
        # read at; the pending count is probed fresh every sample.
        self._version: Optional[int] = None
        self._idle = 0.0
        self._vector = b""
        self._skew = 0.0
        self._reserved = 0
        self._grid = TickGrid(cluster.sim, self.sample_interval_s,
                              priority=4)
        cluster.state.pre_change_hooks.append(self.flush)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._state.pre_change_hooks.append(self.flush)  # not pickled

    def flush(self) -> None:
        """Append a sample for every grid time that has passed, from
        the state as it stands (unchanged since the earliest of them:
        every change runs this first)."""
        grid = self._grid
        # Most changes come between two grid times: nothing to emit.
        if grid.next_time <= grid.sim.now:
            times = grid.catch_up()
            if times:
                self.sample(times)

    def sample(self, times: List[float]) -> None:
        """Read the cluster once and append that sample at each of
        ``times``."""
        state = self._state
        if state.version != self._version:
            self._version = state.version
            try:
                counts = bytes(state.num_running.tolist())
            except ValueError:
                counts = _EXCLUDED_BYTE  # a count of 256 or more
            if _EXCLUDED_BYTE in counts:
                raise OverflowError(
                    f"a node runs {EXCLUDED} or more jobs; the job-count "
                    f"vector holds fewer")
            mask = state.flags.translate(_EXCLUDED_TABLE)
            if _EXCLUDED_BYTE not in mask:
                # Common case: every node alive and unreserved, so the
                # vector is the count column verbatim.
                vector = counts
                self._reserved = 0
            else:
                n = len(counts)
                vector = (int.from_bytes(counts, "big")
                          | int.from_bytes(mask, "big")).to_bytes(n, "big")
                self._reserved = state.flags.translate(
                    _RESERVED_TABLE).count(1)
            self._idle = left_sum(state.idle_memory_mb)
            # A change to memory alone leaves the job counts, and so
            # the vector object and the skew, as they were.
            if vector != self._vector:
                self._vector = vector
                self._skew = _skew_of(vector)
        pending = self.pending_probe() if self.pending_probe else 0
        k = len(times)
        self.times.extend(times)
        self.idle_memory_mb.extend([self._idle] * k)
        self.skews.extend([self._skew] * k)
        self.reserved.extend([self._reserved] * k)
        self.pending.extend([pending] * k)
        self.vectors.extend([self._vector] * k)

    # ------------------------------------------------------------------
    def _average(self, column: array, until: Optional[float]) -> float:
        """Mean of ``column`` over the samples up to ``until``, summed
        left to right (``sum`` of floats is compensated from Python
        3.12 on, which would change the result's last bits)."""
        self.flush()
        total = 0.0
        count = 0
        for time, value in zip(self.times, column):
            if until is not None and time > until:
                break
            total += value
            count += 1
        return total / count if count else 0.0

    def average_idle_memory_mb(self, until: Optional[float] = None) -> float:
        """Time-averaged total idle memory over the workload lifetime."""
        return self._average(self.idle_memory_mb, until)

    def average_job_balance_skew(self, until: Optional[float] = None
                                 ) -> float:
        """Time-averaged balance skew among non-reserved workstations."""
        return self._average(self.skews, until)
