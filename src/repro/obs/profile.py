"""Engine self-profiling: where does a run's wall time actually go?

The obs stack watches the *cluster*; this module watches the
*watcher's host* — the engine loop itself.  An
:class:`EngineProfiler` wraps a handful of well-known hot entry
points with stack-based phase timers:

=================  ====================================================
phase              wrapped entry points
=================  ====================================================
``recompute``      ``Workstation._recompute`` (per node)
``placement``      the policy's ``_try_place``
``reconfiguration``the policy's ``_monitor_tick`` (overload monitor,
                   blocking detection, reservation decisions)
``loadinfo``       every shard's exchange round closes
                   (``refresh``) and candidate-order updates
                   (``_order``), and the inter-domain summary tick
``obs``            the cluster sampler's rows and the window
                   aggregator's closed windows (instrumentation pays
                   for itself visibly)
``other``          everything else inside the engine loop — event
                   dispatch, job service callbacks, memory model
=================  ====================================================

The timers are *exclusive* (self-time): a parent phase's clock stops
while a child phase runs, so the phase times tile the engine wall
time exactly — their sum equals the inclusive engine span, which is
what makes the ``profile_bench`` coverage check (>= 90 % of engine
wall time accounted) meaningful rather than decorative.

Wrapping is per-instance (an instance attribute shadows the class
method) and only happens when profiling is requested, so the
no-profiling hot path is untouched.  Timing uses
``time.perf_counter`` only — the simulation clock and event order are
never consulted or altered, preserving the determinism invariant
(checked by ``profile_bench``: summary identical modulo ``obs.*``).
Outside the engine span a wrapper runs untimed (coverage stays at
most 100 %); a checkpoint pickles the unwrapped objects
(:meth:`EngineProfiler.unwrapped`, :meth:`_Timed.__reduce__`), found
through the cluster's bus however the run was wired.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster
    from repro.sim.engine import Simulator

#: Phase name carrying the engine loop's self time.
OTHER_PHASE = "other"


class _Timed:
    """One wrapped method: timed under ``phase`` inside the engine
    span, pickled as the method it wraps."""

    __slots__ = ("profiler", "phase", "__wrapped__")

    def __init__(self, profiler: "EngineProfiler", phase: str,
                 original: Callable):
        self.profiler, self.phase = profiler, phase
        self.__wrapped__ = original

    def __call__(self, *args, **kwargs):
        profiler = self.profiler
        if not profiler._stack:
            return self.__wrapped__(*args, **kwargs)
        profiler._enter(self.phase)
        try:
            return self.__wrapped__(*args, **kwargs)
        finally:
            profiler._exit()

    def __reduce__(self):  # a tick on the heap may hold the wrapper
        return self.__wrapped__.__reduce__()


class EngineProfiler:
    """Deterministic phase timers around the engine loop."""

    def __init__(self):
        self.exclusive_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: Inclusive engine-loop wall seconds (sums paced slices).
        self.engine_wall_s = 0.0
        self._stack: List[list] = []  # [phase, start, child_seconds]
        self._wrapped: List[Tuple[object, str, _Timed]] = []
        self._perf = time.perf_counter

    # ------------------------------------------------------------------
    # timer core
    # ------------------------------------------------------------------
    def _enter(self, phase: str) -> None:
        self._stack.append([phase, self._perf(), 0.0])

    def _exit(self) -> float:
        phase, started, child_s = self._stack.pop()
        elapsed = self._perf() - started
        self.exclusive_s[phase] = (self.exclusive_s.get(phase, 0.0)
                                   + elapsed - child_s)
        self.calls[phase] = self.calls.get(phase, 0) + 1
        if self._stack:
            self._stack[-1][2] += elapsed
        return elapsed

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def wrap_method(self, obj: object, attr: str, phase: str) -> bool:
        """Shadow ``obj.attr`` with a timed wrapper (instance
        attribute).  Returns False when the attribute is missing, so
        callers can wire optional hooks without hasattr chains."""
        original = getattr(obj, attr, None)
        if original is None:
            return False
        timed = _Timed(self, phase, original)
        setattr(obj, attr, timed)
        self._wrapped.append((obj, attr, timed))
        return True

    def attach(self, cluster: "Cluster", policy=None,
               observers: Tuple[Tuple[object, str], ...] = ()
               ) -> "EngineProfiler":
        """Wrap the run's hot entry points.

        ``policy`` adds the placement/reconfiguration phases;
        ``observers`` are (object, attr) pairs timed under the ``obs``
        phase (the sampler's rows, the window's closes).
        """
        for node in cluster.nodes:
            self.wrap_method(node, "_recompute", "recompute")
        directory = cluster.directory
        # The exchange rounds close and reach the candidate orders
        # inside whatever change or read needs them; the summary round
        # is a tick.
        for domain in range(directory.num_domains):
            shard = directory.shard(domain)
            self.wrap_method(shard, "refresh", "loadinfo")
            self.wrap_method(shard, "_order", "loadinfo")
        self.wrap_method(directory, "_summary_tick", "loadinfo")
        if policy is not None:
            self.wrap_method(policy, "_try_place", "placement")
            self.wrap_method(policy, "_monitor_tick", "reconfiguration")
        for obj, attr in observers:
            self.wrap_method(obj, attr, "obs")
        cluster.obs.profiler = self
        return self

    @contextmanager
    def unwrapped(self):
        """Take every wrapper off for the duration of the block (the
        shadowed class methods resume; a checkpoint pickles the plain
        objects), then put them back."""
        for obj, attr, _ in self._wrapped:
            delattr(obj, attr)
        try:
            yield
        finally:
            for obj, attr, timed in self._wrapped:
                setattr(obj, attr, timed)

    # ------------------------------------------------------------------
    # engine driving
    # ------------------------------------------------------------------
    def run(self, sim: "Simulator", until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run the engine inside the enclosing profile span.  Safe to
        call repeatedly (the pacer drives bounded slices through it);
        inclusive slice times accumulate into ``engine_wall_s``."""
        self._enter(OTHER_PHASE)
        try:
            return sim.run(until=until, max_events=max_events)
        finally:
            self.engine_wall_s += self._exit()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def coverage(self) -> float:
        """Accounted fraction: sum of exclusive phase times over the
        inclusive engine wall time.  By construction ~1.0 when every
        phase fired inside :meth:`run`."""
        if self.engine_wall_s <= 0:
            return 0.0
        return sum(self.exclusive_s.values()) / self.engine_wall_s

    def report(self) -> dict:
        phases = dict(sorted(self.exclusive_s.items()))
        return {
            "engine_wall_s": self.engine_wall_s,
            "phases_s": phases,
            "calls": dict(sorted(self.calls.items())),
            "coverage": self.coverage(),
        }

    def aggregate(self) -> Dict[str, float]:
        """Flat gauges for ``RunSummary.extra`` (``obs.profile_*``)."""
        out = {"profile_engine_wall_s": self.engine_wall_s,
               "profile_coverage": self.coverage()}
        for phase, seconds in self.exclusive_s.items():
            out[f"profile_{phase}_wall_s"] = seconds
            out[f"profile_{phase}_calls"] = float(self.calls.get(phase, 0))
        return out


__all__ = ["EngineProfiler", "OTHER_PHASE"]
