"""Event-queue simulation engine.

The engine keeps a binary heap of ``(time, priority, sequence, handle)``
entries.  Tuples compare in C and the sequence number is unique, so
``heapq`` orders entries without calling back into Python and never
reaches the handle.  Events are plain callables; cancellation is
*lazy* — a cancelled :class:`EventHandle` stays in the heap but is
skipped when it surfaces, which keeps cancellation O(1).

Determinism guarantees:

* events at the same timestamp fire in (priority, scheduling-order)
  order;
* :attr:`Simulator.priority` tells how far the current instant has
  been processed, so a daemon scheduled only while it has work (see
  :mod:`repro.sim.daemon`) can tell whether its tick at ``now`` would
  already have fired;
* the engine never consults wall-clock time or global random state.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation kernel."""


class EventHandle:
    """A scheduled event that may be cancelled before it fires.

    Instances are returned by :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at` and compare by heap key.  A *daemon*
    event (periodic samplers, load-info exchanges, monitors) does not
    keep :meth:`Simulator.run` alive: an open-ended run stops once only
    daemon events remain.
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled",
                 "daemon", "_owner")

    def __init__(self, time: float, priority: int, seq: int,
                 callback: Callable[[], None], daemon: bool = False,
                 owner: "Optional[Simulator]" = None):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback: Optional[Callable[[], None]] = callback
        self.cancelled = False
        self.daemon = daemon
        self._owner = owner

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        if self.cancelled or self.callback is None:
            return
        self.cancelled = True
        self.callback = None  # break reference cycles early
        if self._owner is not None:
            if self.daemon:
                self._owner._daemon_pending -= 1
            else:
                self._owner._non_daemon_pending -= 1

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and not cancelled/fired."""
        return not self.cancelled and self.callback is not None

    def __lt__(self, other: "EventHandle") -> bool:
        return ((self.time, self.priority, self.seq)
                < (other.time, other.priority, other.seq))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.6f} prio={self.priority} {state}>"


class Simulator:
    """A deterministic discrete-event simulator.

    Typical usage::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("fires at t=1.5"))
        sim.run()
    """

    #: Heap sizes below this are never compacted (rebuild overhead
    #: would dwarf the memory saved).
    _COMPACT_MIN_HEAP = 64

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        #: Highest priority fired so far at ``_now`` (see ``priority``).
        self._priority = -math.inf
        self._heap: List[Tuple[float, int, int, EventHandle]] = []
        #: Sequence number of the next scheduled event.
        self._seq = 0
        self._running = False
        self._event_count = 0
        self._non_daemon_pending = 0
        self._daemon_pending = 0
        #: Number of lazy-cancellation heap rebuilds (diagnostics).
        self.compactions = 0

    # ------------------------------------------------------------------
    # clock and introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def priority(self) -> float:
        """How far the current instant has been processed: the highest
        priority of the events fired so far at :attr:`now`.

        An event at ``now`` with a lower priority than this has already
        fired (or would have, had it been scheduled).  The value is the
        maximum rather than the priority of the latest event because an
        event may schedule a lower-priority one at its own instant,
        which fires next without undoing what already ran.  It is
        ``-inf`` before anything fired at ``now`` and ``inf`` once
        :meth:`run` with ``until`` has processed every event at or
        before ``until``.
        """
        return self._priority

    @property
    def event_count(self) -> int:
        """Number of events executed so far (diagnostics)."""
        return self._event_count

    @property
    def has_non_daemon_work(self) -> bool:
        """True while live non-daemon events remain — the condition an
        external pacer loops on when driving the engine in bounded
        ``run(until=...)`` slices (daemon ticks alone never keep a run
        alive, so they must not keep a pacer alive either)."""
        return self._non_daemon_pending > 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None],
                 priority: int = 0, daemon: bool = False) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        return self.schedule_at(self._now + delay, callback, priority, daemon)

    def schedule_at(self, time: float, callback: Callable[[], None],
                    priority: int = 0, daemon: bool = False) -> EventHandle:
        """Schedule ``callback`` at an absolute simulation time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r} before now={self._now!r}")
        time = float(time)
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, priority, seq, callback, daemon, self)
        heap = self._heap
        heapq.heappush(heap, (time, priority, seq, handle))
        if daemon:
            self._daemon_pending += 1
        else:
            self._non_daemon_pending += 1
        if (len(heap) >= self._COMPACT_MIN_HEAP
                and 2 * (self._non_daemon_pending + self._daemon_pending)
                < len(heap)):
            self._compact()
        return handle

    def _compact(self) -> None:
        """Rebuild the heap without its lazily-cancelled entries;
        :meth:`schedule_at` calls this once they outnumber the pending
        ones.

        Lazy cancellation keeps :meth:`EventHandle.cancel` O(1), but a
        workload that cancels far-future events faster than the clock
        reaches them (migration-heavy runs rescheduling node wakeups)
        would otherwise grow the heap without bound.  Dropping the dead
        entries when they exceed half the heap keeps total compaction
        work amortized O(1) per cancellation.
        """
        self._heap = [entry for entry in self._heap if entry[3].pending]
        heapq.heapify(self._heap)
        self.compactions += 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.

        Returns False when the queue is exhausted.
        """
        while self._heap:
            time, priority, _, handle = heapq.heappop(self._heap)
            if not handle.pending:
                continue
            if time != self._now:
                self._now = time
                self._priority = priority
            elif priority > self._priority:
                self._priority = priority
            callback, handle.callback = handle.callback, None
            if handle.daemon:
                self._daemon_pending -= 1
            else:
                self._non_daemon_pending -= 1
            self._event_count += 1
            callback()
            return True
        return False

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        while self._heap and not self._heap[0][3].pending:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have been executed.

        An open-ended run (``until=None``) additionally stops once only
        *daemon* events remain, so periodic services (samplers,
        load-info exchanges) do not keep an idle simulation alive.

        Returns the simulation time when the run stopped.  When
        ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fired earlier.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        executed = 0
        pop = heapq.heappop
        now = self._now
        mark = self._priority
        drained = True
        try:
            # Inlined peek+step: the heap top is scanned once per
            # event instead of once in peek() and again in step().
            # self._heap is re-read each iteration because callbacks
            # can rebind it (lazy-cancellation compaction).  A handle
            # is pending exactly while it holds its callback (cancel
            # and fire both clear it), so that is the test here.
            while True:
                if until is None and self._non_daemon_pending <= 0:
                    break
                heap = self._heap
                while heap and heap[0][3].callback is None:
                    pop(heap)
                if not heap:
                    break
                time, priority, _, handle = heap[0]
                if until is not None and time > until:
                    break
                if max_events is not None and executed >= max_events:
                    drained = False
                    break
                pop(heap)
                if time != now:
                    self._now = now = time
                    self._priority = mark = priority
                elif priority > mark:
                    self._priority = mark = priority
                callback, handle.callback = handle.callback, None
                if handle.daemon:
                    self._daemon_pending -= 1
                else:
                    self._non_daemon_pending -= 1
                self._event_count += 1
                callback()
                executed += 1
        finally:
            self._running = False
        if until is not None:
            if drained:
                # Every event at or before ``until`` has fired.
                self._priority = math.inf
            elif self._now < until:
                self._priority = -math.inf
            if self._now < until:
                self._now = float(until)
        return self._now
