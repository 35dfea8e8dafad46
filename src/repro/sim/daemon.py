"""Periodic grids, and daemon ticks scheduled only while they have work.

The overload monitor runs on a fixed tick grid, but most of its ticks
find nothing to do.  A :class:`DaemonTick` keeps such a daemon's grid
while its owner *parks* the tick after a round that left no work and
*arms* it again when work appears.  A parked daemon schedules no
events.  A lossy load-information exchange runs its rounds the same
way.

One grid rule serves every daemon (:meth:`TickGrid.catch_up`):

* The grid is the chain ``start + interval + interval + ...`` formed
  by float addition, exactly as a daemon that reschedules itself
  ``interval`` after each firing produces it.  A parked chain advances
  by the same additions (never ``k * interval``), so a quiet stretch
  cannot shift the phase of later ticks.
* :meth:`DaemonTick.arm` schedules the first grid tick that would not
  yet have fired at the engine's position.  A grid time before ``now``
  has passed.  A tick at exactly ``now`` has fired if a
  higher-priority event already fired at this instant
  (:attr:`~repro.sim.engine.Simulator.priority`).  At an equal
  priority it is taken as not fired: the only same-priority event
  that wakes a daemon is the suspension policy's retry, which the
  monitor it wakes always follows.
* The tick callback is looked up on the owner by name each time it is
  scheduled, so a wrapper installed on the instance (the obs profiler)
  takes effect from the next tick on.

The grid and that rule are a :class:`TickGrid` of their own.  The
metrics collector, the obs sampler, the obs window aggregator and the
load directory's exchange rounds each keep one with no tick at all:
before each change (or each observed event, or each read) they do
what every grid time that has passed owes
(:mod:`repro.metrics.collector`, :mod:`repro.cluster.loadinfo`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import EventHandle, Simulator


class TickGrid:
    """A periodic grid, and which of its times have passed.

    The grid starts one ``interval`` after construction; ``next_time``
    is the earliest grid time not known to have passed.
    """

    __slots__ = ("sim", "interval", "priority", "next_time")

    def __init__(self, sim: "Simulator", interval: float, priority: int):
        self.sim = sim
        self.interval = interval
        self.priority = priority
        self.next_time = sim.now + interval

    def catch_up(self, priority: Optional[int] = None) -> List[float]:
        """Advance past every grid time whose tick would already have
        fired at the engine's position, and return those times.

        ``priority`` overrides the tick's place among the events at its
        own instant (the grid's ``priority`` by default).
        """
        if priority is None:
            priority = self.priority
        passed = []
        sim = self.sim
        now = sim.now
        t = self.next_time
        while t < now or (t == now and priority < sim.priority):
            passed.append(t)
            t += self.interval
        self.next_time = t
        return passed


class DaemonTick(TickGrid):
    """Grid and arm state of one periodic daemon.

    The owner's tick method must end with :meth:`fired`; work arriving
    while the tick is parked calls :meth:`arm`.  ``armed`` schedules
    the first grid tick right away.
    """

    __slots__ = ("owner", "method", "handle")

    def __init__(self, sim: "Simulator", owner: object, method: str,
                 interval: float, priority: int, armed: bool = True):
        super().__init__(sim, interval, priority)
        self.owner = owner
        self.method = method
        #: The scheduled (or firing) tick; None while parked.  While
        #: armed, ``next_time`` is the scheduled tick's time.
        self.handle: "EventHandle | None" = None
        if armed:
            self._schedule()

    @property
    def armed(self) -> bool:
        return self.handle is not None

    def arm(self) -> None:
        """Schedule the next grid tick that has not fired yet; no-op
        while a tick is scheduled or firing."""
        if self.handle is None:
            self.catch_up()
            self._schedule()

    def fired(self, keep: bool) -> None:
        """Close the tick firing now.  The next grid time follows it;
        it is scheduled if ``keep`` (the owner still has work), else
        the tick parks."""
        self.next_time += self.interval
        self.handle = None
        if keep:
            self._schedule()

    def cancel(self) -> None:
        """Drop the scheduled tick (the daemon stays parked for good
        unless :meth:`arm` is called again)."""
        if self.handle is not None:
            self.handle.cancel()
            self.handle = None

    def _schedule(self) -> None:
        self.handle = self.sim.schedule_at(
            self.next_time, getattr(self.owner, self.method),
            self.priority, daemon=True)
