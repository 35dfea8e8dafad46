"""Unit tests for the discrete-event simulation kernel."""

import math
import pickle

import pytest

from repro.sim import Simulator, SimulationError
from repro.sim.daemon import DaemonTick
from repro.sim.engine import EventHandle


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, lambda: fired.append("c"))
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(2.0, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for tag in "abcde":
        sim.schedule(1.0, lambda t=tag: fired.append(t))
    sim.run()
    assert fired == list("abcde")


def test_priority_breaks_ties_before_sequence():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append("low"), priority=5)
    sim.schedule(1.0, lambda: fired.append("high"), priority=0)
    sim.run()
    assert fired == ["high", "low"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append("x"))
    sim.schedule(2.0, lambda: fired.append("y"))
    handle.cancel()
    sim.run()
    assert fired == ["y"]
    assert not handle.pending


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()
    assert sim.event_count == 0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.5, lambda: None)


def test_schedule_in_the_past_rejected():
    sim = Simulator(start_time=10.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_events_scheduled_during_events():
    sim = Simulator()
    fired = []

    def first():
        fired.append(("first", sim.now))
        sim.schedule(2.0, lambda: fired.append(("nested", sim.now)))

    sim.schedule(1.0, first)
    sim.run()
    assert fired == [("first", 1.0), ("nested", 3.0)]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(5.0, lambda: fired.append(5))
    end = sim.run(until=3.0)
    assert fired == [1]
    assert end == 3.0
    assert sim.now == 3.0
    sim.run()
    assert fired == [1, 5]


def test_run_until_advances_clock_even_with_no_events():
    sim = Simulator()
    sim.run(until=7.5)
    assert sim.now == 7.5


def test_run_max_events():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), lambda i=i: fired.append(i))
    sim.run(max_events=4)
    assert fired == [0, 1, 2, 3]


def test_step_and_peek():
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    cancelled = sim.schedule(1.0, lambda: None)
    cancelled.cancel()
    assert sim.peek() == 2.0
    assert sim.step() is True
    assert sim.step() is False


def live_events(sim, daemon=None):
    """Scheduled, not cancelled heap entries (daemon ones only, or
    non-daemon ones only, if ``daemon`` is given).  Heap entries are
    (time, priority, seq, handle) tuples."""
    return sum(1 for entry in sim._heap
               if entry[3].pending
               and (daemon is None or entry[3].daemon == daemon))


def test_pending_events_excludes_cancelled():
    sim = Simulator()
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h1.cancel()
    assert live_events(sim) == 1
    assert sim.has_non_daemon_work


def test_event_count_tracks_executed_events():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.event_count == 5


def test_event_handle_ordering():
    a = EventHandle(1.0, 0, 0, lambda: None)
    b = EventHandle(1.0, 0, 1, lambda: None)
    c = EventHandle(0.5, 9, 2, lambda: None)
    assert a < b
    assert c < a


def test_reentrant_run_rejected():
    sim = Simulator()

    def body():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, body)
    sim.run()


class TestDaemonEvents:
    """Daemon events (periodic services) must not keep an open-ended
    run alive, but still fire while real work remains."""

    def test_open_ended_run_ignores_pure_daemon_queue(self):
        sim = Simulator()
        fired = []

        def tick():
            fired.append(sim.now)
            sim.schedule(1.0, tick, daemon=True)

        sim.schedule(1.0, tick, daemon=True)
        sim.run()
        assert fired == []  # nothing non-daemon ever existed
        assert sim.now == 0.0

    def test_daemons_fire_while_work_remains(self):
        sim = Simulator()
        fired = []

        def tick():
            fired.append(sim.now)
            sim.schedule(1.0, tick, daemon=True)

        sim.schedule(1.0, tick, daemon=True)
        sim.schedule(3.5, lambda: None)  # real work until t=3.5
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_run_until_executes_daemons(self):
        sim = Simulator()
        fired = []

        def tick():
            fired.append(sim.now)
            sim.schedule(1.0, tick, daemon=True)

        sim.schedule(1.0, tick, daemon=True)
        sim.run(until=2.5)
        assert fired == [1.0, 2.0]

    def test_cancelling_last_non_daemon_stops_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("work"))
        handle = sim.schedule(5.0, lambda: fired.append("late"))
        sim.schedule(2.0, lambda: None, daemon=True)
        handle.cancel()
        sim.run()
        assert fired == ["work"]

    def test_daemon_scheduling_non_daemon_extends_run(self):
        sim = Simulator()
        fired = []

        def daemon():
            # periodic service discovers real work
            sim.schedule(1.0, lambda: fired.append(sim.now))

        sim.schedule(1.0, daemon, daemon=True)
        sim.schedule(1.5, lambda: fired.append("anchor"))
        sim.run()
        assert "anchor" in fired
        assert 2.0 in fired


class TestPendingEventsCounter:
    """``has_non_daemon_work`` is counter-backed (O(1)), so it must
    stay consistent through every schedule/cancel/fire path."""

    def test_counts_daemon_and_non_daemon(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None, daemon=True)
        assert live_events(sim) == 2
        assert sim.has_non_daemon_work

    def test_decrements_on_fire(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None, daemon=True)
        sim.schedule(1.5, lambda: None)
        sim.run()  # stops once only the daemon remains
        assert live_events(sim) == live_events(sim, daemon=True) == 1
        assert not sim.has_non_daemon_work

    def test_decrements_on_daemon_cancel(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None, daemon=True)
        handle.cancel()
        assert live_events(sim) == 0
        assert not sim.has_non_daemon_work

    def test_matches_heap_scan_through_mixed_activity(self):
        sim = Simulator()
        handles = []
        for i in range(50):
            handles.append(sim.schedule(float(i + 1), lambda: None,
                                        daemon=(i % 3 == 0)))
        for handle in handles[::2]:
            handle.cancel()
        assert sim.has_non_daemon_work == (
            live_events(sim, daemon=False) > 0)
        sim.run(until=10.0)
        assert sim.has_non_daemon_work == (
            live_events(sim, daemon=False) > 0)
        sim.run()
        assert live_events(sim, daemon=False) == 0
        assert not sim.has_non_daemon_work


class TestHeapCompaction:
    """Lazily-cancelled events must not accumulate without bound."""

    def test_cancelled_majority_is_compacted(self):
        sim = Simulator()
        handles = [sim.schedule(1000.0 + i, lambda: None)
                   for i in range(500)]
        for handle in handles:
            handle.cancel()
        # One live far-future event plus a new schedule triggers the
        # rebuild: the dead 500 must be gone from the heap.
        sim.schedule(1.0, lambda: None)
        assert len(sim._heap) <= 2
        assert live_events(sim) == 1

    def test_small_heaps_left_alone(self):
        sim = Simulator()
        handles = [sim.schedule(10.0 + i, lambda: None) for i in range(10)]
        for handle in handles:
            handle.cancel()
        sim.schedule(1.0, lambda: None)
        # below the compaction floor: lazy entries may linger
        assert len(sim._heap) == 11
        assert live_events(sim) == 1

    def test_compaction_preserves_order_and_results(self):
        sim = Simulator()
        fired = []
        keep = []
        for i in range(200):
            handle = sim.schedule(float(i + 1),
                                  lambda i=i: fired.append(i))
            if i % 7 == 0:
                keep.append(i)
            else:
                handle.cancel()
        sim.run()
        assert fired == keep

    def test_compaction_bounds_heap_under_churn(self):
        """Schedule-and-cancel churn (the migration-heavy pattern)
        keeps the heap near the live-event count."""
        sim = Simulator()
        live = sim.schedule(1e9, lambda: None)  # keeps the run alive
        previous = None
        for i in range(10_000):
            if previous is not None:
                previous.cancel()
            previous = sim.schedule(1e6 + i, lambda: None)
        assert len(sim._heap) < 200
        assert live_events(sim) == 2
        live.cancel()
        previous.cancel()


class TestHeapEntries:
    """The heap holds ``(time, priority, seq, handle)`` tuples."""

    def test_equal_time_events_keep_priority_seq_order_across_compaction(self):
        sim = Simulator()
        fired = []
        expected = []
        handles = [sim.schedule(5.0, lambda i=i: fired.append(i),
                                priority=i % 3) for i in range(300)]
        for i, handle in enumerate(handles):
            if i % 4 == 0:
                expected.append((i % 3, i))
            else:
                handle.cancel()
        # The next schedule finds dead entries outnumbering live ones.
        sim.schedule(5.0, lambda: fired.append("last"), priority=1)
        assert sim.compactions == 1
        assert len(sim._heap) == len(expected) + 1
        expected.append((1, 300))
        sim.run()
        assert fired == [i if i != 300 else "last"
                         for _, i in sorted(expected)]

    def test_handle_survives_a_pickle_round_trip(self):
        sim = Simulator()
        sim.schedule(1.0, _noop)
        handle = sim.schedule(2.5, _noop, priority=3, daemon=True)
        copy = pickle.loads(pickle.dumps(handle))
        assert (copy.time, copy.priority, copy.seq, copy.daemon,
                copy.cancelled) == (2.5, 3, 1, True, False)
        assert copy.callback is _noop and copy.pending
        assert live_events(copy._owner) == 2
        earlier = pickle.loads(pickle.dumps(sim._heap[0][3]))
        assert earlier < copy and not copy < earlier


def _noop():
    pass


# ----------------------------------------------------------------------
# engine position and daemon ticks (repro.sim.daemon)
# ----------------------------------------------------------------------
def test_priority_is_the_highest_fired_at_the_current_instant():
    sim = Simulator()
    seen = []

    def late():
        seen.append(sim.priority)
        sim.schedule(0.0, lambda: seen.append(sim.priority), priority=0)

    assert sim.priority == -math.inf
    sim.schedule(1.0, late, priority=3)
    sim.run(until=1.0)
    # The priority-0 event scheduled by the priority-3 one fires after
    # it without undoing what already ran at t=1.
    assert seen == [3, 3]
    assert sim.priority == math.inf  # every event at t <= 1 has fired
    sim.schedule(0.0, lambda: seen.append(sim.priority))
    sim.schedule(1.0, lambda: seen.append(sim.priority), priority=2)
    sim.run()
    assert seen == [3, 3, math.inf, 2]


class _ParkingDaemon:
    """Parks after every tick and records when it fired."""

    def __init__(self, sim, interval, priority=4):
        self.sim = sim
        self.fired = []
        self.tick = DaemonTick(sim, self, "_tick", interval, priority)

    def _tick(self):
        self.fired.append(self.sim.now)
        self.tick.fired(keep=False)


def test_rearmed_ticks_stay_on_the_chained_grid():
    sim = Simulator()
    daemon = _ParkingDaemon(sim, 0.3)
    wakes = [0.05, 7.31, 7.32, 50.0, 123.456, 999.99]
    for time in wakes:
        sim.schedule_at(time, daemon.tick.arm)
    sim.schedule_at(1001.0, _noop)  # daemon ticks alone end a run
    sim.run()
    grid, t = [], 0.0
    while t < 1001.0:
        t += 0.3
        grid.append(t)
    expected = sorted({min(g for g in grid if g > wake) for wake in wakes}
                      | {grid[0]})
    assert daemon.fired == expected  # float equality: bit for bit
    # The chained times are not the multiples k * 0.3, so the check
    # above tells the two grids apart.
    assert any(t != (grid.index(t) + 1) * 0.3 for t in expected)


@pytest.mark.parametrize("priority, fires_at", [
    (0, 2.0),   # the tick at t=2 (priority 4) has not fired yet
    (4, 2.0),   # same priority: taken as not fired
    (5, 3.0),   # the tick at t=2 already fired: wait for the next
])
def test_a_change_at_a_grid_time_fires_the_tick_only_if_still_due(
        priority, fires_at):
    sim = Simulator()
    daemon = _ParkingDaemon(sim, 1.0, priority=4)
    sim.schedule_at(2.0, daemon.tick.arm, priority=priority)
    sim.schedule_at(10.0, _noop)
    sim.run()
    assert daemon.fired == [1.0, fires_at]


def test_a_change_after_a_higher_priority_event_waits_for_the_next_tick():
    sim = Simulator()
    daemon = _ParkingDaemon(sim, 1.0, priority=4)
    sim.schedule_at(2.0, lambda: sim.schedule(0.0, daemon.tick.arm),
                    priority=5)
    sim.schedule_at(10.0, _noop)
    sim.run()
    assert daemon.fired == [1.0, 3.0]


def test_a_change_between_run_slices_waits_for_the_next_tick():
    sim = Simulator()
    daemon = _ParkingDaemon(sim, 1.0, priority=4)
    sim.run(until=2.0)
    daemon.tick.arm()
    sim.schedule(0.0, daemon.tick.arm)  # fires at t=2 in the next slice
    sim.run(until=5.0)
    assert daemon.fired == [1.0, 3.0]


class _MonitorWithRetry:
    """A priority-3 monitor that starts a priority-3 retry from inside
    its tick, as the suspension policy does; each retry re-heats the
    monitor."""

    def __init__(self, sim, keep_armed):
        self.sim = sim
        self.keep_armed = keep_armed
        self.hot = False
        self.retries = 3
        self.log = []
        self.tick = DaemonTick(sim, self, "_tick", 1.0, priority=3,
                               armed=keep_armed)

    def heat(self):
        self.hot = True
        self.tick.arm()

    def _tick(self):
        if self.hot:
            self.log.append((self.sim.now, "monitor"))
            self.hot = False
            if self.retries:
                self.retries -= 1
                self.sim.schedule(1.0, self._retry, priority=3)
        self.tick.fired(keep=self.keep_armed)

    def _retry(self):
        self.log.append((self.sim.now, "retry"))
        self.heat()


def test_a_same_priority_retry_keeps_its_place_before_the_monitor():
    logs = []
    for keep_armed in (False, True):
        sim = Simulator()
        monitor = _MonitorWithRetry(sim, keep_armed)
        sim.schedule_at(0.5, monitor.heat)
        sim.schedule_at(20.0, _noop)
        sim.run()
        logs.append(monitor.log)
    parked, armed = logs
    assert parked == armed == [
        (1.0, "monitor"), (2.0, "retry"), (2.0, "monitor"),
        (3.0, "retry"), (3.0, "monitor"), (4.0, "retry"),
        (4.0, "monitor")]

