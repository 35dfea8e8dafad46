"""Unit tests for the reservation lifecycle (§2.1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.reconfiguration import VReconfiguration
from repro.core.reservation import (
    ReservationManager,
    ReservationMode,
    ReservationState,
)

from helpers import job, tiny_cluster


def manager(cluster, **kwargs):
    defaults = dict(mode=ReservationMode.DRAIN_ALL, max_reserved=2,
                    reserve_timeout_s=0.0)
    defaults.update(kwargs)
    return ReservationManager(cluster, **defaults)


class TestReserve:
    def test_reserve_blocks_submissions(self):
        cluster = tiny_cluster()
        mgr = manager(cluster)
        reservation = mgr.reserve(cluster.nodes[0], needed_mb=50.0)
        assert cluster.nodes[0].reserved
        assert not cluster.nodes[0].accepting
        assert reservation.state is ReservationState.RESERVING

    def test_idle_node_is_ready_immediately(self):
        cluster = tiny_cluster()
        mgr = manager(cluster)
        ready = []
        mgr.on_ready = ready.append
        reservation = mgr.reserve(cluster.nodes[0], needed_mb=50.0)
        assert ready == [reservation]

    def test_drain_all_waits_for_all_jobs(self):
        cluster = tiny_cluster()
        mgr = manager(cluster)
        ready = []
        mgr.on_ready = ready.append
        short = job(work=10.0, demand=10.0)
        long_ = job(work=30.0, demand=10.0)
        cluster.nodes[0].add_job(short)
        cluster.nodes[0].add_job(long_)
        mgr.reserve(cluster.nodes[0], needed_mb=50.0)
        cluster.sim.run(until=25.0)
        assert not ready  # short done, long still running
        cluster.sim.run()
        assert len(ready) == 1

    def test_first_fit_ready_when_memory_frees(self):
        cluster = tiny_cluster(memory_mb=100.0)
        mgr = manager(cluster, mode=ReservationMode.FIRST_FIT)
        ready = []
        mgr.on_ready = ready.append
        short = job(work=10.0, demand=40.0)
        long_ = job(work=1000.0, demand=30.0)
        cluster.nodes[0].add_job(short)
        cluster.nodes[0].add_job(long_)
        mgr.reserve(cluster.nodes[0], needed_mb=60.0)  # idle is 30 now
        cluster.sim.run(until=50.0)
        # short's 40MB freed -> idle 70 >= 60 although long still runs
        assert len(ready) == 1

    def test_double_reserve_rejected(self):
        cluster = tiny_cluster()
        mgr = manager(cluster)
        mgr.reserve(cluster.nodes[0], needed_mb=1.0)
        with pytest.raises(ValueError):
            mgr.reserve(cluster.nodes[0], needed_mb=1.0)

    def test_max_reserved_enforced(self):
        cluster = tiny_cluster()
        mgr = manager(cluster, max_reserved=1)
        mgr.reserve(cluster.nodes[0], needed_mb=1.0)
        assert not mgr.can_reserve()
        with pytest.raises(ValueError):
            mgr.reserve(cluster.nodes[1], needed_mb=1.0)

    def test_cannot_allow_reserving_every_node(self):
        cluster = tiny_cluster(num_nodes=4)
        with pytest.raises(ValueError):
            ReservationManager(cluster, max_reserved=4)
        with pytest.raises(ValueError):
            ReservationManager(cluster, max_reserved=0)


class TestServeAndRelease:
    def serve_one(self, cluster, mgr):
        reservation = mgr.reserve(cluster.nodes[0], needed_mb=50.0)
        big = job(work=20.0, demand=50.0)
        mgr.assign(reservation, big)
        cluster.nodes[0].add_job(big)
        mgr.job_arrived(reservation, big)
        return reservation, big

    def test_assign_moves_to_serving(self):
        cluster = tiny_cluster()
        mgr = manager(cluster)
        reservation, _ = self.serve_one(cluster, mgr)
        assert reservation.state is ReservationState.SERVING

    def test_release_when_migrated_jobs_complete(self):
        cluster = tiny_cluster()
        mgr = manager(cluster)
        reservation, big = self.serve_one(cluster, mgr)
        cluster.sim.run()
        assert big.finished
        assert reservation.state is ReservationState.RELEASED
        assert not cluster.nodes[0].reserved

    def test_release_notifies_node_change(self):
        cluster = tiny_cluster()
        changed = []
        cluster.on_node_changed(lambda node: changed.append(node.node_id))
        mgr = manager(cluster)
        self.serve_one(cluster, mgr)
        cluster.sim.run()
        assert 0 in changed

    def test_not_released_while_inbound_in_flight(self):
        cluster = tiny_cluster()
        mgr = manager(cluster)
        reservation, big = self.serve_one(cluster, mgr)
        second = job(work=50.0, demand=20.0)
        mgr.assign(reservation, second)  # in flight, never arrives yet
        cluster.sim.run(until=30.0)
        assert big.finished
        assert reservation.state is ReservationState.SERVING

    def test_reuse_capacity_check(self):
        cluster = tiny_cluster(memory_mb=100.0)
        mgr = manager(cluster)
        reservation, _ = self.serve_one(cluster, mgr)
        assert mgr.serving_reservation_with_capacity(40.0) is reservation
        assert mgr.serving_reservation_with_capacity(60.0) is None

    def test_local_leftovers_do_not_extend_reservation(self):
        """First-fit mode: the reservation ends when migrated jobs are
        done even if pre-existing local jobs still run."""
        cluster = tiny_cluster(memory_mb=100.0)
        mgr = manager(cluster, mode=ReservationMode.FIRST_FIT)
        leftover = job(work=1000.0, demand=10.0)
        cluster.nodes[0].add_job(leftover)
        reservation = mgr.reserve(cluster.nodes[0], needed_mb=40.0)
        big = job(work=20.0, demand=40.0)
        mgr.assign(reservation, big)
        cluster.nodes[0].add_job(big)
        mgr.job_arrived(reservation, big)
        cluster.sim.run(until=200.0)
        assert big.finished
        assert not leftover.finished
        assert reservation.state is ReservationState.RELEASED


class TestCancelAndTimeout:
    def test_cancel_returns_node_to_normal(self):
        cluster = tiny_cluster()
        mgr = manager(cluster)
        cluster.nodes[0].add_job(job(work=100.0))
        reservation = mgr.reserve(cluster.nodes[0], needed_mb=1.0)
        mgr.cancel(reservation)
        assert reservation.state is ReservationState.CANCELLED
        assert not cluster.nodes[0].reserved

    def test_cancel_only_affects_reserving_state(self):
        cluster = tiny_cluster()
        mgr = manager(cluster)
        reservation = mgr.reserve(cluster.nodes[0], needed_mb=1.0)
        big = job(work=10.0, demand=1.0)
        mgr.assign(reservation, big)
        mgr.cancel(reservation)  # no-op: already serving
        assert reservation.state is ReservationState.SERVING

    def test_timeout_cancels_stale_reserving_period(self):
        cluster = tiny_cluster()
        mgr = manager(cluster, reserve_timeout_s=50.0)
        cluster.nodes[0].add_job(job(work=1000.0))
        reservation = mgr.reserve(cluster.nodes[0], needed_mb=1.0)
        cluster.sim.run(until=60.0)
        assert reservation.state is ReservationState.CANCELLED
        assert not cluster.nodes[0].reserved

    def test_timeline_records_lifecycle(self):
        cluster = tiny_cluster()
        mgr = manager(cluster)
        reservation = mgr.reserve(cluster.nodes[0], needed_mb=1.0)
        big = job(work=5.0, demand=1.0)
        mgr.assign(reservation, big)
        cluster.nodes[0].add_job(big)
        mgr.job_arrived(reservation, big)
        cluster.sim.run()
        kinds = [event.kind for event in mgr.timeline]
        assert kinds == ["reserve", "ready", "assign", "arrive", "release"]


# ----------------------------------------------------------------------
# the reuse path
# ----------------------------------------------------------------------
def serving(cluster, mgr, node_id, demand, work=1000.0):
    """A SERVING reservation on ``node_id`` running one migrated job."""
    reservation = mgr.reserve(cluster.nodes[node_id], needed_mb=demand)
    big = job(work=work, demand=demand)
    mgr.assign(reservation, big)
    cluster.nodes[node_id].add_job(big)
    mgr.job_arrived(reservation, big)
    return reservation


class TestReuseChoice:
    def test_equal_idle_memory_goes_to_the_earliest_reservation(self):
        cluster = tiny_cluster(memory_mb=100.0)
        mgr = manager(cluster, max_reserved=3)
        first = serving(cluster, mgr, 2, demand=50.0)
        serving(cluster, mgr, 1, demand=50.0)
        assert mgr.serving_reservation_with_capacity(40.0) is first

    def test_most_idle_memory_wins(self):
        cluster = tiny_cluster(memory_mb=100.0)
        mgr = manager(cluster, max_reserved=3)
        serving(cluster, mgr, 0, demand=50.0)
        roomier = serving(cluster, mgr, 1, demand=30.0)
        assert mgr.serving_reservation_with_capacity(40.0) is roomier

    def test_reserving_period_is_not_reused(self):
        cluster = tiny_cluster(memory_mb=100.0)
        mgr = manager(cluster, max_reserved=3)
        cluster.nodes[0].add_job(job(work=1000.0, demand=10.0))
        mgr.reserve(cluster.nodes[0], needed_mb=50.0)
        assert mgr.serving_reservation_with_capacity(5.0) is None

    def test_node_without_a_free_slot_is_skipped(self):
        cluster = tiny_cluster(memory_mb=100.0, cpu_threshold=3)
        mgr = manager(cluster, max_reserved=3)
        full = serving(cluster, mgr, 0, demand=10.0)
        for _ in range(2):
            cluster.nodes[0].add_job(job(work=1000.0, demand=5.0))
        other = serving(cluster, mgr, 1, demand=50.0)
        assert full.node.idle_memory_mb > other.node.idle_memory_mb
        assert mgr.serving_reservation_with_capacity(40.0) is other

    def test_idle_memory_edge(self):
        cluster = tiny_cluster(memory_mb=100.0)
        mgr = manager(cluster)
        reservation = serving(cluster, mgr, 0, demand=50.0)
        assert reservation.node.idle_memory_mb == 50.0
        assert mgr.serving_reservation_with_capacity(
            50.0 + 0.5e-9) is reservation
        assert mgr.serving_reservation_with_capacity(50.0 + 2e-9) is None


# ----------------------------------------------------------------------
# the active-only index
# ----------------------------------------------------------------------
def assert_active_only(mgr):
    """``_by_node`` holds exactly the active reservations, in the order
    they were made, so the O(1) counts equal the scans."""
    active = [r for r in mgr.history if r.active]
    assert list(mgr._by_node.values()) == active
    assert all(mgr._by_node[r.node.node_id] is r for r in active)
    assert mgr.num_reserved == len(mgr.active_reservations) == len(active)
    assert mgr.num_reserving == sum(
        1 for r in active if r.state is ReservationState.RESERVING)
    assert mgr.can_reserve() == (len(active) < mgr.max_reserved)
    for node in mgr.cluster.nodes:
        reservation = mgr.reservation_for_node(node.node_id)
        assert reservation is None or reservation.active


class CheckedManager(ReservationManager):
    """Checks the index after every logged transition."""

    def _log(self, kind, reservation, job_id=None):
        super()._log(kind, reservation, job_id)
        assert_active_only(self)


class TestActiveOnlyIndex:
    def test_every_transition_keeps_the_index_active_only(self):
        cluster = tiny_cluster(num_nodes=6)
        mgr = CheckedManager(cluster, mode=ReservationMode.DRAIN_ALL,
                             max_reserved=4, reserve_timeout_s=50.0)
        for node_id in (0, 2, 3):
            cluster.nodes[node_id].add_job(job(work=1000.0, demand=10.0))
        times_out = mgr.reserve(cluster.nodes[0], needed_mb=40.0)
        released = serving(cluster, mgr, 1, demand=40.0, work=20.0)
        mgr.cancel(mgr.reserve(cluster.nodes[2], needed_mb=40.0))
        mgr.reserve(cluster.nodes[3], needed_mb=40.0)
        mgr.node_crashed(3)
        abandoned = mgr.reserve(cluster.nodes[4], needed_mb=40.0)
        lost = job(demand=40.0)
        mgr.assign(abandoned, lost)
        mgr.migration_abandoned(abandoned, lost)
        assert abandoned.state is ReservationState.RELEASED
        assert mgr.active_reservations == [times_out, released]
        cluster.sim.run(until=60.0)
        assert released.state is ReservationState.RELEASED
        assert times_out.state is ReservationState.CANCELLED
        assert mgr.num_reserved == 0
        kinds = {event.kind for event in mgr.timeline}
        assert kinds >= {"reserve", "assign", "release", "cancel",
                         "timeout", "crash-abort", "abandon"}
        assert_active_only(mgr)

    def test_reserving_count_follows_every_transition(self):
        """``num_reserving`` is a maintained count: it must step with
        each transition into and out of RESERVING (the checked manager
        also compares it with a scan after every logged one)."""
        cluster = tiny_cluster(num_nodes=6)
        mgr = CheckedManager(cluster, mode=ReservationMode.DRAIN_ALL,
                             max_reserved=4, reserve_timeout_s=50.0)
        for node in cluster.nodes:
            node.add_job(job(work=1000.0, demand=10.0))
        counts = []
        crashed = mgr.reserve(cluster.nodes[0], needed_mb=40.0)
        served = mgr.reserve(cluster.nodes[1], needed_mb=40.0)
        counts.append(mgr.num_reserving)
        migrant = job(demand=40.0)
        mgr.assign(served, migrant)               # RESERVING -> SERVING
        mgr.assign(served, job(demand=10.0))      # stays SERVING
        counts.append(mgr.num_reserving)
        mgr.node_crashed(crashed.node.node_id)    # RESERVING -> CANCELLED
        counts.append(mgr.num_reserving)
        mgr.cancel(mgr.reserve(cluster.nodes[2], needed_mb=40.0))
        counts.append(mgr.num_reserving)
        abandoned = mgr.reserve(cluster.nodes[3], needed_mb=40.0)
        lost = job(demand=40.0)
        mgr.assign(abandoned, lost)
        mgr.migration_abandoned(abandoned, lost)  # SERVING -> RELEASED
        counts.append(mgr.num_reserving)
        mgr.reserve(cluster.nodes[4], needed_mb=40.0)
        mgr.node_crashed(served.node.node_id)     # SERVING -> CANCELLED
        counts.append(mgr.num_reserving)
        cluster.sim.run(until=60.0)               # timeout cancels node 4
        counts.append(mgr.num_reserving)
        assert counts == [2, 1, 0, 0, 0, 1, 0]
        assert served.state is ReservationState.CANCELLED
        assert abandoned.state is ReservationState.RELEASED

    def test_policy_retire_keeps_the_index_active_only(self):
        cluster = tiny_cluster(num_nodes=6)
        policy = VReconfiguration(cluster, max_reserved=3)
        mgr = policy.reservations
        # Reserving periods that cannot end yet: the policy would serve
        # or cancel a ready one on its own.
        for node_id in (0, 1):
            cluster.nodes[node_id].add_job(job(work=1000.0, demand=10.0))
            mgr.reserve(cluster.nodes[node_id], needed_mb=95.0)
        kept = mgr.reservation_for_node(1)
        mgr.assign(kept, job(demand=40.0))
        assert mgr.num_reserving == 1
        policy.retire()
        assert mgr.active_reservations == [kept]
        assert mgr.num_reserving == 0
        assert_active_only(mgr)

    @given(st.lists(st.tuples(st.sampled_from(
        ["reserve", "assign", "land", "cancel", "release", "crash",
         "abandon", "run"]), st.integers(0, 5)), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_random_transitions_keep_the_index_active_only(self, ops):
        cluster = tiny_cluster(num_nodes=6)
        mgr = CheckedManager(cluster, mode=ReservationMode.FIRST_FIT,
                             max_reserved=3, reserve_timeout_s=20.0)
        for node in cluster.nodes:
            node.add_job(job(work=30.0 + 10 * node.node_id, demand=30.0))
        in_flight = {}
        for op, node_id in ops:
            node = cluster.nodes[node_id]
            reservation = mgr.reservation_for_node(node_id)
            if op == "reserve":
                if not node.reserved and mgr.can_reserve():
                    mgr.reserve(node, needed_mb=40.0)
            elif op == "run":
                cluster.sim.run(until=cluster.sim.now + 5.0 * (node_id + 1))
            elif reservation is None:
                continue
            elif op == "assign":
                migrant = job(work=15.0, demand=20.0)
                mgr.assign(reservation, migrant)
                in_flight.setdefault(node_id, []).append(
                    (reservation, migrant))
            elif op in ("land", "abandon") and in_flight.get(node_id):
                target, migrant = in_flight[node_id].pop()
                if op == "abandon":
                    mgr.migration_abandoned(target, migrant)
                elif target.active:
                    target.node.add_job(migrant)
                    mgr.job_arrived(target, migrant)
            elif op == "cancel":
                mgr.cancel(reservation)
            elif op == "release":
                mgr.release(reservation)
            elif op == "crash":
                mgr.node_crashed(node_id)
            assert_active_only(mgr)
