"""Reservation lifecycle under fault injection.

The reservation machinery is V-Reconfiguration's wedge against the
blocking problem, so its fault interplay gets its own edge-case suite:
a reserved workstation crashing mid-reserving-period must release the
reservation (or the policy wedges forever), a reservation whose only
inbound migration is abandoned must release, dead nodes must never be
chosen as reservation candidates, and the directory's incrementally
maintained candidate orders must keep matching the fresh-sort oracle
through arbitrary crash/recover interleavings (including recovery
between exchange rounds).
"""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import job, tiny_cluster

from repro.cluster.job import JobState
from repro.core.reconfiguration import VReconfiguration
from repro.core.reservation import ReservationManager, ReservationState
from repro.faults import FaultConfig, FaultPlan, NodeOutage
from repro.scheduling import GLoadSharing


def outage_config(*outages, **overrides):
    defaults = dict(mtbf_s=None, plan=FaultPlan(tuple(outages)))
    defaults.update(overrides)
    return FaultConfig(**defaults)


# ----------------------------------------------------------------------
# reserved-node crash
# ----------------------------------------------------------------------
def test_reserved_node_crash_aborts_the_reservation():
    cluster = tiny_cluster(faults=outage_config(NodeOutage(1, 10.0, 30.0)))
    policy = GLoadSharing(cluster)
    manager = ReservationManager(cluster, max_reserved=1)
    occupant = job(work=500.0, demand=30.0, home=1)
    cluster.nodes[1].add_job(occupant)
    reservation = manager.reserve(cluster.nodes[1], needed_mb=50.0)
    assert reservation.state is ReservationState.RESERVING
    cluster.sim.run(until=15.0)
    # The crash aborted the reservation and freed the flag, so the
    # reconfiguration routine can re-trigger elsewhere.
    assert reservation.state is ReservationState.CANCELLED
    assert not cluster.nodes[1].reserved
    assert cluster.faults.counters["reservation_aborts"] == 1
    assert "crash-abort" in [e.kind for e in manager.timeline]
    # The occupant was requeued by the policy, not stranded.
    assert occupant.state in (JobState.RUNNING, JobState.PENDING,
                              JobState.MIGRATING)
    assert occupant.node_id != 1 or occupant.state is not JobState.RUNNING
    # After recovery the node is reservable again.
    cluster.sim.run(until=35.0)
    assert cluster.nodes[1].alive
    again = manager.reserve(cluster.nodes[1], needed_mb=10.0)
    assert again.active


def test_crash_on_unreserved_node_reports_no_abort():
    cluster = tiny_cluster(faults=outage_config(NodeOutage(2, 5.0, 10.0)))
    GLoadSharing(cluster)
    ReservationManager(cluster, max_reserved=1)
    cluster.sim.run(until=20.0)
    assert "reservation_aborts" not in cluster.faults.counters


# ----------------------------------------------------------------------
# abandoned inbound migration
# ----------------------------------------------------------------------
def test_abandoned_migration_releases_empty_reservation():
    cluster = tiny_cluster(
        network_bandwidth_mbps=1000.0,
        faults=FaultConfig(mtbf_s=None, migration_failure_prob=1.0,
                           migration_max_retries=0))
    policy = GLoadSharing(cluster)
    manager = ReservationManager(cluster, max_reserved=1)
    mover = job(work=500.0, demand=30.0, home=0)
    cluster.nodes[0].add_job(mover)
    reservation = manager.reserve(cluster.nodes[1], needed_mb=30.0)
    manager.assign(reservation, mover)
    assert reservation.state is ReservationState.SERVING
    mover.dedicated = True
    policy.migrate(
        mover, cluster.nodes[0], cluster.nodes[1],
        on_arrival=lambda j: manager.job_arrived(reservation, j),
        on_abandoned=lambda j: manager.migration_abandoned(reservation, j))
    cluster.sim.run(until=10.0)
    # The transfer failed outright; the reservation must not wait
    # forever for a job that fell back to its source.
    assert reservation.state is ReservationState.RELEASED
    assert not cluster.nodes[1].reserved
    assert not mover.dedicated
    assert mover.state is JobState.RUNNING
    assert mover.node_id == 0


# ----------------------------------------------------------------------
# zero live candidates
# ----------------------------------------------------------------------
def test_dead_nodes_are_never_reservation_candidates():
    cluster = tiny_cluster(faults=outage_config(
        NodeOutage(2, 1.0, None), NodeOutage(3, 1.0, None)))
    policy = VReconfiguration(cluster)
    cluster.sim.run(until=2.0)
    pick = policy._reserve_a_workstation(exclude=0, needed_mb=10.0)
    assert pick is cluster.nodes[1]
    cluster.nodes[1].crash()
    assert policy._reserve_a_workstation(exclude=0, needed_mb=10.0) is None


def test_blocking_with_zero_live_accepting_nodes_queues_not_crashes():
    # Every node except the overloaded home is dead: G-Loadsharing
    # finds no migration destination and V-Reconfiguration finds no
    # reservable workstation; newly submitted work just queues.
    cluster = tiny_cluster(num_nodes=3, faults=outage_config(
        NodeOutage(1, 1.0, 200.0), NodeOutage(2, 1.0, 200.0)))
    policy = VReconfiguration(cluster)
    cluster.sim.run(until=2.0)
    probe = job(work=5.0, demand=30.0, home=0)
    cluster.nodes[0].add_job(probe)
    demand = probe.current_demand_mb
    assert policy.find_migration_destination(probe, 0, demand) is None
    for _ in range(3):  # past any persistence threshold
        policy.on_blocking(cluster.nodes[0], probe, demand)
    assert policy.reservations.active_reservations == []
    overflow = [job(work=5.0, demand=30.0, home=0, submit=3.0)
                for _ in range(4)]
    for j in overflow:
        policy.submit(j)
    cluster.sim.run()
    assert all(j.state is JobState.FINISHED for j in overflow)


# ----------------------------------------------------------------------
# candidate orders through crash/recover interleavings
# ----------------------------------------------------------------------
NUM_NODES = 5

op_strategy = st.one_of(
    st.tuples(st.just("add"), st.integers(0, NUM_NODES - 1),
              st.floats(min_value=1.0, max_value=80.0)),
    st.tuples(st.just("remove"), st.integers(0, NUM_NODES - 1),
              st.integers(min_value=0, max_value=5)),
    st.tuples(st.just("crash"), st.integers(0, NUM_NODES - 1),
              st.just(None)),
    st.tuples(st.just("recover"), st.integers(0, NUM_NODES - 1),
              st.just(None)),
    st.tuples(st.just("advance"), st.integers(0, NUM_NODES - 1),
              st.floats(min_value=0.1, max_value=2.5)),
)


def apply_op(cluster, op):
    """One mutation, mirroring what the fault injector does on
    crash/recovery (immediate evict/readmit, not waiting for the next
    exchange round)."""
    kind, which, arg = op
    node = cluster.nodes[which]
    if kind == "add":
        if node.alive and node.has_free_slot:
            node.add_job(job(work=50.0, demand=arg, home=which))
    elif kind == "remove":
        if node.running_jobs:
            node.remove_job(node.running_jobs[arg % len(node.running_jobs)])
    elif kind == "crash":
        if node.alive:
            node.crash()
            cluster.directory.evict(which)
    elif kind == "recover":
        if not node.alive:
            node.recover()
            cluster.directory.readmit(which)
    elif kind == "advance":
        cluster.sim.run(until=cluster.sim.now + arg)


def assert_orders_match_oracle(cluster):
    directory = cluster.directory
    snaps = directory.snapshots()
    accepting = [s.node_id for s in sorted(
        (s for s in snaps if s.accepting),
        key=lambda s: (-s.idle_memory_mb, s.num_jobs, s.node_id))]
    load = [s.node_id for s in sorted(
        (s for s in snaps if s.alive),
        key=lambda s: (s.num_jobs, s.node_id))]
    assert directory.accepting_ids() == accepting
    assert directory.load_order_ids() == load
    alive_counts = [s.num_jobs for s in snaps if s.alive]
    assert directory.least_num_jobs() == (min(alive_counts)
                                          if alive_counts else 0)


@settings(max_examples=60, deadline=None)
@given(interval=st.sampled_from([0.0, 1.0]),
       ops=st.lists(op_strategy, min_size=1, max_size=25))
def test_orders_match_fresh_sort_through_crash_recover(interval, ops):
    cluster = tiny_cluster(num_nodes=NUM_NODES,
                           load_exchange_interval_s=interval)
    assert_orders_match_oracle(cluster)  # activate the orders up front
    for op in ops:
        apply_op(cluster, op)
        assert_orders_match_oracle(cluster)


@settings(max_examples=30, deadline=None)
@given(interval=st.sampled_from([0.0, 1.0]),
       ops=st.lists(op_strategy, min_size=1, max_size=25))
def test_orders_match_fresh_sort_on_late_activation_with_faults(
        interval, ops):
    """Recovery (and everything else) happening *before* the orders are
    first queried must still produce oracle-identical orders."""
    cluster = tiny_cluster(num_nodes=NUM_NODES,
                           load_exchange_interval_s=interval)
    for op in ops:
        apply_op(cluster, op)
    assert_orders_match_oracle(cluster)


def test_recovery_between_exchange_rounds_is_visible_immediately():
    # Periodic staleness regime: a node that recovers between rounds is
    # readmitted to the candidate orders at once (the injector calls
    # readmit), not at the next exchange tick.
    cluster = tiny_cluster(num_nodes=3, load_exchange_interval_s=1.0)
    cluster.sim.run(until=1.1)  # somewhere between rounds
    cluster.nodes[1].crash()
    cluster.directory.evict(1)
    assert 1 not in cluster.directory.accepting_ids()
    cluster.sim.run(until=1.5)  # still mid-round
    cluster.nodes[1].recover()
    cluster.directory.readmit(1)
    assert 1 in cluster.directory.accepting_ids()
    assert 1 in cluster.directory.load_order_ids()
    assert cluster.directory.snapshot(1).alive
    assert_orders_match_oracle(cluster)


def test_manager_binds_to_injector_only_when_faults_enabled():
    plain = tiny_cluster()
    assert plain.faults is None
    ReservationManager(plain, max_reserved=1)  # must not blow up
    faulty = tiny_cluster(faults=FaultConfig(mtbf_s=None))
    manager = ReservationManager(faulty, max_reserved=1)
    assert faulty.faults.reservation_manager is manager


def test_reservation_manager_still_validates_limits():
    cluster = tiny_cluster(faults=FaultConfig(mtbf_s=None))
    with pytest.raises(ValueError):
        ReservationManager(cluster, max_reserved=0)
