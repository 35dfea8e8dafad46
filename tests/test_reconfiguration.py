"""Integration tests for the V-Reconfiguration policy (§2.1)."""

import pytest

from repro.core.reconfiguration import VReconfiguration
from repro.core.reservation import ReservationMode, ReservationState

from helpers import drive, job, tiny_cluster


def vpolicy(cluster, **kwargs):
    defaults = dict(blocking_persistence=1, reservation_backoff_s=0.0,
                    migration_cooldown_s=0.0,
                    min_remaining_for_migration_s=1.0)
    defaults.update(kwargs)
    return VReconfiguration(cluster, **defaults)


def build_blocked_cluster(num_nodes=3, cpu_threshold=2, **policy_kwargs):
    """Node 0 wedged by a hog; all other nodes slot-full with small
    long-running jobs, so no qualified destination exists, while their
    idle memory accumulates (the paper's blocking geometry)."""
    cluster = tiny_cluster(num_nodes=num_nodes, memory_mb=100.0,
                           cpu_threshold=cpu_threshold,
                           network_bandwidth_mbps=1000.0)
    policy = vpolicy(cluster, **policy_kwargs)
    hog = job(work=400.0, demand=90.0)
    small = job(work=400.0, demand=60.0)
    cluster.nodes[0].add_job(hog)
    cluster.nodes[0].add_job(small)
    fillers = []
    for node_id in range(1, num_nodes):
        for _ in range(cpu_threshold):
            filler = job(work=100.0, demand=10.0)
            cluster.nodes[node_id].add_job(filler)
            fillers.append(filler)
    return cluster, policy, hog, small, fillers


class TestReconfigurationFlow:
    def test_blocking_triggers_reservation(self):
        cluster, policy, hog, _, _ = build_blocked_cluster()
        cluster.sim.run(until=10.0)
        assert policy.stats.extra.get("reservations", 0) >= 1
        assert len(cluster.reserved_nodes()) >= 1

    def test_hog_eventually_migrates_to_reserved_node(self):
        cluster, policy, hog, _, fillers = build_blocked_cluster()
        # two fillers share a node's CPU, so the drain ends near t=200
        cluster.sim.run(until=280.0)
        # fillers on the reserved node completed -> ready -> the hog
        # (largest demand, faulting) moved there
        assert policy.stats.extra.get("reconfiguration_migrations", 0) >= 1
        assert hog.migrations == 1
        assert hog.node_id in (1, 2)

    def test_source_node_recovers_after_rescue(self):
        cluster, policy, hog, small, _ = build_blocked_cluster()
        cluster.sim.run(until=320.0)
        assert not cluster.nodes[0].thrashing

    def test_reservation_released_after_hog_completes(self):
        cluster, policy, hog, _, _ = build_blocked_cluster()
        cluster.sim.run()
        assert hog.finished
        assert cluster.reserved_nodes() == []
        released = [r for r in policy.reservations.history
                    if r.state is ReservationState.RELEASED]
        assert len(released) >= 1

    def test_all_jobs_finish(self):
        cluster, policy, hog, small, fillers = build_blocked_cluster()
        cluster.sim.run()
        assert hog.finished and small.finished
        assert all(f.finished for f in fillers)

    def test_timeline_is_exposed(self):
        cluster, policy, _, _, _ = build_blocked_cluster()
        cluster.sim.run(until=280.0)
        kinds = {event.kind for event in policy.reservation_timeline}
        assert "reserve" in kinds
        assert "assign" in kinds


class TestAdaptiveness:
    def test_no_reservation_without_blocking(self):
        cluster = tiny_cluster(num_nodes=3, memory_mb=100.0)
        policy = vpolicy(cluster)
        jobs = [job(work=50.0, demand=20.0, home=i) for i in range(3)]
        drive(policy, jobs)
        cluster.sim.run()
        assert policy.stats.extra.get("reservations", 0) == 0

    def test_activation_requires_accumulated_idle_memory(self):
        """§2.3: when accumulated idle memory is below the average user
        memory of a workstation, reconfiguration must not activate."""
        cluster = tiny_cluster(num_nodes=2, memory_mb=100.0,
                               cpu_threshold=3)
        policy = vpolicy(cluster)
        # both nodes memory-saturated: idle ~0 everywhere
        for node_id in range(2):
            cluster.nodes[node_id].add_job(job(work=300.0, demand=60.0))
            cluster.nodes[node_id].add_job(job(work=300.0, demand=60.0))
        cluster.sim.run(until=20.0)
        assert policy.stats.extra.get("reservations", 0) == 0
        assert policy.stats.extra.get("activation_skipped", 0) >= 1

    def test_reservation_cancelled_when_blocking_disappears(self):
        cluster, policy, hog, small, _ = build_blocked_cluster()
        # before any filler finishes, the wedge resolves by itself:
        # remove the small job so node 0 stops thrashing
        def resolve():
            if small.node_id == 0:
                cluster.nodes[0].remove_job(small)
                cluster.nodes[2].remove_job  # no-op reference
                small.state = small.state  # keep job parked off-node
        cluster.sim.schedule(5.0, resolve)
        cluster.sim.run(until=120.0)
        cancelled = [r for r in policy.reservations.history
                     if r.state is ReservationState.CANCELLED]
        # the reserving period observed no remaining blocking -> cancel
        assert cancelled or policy.stats.extra.get(
            "reconfiguration_migrations", 0) == 0

    def test_wedges_resolve_and_largest_job_is_chosen(self):
        """Two wedged nodes: the reconfiguration serves the *most
        memory-intensive* faulting job, and the remaining wedge heals
        through normal load sharing once capacity frees up."""
        cluster = tiny_cluster(num_nodes=4, memory_mb=300.0,
                               cpu_threshold=2,
                               network_bandwidth_mbps=1000.0)
        policy = vpolicy(cluster, max_reserved=2)
        bigs = []
        for node_id in (0, 1):
            medium = job(work=400.0, demand=130.0)
            big = job(work=400.0, demand=260.0)
            cluster.nodes[node_id].add_job(big)
            cluster.nodes[node_id].add_job(medium)
            bigs.append(big)
        for node_id in (2, 3):
            for _ in range(2):
                cluster.nodes[node_id].add_job(job(work=60.0, demand=10.0))
        cluster.sim.run(until=300.0)
        rescues = policy.stats.extra.get("reconfiguration_migrations", 0)
        assert rescues >= 1
        # the rescued job is one of the 260MB jobs (largest demand)
        assigned = [e.job_id for e in policy.reservation_timeline
                    if e.kind == "assign"]
        assert set(assigned) <= {big.job_id for big in bigs}
        # both wedges resolved one way or another
        assert not cluster.nodes[0].thrashing
        assert not cluster.nodes[1].thrashing


class TestBlockingPersistence:
    """A reserving period starts only once blocking has been seen on a
    node ``blocking_persistence`` visits in a row; a streak that lapses
    for more than 2.5 monitor periods (1.25 s here) starts over."""

    def blocked(self):
        cluster, policy, hog, _, _ = build_blocked_cluster(
            blocking_persistence=2)
        policy._monitor.cancel()  # visits happen only where the test says
        return cluster, policy, hog

    @staticmethod
    def visit(cluster, policy, hog, at):
        """One blocked visit to node 0 at time ``at``; returns how many
        reservations have been made."""
        cluster.sim.run(until=at)
        policy.on_blocking(cluster.nodes[0], hog, hog.current_demand_mb)
        return len(policy.reservations.history)

    def test_reserves_on_the_second_visit_in_a_row(self):
        cluster, policy, hog = self.blocked()
        assert self.visit(cluster, policy, hog, 0.5) == 0
        assert self.visit(cluster, policy, hog, 1.0) == 1

    def test_streak_survives_a_gap_of_two_and_a_half_periods(self):
        cluster, policy, hog = self.blocked()
        assert self.visit(cluster, policy, hog, 0.5) == 0
        assert self.visit(cluster, policy, hog, 1.75) == 1

    def test_a_longer_gap_restarts_the_streak(self):
        cluster, policy, hog = self.blocked()
        assert self.visit(cluster, policy, hog, 0.5) == 0
        assert self.visit(cluster, policy, hog, 1.76) == 0
        assert self.visit(cluster, policy, hog, 1.76) == 1


class TestModes:
    def test_first_fit_mode_serves_sooner(self):
        def run_with(mode):
            cluster, policy, hog, _, _ = build_blocked_cluster()
            policy.reservations.mode = mode
            cluster.sim.run(until=400.0)
            timeline = [e for e in policy.reservation_timeline
                        if e.kind == "assign"]
            return timeline[0].time if timeline else float("inf")

        drain = run_with(ReservationMode.DRAIN_ALL)
        first_fit = run_with(ReservationMode.FIRST_FIT)
        assert first_fit <= drain


def test_v_reserves_and_migrates_where_g_does_not_on_a_paper_trace():
    """App-Trace-5 on 8 nodes at quarter scale: V-Reconfiguration
    reserves nodes and migrates blocked jobs into them, G-Loadsharing
    never does, and the two runs end differently.  Which one does
    better is not asserted (here V does worse)."""
    from repro.experiments.runner import run_experiment
    from repro.workload.programs import WorkloadGroup

    g, v = (run_experiment(WorkloadGroup.APP, 5, policy=policy, seed=0,
                           scale=0.25, nodes=8).summary
            for policy in ("g-loadsharing", "v-reconfiguration"))
    assert v.extra["reservations"] > 0
    assert v.extra["reconfiguration_migrations"] > 0
    assert sum(v.reservation_placements.values()) > 0
    assert "reservations" not in g.extra and not g.reservation_placements
    assert g.average_slowdown != v.average_slowdown
    assert g.blocking_events != v.blocking_events
