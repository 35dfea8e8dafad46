"""Unit tests for shared policy machinery (repro.scheduling.base)."""

import pytest

from repro.cluster.job import JobState
from repro.scheduling import GLoadSharing
from repro.scheduling.base import LoadSharingPolicy

from helpers import drive, job, tiny_cluster


class TestWaitAccounting:
    def test_pending_wait_charged_to_queue(self):
        cluster = tiny_cluster(num_nodes=1, cpu_threshold=1)
        policy = GLoadSharing(cluster)
        first = job(work=50.0, home=0, submit=0.0)
        second = job(work=10.0, home=0, submit=0.0)
        drive(policy, [first, second])
        cluster.sim.run()
        # second waited ~50s for the slot
        assert second.acct.pending_s == pytest.approx(50.0, rel=0.05)
        assert second.acct.queue_s >= second.acct.pending_s

    def test_immediate_placement_charges_nothing(self):
        cluster = tiny_cluster()
        policy = GLoadSharing(cluster)
        a = job(work=10.0, home=0)
        drive(policy, [a])
        cluster.sim.run()
        assert a.acct.pending_s == pytest.approx(0.0)


class TestBaseHooks:
    def test_select_node_is_abstract(self):
        cluster = tiny_cluster()
        policy = LoadSharingPolicy(cluster)
        with pytest.raises(NotImplementedError):
            policy.select_node(job())

    def test_stats_counters(self):
        cluster = tiny_cluster(num_nodes=2, cpu_threshold=1)
        policy = GLoadSharing(cluster)
        jobs = [job(work=10.0, home=0, submit=float(i))
                for i in range(3)]
        drive(policy, jobs)
        cluster.sim.run()
        stats = policy.stats
        assert stats.submissions == 3
        assert stats.local_placements + stats.remote_submissions <= 3
        assert stats.pending_peak >= 0

    def test_candidates_sorted_by_idle_memory(self):
        cluster = tiny_cluster(num_nodes=3, memory_mb=100.0)
        policy = GLoadSharing(cluster)
        cluster.nodes[0].add_job(job(work=100.0, demand=80.0))
        cluster.nodes[1].add_job(job(work=100.0, demand=30.0))
        cluster.directory.refresh()
        candidates = policy.candidates_by_idle_memory()
        idles = [node.idle_memory_mb for node in candidates]
        assert idles == sorted(idles, reverse=True)

    def test_candidates_exclude_requested_node(self):
        cluster = tiny_cluster(num_nodes=3)
        policy = GLoadSharing(cluster)
        cluster.directory.refresh()
        candidates = policy.candidates_by_idle_memory(exclude=1)
        assert 1 not in [node.node_id for node in candidates]


class TestMigrationGuards:
    def test_cannot_migrate_non_running_job(self):
        cluster = tiny_cluster(num_nodes=2)
        policy = GLoadSharing(cluster)
        pending = job(work=10.0)
        assert pending.state is JobState.PENDING
        with pytest.raises(ValueError):
            policy.migrate(pending, cluster.nodes[0], cluster.nodes[1])

    def test_cooldown_blocks_remigration(self):
        cluster = tiny_cluster(num_nodes=2,
                               network_bandwidth_mbps=10000.0)
        policy = GLoadSharing(cluster, migration_cooldown_s=1000.0,
                              min_remaining_for_migration_s=1.0)
        a = job(work=500.0, demand=1.0)
        cluster.nodes[0].add_job(a)
        assert policy._migratable(a, a.current_demand_mb)
        policy.migrate(a, cluster.nodes[0], cluster.nodes[1])
        cluster.sim.run(until=5.0)
        assert not policy._migratable(a, a.current_demand_mb)

    def test_payoff_bound_blocks_expensive_migration(self):
        # 190MB image at 10Mbps ~ 160s; job with 100s remaining fails
        # the 2x-payoff rule.
        cluster = tiny_cluster(num_nodes=2,
                               network_bandwidth_mbps=10.0)
        policy = GLoadSharing(cluster)
        short = job(work=100.0, demand=190.0)
        cluster.nodes[0].add_job(short)
        assert not policy._migratable(short, short.current_demand_mb)

    def test_migration_preserves_accounting_identity(self):
        cluster = tiny_cluster(num_nodes=2,
                               network_bandwidth_mbps=100.0)
        policy = GLoadSharing(cluster, migration_cooldown_s=0.0,
                              min_remaining_for_migration_s=1.0)
        a = job(work=100.0, demand=50.0)
        cluster.nodes[0].add_job(a)
        cluster.sim.run(until=20.0)
        policy.migrate(a, cluster.nodes[0], cluster.nodes[1])
        cluster.sim.run()
        assert a.finished
        wall = a.finish_time - a.submit_time
        acct = (a.acct.cpu_s + a.acct.page_s + a.acct.io_s
                + a.acct.queue_s + a.acct.migration_s)
        assert acct == pytest.approx(wall, rel=1e-6)
        assert a.acct.migration_s > 0
