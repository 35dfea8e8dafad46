"""Unit tests for the load-info directory and the Cluster facade."""

import pytest

from repro.cluster import Cluster, ClusterConfig, WorkstationSpec
from repro.cluster.job import Job, MemoryProfile


def small_config(**kwargs):
    defaults = dict(
        num_nodes=4,
        spec=WorkstationSpec(memory_mb=100.0, swap_mb=100.0),
        kernel_reserved_mb=0.0,
        load_exchange_interval_s=1.0,
    )
    defaults.update(kwargs)
    return ClusterConfig(**defaults)


def make_job(work=50.0, demand=30.0, **kwargs):
    return Job(program="t", cpu_work_s=work,
               memory=MemoryProfile.constant(demand), **kwargs)


class TestLoadInfoDirectory:
    def test_snapshots_cover_all_nodes(self):
        cluster = Cluster(small_config())
        snaps = cluster.directory.snapshots()
        assert [s.node_id for s in snaps] == [0, 1, 2, 3]

    def test_snapshots_are_stale_between_exchanges(self):
        cluster = Cluster(small_config(load_exchange_interval_s=10.0))
        cluster.nodes[0].add_job(make_job())
        # before the next exchange the directory still shows 0 jobs
        assert cluster.directory.snapshot(0).num_jobs == 0
        cluster.sim.run(until=10.5)
        assert cluster.directory.snapshot(0).num_jobs == 1

    def test_zero_interval_is_always_fresh(self):
        cluster = Cluster(small_config(load_exchange_interval_s=0.0))
        cluster.nodes[0].add_job(make_job())
        assert cluster.directory.snapshot(0).num_jobs == 1

    def test_periodic_refresh_counts(self):
        cluster = Cluster(small_config(load_exchange_interval_s=1.0))
        cluster.sim.run(until=5.5)
        # One initial refresh.  A round runs only when it has work,
        # and an idle cluster dirties no node.
        assert cluster.directory.refreshes == 1
        cluster.nodes[0].add_job(make_job())
        cluster.sim.run(until=8.5)
        # The round of t=6 collects the change (closed by this read,
        # the first access after it), and no event ran it.
        assert cluster.directory.refreshes == 2
        assert cluster.directory.snapshot(0).timestamp == 6.0
        assert not [entry for entry in cluster.sim._heap
                    if entry[3].pending and entry[3].daemon]

    def test_snapshot_fields(self):
        cluster = Cluster(small_config(load_exchange_interval_s=0.0))
        cluster.nodes[1].add_job(make_job(demand=40.0))
        snap = cluster.directory.snapshot(1)
        assert snap.num_jobs == 1
        assert snap.idle_memory_mb == pytest.approx(60.0)
        assert snap.total_demand_mb == pytest.approx(40.0)
        assert snap.accepting


class TestCluster:
    def test_cluster_builds_configured_nodes(self):
        cluster = Cluster(small_config())
        assert cluster.num_nodes == 4
        assert all(node.user_memory_mb == 100.0 for node in cluster.nodes)

    def test_heterogeneous_overrides(self):
        config = small_config()
        config.node_overrides[2] = WorkstationSpec(memory_mb=512.0,
                                                   swap_mb=512.0)
        cluster = Cluster(config)
        assert cluster.nodes[2].user_memory_mb == 512.0
        assert cluster.nodes[1].user_memory_mb == 100.0

    def test_total_idle_memory(self):
        cluster = Cluster(small_config())
        assert cluster.total_idle_memory_mb() == pytest.approx(400.0)
        cluster.nodes[0].add_job(make_job(demand=30.0))
        assert cluster.total_idle_memory_mb() == pytest.approx(370.0)

    def test_total_idle_memory_excluding_reserved(self):
        cluster = Cluster(small_config())
        cluster.nodes[3].reserved = True
        assert cluster.total_idle_memory_mb(exclude_reserved=True) == \
            pytest.approx(300.0)

    def test_average_user_memory(self):
        cluster = Cluster(small_config())
        assert cluster.average_user_memory_mb() == pytest.approx(100.0)

    def test_finished_jobs_and_listeners(self):
        cluster = Cluster(small_config())
        seen = []
        cluster.on_job_finished(lambda job, node: seen.append(job.job_id))
        job = make_job(work=10.0)
        cluster.nodes[0].add_job(job)
        cluster.sim.run()
        assert cluster.finished_jobs == [job]
        assert seen == [job.job_id]

    def test_node_change_listener_fires_on_completion(self):
        cluster = Cluster(small_config())
        changed = []
        cluster.on_node_changed(lambda node: changed.append(node.node_id))
        cluster.nodes[2].add_job(make_job(work=5.0))
        cluster.sim.run()
        assert 2 in changed

    def test_running_jobs_snapshot(self):
        cluster = Cluster(small_config())
        a = make_job(work=100.0)
        b = make_job(work=100.0)
        cluster.nodes[0].add_job(a)
        cluster.nodes[1].add_job(b)
        running = cluster.running_jobs()
        assert {job.job_id for job in running} == {a.job_id, b.job_id}

    def test_reserved_nodes_listing(self):
        cluster = Cluster(small_config())
        assert cluster.reserved_nodes() == []
        cluster.nodes[1].reserved = True
        assert [n.node_id for n in cluster.reserved_nodes()] == [1]


class TestConfigReplace:
    def test_replace_does_not_share_node_overrides(self):
        """Regression: heterogeneous setups mutate the copy's
        node_overrides; the original (e.g. the module-level cluster
        defaults) must be unaffected."""
        from repro.cluster.config import APP_CLUSTER
        copy = APP_CLUSTER.replace()
        copy.node_overrides[0] = WorkstationSpec(memory_mb=999.0,
                                                 swap_mb=0.0)
        assert 0 not in APP_CLUSTER.node_overrides

    def test_replace_applies_changes(self):
        config = small_config(cpu_threshold=4)
        changed = config.replace(cpu_threshold=9)
        assert changed.cpu_threshold == 9
        assert config.cpu_threshold == 4  # original untouched
        assert changed.num_nodes == config.num_nodes


class TestLiveModeDirectory:
    """Live mode (``load_exchange_interval_s == 0``): the directory
    repositions per node change and computes snapshots on demand —
    evict/readmit and delayed updates behave differently there."""

    def test_live_node_change_repositions_immediately(self):
        cluster = Cluster(small_config(load_exchange_interval_s=0.0))
        directory = cluster.directory
        assert directory.accepting_ids()[0] == 0
        version = directory.order_version
        cluster.nodes[0].add_job(make_job(demand=60.0))
        cluster.notify_node_changed(cluster.nodes[0])
        # Node 0 published less idle memory: it sinks in the order.
        assert directory.accepting_ids()[-1] == 0
        assert directory.order_version > version

    def test_live_evict_and_readmit(self):
        cluster = Cluster(small_config(load_exchange_interval_s=0.0))
        directory = cluster.directory
        directory.accepting_ids()  # activate the maintained orders
        cluster.nodes[2].crash()
        directory.evict(2)
        assert 2 not in directory.accepting_ids()
        assert 2 not in directory.load_order_ids()
        assert not directory.snapshot(2).alive
        cluster.nodes[2].recover()
        directory.readmit(2)
        assert 2 in directory.accepting_ids()
        assert 2 in directory.load_order_ids()
        assert directory.snapshot(2).alive

    def test_delayed_update_discarded_after_evict(self):
        """A load report delayed in flight must not resurrect a node
        that crashed (and was evicted) before it landed."""
        cluster = Cluster(small_config(load_exchange_interval_s=1.0))
        directory = cluster.directory
        directory.accepting_ids()
        directory.fault_hook = (
            lambda node_id: ("delay", 5.0) if node_id == 1 else (None, 0.0))
        cluster.nodes[1].add_job(make_job(work=500.0))
        cluster.sim.run(until=1.5)  # exchange collects node 1, delays it
        cluster.nodes[1].crash()
        directory.evict(1)
        assert 1 not in directory.accepting_ids()
        cluster.sim.run(until=8.0)  # the delayed snapshot lands — dead node
        assert 1 not in directory.accepting_ids()
        assert 1 not in directory.load_order_ids()
        assert not directory.snapshot(1).alive

    def test_delayed_update_lands_on_live_node(self):
        """The same delayed report *does* land (out of order) when the
        node stayed alive — re-delivered stale state is the modeled
        behavior, not an error."""
        cluster = Cluster(small_config(load_exchange_interval_s=1.0))
        directory = cluster.directory
        directory.fault_hook = (
            lambda node_id: ("delay", 5.0) if node_id == 1 else (None, 0.0))
        cluster.nodes[1].add_job(make_job(work=500.0, demand=60.0))
        cluster.sim.run(until=1.5)
        # Not landed yet: the directory still shows the t=0 view.
        assert directory.snapshot(1).num_jobs == 0
        cluster.sim.run(until=8.0)
        assert directory.snapshot(1).num_jobs == 1
        assert directory.snapshot(1).idle_memory_mb == pytest.approx(40.0)
