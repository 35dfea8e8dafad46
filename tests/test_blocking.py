"""Unit tests for blocking-problem detection (contribution 1)."""

import pytest

from repro.core.blocking import BlockingDetector

from helpers import job, tiny_cluster


def wedge_node(cluster, node_id=0, hog_demand=90.0, small_demand=60.0):
    """Put a node into the thrashing state with a dominant hog."""
    hog = job(work=500.0, demand=hog_demand)
    small = job(work=500.0, demand=small_demand)
    cluster.nodes[node_id].add_job(hog)
    cluster.nodes[node_id].add_job(small)
    return hog, small


class TestNodeBlocked:
    def test_healthy_node_not_blocked(self):
        cluster = tiny_cluster(num_nodes=2, memory_mb=100.0)
        detector = BlockingDetector(cluster)
        cluster.nodes[0].add_job(job(demand=30.0))
        assert detector.node_blocked(cluster.nodes[0]) is None

    def test_thrashing_node_with_destination_not_blocked(self):
        cluster = tiny_cluster(num_nodes=2, memory_mb=100.0)
        detector = BlockingDetector(cluster)
        hog, _ = wedge_node(cluster)
        # node 1 is empty: a qualified destination for the hog exists
        assert detector.node_blocked(cluster.nodes[0]) is None

    def test_thrashing_node_without_destination_is_blocked(self):
        cluster = tiny_cluster(num_nodes=2, memory_mb=100.0, cpu_threshold=2)
        detector = BlockingDetector(cluster)
        hog, _ = wedge_node(cluster)
        # node 1 full by slots -> no destination
        cluster.nodes[1].add_job(job(demand=10.0))
        cluster.nodes[1].add_job(job(demand=10.0))
        stuck = detector.node_blocked(cluster.nodes[0])
        assert stuck is hog

    def test_destination_without_memory_does_not_count(self):
        cluster = tiny_cluster(num_nodes=2, memory_mb=100.0)
        detector = BlockingDetector(cluster)
        hog, _ = wedge_node(cluster, hog_demand=90.0)
        cluster.nodes[1].add_job(job(demand=50.0))  # only 50MB idle left
        assert detector.node_blocked(cluster.nodes[0]) is hog

    def test_reserved_node_never_reported_blocked(self):
        cluster = tiny_cluster(num_nodes=2, memory_mb=100.0, cpu_threshold=2)
        detector = BlockingDetector(cluster)
        wedge_node(cluster)
        cluster.nodes[1].add_job(job(demand=10.0))
        cluster.nodes[1].add_job(job(demand=10.0))
        cluster.nodes[0].reserved = True
        assert detector.node_blocked(cluster.nodes[0]) is None

    def test_reserved_node_not_a_destination(self):
        cluster = tiny_cluster(num_nodes=2, memory_mb=100.0)
        detector = BlockingDetector(cluster)
        hog, _ = wedge_node(cluster)
        cluster.nodes[1].reserved = True  # the empty node is reserved
        assert detector.node_blocked(cluster.nodes[0]) is hog


class TestAssess:
    def blocked_cluster(self):
        cluster = tiny_cluster(num_nodes=3, memory_mb=100.0, cpu_threshold=2)
        hog, _ = wedge_node(cluster, node_id=0)
        for node_id in (1, 2):
            cluster.nodes[node_id].add_job(job(demand=10.0, work=500.0))
            cluster.nodes[node_id].add_job(job(demand=10.0, work=500.0))
        return cluster, hog

    def test_report_lists_blocked_nodes_and_stuck_jobs(self):
        cluster, hog = self.blocked_cluster()
        report = BlockingDetector(cluster).assess()
        assert report.blocking
        assert report.blocked_nodes == (0,)
        assert report.stuck_jobs == (hog.job_id,)

    def test_report_idle_memory_accounting(self):
        cluster, _ = self.blocked_cluster()
        report = BlockingDetector(cluster).assess()
        # nodes 1 and 2 have 80MB idle each; node 0 is over-subscribed
        assert report.total_idle_memory_mb == pytest.approx(160.0)
        assert report.average_user_memory_mb == pytest.approx(100.0)

    def test_not_worthwhile_without_blocking(self):
        cluster = tiny_cluster(num_nodes=2, memory_mb=100.0)
        report = BlockingDetector(cluster).assess()
        assert not report.blocking
        assert report.blocked_nodes == report.stuck_jobs == ()

    def test_most_memory_intensive_stuck_job(self):
        cluster = tiny_cluster(num_nodes=3, memory_mb=100.0, cpu_threshold=2)
        hog_a, _ = wedge_node(cluster, node_id=0, hog_demand=80.0)
        hog_b, _ = wedge_node(cluster, node_id=1, hog_demand=95.0)
        cluster.nodes[2].add_job(job(demand=10.0, work=500.0))
        cluster.nodes[2].add_job(job(demand=10.0, work=500.0))
        victim = BlockingDetector(cluster).most_memory_intensive_stuck_job()
        assert victim is not None
        assert victim[0] is hog_b
        assert victim[1].node_id == 1

    def test_no_stuck_job_when_cluster_healthy(self):
        cluster = tiny_cluster(num_nodes=2, memory_mb=100.0)
        assert (BlockingDetector(cluster).most_memory_intensive_stuck_job()
                is None)
