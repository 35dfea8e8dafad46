"""Unit tests for metrics collection, summaries, and reporting."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.metrics.collector import ClusterSample, MetricsCollector, _skew_of
from repro.metrics.report import (
    comparison_table,
    percentage_reduction,
    render_bar_chart,
    render_table,
)
from repro.metrics.summary import summarize_run
from repro.scheduling import GLoadSharing

from helpers import drive, job, tiny_cluster


class TestClusterSample:
    def make(self, jobs_per_node):
        return ClusterSample(time=0.0, total_idle_memory_mb=0.0,
                             jobs_per_node=tuple(jobs_per_node),
                             num_reserved=0, pending_jobs=0)

    def test_skew_zero_for_balanced(self):
        assert self.make([2, 2, 2, 2]).job_balance_skew == 0.0

    def test_skew_population_std(self):
        sample = self.make([0, 4])
        assert sample.job_balance_skew == pytest.approx(2.0)

    def test_skew_excludes_reserved_nodes(self):
        """The paper computes the skew among non-reserved workstations."""
        with_reserved = self.make([2, 2, None, 10])
        without = self.make([2, 2, 10])
        assert (with_reserved.job_balance_skew
                == pytest.approx(without.job_balance_skew))

    def test_skew_all_reserved(self):
        assert self.make([None, None]).job_balance_skew == 0.0


class TestCollector:
    def test_samples_on_interval(self):
        cluster = tiny_cluster()
        collector = MetricsCollector(cluster, sample_interval_s=2.0)
        cluster.nodes[0].add_job(job(work=10.0))
        cluster.sim.run(until=9.0)
        times = [sample.time for sample in collector.samples]
        assert times == [2.0, 4.0, 6.0, 8.0]

    def test_idle_memory_average(self):
        cluster = tiny_cluster(num_nodes=2, memory_mb=100.0)
        collector = MetricsCollector(cluster, sample_interval_s=1.0)
        cluster.nodes[0].add_job(job(work=100.0, demand=60.0))
        cluster.sim.run(until=5.5)
        assert collector.average_idle_memory_mb() == pytest.approx(140.0)

    def test_until_filter(self):
        cluster = tiny_cluster(num_nodes=2, memory_mb=100.0)
        collector = MetricsCollector(cluster, sample_interval_s=1.0)
        cluster.nodes[0].add_job(job(work=3.0, demand=60.0))
        cluster.sim.run(until=10.0)
        early = collector.average_idle_memory_mb(until=2.5)
        late = collector.average_idle_memory_mb()
        assert early < late  # memory freed after the job finished

    def test_pending_probe(self):
        cluster = tiny_cluster()
        collector = MetricsCollector(cluster, sample_interval_s=1.0,
                                     pending_probe=lambda: 7)
        cluster.nodes[0].add_job(job(work=2.0))
        cluster.sim.run(until=1.5)
        assert collector.samples[0].pending_jobs == 7

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            MetricsCollector(tiny_cluster(), sample_interval_s=0.0)

    def test_interval_insensitivity(self):
        """The paper verified averages are insensitive to the sampling
        interval (§4.1); a steady workload reproduces that."""
        results = []
        for interval in (1.0, 10.0):
            cluster = tiny_cluster(num_nodes=2, memory_mb=100.0)
            collector = MetricsCollector(cluster,
                                         sample_interval_s=interval)
            cluster.nodes[0].add_job(job(work=500.0, demand=50.0))
            cluster.sim.run(until=400.0)
            results.append(collector.average_idle_memory_mb())
        assert results[0] == pytest.approx(results[1], rel=0.05)


class TestSummaries:
    def run_small(self):
        cluster = tiny_cluster()
        policy = GLoadSharing(cluster)
        jobs = [job(work=20.0, home=i % 4, submit=float(i))
                for i in range(6)]
        collector = MetricsCollector(cluster)
        drive(policy, jobs)
        cluster.sim.run()
        return policy, jobs, collector

    def test_summary_fields(self):
        policy, jobs, collector = self.run_small()
        summary = summarize_run(policy, jobs, collector, "unit-trace")
        assert summary.num_jobs == 6
        assert summary.trace == "unit-trace"
        assert summary.policy == "G-Loadsharing"
        assert summary.average_slowdown >= 1.0
        assert summary.makespan_s >= 20.0
        assert len(summary.slowdowns) == 6

    def test_total_execution_is_sum_of_walls(self):
        policy, jobs, collector = self.run_small()
        summary = summarize_run(policy, jobs, collector, "t")
        expected = sum(j.finish_time - j.submit_time for j in jobs)
        assert summary.total_execution_time_s == pytest.approx(expected)

    def test_unfinished_jobs_rejected(self):
        cluster = tiny_cluster()
        policy = GLoadSharing(cluster)
        stuck = job(work=100.0)
        collector = MetricsCollector(cluster)
        with pytest.raises(ValueError):
            summarize_run(policy, [stuck], collector, "t")

    def test_percentiles(self):
        policy, jobs, collector = self.run_small()
        summary = summarize_run(policy, jobs, collector, "t")
        assert summary.slowdown_percentile(0) == min(summary.slowdowns)
        assert summary.slowdown_percentile(100) == max(summary.slowdowns)
        assert summary.max_slowdown == max(summary.slowdowns)


class TestReport:
    def test_percentage_reduction(self):
        assert percentage_reduction(100.0, 70.0) == pytest.approx(30.0)
        assert percentage_reduction(100.0, 130.0) == pytest.approx(-30.0)
        assert percentage_reduction(0.0, 10.0) == 0.0

    def test_comparison_table(self):
        policy, jobs, collector = self.run_pair()
        base = summarize_run(policy, jobs, collector, "T")
        rows = comparison_table([base], [base],
                                lambda s: s.average_slowdown, "slowdown")
        assert rows[0]["reduction_pct"] == pytest.approx(0.0)

    def run_pair(self):
        cluster = tiny_cluster()
        policy = GLoadSharing(cluster)
        jobs = [job(work=10.0, home=i % 4) for i in range(4)]
        collector = MetricsCollector(cluster)
        drive(policy, jobs)
        cluster.sim.run()
        return policy, jobs, collector

    def test_comparison_table_validates_pairing(self):
        policy, jobs, collector = self.run_pair()
        a = summarize_run(policy, jobs, collector, "A")
        b = summarize_run(policy, jobs, collector, "B")
        with pytest.raises(ValueError):
            comparison_table([a], [b], lambda s: 1.0, "x")
        with pytest.raises(ValueError):
            comparison_table([a, a], [a], lambda s: 1.0, "x")

    def test_render_table(self):
        rows = [{"trace": "T-1", "value": 1234.5}]
        text = render_table(rows, ("trace", "value"), title="demo")
        assert "demo" in text
        assert "T-1" in text
        assert "1,234.5" in text


class TestBarChart:
    def test_renders_bars(self):
        rows = [{"trace": "T-1", "G": 100.0, "V": 70.0},
                {"trace": "T-2", "G": 200.0, "V": 150.0}]
        chart = render_bar_chart(rows, "trace", ["G", "V"],
                                 width=20, title="demo")
        assert "demo" in chart
        assert chart.count("|") == 4
        # the largest value gets the full width
        assert "#" * 20 in chart

    def test_zero_values_safe(self):
        rows = [{"trace": "T", "G": 0.0, "V": 0.0}]
        chart = render_bar_chart(rows, "trace", ["G", "V"])
        assert "T" in chart


class TestReservedNodeSeconds:
    def make(self, time, num_reserved):
        return ClusterSample(time=time, total_idle_memory_mb=0.0,
                             jobs_per_node=(0,), num_reserved=num_reserved,
                             pending_jobs=0)

    def test_uniform_ticks_match_interval_product(self):
        """With periodic sampling only, the integral equals
        count x interval, as before."""
        cluster = tiny_cluster()
        collector = MetricsCollector(cluster, sample_interval_s=2.0)
        collector.samples = [self.make(2.0, 1), self.make(4.0, 1),
                             self.make(6.0, 3)]
        assert collector.reserved_node_seconds() == pytest.approx(
            1 * 2.0 + 1 * 2.0 + 3 * 2.0)

    def test_manual_samples_integrate_actual_spacing(self):
        """A manual sample() between ticks must refine the integral,
        not be billed a full interval."""
        cluster = tiny_cluster()
        collector = MetricsCollector(cluster, sample_interval_s=2.0)
        collector.samples = [self.make(2.0, 1), self.make(2.5, 2),
                             self.make(4.0, 2)]
        # [0,2]: 1 node; (2,2.5]: 2 nodes; (2.5,4]: 2 nodes
        assert collector.reserved_node_seconds() == pytest.approx(
            1 * 2.0 + 2 * 0.5 + 2 * 1.5)

    def test_empty(self):
        collector = MetricsCollector(tiny_cluster())
        assert collector.reserved_node_seconds() == 0.0

    def test_average_until_filter_single_pass(self):
        """until= filtering must agree with the list-based definition."""
        cluster = tiny_cluster(num_nodes=2, memory_mb=100.0)
        collector = MetricsCollector(cluster, sample_interval_s=1.0)
        cluster.nodes[0].add_job(job(work=100.0, demand=60.0))
        cluster.sim.run(until=6.5)
        expected = [s.total_idle_memory_mb for s in collector.samples
                    if s.time <= 3.5]
        assert collector.average_idle_memory_mb(until=3.5) == pytest.approx(
            sum(expected) / len(expected))


def _skew_by_generator(jobs_per_node):
    """The per-count generator expression the lookup table replaced."""
    counts = [c for c in jobs_per_node if c is not None]
    if not counts:
        return 0.0
    mean = sum(counts) / len(counts)
    return math.sqrt(sum((c - mean) ** 2 for c in counts) / len(counts))


@given(st.lists(st.one_of(st.none(), st.integers(0, 12)), max_size=600))
def test_skew_table_matches_the_generator_expression(jobs_per_node):
    assert (repr(_skew_of(tuple(jobs_per_node)))
            == repr(_skew_by_generator(jobs_per_node)))


def test_skew_of_all_excluded_nodes_is_zero():
    assert _skew_of((None, None, None)) == 0.0
    assert _skew_of(()) == 0.0
