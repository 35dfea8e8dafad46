"""Unit tests for metrics collection, summaries, and reporting."""

import functools
import math
import operator

import pytest
from hypothesis import given, strategies as st

from repro.metrics.collector import (EXCLUDED, MetricsCollector,
                                     PolicyPendingProbe, _skew_of)
from repro.metrics.report import (
    comparison_table,
    percentage_reduction,
    render_bar_chart,
    render_table,
)
from repro.cluster.job import Job
from repro.metrics.summary import summarize_run
from repro.scheduling import GLoadSharing
from repro.scheduling.srpt import SrptOracle
from repro.sim.portable import left_sum

from helpers import drive, job, tiny_cluster


def pack(jobs_per_node):
    """A sample's job-count vector; None marks a reserved or dead node."""
    return bytes(EXCLUDED if c is None else c for c in jobs_per_node)


class TestClusterSample:
    """Balance skew of one sample's job-count vector."""

    def skew(self, jobs_per_node):
        return _skew_of(pack(jobs_per_node))

    def test_skew_zero_for_balanced(self):
        assert self.skew([2, 2, 2, 2]) == 0.0

    def test_skew_population_std(self):
        assert self.skew([0, 4]) == pytest.approx(2.0)

    def test_skew_excludes_reserved_nodes(self):
        """The paper computes the skew among non-reserved workstations."""
        assert (self.skew([2, 2, None, 10])
                == pytest.approx(self.skew([2, 2, 10])))

    def test_skew_all_reserved(self):
        assert self.skew([None, None]) == 0.0


class TestCollector:
    def test_samples_on_interval(self):
        cluster = tiny_cluster()
        collector = MetricsCollector(cluster, sample_interval_s=2.0)
        cluster.nodes[0].add_job(job(work=10.0))
        cluster.sim.run(until=9.0)
        collector.flush()
        assert collector.times.tolist() == [2.0, 4.0, 6.0, 8.0]

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
        collector.flush()
        assert collector.pending.tolist() == [7]

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            MetricsCollector(tiny_cluster(), sample_interval_s=0.0)

    def test_average_until_filter_single_pass(self):
        """until= filtering must agree with the list-based definition."""
        cluster = tiny_cluster(num_nodes=2, memory_mb=100.0)
        collector = MetricsCollector(cluster, sample_interval_s=1.0)
        cluster.nodes[0].add_job(job(work=100.0, demand=60.0))
        cluster.sim.run(until=6.5)
        collector.flush()
        expected = [idle for time, idle in zip(collector.times,
                                               collector.idle_memory_mb)
                    if time <= 3.5]
        assert collector.average_idle_memory_mb(until=3.5) == pytest.approx(
            sum(expected) / len(expected))

    @pytest.mark.parametrize("policy_cls", [GLoadSharing, SrptOracle])
    def test_pending_mutators_sample_the_queue_before_changing_it(
            self, policy_cls):
        """A queue change that is the first change after grid times
        emits their samples from the queue as it stood: a drain that
        places nothing (it pops the head and puts it back) and an
        enqueue, each with no node write at its instant."""
        cluster = tiny_cluster(num_nodes=1)
        policy = policy_cls(cluster)
        collector = MetricsCollector(cluster, sample_interval_s=1.0,
                                     pending_probe=PolicyPendingProbe(policy))
        cluster.nodes[0].reserved = True  # nothing accepts: jobs queue
        sim = cluster.sim
        sim.schedule_at(0.5, functools.partial(policy.submit, job()))
        sim.schedule_at(2.5, policy._drain_pending)
        sim.schedule_at(3.5, functools.partial(policy.submit, job()))
        sim.run(until=4.5)
        collector.flush()
        assert collector.pending.tolist() == [1, 1, 1, 2]

    def test_vectors_mark_reserved_nodes_and_share_until_counts_change(
            self):
        cluster = tiny_cluster(num_nodes=3)
        collector = MetricsCollector(cluster, sample_interval_s=1.0)
        cluster.nodes[0].add_job(job(work=100.0))
        cluster.sim.run(until=2.5)
        cluster.nodes[2].reserved = True
        cluster.sim.run(until=4.5)
        collector.flush()
        assert collector.vectors == [pack([1, 0, 0])] * 2 + [
            pack([1, 0, None])] * 2
        assert collector.vectors[0] is collector.vectors[1]
        assert collector.reserved.tolist() == [0, 0, 1, 1]
        assert collector.skews.tolist() == [
            _skew_of(vector) for vector in collector.vectors]

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

    def test_average_slowdown_adds_left_to_right(self, monkeypatch):
        """Each 1.0 added to 2**53 rounds away one at a time; a
        compensated sum (Python 3.12's ``sum``) would keep them."""
        policy, jobs, collector = self.run_small()
        slowdowns = [2.0 ** 53] + [1.0] * 5
        by_id = dict(zip((j.job_id for j in jobs), slowdowns))
        monkeypatch.setattr(Job, "slowdown", lambda j: by_id[j.job_id])
        summary = summarize_run(policy, jobs, collector, "t")
        assert math.fsum(slowdowns) / 6 != 2.0 ** 53 / 6
        assert summary.average_slowdown == 2.0 ** 53 / 6

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


def _skew_by_generator(jobs_per_node):
    """The per-count generator expression the lookup table replaced."""
    counts = [c for c in jobs_per_node if c is not None]
    if not counts:
        return 0.0
    mean = sum(counts) / len(counts)
    return math.sqrt(left_sum((c - mean) ** 2 for c in counts)
                     / len(counts))


@given(st.lists(st.one_of(st.none(), st.integers(0, 12)), max_size=600))
def test_skew_table_matches_the_generator_expression(jobs_per_node):
    assert (repr(_skew_of(pack(jobs_per_node)))
            == repr(_skew_by_generator(jobs_per_node)))


def test_skew_adds_the_squared_deviations_left_to_right():
    """Counts whose squared deviations a compensated sum (Python 3.12's
    ``sum``) adds to a different last bit."""
    squares = [(c - 17 / 3) ** 2 for c in (12, 3, 2)]
    ordered = math.sqrt(functools.reduce(operator.add, squares) / 3)
    assert ordered != math.sqrt(math.fsum(squares) / 3)
    assert _skew_of(pack((12, 3, 2))) == ordered == 4.4969125210773475


def test_skew_of_all_excluded_nodes_is_zero():
    assert _skew_of(pack((None, None, None))) == 0.0
    assert _skew_of(b"") == 0.0
