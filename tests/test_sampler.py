"""Cluster sampler: periodic snapshots without perturbing the run."""

import dataclasses
import io

import pytest

from repro.cluster.state import FLAG_ALIVE, FLAG_RESERVED, FLAG_THRASHING
from repro.experiments.runner import run_experiment
from repro.obs.sampler import SAMPLE_FIELDS, ClusterSampler, _flag_str
from repro.obs.session import EXTRA_PREFIX, ObsSession
from repro.workload.programs import WorkloadGroup

from helpers import job, tiny_cluster


def sampled_run(period_s=2.0, **cluster_kwargs):
    cluster = tiny_cluster(**cluster_kwargs)
    sampler = ClusterSampler(cluster, period_s).start()
    for i in range(4):
        cluster.nodes[i % cluster.num_nodes].add_job(
            job(work=10.0, demand=20.0))
    cluster.sim.run()
    return cluster, sampler


class TestSampling:
    def test_period_must_be_positive(self):
        cluster = tiny_cluster()
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive"):
                ClusterSampler(cluster, bad)

    def test_start_is_idempotent(self):
        cluster = tiny_cluster()
        sampler = ClusterSampler(cluster, 1.0)
        sampler.start().start()
        assert sampler.num_samples == 1  # one t=0 row, not two

    def test_tick_spacing_and_shape(self):
        cluster, sampler = sampled_run(period_s=2.0)
        times = list(sampler.times)
        assert times[0] == 0.0
        assert all(b - a == pytest.approx(2.0)
                   for a, b in zip(times, times[1:]))
        n = cluster.num_nodes
        for metric in SAMPLE_FIELDS:
            assert len(sampler.series[metric]) == sampler.num_samples * n
            for node_id in range(n):
                assert len(sampler.node_series(metric, node_id)) == \
                    sampler.num_samples
        assert len(sampler.flags) == sampler.num_samples * n

    def test_daemon_tick_does_not_keep_the_run_alive(self):
        cluster = tiny_cluster()
        ClusterSampler(cluster, 1.0).start()
        cluster.nodes[0].add_job(job(work=5.0, demand=10.0))
        cluster.sim.run()  # would never return if the tick were live
        assert cluster.sim.now < 100.0

    def test_samples_see_load(self):
        _, sampler = sampled_run()
        running = sampler.totals("running")
        assert max(running) >= 1.0
        assert running[-1] >= 0.0
        idle = sampler.totals("idle_mb")
        assert min(idle) < idle[0]  # demand ate into idle memory
        alive = sampler.flag_counts(FLAG_ALIVE)
        assert all(count == sampler.num_nodes for count in alive)

    def test_flag_strings(self):
        assert _flag_str(0) == "-"
        assert _flag_str(FLAG_ALIVE) == "A"
        assert _flag_str(FLAG_ALIVE | FLAG_RESERVED) == "AR"
        assert _flag_str(FLAG_ALIVE | FLAG_THRASHING) == "AT"

    def test_sample_reads_no_node_attributes(self):
        """``sample`` copies rows from the state columns without a
        single per-node Python attribute access."""

        class TrapNode:
            def __getattr__(self, name):
                raise AssertionError(
                    f"sampler touched node attribute {name!r}; it must "
                    f"read ClusterState columns only")

        cluster = run_experiment(WorkloadGroup.SPEC, 3, policy="memory",
                                 seed=0, scale=0.1).cluster
        sampler = ClusterSampler(cluster, period_s=10.0)
        cluster.nodes = [TrapNode() for _ in range(cluster.num_nodes)]
        sampler.sample()
        assert sampler.num_samples == 1
        assert len(sampler.series["running"]) == cluster.num_nodes


class TestExports:
    def test_aggregate_keys(self):
        _, sampler = sampled_run()
        agg = sampler.aggregate()
        assert agg["sampler_samples"] == float(sampler.num_samples)
        assert agg["sampler_period_s"] == 2.0
        assert agg["sampler_min_idle_mb"] <= agg["sampler_mean_idle_mb"]
        assert agg["sampler_peak_running"] >= agg["sampler_mean_running"]
        assert agg["sampler_mean_dead_nodes"] == 0.0

    def test_empty_aggregate(self):
        sampler = ClusterSampler(tiny_cluster(), 1.0)
        agg = sampler.aggregate()
        assert agg == {"sampler_samples": 0.0, "sampler_period_s": 1.0}

    def test_csv_shape(self):
        cluster, sampler = sampled_run()
        buffer = io.StringIO()
        rows = sampler.write_csv(buffer)
        lines = buffer.getvalue().splitlines()
        assert rows == sampler.num_samples == len(lines) - 1
        header = lines[0].split(",")
        n = cluster.num_nodes
        # t + 6 totals + (len(SAMPLE_FIELDS) + flags) per node
        assert len(header) == 7 + n * (len(SAMPLE_FIELDS) + 1)
        assert header[0] == "t"
        assert "running_n0" in header and f"flags_n{n - 1}" in header
        for line in lines[1:]:
            assert len(line.split(",")) == len(header)

    def test_to_jsonable_timeline_inputs(self):
        _, sampler = sampled_run()
        doc = sampler.to_jsonable()
        ticks = sampler.num_samples
        assert len(doc["times"]) == ticks
        assert len(doc["total_idle_mb"]) == ticks
        assert len(doc["thrashing_nodes"]) == ticks
        assert doc["num_nodes"] == sampler.num_nodes


class TestSessionIntegration:
    def test_sampler_aggregates_reach_summary_extra(self):
        obs = ObsSession(record_events=False, sample_period=50.0)
        result = run_experiment(WorkloadGroup.SPEC, 1, seed=0, scale=0.1,
                                obs=obs)
        extra = result.summary.extra
        assert extra["obs.sampler_samples"] >= 2
        assert extra["obs.sampler_period_s"] == 50.0
        assert obs.sampler.num_samples == extra["obs.sampler_samples"]

    def test_sampler_csv_requires_sampler(self):
        obs = ObsSession(record_events=False)
        with pytest.raises(ValueError, match="sample_period"):
            obs.write_sampler_csv(io.StringIO())

    def test_sampling_does_not_change_the_summary(self):
        plain = run_experiment(WorkloadGroup.SPEC, 1, seed=0, scale=0.1,
                               policy="v-reconfiguration")
        obs = ObsSession(record_events=False, sample_period=10.0)
        sampled = run_experiment(WorkloadGroup.SPEC, 1, seed=0, scale=0.1,
                                 policy="v-reconfiguration", obs=obs)
        stripped = dataclasses.replace(
            sampled.summary,
            extra={k: v for k, v in sampled.summary.extra.items()
                   if not k.startswith(EXTRA_PREFIX)})
        assert stripped == plain.summary
