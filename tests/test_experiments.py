"""Integration tests for the experiment harness (small scales)."""

import functools

import pytest

from repro.experiments.ablations import ALL_ABLATIONS
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.runner import (
    POLICIES,
    default_config,
    run_experiment,
    subsample_trace,
)
from repro.experiments.scenario import (
    build_blocking_trace,
    large_job_slowdowns,
    run_blocking_scenario,
)
from repro.experiments.tables import (
    render_table1,
    render_table2,
    table1_rows,
    table2_rows,
)
from repro.workload.generator import build_trace
from repro.workload.programs import WorkloadGroup

SCALE = 0.08  # ~30-60 jobs per run: fast but end-to-end


class TestRunner:
    def test_policy_registry_complete(self):
        assert set(POLICIES) == {"local", "cpu", "memory",
                                 "g-loadsharing", "suspension",
                                 "srpt-oracle", "v-reconfiguration"}

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError):
            run_experiment(WorkloadGroup.APP, 1, policy="quantum")

    def test_default_configs_match_paper_clusters(self):
        spec = default_config(WorkloadGroup.SPEC)
        app = default_config(WorkloadGroup.APP)
        assert spec.spec.memory_mb == 384.0
        assert app.spec.memory_mb == 128.0
        assert spec.num_nodes == app.num_nodes == 32

    def test_subsample_preserves_shape(self):
        trace = build_trace(WorkloadGroup.APP, 1)
        quarter = subsample_trace(trace, 0.25)
        assert quarter.num_jobs == pytest.approx(trace.num_jobs / 4,
                                                 abs=2)
        assert quarter.jobs[0].submit_time == trace.jobs[0].submit_time
        with pytest.raises(ValueError):
            subsample_trace(trace, 0.0)

    def test_run_experiment_end_to_end(self):
        result = run_experiment(WorkloadGroup.APP, 1,
                                policy="g-loadsharing", scale=SCALE)
        summary = result.summary
        assert summary.num_jobs > 10
        assert summary.average_slowdown >= 1.0
        assert summary.makespan_s > 0
        assert len(result.cluster.finished_jobs) == summary.num_jobs

    def test_deterministic_given_seed(self):
        a = run_experiment(WorkloadGroup.APP, 1, policy="g-loadsharing",
                           scale=SCALE, seed=3).summary
        b = run_experiment(WorkloadGroup.APP, 1, policy="g-loadsharing",
                           scale=SCALE, seed=3).summary
        assert a.total_execution_time_s == b.total_execution_time_s
        assert a.average_slowdown == b.average_slowdown

    def test_all_policies_drain(self):
        for policy in POLICIES:
            summary = run_experiment(WorkloadGroup.APP, 1, policy=policy,
                                     scale=SCALE).summary
            assert summary.num_jobs > 0, policy

    def test_wall_time_decomposition_cluster_wide(self):
        """The §5 identity T_exe = T_cpu+T_page+T_io+T_que+T_mig holds
        for a full experiment."""
        summary = run_experiment(WorkloadGroup.APP, 1,
                                 policy="v-reconfiguration",
                                 scale=SCALE).summary
        parts = (summary.total_cpu_time_s + summary.total_paging_time_s
                 + summary.total_io_time_s + summary.total_queuing_time_s
                 + summary.total_migration_time_s)
        assert parts == pytest.approx(summary.total_execution_time_s,
                                      rel=1e-6)


class TestTables:
    def test_table1_rows(self):
        rows = table1_rows()
        assert len(rows) == 6
        apsi = next(r for r in rows if r["Programs"] == "apsi")
        assert apsi["lifetime (s)"] == "2,619.0"

    def test_table2_rows(self):
        rows = table2_rows()
        assert len(rows) == 7
        metis = next(r for r in rows if r["Programs"] == "metis")
        assert "1M-4M" in metis["data size"]

    def test_render(self):
        assert "apsi" in render_table1()
        assert "r-wing" in render_table2()


class TestBlockingScenario:
    def test_trace_geometry(self):
        trace = build_blocking_trace(num_nodes=32, seed=0)
        larges = [j for j in trace.jobs if j.peak_demand_mb > 200]
        assert len(larges) == 4
        # wedge homes are distinct and at the high end
        assert len({j.home_node for j in larges}) == 4
        assert all(j.home_node >= 28 for j in larges)

    def test_mechanism_envelope(self):
        """The headline property: V-Reconfiguration resolves the
        constructed blocking problem (rescues fire, paging collapses,
        large jobs speed up) where G-Loadsharing cannot."""
        base = run_blocking_scenario("g-loadsharing", num_nodes=32)
        reco = run_blocking_scenario("v-reconfiguration", num_nodes=32)
        assert base.summary.blocking_events > 0
        assert reco.summary.extra.get("reconfiguration_migrations",
                                      0) >= 1
        assert (reco.summary.total_paging_time_s
                < 0.25 * base.summary.total_paging_time_s)
        big_base = large_job_slowdowns(base)
        big_reco = large_job_slowdowns(reco)
        assert (sum(big_reco) / len(big_reco)
                < sum(big_base) / len(big_base))
        # adaptive switch-back: nothing stays reserved
        assert reco.cluster.reserved_nodes() == []


class TestSubsampleValidation:
    def test_unrealizable_scale_rejected(self):
        """0.5 < scale < 1 would stride-round to the full trace;
        that silent no-op must raise instead."""
        trace = build_trace(WorkloadGroup.APP, 1)
        with pytest.raises(ValueError):
            subsample_trace(trace, 0.75)
        with pytest.raises(ValueError):
            subsample_trace(trace, 0.9)
        # 0.51 rounds to stride 2 — a legitimate (if coarse) half-trace
        assert subsample_trace(trace, 0.51).num_jobs < trace.num_jobs

    def test_boundary_scales_ok(self):
        trace = build_trace(WorkloadGroup.APP, 1)
        assert subsample_trace(trace, 1.0) is trace
        half = subsample_trace(trace, 0.5)
        assert half.num_jobs == pytest.approx(trace.num_jobs / 2, abs=1)

    def test_duration_not_scaled(self):
        """Thinning keeps every k-th arrival at its original instant:
        the trace still spans the full duration."""
        trace = build_trace(WorkloadGroup.APP, 1)
        quarter = subsample_trace(trace, 0.25)
        assert quarter.duration_s == trace.duration_s


class TestTraceCache:
    def test_same_args_share_one_trace(self):
        from repro.workload.generator import clear_trace_cache

        clear_trace_cache()
        a = build_trace(WorkloadGroup.APP, 2, seed=5)
        b = build_trace(WorkloadGroup.APP, 2, seed=5)
        assert a is b

    def test_distinct_args_distinct_traces(self):
        a = build_trace(WorkloadGroup.APP, 2, seed=5)
        b = build_trace(WorkloadGroup.APP, 2, seed=6)
        c = build_trace(WorkloadGroup.SPEC, 2, seed=5)
        assert a is not b
        assert a is not c

    def test_explicit_generator_bypasses_cache(self):
        from repro.workload.generator import TraceGenerator

        gen = TraceGenerator(num_nodes=32, seed=5)
        a = build_trace(WorkloadGroup.APP, 2, seed=5, generator=gen)
        b = build_trace(WorkloadGroup.APP, 2, seed=5)
        assert a is not b
        assert [j.submit_time for j in a.jobs] == \
            [j.submit_time for j in b.jobs]

    def test_cached_trace_runs_are_independent(self):
        """Two runs over the shared trace must not interfere: each
        materializes fresh Job objects."""
        a = run_experiment(WorkloadGroup.APP, 1, policy="g-loadsharing",
                           scale=SCALE).summary
        b = run_experiment(WorkloadGroup.APP, 1, policy="g-loadsharing",
                           scale=SCALE).summary
        assert a == b


# The sanity checks below run at the quick settings scale 0.25 and
# traces 1, 3 and 5: at smaller scales every paging and queue total is
# 0 and the checks prove nothing.
QUICK_SCALE = 0.25
QUICK_TRACES = [1, 3, 5]


@functools.lru_cache(maxsize=None)
def quick_ablation(name):
    return ALL_ABLATIONS[name](group=WorkloadGroup.APP, trace_index=3,
                               scale=QUICK_SCALE)


class TestAblations:
    #: Each ablation's variant labels, or its row count where the
    #: labels name swept values.
    EXPECTED_ROWS = {
        "reservation_mode": {"drain-all", "first-fit"},
        "residency_alpha": 4,
        "fault_cost": 3,
        "network_speed": 3,
        "load_info_staleness": 4,
        "cpu_threshold": 4,
        "max_reserved": 4,
        "baselines": {"local", "cpu", "memory", "g-loadsharing",
                      "suspension", "srpt-oracle", "v-reconfiguration"},
        "network_ram": {"network_ram=False", "network_ram=True"},
        "victim_ranking": {"demand-only", "demand-x-age"},
    }

    @pytest.mark.parametrize("name", sorted(ALL_ABLATIONS))
    def test_rows(self, name):
        rows = quick_ablation(name).rows
        expected = self.EXPECTED_ROWS[name]
        if isinstance(expected, set):
            assert {row["variant"] for row in rows} == expected
            expected = len(expected)
        assert len(rows) == expected

    def test_fault_cost_loose_ordering(self):
        # A stronger fault model broadly raises paging, but scheduling
        # feedback makes the relation non-monotone at small magnitudes.
        pages = [row["page (s)"] for row in quick_ablation("fault_cost").rows]
        assert all(page >= 0 for page in pages)
        assert pages[0] <= pages[-1] * 3.0 + 60.0

    def test_network_ram_never_adds_paging(self):
        off, on = quick_ablation("network_ram").rows
        assert on["page (s)"] <= off["page (s)"] + 1e-6

    def test_baseline_premises(self):
        by_policy = {row["variant"]: row
                     for row in quick_ablation("baselines").rows}
        # Load sharing does not lose to no sharing on queuing time.
        assert (by_policy["g-loadsharing"]["queue (s)"]
                <= by_policy["local"]["queue (s)"])
        # CPU+memory sharing does not lose meaningfully to count-only
        # balancing on paging.
        assert (by_policy["g-loadsharing"]["page (s)"]
                <= by_policy["cpu"]["page (s)"] * 1.5 + 60.0)


@pytest.mark.parametrize("name", sorted(ALL_FIGURES))
def test_figure_sanity(name):
    result = ALL_FIGURES[name](scale=QUICK_SCALE,
                               trace_indices=QUICK_TRACES)
    assert len(result.baseline) == len(result.improved) == len(QUICK_TRACES)
    for base, improved in zip(result.baseline, result.improved):
        assert base.num_jobs == improved.num_jobs > 0
        assert base.total_execution_time_s > 0
        assert improved.total_execution_time_s > 0
        assert base.average_slowdown >= 1.0
        assert improved.average_slowdown >= 1.0
