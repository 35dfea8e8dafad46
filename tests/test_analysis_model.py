"""Unit tests for the §5 analytical model."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.model import (
    ExecutionTimeModel,
    ReservedQueueModel,
    gain_condition,
    unsuccessful_conditions,
    verify_against_run,
)
from repro.metrics.summary import RunSummary


def make_summary(cpu=1000.0, page=100.0, queue=500.0, migration=10.0,
                 io=0.0, slowdown=2.0):
    return RunSummary(
        policy="p", trace="t", num_jobs=10, makespan_s=1000.0,
        total_execution_time_s=cpu + page + queue + migration + io,
        total_queuing_time_s=queue, average_slowdown=slowdown,
        average_idle_memory_mb=100.0, average_job_balance_skew=1.0,
        total_cpu_time_s=cpu, total_paging_time_s=page,
        total_io_time_s=io, total_migration_time_s=migration,
        total_pending_time_s=0.0, migrations=0, remote_submissions=0,
        blocking_events=0)


class TestExecutionTimeModel:
    def test_total(self):
        model = ExecutionTimeModel(cpu_s=1.0, page_s=2.0, queue_s=3.0,
                                   migration_s=4.0)
        assert model.total_s == 10.0

    def test_from_summary_folds_io_into_page(self):
        model = ExecutionTimeModel.from_summary(
            make_summary(page=100.0, io=50.0))
        assert model.page_s == 150.0


class TestReservedQueueModel:
    def test_empty_queue(self):
        assert ReservedQueueModel([]).queuing_bound_s() == 0.0

    def test_single_job_no_wait(self):
        # Q=1: (1-1)*w = 0
        assert ReservedQueueModel([5.0]).queuing_bound_s() == 0.0

    def test_bound_formula(self):
        # Q=3: (3-1)*w1 + (3-2)*w2 + (3-3)*w3
        model = ReservedQueueModel([1.0, 2.0, 3.0])
        assert model.queuing_bound_s() == pytest.approx(2.0 + 2.0)

    def test_srpt_order_minimizes(self):
        waits = [10.0, 1.0, 5.0]
        assert (ReservedQueueModel.minimal_bound_s(waits)
                <= ReservedQueueModel(waits).queuing_bound_s())

    def test_is_minimized_ordering(self):
        assert ReservedQueueModel([1.0, 2.0, 3.0]).is_minimized_ordering()
        assert not ReservedQueueModel([3.0, 1.0]).is_minimized_ordering()

    def test_negative_waits_rejected(self):
        with pytest.raises(ValueError):
            ReservedQueueModel([-1.0])

    @given(waits=st.lists(st.floats(min_value=0.0, max_value=100.0),
                          min_size=1, max_size=10))
    def test_minimal_bound_property(self, waits):
        """Sorting ascending always gives the minimum bound (§5: the
        bound is minimized when w_k1 < w_k2 < ...)."""
        assert (ReservedQueueModel.minimal_bound_s(waits)
                <= ReservedQueueModel(waits).queuing_bound_s() + 1e-9)


class TestGainCondition:
    def test_positive_gain(self):
        base = ExecutionTimeModel(cpu_s=100.0, page_s=50.0,
                                  queue_s=200.0, migration_s=5.0)
        gain = gain_condition(base,
                              reconfigured_nonreserved_queue_s=100.0,
                              reserved_queue_bounds_s=[20.0])
        assert gain == pytest.approx(80.0)

    def test_negative_gain_when_reserved_queues_dominate(self):
        base = ExecutionTimeModel(cpu_s=100.0, page_s=0.0,
                                  queue_s=50.0, migration_s=0.0)
        gain = gain_condition(base,
                              reconfigured_nonreserved_queue_s=45.0,
                              reserved_queue_bounds_s=[30.0])
        assert gain < 0


class TestVerifyAgainstRun:
    def test_consistent_pair(self):
        base = make_summary(cpu=1000.0, page=200.0, queue=600.0)
        reco = make_summary(cpu=1000.0, page=100.0, queue=400.0)
        check = verify_against_run(base, reco)
        assert check.consistent
        assert check.paging_reduced
        assert check.measured_gain_s == pytest.approx(300.0)

    def test_cpu_divergence_flagged(self):
        base = make_summary(cpu=1000.0)
        reco = make_summary(cpu=1100.0)
        check = verify_against_run(base, reco, cpu_tolerance=0.01)
        assert not check.consistent
        assert check.cpu_invariant_error == pytest.approx(0.1)

    def test_paging_increase_reported(self):
        base = make_summary(page=100.0)
        reco = make_summary(page=150.0)
        check = verify_against_run(base, reco)
        assert not check.paging_reduced


class TestUnsuccessfulConditions:
    def test_light_load_detected(self):
        summary = make_summary(slowdown=1.1, page=0.0)
        reasons = unsuccessful_conditions(summary)
        assert any("lightly loaded" in reason for reason in reasons)

    def test_heavy_paging_not_flagged(self):
        summary = make_summary(slowdown=5.0, page=500.0)
        assert unsuccessful_conditions(summary) == []


class TestRealRun:
    def test_section5_model_holds_on_app_trace_3(self):
        """§5 on a measured pair (App-Trace-3 at scale 0.25): CPU time
        is invariant across policies, and the measured gain dominates
        the model's lower bound."""
        from repro.experiments.runner import run_experiment
        from repro.workload.programs import WorkloadGroup

        base, reco = (run_experiment(WorkloadGroup.APP, 3, policy=policy,
                                     scale=0.25).summary
                      for policy in ("g-loadsharing", "v-reconfiguration"))
        check = verify_against_run(base, reco, cpu_tolerance=0.02)
        assert check.cpu_invariant_error < 0.02
        assert check.measured_gain_s >= check.predicted_gain_s - 1e-6
