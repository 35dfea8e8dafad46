"""Unit and property tests for the paging model."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.cluster.memory import PagingModel


@pytest.fixture
def model():
    return PagingModel(alpha=0.5, max_fault_rate_per_cpu_s=400.0,
                       fault_service_s=0.010)


class TestResidency:
    def test_no_jobs(self, model):
        assert model.residency([], 100.0) == []

    def test_fits_entirely(self, model):
        assert model.residency([30.0, 40.0], 100.0) == [30.0, 40.0]

    def test_exact_fit(self, model):
        assert model.residency([60.0, 40.0], 100.0) == [60.0, 40.0]

    def test_oversubscribed_uses_all_memory(self, model):
        resident = model.residency([80.0, 80.0], 100.0)
        assert math.isclose(sum(resident), 100.0)

    def test_equal_demands_split_equally(self, model):
        resident = model.residency([80.0, 80.0], 100.0)
        assert math.isclose(resident[0], resident[1])

    def test_small_job_keeps_larger_resident_fraction(self, model):
        """The competition bias: large jobs are less competitive."""
        resident = model.residency([20.0, 180.0], 100.0)
        small_frac = resident[0] / 20.0
        large_frac = resident[1] / 180.0
        assert small_frac > large_frac

    def test_alpha_one_is_proportional(self):
        model = PagingModel(alpha=1.0)
        resident = model.residency([50.0, 150.0], 100.0)
        assert math.isclose(resident[0], 25.0)
        assert math.isclose(resident[1], 75.0)

    def test_tiny_job_fully_resident_under_bias(self, model):
        # With strong bias a very small job's share exceeds its demand,
        # so it stays fully resident and the rest spills to the big job.
        resident = model.residency([1.0, 500.0], 100.0)
        assert math.isclose(resident[0], 1.0)
        assert math.isclose(resident[1], 99.0)

    def test_zero_demand_job(self, model):
        resident = model.residency([0.0, 200.0], 100.0)
        assert resident[0] == 0.0
        assert math.isclose(resident[1], 100.0)

    def test_negative_demand_rejected(self, model):
        with pytest.raises(ValueError):
            model.residency([-1.0], 100.0)

    @given(
        demands=st.lists(st.floats(min_value=0.0, max_value=500.0),
                         min_size=1, max_size=12),
        memory=st.floats(min_value=1.0, max_value=400.0),
        alpha=st.floats(min_value=0.1, max_value=1.0),
    )
    def test_invariants(self, demands, memory, alpha):
        model = PagingModel(alpha=alpha)
        resident = model.residency(demands, memory)
        assert len(resident) == len(demands)
        for res, demand in zip(resident, demands):
            assert -1e-9 <= res <= demand + 1e-9
        total_demand = sum(demands)
        total_resident = sum(resident)
        if total_demand <= memory:
            assert math.isclose(total_resident, total_demand,
                                rel_tol=1e-9, abs_tol=1e-9)
        else:
            # all memory is used when demand exceeds it
            assert math.isclose(total_resident, memory,
                                rel_tol=1e-6, abs_tol=1e-6)


class TestFaultRates:
    def test_no_faults_when_memory_fits(self, model):
        assessment = model.assess([100.0, 100.0], 300.0)
        assert assessment.fault_rates_per_cpu_s == [0.0, 0.0]
        assert not assessment.oversubscribed

    def test_faults_when_oversubscribed(self, model):
        assessment = model.assess([200.0, 200.0], 300.0)
        assert assessment.oversubscribed
        assert all(rate > 0 for rate in assessment.fault_rates_per_cpu_s)

    def test_fault_rate_proportional_to_missing_fraction(self, model):
        assessment = model.assess([200.0], 100.0)
        # half the working set missing -> half the max rate
        assert math.isclose(assessment.fault_rates_per_cpu_s[0], 200.0)

    def test_stall_uses_fault_service_time(self, model):
        assessment = model.assess([200.0], 100.0)
        assert math.isclose(assessment.stall_per_work_s[0], 200.0 * 0.010)

    def test_large_job_faults_harder_than_small(self, model):
        assessment = model.assess([20.0, 180.0], 100.0)
        rates = assessment.fault_rates_per_cpu_s
        assert rates[1] > rates[0]

    def test_network_ram_style_service_time(self):
        fast = PagingModel(alpha=0.5, max_fault_rate_per_cpu_s=400.0,
                           fault_service_s=0.001)
        slow = PagingModel(alpha=0.5, max_fault_rate_per_cpu_s=400.0,
                           fault_service_s=0.010)
        demands, memory = [200.0], 100.0
        assert (fast.assess(demands, memory).stall_per_work_s[0]
                < slow.assess(demands, memory).stall_per_work_s[0])

    def test_pressure_monotone_in_oversubscription(self, model):
        stalls = [model.assess([float(d)], 100.0).stall_per_work_s[0]
                  for d in (100, 150, 200, 400)]
        assert stalls == sorted(stalls)
        assert stalls[0] == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            PagingModel(alpha=0.0)
        with pytest.raises(ValueError):
            PagingModel(alpha=1.5)
        with pytest.raises(ValueError):
            PagingModel(max_fault_rate_per_cpu_s=-1.0)
        with pytest.raises(ValueError):
            PagingModel(fault_service_s=0.0)


class TestThrashingCliff:
    def test_exponent_one_is_linear(self):
        linear = PagingModel(max_fault_rate_per_cpu_s=100.0,
                             curve_exponent=1.0)
        assessment = linear.assess([200.0], 100.0)
        assert assessment.fault_rates_per_cpu_s[0] == pytest.approx(50.0)

    def test_cliff_suppresses_mild_oversubscription(self):
        cliff = PagingModel(max_fault_rate_per_cpu_s=100.0,
                            curve_exponent=2.0)
        mild = cliff.assess([110.0], 100.0).fault_rates_per_cpu_s[0]
        deep = cliff.assess([400.0], 100.0).fault_rates_per_cpu_s[0]
        # 9% missing squared ~ 0.8 faults/cpu-s; 75% missing ~ 56
        assert mild < 1.0
        assert deep > 50.0

    def test_higher_exponent_never_raises_rates(self):
        soft = PagingModel(max_fault_rate_per_cpu_s=100.0,
                           curve_exponent=1.0)
        hard = PagingModel(max_fault_rate_per_cpu_s=100.0,
                           curve_exponent=2.5)
        for demand in (120.0, 200.0, 500.0):
            s = soft.assess([demand], 100.0).fault_rates_per_cpu_s[0]
            h = hard.assess([demand], 100.0).fault_rates_per_cpu_s[0]
            assert h <= s + 1e-9

    def test_invalid_exponent_rejected(self):
        with pytest.raises(ValueError):
            PagingModel(curve_exponent=0.5)

    def test_full_miss_independent_of_exponent(self):
        for exponent in (1.0, 1.5, 3.0):
            model = PagingModel(max_fault_rate_per_cpu_s=100.0,
                                curve_exponent=exponent)
            demands = [100.0, 1000000.0]
            rates = model.assess(demands, 1.0).fault_rates_per_cpu_s
            assert rates[1] == pytest.approx(100.0, rel=0.01)


class TestUnderSubscribedFastPath:
    """``assess`` answers ``sum(demands) <= U`` without the cache; the
    answer must be what the full computation gives, field for field."""

    @given(demands=st.lists(st.one_of(
               st.just(0.0),
               st.floats(min_value=0.0, max_value=500.0,
                         allow_nan=False)), max_size=6),
           memory=st.floats(min_value=0.0, max_value=2000.0,
                            allow_nan=False),
           alpha=st.floats(min_value=0.1, max_value=1.0),
           max_rate=st.floats(min_value=0.0, max_value=1000.0),
           exponent=st.floats(min_value=1.0, max_value=3.0))
    def test_matches_the_uncached_assessment(self, demands, memory, alpha,
                                             max_rate, exponent):
        model = PagingModel(alpha=alpha, max_fault_rate_per_cpu_s=max_rate,
                            curve_exponent=exponent)
        fast = model.assess(tuple(demands), memory)
        full = model._assess_uncached(tuple(demands), memory)
        # repr tells 0 from 0.0 and -0.0 from 0.0; == does not.
        assert repr(fast) == repr(full)

    def test_fast_path_skips_the_cache(self, model):
        assessment = model.assess([30.0, 40.0], 100.0)
        assert assessment.fault_rates_per_cpu_s == [0.0, 0.0]
        assert not model._assess_cache
        assert model.assess_hits == model.assess_misses == 0

    def test_negative_demand_still_rejected(self, model):
        with pytest.raises(ValueError, match="non-negative"):
            model.assess([-1.0, 10.0], 100.0)
