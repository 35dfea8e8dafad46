"""Unit tests for the job and memory-profile models."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.cluster.job import (
    Job,
    JobAccounting,
    JobState,
    MemoryProfile,
    total_accounting,
)


class TestMemoryProfile:
    def test_constant_profile(self):
        profile = MemoryProfile.constant(100.0)
        assert profile.demand_at(0.0) == 100.0
        assert profile.demand_at(1e9) == 100.0
        assert profile.peak_demand_mb == 100.0
        assert profile.next_boundary(0.0) is None

    def test_phased_profile(self):
        profile = MemoryProfile.from_pairs([(0.0, 10.0), (5.0, 50.0),
                                            (20.0, 30.0)])
        assert profile.demand_at(0.0) == 10.0
        assert profile.demand_at(4.9) == 10.0
        assert profile.demand_at(5.0) == 50.0
        assert profile.demand_at(19.0) == 50.0
        assert profile.demand_at(25.0) == 30.0
        assert profile.peak_demand_mb == 50.0

    def test_next_boundary_progression(self):
        profile = MemoryProfile.from_pairs([(0.0, 10.0), (5.0, 50.0),
                                            (20.0, 30.0)])
        assert profile.next_boundary(0.0) == 5.0
        assert profile.next_boundary(5.0) == 20.0
        assert profile.next_boundary(20.0) is None

    def test_boundary_tolerates_float_error(self):
        profile = MemoryProfile.from_pairs([(0.0, 10.0), (5.0, 50.0)])
        # progress epsilon below the boundary counts as having crossed it
        assert profile.demand_at(5.0 - 1e-12) == 50.0
        assert profile.next_boundary(5.0 - 1e-12) is None

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            MemoryProfile.from_pairs([])

    def test_unsorted_phases_rejected(self):
        with pytest.raises(ValueError):
            MemoryProfile.from_pairs([(0.0, 1.0), (5.0, 2.0), (3.0, 1.0)])

    def test_duplicate_starts_rejected(self):
        with pytest.raises(ValueError):
            MemoryProfile.from_pairs([(0.0, 1.0), (0.0, 2.0)])

    def test_profile_must_start_at_zero(self):
        with pytest.raises(ValueError):
            MemoryProfile.from_pairs([(1.0, 1.0)])

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            MemoryProfile.from_pairs([(0.0, 1.0), (-1.0, 5.0)])
        with pytest.raises(ValueError):
            MemoryProfile.from_pairs([(0.0, -5.0)])



# ----------------------------------------------------------------------
# column storage: lookups and constructors against the pair-list model
# ----------------------------------------------------------------------
_TOL = MemoryProfile._TOL


def _scan_demand_at(pairs, progress):
    """The linear scan over phases that the bisection replaced."""
    demand = pairs[0][1]
    for start, phase_demand in pairs:
        if start > progress + _TOL:
            break
        demand = phase_demand
    return demand


def _scan_next_boundary(pairs, progress):
    for start, _ in pairs:
        if start > progress + _TOL:
            return start
    return None


_lengths = st.floats(min_value=1e-12, max_value=1e4,
                     allow_nan=False, allow_infinity=False)
_demands = st.floats(min_value=0.0, max_value=1e4,
                     allow_nan=False, allow_infinity=False)


@st.composite
def _profile_pairs(draw):
    """Strictly increasing starts from 0.0 with non-negative demands."""
    gaps = draw(st.lists(_lengths, max_size=8))
    starts = [0.0]
    for gap in gaps:
        start = starts[-1] + gap
        if start > starts[-1]:
            starts.append(start)
    return [(start, draw(_demands)) for start in starts]


def _probes(pairs):
    starts = [start for start, _ in pairs]
    points = [-1.0, -_TOL, starts[-1] + 1.0]
    for start in starts:
        points += [start, start - _TOL, start + _TOL,
                   start - _TOL / 2, start + _TOL / 2]
    points += [(a + b) / 2 for a, b in zip(starts, starts[1:])]
    return points


class TestColumnarProfile:
    @given(_profile_pairs())
    def test_lookups_match_the_linear_scan(self, pairs):
        profile = MemoryProfile.from_pairs(pairs)
        for progress in _probes(pairs):
            assert (profile.demand_at(progress)
                    == _scan_demand_at(pairs, progress))
            assert (profile.next_boundary(progress)
                    == _scan_next_boundary(pairs, progress))
        assert profile.peak_demand_mb == max(d for _, d in pairs)

    @given(_profile_pairs())
    def test_constructors_round_trip(self, pairs):
        profile = MemoryProfile.from_pairs(pairs)
        assert profile.pairs == pairs
        assert MemoryProfile.from_pairs(profile.pairs).pairs == pairs
        assert MemoryProfile.from_pairs(iter(pairs)).pairs == pairs

    @given(_profile_pairs())
    def test_pickle_round_trip(self, pairs):
        profile = MemoryProfile.from_pairs(pairs)
        assert pickle.loads(pickle.dumps(profile)).pairs == pairs

    @pytest.mark.parametrize("pairs, message", [
        ([], "at least one phase"),
        ([(-1.0, 5.0)], "start_progress must be non-negative"),
        ([(0.0, -5.0)], "demand_mb must be non-negative"),
        ([(1.0, -5.0)], "demand_mb must be non-negative"),
        ([(0.0, 1.0), (5.0, 2.0), (3.0, 1.0)], "strictly increasing"),
        ([(0.0, 1.0), (0.0, 2.0)], "strictly increasing"),
        ([(1.0, 1.0)], "start at progress 0"),
        ([(1.0, 1.0), (0.5, 1.0)], "strictly increasing"),
        ([(0.0, 1.0), (0.0, 2.0), (3.0, -1.0)], "demand_mb must be"),
    ])
    def test_errors_are_unchanged(self, pairs, message):
        with pytest.raises(ValueError, match=message):
            MemoryProfile.from_pairs(pairs)

    def test_constant_rejects_negative_demand(self):
        with pytest.raises(ValueError, match="demand_mb"):
            MemoryProfile.constant(-1.0)

class TestJob:
    def make_job(self, **kwargs):
        defaults = dict(program="gzip", cpu_work_s=100.0,
                        memory=MemoryProfile.constant(50.0))
        defaults.update(kwargs)
        return Job(**defaults)

    def test_initial_state(self):
        job = self.make_job()
        assert job.state is JobState.PENDING
        assert job.remaining_work_s == 100.0
        assert not job.finished
        assert job.current_demand_mb == 50.0
        assert job.peak_demand_mb == 50.0

    def test_job_ids_are_unique(self):
        a, b = self.make_job(), self.make_job()
        assert a.job_id != b.job_id

    def test_progress_tracks_demand(self):
        profile = MemoryProfile.from_pairs([(0.0, 10.0), (50.0, 90.0)])
        job = self.make_job(memory=profile)
        assert job.current_demand_mb == 10.0
        job.progress_s = 60.0
        assert job.current_demand_mb == 90.0
        assert job.remaining_work_s == 40.0

    def test_slowdown(self):
        job = self.make_job(submit_time=10.0)
        job.finish_time = 310.0
        assert job.slowdown() == 3.0

    def test_slowdown_before_finish_raises(self):
        job = self.make_job()
        with pytest.raises(ValueError):
            job.slowdown()

    def test_invalid_work_rejected(self):
        with pytest.raises(ValueError):
            self.make_job(cpu_work_s=0.0)

    def test_negative_io_stall_rejected(self):
        with pytest.raises(ValueError):
            self.make_job(io_stall_per_cpu_s=-0.1)


class TestAccounting:
    def test_wall_sums_components(self):
        acct = JobAccounting(cpu_s=10.0, page_s=2.0, io_s=1.0,
                             queue_s=5.0, migration_s=0.5)
        assert acct.wall_s == pytest.approx(18.5)

    def test_total_accounting_aggregates(self):
        jobs = []
        for i in range(3):
            job = Job(program="p", cpu_work_s=10.0,
                      memory=MemoryProfile.constant(1.0))
            job.acct.cpu_s = 10.0
            job.acct.queue_s = float(i)
            jobs.append(job)
        total = total_accounting(jobs)
        assert total.cpu_s == pytest.approx(30.0)
        assert total.queue_s == pytest.approx(3.0)
