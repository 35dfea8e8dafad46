"""Unit tests for the workstation model."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.config import ClusterConfig, WorkstationSpec
from repro.cluster.job import Job, JobState, MemoryProfile
from repro.cluster.memory import PagingModel
from repro.cluster.state import ClusterState
from repro.cluster.workstation import Workstation
from repro.sim import Simulator


def make_node(sim, memory_mb=384.0, on_finish=None, **config_kwargs):
    config = ClusterConfig(
        num_nodes=1,
        spec=WorkstationSpec(memory_mb=memory_mb, swap_mb=memory_mb),
        kernel_reserved_mb=0.0,
        **config_kwargs,
    )
    paging = PagingModel(alpha=config.residency_alpha,
                         max_fault_rate_per_cpu_s=config.max_fault_rate_per_cpu_s,
                         fault_service_s=config.fault_service_s)
    return Workstation(sim, 0, config.spec, config, paging,
                       on_job_finished=on_finish, state=ClusterState(1))


def make_job(work=100.0, demand=50.0, **kwargs):
    return Job(program="test", cpu_work_s=work,
               memory=MemoryProfile.constant(demand), **kwargs)


class TestSingleJob:
    def test_lone_job_finishes_after_its_work(self):
        sim = Simulator()
        finished = []
        node = make_node(sim, on_finish=lambda j, n: finished.append(j))
        job = make_job(work=100.0, demand=50.0)
        node.add_job(job)
        sim.run()
        assert finished == [job]
        assert job.state is JobState.FINISHED
        assert sim.now == pytest.approx(100.0)
        assert job.finish_time == pytest.approx(100.0)

    def test_lone_job_accounting_is_pure_cpu(self):
        sim = Simulator()
        node = make_node(sim)
        job = make_job(work=100.0, demand=50.0)
        node.add_job(job)
        sim.run()
        assert job.acct.cpu_s == pytest.approx(100.0)
        assert job.acct.page_s == pytest.approx(0.0)
        assert job.acct.queue_s == pytest.approx(0.0, abs=1e-6)

    def test_oversized_lone_job_thrashes(self):
        sim = Simulator()
        node = make_node(sim, memory_mb=100.0)
        job = make_job(work=100.0, demand=200.0)
        node.add_job(job)
        assert node.thrashing
        assert job.faulting
        sim.run()
        # Half the pages missing at K=400 -> 200 faults/cpu-s at 10 ms
        # each is >= 2 s of stall per cpu second (3x elongation), made
        # worse by paging-disk contention and fault CPU overhead.
        assert sim.now >= 300.0 - 1e-6
        assert job.acct.page_s >= 200.0 - 1e-6
        # decomposition still holds exactly
        total = (job.acct.cpu_s + job.acct.page_s + job.acct.io_s
                 + job.acct.queue_s)
        assert total == pytest.approx(sim.now, rel=1e-6)


class TestSharing:
    def test_two_equal_jobs_share_cpu(self):
        sim = Simulator()
        node = make_node(sim)
        a, b = make_job(work=100.0), make_job(work=100.0)
        node.add_job(a)
        node.add_job(b)
        sim.run()
        tax = node.config.context_switch_tax
        expected = 200.0 / (1.0 - tax)
        assert sim.now == pytest.approx(expected, rel=1e-6)
        # Each spent ~half its wall time queuing behind the other.
        assert a.acct.queue_s == pytest.approx(expected - a.acct.cpu_s,
                                               rel=1e-4)

    def test_short_job_departs_then_long_job_speeds_up(self):
        sim = Simulator()
        finished = []
        node = make_node(sim, on_finish=lambda j, n: finished.append(j.job_id))
        short, long_ = make_job(work=10.0), make_job(work=100.0)
        node.add_job(short)
        node.add_job(long_)
        sim.run()
        assert finished[0] == short.job_id
        tax = node.config.context_switch_tax
        # short finishes near t=20 (shared), long does remaining 90 alone
        t_short = 20.0 / (1.0 - tax)
        assert short.finish_time == pytest.approx(t_short, rel=1e-6)
        assert long_.finish_time == pytest.approx(t_short + 90.0, rel=1e-4)

    def test_wall_time_decomposition_sums(self):
        sim = Simulator()
        node = make_node(sim, memory_mb=100.0)
        jobs = [make_job(work=50.0, demand=60.0) for _ in range(3)]
        start = sim.now
        for job in jobs:
            node.add_job(job)
        sim.run()
        for job in jobs:
            wall = job.finish_time - start
            acct_sum = (job.acct.cpu_s + job.acct.page_s + job.acct.io_s
                        + job.acct.queue_s + job.acct.migration_s)
            assert acct_sum == pytest.approx(wall, rel=1e-6)


class TestMemoryPhases:
    def test_demand_follows_phases(self):
        sim = Simulator()
        node = make_node(sim)
        profile = MemoryProfile.from_pairs([(0.0, 10.0), (50.0, 300.0)])
        job = Job(program="phased", cpu_work_s=100.0, memory=profile)
        node.add_job(job)
        sim.run(until=25.0)
        assert node.total_demand_mb == pytest.approx(10.0)
        sim.run(until=75.0)
        assert node.total_demand_mb == pytest.approx(300.0)
        sim.run()
        assert job.finished

    def test_phase_growth_triggers_thrashing(self):
        sim = Simulator()
        node = make_node(sim, memory_mb=100.0)
        profile = MemoryProfile.from_pairs([(0.0, 10.0), (10.0, 200.0)])
        job = Job(program="grower", cpu_work_s=20.0, memory=profile)
        node.add_job(job)
        sim.run(until=5.0)
        assert not node.thrashing
        sim.run(until=10.0 + 1e-3)
        assert node.thrashing
        sim.run()
        assert job.finished


class TestMigrationSupport:
    def test_remove_job_detaches(self):
        sim = Simulator()
        node = make_node(sim)
        job = make_job(work=100.0)
        node.add_job(job)
        sim.run(until=30.0)
        node.remove_job(job)
        assert node.num_running == 0
        assert job.node_id is None
        assert job.progress_s == pytest.approx(30.0)

    def test_removed_job_keeps_progress_on_new_node(self):
        sim = Simulator()
        node_a = make_node(sim)
        node_b = make_node(sim)
        job = make_job(work=100.0)
        node_a.add_job(job)
        sim.run(until=40.0)
        node_a.remove_job(job)
        node_b.add_job(job)
        sim.run()
        assert job.finished
        assert job.finish_time == pytest.approx(100.0)

    def test_remove_unknown_job_raises(self):
        sim = Simulator()
        node = make_node(sim)
        with pytest.raises(ValueError):
            node.remove_job(make_job())

    def test_add_finished_job_raises(self):
        sim = Simulator()
        node = make_node(sim)
        job = make_job()
        job.state = JobState.FINISHED
        with pytest.raises(ValueError):
            node.add_job(job)

    def test_double_add_raises(self):
        sim = Simulator()
        node = make_node(sim)
        job = make_job()
        node.add_job(job)
        with pytest.raises(ValueError):
            node.add_job(job)


class TestAdmission:
    def test_accepting_requires_slot_and_memory(self):
        sim = Simulator()
        node = make_node(sim, memory_mb=100.0, cpu_threshold=2)
        assert node.accepting
        node.add_job(make_job(work=10.0, demand=40.0))
        assert node.accepting
        node.add_job(make_job(work=10.0, demand=40.0))
        assert not node.accepting  # CPU threshold reached

    def test_accepting_requires_idle_memory(self):
        sim = Simulator()
        node = make_node(sim, memory_mb=100.0)
        node.add_job(make_job(work=10.0, demand=100.0))
        assert node.idle_memory_mb == pytest.approx(0.0)
        assert not node.accepting

    def test_reserved_node_not_accepting(self):
        sim = Simulator()
        node = make_node(sim)
        node.reserved = True
        assert not node.accepting
        assert not node.accepts_migration(make_job(demand=1.0))

    def test_accepts_migration_checks_current_demand(self):
        sim = Simulator()
        node = make_node(sim, memory_mb=100.0)
        node.add_job(make_job(work=10.0, demand=60.0))
        small = make_job(demand=30.0)
        big = make_job(demand=60.0)
        assert node.accepts_migration(small)
        assert not node.accepts_migration(big)

    def test_most_memory_intensive_job(self):
        sim = Simulator()
        node = make_node(sim, memory_mb=100.0)
        small = make_job(work=10.0, demand=20.0)
        big = make_job(work=10.0, demand=70.0)
        node.add_job(small)
        node.add_job(big)
        assert node.most_memory_intensive_job() is big

    def test_most_memory_intensive_faulting_only(self):
        sim = Simulator()
        node = make_node(sim, memory_mb=500.0)
        node.add_job(make_job(work=10.0, demand=20.0))
        # memory fits -> nobody faults
        assert node.most_memory_intensive_job(faulting_only=True) is None
        assert node.most_memory_intensive_job() is not None

    def test_most_memory_intensive_tie_goes_to_lowest_job_id(self):
        sim = Simulator()
        node = make_node(sim, memory_mb=500.0)
        for job_id in (7, 3, 5):
            node.add_job(make_job(work=10.0, demand=30.0, job_id=job_id))
        assert node.most_memory_intensive_job().job_id == 3
        node.add_job(make_job(work=10.0, demand=31.0, job_id=9))
        assert node.most_memory_intensive_job().job_id == 9

    def test_most_memory_intensive_faulting_only_skips_quiet_jobs(self):
        sim = Simulator()
        node = make_node(sim, memory_mb=100.0)
        big = make_job(work=10.0, demand=90.0)
        small = make_job(work=10.0, demand=5.0)
        middle = make_job(work=10.0, demand=40.0)
        for job in (big, small, middle):
            node.add_job(job)
        assert [j.faulting for j in (big, small, middle)] == [
            True, False, False]
        assert node.most_memory_intensive_job(faulting_only=True) is big
        # Only the flag decides: a quiet job never wins, however large.
        big.faulting, small.faulting = False, True
        assert node.most_memory_intensive_job(faulting_only=True) is small
        assert node.most_memory_intensive_job() is big

    def test_most_memory_intensive_none_without_a_qualifying_job(self):
        sim = Simulator()
        node = make_node(sim)
        assert node.most_memory_intensive_job() is None
        assert node.most_memory_intensive_job(faulting_only=True) is None

    @given(st.lists(st.tuples(st.sampled_from([0.0, 20.0, 45.5, 70.0]),
                              st.booleans()), max_size=6),
           st.permutations(range(6)), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_most_memory_intensive_matches_max(self, jobs, job_ids,
                                               faulting_only):
        node = make_node(Simulator(), memory_mb=100.0)
        for (demand, _), job_id in zip(jobs, job_ids):
            node.add_job(make_job(work=10.0, demand=demand, job_id=job_id))
        for job, (_, faulting) in zip(node.running_jobs, jobs):
            job.faulting = faulting
        candidates = [job for job in node.running_jobs
                      if not faulting_only or job.faulting]
        expected = (max(candidates, key=lambda job: (job.current_demand_mb,
                                                     -job.job_id))
                    if candidates else None)
        assert node.most_memory_intensive_job(faulting_only) is expected


@st.composite
def node_states(draw):
    """A workstation in a random state (possibly dead, reserved, with
    jobs in flight) and the demand of a job to place on it."""
    node = make_node(Simulator(), memory_mb=100.0,
                     cpu_threshold=draw(st.integers(1, 4)))
    for demand in draw(st.lists(st.sampled_from([0.0, 10.0, 35.5, 60.0]),
                                max_size=4)):
        node.add_job(make_job(work=10.0, demand=demand))
    node.inbound_jobs = draw(st.integers(0, 2))
    node.reserved = draw(st.booleans())
    if draw(st.booleans()):
        node.crash()
    idle = max(0.0, node.user_memory_mb - node.total_demand_mb)
    demand = draw(st.sampled_from([0.0, 1e-10, 10.0, 39.0, 100.0,
                                   idle, idle + 0.5e-9, idle + 2e-9]))
    return node, make_job(work=10.0, demand=demand)


class TestPlacementChecks:
    """The placement checks read the node's fields directly; they must
    answer exactly what the public properties say."""

    @given(node_states())
    @settings(max_examples=200, deadline=None)
    def test_field_reads_match_the_properties(self, state):
        node, job = state
        if not node.alive:
            assert node.idle_memory_mb == 0.0
        demand = job.current_demand_mb
        fits = (node.has_free_slot
                and node.idle_memory_mb >= demand - 1e-9)
        assert node.has_room_for(demand) == fits
        assert node.accepts_migration(job) == (
            node.alive and not node.reserved and fits)


class TestRecompute:
    def test_recompute_short_circuits_on_identical_inputs(self):
        """A recompute whose inputs (liveness, demand vector, dedicated
        flags) match the previous one is skipped; the skip still
        notifies listeners, so downstream consumers (directory,
        collector dirty flag) behave exactly as before."""
        node = make_node(Simulator())
        job = make_job(work=100.0, demand=50.0)
        node.add_job(job)
        recomputes = node.recomputes
        notified = []
        node.add_change_listener(lambda n: notified.append(n.node_id))
        # Constant demand and no progress boundary crossed: identical key.
        node._recompute()
        assert node.recomputes == recomputes
        assert node.recompute_skips == 1
        assert notified == [0]
        # A real change (job removed) recomputes again.
        node.remove_job(job)
        assert node.recomputes == recomputes + 1
        assert node.recompute_skips == 1


@st.composite
def unfaulted_nodes(draw):
    """An under-subscribed node (no job faults) whose jobs may be
    dedicated or I/O-active, with buffer caches that free memory may
    not hold."""
    memory = draw(st.sampled_from([100.0, 128.0, 384.0]))
    node = make_node(Simulator(), memory_mb=memory,
                     uncached_io_penalty=draw(st.sampled_from([0.0, 2.0])))
    fractions = draw(st.lists(st.floats(0.0, 1.0), max_size=4))
    scale = 0.999 * memory / max(1.0, sum(fractions))
    for fraction in fractions:
        node.add_job(make_job(
            work=draw(st.floats(1.0, 500.0)), demand=fraction * scale,
            dedicated=draw(st.booleans()),
            io_stall_per_cpu_s=draw(st.sampled_from([0.0, 0.005, 0.08])),
            buffer_cache_mb=draw(st.sampled_from([0.0, 9.6, 150.0]))))
    if not fractions and draw(st.booleans()):
        # An emptied node: its last recompute summed no fault rates.
        job = make_job()
        node.add_job(job)
        node.remove_job(job)
    return node


def io_factor(node) -> float:
    """The I/O stall inflation of ``node``'s last recompute: uncached
    I/O costs the penalty factor more when free memory cannot hold the
    buffer cache its jobs want."""
    wanted = sum(job.buffer_cache_mb for job in node._running)
    if wanted <= 0:
        return 1.0
    free = max(0.0, node.user_memory_mb - node.total_demand_mb)
    return 1.0 + node.config.uncached_io_penalty * (
        1.0 - min(1.0, free / wanted))


class TestNoFaultRecompute:
    @given(unfaulted_nodes())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_fixed_point_branch(self, node):
        """With every lambda zero, ``_recompute`` skips the fixed point;
        running it on the same inputs must give the same objects."""
        if node._assessment is None:
            return  # a fresh node never recomputed
        running = node._running
        lambdas = node._assessment.fault_rates_per_cpu_s
        assert not any(lam > 0 for lam in lambdas)
        io_stalls = [job.io_stall_per_cpu_s * io_factor(node)
                     for job in running]
        speed = node.spec.speed_factor
        rates, fault_stalls = node._fault_fixed_point(
            lambdas, io_stalls, speed, node.config.context_switch_tax,
            tuple(job.dedicated for job in running))
        fault_rate = sum(rate * lam for rate, lam in zip(rates, lambdas))
        # repr tells an int 0 from 0.0 and -0.0 from 0.0.
        lanes = node._lanes
        assert repr(lanes) == repr([
            entry for job, rate, fault_stall, io_stall in zip(
                running, rates, fault_stalls, io_stalls)
            for entry in (job, job.acct, rate, rate / speed,
                          rate * fault_stall, rate * io_stall)])
        assert repr(node.fault_rate_per_s) == repr(fault_rate)
        assert node.has_starving_job == any(
            stall >= 1.0 for stall in fault_stalls)
        assert [job.faulting for job in running] == [
            lam > 0.0 for lam in lambdas]

    def test_squeezed_cache_inflates_io_stalls(self):
        node = make_node(Simulator(), memory_mb=100.0)
        node.add_job(make_job(demand=90.0, io_stall_per_cpu_s=0.1,
                              buffer_cache_mb=20.0))
        # Half the wanted cache fits: stall x (1 + 2.0 x 0.5).
        _, _, rate, _, _, io_rate = node._lanes
        assert io_rate == rate * (0.1 * 2.0)
        assert node.fault_rate_per_s == 0.0
