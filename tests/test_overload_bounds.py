"""The overload path's shortcuts are pure optimizations — pinned here.

Four shortcuts make a visit to a blocked node cheap:

* **destination bound** — ``find_migration_destination`` returns None
  without building a candidate list when the job's demand, less
  ``_EPS``, exceeds the cluster's largest idle memory (no candidate can
  then pass ``has_room_for``);
* **reuse bound** — ``serving_reservation_with_capacity`` caches the
  first serving reservation with a free slot and the most idle memory
  until a node row or a reservation changes, and answers with it when
  it has room for the job;
* **advance lanes** — ``_recompute`` stores each job's rate factors
  once, and ``_advance`` multiplies them by ``dt``;
* **one demand per visit** — the victim loop reads the victim's
  current demand once and the visit passes it along instead of
  re-deriving it in each check.

The grid test runs every policy on App trace 5 with the full scans
below re-done next to every bounded answer and the victim recomputed
next to every visit; the hypothesis test checks ``_advance`` against
the unhoisted formula bit for bit; the unit tests pin the boundary
cases a run rarely reaches.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.config import ClusterConfig, WorkstationSpec
from repro.cluster.job import Job, MemoryProfile
from repro.cluster.memory import PagingModel
from repro.cluster.state import ClusterState
from repro.cluster.workstation import _EPS, Workstation
from repro.core.reconfiguration import VReconfiguration
from repro.core.reservation import ReservationManager, ReservationState
from repro.experiments.runner import POLICIES, default_config, run_experiment
from repro.faults import FaultConfig
from repro.scheduling.base import LoadSharingPolicy
from repro.scheduling.g_loadsharing import GLoadSharing
from repro.scheduling.suspension import SuspensionPolicy
from repro.sim import Simulator
from repro.workload.programs import WorkloadGroup

from tests.helpers import job as make_job, tiny_cluster

FAULTS = FaultConfig(mtbf_s=300.0, mttr_s=30.0, crash_policy="checkpoint",
                     loadinfo_drop_prob=0.1, loadinfo_delay_prob=0.1,
                     migration_failure_prob=0.3)


def scan_destination(policy, job, exclude):
    """The destination search without the bound."""
    for node in policy.candidates_by_idle_memory(exclude=exclude):
        if node.accepts_migration(job):
            return node
    return None


def scan_reuse(manager, demand):
    """The reuse scan without the cache: the serving reservation with
    room for ``demand`` and the most idle memory, the earliest on a
    tie."""
    best = None
    best_idle = 0.0
    for reservation in manager._by_node.values():
        if reservation.state is not ReservationState.SERVING:
            continue
        node = reservation.node
        if not node.has_room_for(demand):
            continue
        idle = node.idle_memory_mb
        if best is None or idle > best_idle:
            best = reservation
            best_idle = idle
    return best


def check_victim(node, job, demand_mb):
    """The job and demand a visit passed along are the node's victim
    and its current demand, recomputed now (same instant, so the
    recomputation's ``_advance`` is a no-op)."""
    assert job is node.most_memory_intensive_job(faulting_only=True)
    assert repr(demand_mb) == repr(job.current_demand_mb)


#: Every class that defines ``on_blocking``.
BLOCKING_HOOKS = (LoadSharingPolicy, SuspensionPolicy, VReconfiguration)


@pytest.fixture
def full_scans(monkeypatch):
    """Re-do both full scans next to every bounded answer, recompute
    the victim next to every visit and the demand next to every
    migration guard, and count the answers compared, by kind."""
    checks = Counter()
    find = LoadSharingPolicy.find_migration_destination
    reuse = ReservationManager.serving_reservation_with_capacity
    migratable = LoadSharingPolicy._migratable

    def checked_find(self, job, exclude, demand_mb):
        if exclude is not None:  # a visit (a suspended job has no node)
            check_victim(self.cluster.nodes[exclude], job, demand_mb)
            checks["victim"] += 1
        bound_rejects = (demand_mb - _EPS
                         > self.cluster.destination_idle_bound_mb())
        result = find(self, job, exclude, demand_mb)
        assert result is scan_destination(self, job, exclude)
        checks["destination"] += 1
        checks["rejected"] += bound_rejects
        return result

    def checked_migratable(self, job, demand_mb):
        assert repr(demand_mb) == repr(job.current_demand_mb)
        checks["migratable"] += 1
        return migratable(self, job, demand_mb)

    def checked_reuse(self, demand_mb):
        result = reuse(self, demand_mb)
        assert result is scan_reuse(self, demand_mb)
        checks["reuse"] += 1
        checks["reused"] += result is not None
        return result

    def checked_blocking(on_blocking):
        def wrapper(self, node, job, demand_mb):
            check_victim(node, job, demand_mb)
            checks["blocking"] += 1
            return on_blocking(self, node, job, demand_mb)
        return wrapper

    monkeypatch.setattr(LoadSharingPolicy, "find_migration_destination",
                        checked_find)
    monkeypatch.setattr(LoadSharingPolicy, "_migratable", checked_migratable)
    monkeypatch.setattr(ReservationManager,
                        "serving_reservation_with_capacity", checked_reuse)
    for cls in BLOCKING_HOOKS:
        monkeypatch.setattr(cls, "on_blocking",
                            checked_blocking(cls.__dict__["on_blocking"]))
    return checks


@pytest.mark.parametrize("domains", [1, 4], ids=["flat", "domains4"])
@pytest.mark.parametrize("interval", [1.0, 0.0],
                         ids=["periodic", "live"])
@pytest.mark.parametrize("faulted", [False, True],
                         ids=["nofaults", "faults"])
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_bounds_match_full_scans(full_scans, policy, faulted, interval,
                                 domains):
    cfg = default_config(WorkloadGroup.APP).replace(
        load_exchange_interval_s=interval, domains=domains,
        faults=FAULTS if faulted else None)
    # Eight nodes saturate: most destination searches fail.
    run_experiment(WorkloadGroup.APP, 5, policy=policy, seed=0,
                   scale=0.2, config=cfg, nodes=8)
    if policy in ("g-loadsharing", "v-reconfiguration"):
        # The bound fired, so the cell compared a shortcut answer.
        assert full_scans["rejected"] > 0
    if policy in ("g-loadsharing", "memory", "srpt-oracle", "suspension",
                  "v-reconfiguration"):
        # These visit thrashing nodes: each visit's victim was checked.
        assert full_scans["victim"] > 0
        assert full_scans["blocking"] > 0
    if policy in ("g-loadsharing", "memory"):
        assert full_scans["migratable"] > 0
    if policy == "v-reconfiguration":
        assert full_scans["reuse"] > 0


# ----------------------------------------------------------------------
# advance lanes: bit-identical to the unhoisted formula
# ----------------------------------------------------------------------
class _Assessment:
    def __init__(self, lambdas):
        self.fault_rates_per_cpu_s = lambdas


class _Paging:
    """A paging model whose jobs all fault (or none do)."""

    def __init__(self, faulting):
        self.faulting = faulting

    def assess(self, demands, user_memory_mb):
        return _Assessment([1.0 if self.faulting else 0.0] * len(demands))


finite = st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def lane_cases(draw):
    n = draw(st.integers(1, 4))
    faulting = draw(st.booleans())
    rates = draw(st.lists(finite, min_size=n, max_size=n))
    fault_stalls = (draw(st.lists(finite, min_size=n, max_size=n))
                    if faulting else [0.0] * n)
    io_stalls = draw(st.lists(finite, min_size=n, max_size=n))
    works = draw(st.lists(st.floats(0.5, 50.0), min_size=n, max_size=n))
    speed = draw(st.sampled_from([0.5, 1.0, 1.3, 2.0]))
    dts = draw(st.lists(st.floats(1e-6, 20.0), min_size=1, max_size=6))
    return faulting, rates, fault_stalls, io_stalls, works, speed, dts


@given(lane_cases())
@settings(max_examples=200, deadline=None)
def test_advance_lanes_match_unhoisted_formula(case):
    faulting, rates, fault_stalls, io_stalls, works, speed, dts = case
    sim = Simulator()
    config = ClusterConfig(
        num_nodes=1, spec=WorkstationSpec(memory_mb=1000.0, swap_mb=1000.0,
                                          speed_factor=speed),
        kernel_reserved_mb=0.0, cpu_threshold=8)
    node = Workstation(sim, 0, config.spec, config, PagingModel(),
                       state=ClusterState(1))
    # Rates and stalls come from the draw: the lanes are built by the
    # real ``_recompute`` from whatever its rate allocation returns.
    node._paging = _Paging(faulting)
    node._fault_fixed_point = lambda *args: (rates, fault_stalls)
    node._allocate_rates = lambda *args: rates
    jobs = [Job(program="t", cpu_work_s=work,
                memory=MemoryProfile.constant(1.0),
                io_stall_per_cpu_s=io_stall)
            for work, io_stall in zip(works, io_stalls)]
    for job in jobs:
        node.add_job(job)
    if node._next_event is not None:
        node._next_event.cancel()  # time moves only as the test says

    progress = [0.0] * len(jobs)
    accts = [[0.0] * 4 for _ in jobs]
    busy = 0.0
    last = sim.now
    for step in dts:
        sim.run(until=sim.now + step)
        node._advance()
        dt = sim.now - last
        last = sim.now
        for i, (job, rate, fault_stall, io_stall) in enumerate(
                zip(jobs, rates, fault_stalls, io_stalls)):
            progress[i] = min(job.cpu_work_s, progress[i] + rate * dt)
            cpu_part = rate / speed * dt
            page_part = rate * fault_stall * dt
            io_part = rate * io_stall * dt
            acct = accts[i]
            acct[0] += cpu_part
            acct[1] += page_part
            acct[2] += io_part
            acct[3] += max(0.0, dt - cpu_part - page_part - io_part)
            busy += cpu_part
    for job, expected_progress, acct in zip(jobs, progress, accts):
        assert repr(job.progress_s) == repr(expected_progress)
        assert repr((job.acct.cpu_s, job.acct.page_s, job.acct.io_s,
                     job.acct.queue_s)) == repr(tuple(acct))
    assert repr(node.busy_cpu_s) == repr(busy)


# ----------------------------------------------------------------------
# boundary cases
# ----------------------------------------------------------------------
def test_destination_bound_admits_idle_exactly_demand_less_eps():
    """A node whose idle memory equals ``demand - _EPS`` qualifies, so
    the bound must not reject the search (strict ``>``)."""
    cluster = tiny_cluster(num_nodes=3, memory_mb=100.0)
    policy = GLoadSharing(cluster)
    user = cluster.nodes[0].user_memory_mb
    for demand in (60.0 + k / 64 for k in range(1000)):
        target = demand - _EPS
        resident = user - target
        if user - resident == target:
            break
    else:
        pytest.fail("no float demand reaches the boundary exactly")
    victim = make_job(demand=demand)
    cluster.nodes[0].add_job(victim)
    cluster.nodes[1].add_job(make_job(demand=resident))
    cluster.nodes[2].add_job(make_job(demand=user - 1.0))
    assert cluster.destination_idle_bound_mb() == demand - _EPS
    assert policy.find_migration_destination(
        victim, 0, demand) is cluster.nodes[1]


def _serving(manager, node):
    reservation = manager.reserve(node, needed_mb=1.0)
    manager.assign(reservation, make_job())
    return reservation


def test_reuse_sees_a_reservation_start_serving():
    cluster = tiny_cluster(num_nodes=4)
    manager = ReservationManager(cluster, max_reserved=2)
    reservation = manager.reserve(cluster.nodes[1], needed_mb=1.0)
    assert manager.serving_reservation_with_capacity(10.0) is None
    manager.assign(reservation, make_job())
    assert manager.serving_reservation_with_capacity(10.0) is reservation


def test_reuse_skips_the_most_idle_reservation_without_a_slot():
    cluster = tiny_cluster(num_nodes=4, cpu_threshold=2)
    manager = ReservationManager(cluster, max_reserved=2)
    full = _serving(manager, cluster.nodes[1])
    roomy = _serving(manager, cluster.nodes[2])
    for _ in range(2):
        cluster.nodes[1].add_job(make_job(demand=5.0))
    cluster.nodes[2].add_job(make_job(demand=40.0))
    assert full.node.idle_memory_mb > roomy.node.idle_memory_mb
    assert manager.serving_reservation_with_capacity(20.0) is roomy
    assert manager.serving_reservation_with_capacity(70.0) is None


# ----------------------------------------------------------------------
# one demand per visit
# ----------------------------------------------------------------------
def test_visit_before_a_phase_boundary_passes_the_fresh_demand(
        monkeypatch):
    """A visit that lands within ``_TOL`` of a phase start, before the
    boundary event fires, passes along the next phase's demand (the
    fresh read), not the demand of the node's last recompute."""
    cluster = tiny_cluster(num_nodes=2, memory_mb=100.0)
    policy = GLoadSharing(cluster)
    node = cluster.nodes[0]
    victim = Job(program="t", cpu_work_s=50.0,
                 memory=MemoryProfile.from_pairs([(0.0, 120.0),
                                                  (3.0, 150.0)]))
    node.add_job(victim)
    assert victim.faulting
    rate = node._lanes[2]
    boundary_event = node._next_event
    cluster.sim.run(until=(3.0 - 0.5e-9) / rate)
    assert boundary_event.pending
    passed = []
    find = LoadSharingPolicy.find_migration_destination

    def recording(self, job, exclude, demand_mb):
        passed.append((job, demand_mb))
        return find(self, job, exclude, demand_mb)

    monkeypatch.setattr(LoadSharingPolicy, "find_migration_destination",
                        recording)
    policy.handle_overload(node)
    assert victim.progress_s < 3.0
    assert node._total_demand_cache == 120.0  # the last recompute's
    assert passed == [(victim, 150.0)]
    assert repr(passed[0][1]) == repr(victim.current_demand_mb)
    assert node.most_memory_intensive(faulting_only=True) == (victim,
                                                              150.0)
