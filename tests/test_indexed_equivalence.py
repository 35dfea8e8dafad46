"""The candidate index is a pure optimization — behavior pinned here.

The load directory maintains its candidate orders incrementally and
re-collects only the nodes that changed since the previous exchange
round; the monitor visits only the cluster's maintained thrashing set.
The seed instead re-collected every node each round, sorted a fresh
``snapshots()`` list per placement and scanned every node per monitor
tick.  That path is gone, so each test here runs a full experiment
with the seed's computation re-done next to every indexed answer.
SPEC trace 5 is the run: its memory pressure makes every policy
consult the directory (trace 3 at this scale never leaves the home
node under the memory-aware policies).  The checks:

* every ``candidates_by_idle_memory`` result equals the accepting
  snapshots sorted by ``(-idle_memory_mb, num_jobs, node_id)``;
* every ``load_order_ids`` / ``least_num_jobs`` answer equals the live
  snapshots sorted by ``(num_jobs, node_id)``;
* after every exchange round, and whenever the candidate orders take
  the rounds' rows, each published snapshot equals what a full
  re-collection from the node objects published at its round's grid
  time — recorded by a priority-2 chain on the round grid, where the
  exchange tick once fired (an unchanged node keeps the round that
  last saw it change);
* after every node change, and at every monitor tick, the maintained
  thrashing set is exactly the set of nodes a full scan finds
  thrashing.  The monitor ticks only while that set is non-empty, so
  the set must also be exact while it is empty; and a run in which
  some node thrashed must have ticked the monitor.

Any divergence means the index changed scheduling decisions, not just
their cost.
"""

from collections import Counter

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.domains import DomainDirectory
from repro.cluster.loadinfo import LoadInfoDirectory, NodeSnapshot
from repro.experiments.runner import default_config, run_experiment
from repro.scheduling.base import LoadSharingPolicy
from repro.workload.programs import WorkloadGroup

#: Policies whose selection logic touches the candidate orders.
POLICIES = ["cpu", "memory", "g-loadsharing", "v-reconfiguration",
            "suspension"]


def collected_snapshot(node, timestamp: float) -> NodeSnapshot:
    """What a full exchange round reads from the node object."""
    alive = node.alive
    return NodeSnapshot(
        node_id=node.node_id,
        num_jobs=node.committed_jobs if alive else 0,
        idle_memory_mb=node.idle_memory_mb,
        total_demand_mb=node.total_demand_mb,
        fault_rate_per_s=node.fault_rate_per_s,
        accepting=node.accepting,
        timestamp=timestamp,
        alive=alive,
        thrashing=alive and node.thrashing,
    )


@pytest.fixture
def legacy_checks(monkeypatch):
    """Re-do the seed's selection next to every indexed answer and
    count the answers compared, by kind."""
    checks = Counter()
    candidates = LoadSharingPolicy.candidates_by_idle_memory
    monitor_tick = LoadSharingPolicy._monitor_tick
    load_order_ids = LoadInfoDirectory.load_order_ids
    least_num_jobs = LoadInfoDirectory.least_num_jobs
    refresh = LoadInfoDirectory.refresh
    order = LoadInfoDirectory._order
    directory_init = DomainDirectory.__init__
    track_thrashing = Cluster._track_thrashing
    #: (node id, grid time) -> the node objects' view at that time.
    collected = {}

    def collecting_init(self, sim, nodes, *args, **kwargs):
        def collect(reschedule=True):
            for node in nodes:
                collected[node.node_id, sim.now] = collected_snapshot(
                    node, sim.now)
            if reschedule:
                sim.schedule(interval, collect, priority=2, daemon=True)

        collect(reschedule=False)  # the first round, at construction
        directory_init(self, sim, nodes, *args, **kwargs)
        interval = self.exchange_interval_s
        if interval > 0:
            sim.schedule(interval, collect, priority=2, daemon=True)

    def sorted_live(directory):
        return sorted((s for s in directory.snapshots() if s.alive),
                      key=lambda s: (s.num_jobs, s.node_id))

    def checked_candidates(self, exclude=None):
        result = candidates(self, exclude)
        snaps = [s for s in self.cluster.directory.snapshots()
                 if s.accepting and s.node_id != exclude]
        snaps.sort(key=lambda s: (-s.idle_memory_mb, s.num_jobs,
                                  s.node_id))
        assert [node.node_id for node in result] == [
            s.node_id for s in snaps]
        checks["accepting"] += 1
        return result

    def checked_load_order(self):
        result = load_order_ids(self)
        assert result == [s.node_id for s in sorted_live(self)]
        checks["load_order"] += 1
        return result

    def checked_least(self):
        result = least_num_jobs(self)
        snaps = sorted_live(self)
        assert result == (snaps[0].num_jobs if snaps else 0)
        checks["least_num_jobs"] += 1
        return result

    def checked_refresh(self, time):
        refresh(self, time)
        for node in self._nodes:
            published = NodeSnapshot(*self._rows[node.node_id])
            assert published == collected[node.node_id,
                                          published.timestamp]
        checks["exchange"] += 1

    def checked_order(self):
        order(self)
        for node in self._nodes:
            published = self.snapshot(node.node_id)
            assert published == collected[node.node_id,
                                          published.timestamp]
        checks["order"] += 1

    def checked_track_thrashing(self, node):
        track_thrashing(self, node)
        scanned = {other.node_id for other in self.nodes
                   if other.thrashing}
        assert self.thrashing_nodes == scanned
        checks["thrashing"] += 1
        checks["hot"] += bool(scanned)

    def checked_monitor_tick(self):
        scanned = {node.node_id for node in self.cluster.nodes
                   if node.thrashing}
        assert self.cluster.thrashing_nodes == scanned
        checks["monitor"] += 1
        monitor_tick(self)

    monkeypatch.setattr(LoadSharingPolicy, "candidates_by_idle_memory",
                        checked_candidates)
    monkeypatch.setattr(LoadSharingPolicy, "_monitor_tick",
                        checked_monitor_tick)
    monkeypatch.setattr(LoadInfoDirectory, "load_order_ids",
                        checked_load_order)
    monkeypatch.setattr(LoadInfoDirectory, "least_num_jobs",
                        checked_least)
    monkeypatch.setattr(LoadInfoDirectory, "refresh", checked_refresh)
    monkeypatch.setattr(LoadInfoDirectory, "_order", checked_order)
    monkeypatch.setattr(DomainDirectory, "__init__", collecting_init)
    monkeypatch.setattr(Cluster, "_track_thrashing",
                        checked_track_thrashing)
    return checks


def run_checked(policy, checks, interval=None, nodes=None):
    cfg = default_config(WorkloadGroup.SPEC)
    if interval is not None:
        cfg = cfg.replace(load_exchange_interval_s=interval)
    run_experiment(WorkloadGroup.SPEC, 5, policy=policy, seed=0,
                   scale=0.1, config=cfg, nodes=nodes)
    selections = (checks["load_order"] if policy == "cpu"
                  else checks["accepting"])
    assert selections > 0
    assert checks["thrashing"] > 0
    if checks["hot"]:
        assert checks["monitor"] > 0


@pytest.mark.parametrize("policy", POLICIES)
def test_indexed_matches_legacy_periodic(legacy_checks, policy):
    run_checked(policy, legacy_checks)
    assert legacy_checks["exchange"] > 0
    assert legacy_checks["order"] > 0


@pytest.mark.parametrize("policy", ["g-loadsharing", "memory", "cpu"])
def test_indexed_matches_legacy_live(legacy_checks, policy):
    """Live mode (interval 0) repositions per node change instead of
    per exchange round — the orders still match a fresh sort."""
    run_checked(policy, legacy_checks, interval=0.0)
    assert legacy_checks["exchange"] == 0


def test_larger_cluster_equivalence(legacy_checks):
    """The index must agree beyond the default topology too (a
    96-node stand-in keeps the test suite fast)."""
    run_checked("memory", legacy_checks, nodes=96)
    assert legacy_checks["exchange"] > 0
    assert legacy_checks["order"] > 0
