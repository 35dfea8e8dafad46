"""Skip oracle for the daemons that tick only while they have work,
and for the grids that have no tick at all.

The overload monitor, and a lossy load-information exchange, park
their ticks when a round leaves them nothing to do and re-arm them on
the same grid when work appears (:mod:`repro.sim.daemon`).  The
metrics collector emits the samples it owes before each change.
Without a lossy exchange the load directory closes each exchange
round at the first change after its grid time, and the candidate
orders take it at their first read.  None of this may show.  Each
case here runs twice: once as shipped, and once as a twin in which

* the park decisions are patched to never park, so that every daemon
  fires on every grid point as a self-rescheduling daemon does;
* an eager reader closes the exchange round and updates the
  candidate orders at every grid time from a self-rescheduling
  priority-2 chain, where the exchange tick once fired;
* a self-rescheduling priority-4 chain samples the cluster, as the
  collector's tick once did: the reference series.

The two runs must agree on the ``RunSummary``, the directory's
snapshots and published aggregates at the end and the ``(time,
node)`` sequence of ``handle_overload`` calls, and each collector's
columns and vectors must equal the reference.

The run is App trace 5 on 8 nodes: enough memory pressure for
thrashing, blocking, pending jobs, suspensions and reservations, with
quiet stretches in between.  Each regime also runs on two domains,
where one round grid serves two shards.  There the summary period
equals the exchange period in two regimes, so every exchange round
shares its instant with a summary round and must keep its place
before it.  The faulted cells run a lossy exchange, which keeps its
tick.
"""

import math

import pytest

from test_checkpoint_equivalence import FULL_FAULTS
from test_determinism import canonical

from repro.cluster.domains import DomainDirectory
from repro.cluster.state import FLAG_ALIVE, FLAG_RESERVED
from repro.experiments.runner import POLICIES, default_config, run_experiment
from repro.metrics.collector import MetricsCollector
from repro.scheduling.suspension import SuspensionPolicy
from repro.sim.daemon import DaemonTick
from repro.sim.portable import left_sum
from repro.workload.programs import WorkloadGroup

#: (exchange, monitor, sample, domain summary) intervals per regime;
#: one domain has no summaries.
REGIMES = {
    "periodic": (1.0, 1.0, 1.0, 1.0),
    "live": (0.0, 1.0, 1.0, 1.0),
    "interval-0.3": (0.3, 0.3, 0.3, 5.0),
}

#: (regime, domains) cells; one-domain cells are named by the regime.
CELLS = [pytest.param(regime, domains,
                      id=regime if domains == 1 else f"{regime}-d{domains}")
         for domains in (1, 2) for regime in sorted(REGIMES)]


def never_park(monkeypatch) -> None:
    """Patch the two park decisions: start armed, stay armed."""
    init = DaemonTick.__init__
    fired = DaemonTick.fired

    def armed_init(self, *args, **kwargs):
        kwargs["armed"] = True
        init(self, *args, **kwargs)

    monkeypatch.setattr(DaemonTick, "__init__", armed_init)
    monkeypatch.setattr(DaemonTick, "fired",
                        lambda self, keep: fired(self, keep=True))


class EagerReader:
    """Closes the directory's exchange round and updates its candidate
    orders at every grid time, from a self-rescheduling priority-2
    chain on the round grid."""

    def __init__(self, directory: DomainDirectory):
        self.directory = directory
        self.sim = directory._sim
        self.interval = directory.exchange_interval_s
        self.time = self.sim.now + self.interval
        self.rounds = 0
        self.sim.schedule_at(self.time, self.tick, priority=2, daemon=True)

    def tick(self) -> None:
        # Rank 1: the round of this very instant counts as passed.
        self.directory.catch_up(1)
        self.directory._settle()  # every shard's orders take it
        self.rounds += 1
        self.time += self.interval
        self.sim.schedule_at(self.time, self.tick, priority=2, daemon=True)


class ReferenceSampler:
    """Samples the state columns and the pending count at every grid
    point from a self-rescheduling priority-4 chain; the skew is the
    plain generator expression over the counts."""

    def __init__(self, collector: MetricsCollector):
        self.sim = collector.cluster.sim
        self.state = collector.cluster.state
        self.probe = collector.pending_probe
        self.interval = collector.sample_interval_s
        self.rows = []
        self.sim.schedule(self.interval, self.tick, priority=4,
                          daemon=True)

    def tick(self) -> None:
        state = self.state
        jobs = tuple(None if bits & FLAG_RESERVED or not bits & FLAG_ALIVE
                     else count
                     for bits, count in zip(state.flags, state.num_running))
        counts = [c for c in jobs if c is not None]
        skew = 0.0
        if counts:
            mean = sum(counts) / len(counts)
            skew = math.sqrt(left_sum((c - mean) ** 2 for c in counts)
                             / len(counts))
        reserved = sum(1 for bits in state.flags if bits & FLAG_RESERVED)
        self.rows.append((self.sim.now, left_sum(state.idle_memory_mb), skew,
                          reserved, self.probe(), jobs))
        self.sim.schedule(self.interval, self.tick, priority=4,
                          daemon=True)


def collector_rows(collector: MetricsCollector) -> list:
    """The collector's series as reference rows, vectors decoded."""
    collector.flush()
    return list(zip(
        collector.times, collector.idle_memory_mb, collector.skews,
        collector.reserved, collector.pending,
        (tuple(None if c == 0xFF else c for c in vector)
         for vector in collector.vectors)))


def run_case(monkeypatch, policy: str, regime: str, domains: int,
             faulted: bool, park: bool) -> dict:
    exchange, monitor, sample, summary = REGIMES[regime]
    cfg = default_config(WorkloadGroup.APP).replace(
        load_exchange_interval_s=exchange, monitor_interval_s=monitor,
        sample_interval_s=sample, domains=domains,
        domain_exchange_interval_s=summary)
    overloads = []
    cls = POLICIES[policy]
    handle_overload = cls.handle_overload

    def recording(self, node):
        overloads.append((self.sim.now, node.node_id))
        handle_overload(self, node)

    references = []
    init = MetricsCollector.__init__

    def with_reference(self, *args, **kwargs):
        init(self, *args, **kwargs)
        references.append(ReferenceSampler(self))

    readers = []
    directory_init = DomainDirectory.__init__

    def with_reader(self, *args, **kwargs):
        directory_init(self, *args, **kwargs)
        if self.exchange_interval_s > 0:
            readers.append(EagerReader(self))

    with monkeypatch.context() as patch:
        patch.setattr(cls, "handle_overload", recording)
        if not park:
            never_park(patch)
            patch.setattr(MetricsCollector, "__init__", with_reference)
            patch.setattr(DomainDirectory, "__init__", with_reader)
        result = run_experiment(WorkloadGroup.APP, 5, policy=policy,
                                seed=0, scale=0.25, nodes=8, config=cfg,
                                faults=FULL_FAULTS if faulted else None)
    return {
        "summary": canonical(result.summary),
        "series": collector_rows(result.collector),
        "reference": [ref.rows for ref in references],
        "eager_rounds": [reader.rounds for reader in readers],
        "snapshots": result.cluster.directory.snapshots(),
        # Every publication in turn: float sums keep their order.
        "aggregates": [(shard.published_idle_mb(), shard.thrashing_count())
                       for shard in map(result.cluster.directory.shard,
                                        range(domains))],
        "overloads": overloads,
        "events": result.cluster.sim.event_count,
    }


@pytest.mark.parametrize("faulted", [False, True],
                         ids=["nofaults", "faults"])
@pytest.mark.parametrize("regime, domains", CELLS)
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_parked_ticks_change_nothing(monkeypatch, policy, regime, domains,
                                     faulted):
    parked = run_case(monkeypatch, policy, regime, domains, faulted,
                      park=True)
    armed = run_case(monkeypatch, policy, regime, domains, faulted,
                     park=False)
    assert parked["summary"] == armed["summary"]
    [reference] = armed["reference"]
    assert len(reference) > 100
    if regime != "live":
        [rounds] = armed["eager_rounds"]
        assert rounds > 100
    for run in (parked, armed):
        assert len(run["series"]) == len(reference)
        assert run["series"] == reference
    assert parked["snapshots"] == armed["snapshots"]
    assert parked["aggregates"] == armed["aggregates"]
    assert parked["overloads"] == armed["overloads"]
    assert parked["events"] < armed["events"]


def test_suspension_retry_keeps_its_place_before_the_monitor(monkeypatch):
    """The suspension retry (priority 3, like the monitor) is scheduled
    inside a monitor tick, so at a shared grid time it fires first.  A
    retry that wakes the parked monitor at that time must still see
    the monitor fire after it, at the same time."""
    def order(park: bool):
        fired = []
        retry = SuspensionPolicy._retry_tick
        monitor = SuspensionPolicy._monitor_tick

        def logged_retry(self):
            fired.append((self.sim.now, "retry"))
            retry(self)

        def logged_monitor(self):
            if self.cluster.thrashing_nodes:
                fired.append((self.sim.now, "monitor"))
            monitor(self)

        with monkeypatch.context() as patch:
            patch.setattr(SuspensionPolicy, "_retry_tick", logged_retry)
            patch.setattr(SuspensionPolicy, "_monitor_tick", logged_monitor)
            if not park:
                never_park(patch)
            run_experiment(WorkloadGroup.APP, 5, policy="suspension",
                           seed=0, scale=0.25, nodes=8)
        return fired

    parked = order(park=True)
    assert parked == order(park=False)
    retry_times = {time for time, kind in parked if kind == "retry"}
    shared = [time for time, kind in parked
              if kind == "monitor" and time in retry_times]
    assert shared, "no grid time where both fired: the case is vacuous"
