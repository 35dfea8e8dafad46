"""Domain sharding contracts — pinned here.

``ClusterConfig.domains`` partitions the load directory into K
per-domain shards with compact cross-domain summaries
(:mod:`repro.cluster.domains`).  Two things must stay true forever:

* ``domains=1`` is one shard spanning the cluster, with no summaries:
  nothing computes, schedules or reads one, and each candidate order
  activates on its first reader (the committed goldens pin what such
  a run produces, event counts included);
* ``domains>1`` is a deterministic *model change*: same config twice
  gives the same summary, and the two-level orderings respect the
  partition, summary ranking, and staleness semantics pinned below.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import Cluster, ClusterConfig, WorkstationSpec
from repro.cluster.job import Job, MemoryProfile
from repro.experiments.runner import default_config, run_experiment
from repro.workload.programs import WorkloadGroup

#: Every policy the repo ships — all must honor the domain contracts.
POLICIES = ["cpu", "memory", "g-loadsharing", "v-reconfiguration",
            "suspension"]


def summary_for(policy, domains=None, staleness=None, seed=0, nodes=None,
                scale=0.1):
    cfg = default_config(WorkloadGroup.SPEC)
    if domains is not None:
        cfg = cfg.replace(domains=domains)
    if staleness is not None:
        cfg = cfg.replace(domain_exchange_interval_s=staleness)
    result = run_experiment(WorkloadGroup.SPEC, 3, policy=policy,
                            seed=seed, scale=scale, config=cfg,
                            nodes=nodes)
    return result.summary, result.cluster.sim.event_count


def small_cluster(domains=4, nodes=8, **kwargs):
    defaults = dict(
        num_nodes=nodes,
        spec=WorkstationSpec(memory_mb=100.0, swap_mb=100.0),
        kernel_reserved_mb=0.0,
        load_exchange_interval_s=1.0,
        domains=domains)
    defaults.update(kwargs)
    return Cluster(ClusterConfig(**defaults))


# ----------------------------------------------------------------------
# domains=1 is one shard and no summaries
# ----------------------------------------------------------------------
def test_domains_one_is_one_lazy_shard():
    """One domain has no remote reader of summaries: the directory
    computes none, schedules no summary tick, and leaves both candidate
    orders inactive until a reader asks for one."""
    cluster = small_cluster(domains=1, nodes=8,
                            domain_exchange_interval_s=1.0)
    directory = cluster.directory
    assert directory.num_domains == 1
    assert directory.domain_bounds(0) == (0, 8)
    assert len(directory._shards) == 1
    shard = directory.shard(0)
    assert [snap.node_id for snap in shard.snapshots()] == list(range(8))
    assert directory._summary_handle is None
    assert not [entry for entry in cluster.sim._heap
                if getattr(entry[3].callback, "__name__", "")
                == "_summary_tick"]
    assert shard._accepting_order is None
    assert shard._load_order is None
    assert directory.summaries() == []
    assert directory.accepting_ids() == shard.accepting_ids()
    assert shard._load_order is None  # each order on its own reader
    assert directory.ranked_remote_domains(0) == []


@pytest.mark.parametrize("policy", POLICIES)
def test_domains_one_runs_no_summary_round(policy):
    """A one-domain run completes no summary round, even with the
    summary period set to recompute on every read."""
    result = run_experiment(
        WorkloadGroup.SPEC, 3, policy=policy, seed=0, scale=0.1,
        config=default_config(WorkloadGroup.SPEC).replace(
            domain_exchange_interval_s=0.0))
    assert result.summary.num_jobs > 0
    assert result.cluster.directory.summary_rounds == 0
    assert result.cluster.directory.summaries() == []


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=7),
       nodes=st.integers(min_value=8, max_value=48),
       policy=st.sampled_from(POLICIES),
       domains=st.sampled_from([1, 2, 4]),
       staleness=st.sampled_from([0.0, 5.0, 20.0]))
def test_domained_runs_deterministic_random(seed, nodes, policy, domains,
                                            staleness):
    """Fuzz over (seed, nodes, policy, domains, staleness): the run is
    reproducible, and K=1 cells do not depend on the summary period
    (one domain has no summaries)."""
    first, first_events = summary_for(policy, domains=domains,
                                      staleness=staleness, seed=seed,
                                      nodes=nodes, scale=0.05)
    second, second_events = summary_for(policy, domains=domains,
                                        staleness=staleness, seed=seed,
                                        nodes=nodes, scale=0.05)
    assert first == second
    assert first_events == second_events
    if domains == 1:
        default, default_events = summary_for(policy, seed=seed,
                                              nodes=nodes, scale=0.05)
        assert first == default
        assert first_events == default_events


# ----------------------------------------------------------------------
# partition geometry
# ----------------------------------------------------------------------
def test_domain_partition_covers_all_nodes():
    directory = small_cluster(domains=3, nodes=8).directory
    bounds = [directory.domain_bounds(d) for d in range(3)]
    assert bounds[0][0] == 0 and bounds[-1][1] == 8
    for (a_lo, a_hi), (b_lo, b_hi) in zip(bounds, bounds[1:]):
        assert a_hi == b_lo  # contiguous, non-overlapping
    for node_id in range(8):
        d = directory.domain_of(node_id)
        lo, hi = directory.domain_bounds(d)
        assert lo <= node_id < hi


def test_shards_cover_their_slices():
    directory = small_cluster(domains=4, nodes=8).directory
    for d in range(4):
        lo, hi = directory.domain_bounds(d)
        ids = [snap.node_id for snap in directory.shard(d).snapshots()]
        assert ids == list(range(lo, hi))


def test_snapshots_concatenate_in_node_order():
    directory = small_cluster(domains=3, nodes=7).directory
    assert [s.node_id for s in directory.snapshots()] == list(range(7))


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------
def test_config_rejects_bad_domain_counts():
    with pytest.raises(ValueError):
        small_cluster(domains=0)
    with pytest.raises(ValueError):
        small_cluster(domains=9, nodes=8)
    with pytest.raises(ValueError):
        small_cluster(domains=2, domain_exchange_interval_s=-1.0)


# ----------------------------------------------------------------------
# two-level candidate orderings
# ----------------------------------------------------------------------
def test_accepting_ids_local_domain_first():
    cluster = small_cluster(domains=4, nodes=8)
    directory = cluster.directory
    for d in range(4):
        ids = directory.accepting_ids(local_domain=d)
        lo, hi = directory.domain_bounds(d)
        assert set(ids) == set(range(8))
        assert ids[:hi - lo] == directory.shard(d).accepting_ids()


def test_accepting_ids_global_view_includes_everyone():
    directory = small_cluster(domains=4, nodes=8).directory
    assert set(directory.accepting_ids()) == set(range(8))
    assert set(directory.load_order_ids()) == set(range(8))


def test_remote_domains_ranked_by_summary_idle():
    cluster = small_cluster(domains=4, nodes=8,
                            domain_exchange_interval_s=0.0)
    # Load domain 2 (nodes 4-5) so it publishes the least idle memory.
    for node_id in (4, 5):
        cluster.nodes[node_id].add_job(
            Job(program="t", cpu_work_s=50.0,
                memory=MemoryProfile.constant(80.0)))
    cluster.directory.refresh()
    ranked = cluster.directory.ranked_remote_domains(0)
    assert 0 not in ranked
    assert ranked[-1] == 2  # the loaded domain ranks last
    ids = cluster.directory.accepting_ids(local_domain=0)
    assert ids[:2] == [0, 1]  # local slice first


def test_stale_empty_remote_domain_is_skipped():
    """A remote domain whose summary (staleness!) says zero accepting
    nodes is not consulted at all from a local viewpoint — but the
    global view (no local domain) always includes everything."""
    cluster = small_cluster(domains=4, nodes=8,
                            domain_exchange_interval_s=0.0)
    for node_id in (6, 7):  # fill domain 3 completely
        cluster.nodes[node_id].add_job(
            Job(program="t", cpu_work_s=50.0,
                memory=MemoryProfile.constant(100.0)))
    cluster.directory.refresh()
    assert not set(cluster.directory.accepting_ids(local_domain=0)) & {6, 7}
    assert set(cluster.directory.load_order_ids(local_domain=0)) \
        == set(range(8))


def test_stale_empty_domain_stays_in_the_global_view():
    """The zero-accepting skip is a local viewpoint's cost of staleness:
    after the full domain frees up, a summary still reporting it full
    hides it from domain 0, never from the view without a local
    domain."""
    cluster = small_cluster(domains=2, nodes=4,
                            domain_exchange_interval_s=10.0)
    for node_id in (2, 3):  # fill domain 1 until t=15
        cluster.nodes[node_id].add_job(
            Job(program="t", cpu_work_s=15.0,
                memory=MemoryProfile.constant(100.0)))
    cluster.sim.run(until=10.5)
    directory = cluster.directory
    assert directory.summaries()[1].accepting_count == 0
    cluster.sim.run(until=17.5)  # freed, published, summary still stale
    assert directory.summaries()[1].accepting_count == 0
    assert set(directory.shard(1).accepting_ids()) == {2, 3}
    assert not set(directory.accepting_ids(local_domain=0)) & {2, 3}
    assert set(directory.accepting_ids()) == {0, 1, 2, 3}


# ----------------------------------------------------------------------
# summary staleness semantics
# ----------------------------------------------------------------------
def exchange_ticks(cluster) -> list:
    return [entry for entry in cluster.sim._heap
            if entry[3].pending and getattr(entry[3].callback, "__name__",
                                            "") == "_exchange_tick"]


def test_sharded_exchange_schedules_no_event():
    """Without a lossy exchange no event drives the rounds: a round
    closes at the first change or read after its grid time, in the
    shards with a dirty node."""
    cluster = small_cluster(domains=2, nodes=8)
    directory = cluster.directory
    cluster.nodes[5].add_job(
        Job(program="t", cpu_work_s=500.0,
            memory=MemoryProfile.constant(40.0)))
    assert not exchange_ticks(cluster)
    assert directory._dirty_shards == {1}
    refreshes = directory.refreshes
    cluster.sim.run(until=1.5)
    # The read closes the round of t=1 (no write came after it); only
    # the dirty shard refreshed.
    assert directory.shard(1).snapshot(5).num_jobs == 1
    assert directory.shard(1).snapshot(5).timestamp == 1.0
    assert directory.refreshes == refreshes + 1
    assert not directory._dirty_shards
    cluster.sim.run(until=9.5)  # nothing changes: no round, no event
    assert directory.refreshes == refreshes + 1
    assert not exchange_ticks(cluster)


def test_sharded_exchange_parks_when_clean():
    """A lossy exchange runs its rounds as one tick for every shard,
    armed by the first dirty mark and parked by a round that collects
    everything."""
    cluster = small_cluster(domains=2, nodes=8)
    directory = cluster.directory
    directory.fault_hook = lambda node_id: ("deliver", 0.0)
    assert not directory._exchange.armed
    cluster.nodes[5].add_job(
        Job(program="t", cpu_work_s=500.0,
            memory=MemoryProfile.constant(40.0)))
    assert directory._exchange.armed
    assert len(exchange_ticks(cluster)) == 1
    cluster.sim.run(until=1.5)
    assert directory.shard(1).snapshot(5).num_jobs == 1
    assert not directory._exchange.armed
    refreshes = directory.refreshes
    cluster.sim.run(until=9.5)  # nothing changes: no round, no event
    assert directory.refreshes == refreshes
    assert not directory._exchange.armed


def test_summaries_are_stale_between_rounds():
    cluster = small_cluster(domains=2, nodes=8,
                            load_exchange_interval_s=1.0,
                            domain_exchange_interval_s=10.0)
    cluster.nodes[0].add_job(
        Job(program="t", cpu_work_s=500.0,
            memory=MemoryProfile.constant(40.0)))
    # Intra-domain exchange has happened, summary round has not.
    cluster.sim.run(until=2.5)
    assert cluster.directory.shard(0).snapshot(0).num_jobs == 1
    assert cluster.directory.summaries()[0].idle_memory_mb \
        == pytest.approx(400.0)  # still the t=0 view
    cluster.sim.run(until=10.5)
    assert cluster.directory.summaries()[0].idle_memory_mb \
        == pytest.approx(360.0)


def test_zero_summary_interval_recomputes_on_access():
    cluster = small_cluster(domains=2, nodes=8,
                            load_exchange_interval_s=1.0,
                            domain_exchange_interval_s=0.0)
    cluster.nodes[0].add_job(
        Job(program="t", cpu_work_s=500.0,
            memory=MemoryProfile.constant(40.0)))
    cluster.sim.run(until=1.5)  # shard exchange published the change
    assert cluster.directory.summaries()[0].idle_memory_mb \
        == pytest.approx(360.0)


def test_summary_version_bumps_only_on_change():
    cluster = small_cluster(domains=2, nodes=8,
                            domain_exchange_interval_s=0.0)
    directory = cluster.directory
    directory.summaries()
    version = directory.order_version
    directory.summaries()  # nothing changed: version stable
    assert directory.order_version == version


def test_unchanged_domain_keeps_summary_object():
    cluster = small_cluster(domains=2, nodes=8,
                            domain_exchange_interval_s=0.0)
    directory = cluster.directory
    before = directory.summaries()[1]
    cluster.nodes[0].add_job(
        Job(program="t", cpu_work_s=500.0,
            memory=MemoryProfile.constant(40.0)))
    directory.refresh()
    after = directory.summaries()
    assert after[0].idle_memory_mb == pytest.approx(360.0)
    assert after[1] is before  # untouched domain: no rebuild


# ----------------------------------------------------------------------
# membership (evict/readmit) through the facade
# ----------------------------------------------------------------------
def test_evict_and_readmit_delegate_to_owning_shard():
    cluster = small_cluster(domains=4, nodes=8)
    directory = cluster.directory
    cluster.nodes[5].crash()
    directory.evict(5)
    assert 5 not in directory.accepting_ids()
    assert 5 not in directory.shard(directory.domain_of(5)).accepting_ids()
    assert not directory.snapshot(5).alive
    cluster.nodes[5].recover()
    directory.readmit(5)
    assert 5 in directory.accepting_ids()
    assert directory.snapshot(5).alive


def test_fault_hook_fans_out_to_every_shard():
    directory = small_cluster(domains=4, nodes=8).directory
    hook = lambda node_id: (None, 0.0)  # noqa: E731
    directory.fault_hook = hook
    assert directory.fault_hook is hook
    assert all(directory.shard(d).fault_hook is hook for d in range(4))


# ----------------------------------------------------------------------
# cross-domain escalation surfaces in the summary
# ----------------------------------------------------------------------
def test_cross_domain_reservations_counted():
    """A V-reconfiguration run under domains reports the escalation
    counter (possibly zero) and completes every job."""
    summary, _ = summary_for("v-reconfiguration", domains=4,
                             staleness=5.0, nodes=16, scale=0.1)
    assert summary.num_jobs > 0
    assert summary.extra.get("cross_domain_reservations", 0.0) >= 0.0


# ----------------------------------------------------------------------
# sampler domain views
# ----------------------------------------------------------------------
def test_sampler_domain_views_partition_the_totals():
    from repro.obs.session import ObsSession

    obs = ObsSession(record_events=False, sample_period=10.0)
    cfg = default_config(WorkloadGroup.SPEC).replace(domains=4)
    run_experiment(WorkloadGroup.SPEC, 3, policy="memory", seed=0,
                   scale=0.1, config=cfg, nodes=16, obs=obs)
    sampler = obs.sampler
    assert sampler.domains == 4
    totals = sampler.totals("idle_mb")
    per_domain = [sampler.totals("idle_mb", d) for d in range(4)]
    for tick, total in enumerate(totals):
        assert sum(col[tick] for col in per_domain) \
            == pytest.approx(total)
    aggregate = sampler.aggregate()
    assert aggregate["sampler_domains"] == 4.0
    assert "sampler_mean_domain_idle_spread_mb" in aggregate
    jsonable = sampler.to_jsonable()
    assert jsonable["domains"] == 4
    assert len(jsonable["domain_idle_mb"]) == 4


def test_sampler_csv_has_per_domain_columns():
    import io

    from repro.obs.session import ObsSession

    obs = ObsSession(record_events=False, sample_period=10.0)
    cfg = default_config(WorkloadGroup.SPEC).replace(domains=2)
    run_experiment(WorkloadGroup.SPEC, 3, policy="memory", seed=0,
                   scale=0.1, config=cfg, nodes=8, obs=obs)
    stream = io.StringIO()
    obs.sampler.write_csv(stream)
    header = stream.getvalue().splitlines()[0].split(",")
    for d in range(2):
        assert f"idle_mb_d{d}" in header
        assert f"running_d{d}" in header
        assert f"thrashing_d{d}" in header
