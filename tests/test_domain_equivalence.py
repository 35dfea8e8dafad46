"""Domain sharding contracts — pinned here.

``ClusterConfig.domains`` partitions the load directory into K
per-domain shards with compact cross-domain summaries
(:mod:`repro.cluster.domains`).  Two things must stay true forever:

* ``domains=1`` is *byte-identical* to the flat directory for every
  policy — the cluster builds the flat :class:`LoadInfoDirectory`
  unchanged, so the default path cannot drift;
* ``domains>1`` is a deterministic *model change*: same config twice
  gives the same summary, and the two-level orderings respect the
  partition, summary ranking, and staleness semantics pinned below.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import Cluster, ClusterConfig, WorkstationSpec
from repro.cluster.domains import DomainDirectory
from repro.cluster.loadinfo import LoadInfoDirectory
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
# domains=1 is the flat directory, byte-identical
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", POLICIES)
def test_domains_one_matches_flat(policy):
    flat, flat_events = summary_for(policy)
    one, one_events = summary_for(policy, domains=1)
    assert one == flat
    assert one_events == flat_events


def test_domains_one_builds_flat_directory():
    """``domains=1`` must not even construct the sharded facade — the
    identity holds by construction, not by equivalence-of-code-paths."""
    cluster = small_cluster(domains=1)
    assert isinstance(cluster.directory, LoadInfoDirectory)
    sharded = small_cluster(domains=4)
    assert isinstance(sharded.directory, DomainDirectory)


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
    reproducible, and K=1 cells additionally match the flat path."""
    first, first_events = summary_for(policy, domains=domains,
                                      staleness=staleness, seed=seed,
                                      nodes=nodes, scale=0.05)
    second, second_events = summary_for(policy, domains=domains,
                                        staleness=staleness, seed=seed,
                                        nodes=nodes, scale=0.05)
    assert first == second
    assert first_events == second_events
    if domains == 1:
        flat, flat_events = summary_for(policy, seed=seed, nodes=nodes,
                                        scale=0.05)
        assert first == flat
        assert first_events == flat_events


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
    from repro.cluster.job import Job, MemoryProfile

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
    from repro.cluster.job import Job, MemoryProfile

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


# ----------------------------------------------------------------------
# summary staleness semantics
# ----------------------------------------------------------------------
def test_summaries_are_stale_between_rounds():
    cluster = small_cluster(domains=2, nodes=8,
                            load_exchange_interval_s=1.0,
                            domain_exchange_interval_s=10.0)
    from repro.cluster.job import Job, MemoryProfile
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
    from repro.cluster.job import Job, MemoryProfile
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
    from repro.cluster.job import Job, MemoryProfile
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
    per_domain = [sampler.domain_totals("idle_mb", d) for d in range(4)]
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
