"""Watching a run must not change it, nor what the watchers report.

Two pins:

* **output pin** — four observed runs (sampler, window aggregator,
  health rules, lifecycle tracker, event recording and a streaming
  log) digest every observer output: the JSONL run log, the stream
  log, the window history, the health incidents, the sampler CSV and
  the summary's ``extra`` (minus wall-clock keys and the engine's
  event count).  The digests were written by
  ``tests/golden/make_obs_golden.py``; regenerate them only after a
  deliberate change to what an observer reports::

      PYTHONPATH=src python tests/golden/make_obs_golden.py

* **purity pin** — an observed world paused at ``t`` checkpoints to
  the same bytes as the unobserved world paused there, and runs to
  completion in the same number of engine events.  Observers read the
  simulation; they schedule no event and leave nothing in a
  checkpoint.
"""

import functools
import hashlib
import io
import json
import os
from contextlib import contextmanager

import pytest

import repro.cluster.job as job_mod
import repro.core.reservation as reservation_mod
from repro.cluster.cluster import Cluster
from repro.experiments.runner import (POLICIES, default_config,
                                      run_experiment, subsample_trace)
from repro.experiments.world import World
from repro.faults import FaultConfig
from repro.metrics.collector import MetricsCollector, PolicyPendingProbe
from repro.obs.session import ObsSession
from repro.sim.checkpoint import restore_bytes, snapshot_bytes
from repro.workload.generator import build_trace
from repro.workload.programs import WorkloadGroup

OBS_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                               "obs_outputs.json")

SPEC, APP = WorkloadGroup.SPEC, WorkloadGroup.APP

#: Health rules: a warning, a critical alert held for two windows and
#: an absence rule.  At scale 0.25 nothing blocks and migrations are
#: rare, so only the absence rule fires among the first three; the last
#: two fire on every run (a critical one, and a warning on migrations
#: wherever the run migrates).
RULES = ("blocking.rate > 0.01 for 1 windows",
         "critical: migration.rate > 0.05 for 2 windows",
         "absent(finish.rate) for 3 windows",
         "critical: submit.rate > 0.01 for 2 windows",
         "migration.rate > 0 for 1 windows")

#: name -> (group, trace, policy, sample period, window width,
#: domains, fault model).
OBS_RUNS = {
    "spec3-v": (SPEC, 3, "v-reconfiguration", 10.0, 50.0, 1, None),
    "app5-v-d4": (APP, 5, "v-reconfiguration", 3.0, 7.0, 4, None),
    "app5-g-faults": (APP, 5, "g-loadsharing", 2.5, 13.0, 1,
                      FaultConfig(mtbf_s=600.0)),
    "spec1-suspension": (SPEC, 1, "suspension", 1.0, 1.0, 1, None),
}

#: ``RunSummary.extra`` keys that hold wall-clock times.
WALL_KEY_SUFFIX = "_wall_s"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _dump(value) -> str:
    return json.dumps(value, sort_keys=True)


@contextmanager
def ids_from(job_id: int, reservation_id: int):
    """Hand out job and reservation ids from the given values, then
    move the process-global counters past every id handed out."""
    counters = (job_mod._job_counter, reservation_mod._res_counter)
    saved = [counter.next_id for counter in counters]
    counters[0].next_id, counters[1].next_id = job_id, reservation_id
    try:
        yield
    finally:
        for counter, floor in zip(counters, saved):
            counter.advance_to(floor)


def obs_digests(name: str) -> dict:
    """Run one of :data:`OBS_RUNS` from fresh id counters and digest
    every observer output."""
    group, index, policy, period, width, domains, faults = OBS_RUNS[name]
    stream = io.StringIO()
    session = ObsSession(record_events=True, lifecycle=True,
                         stream_log=stream, sample_period=period,
                         window_s=width, health_rules=RULES)
    with ids_from(0, 0):
        config = default_config(group).replace(domains=domains)
        world = run_experiment(group, index, policy, seed=0, scale=0.25,
                               config=config, faults=faults, obs=session)
    log = io.StringIO()
    session.write_log(log)
    csv = io.StringIO()
    session.write_sampler_csv(csv)
    extra = {key: value for key, value in world.summary.extra.items()
             if not key.endswith(WALL_KEY_SUFFIX)
             and key != "obs.sim_events_executed"}
    return {
        "jsonl_log": _sha(log.getvalue()),
        "stream_log": _sha(stream.getvalue()),
        "window_history": _sha(_dump(list(session.window.history))),
        "health_incidents": _sha(_dump(session.health.incident_records())),
        "sampler_csv": _sha(csv.getvalue()),
        "summary_extra": _sha(_dump(extra)),
    }


@functools.lru_cache(maxsize=None)
def _golden() -> dict:
    with open(OBS_GOLDEN_PATH) as stream:
        return json.load(stream)


@pytest.mark.parametrize("name", sorted(OBS_RUNS))
def test_observer_outputs_match_golden(name):
    assert obs_digests(name) == _golden()[name]


# ----------------------------------------------------------------------
# purity: an observed world is the unobserved world
# ----------------------------------------------------------------------
def watch_everything() -> ObsSession:
    return ObsSession(record_events=True, lifecycle=True,
                      stream_log=io.StringIO(), sample_period=10.0,
                      window_s=50.0, health_rules=RULES)


def watch_profiled() -> ObsSession:
    return ObsSession(record_events=False, profile=True,
                      sample_period=10.0, window_s=50.0)


#: cell -> (observers, domains, faults, pause time).  600 s is on the
#: collector's, the sampler's and the window's grid; 600.5 s is on
#: none of them.
PURITY_CELLS = {
    "all-k1-on": (watch_everything, 1, None, 600.0),
    "all-k4-off": (watch_everything, 4, None, 600.5),
    "all-faults-on": (watch_everything, 1, FaultConfig(mtbf_s=600.0),
                      600.0),
    "profiled-k1-off": (watch_profiled, 1, None, 600.5),
    "profiled-k4-on": (watch_profiled, 4, None, 600.0),
    "profiled-faults-off": (watch_profiled, 1, FaultConfig(mtbf_s=600.0),
                            600.5),
}


def _purity_input(domains, faults):
    config = default_config(SPEC).replace(domains=domains)
    if faults is not None:
        config = config.replace(faults=faults)
    trace = subsample_trace(build_trace(SPEC, 3, seed=0), 0.1)
    return trace, config


def _built(trace, config, obs):
    """A world wired by :meth:`World.build`; returns (world, snapshot
    of the world, run to completion)."""
    world = World.build(trace, "v-reconfiguration", config, obs=obs)
    return world, (lambda: snapshot_bytes(world)), world.run


def _bound(trace, config, obs):
    """A world wired by hand, observed through ``attach`` and
    ``bind_run`` (how the end-to-end benchmark wires its live run)."""
    cluster = Cluster(config)
    policy = POLICIES["v-reconfiguration"](cluster)
    collector = MetricsCollector(cluster,
                                 pending_probe=PolicyPendingProbe(policy))
    if obs is not None:
        obs.attach(cluster, policy=policy)
    jobs = trace.build_jobs()
    for job in jobs:
        cluster.sim.schedule_at(job.submit_time,
                                functools.partial(policy.submit, job))
    if obs is None:
        world = World(cluster, policy, collector, jobs, trace.name)
        return world, (lambda: snapshot_bytes(
            cluster=cluster, policy=policy, collector=collector,
            jobs=jobs, trace_name=trace.name)), cluster.sim.run
    obs.bind_run(collector=collector, jobs=jobs, trace_name=trace.name)
    return (obs.world, (lambda: snapshot_bytes(obs.world)),
            lambda: obs.run_engine(cluster.sim))


@pytest.mark.parametrize("wiring", [_built, _bound],
                         ids=["build", "bind_run"])
@pytest.mark.parametrize("cell", sorted(PURITY_CELLS))
def test_observed_world_checkpoints_like_the_unobserved(cell, wiring):
    observers, domains, faults, pause = PURITY_CELLS[cell]
    trace, config = _purity_input(domains, faults)
    # Both worlds hand out the same ids, which the snapshots record.
    start = (job_mod._job_counter.next_id,
             reservation_mod._res_counter.next_id)
    with ids_from(*start):
        plain, plain_snapshot, plain_run = wiring(trace, config, None)
        plain.cluster.sim.run(until=pause)
        expected = plain_snapshot()
    session = observers()
    try:
        with ids_from(*start):
            watched, watched_snapshot, watched_run = wiring(trace, config,
                                                            session)
            watched.cluster.sim.run(until=pause)
            assert watched_snapshot() == expected
        plain_run()
        watched_run()
        assert (watched.cluster.sim.event_count
                == plain.cluster.sim.event_count)
    finally:
        session.close()


#: Instance attributes the profiler shadows: (part, attributes).
PROFILED_ATTRS = (("nodes", ("_recompute",)),
                  ("policy", ("_try_place", "_monitor_tick")),
                  ("shards", ("refresh", "_order")),
                  ("directory", ("_summary_tick",)))


def _profiled_parts(world) -> dict:
    directory = world.cluster.directory
    return {"nodes": world.cluster.nodes, "policy": [world.policy],
            "shards": [directory.shard(d)
                       for d in range(directory.num_domains)],
            "directory": [directory]}


@pytest.mark.parametrize("domains", [1, 4])
def test_hand_wired_snapshot_of_a_profiled_run_is_unwrapped(domains):
    """``snapshot_bytes(cluster=..., ...)`` of a profiled run writes the
    bytes of ``snapshot_bytes(session.world)``: the writer finds the
    profiler through the cluster, and nothing restored carries one of
    its wrappers."""
    trace, config = _purity_input(domains, None)
    session = watch_profiled()
    try:
        world, _, _ = _bound(trace, config, session)
        world.cluster.sim.run(until=600.0)
        parts = _profiled_parts(world)
        for part, attrs in PROFILED_ATTRS:
            assert all(attr in vars(obj)
                       for obj in parts[part] for attr in attrs), part
        hand_wired = snapshot_bytes(
            cluster=world.cluster, policy=world.policy,
            collector=world.collector, jobs=world.jobs,
            trace_name=world.trace_name)
        assert hand_wired == snapshot_bytes(world)
    finally:
        session.close()
    restored = _profiled_parts(restore_bytes(hand_wired,
                                             advance_counters=False))
    for part, attrs in PROFILED_ATTRS:
        assert not any(attr in vars(obj)
                       for obj in restored[part] for attr in attrs), part
