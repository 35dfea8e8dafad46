"""Restore-equivalence harness for checkpoint/restore.

The contract under test (DESIGN.md "Checkpoint/restore"): a run that
is paused, serialized to a snapshot, restored — in the same process or
another one — and resumed produces *byte-identical* results to the
uninterrupted run: same ``RunSummary`` (canonical JSON form), same
executed-event count.  Three layers of pins:

* **grid pin** — every cell of {policy G,V} x {faults off,on} x
  {domains 1,8} checkpoints mid-run and must
  resume byte-identically (and the act of checkpointing must not
  perturb the run that continues past the save);
* **fuzz property** — hypothesis drives (seed, fault_seed, checkpoint
  time); identity must hold at any cut point, not just the curated
  one;
* **golden fixtures** — ``tests/golden/checkpoint_v1.ckpt`` is a
  committed schema-1 snapshot with the flat directory, and
  ``checkpoint_v4_d2.ckpt`` a schema-4 one with two domains; through
  the upgrades each must keep restoring to the pinned summary next to
  it, and unknown/newer schemas must fail with a clear error *before*
  any world bytes are unpickled.  A fixture for the current schema is
  written (only after a deliberate schema bump) with::

      PYTHONPATH=src python tests/golden/make_checkpoint_fixture.py

  and a two-domain one with ``make_sharded_checkpoint_fixture.py``.
"""

import dataclasses
import gzip
import io
import json
import os
import pickle
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.domains import DomainDirectory
from repro.cluster.job import Job, MemoryProfile
from repro.experiments.runner import run_experiment, run_trace
from repro.experiments.scenario import (SCENARIO_CLUSTER,
                                        run_blocking_scenario)
from repro.faults import FaultConfig
from repro.sim.checkpoint import (MAGIC, SCHEMA_VERSION, CheckpointError,
                                  _decode_envelope, fork, load_checkpoint,
                                  peek_meta, restore_bytes, resume,
                                  save_checkpoint, snapshot_bytes)
from repro.workload.programs import WorkloadGroup

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_CKPT = os.path.join(GOLDEN_DIR, "checkpoint_v1.ckpt")
GOLDEN_SUMMARY = os.path.join(GOLDEN_DIR, "checkpoint_v1_summary.json")
SHARDED_CKPT = os.path.join(GOLDEN_DIR, "checkpoint_v4_d2.ckpt")
SHARDED_SUMMARY = os.path.join(GOLDEN_DIR, "checkpoint_v4_d2_summary.json")

#: Same all-fault-classes model as tests/test_determinism.py.
FULL_FAULTS = FaultConfig(mtbf_s=300.0, mttr_s=30.0,
                          crash_policy="checkpoint",
                          loadinfo_drop_prob=0.1,
                          loadinfo_delay_prob=0.1,
                          migration_failure_prob=0.3)

#: Mid-run cut point: wedges detected and starving, filler churn and
#: (in faulted cells) crash/recovery cycles in flight, most work ahead.
CHECKPOINT_AT = 250.0


def canonical(summary) -> dict:
    """JSON round-trip of a RunSummary: the byte-identity currency."""
    return json.loads(json.dumps(dataclasses.asdict(summary),
                                 sort_keys=True))


def cell_config(domains: int, faulted: bool):
    cfg = SCENARIO_CLUSTER.replace(num_nodes=8, domains=domains)
    if faulted:
        cfg = cfg.replace(faults=FULL_FAULTS)
    return cfg


# ----------------------------------------------------------------------
# grid pin: every configuration axis that changes the event stream
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", ["g-loadsharing", "v-reconfiguration"])
@pytest.mark.parametrize("faulted", [False, True],
                         ids=["nofaults", "faults"])
@pytest.mark.parametrize("domains", [1, 8],
                         ids=["flat", "domained"])
def test_restore_resumes_byte_identically(policy, faulted, domains,
                                          tmp_path):
    cfg = cell_config(domains, faulted)
    path = str(tmp_path / "cell.ckpt")

    baseline = run_blocking_scenario(policy, seed=1, config=cfg)
    checkpointed = run_blocking_scenario(policy, seed=1, config=cfg,
                                         checkpoint_at=CHECKPOINT_AT,
                                         checkpoint_to=path)
    # Writing the snapshot must not perturb the run that continues.
    assert canonical(checkpointed.summary) == canonical(baseline.summary)
    assert (checkpointed.cluster.sim.event_count
            == baseline.cluster.sim.event_count)

    resumed = resume(load_checkpoint(path))
    assert canonical(resumed.summary) == canonical(baseline.summary), \
        f"restore diverged: {policy} faulted={faulted} " \
        f"domains={domains}"
    assert (resumed.cluster.sim.event_count
            == baseline.cluster.sim.event_count)
    assert resumed.summary.trace == baseline.summary.trace


# ----------------------------------------------------------------------
# fuzz property: identity at arbitrary cut points and seeds
# ----------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 3), fault_seed=st.integers(0, 3),
       cut=st.floats(40.0, 420.0),
       policy=st.sampled_from(["g-loadsharing", "v-reconfiguration"]))
def test_restore_identity_fuzzed(seed, fault_seed, cut, policy):
    cfg = cell_config(domains=8, faulted=False).replace(
        faults=FULL_FAULTS.replace(fault_seed=fault_seed))
    baseline = run_blocking_scenario(policy, seed=seed, config=cfg)
    handle, path = tempfile.mkstemp(suffix=".ckpt")
    os.close(handle)
    try:
        run_blocking_scenario(policy, seed=seed, config=cfg,
                              checkpoint_at=cut, checkpoint_to=path)
        resumed = resume(load_checkpoint(path))
    finally:
        os.unlink(path)
    assert canonical(resumed.summary) == canonical(baseline.summary)
    assert (resumed.cluster.sim.event_count
            == baseline.cluster.sim.event_count)


# ----------------------------------------------------------------------
# snapshot mechanics
# ----------------------------------------------------------------------
def test_peek_meta_reads_without_restoring(tmp_path):
    path = str(tmp_path / "meta.ckpt")
    run_blocking_scenario("v-reconfiguration", seed=0,
                          config=cell_config(1, False),
                          checkpoint_at=CHECKPOINT_AT, checkpoint_to=path)
    meta = peek_meta(path)
    assert meta["sim_now"] == CHECKPOINT_AT
    assert meta["policy"] == "V-Reconfiguration"
    assert meta["num_nodes"] == 8
    assert meta["num_jobs"] > 0
    assert meta["event_count"] > 0
    assert meta["faults"] is False


def test_restore_advances_global_job_counter(tmp_path):
    path = str(tmp_path / "ids.ckpt")
    run_blocking_scenario("g-loadsharing", seed=0,
                          config=cell_config(1, False),
                          checkpoint_at=CHECKPOINT_AT, checkpoint_to=path)
    restored = load_checkpoint(path)
    existing = {job.job_id for job in restored.jobs}
    fresh = Job(program="post-restore", cpu_work_s=1.0,
                memory=MemoryProfile.constant(10.0))
    assert fresh.job_id not in existing, \
        "a job created after restore collided with a checkpointed id"


def test_save_checkpoint_returns_meta(tmp_path):
    result = run_blocking_scenario("g-loadsharing", seed=0,
                                   config=cell_config(1, False))
    path = str(tmp_path / "done.ckpt")
    meta = save_checkpoint(path, cluster=result.cluster,
                           policy=result.policy,
                           collector=result.collector,
                           jobs=result.cluster.finished_jobs,
                           trace_name=result.summary.trace)
    assert meta == peek_meta(path)
    assert meta["finished_jobs"] == len(result.cluster.finished_jobs)


def test_unpicklable_world_raises_checkpoint_error():
    result = run_blocking_scenario("g-loadsharing", seed=0,
                                   config=cell_config(1, False))
    result.cluster.sim.schedule(1.0, lambda: None)  # closure on the heap
    with pytest.raises(CheckpointError, match="not picklable"):
        snapshot_bytes(cluster=result.cluster, policy=result.policy,
                       collector=result.collector, jobs=[],
                       trace_name="broken")


# ----------------------------------------------------------------------
# schema versioning: clear errors before any world unpickling
# ----------------------------------------------------------------------
def test_newer_schema_is_rejected_with_clear_error():
    envelope = {"format": MAGIC, "schema": SCHEMA_VERSION + 1,
                "meta": {}, "world": b"never-unpickled"}
    data = gzip.compress(pickle.dumps(envelope, protocol=4))
    with pytest.raises(CheckpointError, match="schema"):
        restore_bytes(data)


def test_missing_schema_is_rejected():
    envelope = {"format": MAGIC, "meta": {}, "world": b""}
    data = gzip.compress(pickle.dumps(envelope, protocol=4))
    with pytest.raises(CheckpointError, match="schema"):
        restore_bytes(data)


def _envelope_bytes(**fields):
    envelope = dict({"format": MAGIC, "meta": {}, "world": b""}, **fields)
    return gzip.compress(pickle.dumps(envelope, protocol=4))


def _decode(data):
    return _decode_envelope(gzip.GzipFile(fileobj=io.BytesIO(data)))


@pytest.mark.parametrize("schema", [1, 2, 3, 4])
def test_decode_envelope_accepts_readable_schemas(schema):
    envelope = _decode(_envelope_bytes(schema=schema))
    assert envelope["schema"] == schema


@pytest.mark.parametrize("fields", [{"schema": SCHEMA_VERSION + 1}, {}])
def test_decode_envelope_rejects_unknown_or_missing_schema(fields):
    with pytest.raises(CheckpointError, match="schema"):
        _decode(_envelope_bytes(**fields))


def test_peek_meta_reads_the_schema_1_fixture():
    with open(GOLDEN_SUMMARY) as stream:
        pinned = json.load(stream)
    assert peek_meta(GOLDEN_CKPT) == pinned["meta"]


def test_non_checkpoint_bytes_are_rejected():
    with pytest.raises(CheckpointError, match="gzip"):
        restore_bytes(b"definitely not a checkpoint")
    with pytest.raises(CheckpointError, match="format marker"):
        restore_bytes(gzip.compress(pickle.dumps({"x": 1})))
    with pytest.raises(CheckpointError, match="undecodable"):
        restore_bytes(gzip.compress(b"\x80\xff garbage"))


# ----------------------------------------------------------------------
# golden fixture: cross-version restore pin
# ----------------------------------------------------------------------
def test_golden_checkpoint_restores_to_pinned_summary():
    with open(GOLDEN_SUMMARY) as stream:
        pinned = json.load(stream)
    restored = load_checkpoint(GOLDEN_CKPT)
    assert restored.meta["sim_now"] == pinned["meta"]["sim_now"]
    result = resume(restored)
    assert canonical(result.summary) == pinned["summary"], \
        "the committed schema-1 checkpoint no longer restores to its " \
        "pinned summary; if a world-layout change was intentional, " \
        "bump SCHEMA_VERSION and regenerate the fixture " \
        "(tests/golden/make_checkpoint_fixture.py)"
    assert result.cluster.sim.event_count == pinned["event_count"]


def pending_handles(sim, owner, method):
    return [entry[3] for entry in sim._heap
            if entry[3].pending
            and getattr(entry[3].callback, "__self__", None) is owner
            and entry[3].callback.__name__ == method]


def test_upgraded_fixture_adopts_each_daemon_tick_once():
    """A schema-1/2 world kept every daemon armed: each one adopts its
    pending heap handle instead of scheduling a second tick.  The flat
    directory's handle (a retired ``_tick``) now calls the one-domain
    directory that wraps it."""
    restored = load_checkpoint(GOLDEN_CKPT)
    sim = restored.cluster.sim
    directory = restored.cluster.directory
    assert isinstance(directory, DomainDirectory)
    assert directory.num_domains == 1
    assert directory.domain_bounds(0) == (0, restored.cluster.num_nodes)
    assert directory._summary_handle is None
    daemons = [(directory, "_exchange_tick", directory._exchange),
               (restored.policy, "_monitor_tick", restored.policy._monitor)]
    for owner, method, tick in daemons:
        assert tick.owner is owner and tick.method == method
        assert pending_handles(sim, owner, method) == [tick.handle]
        assert tick.next_time == tick.handle.time
    # The collector's tick is retired: its pending handle is cancelled,
    # and its time is the next one the collector's grid owes.
    collector = restored.collector
    assert not [entry for entry in sim._heap if entry[3].pending
                and getattr(entry[3].callback, "__self__", None)
                is collector]
    assert collector._grid.next_time == 251.0
    assert collector.times[-1] == restored.meta["sim_now"]
    assert collector.flush in restored.cluster.state.pre_change_hooks


def test_sharded_schema_4_fixture_restores_to_pinned_summary():
    """A schema-4 two-domain world rescheduled its exchange every
    round.  Restored, it adopts that handle as its exchange tick, which
    then parks while no shard is dirty: the same summary from fewer
    events than the build that wrote the fixture ran."""
    with open(SHARDED_SUMMARY) as stream:
        pinned = json.load(stream)
    restored = load_checkpoint(SHARDED_CKPT)
    assert restored.meta["domains"] == 2
    directory = restored.cluster.directory
    sim = restored.cluster.sim
    assert pending_handles(sim, directory, "_exchange_tick") == [
        directory._exchange.handle]
    assert pending_handles(sim, directory, "_summary_tick") == [
        directory._summary_handle]
    result = resume(restored)
    assert canonical(result.summary) == pinned["summary"]
    assert result.cluster.sim.event_count < pinned["event_count"]


def test_upgraded_fixture_lanes_match_a_fresh_recompute():
    """The schema-4 upgrade builds each node's advance lanes from its
    stored rate and stall lists; forcing a full recompute of the same
    jobs must give the same lanes, bit for bit."""
    restored = load_checkpoint(GOLDEN_CKPT)
    cluster = restored.cluster
    assert cluster.state.version == 0
    assert cluster._idle_bound_version is None
    upgraded = [repr(node._lanes) for node in cluster.nodes]
    assert any(node._lanes for node in cluster.nodes)
    for node in cluster.nodes:
        node._recompute_key = None
        node._recompute()
    assert [repr(node._lanes) for node in cluster.nodes] == upgraded


def series(collector) -> tuple:
    """The collector's columns and vectors, as plain lists."""
    collector.flush()
    return (collector.times.tolist(), collector.idle_memory_mb.tolist(),
            collector.skews.tolist(), collector.reserved.tolist(),
            collector.pending.tolist(), list(collector.vectors))


def _check_parked_snapshot(tmp_path, cut: float) -> None:
    """Snapshot at ``cut``, restore, resume: the run that continued past
    the save and the resumed one both equal the uninterrupted run,
    columns and vectors included."""
    path = str(tmp_path / "parked.ckpt")
    cfg = cell_config(domains=1, faulted=False)
    baseline = run_blocking_scenario("v-reconfiguration", seed=0,
                                     config=cfg)
    checkpointed = run_blocking_scenario(
        "v-reconfiguration", seed=0, config=cfg,
        checkpoint_at=cut, checkpoint_to=path)
    restored = load_checkpoint(path)
    assert not restored.cluster.directory._exchange.armed
    assert not restored.policy._monitor.armed
    # The samples owed up to the cut were written with the collector.
    assert restored.collector.times[-1] == CHECKPOINT_AT
    assert restored.collector._grid.next_time == CHECKPOINT_AT + 1.0
    resumed = resume(restored)
    for run in (checkpointed, resumed):
        assert canonical(run.summary) == canonical(baseline.summary)
        assert series(run.collector) == series(baseline.collector)
    assert (resumed.cluster.sim.event_count
            == baseline.cluster.sim.event_count)


def test_snapshot_with_every_daemon_parked_resumes_identically(tmp_path):
    _check_parked_snapshot(tmp_path, CHECKPOINT_AT)


def test_snapshot_between_grid_times_resumes_identically(tmp_path):
    _check_parked_snapshot(tmp_path, CHECKPOINT_AT + 0.5)


@pytest.mark.parametrize("fixture", [GOLDEN_CKPT, SHARDED_CKPT],
                         ids=["v1", "v4-d2"])
def test_upgraded_fixture_series_matches_a_fresh_run(fixture):
    """An old world's sample objects become the columnar series, and
    it continues as the run the fixture was cut from: the same
    scenario run with this build, start to end."""
    restored = load_checkpoint(fixture)
    vectors = restored.collector.vectors
    assert len(vectors) == CHECKPOINT_AT
    # Samples that shared a job-count tuple share one vector.
    assert len({id(vector) for vector in vectors}) < len(vectors)
    resumed = resume(restored)
    cfg = SCENARIO_CLUSTER.replace(num_nodes=8,
                                   domains=restored.meta["domains"])
    fresh = run_blocking_scenario("v-reconfiguration", seed=0, config=cfg)
    assert canonical(resumed.summary) == canonical(fresh.summary)
    assert series(resumed.collector) == series(fresh.collector)


# ----------------------------------------------------------------------
# fork: what-if replay semantics
# ----------------------------------------------------------------------
def _checkpoint_of(policy, tmp_path, faulted=False):
    path = str(tmp_path / "fork.ckpt")
    run_blocking_scenario(policy, seed=0,
                          config=cell_config(1, faulted),
                          checkpoint_at=CHECKPOINT_AT, checkpoint_to=path)
    return path


def test_fork_swaps_policy_and_adopts_pending(tmp_path):
    path = _checkpoint_of("g-loadsharing", tmp_path)
    restored = load_checkpoint(path)
    old = restored.policy
    pending_before = list(old._pending)
    restored = fork(restored, policy="v-reconfiguration")
    assert restored.policy is not old
    assert restored.policy.name == "V-Reconfiguration"
    assert restored.policy._pending is old._pending, \
        "pending queue must be adopted by reference (in-flight " \
        "transfer callbacks still append to the old object)"
    assert list(restored.policy._pending) == pending_before
    assert restored.meta["forked_from"] == "G-Loadsharing"
    result = resume(restored)
    assert result.summary.policy == "V-Reconfiguration"
    assert result.summary.num_jobs == len(restored.jobs)


def test_fork_retires_old_policy_monitor(tmp_path):
    path = _checkpoint_of("v-reconfiguration", tmp_path)
    restored = load_checkpoint(path)
    old = restored.policy
    fork(restored, policy="g-loadsharing")
    assert old._retired
    assert not old._monitor.armed
    assert old._on_node_changed not in restored.cluster._node_listeners
    # A node that starts thrashing later cannot re-arm the retiree.
    assert old._wake_monitor not in restored.cluster._thrashing_listeners


def test_fork_unknown_policy_raises(tmp_path):
    path = _checkpoint_of("g-loadsharing", tmp_path)
    with pytest.raises(CheckpointError, match="unknown fork policy"):
        fork(load_checkpoint(path), policy="round-robin")


def test_fork_none_is_identity(tmp_path):
    path = _checkpoint_of("g-loadsharing", tmp_path)
    restored = load_checkpoint(path)
    assert fork(restored, policy=None) is restored


def test_forked_replay_differs_from_continuation(tmp_path):
    """The branch point matters: under the blocking scenario the two
    policies genuinely diverge from the same snapshot."""
    path = _checkpoint_of("g-loadsharing", tmp_path)
    continued = resume(load_checkpoint(path))
    forked = resume(fork(load_checkpoint(path),
                         policy="v-reconfiguration"))
    assert (forked.summary.total_paging_time_s
            < continued.summary.total_paging_time_s)


@pytest.mark.xfail(strict=True, reason=(
    "pending submit events stay bound to the retired policy: "
    "partial(old_policy.submit, job) on the heap (ROADMAP item 8)"))
def test_fork_successor_handles_every_later_submission(tmp_path):
    path = str(tmp_path / "arrivals.ckpt")
    run_experiment(WorkloadGroup.SPEC, 3, policy="g-loadsharing",
                   scale=0.1, checkpoint_at=500.0, checkpoint_to=path)
    restored = load_checkpoint(path)
    later = sum(1 for job in restored.jobs
                if job.submit_time > restored.meta["sim_now"])
    assert later > 0
    retired = restored.policy
    submitted = retired.stats.submissions
    forked = fork(restored, policy="local")
    resume(forked)
    assert forked.policy.stats.submissions == later
    assert retired.stats.submissions == submitted


# ----------------------------------------------------------------------
# stream layout (schema 6): header and world in one gzip stream
# ----------------------------------------------------------------------
def _paused(tmp_path):
    """A V-Reconfiguration world paused mid-run at CHECKPOINT_AT."""
    return load_checkpoint(_checkpoint_of("v-reconfiguration", tmp_path))


def _snapshot(restored):
    return snapshot_bytes(cluster=restored.cluster, policy=restored.policy,
                          collector=restored.collector, jobs=restored.jobs,
                          trace_name=restored.trace_name)


def _nested_layout() -> bytes:
    """A checkpoint in the layout schemas 1-5 wrote, the world's pickle
    nested as bytes under the envelope's ``world`` key: the committed
    schema-4 fixture."""
    with open(SHARDED_CKPT, "rb") as stream:
        return stream.read()


def _explode():
    raise AssertionError("world unpickled before the header was checked")


class _Explodes:
    def __reduce__(self):
        return _explode, ()


def test_snapshots_of_one_world_are_byte_identical(tmp_path, monkeypatch):
    """No wall-clock time enters the bytes, and a file holds exactly
    what ``snapshot_bytes`` returns."""
    restored = _paused(tmp_path)
    first = _snapshot(restored)
    an_hour_later = time.time() + 3600.0
    monkeypatch.setattr(time, "time", lambda: an_hour_later)
    assert _snapshot(restored) == first
    path = tmp_path / "again.ckpt"
    save_checkpoint(str(path), cluster=restored.cluster,
                    policy=restored.policy, collector=restored.collector,
                    jobs=restored.jobs, trace_name=restored.trace_name)
    assert path.read_bytes() == first


def test_newer_schema_header_is_rejected_before_the_world():
    buffer = io.BytesIO()
    with gzip.GzipFile(fileobj=buffer, mode="wb") as stream:
        pickle.dump({"format": MAGIC, "schema": SCHEMA_VERSION + 1,
                     "meta": {}}, stream, protocol=4)
        pickle.dump(_Explodes(), stream, protocol=4)
    with pytest.raises(CheckpointError,
                       match=f"schema {SCHEMA_VERSION + 1} is not "
                             f"supported"):
        restore_bytes(buffer.getvalue())


def test_peek_meta_reads_a_file_whose_world_is_corrupt(tmp_path):
    path = _checkpoint_of("g-loadsharing", tmp_path)
    meta = peek_meta(path)
    with open(path, "rb") as stream:
        corrupt = bytearray(stream.read())
    for at in range(len(corrupt) // 2, len(corrupt), 97):
        corrupt[at] ^= 0xFF
    with open(path, "wb") as stream:
        stream.write(corrupt)
    assert peek_meta(path) == meta


@pytest.mark.parametrize("cut", ["half", "tail", "trailer"])
@pytest.mark.parametrize("layout", ["stream", "nested"])
def test_truncated_checkpoint_raises_checkpoint_error(layout, cut,
                                                      tmp_path):
    restored = _paused(tmp_path)
    data = (_snapshot(restored) if layout == "stream"
            else _nested_layout())
    # "trailer" keeps every compressed byte and cuts the gzip trailer.
    end = {"half": len(data) // 2, "tail": len(data) - 10,
           "trailer": len(data) - 4}[cut]
    with pytest.raises(CheckpointError, match="truncated or corrupt"):
        restore_bytes(data[:end])


def test_corrupt_world_raises_checkpoint_error(tmp_path):
    data = bytearray(_snapshot(_paused(tmp_path)))
    data[-8] ^= 0xFF  # the gzip trailer's CRC
    garbage = gzip.compress(
        pickle.dumps({"format": MAGIC, "schema": SCHEMA_VERSION,
                      "meta": {}}, protocol=4) + b"\x80\x04\xff garbage")
    for corrupt in (bytes(data), garbage):
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            restore_bytes(corrupt)


def test_nested_schema_5_layout_restores_like_the_stream():
    nested = resume(restore_bytes(_nested_layout()))
    streamed = resume(restore_bytes(_snapshot(
        restore_bytes(_nested_layout()))))
    assert canonical(nested.summary) == canonical(streamed.summary)
    assert (nested.cluster.sim.event_count
            == streamed.cluster.sim.event_count)


def test_failed_save_leaves_no_file(tmp_path):
    result = run_blocking_scenario("g-loadsharing", seed=0,
                                   config=cell_config(1, False))
    world = dict(cluster=result.cluster, policy=result.policy,
                 collector=result.collector, jobs=[], trace_name="broken")
    path = str(tmp_path / "broken.ckpt")
    meta = save_checkpoint(path, **world)
    result.cluster.sim.schedule(1.0, lambda: None)  # closure on the heap
    # A failed save over an existing checkpoint keeps the old file ...
    with pytest.raises(CheckpointError, match="not picklable"):
        save_checkpoint(path, **world)
    assert os.listdir(tmp_path) == ["broken.ckpt"]
    assert peek_meta(path) == meta
    # ... and without one leaves no file at all.
    os.unlink(path)
    with pytest.raises(CheckpointError, match="not picklable"):
        save_checkpoint(path, **world)
    assert os.listdir(tmp_path) == []


# ----------------------------------------------------------------------
# CLI round trip
# ----------------------------------------------------------------------
def test_runner_cli_checkpoint_then_restore_matches(tmp_path, capsys):
    from repro.experiments.runner import main

    ck = str(tmp_path / "cli.ckpt")
    full = str(tmp_path / "full.json")
    resumed = str(tmp_path / "resumed.json")
    assert main(["--trace", "3", "--scale", "0.1",
                 "--policy", "g-loadsharing",
                 "--checkpoint-at", "500", "--checkpoint-to", ck,
                 "--export-json", full]) == 0
    assert main(["--restore-from", ck,
                 "--export-json", resumed]) == 0
    capsys.readouterr()
    with open(full) as stream:
        uninterrupted = json.load(stream)
    with open(resumed) as stream:
        restored = json.load(stream)
    assert uninterrupted == restored


@pytest.mark.parametrize("damage", ["truncated", "missing"])
def test_runner_cli_rejects_an_unreadable_checkpoint(damage, tmp_path,
                                                     capsys):
    from repro.experiments.runner import main

    path = str(tmp_path / "bad.ckpt")
    if damage == "truncated":
        with open(_checkpoint_of("g-loadsharing", tmp_path), "rb") as stream:
            data = stream.read()
        with open(path, "wb") as stream:
            stream.write(data[:len(data) // 2])
        reason = "checkpoint file is truncated or corrupt"
    else:
        reason = "No such file or directory"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["--restore-from", path])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"error: cannot restore {path}: {reason}" in captured.err
    assert captured.out == ""


def test_runner_cli_flag_validation(tmp_path):
    from repro.experiments.runner import main

    with pytest.raises(SystemExit):
        main(["--checkpoint-at", "10"])  # missing --checkpoint-to
    with pytest.raises(SystemExit):
        main(["--restore-from", "x.ckpt", "--checkpoint-at", "10",
              "--checkpoint-to", "y.ckpt"])
    with pytest.raises(SystemExit):
        main(["--submit-stdin"])  # requires --serve


def test_run_trace_rejects_half_checkpoint_args():
    from repro.workload.generator import build_trace
    from repro.workload.programs import WorkloadGroup

    trace = build_trace(WorkloadGroup.SPEC, 3, seed=0, num_nodes=8)
    with pytest.raises(ValueError, match="go together"):
        run_trace(trace, "g-loadsharing", SCENARIO_CLUSTER.replace(),
                  checkpoint_at=10.0)
