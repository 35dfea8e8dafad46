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
* **layout pin** — a checkpoint restores only under the schema that
  wrote it, and any other schema fails with a clear error *before* any
  world byte is unpickled.  What a paused world pickles (every
  ``repro`` class, its attributes and their value types) is pinned
  with ``SCHEMA_VERSION`` in ``tests/golden/checkpoint_layout.json``,
  so a layout change without a schema bump fails.  After a deliberate
  bump the pin is rewritten with::

      PYTHONPATH=src python tests/golden/make_checkpoint_layout.py
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

from repro.cluster.job import Job, MemoryProfile
from repro.experiments.runner import run_experiment, run_trace
from repro.experiments.scenario import (SCENARIO_CLUSTER,
                                        run_blocking_scenario)
from repro.faults import FaultConfig
from repro.sim.checkpoint import (MAGIC, SCHEMA_VERSION, CheckpointError,
                                  _decode_envelope, _world, fork,
                                  load_checkpoint, peek_meta, restore_bytes,
                                  resume, save_checkpoint, snapshot_bytes)
from repro.workload.programs import WorkloadGroup

LAYOUT_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                                  "checkpoint_layout.json")

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
                "meta": {}}
    data = gzip.compress(pickle.dumps(envelope, protocol=4))
    with pytest.raises(CheckpointError, match="schema"):
        restore_bytes(data)


def test_missing_schema_is_rejected():
    envelope = {"format": MAGIC, "meta": {}}
    data = gzip.compress(pickle.dumps(envelope, protocol=4))
    with pytest.raises(CheckpointError, match="schema"):
        restore_bytes(data)


def _envelope_bytes(**fields):
    envelope = dict({"format": MAGIC, "meta": {}}, **fields)
    return gzip.compress(pickle.dumps(envelope, protocol=4))


def _decode(data):
    return _decode_envelope(gzip.GzipFile(fileobj=io.BytesIO(data)))


def test_decode_envelope_accepts_this_build_s_schema():
    envelope = _decode(_envelope_bytes(schema=SCHEMA_VERSION))
    assert envelope["schema"] == SCHEMA_VERSION


@pytest.mark.parametrize("fields", [{"schema": SCHEMA_VERSION + 1}, {},
                                    {"schema": SCHEMA_VERSION - 1},
                                    {"schema": 1}])
def test_decode_envelope_rejects_unknown_or_missing_schema(fields):
    with pytest.raises(CheckpointError, match="schema"):
        _decode(_envelope_bytes(**fields))


def test_non_checkpoint_bytes_are_rejected():
    with pytest.raises(CheckpointError, match="gzip"):
        restore_bytes(b"definitely not a checkpoint")
    with pytest.raises(CheckpointError, match="format marker"):
        restore_bytes(gzip.compress(pickle.dumps({"x": 1})))
    with pytest.raises(CheckpointError, match="undecodable"):
        restore_bytes(gzip.compress(b"\x80\xff garbage"))


# ----------------------------------------------------------------------
# layout pin: what a world pickles is named by SCHEMA_VERSION
# ----------------------------------------------------------------------
class _LayoutRecorder(pickle.Pickler):
    """Pickles into the void, recording for every ``repro`` object its
    class and the type names of its pickled attributes."""

    def __init__(self, layout: dict):
        super().__init__(io.BytesIO(), protocol=4)
        self.layout = layout

    def reducer_override(self, obj):
        cls = type(obj)
        if cls.__module__.startswith("repro."):
            attrs = self.layout.setdefault(
                f"{cls.__module__}.{cls.__qualname__}", {})
            reduced = obj.__reduce_ex__(4)
            state = reduced[2] if len(reduced) > 2 else None
            if (isinstance(state, tuple) and len(state) == 2
                    and isinstance(state[1], dict)):
                # A slotted object: (instance dict or None, slots).
                state = dict(state[0] or {}, **state[1])
            if not isinstance(state, (dict, type(None))):
                state = {"<state>": state}
            for name, value in (state or {}).items():
                attrs.setdefault(name, set()).add(type(value).__qualname__)
        return NotImplemented


#: The paused worlds the layout is recorded from: G and V, faults off
#: and on, one and two domains.
LAYOUT_CELLS = [(policy, faulted, domains)
                for policy in ("g-loadsharing", "v-reconfiguration")
                for faulted in (False, True)
                for domains in (1, 2)]


def checkpoint_layout(directory: str) -> dict:
    """``{"schema": SCHEMA_VERSION, "layout": {class: {attribute:
    "type | type"}}}`` over every world of :data:`LAYOUT_CELLS`, each
    paused at CHECKPOINT_AT (its checkpoint is written into
    ``directory``)."""
    layout: dict = {}
    path = os.path.join(directory, "layout.ckpt")
    for policy, faulted, domains in LAYOUT_CELLS:
        run_blocking_scenario(policy, seed=0,
                              config=cell_config(domains, faulted),
                              checkpoint_at=CHECKPOINT_AT,
                              checkpoint_to=path)
        paused = load_checkpoint(path, advance_counters=False)
        _LayoutRecorder(layout).dump(_world(
            paused.cluster, paused.policy, paused.collector, paused.jobs,
            paused.trace_name))
    return {"schema": SCHEMA_VERSION,
            "layout": {cls: {name: " | ".join(sorted(types))
                             for name, types in sorted(attrs.items())}
                       for cls, attrs in sorted(layout.items())}}


def test_checkpoint_layout_matches_its_schema(tmp_path):
    with open(LAYOUT_GOLDEN_PATH) as stream:
        pinned = json.load(stream)
    recorded = checkpoint_layout(str(tmp_path))
    assert recorded["layout"] == pinned["layout"] \
        and recorded["schema"] == pinned["schema"], \
        "the pickled world layout or SCHEMA_VERSION moved: bump " \
        "SCHEMA_VERSION and regenerate " \
        "(tests/golden/make_checkpoint_layout.py)"


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
# stream layout: header and world in one gzip stream
# ----------------------------------------------------------------------
def _paused(tmp_path):
    """A V-Reconfiguration world paused mid-run at CHECKPOINT_AT."""
    return load_checkpoint(_checkpoint_of("v-reconfiguration", tmp_path))


def _snapshot(restored):
    return snapshot_bytes(cluster=restored.cluster, policy=restored.policy,
                          collector=restored.collector, jobs=restored.jobs,
                          trace_name=restored.trace_name)


def _explode():
    raise AssertionError("world unpickled before the header was checked")


class _Explodes:
    def __reduce__(self):
        return _explode, ()


def _header_then_explodes(schema) -> bytes:
    """A checkpoint stream with a ``schema`` header whose world must
    never be unpickled."""
    buffer = io.BytesIO()
    with gzip.GzipFile(fileobj=buffer, mode="wb") as stream:
        pickle.dump({"format": MAGIC, "schema": schema, "meta": {}},
                    stream, protocol=4)
        pickle.dump(_Explodes(), stream, protocol=4)
    return buffer.getvalue()


def _restore_from(source: str, data: bytes, tmp_path):
    """Restore ``data`` as bytes (``stream``) or from a file."""
    if source == "stream":
        return restore_bytes(data)
    path = tmp_path / "restore.ckpt"
    path.write_bytes(data)
    return load_checkpoint(str(path))


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
    with pytest.raises(CheckpointError,
                       match=f"schema {SCHEMA_VERSION + 1} is not "
                             f"supported"):
        restore_bytes(_header_then_explodes(SCHEMA_VERSION + 1))


@pytest.mark.parametrize("source", ["stream", "file"])
@pytest.mark.parametrize("schema", [SCHEMA_VERSION - 1, SCHEMA_VERSION + 1],
                         ids=["older", "newer"])
def test_only_this_build_s_schema_restores(schema, source, tmp_path):
    """A file from the build before or after this one is refused from
    its header alone: there are no upgrades."""
    with pytest.raises(CheckpointError,
                       match=f"schema {schema} is not supported by this "
                             f"build \\(reads schema {SCHEMA_VERSION} "
                             f"only\\)"):
        _restore_from(source, _header_then_explodes(schema), tmp_path)


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
@pytest.mark.parametrize("source", ["stream", "file"])
def test_truncated_checkpoint_raises_checkpoint_error(source, cut,
                                                      tmp_path):
    data = _snapshot(_paused(tmp_path))
    # "trailer" keeps every compressed byte and cuts the gzip trailer.
    end = {"half": len(data) // 2, "tail": len(data) - 10,
           "trailer": len(data) - 4}[cut]
    with pytest.raises(CheckpointError, match="truncated or corrupt"):
        _restore_from(source, data[:end], tmp_path)


def test_corrupt_world_raises_checkpoint_error(tmp_path):
    data = bytearray(_snapshot(_paused(tmp_path)))
    data[-8] ^= 0xFF  # the gzip trailer's CRC
    garbage = gzip.compress(
        pickle.dumps({"format": MAGIC, "schema": SCHEMA_VERSION,
                      "meta": {}}, protocol=4) + b"\x80\x04\xff garbage")
    for corrupt in (bytes(data), garbage):
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            restore_bytes(corrupt)


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


@pytest.mark.parametrize("damage", ["truncated", "missing", "older-schema",
                                    "newer-schema"])
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
    elif damage == "missing":
        reason = "No such file or directory"
    else:
        schema = SCHEMA_VERSION + (1 if damage == "newer-schema" else -1)
        with open(path, "wb") as stream:
            stream.write(_header_then_explodes(schema))
        reason = f"checkpoint schema {schema} is not supported"
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
