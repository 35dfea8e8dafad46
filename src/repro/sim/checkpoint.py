"""Checkpoint/restore of a running simulation world.

A checkpoint captures the *entire* dynamic state of a run — engine
clock, pending-event heap (with sequence counter, so same-timestamp
tie-breaks replay identically), cluster, columnar state, load
directory/domain shards, policy (pending queue, cooldowns, reservation
machinery), fault-injector RNG streams, and the metrics collector —
into one schema-versioned, compressed file.  ``restore`` reconstructs
a world that continues **byte-identically** to an uninterrupted run:
same ``RunSummary``, same event counts (pinned by
``tests/test_checkpoint_equivalence.py`` across policies x faults x
domains).

Implementation: the scheduling/fault/load-info layers only ever place
*picklable* callables on the event heap (bound methods,
``functools.partial``, small ``__slots__`` callable classes — never
closures), so the whole object graph serializes with :mod:`pickle`,
which preserves dict order, float bits, RNG state, shared-object
identity and cycles.  Two process-global id counters
(``repro.cluster.job._job_counter``,
``repro.core.reservation._res_counter``) live outside the graph; their
current values are stored alongside and merged (``max``) back on
restore so jobs created *after* a restore (streamed ingest) cannot
collide with checkpointed ids.

File format: one gzip stream (level 1, ``mtime`` 0, so a world gives
the same bytes every time) holding two pickles back to back.  The
first is a *header* dict of primitives only — ``format`` magic,
``schema`` version and a ``meta`` summary; the second is the world.
The header is decoded and validated *before* any world byte is
unpickled, so an unknown or newer schema fails with a clear
:class:`CheckpointError` instead of an arbitrary unpickling error, and
:func:`peek_meta` reads the header alone.  A truncated or corrupt
stream is a :class:`CheckpointError` too.  Writing and reading stream
through the compressor, so no uncompressed copy of the world is held
in memory.  Schemas 1-5 nested the world pickle as opaque bytes under
the header's ``world`` key; they still restore.

Checkpoints are trusted input only.  The header is itself a pickle,
so reading one (``peek_meta``, ``restore_bytes``, ``load_checkpoint``
and the runner's ``--restore-from``) unpickles it before any
validation, and unpickling can execute arbitrary code: restore only
checkpoints you wrote.

Observers are deliberately **not** part of a checkpoint: obs channels
restore disabled and subscriber-free; a restored run attaches a fresh
:class:`~repro.obs.session.ObsSession` if it wants telemetry.

``fork`` is the what-if entry point: restore a snapshot, retire the
checkpointed policy and hand its pending queue to a freshly
constructed one (possibly a different policy class or different
thresholds), then :func:`resume` — replaying the identical remainder
of the workload under an alternative regime (the ``whatif`` experiment
target compares G vs. V this way).
"""

from __future__ import annotations

import copy
import gzip
import io
import itertools
import math
import os
import pickle
import types
import zlib
from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.sim.daemon import DaemonTick, TickGrid

#: File-format magic; rejects arbitrary pickles early.
MAGIC = "repro-checkpoint"

#: Bump on any incompatible change to the envelope or world layout.
#: Schema 2 keys the event heap by ``(time, priority, seq, handle)``
#: tuples and stores memory profiles as columns.  Schema 3 parks the
#: exchange, monitor and collector ticks while they have no work
#: (:mod:`repro.sim.daemon`) and counts reserving reservations.
#: Schema 4 keeps per-job advance lanes on each workstation and
#: versions the columnar state and the reservation manager.  Schema 5
#: builds every load directory as a ``DomainDirectory`` that owns the
#: one exchange tick.  Schema 6 streams the header and the world as
#: two pickles in one gzip stream; its world layout is schema 5's.
#: Schema 7 keeps the collector's samples as one columnar series,
#: taken before each change instead of by a tick.
SCHEMA_VERSION = 7

#: Schemas this build restores; older ones are upgraded after
#: unpickling (:func:`_upgrade_schema_1` ... :func:`_upgrade_schema_6`).
READABLE_SCHEMAS = (1, 2, 3, 4, 5, 6, SCHEMA_VERSION)


class CheckpointError(RuntimeError):
    """Raised for unwritable worlds and unreadable/incompatible files."""


@dataclass
class RestoredRun:
    """A world reconstructed from a checkpoint, ready to resume."""

    cluster: Any
    policy: Any
    collector: Any
    jobs: List[Any]
    trace_name: str
    meta: Dict[str, Any]


def _counter_value(counter) -> int:
    """Current value of an ``itertools.count`` without advancing it."""
    return next(copy.copy(counter))


def _build_meta(cluster, policy, jobs, trace_name) -> Dict[str, Any]:
    """Primitive-only summary readable without unpickling the world."""
    return {
        "sim_now": cluster.sim.now,
        "event_count": cluster.sim.event_count,
        "policy": policy.name,
        "trace": trace_name,
        "num_nodes": cluster.num_nodes,
        "num_jobs": len(jobs),
        "finished_jobs": len(cluster.finished_jobs),
        "domains": cluster.config.domains,
        "faults": cluster.faults is not None,
    }


# ----------------------------------------------------------------------
# save
# ----------------------------------------------------------------------
def _write_checkpoint(stream, *, cluster, policy, collector, jobs,
                      trace_name: str) -> Dict[str, Any]:
    """Write a paused run to ``stream`` as one gzip stream (see module
    doc); returns the header's ``meta`` dict."""
    import repro.cluster.job as job_mod
    import repro.core.reservation as reservation_mod

    if collector is not None:
        # The samples owed up to this instant are part of the state
        # being captured.
        collector.flush()
    world = {
        "cluster": cluster,
        "policy": policy,
        "collector": collector,
        "jobs": jobs,
        "trace_name": trace_name,
        "job_counter": _counter_value(job_mod._job_counter),
        "reservation_counter": _counter_value(reservation_mod._res_counter),
    }
    meta = _build_meta(cluster, policy, jobs, trace_name)
    header = {"format": MAGIC, "schema": SCHEMA_VERSION, "meta": meta}
    with gzip.GzipFile(filename="", mode="wb", compresslevel=1,
                       fileobj=stream, mtime=0) as compressed:
        pickle.dump(header, compressed, protocol=4)
        try:
            pickle.dump(world, compressed, protocol=4)
        except Exception as exc:
            raise CheckpointError(
                f"simulation state is not picklable: {exc!r}; a scheduled "
                f"callback is probably a closure (see repro.sim.checkpoint)"
            ) from exc
    return meta


def snapshot_bytes(*, cluster, policy, collector, jobs,
                   trace_name: str) -> bytes:
    """Serialize a paused run to checkpoint bytes (see module doc)."""
    buffer = io.BytesIO()
    _write_checkpoint(buffer, cluster=cluster, policy=policy,
                      collector=collector, jobs=jobs, trace_name=trace_name)
    return buffer.getvalue()


def save_checkpoint(path: str, *, cluster, policy, collector, jobs,
                    trace_name: str) -> Dict[str, Any]:
    """Write a checkpoint file; returns its ``meta`` dict.

    The file is written next to ``path`` under a temporary name and
    renamed into place, so a failed snapshot leaves ``path`` as it was.
    """
    partial = f"{path}.{os.getpid()}.tmp"
    stream = open(partial, "wb")
    try:
        with stream:
            meta = _write_checkpoint(stream, cluster=cluster, policy=policy,
                                     collector=collector, jobs=jobs,
                                     trace_name=trace_name)
        os.replace(partial, path)
    except BaseException:
        os.unlink(partial)
        raise
    return meta


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
#: What a truncated or corrupted gzip stream raises part-way through.
_STREAM_ERRORS = (EOFError, zlib.error)


def _truncated(exc: BaseException) -> CheckpointError:
    return CheckpointError(
        f"checkpoint file is truncated or corrupt ({exc!r})")


def _decode_envelope(compressed: gzip.GzipFile) -> Dict[str, Any]:
    """Read and validate the header at the start of a checkpoint's
    gzip stream; no world byte is unpickled."""
    try:
        envelope = pickle.load(compressed)
    except _STREAM_ERRORS as exc:
        raise _truncated(exc) from exc
    except OSError as exc:
        raise CheckpointError(
            f"not a checkpoint file (gzip layer failed: {exc})") from exc
    except Exception as exc:
        raise CheckpointError(
            f"not a checkpoint file (envelope undecodable: {exc!r})"
        ) from exc
    if not isinstance(envelope, dict) or envelope.get("format") != MAGIC:
        raise CheckpointError(
            "not a checkpoint file (missing the "
            f"{MAGIC!r} format marker)")
    schema = envelope.get("schema")
    if schema not in READABLE_SCHEMAS:
        raise CheckpointError(
            f"checkpoint schema {schema!r} is not supported by this "
            f"build (reads schemas {READABLE_SCHEMAS}); it was written "
            f"by a different version of repro — re-create the "
            f"checkpoint with this build or restore it with the "
            f"matching one")
    return envelope


def _gunzip(stream) -> gzip.GzipFile:
    return gzip.GzipFile(filename="", mode="rb", fileobj=stream)


def peek_meta(path: str) -> Dict[str, Any]:
    """Read a checkpoint's ``meta`` summary without restoring it."""
    with open(path, "rb") as stream:
        return _decode_envelope(_gunzip(stream))["meta"]


def _read_checkpoint(stream, advance_counters: bool) -> RestoredRun:
    """Validate the header, then unpickle and upgrade the world."""
    compressed = _gunzip(stream)
    envelope = _decode_envelope(compressed)
    schema = envelope["schema"]
    try:
        world = _WorldUnpickler(
            compressed if schema >= 6
            else io.BytesIO(envelope["world"])).load()
        # Reading on to the end checks the stream's length and CRC.
        compressed.read()
    except (*_STREAM_ERRORS, gzip.BadGzipFile,
            pickle.UnpicklingError) as exc:
        raise _truncated(exc) from exc
    if schema == 1:
        _upgrade_schema_1(world)
    if schema < 3:
        _upgrade_schema_2(world)
    if schema < 4:
        _upgrade_schema_3(world)
    if schema < 5:
        _upgrade_schema_4(world)
    if schema < 7:
        _upgrade_schema_6(world)
    if advance_counters:
        _advance_global_counters(world)
    return RestoredRun(cluster=world["cluster"], policy=world["policy"],
                       collector=world["collector"], jobs=world["jobs"],
                       trace_name=world["trace_name"],
                       meta=dict(envelope["meta"]))


def restore_bytes(data: bytes,
                  advance_counters: bool = True) -> RestoredRun:
    """Reconstruct a world from checkpoint bytes.

    ``advance_counters`` merges the checkpoint's global id counters
    into this process (``max`` of saved and current), so jobs and
    reservations created after the restore get collision-free ids.
    Pass ``False`` when restoring a throwaway side-world (the live
    server's ``/fork`` endpoint) that must not disturb the id space of
    the run still executing in this process.
    """
    return _read_checkpoint(io.BytesIO(data), advance_counters)


#: Methods an old world may hold bound that this build no longer has,
#: by (class name, method): the pre-5 flat directory's exchange tick
#: and the pre-7 collector's tick and its two change listeners.
_RETIRED_METHODS = {("LoadInfoDirectory", "_tick"),
                    ("MetricsCollector", "_tick"),
                    ("MetricsCollector", "_wake"),
                    ("MetricsCollector", "_mark_dirty")}


def _getattr(obj: object, name: str):
    """``getattr`` as pickle calls it to rebuild a bound method.  A
    retired method unpickles as a stand-in carrying its owner and name;
    the upgrade of its schema replaces or drops it."""
    if (type(obj).__name__, name) in _RETIRED_METHODS:
        return types.SimpleNamespace(__self__=obj, __name__=name)
    return getattr(obj, name)


def _retired(callback) -> bool:
    return isinstance(callback, types.SimpleNamespace)


class _LegacySample:
    """A pre-7 collector sample (a ``ClusterSample``); only read by
    :func:`_upgrade_schema_6`."""


class _WorldUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str):
        if (module, name) == ("builtins", "getattr"):
            return _getattr
        if (module, name) == ("repro.metrics.collector", "ClusterSample"):
            return _LegacySample
        return super().find_class(module, name)


def _upgrade_schema_1(world: Dict[str, Any]) -> None:
    """Bring an unpickled schema-1 world to the current layout.

    Schema 1 kept bare :class:`~repro.sim.engine.EventHandle` objects on
    the heap.  Re-keying each as its ``(time, priority, seq, handle)``
    entry in place keeps a valid heap, since that was the handles' sort
    key.
    The handles themselves (dropped ``sort_key``) and memory profiles
    (``Phase`` objects to columns) upgrade in their ``__setstate__``.
    This runs after ``pickle.loads`` returns, because pickle may build
    the simulator before the handles it reaches through a cycle.
    """
    sim = world["cluster"].sim
    sim._heap = [(handle.time, handle.priority, handle.seq, handle)
                 for handle in sim._heap]


def _upgrade_schema_2(world: Dict[str, Any]) -> None:
    """Bring an unpickled schema-1/2 world to schema 3.

    Before schema 3 the exchange, monitor and collector ticks
    rescheduled themselves every round, so each live one has its
    handle in the heap: such a daemon is armed on that handle's grid
    time (the collector's, by :func:`_upgrade_schema_6`).  A checkpoint
    is written between ``run(until=...)`` slices, so every event at
    the saved instant has fired.
    """
    from repro.cluster.loadinfo import LoadInfoDirectory
    from repro.core.reservation import (ReservationManager,
                                        ReservationState)

    cluster = world["cluster"]
    policy = world["policy"]
    sim = cluster.sim
    sim._priority = math.inf
    handles = {}
    for _, _, _, handle in sim._heap:
        owner = getattr(handle.callback, "__self__", None)
        if owner is not None:
            handles[id(owner), handle.callback.__name__] = handle

    def adopt(owner, method: str, interval: float, priority: int):
        tick = DaemonTick(sim, owner, method, interval, priority,
                          armed=False)
        tick.handle = handles.get((id(owner), method))
        if tick.handle is not None:
            tick.next_time = tick.handle.time
        return tick

    directory = cluster.directory
    for shard in getattr(directory, "_shards", [directory]):
        shard._exchange = None
    if (isinstance(directory, LoadInfoDirectory)
            and directory.exchange_interval_s > 0):
        directory._exchange = adopt(directory, "_tick",
                                    directory.exchange_interval_s, 2)
    policy.__dict__.pop("_monitor_event", None)
    policy._monitor = adopt(policy, "_monitor_tick",
                            policy.config.monitor_interval_s, 3)
    cluster._thrashing_listeners = (
        [] if policy._retired else [policy._wake_monitor])
    for listener in cluster._job_listeners:
        manager = getattr(listener, "__self__", None)
        if isinstance(manager, ReservationManager):
            manager._num_reserving = sum(
                1 for reservation in manager._by_node.values()
                if reservation.state is ReservationState.RESERVING)


def _upgrade_schema_3(world: Dict[str, Any]) -> None:
    """Bring an unpickled schema-1/2/3 world to schema 4.

    Each workstation's advance lanes are built from its stored rate and
    stall lists with the expressions ``_recompute`` uses, so the next
    ``_advance`` is bit-identical.  The new versions start at 0 and
    every cache key at None, which no version equals.
    """
    from repro.core.reservation import ReservationManager

    cluster = world["cluster"]
    for node in cluster.nodes:
        speed = node.spec.speed_factor
        fields = node.__dict__
        node._lanes = [
            entry
            for job, rate, fault_stall, io_stall in zip(
                node._running, fields.pop("_rates"),
                fields.pop("_fault_stalls"), fields.pop("_io_stalls"))
            for entry in (job, job.acct, rate, rate / speed,
                          rate * fault_stall, rate * io_stall)]
    cluster.state.version = 0
    cluster._idle_bound_version = None
    cluster._idle_bound_mb = 0.0
    for listener in cluster._job_listeners:
        manager = getattr(listener, "__self__", None)
        if isinstance(manager, ReservationManager):
            manager._version = 0
            manager._reuse_key = None
            manager._reuse_best = None


def _upgrade_schema_4(world: Dict[str, Any]) -> None:
    """Bring an unpickled schema-1..4 world to schema 5.

    A flat directory becomes the single shard of a new one-domain
    :class:`~repro.cluster.domains.DomainDirectory`, which takes over
    its exchange tick and that tick's pending handle (a retired
    ``_tick``).  A sharded directory's exchange and summary ticks
    rescheduled themselves: their pending handles are adopted.
    """
    from repro.cluster.domains import DomainDirectory

    cluster = world["cluster"]
    sim = cluster.sim
    directory = cluster.directory
    if isinstance(directory, DomainDirectory):
        pending = {handle.callback.__name__: handle
                   for _, _, _, handle in sim._heap
                   if getattr(handle.callback, "__self__", None)
                   is directory}
        directory._summary_handle = pending.get("_summary_tick")
        tick = handle = pending.get("_exchange_tick")
        if handle is not None:
            tick = DaemonTick(sim, directory, "_exchange_tick",
                              directory.exchange_interval_s, 2, armed=False)
            tick.handle, tick.next_time = handle, handle.time
    else:
        flat = directory
        directory = cluster.directory = DomainDirectory.__new__(
            DomainDirectory)
        directory._setup(sim, flat._nodes, 1, flat.exchange_interval_s,
                         cluster.config.domain_exchange_interval_s,
                         flat.obs, cluster.obs.channel("loadinfo.domain"))
        directory._shards = [flat]
        directory._fault_hook = flat.fault_hook
        tick = flat._exchange
        if tick is not None:
            tick.owner, tick.method = directory, "_exchange_tick"
            if tick.handle is not None:
                tick.handle.callback = directory._exchange_tick
    directory._exchange = tick
    for shard in directory._shards:
        del shard._exchange
        shard._on_dirty = directory._arm_exchange


def _upgrade_schema_6(world: Dict[str, Any]) -> None:
    """Bring an unpickled schema-1..6 world to schema 7.

    The collector's list of sample objects becomes its columnar series;
    samples that shared a job-count tuple share one vector.  Its tick
    is gone: a pending one is cancelled, and its time is the next time
    of the collector's grid.  The collector's node-change and
    pending-queue listeners (retired stand-ins) are dropped, and its
    ``flush`` becomes the state's pre-change hook.
    """
    from repro.metrics.collector import EXCLUDED

    cluster = world["cluster"]
    collector = world["collector"]
    sim = cluster.sim
    cluster.__dict__.pop("_pending_listeners", None)
    for node in cluster.nodes:
        node._change_listeners = [listener
                                  for listener in node._change_listeners
                                  if not _retired(listener)]
    cluster.state.pre_change_hooks = []
    if collector is None:
        return
    fields = collector.__dict__
    grid = TickGrid(sim, collector.sample_interval_s, priority=4)
    tick = fields.pop("_sample_tick", None)
    if tick is not None:
        grid.next_time = tick.next_time
    for _, _, _, handle in sim._heap:
        if (handle.pending and _retired(handle.callback)
                and handle.callback.__self__ is collector):
            grid.next_time = handle.time
            handle.cancel()
    # Schemas 1-2 named the sample list ``samples``.
    samples = fields.pop("_samples" if "_samples" in fields else "samples")
    skews = fields.pop("_skews")
    for name in ("_dirty", "_cached_idle", "_cached_jobs", "_cached_skew",
                 "_cached_reserved"):
        del fields[name]
    packed: Dict[int, bytes] = {}
    vectors = []
    for sample in samples:
        jobs = sample.jobs_per_node
        vector = packed.get(id(jobs))
        if vector is None:
            vector = packed[id(jobs)] = bytes(
                EXCLUDED if count is None else count for count in jobs)
        vectors.append(vector)
    fields.update(
        times=array("d", [sample.time for sample in samples]),
        idle_memory_mb=array(
            "d", [sample.total_idle_memory_mb for sample in samples]),
        skews=array("d", skews),
        reserved=array("l", [sample.num_reserved for sample in samples]),
        pending=array("l", [sample.pending_jobs for sample in samples]),
        vectors=vectors, _version=None, _idle=0.0,
        _vector=vectors[-1] if vectors else b"",
        _skew=skews[-1] if skews else 0.0, _reserved=0, _grid=grid)
    cluster.state.pre_change_hooks.append(collector.flush)


def load_checkpoint(path: str,
                    advance_counters: bool = True) -> RestoredRun:
    """Read and reconstruct a checkpoint file."""
    with open(path, "rb") as stream:
        return _read_checkpoint(stream, advance_counters)


def _advance_global_counters(world: Dict[str, Any]) -> None:
    import repro.cluster.job as job_mod
    import repro.core.reservation as reservation_mod

    job_floor = max(world.get("job_counter", 0),
                    _counter_value(job_mod._job_counter))
    job_mod._job_counter = itertools.count(job_floor)
    res_floor = max(world.get("reservation_counter", 0),
                    _counter_value(reservation_mod._res_counter))
    reservation_mod._res_counter = itertools.count(res_floor)


# ----------------------------------------------------------------------
# fork + resume
# ----------------------------------------------------------------------
def fork(restored: RestoredRun, policy: Optional[str] = None,
         policy_kwargs: Optional[dict] = None) -> RestoredRun:
    """Swap a restored run's policy for a what-if replay.

    The checkpointed policy is retired (monitor cancelled, listener
    removed, reserving periods cancelled); the successor — a different
    policy name from the runner registry, or the same one under
    different ``policy_kwargs`` — adopts the pending queue *by
    reference* so the retiree's in-flight transfer callbacks still
    land in it.  With ``policy=None`` the restored run is returned
    unchanged.

    Known limitations, by design: the successor's counters
    (``PolicyStats``) start at zero — job-level metrics (slowdowns,
    makespan) still cover the whole run; the cluster topology cannot
    be resized (the trace's home nodes are fixed); and a retired
    V-Reconfiguration's SERVING reservations drain normally before
    their nodes return to the pool.
    """
    if policy is None:
        return restored
    from repro.experiments.runner import POLICIES
    from repro.metrics.collector import PolicyPendingProbe

    if policy not in POLICIES:
        raise CheckpointError(f"unknown fork policy {policy!r}; "
                              f"choose from {sorted(POLICIES)}")
    old = restored.policy
    old.retire()
    successor = POLICIES[policy](restored.cluster, **(policy_kwargs or {}))
    successor.adopt_pending_from(old)
    collector = restored.collector
    if (collector is not None
            and isinstance(collector.pending_probe, PolicyPendingProbe)):
        collector.pending_probe.policy = successor
    restored.policy = successor
    restored.meta = dict(restored.meta, policy=successor.name,
                         forked_from=old.name)
    return restored


def resume(restored: RestoredRun, obs=None):
    """Run a restored world to completion and summarize it.

    Mirrors the tail of :func:`repro.experiments.runner.run_trace`
    exactly (that is what makes restore-equivalence a byte-identity
    claim).  ``obs`` optionally attaches a *fresh* observability
    session for the remainder of the run.  Returns an
    :class:`~repro.experiments.runner.ExperimentResult` whose ``trace``
    is None (the original trace object is not part of a checkpoint;
    its name survives in ``summary.trace``).
    """
    from repro.experiments.runner import ExperimentResult
    from repro.metrics.summary import summarize_run

    cluster = restored.cluster
    if obs is not None:
        obs.attach(cluster, policy=restored.policy)
        obs.bind_run(collector=restored.collector, jobs=restored.jobs,
                     trace_name=restored.trace_name)
        obs.run_engine(cluster.sim)
    else:
        cluster.sim.run()
    summary = summarize_run(restored.policy, restored.jobs,
                            restored.collector, restored.trace_name)
    if cluster.faults is not None:
        summary.extra.update(cluster.faults.extra_metrics())
    if obs is not None:
        obs.finalize(summary)
    return ExperimentResult(summary=summary, cluster=cluster,
                            policy=restored.policy,
                            collector=restored.collector, trace=None)


__all__ = [
    "MAGIC", "SCHEMA_VERSION", "CheckpointError", "RestoredRun",
    "snapshot_bytes", "save_checkpoint", "restore_bytes",
    "load_checkpoint", "peek_meta", "fork", "resume",
]
