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
(``repro.cluster.job.JOB_IDS``, ``repro.core.reservation.RESERVATION_IDS``)
live outside the graph; their next values are stored alongside and
merged (``max``) back on restore so jobs created *after* a restore
(streamed ingest) cannot collide with checkpointed ids.

File format: one gzip stream (level 1, ``mtime`` 0, so a world gives
the same bytes every time) holding two pickles back to back.  The
first is a *header* dict of primitives only — ``format`` magic,
``schema`` version and a ``meta`` summary; the second is the world.
The header is decoded and validated *before* any world byte is
unpickled, and :func:`peek_meta` reads the header alone.  A truncated
or corrupt stream is a :class:`CheckpointError`.  Writing and reading
stream through the compressor, so no uncompressed copy of the world is
held in memory.

A checkpoint is bound to the build that wrote it: it restores only if
its header carries this build's :data:`SCHEMA_VERSION`, and any other
schema is a :class:`CheckpointError` raised before the world is
unpickled.  There are no upgrades from older layouts.  The world's
pickled layout (every ``repro`` class with its attributes and their
value types) is pinned by ``tests/golden/checkpoint_layout.json``, so a
layout change that does not bump the schema fails the tests.

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

import gzip
import io
import os
import pickle
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

#: File-format magic; rejects arbitrary pickles early.
MAGIC = "repro-checkpoint"

#: The one schema this build writes and reads.  Bump it on any change
#: to the header or to the world's pickled layout, and regenerate
#: ``tests/golden/checkpoint_layout.json``
#: (``tests/golden/make_checkpoint_layout.py``).
SCHEMA_VERSION = 8


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
def _world(cluster, policy, collector, jobs,
           trace_name: str) -> Dict[str, Any]:
    """The object graph a checkpoint pickles for a paused run."""
    import repro.cluster.job as job_mod
    import repro.core.reservation as reservation_mod

    if collector is not None:
        # The samples owed up to this instant are part of the state
        # being captured.
        collector.flush()
    return {
        "cluster": cluster,
        "policy": policy,
        "collector": collector,
        "jobs": jobs,
        "trace_name": trace_name,
        "job_counter": job_mod._job_counter.next_id,
        "reservation_counter": reservation_mod._res_counter.next_id,
    }


def _write_checkpoint(stream, *, cluster, policy, collector, jobs,
                      trace_name: str) -> Dict[str, Any]:
    """Write a paused run to ``stream`` as one gzip stream (see module
    doc); returns the header's ``meta`` dict."""
    world = _world(cluster, policy, collector, jobs, trace_name)
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
    if schema != SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint schema {schema!r} is not supported by this "
            f"build (reads schema {SCHEMA_VERSION} only); it was written "
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
    """Validate the header, then unpickle the world."""
    compressed = _gunzip(stream)
    envelope = _decode_envelope(compressed)
    try:
        world = pickle.load(compressed)
        # Reading on to the end checks the stream's length and CRC.
        compressed.read()
    except (*_STREAM_ERRORS, gzip.BadGzipFile,
            pickle.UnpicklingError) as exc:
        raise _truncated(exc) from exc
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


def load_checkpoint(path: str,
                    advance_counters: bool = True) -> RestoredRun:
    """Read and reconstruct a checkpoint file."""
    with open(path, "rb") as stream:
        return _read_checkpoint(stream, advance_counters)


def _advance_global_counters(world: Dict[str, Any]) -> None:
    import repro.cluster.job as job_mod
    import repro.core.reservation as reservation_mod

    job_mod._job_counter.advance_to(world["job_counter"])
    reservation_mod._res_counter.advance_to(world["reservation_counter"])


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
