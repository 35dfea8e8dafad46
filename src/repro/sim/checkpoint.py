"""Checkpoint/restore of a running simulation world.

A checkpoint pickles a paused :class:`~repro.experiments.world.World`
— the *entire* dynamic state of a run: engine clock, pending-event
heap (with sequence counter, so same-timestamp tie-breaks replay
identically), cluster, columnar state, load directory/domain shards,
policy (pending queue, cooldowns, reservation machinery),
fault-injector RNG streams, the metrics collector and the job list —
into one schema-versioned, compressed file.  Restoring hands the
``World`` back, and it continues **byte-identically** to an
uninterrupted run through the same ``World.run``/``World.finish`` a
fresh run uses: same ``RunSummary``, same event counts (pinned by
``tests/test_checkpoint_equivalence.py`` across policies x faults x
domains).

Implementation: the scheduling/fault/load-info layers only ever place
*picklable* callables on the event heap (bound methods,
``functools.partial``, small ``__slots__`` callable classes — never
closures), so the whole object graph serializes with :mod:`pickle`,
which preserves dict order, float bits, RNG state, shared-object
identity and cycles.  Two process-global id counters
(``repro.cluster.job.JOB_IDS``, ``repro.core.reservation.RESERVATION_IDS``)
live outside the graph; their next values are stored in the header and
merged (``max``) back on restore so jobs created *after* a restore
(streamed ingest) cannot collide with checkpointed ids.

File format: one gzip stream (level 1, ``mtime`` 0, so a world gives
the same bytes every time) holding two pickles back to back.  The
first is a *header* dict of primitives only — ``format`` magic,
``schema`` version, a ``meta`` summary and the id counters; the second
is the ``World``.  The header is decoded and validated *before* any
world byte is unpickled, and :func:`peek_meta` reads the header alone.
A truncated or corrupt stream is a :class:`CheckpointError`, whatever
the unpickler raised on it.  Writing and reading stream through the
compressor, so no uncompressed copy of the world is held in memory.

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

Observers are not part of a checkpoint: an observed world writes the
unobserved world's bytes.  Observers schedule no event, obs channels
pickle as their name, pre-change hooks are not pickled, ``World``
drops its session and the profiler's wrappers come off for the dump
(the cluster's bus names the profiler, so this holds for a hand-wired
``snapshot_bytes(cluster=..., ...)`` too).
A restored run attaches a fresh session if it wants telemetry.

``fork`` is the what-if entry point: restore a snapshot, retire the
checkpointed policy and hand its pending queue to a freshly
constructed one (possibly a different policy class or different
thresholds), then :func:`resume` — replaying the identical remainder
of the workload, later arrivals included, under an alternative regime
(the ``whatif`` experiment target compares G vs. V this way).
"""

from __future__ import annotations

import gzip
import io
import os
import pickle
import zlib
from contextlib import nullcontext
from typing import Any, Dict, Optional

#: File-format magic; rejects arbitrary pickles early.
MAGIC = "repro-checkpoint"

#: The one schema this build writes and reads.  Bump it on any change
#: to the header or to the world's pickled layout, and regenerate
#: ``tests/golden/checkpoint_layout.json``
#: (``tests/golden/make_checkpoint_layout.py``).
SCHEMA_VERSION = 12


class CheckpointError(RuntimeError):
    """Raised for unwritable worlds and unreadable/incompatible files."""


def _build_meta(world) -> Dict[str, Any]:
    """Primitive-only summary readable without unpickling the world."""
    cluster = world.cluster
    return {
        "sim_now": cluster.sim.now,
        "event_count": cluster.sim.event_count,
        "policy": world.policy.name,
        "trace": world.trace_name,
        "num_nodes": cluster.num_nodes,
        "num_jobs": len(world.jobs),
        "finished_jobs": len(cluster.finished_jobs),
        "domains": cluster.config.domains,
        "faults": cluster.faults is not None,
    }


# ----------------------------------------------------------------------
# save
# ----------------------------------------------------------------------
def _write_checkpoint(stream, world, parts) -> Dict[str, Any]:
    """Write a paused world (``world``, or one wrapped around the
    hand-wired ``parts``) to ``stream`` as one gzip stream (see module
    doc); returns the header's ``meta`` dict."""
    import repro.cluster.job as job_mod
    import repro.core.reservation as reservation_mod

    if world is None:
        from repro.experiments.world import World

        world = World(**parts)
    if world.collector is not None:
        # The samples owed up to this instant are part of the state
        # being captured.
        world.collector.flush()
    meta = _build_meta(world)
    header = {"format": MAGIC, "schema": SCHEMA_VERSION, "meta": meta,
              "job_counter": job_mod._job_counter.next_id,
              "reservation_counter": reservation_mod._res_counter.next_id}
    profiler = world.cluster.obs.profiler
    with gzip.GzipFile(filename="", mode="wb", compresslevel=1,
                       fileobj=stream, mtime=0) as compressed:
        pickle.dump(header, compressed, protocol=4)
        try:
            with profiler.unwrapped() if profiler else nullcontext():
                pickle.dump(world, compressed, protocol=4)
        except Exception as exc:
            raise CheckpointError(
                f"simulation state is not picklable: {exc!r}; a scheduled "
                f"callback is probably a closure (see repro.sim.checkpoint)"
            ) from exc
    return meta


def snapshot_bytes(world=None, **parts) -> bytes:
    """Serialize a paused :class:`~repro.experiments.world.World` to
    checkpoint bytes (see module doc).  A run wired by hand passes its
    ``cluster=``, ``policy=``, ``collector=``, ``jobs=`` and
    ``trace_name=`` instead."""
    buffer = io.BytesIO()
    _write_checkpoint(buffer, world, parts)
    return buffer.getvalue()


def save_checkpoint(path: str, world=None, **parts) -> Dict[str, Any]:
    """Write a checkpoint file of a paused world (given as in
    :func:`snapshot_bytes`); returns its ``meta`` dict.

    The file is written next to ``path`` under a temporary name and
    renamed into place, so a failed snapshot leaves ``path`` as it was.
    """
    partial = f"{path}.{os.getpid()}.tmp"
    stream = open(partial, "wb")
    try:
        with stream:
            meta = _write_checkpoint(stream, world, parts)
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


def _read_checkpoint(stream, advance_counters: bool):
    """Validate the header, then unpickle the world."""
    compressed = _gunzip(stream)
    envelope = _decode_envelope(compressed)
    try:
        world = pickle.load(compressed)
        # Reading on to the end checks the stream's length and CRC.
        compressed.read()
    except Exception as exc:
        # The unpickler reads a corrupt stream before the CRC is
        # checked, so a flipped bit can surface as any exception.
        raise _truncated(exc) from exc
    if advance_counters:
        import repro.cluster.job as job_mod
        import repro.core.reservation as reservation_mod

        job_mod._job_counter.advance_to(envelope["job_counter"])
        reservation_mod._res_counter.advance_to(
            envelope["reservation_counter"])
    world.meta = dict(envelope["meta"])
    return world


def restore_bytes(data: bytes, advance_counters: bool = True):
    """Reconstruct a :class:`~repro.experiments.world.World` from
    checkpoint bytes; its ``meta`` is the header's.

    ``advance_counters`` merges the checkpoint's global id counters
    into this process (``max`` of saved and current), so jobs and
    reservations created after the restore get collision-free ids.
    Pass ``False`` when restoring a throwaway side-world (the live
    server's ``/fork`` endpoint) that must not disturb the id space of
    the run still executing in this process.
    """
    return _read_checkpoint(io.BytesIO(data), advance_counters)


def load_checkpoint(path: str, advance_counters: bool = True):
    """Read and reconstruct a checkpoint file (see
    :func:`restore_bytes`)."""
    with open(path, "rb") as stream:
        return _read_checkpoint(stream, advance_counters)


# ----------------------------------------------------------------------
# fork + resume
# ----------------------------------------------------------------------
def fork(world, policy: Optional[str] = None,
         policy_kwargs: Optional[dict] = None):
    """Swap a restored world's policy for a what-if replay.

    The checkpointed policy is retired (monitor cancelled, listener
    removed, reserving periods cancelled); the successor — a different
    policy name from the runner registry, or the same one under
    different ``policy_kwargs`` — adopts the pending queue *by
    reference* so the retiree's in-flight transfer callbacks still
    land in it.  Arrivals still ahead reach the successor: each one's
    event calls ``world.submit``, which forwards to ``world.policy``.
    With ``policy=None`` the world is returned unchanged.  An unknown
    policy name, or keywords its constructor rejects (an unknown name
    or an out-of-range value), raise :class:`CheckpointError`.

    Known limitations, by design: the successor's counters
    (``PolicyStats``) start at zero — job-level metrics (slowdowns,
    makespan) still cover the whole run; the cluster topology cannot
    be resized (the trace's home nodes are fixed); and a retired
    V-Reconfiguration's SERVING reservations drain normally before
    their nodes return to the pool.
    """
    if policy is None:
        return world
    from repro.experiments.world import POLICIES
    from repro.metrics.collector import PolicyPendingProbe

    if policy not in POLICIES:
        raise CheckpointError(f"unknown fork policy {policy!r}; "
                              f"choose from {sorted(POLICIES)}")
    old = world.policy
    old.retire()
    try:
        successor = POLICIES[policy](world.cluster, **(policy_kwargs or {}))
    except (TypeError, ValueError) as exc:  # a keyword it rejects
        raise CheckpointError(
            f"cannot construct fork policy {policy!r}: {exc}") from exc
    successor.adopt_pending_from(old)
    collector = world.collector
    if (collector is not None
            and isinstance(collector.pending_probe, PolicyPendingProbe)):
        collector.pending_probe.policy = successor
    world.policy = successor
    world.meta = dict(world.meta, policy=successor.name,
                      forked_from=old.name)
    return world


def resume(world, obs=None):
    """Run a restored world to completion and summarize it; returns
    the world, its ``summary`` set.  ``obs`` optionally attaches a
    *fresh* observability session for the remainder of the run."""
    if obs is not None:
        obs.observe(world)
    world.run()
    world.finish()
    return world


__all__ = [
    "MAGIC", "SCHEMA_VERSION", "CheckpointError", "snapshot_bytes",
    "save_checkpoint", "restore_bytes", "load_checkpoint", "peek_meta",
    "fork", "resume",
]
