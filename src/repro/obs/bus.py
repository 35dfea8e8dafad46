"""Structured event bus: named channels with near-zero disabled cost.

Every :class:`~repro.cluster.cluster.Cluster` owns one
:class:`EventBus`.  Instrumented components cache their
:class:`Channel` object once at construction time, and every emit site
is written as::

    ch = self._obs_migrate
    if ch.enabled:
        ch.emit(now, "migrate", job=..., image_mb=...)

``Channel.enabled`` is a plain bool that is True exactly while the
channel has subscribers, so with observability off (nobody subscribed
— the default) the hot path pays a single attribute load and boolean
test per site and never builds the keyword dict.  Subscribing (what
:class:`~repro.obs.session.ObsSession` does) flips the bool; no other
code path changes.

This module is dependency-free on purpose: the cluster layers import
it, and it must never import simulation code back.
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

#: The instrumentation channels threaded through the stack.  Emitters
#: and subscribers meet by these names; ``EventBus.channel`` rejects
#: unknown names so a typo fails loudly instead of observing nothing.
CHANNELS: Tuple[str, ...] = (
    "cluster.job",            # job lifecycle: submit/start/stop/finish
    "cluster.placement",      # local/remote placement decisions
    "cluster.migration",      # preemptive migrations (source, dest, MB)
    "reconfig.blocking",      # blocking detections + activation skips
    "reconfig.reservation",   # reservation lifecycle + backoff cancels
    "loadinfo.exchange",      # load-directory exchange rounds
    "loadinfo.domain",        # inter-domain summary exchange rounds
    "memory.fault",           # per-node thrashing transitions
    "fault.injection",        # injected crashes/recoveries/losses
    "obs.alert",              # health-rule raises/clears (see obs.health)
)

#: JSON-native scalar types passed through untouched by ``jsonable``.
_JSON_SCALARS = (str, int, float, bool, type(None))


def jsonable(value):
    """Best-effort conversion of an event payload value to something
    ``json.dumps`` accepts.

    Emit sites occasionally pass rich objects (enums, dataclasses,
    node handles) in event payloads; a run log writer must not crash
    on them.  Scalars pass through, containers recurse, and anything
    else collapses to ``str(value)``.
    """
    if isinstance(value, _JSON_SCALARS):
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    return str(value)


class ObsEvent(NamedTuple):
    """One structured event delivered to subscribers."""

    channel: str
    time: float
    kind: str
    data: dict

    def to_jsonable(self) -> dict:
        """Flatten to the JSONL run-log record shape.

        Payload values that are not JSON-native are coerced through
        :func:`jsonable`, so the record always survives ``json.dumps``.
        """
        record = {"t": self.time, "channel": self.channel,
                  "kind": self.kind}
        for key, value in self.data.items():
            record[key] = jsonable(value)
        return record


Subscriber = Callable[[ObsEvent], None]


def _null_channel() -> "Channel":
    """Pickle constructor preserving the :data:`NULL_CHANNEL` singleton
    (components compare against it by identity)."""
    return NULL_CHANNEL


def _restore_channel(name: str) -> "Channel":
    """Pickle constructor for a named channel: restored *disabled* and
    subscriber-free.  Observers (sessions, recorders) are process-local
    and are never part of a checkpoint; a restored run re-attaches a
    fresh :class:`~repro.obs.session.ObsSession` if it wants one."""
    return Channel(name)


class Channel:
    """One named event stream.

    ``enabled`` is public and read directly at emit sites; it tracks
    ``bool(subscribers)`` and must not be assigned from outside.
    """

    __slots__ = ("name", "enabled", "_subscribers")

    def __init__(self, name: str):
        self.name = name
        self.enabled = False
        self._subscribers: List[Subscriber] = []

    def subscribe(self, subscriber: Subscriber) -> None:
        self._subscribers.append(subscriber)
        self.enabled = True

    def unsubscribe(self, subscriber: Subscriber) -> None:
        self._subscribers.remove(subscriber)
        self.enabled = bool(self._subscribers)

    def emit(self, time: float, kind: str, **data) -> None:
        """Deliver an event to every subscriber.

        Callers guard with ``if channel.enabled`` so the kwargs dict is
        never built on the disabled path; calling emit on a disabled
        channel is still safe (it is simply a no-op loop).

        A subscriber that raises must not corrupt the others: the
        exception is reported as a warning, every remaining subscriber
        still receives this event, and the offender is unsubscribed so
        a persistently broken observer cannot turn the run into a
        warning storm.  The no-failure path pays nothing beyond the
        try frame.
        """
        event = ObsEvent(self.name, time, kind, data)
        broken: Optional[List[Subscriber]] = None
        for subscriber in self._subscribers:
            try:
                subscriber(event)
            except Exception as exc:  # noqa: BLE001 - isolate observers
                if broken is None:
                    broken = []
                broken.append(subscriber)
                warnings.warn(
                    f"obs subscriber {subscriber!r} raised on channel "
                    f"{self.name!r} ({kind!r} at t={time:g}): {exc!r}; "
                    f"unsubscribing it", RuntimeWarning, stacklevel=2)
        if broken is not None:
            for subscriber in broken:
                if subscriber in self._subscribers:
                    self.unsubscribe(subscriber)

    def __reduce__(self):
        """Checkpoint support: channels pickle as (name) only.

        Subscribers are live observer callables (obs sessions, stream
        writers) that must not cross a checkpoint boundary, so the
        restored channel comes back disabled and empty.  Pickle's memo
        keeps identity: every component that cached this channel object
        sees the *same* restored object, and the shared
        :data:`NULL_CHANNEL` stays a process-wide singleton.
        """
        if self is NULL_CHANNEL:
            return (_null_channel, ())
        return (_restore_channel, (self.name,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return f"<Channel {self.name} {state} subs={len(self._subscribers)}>"


#: Shared never-enabled channel used as the default for components that
#: may be constructed outside a cluster (bare Simulator, tests).  It is
#: not part of any bus and nothing may subscribe to it.
NULL_CHANNEL = Channel("null")


class EventBus:
    """The set of channels belonging to one cluster/run."""

    def __init__(self, extra_channels: Iterable[str] = ()):
        self._channels: Dict[str, Channel] = {
            name: Channel(name) for name in (*CHANNELS, *extra_channels)}
        #: The :class:`~repro.obs.profile.EngineProfiler` timing this
        #: run, if any: a checkpoint of the run takes its wrappers off
        #: however the run was wired.  Not pickled.
        self.profiler = None

    def __getstate__(self) -> dict:
        return {"_channels": self._channels}

    def __setstate__(self, state: dict) -> None:
        self._channels = state["_channels"]
        self.profiler = None

    def channel(self, name: str) -> Channel:
        """The channel object for ``name`` (KeyError on unknown names)."""
        try:
            return self._channels[name]
        except KeyError:
            raise KeyError(
                f"unknown obs channel {name!r}; known channels: "
                f"{sorted(self._channels)}") from None

    def channels(self) -> List[Channel]:
        return [self._channels[name] for name in sorted(self._channels)]

    def subscribe(self, name: str, subscriber: Subscriber) -> None:
        self.channel(name).subscribe(subscriber)

    def subscribe_many(self, names: Optional[Iterable[str]],
                       subscriber: Subscriber) -> None:
        """Subscribe one callable to several channels (all if None)."""
        targets = sorted(self._channels) if names is None else names
        for name in targets:
            self.channel(name).subscribe(subscriber)
