"""Exporters: Chrome trace-event JSON (Perfetto) and JSONL run logs.

:func:`chrome_trace` converts a recorded :class:`~repro.obs.bus.ObsEvent`
stream into the Chrome trace-event format understood by Perfetto
(https://ui.perfetto.dev) and ``chrome://tracing``:

* one *thread track per workstation* (pid 1, tid = node id) carrying
  placement/migration/blocking instants, thrashing spans, and
  reservation spans;
* a *network track* (pid 2) with one complete-span per migration
  transfer;
* counter tracks for load-directory exchange rounds.

Simulation seconds map to trace microseconds, so a 10 000 s run reads
as 10 s of trace time with ``displayTimeUnit: "ms"``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, TextIO, Union

from repro.obs.bus import ObsEvent

#: Simulation seconds -> Chrome trace microseconds.
_US = 1e6

#: pid of the per-node tracks / of the network track / of the engine
#: self-profiling track.
CLUSTER_PID = 1
NETWORK_PID = 2
PROFILE_PID = 3


def _meta(pid: int, name: str, tid: int = 0,
          thread_name: Optional[str] = None) -> List[dict]:
    events = [{"ph": "M", "pid": pid, "tid": tid,
               "name": "process_name", "args": {"name": name}}]
    if thread_name is not None:
        events.append({"ph": "M", "pid": pid, "tid": tid,
                       "name": "thread_name",
                       "args": {"name": thread_name}})
    return events


def _instant(name: str, time: float, tid: int, args: dict) -> dict:
    return {"name": name, "ph": "i", "s": "t", "ts": time * _US,
            "pid": CLUSTER_PID, "tid": tid, "cat": "cluster",
            "args": args}


def _span(name: str, cat: str, start: float, end: float, pid: int,
          tid: int, args: dict) -> dict:
    return {"name": name, "ph": "X", "ts": start * _US,
            "dur": max(0.0, end - start) * _US, "pid": pid, "tid": tid,
            "cat": cat, "args": args}


def _profile_track(profile) -> List[dict]:
    """Self-profiling track (pid 3): one enclosing engine span plus
    sequential per-phase spans sized by exclusive wall seconds.  Phase
    spans are laid end to end (they tile the engine wall time by
    construction), so the track reads as a flame-chart-style breakdown
    even though the real execution interleaves them."""
    report = profile.report()
    wall = report["engine_wall_s"]
    if wall <= 0:
        return []
    out = _meta(PROFILE_PID, "engine self-profile",
                thread_name="phases (wall time)")
    out.append(_span("engine loop", "obs.profile", 0.0, wall,
                     PROFILE_PID, 0,
                     {"coverage": report["coverage"],
                      "wall_s": wall}))
    cursor = 0.0
    for phase, seconds in sorted(report["phases_s"].items(),
                                 key=lambda item: -item[1]):
        out.append(_span(phase, "obs.profile", cursor, cursor + seconds,
                         PROFILE_PID, 1,
                         {"wall_s": seconds,
                          "calls": report["calls"].get(phase, 0),
                          "share": seconds / wall}))
        cursor += seconds
    return out


def chrome_trace(events: Sequence[ObsEvent],
                 run_label: str = "run", profile=None) -> dict:
    """Build a Chrome trace-event document from an obs event stream.
    ``profile`` (an :class:`~repro.obs.profile.EngineProfiler`) adds
    the engine self-profiling track."""
    out: List[dict] = []
    node_ids: Dict[int, bool] = {}
    end_time = max((e.time for e in events), default=0.0)

    # Open spans keyed by id, closed as their end events arrive.
    reservations: Dict[int, ObsEvent] = {}
    thrashing: Dict[int, float] = {}

    for event in events:
        data = event.data
        node = data.get("node")
        if node is not None:
            node_ids[node] = True
        if event.channel == "cluster.placement":
            out.append(_instant(f"place-{event.kind} j{data.get('job')}",
                                event.time, node, dict(data)))
        elif event.channel == "cluster.migration":
            job = data.get("job")
            source = data.get("source")
            dest = data.get("dest")
            delay = float(data.get("delay_s", 0.0))
            node_ids[source] = node_ids[dest] = True
            out.append(_instant(f"migrate-out j{job}", event.time,
                                source, dict(data)))
            out.append(_instant(f"migrate-in j{job}", event.time + delay,
                                dest, dict(data)))
            out.append(_span(f"migrate j{job} {source}->{dest}",
                             "cluster.migration", event.time,
                             event.time + delay, NETWORK_PID, 0,
                             dict(data)))
        elif event.channel == "reconfig.blocking":
            out.append(_instant(event.kind, event.time, node, dict(data)))
        elif event.channel == "reconfig.reservation":
            rid = data.get("reservation")
            if event.kind == "reserve":
                reservations[rid] = event
            elif event.kind in ("release", "cancel"):
                start = reservations.pop(rid, None)
                start_t = start.time if start is not None else event.time
                out.append(_span(f"reservation r{rid} ({event.kind})",
                                 "reconfig.reservation", start_t,
                                 event.time, CLUSTER_PID, node,
                                 dict(data)))
            else:  # ready / assign / arrive / timeout / backoff-cancel
                out.append(_instant(f"reservation-{event.kind} r{rid}",
                                    event.time, node, dict(data)))
        elif event.channel == "memory.fault":
            if event.kind == "thrash-on":
                thrashing[node] = event.time
            elif event.kind == "thrash-off":
                start_t = thrashing.pop(node, event.time)
                out.append(_span("thrashing", "memory.fault", start_t,
                                 event.time, CLUSTER_PID, node,
                                 dict(data)))
        elif event.channel == "loadinfo.exchange":
            out.append({"name": "loadinfo refreshed nodes", "ph": "C",
                        "ts": event.time * _US, "pid": CLUSTER_PID,
                        "tid": 0, "cat": "loadinfo.exchange",
                        "args": {"refreshed": data.get("refreshed", 0)}})
        else:  # every other channel: generic instants
            out.append(_instant(f"{event.channel}:{event.kind}",
                                event.time, node if node is not None
                                else 0, dict(data)))

    # Close spans left open at the end of the recording.
    for rid, start in reservations.items():
        out.append(_span(f"reservation r{rid} (open)",
                         "reconfig.reservation", start.time, end_time,
                         CLUSTER_PID, start.data.get("node"),
                         dict(start.data)))
    for node, start_t in thrashing.items():
        out.append(_span("thrashing", "memory.fault", start_t, end_time,
                         CLUSTER_PID, node, {"node": node}))

    meta: List[dict] = _meta(CLUSTER_PID, f"cluster [{run_label}]")
    for node in sorted(node_ids):
        meta.extend(_meta(CLUSTER_PID, f"cluster [{run_label}]",
                          tid=node, thread_name=f"node {node}"))
    meta.extend(_meta(NETWORK_PID, "network", thread_name="transfers"))
    if profile is not None:
        out.extend(_profile_track(profile))

    out.sort(key=lambda e: e.get("ts", 0.0))
    return {
        "traceEvents": meta + out,
        "displayTimeUnit": "ms",
        "otherData": {"run": run_label, "events": len(events),
                      "time_unit": "1 sim second = 1 trace ms "
                                   "(self-profile track: wall time)"},
    }


def write_chrome_trace(events: Sequence[ObsEvent],
                       target: Union[str, TextIO],
                       run_label: str = "run", profile=None) -> dict:
    """Serialize :func:`chrome_trace` output to ``target``."""
    document = chrome_trace(events, run_label=run_label, profile=profile)
    payload = json.dumps(document)
    if isinstance(target, str):
        with open(target, "w") as stream:
            stream.write(payload)
    else:
        target.write(payload)
    return document


def write_jsonl(events: Sequence[ObsEvent],
                target: Union[str, TextIO]) -> int:
    """Write the structured run log: one JSON object per event line."""
    lines = [json.dumps(event.to_jsonable(), sort_keys=True)
             for event in events]
    payload = "\n".join(lines) + ("\n" if lines else "")
    if isinstance(target, str):
        with open(target, "w") as stream:
            stream.write(payload)
    else:
        target.write(payload)
    return len(lines)
