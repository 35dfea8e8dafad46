"""HTTP load for the live workload: one generator thread, one
connection at a time.

The open loop sends each ``POST /submit`` on a fixed schedule whatever
the replies do (independent users), and times each request from when
it was *due*, so a stall also charges the requests queued behind it.
It runs in one-second segments with a host-speed sample between them;
each segment's schedule starts after the sample, so sampling makes no
request late.
The closed loop sends the next batch only after the previous reply
(one caller waiting on each answer) and reports how long each burst of
a fixed number of jobs takes to be accepted.
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from host import HostClock

#: Per-request socket timeout; a hung server fails the request.
REQUEST_TIMEOUT_S = 5.0

#: How long the closed loop waits for queued jobs to be admitted.
ADMIT_TIMEOUT_S = 10.0


@dataclass
class Post:
    """One ``POST /submit``: its schedule and its reply."""

    due: float
    sent: float
    done: float
    status: int
    accepted: int

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def service_s(self) -> float:
        return self.done - self.sent

    @property
    def late_s(self) -> float:
        return self.sent - self.due


#: Open-loop requests per segment.
SEGMENT_POSTS = 80


@dataclass
class LoadRecord:
    open_posts: List[Post] = field(default_factory=list)
    #: Per open-loop request, reference-host seconds per wall second
    #: over its segment.
    open_scales: List[float] = field(default_factory=list)
    closed_posts: List[Post] = field(default_factory=list)
    #: Wall time of each closed-loop burst, first send to last reply,
    #: and the same in reference-host seconds.
    closed_bursts: List[float] = field(default_factory=list)
    closed_bursts_ref: List[float] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def posts(self) -> List[Post]:
        return self.open_posts + self.closed_posts

    @property
    def accepted(self) -> int:
        return sum(post.accepted for post in self.posts)


def post_batch(port: int, batch: List[dict], due: float) -> Post:
    """Send one batch; a transport error reads as status 0."""
    body = json.dumps(batch).encode("utf-8")
    sent = time.perf_counter()
    status, accepted = 0, 0
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("POST", "/submit", body=body,
                     headers={"Content-Type": "application/json"})
        reply = conn.getresponse()
        payload = reply.read()
        status = reply.status
        if status == 202:
            accepted = int(json.loads(payload)["accepted"])
    except (OSError, http.client.HTTPException, ValueError, KeyError):
        status = 0
    finally:
        conn.close()
    return Post(due=due, sent=sent, done=time.perf_counter(),
                status=status, accepted=accepted)


def open_loop(port: int, batches: List[List[dict]], interval_s: float,
              record: LoadRecord, clock: HostClock) -> None:
    clock.restart()
    for first in range(0, len(batches), SEGMENT_POSTS):
        start = time.perf_counter()
        segment = batches[first:first + SEGMENT_POSTS]
        for i, batch in enumerate(segment):
            due = start + i * interval_s
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            record.open_posts.append(post_batch(port, batch, due))
        record.open_scales.extend([clock.scale()] * len(segment))


def closed_loop(port: int, bursts: List[List[List[dict]]],
                admitted: Callable[[], int], record: LoadRecord,
                clock: HostClock) -> None:
    """Bursts of back-to-back batches, each timed from its first send
    to its last reply, with ``clock`` sampling the host's speed around
    each.  Then wait until the engine has admitted every accepted job
    (admission happens at the next engine slice boundary, which would
    add up to one slice of noise to a burst's time)."""
    for burst in bursts:
        clock.restart()
        start = time.perf_counter()
        for batch in burst:
            record.closed_posts.append(
                post_batch(port, batch, time.perf_counter()))
        record.closed_bursts.append(time.perf_counter() - start)
        record.closed_bursts_ref.append(clock.lap())
    deadline = time.perf_counter() + ADMIT_TIMEOUT_S
    while admitted() < record.accepted:
        if time.perf_counter() > deadline:
            record.error = "closed-loop jobs were not admitted in time"
            return
        time.sleep(0.001)
