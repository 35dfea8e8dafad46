"""Fuzzing the live plane's request parsing without sockets: the
request-head parser and the ``/submit`` body parser answer every input
with a parse or a refusal, never an exception, and a refused batch
enqueues none of its specs; a ``/fork`` body is replayed or refused as
the client's error, never answered 500."""

import io
import json
import math
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.experiments.world import POLICIES
from repro.obs import live
from repro.obs.live import (LiveMonitor, RequestHead, parse_request_head,
                            validate_job_spec)

from helpers import paused_snapshot

REFUSALS = {400, 413, 431, 501}


@settings(max_examples=400, deadline=None)
@given(head=st.binary(max_size=512))
@example(head=b"POST / HTTP/1.0\r\nContent-Length: \xb2")  # '²' in latin-1
@example(head=b"POST / HTTP/1.0\r\nContent-Length: 1" + b"0" * 5000)
@example(head=b"GET / HTTP/1.0" + b"\nX: y" * (live.MAX_HEADER_LINES + 1))
def test_any_bytes_parse_or_refuse(head):
    parsed = parse_request_head(head)
    if isinstance(parsed, int):
        assert parsed in REFUSALS
    else:
        assert isinstance(parsed, RequestHead)
        assert parsed.method in ("GET", "POST")
        assert parsed.target.startswith("/")
        assert 0 <= parsed.length <= live.MAX_BODY_BYTES


header_name = st.from_regex(rb"[A-Za-z][A-Za-z0-9-]{0,15}", fullmatch=True)
header_value = st.from_regex(rb"[ -~]{0,30}", fullmatch=True)


@settings(max_examples=100, deadline=None)
@given(method=st.sampled_from([b"GET", b"POST"]),
       target=st.from_regex(rb"/[!-~]{0,40}", fullmatch=True),
       headers=st.lists(st.tuples(header_name, header_value), max_size=8)
       .filter(lambda hs: all(name.lower() not in (b"content-length",
                                                   b"transfer-encoding")
                              for name, _ in hs)),
       length=st.none() | st.integers(0, live.MAX_BODY_BYTES),
       newline=st.sampled_from([b"\r\n", b"\n"]))
def test_well_formed_heads_parse(method, target, headers, length, newline):
    if length is not None:
        headers = headers + [(b"content-LENGTH", b" %d " % length)]
    head = newline.join([method + b" " + target + b" HTTP/1.1"]
                        + [name + b":" + value for name, value in headers])
    assert parse_request_head(head) == RequestHead(
        method.decode(), target.decode(), length or 0)


def test_content_length_over_the_cap_is_413():
    head = b"POST /submit HTTP/1.0\r\nContent-Length: %d" \
        % (live.MAX_BODY_BYTES + 1)
    assert parse_request_head(head) == 413


# ----------------------------------------------------------------------
# /submit bodies
# ----------------------------------------------------------------------
NUM_NODES = 4


def monitor() -> LiveMonitor:
    """A monitor over a bound world that is never served or driven."""
    world = SimpleNamespace(
        policy=object(), jobs=[],
        cluster=SimpleNamespace(config=SimpleNamespace(num_nodes=NUM_NODES)))
    return LiveMonitor(SimpleNamespace(world=world))


number = (st.integers(-10, 10**400) | st.floats(allow_nan=True,
                                                allow_infinity=True)
          | st.booleans() | st.none() | st.text(max_size=3))
spec = st.dictionaries(
    st.sampled_from(sorted(live._SPEC_KEYS) + ["typo"]),
    number | st.lists(st.lists(number, max_size=3), max_size=3),
    max_size=9)
valid_spec = st.fixed_dictionaries(
    {"program": st.text(min_size=1, max_size=5),
     "lifetime_s": st.floats(0.001, 1e6),
     "peak_demand_mb": st.floats(0, 1e4),
     "home_node": st.integers(0, NUM_NODES - 1)},
    optional={"submit_time": st.floats(0, 1e6),
              "memory_phases": st.lists(
                  st.tuples(st.floats(0, 1e3), st.floats(0, 1e3)),
                  min_size=1, max_size=3)})


def as_body(specs, jsonl):
    if jsonl:
        return b"\n".join(json.dumps(s).encode() for s in specs)
    return json.dumps(specs).encode()


bodies = (st.binary(max_size=256)
          | st.builds(as_body, st.lists(spec | valid_spec, max_size=4),
                      st.booleans()))


def all_finite(spec) -> bool:
    values = [value for key, value in spec.items()
              if key not in ("program", "memory_phases")]
    values += [v for pair in spec.get("memory_phases") or [] for v in pair]
    return all(math.isfinite(float(value)) for value in values)


@settings(max_examples=150, deadline=None)
@given(body=bodies)
@example(body=b"[" * 100_000)
@example(body=b"{}\n" + b"[" * 100_000)
@example(body=b'{"program": "x", "lifetime_s": 1e999, '
              b'"peak_demand_mb": 1, "home_node": 0}')
@example(body=b'{"program": "x", "lifetime_s": 1' + b"0" * 400
              + b', "peak_demand_mb": 1, "home_node": 0}')
@example(body=b'{"program": "x", "lifetime_s": NaN, '
              b'"peak_demand_mb": 1, "home_node": 0}')
def test_submit_bodies_are_accepted_or_refused_whole(body):
    plane = monitor()
    reply, content_type, status = plane.handle_submit(body)
    assert status in (202, 400)
    assert content_type == "application/json"
    json.loads(reply)
    queued = plane._ingest_queue
    assert plane.jobs_received == len(queued) + plane.jobs_rejected
    if status == 202:
        assert plane.jobs_rejected == 0
        assert json.loads(reply) == {"accepted": len(queued)}
        for queued_spec in queued:
            assert validate_job_spec(queued_spec, NUM_NODES) is None
            assert all_finite(queued_spec)
    else:
        assert not queued


@pytest.mark.parametrize("key,value", [
    ("lifetime_s", float("inf")),
    ("lifetime_s", float("nan")),
    ("lifetime_s", 10**400),
    ("peak_demand_mb", float("inf")),
    ("submit_time", float("inf")),
    ("memory_phases", [[0.0, float("nan")]]),
    ("lifetime_s", True),
], ids=["lifetime-inf", "lifetime-nan", "lifetime-1e400", "peak-inf",
        "submit-inf", "phase-nan", "lifetime-true"])
def test_non_numbers_are_invalid(key, value):
    """A job with infinite work never finishes, and ``float(10**400)``
    raises on the engine thread, so both are refused at the door; so
    is a boolean where a number belongs."""
    spec = {"program": "x", "lifetime_s": 1.0, "peak_demand_mb": 10.0,
            "home_node": 0, key: value}
    assert validate_job_spec(spec, num_nodes=4) is not None


def test_stdin_ingest_survives_a_too_deep_line(monkeypatch):
    """A line nested past the JSON parser's recursion limit is one
    rejected line; the reader goes on to the next."""
    plane = monitor()
    good = json.dumps({"program": "x", "lifetime_s": 1.0,
                       "peak_demand_mb": 1.0, "home_node": 0})
    monkeypatch.setattr("sys.stdin",
                        io.StringIO("[" * 100_000 + "\n" + good + "\n"))
    reader = plane.ingest_stdin()
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert plane.jobs_rejected == 1
    assert len(plane._ingest_queue) == 1


# ----------------------------------------------------------------------
# /fork bodies
# ----------------------------------------------------------------------
def fork_plane() -> LiveMonitor:
    """A monitor whose engine answers every snapshot request at once
    with a snapshot whose fork replays in a few milliseconds."""
    plane = monitor()
    plane._request_snapshot = lambda: (paused_snapshot(12, 50.0), "", 200)
    return plane


@pytest.mark.parametrize("body", [
    {"policy": "g-loadsharing", "policy_kwargs": {"bogus": 1}},
    {"policy": "g-loadsharing", "policy_kwargs": [1]},
    {"policy": ["x"]},
    {"policy": "v-reconfiguration", "policy_kwargs": {"max_reserved": 0}},
], ids=["unknown-kwarg", "kwargs-array", "policy-array", "kwarg-range"])
def test_fork_client_errors_are_400(body):
    reply, content_type, status = fork_plane().handle_fork(
        json.dumps(body).encode())
    assert status == 400
    assert content_type == "application/json"
    assert "error" in json.loads(reply)


json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=3)),
    max_leaves=6)
fork_kwargs = json_value | st.dictionaries(
    st.sampled_from(["bogus", "max_reserved", "reserve_timeout_s"]),
    st.integers(-2, 6), max_size=2)
fork_body = st.fixed_dictionaries(
    {}, optional={"policy": st.sampled_from(sorted(POLICIES)) | json_value,
                  "policy_kwargs": fork_kwargs})
fork_bodies = (st.binary(max_size=64) | st.builds(
    lambda body: json.dumps(body).encode(), fork_body | json_value))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(body=fork_bodies)
def test_fork_bodies_never_answer_500(body):
    reply, content_type, status = fork_plane().handle_fork(body)
    assert status in (200, 400, 503), json.loads(reply)
    assert content_type == "application/json"
    json.loads(reply)
