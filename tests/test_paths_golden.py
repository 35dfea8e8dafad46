"""Golden pin of the single state layout and selection path.

The columnar :class:`~repro.cluster.state.ClusterState` layer and the
incrementally maintained candidate index are pure optimizations: they
must not change a single scheduling decision.  Their reference outputs
live in ``tests/golden/summaries_paths.json``, captured at a commit
where the per-object layout and the snapshot-sort selection still
existed and agreed with them run for run.  The cases:

* SPEC trace 3 (seed 0, scale 0.1) under every policy, in the periodic
  (``load_exchange_interval_s`` 1.0) and live (0.0) staleness regimes —
  canonical :class:`RunSummary` plus ``sim.event_count``;
* ``memory`` on a 96-node cluster;
* a fixed (seed, nodes, policy) grid at scale 0.05;
* the obs sampler rows of the ``memory`` run sampled every 10 s
  (digest of times, series and flags) and the workstation
  recompute/skip counters of that run.

The grid is checked here; the other cases are checked against the
per-object records they reproduce in ``test_columnar_equivalence.py``.

Regenerate only after a *deliberate* behavior change::

    PYTHONPATH=src python tests/golden/make_paths_golden.py
"""

import hashlib
import json
import os
from typing import Callable, Dict

import pytest

from test_determinism import canonical

from repro.experiments.runner import default_config, run_experiment
from repro.obs.session import ObsSession
from repro.workload.programs import WorkloadGroup

PATHS_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                                 "summaries_paths.json")

#: Every policy the repo ships.
POLICIES = ("cpu", "memory", "g-loadsharing", "v-reconfiguration",
            "suspension")


def trace_run(policy: str, interval: float = 1.0, seed: int = 0,
              nodes=None, scale: float = 0.1) -> dict:
    """Canonical summary and event count of one SPEC trace 3 run."""
    cfg = default_config(WorkloadGroup.SPEC).replace(
        load_exchange_interval_s=interval)
    result = run_experiment(WorkloadGroup.SPEC, 3, policy=policy,
                            seed=seed, scale=scale, config=cfg,
                            nodes=nodes)
    return {"summary": canonical(result.summary),
            "event_count": result.cluster.sim.event_count}


def sampler_run() -> dict:
    """Sampler rows (as a digest) and recompute counter of the
    ``memory`` run sampled every 10 s."""
    obs = ObsSession(record_events=False, sample_period=10.0)
    run_experiment(WorkloadGroup.SPEC, 3, policy="memory", seed=0,
                   scale=0.1, obs=obs)
    sampler = obs.sampler
    rows = {"times": list(sampler.times),
            "series": {k: list(v) for k, v in sampler.series.items()},
            "flags": bytes(sampler.flags).hex()}
    digest = hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()).hexdigest()
    snapshot = obs.finalize()
    return {"num_samples": sampler.num_samples,
            "rows_sha256": digest,
            "workstation_recomputes":
                snapshot["workstation_recomputes"]}


def cases() -> Dict[str, Callable[[], dict]]:
    """Golden key -> zero-argument run producing its record."""
    out: Dict[str, Callable[[], dict]] = {}
    for interval in (1.0, 0.0):
        for policy in POLICIES:
            out[f"spec3-i{interval}-{policy}"] = (
                lambda p=policy, i=interval: trace_run(p, interval=i))
    out["spec3-n96-memory"] = lambda: trace_run("memory", nodes=96)
    for seed in (0, 7):
        for nodes in (4, 23, 48):
            for policy in POLICIES:
                out[f"grid-s{seed}-n{nodes}-{policy}"] = (
                    lambda p=policy, s=seed, n=nodes:
                    trace_run(p, seed=s, nodes=n, scale=0.05))
    out["sampler-memory-p10"] = sampler_run
    return out


CASES = cases()

#: Keys checked by this module; the rest are in
#: ``test_columnar_equivalence.py``.
GRID_KEYS = sorted(key for key in CASES if key.startswith("grid-"))


def load_golden() -> dict:
    with open(PATHS_GOLDEN_PATH) as stream:
        return json.load(stream)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.mark.parametrize("key", GRID_KEYS)
def test_run_matches_paths_golden(golden, key):
    assert sorted(golden) == sorted(CASES)
    assert CASES[key]() == golden[key], f"{key} diverged from its pin"
