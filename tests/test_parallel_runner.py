"""Tests for the parallel sweep executor (repro.experiments.parallel).

Determinism is the contract under test: a sweep fanned out to worker
processes must return exactly the summaries the serial path produces,
in spec order, and a failing run must surface with its RunSpec.
"""

import urllib.request
import warnings

import pytest

from repro.experiments.parallel import (
    RunSpec,
    SweepError,
    execute_spec,
    run_specs,
)
from repro.experiments.runner import run_group
from repro.obs.session import ObsSession
from repro.workload.programs import WorkloadGroup

from helpers import tiny_cluster

#: Small but end-to-end: a few dozen jobs per run.
SCALE = 0.08


def specs_for(policies, indices=(1, 2)):
    return [RunSpec(group=WorkloadGroup.APP, trace_index=index,
                    policy=policy, seed=0, scale=SCALE)
            for index in indices
            for policy in policies]


class TestDeterminism:
    def test_serial_matches_parallel(self):
        specs = specs_for(["g-loadsharing", "v-reconfiguration"],
                          indices=(1,))
        serial = run_specs(specs, jobs=1)
        parallel = run_specs(specs, jobs=2)
        assert serial == parallel

    def test_execute_spec_matches_run_specs(self):
        spec = RunSpec(group=WorkloadGroup.APP, trace_index=1,
                       policy="g-loadsharing", seed=0, scale=SCALE)
        assert execute_spec(spec) == run_specs([spec], jobs=2)[0]

    def test_parallel_sweep_beside_a_live_server(self):
        """Workers start safely while the live server's threads run: the
        results equal the serial run's, and no start-method warning
        (3.12 warns on ``fork()`` in a multi-threaded process) fires."""
        obs = ObsSession(record_events=False, serve=0)
        obs.attach(tiny_cluster())
        try:
            with urllib.request.urlopen(f"{obs.live.url}/healthz",
                                        timeout=5) as resp:
                assert resp.status == 200  # the worker pool is running
            specs = specs_for(["g-loadsharing", "v-reconfiguration"],
                              indices=(1,))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                parallel = run_specs(specs, jobs=2)
            assert parallel == run_specs(specs, jobs=1)
            assert not [w for w in caught
                        if issubclass(w.category, DeprecationWarning)]
        finally:
            obs.close()

    def test_run_group_jobs_parameter(self):
        serial = run_group(WorkloadGroup.APP, "g-loadsharing",
                           scale=SCALE, trace_indices=[1, 2], jobs=1)
        parallel = run_group(WorkloadGroup.APP, "g-loadsharing",
                             scale=SCALE, trace_indices=[1, 2], jobs=2)
        assert serial == parallel


class TestOrdering:
    def test_results_match_spec_order(self):
        specs = specs_for(["local", "g-loadsharing"], indices=(1, 2))
        results = run_specs(specs, jobs=2)
        assert len(results) == len(specs)
        for spec, summary in zip(specs, results):
            assert summary.trace.endswith(str(spec.trace_index))
            # policy registry names map onto summary policy labels
            if spec.policy == "local":
                assert summary.policy == "Local"
            else:
                assert summary.policy == "G-Loadsharing"

    def test_single_spec_runs_inline(self):
        specs = specs_for(["g-loadsharing"], indices=(1,))
        assert len(run_specs(specs, jobs=8)) == 1


class TestErrors:
    def test_worker_exception_carries_spec_serial(self):
        bad = RunSpec(group=WorkloadGroup.APP, trace_index=1,
                      policy="no-such-policy", seed=0, scale=SCALE)
        with pytest.raises(SweepError) as excinfo:
            run_specs([bad], jobs=1)
        assert excinfo.value.spec is bad
        assert "no-such-policy" in str(excinfo.value)

    def test_worker_exception_carries_spec_parallel(self):
        good = RunSpec(group=WorkloadGroup.APP, trace_index=1,
                       policy="g-loadsharing", seed=0, scale=SCALE)
        bad = RunSpec(group=WorkloadGroup.APP, trace_index=2,
                      policy="no-such-policy", seed=0, scale=SCALE)
        with pytest.raises(SweepError) as excinfo:
            run_specs([good, bad], jobs=2)
        assert excinfo.value.spec == bad
        assert "no-such-policy" in str(excinfo.value)

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_specs([], jobs=-1)

    def test_empty_specs(self):
        assert run_specs([], jobs=1) == []
        assert run_specs([], jobs=4) == []


class TestSpec:
    def test_describe_mentions_the_essentials(self):
        spec = RunSpec(group=WorkloadGroup.SPEC, trace_index=3,
                       policy="v-reconfiguration", seed=7, scale=0.25,
                       policy_kwargs={"max_reserved": 2})
        text = spec.describe()
        assert "spec-trace-3" in text
        assert "v-reconfiguration" in text
        assert "seed=7" in text
        assert "max_reserved" in text

    def test_spec_is_picklable(self):
        import pickle

        spec = RunSpec(group=WorkloadGroup.APP, trace_index=2,
                       policy="memory", seed=1, scale=0.5,
                       policy_kwargs={"x": 1}, label="tag")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
