"""The columnar (SoA) state layer is a pure optimization — pinned here.

Every per-node hot quantity lives in a contiguous column of
:class:`~repro.cluster.state.ClusterState`, and batch consumers
(metrics collector, obs sampler, load directory, cluster-wide queries)
read columns instead of walking node objects.  The per-object layout
the columns replaced is gone; its outputs survive as the records of
``tests/golden/summaries_paths.json``, captured at a commit where both
layouts still ran and agreed run for run.  Each test reruns a case on
the columnar layout and requires the per-object record exactly — same
placements, migrations, timings and event count in the periodic and
live staleness regimes and at a larger size, and the same sampler rows
and recompute counters.  Any divergence means the SoA layer changed
scheduling decisions, not just their cost.
"""

import pytest

from test_paths_golden import CASES, POLICIES, load_golden


@pytest.fixture(scope="module")
def legacy():
    """Records of the per-object layout, by golden key."""
    return load_golden()


def assert_matches_legacy(legacy, key):
    assert CASES[key]() == legacy[key], (
        f"{key} diverged from the per-object record")


@pytest.mark.parametrize("policy", POLICIES)
def test_columnar_matches_legacy_periodic(legacy, policy):
    assert_matches_legacy(legacy, f"spec3-i1.0-{policy}")


@pytest.mark.parametrize("policy", POLICIES)
def test_columnar_matches_legacy_live(legacy, policy):
    """Live mode (interval 0) reads the columns at every lookup
    instead of once per exchange round — still byte-identical."""
    assert_matches_legacy(legacy, f"spec3-i0.0-{policy}")


def test_larger_cluster_equivalence(legacy):
    """The layouts agree beyond the default topology too (a 96-node
    stand-in keeps the test suite fast)."""
    assert_matches_legacy(legacy, "spec3-n96-memory")


@pytest.fixture(scope="module")
def sampled():
    """The ``memory`` run sampled every 10 s."""
    return CASES["sampler-memory-p10"]()


def test_sampler_rows_identical_across_modes(legacy, sampled):
    """The sampler's column copies append the rows the per-object
    walk appended: the columns hold the node property values
    bit-for-bit and the flag packing matches."""
    record = legacy["sampler-memory-p10"]
    assert sampled["num_samples"] == record["num_samples"]
    assert sampled["rows_sha256"] == record["rows_sha256"]


def test_recompute_counters_agree_across_modes(legacy, sampled):
    """The recompute count is an input-driven property of the run, not
    of the storage layout: the columnar run counts what the per-object
    run counted, and the counter surfaces in the obs snapshot."""
    record = legacy["sampler-memory-p10"]
    assert (sampled["workstation_recomputes"]
            == record["workstation_recomputes"])
    assert sampled["workstation_recomputes"] > 0
