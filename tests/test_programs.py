"""Unit tests for the program catalogs (Tables 1 and 2)."""

import pytest

from repro.cluster import Cluster
from repro.cluster.config import APP_CLUSTER, SPEC_CLUSTER
from repro.cluster.job import Job
from repro.workload.programs import (
    APP_PROGRAMS,
    DEFAULT_SHAPE,
    SPEC_PROGRAMS,
    Program,
    WorkloadGroup,
    catalog_table,
    program_by_name,
    programs_for_group,
)


class TestCatalogs:
    def test_table1_has_the_six_spec_programs(self):
        names = {p.name for p in SPEC_PROGRAMS}
        assert names == {"apsi", "gcc", "gzip", "mcf", "vortex", "bzip"}

    def test_table2_has_the_seven_app_programs(self):
        names = {p.name for p in APP_PROGRAMS}
        assert names == {"bit-r", "m-sort", "m-m", "t-sim", "metis",
                         "r-sphere", "r-wing"}

    def test_apsi_lifetime_matches_legible_table_value(self):
        assert program_by_name("apsi").lifetime_s == 2619.0

    def test_spec_programs_fit_cluster1_memory(self):
        # Every SPEC working set fits a dedicated 384 MB node (profiling
        # ran without major page faults, §3.2).
        assert all(p.working_set_mb < 384.0 for p in SPEC_PROGRAMS)

    def test_app_programs_fit_cluster2_memory(self):
        assert all(p.working_set_mb < 128.0 for p in APP_PROGRAMS)

    def test_blocking_precondition_group1(self):
        """Some pairs of SPEC programs must not coexist in one node's
        user memory — otherwise the blocking problem cannot arise."""
        user_memory = 384.0 - 8.0
        peaks = sorted((p.working_set_mb for p in SPEC_PROGRAMS),
                       reverse=True)
        assert peaks[0] + peaks[1] > user_memory

    def test_blocking_precondition_group2(self):
        user_memory = 128.0 - 8.0
        peaks = sorted((p.working_set_mb for p in APP_PROGRAMS),
                       reverse=True)
        assert peaks[0] + peaks[1] > user_memory

    def test_group2_has_io_active_programs(self):
        assert any(p.io_stall_per_cpu_s > 0 for p in APP_PROGRAMS)

    def test_group1_is_cpu_memory_only(self):
        assert all(p.io_stall_per_cpu_s == 0 for p in SPEC_PROGRAMS)

    def test_programs_for_group(self):
        assert programs_for_group(WorkloadGroup.SPEC) == SPEC_PROGRAMS
        assert programs_for_group(WorkloadGroup.APP) == APP_PROGRAMS

    def test_program_by_name_unknown(self):
        with pytest.raises(KeyError):
            program_by_name("quake")

    def test_catalog_table_rows(self):
        rows = catalog_table(WorkloadGroup.SPEC)
        assert len(rows) == 6
        assert rows[0][0] == "apsi"
        # ranged working sets render as "lo-hi"
        app_rows = {row[0]: row for row in catalog_table(WorkloadGroup.APP)}
        assert "-" in app_rows["t-sim"][3]


class TestMemoryProfiles:
    def test_profile_peaks_at_requested_working_set(self):
        program = program_by_name("apsi")
        profile = program.memory_profile(lifetime_s=2619.0, peak_mb=191.0)
        assert profile.peak_demand_mb == pytest.approx(191.0)

    def test_profile_respects_minimum_working_set(self):
        program = program_by_name("t-sim")
        profile = program.memory_profile(lifetime_s=145.0, peak_mb=75.0)
        for phase in profile.phases:
            assert phase.demand_mb >= program.working_set_min_mb

    def test_profile_phases_span_lifetime(self):
        program = program_by_name("gzip")
        profile = program.memory_profile(lifetime_s=290.0, peak_mb=180.0)
        assert profile.phases[0].start_progress == 0.0
        assert profile.phases[-1].start_progress < 290.0

    def test_degenerate_lifetime_still_valid(self):
        program = program_by_name("bit-r")
        profile = program.memory_profile(lifetime_s=1e-6, peak_mb=9.0)
        assert len(profile.phases) >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            Program(name="x", group=WorkloadGroup.SPEC, description="",
                    input_name="", working_set_mb=0.0, lifetime_s=1.0)
        with pytest.raises(ValueError):
            Program(name="x", group=WorkloadGroup.SPEC, description="",
                    input_name="", working_set_mb=1.0, lifetime_s=0.0)
        with pytest.raises(ValueError):
            Program(name="x", group=WorkloadGroup.SPEC, description="",
                    input_name="", working_set_mb=1.0, lifetime_s=1.0,
                    shape=((0.5, 1.0),))

    def test_default_shape_monotone_starts(self):
        starts = [s for s, _ in DEFAULT_SHAPE]
        assert starts == sorted(starts)


def run_dedicated(program, cluster_config):
    """Run ``program`` alone on one workstation of its cluster (§3.2's
    dedicated-environment profiling, the source of Tables 1-2)."""
    cluster = Cluster(cluster_config.replace(num_nodes=1))
    profile = program.memory_profile(program.lifetime_s,
                                     program.working_set_mb)
    job = Job(program=program.name, cpu_work_s=program.lifetime_s,
              memory=profile,
              io_stall_per_cpu_s=program.io_stall_per_cpu_s)
    cluster.nodes[0].add_job(job)
    cluster.sim.run()
    return job


class TestDedicatedProfiles:
    @pytest.mark.parametrize("program", SPEC_PROGRAMS,
                             ids=[p.name for p in SPEC_PROGRAMS])
    def test_table1_lifetime_and_working_set(self, program):
        """Dedicated execution reproduces the catalog lifetime with no
        paging and peaks at the catalog working set."""
        job = run_dedicated(program, SPEC_CLUSTER)
        assert job.finished
        assert job.finish_time == pytest.approx(program.lifetime_s,
                                                rel=1e-6)
        assert job.acct.page_s == pytest.approx(0.0)
        assert job.peak_demand_mb == pytest.approx(program.working_set_mb)

    @pytest.mark.parametrize("program", APP_PROGRAMS,
                             ids=[p.name for p in APP_PROGRAMS])
    def test_table2_lifetime_io_and_working_set_range(self, program):
        """Wall time is the CPU lifetime plus the program's I/O stalls,
        with no paging; ranged working sets stay within the range."""
        job = run_dedicated(program, APP_CLUSTER)
        assert job.finished
        io_s = program.lifetime_s * program.io_stall_per_cpu_s
        assert job.finish_time == pytest.approx(program.lifetime_s + io_s,
                                                rel=1e-6)
        assert job.acct.page_s == pytest.approx(0.0)
        assert job.acct.io_s == pytest.approx(io_s, rel=1e-6)
        if program.working_set_min_mb > 0:
            demands = [phase.demand_mb for phase in job.memory.phases]
            assert min(demands) >= program.working_set_min_mb
