"""G-Loadsharing: dynamic load sharing with CPU and memory resources.

The paper's baseline (its reference [3], ICDCS 2001): job scheduling
and migration decisions consider both the number of running jobs (the
CPU threshold) and the availability of idle memory, *without knowing
job memory demands in advance*:

* a new job is accepted by a workstation with idle memory space while
  its running-job count is below the CPU threshold;
* when a workstation detects a certain amount of page faults, new
  submissions to it are blocked and are remotely submitted to other
  lightly loaded workstations with available memory space and job
  slots, if possible;
* one or more jobs already executing on the overloaded workstation may
  be migrated to lightly loaded workstations if a qualified
  destination (enough idle memory for the job's current demand plus a
  free slot) exists.

When no qualified destination exists the scheme has no recourse — that
is the blocking problem the reconfiguration method of
:mod:`repro.core` resolves.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.job import Job
from repro.cluster.workstation import Workstation
from repro.scheduling.base import LoadSharingPolicy


class GLoadSharing(LoadSharingPolicy):
    """Dynamic CPU+memory load sharing (the paper's G-Loadsharing)."""

    name = "G-Loadsharing"

    def select_node(self, job: Job) -> Optional[Workstation]:
        home = self._live_node(job.home_node)
        if home.accepting and not home.thrashing:
            return home
        # Candidates come from (possibly stale) snapshots and are
        # live-verified before committing the submission.
        for node in self.candidates_by_idle_memory(exclude=job.home_node):
            if node.accepting and not node.thrashing:
                return node
        return None

    def handle_overload(self, node: Workstation) -> None:
        """Migrate the most memory-intensive faulting job away from a
        thrashing node, if a qualified destination exists.  When no
        destination qualifies the blocking problem is reported —
        regardless of whether a regular migration would currently pay
        for itself, since that is the state the reconfiguration
        routine exists to resolve."""
        job, demand = node.most_memory_intensive(faulting_only=True)
        if job is None:
            return
        destination = self.find_migration_destination(
            job, node.node_id, demand)
        if destination is None:
            self.on_blocking(node, job, demand)
            return
        if not self._migratable(job, demand):
            return
        self.stats.migration_attempts += 1
        self.migrate(job, node, destination)
