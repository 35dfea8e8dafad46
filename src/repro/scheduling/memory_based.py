"""Memory-based load sharing: place by idle memory, migrate on faults.

Represents the memory-conscious schemes the paper cites ([1], [2]):
submissions go to the node with the most idle memory, and a thrashing
node ushers its most memory-intensive job to the node with the most
idle memory.  Job counts are considered only through the CPU-threshold
admission rule, not balanced for.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.job import Job
from repro.cluster.workstation import Workstation
from repro.scheduling.base import LoadSharingPolicy


class MemoryBasedPolicy(LoadSharingPolicy):
    """Most-idle-memory placement plus fault-driven migration."""

    name = "Memory-Loadsharing"

    def select_node(self, job: Job) -> Optional[Workstation]:
        # No home preference: always chase the most idle memory.
        for node in self.candidates_by_idle_memory():
            if node.accepting:
                return node
        home = self._live_node(job.home_node)
        if home.accepting:
            return home
        return None

    def handle_overload(self, node: Workstation) -> None:
        job, demand = node.most_memory_intensive(faulting_only=True)
        if job is None or not self._migratable(job, demand):
            return
        self.stats.migration_attempts += 1
        destination = self.find_migration_destination(
            job, node.node_id, demand)
        if destination is None:
            self.on_blocking(node, job, demand)
            return
        self.migrate(job, node, destination)
