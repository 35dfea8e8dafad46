"""CPU-based load sharing: balance job counts, ignore memory.

Represents the classic process-count balancing schemes the paper cites
([5], [11], [14]): a submission goes to the node with the fewest
running jobs that still has a free slot.  Memory demands play no role,
so jobs with large allocations are scattered blindly — the situation
that creates the blocking problem in the first place.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.job import Job
from repro.cluster.workstation import Workstation
from repro.scheduling.base import LoadSharingPolicy


class CpuBasedPolicy(LoadSharingPolicy):
    """Least-loaded-by-count placement, no memory awareness."""

    name = "CPU-Loadsharing"

    def select_node(self, job: Job) -> Optional[Workstation]:
        """Two-level least-loaded placement: the home node if no node
        of its domain runs fewer jobs, else the home domain's load
        order, then remote domains ranked by summary least-loaded
        key."""
        home = self._live_node(job.home_node)
        directory = self.cluster.directory
        home_domain = directory.domain_of(home.node_id)
        if home.alive and home.has_free_slot and not home.reserved:
            if home.num_running <= directory.least_num_jobs(home_domain):
                return home
        for node_id in directory.load_order_ids(local_domain=home_domain):
            node = self._live_node(node_id)
            if node.alive and node.has_free_slot and not node.reserved:
                return node
        return None
