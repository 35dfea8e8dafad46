"""SRPT oracle: the paper's §1 theoretical reference point.

"It has been proved that the optimal inter-workstation scheduling
policy is to always schedule the job with the shortest remaining
processing time [8].  ...  In practice, the optimal scheduling policy
is impossible to be implemented [because] the remaining processing
time of each job is unknown to the scheduler."

In a simulator we *do* know every job's remaining processing time, so
this oracle exists as an upper-reference policy: it behaves exactly
like G-Loadsharing except that the pending queue is served
shortest-remaining-work-first instead of FIFO.  Comparing any
practical policy against it bounds how much of the SRPT principle the
virtual reconfiguration's implicit ordering actually captures.
"""

from __future__ import annotations

from repro.cluster.workstation import Workstation
from repro.scheduling.g_loadsharing import GLoadSharing


class SrptOracle(GLoadSharing):
    """G-Loadsharing with an SRPT-ordered pending queue (oracle)."""

    name = "SRPT-Oracle"

    def _drain_pending(self) -> None:
        if self._draining or not self._pending:
            return
        self.cluster.state.pre_change()
        self._draining = True
        try:
            progressed = True
            while progressed and self._pending:
                progressed = False
                # Oracle knowledge: shortest remaining work first.
                ordered = sorted(self._pending,
                                 key=lambda job: job.remaining_work_s)
                self._pending.clear()
                self._pending.extend(ordered)
                for _ in range(len(self._pending)):
                    job = self._pending.popleft()
                    if self._try_place(job):
                        progressed = True
                    else:
                        self._pending.append(job)
                        break
        finally:
            self._draining = False
