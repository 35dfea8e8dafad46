"""The Cluster facade: nodes + network + load directory + event hooks.

The cluster is passive infrastructure — scheduling policies
(:mod:`repro.scheduling`) drive submissions and migrations through it.
It owns the simulator, constructs the workstations, wires completion
notifications, and fans out state-change callbacks that policies and
metric collectors subscribe to.
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, List, Optional, Set

from repro.cluster.config import ClusterConfig
from repro.cluster.job import Job
from repro.cluster.domains import DomainDirectory
from repro.cluster.memory import PagingModel
from repro.cluster.network import Network
from repro.cluster.state import FLAG_ACCEPTING, FLAG_RESERVED, ClusterState
from repro.cluster.workstation import Workstation
from repro.faults.injector import FaultInjector
from repro.obs.bus import EventBus
from repro.sim.engine import Simulator

JobListener = Callable[[Job, Workstation], None]
NodeListener = Callable[[Workstation], None]

#: ``bytes.translate`` table: 1 for a flags byte with FLAG_ACCEPTING.
_ACCEPTING = bytes(1 if bits & FLAG_ACCEPTING else 0 for bits in range(256))


class Cluster:
    """A simulated cluster of workstations."""

    def __init__(self, config: Optional[ClusterConfig] = None,
                 sim: Optional[Simulator] = None,
                 obs: Optional[EventBus] = None):
        self.config = config if config is not None else ClusterConfig()
        self.sim = sim if sim is not None else Simulator()
        #: Instrumentation bus for this cluster's run.  All channels
        #: are disabled until someone subscribes (see repro.obs).
        self.obs = obs if obs is not None else EventBus()
        self.paging = PagingModel(
            alpha=self.config.residency_alpha,
            max_fault_rate_per_cpu_s=self.config.max_fault_rate_per_cpu_s,
            fault_service_s=self.config.fault_service_s,
            curve_exponent=self.config.fault_curve_exponent,
        )
        #: Columnar (struct-of-arrays) hot state shared by all nodes.
        #: Batch consumers (metrics collector, obs sampler, load
        #: directory, the cluster-wide queries below) read these
        #: columns instead of walking node objects.
        self.state = ClusterState(self.config.num_nodes)
        #: ``destination_idle_bound_mb`` and the state version it was
        #: taken at.
        self._idle_bound_version: Optional[int] = None
        self._idle_bound_mb = 0.0
        self.nodes: List[Workstation] = [
            Workstation(self.sim, node_id, self.config.spec_for(node_id),
                        self.config, self.paging,
                        on_job_finished=self._job_finished,
                        state=self.state)
            for node_id in range(self.config.num_nodes)
        ]
        self.network = Network(
            self.sim,
            bandwidth_mbps=self.config.network_bandwidth_mbps,
            remote_submission_cost_s=self.config.remote_submission_cost_s,
            contention=self.config.network_contention,
        )
        fault_channel = self.obs.channel("memory.fault")
        job_channel = self.obs.channel("cluster.job")
        for node in self.nodes:
            node.obs_fault = fault_channel
            node.obs_job = job_channel
        #: The load directory: one shard per load-information domain,
        #: plus inter-domain summaries when K > 1 (DESIGN.md §4).
        self.directory = DomainDirectory(
            self.sim, self.nodes,
            num_domains=self.config.domains,
            state=self.state,
            exchange_interval_s=self.config.load_exchange_interval_s,
            summary_interval_s=self.config.domain_exchange_interval_s,
            obs=self.obs.channel("loadinfo.exchange"),
            obs_domain=self.obs.channel("loadinfo.domain"),
        )
        #: Ids of nodes whose cached fault rate / starvation currently
        #: crosses the thrashing threshold, maintained from workstation
        #: change notifications — monitors visit only this set instead
        #: of scanning all N nodes every monitor period.
        self.thrashing_nodes: Set[int] = set()
        for node in self.nodes:
            node.add_change_listener(self._track_thrashing)
        self.finished_jobs: List[Job] = []
        self._job_listeners: List[JobListener] = []
        self._node_listeners: List[NodeListener] = []
        #: Called when :attr:`thrashing_nodes` goes from empty to
        #: non-empty (re-arms a parked overload monitor).
        self._thrashing_listeners: List[Callable[[], None]] = []
        #: Fault injector (None on fault-free runs — the common case;
        #: every fault-aware code path guards on this being set).
        self.faults: Optional[FaultInjector] = None
        if self.config.faults is not None:
            self.faults = FaultInjector(self, self.config.faults)

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------
    def on_job_finished(self, listener: JobListener) -> None:
        """Subscribe to job completions."""
        self._job_listeners.append(listener)

    def on_node_changed(self, listener: NodeListener) -> None:
        """Subscribe to node state changes (currently completions)."""
        self._node_listeners.append(listener)

    def remove_node_changed_listener(self, listener: NodeListener) -> None:
        """Unsubscribe a node-change listener (checkpoint forks retire
        the old policy's listener so it stops reacting); unknown
        listeners are ignored."""
        try:
            self._node_listeners.remove(listener)
        except ValueError:
            pass

    def on_thrashing(self, listener: Callable[[], None]) -> None:
        """Subscribe to the thrashing set going from empty to
        non-empty."""
        self._thrashing_listeners.append(listener)

    def remove_thrashing_listener(self,
                                  listener: Callable[[], None]) -> None:
        """Unsubscribe a thrashing listener (unknown ones are
        ignored)."""
        try:
            self._thrashing_listeners.remove(listener)
        except ValueError:
            pass

    def _job_finished(self, job: Job, node: Workstation) -> None:
        self.finished_jobs.append(job)
        for listener in self._job_listeners:
            listener(job, node)
        self.notify_node_changed(node)

    def notify_node_changed(self, node: Workstation) -> None:
        """Fan a node state change out to subscribers (also called by
        policies after placements/migrations)."""
        for listener in self._node_listeners:
            listener(node)

    def _track_thrashing(self, node: Workstation) -> None:
        hot = self.thrashing_nodes
        if node.thrashing:
            was_quiet = not hot
            hot.add(node.node_id)
            if was_quiet:
                for listener in self._thrashing_listeners:
                    listener()
        else:
            hot.discard(node.node_id)

    # ------------------------------------------------------------------
    # cluster-wide queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def total_idle_memory_mb(self, exclude_reserved: bool = False) -> float:
        """Accumulated idle memory space in the cluster (paper §2.1/2.2),
        summed over the idle column in node order."""
        state = self.state
        if not exclude_reserved:
            return sum(state.idle_memory_mb)
        idle = state.idle_memory_mb
        flags = state.flags
        return sum(idle[i] for i in range(state.num_nodes)
                   if not flags[i] & FLAG_RESERVED)

    def destination_idle_bound_mb(self) -> float:
        """No node that can take a migration now has more idle memory
        than this (recomputed only after some row changed).

        A node passing ``accepts_migration`` is alive, unreserved and
        has a free slot.  It is either accepting (those three and at
        least ``min_idle_mb`` idle) or has less than ``min_idle_mb``
        idle, so the larger of the accepting nodes' idle maximum and
        ``min_idle_mb`` bounds it.  Read from the idle and flags
        columns in C.
        """
        state = self.state
        if self._idle_bound_version != state.version:
            accepting = compress(state.idle_memory_mb,
                                 state.flags.translate(_ACCEPTING))
            self._idle_bound_mb = max(max(accepting, default=0.0),
                                      self.config.min_idle_mb)
            self._idle_bound_version = state.version
        return self._idle_bound_mb

    def average_user_memory_mb(self) -> float:
        """Average user memory space of workstations (the paper's
        activation threshold for the reconfiguration routine)."""
        return sum(node.user_memory_mb for node in self.nodes) / len(self.nodes)

    def running_jobs(self) -> List[Job]:
        """All jobs currently running anywhere."""
        jobs: List[Job] = []
        for node in self.nodes:
            jobs.extend(node.running_jobs)
        return jobs

    def reserved_nodes(self) -> List[Workstation]:
        nodes = self.nodes
        return [nodes[node_id] for node_id in self.state.reserved_ids()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        running = sum(node.num_running for node in self.nodes)
        return (f"<Cluster n={self.num_nodes} t={self.sim.now:.1f}s"
                f" running={running} finished={len(self.finished_jobs)}>")
