"""Configuration for simulated clusters.

Defaults follow the paper's §3.3.1 simulation parameters:

* 32 homogeneous workstations per cluster;
* cluster 1 (SPEC workloads): 400 MHz CPUs, 384 MB memory, 380 MB swap;
* cluster 2 (application workloads): 233 MHz CPUs, 128 MB memory,
  128 MB swap;
* 4 KB pages, 10 ms page-fault service time, 0.1 ms context switch;
* 10 Mbps Ethernet, 0.1 s remote submission/execution cost ``r``,
  preemptive migration cost ``r + D/B``.

Parameters the paper leaves implicit (CPU threshold, fault detection
threshold, load-exchange period, the paging-competition parameters of
the substituted fault model) are exposed here with documented defaults
and are swept by the ablation benchmarks.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from repro.faults.config import FaultConfig


@dataclass(frozen=True)
class WorkstationSpec:
    """Static description of one workstation.

    ``speed_factor`` expresses CPU speed relative to the machine the
    workload traces were profiled on; the paper's clusters are
    homogeneous with nodes identical to the profiling machine, so the
    factor is 1.0 unless a heterogeneous cluster is configured.
    """

    cpu_mhz: int = 400
    memory_mb: float = 384.0
    swap_mb: float = 380.0
    speed_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.memory_mb <= 0:
            raise ValueError("memory_mb must be positive")
        if self.swap_mb < 0:
            raise ValueError("swap_mb must be non-negative")
        if self.speed_factor <= 0:
            raise ValueError("speed_factor must be positive")


@dataclass
class ClusterConfig:
    """Full parameter set of a simulated cluster experiment."""

    # --- topology ----------------------------------------------------
    num_nodes: int = 32
    spec: WorkstationSpec = field(default_factory=WorkstationSpec)
    #: Optional per-node overrides for heterogeneous clusters,
    #: mapping node id -> WorkstationSpec.
    node_overrides: dict = field(default_factory=dict)

    # --- OS-level constants (paper §3.3.1) ----------------------------
    page_size_kb: float = 4.0
    page_fault_service_ms: float = 10.0
    context_switch_ms: float = 0.1
    #: Round-robin quantum used to convert the context-switch time into
    #: a capacity tax (Linux 2.2-era default time slice).
    quantum_ms: float = 100.0
    #: Memory reserved for the kernel and daemons; user space is
    #: ``memory_mb - kernel_reserved_mb``.
    kernel_reserved_mb: float = 8.0

    # --- network (paper §3.3.1) ---------------------------------------
    network_bandwidth_mbps: float = 10.0
    remote_submission_cost_s: float = 0.1
    #: When True, migrations contend for the shared link (FIFO);
    #: the paper's additive cost model corresponds to False.
    network_contention: bool = False

    # --- load sharing thresholds ([3]) ---------------------------------
    #: Maximum number of job slots a CPU is willing to take.  Kept
    #: small, as in multiprogrammed workstation clusters of the era:
    #: the CPU threshold "sets a reasonable queuing delay time for
    #: jobs in each workstation" (§1).
    cpu_threshold: int = 4
    #: A node is a submission candidate only while it has idle memory
    #: space ([3]).  Demands are unknown at submission time, so the
    #: floor is a token amount — blind overpacking (and the thrashing
    #: it causes when demands grow) is intrinsic to the problem the
    #: paper studies.
    min_idle_mb: float = 4.0
    #: Aggregate page-fault rate (faults/s) above which a node is
    #: considered to be thrashing and migration is attempted.  Mild
    #: paging is tolerated; the threshold marks real thrashing.
    fault_rate_threshold: float = 25.0

    # --- substituted paging model (DESIGN.md §4) -----------------------
    #: Competition bias alpha: resident shares go as demand**alpha.
    #: Small alpha reproduces the starvation the paper relies on
    #: (§2.2, citing the authors' TPF study [6]): under global page
    #: replacement, small jobs keep their working sets resident while
    #: the large job is squeezed into whatever memory is left.
    residency_alpha: float = 0.2
    #: Faults per CPU-second for a fully non-resident working set.
    max_fault_rate_per_cpu_s: float = 1000.0
    #: Thrashing-cliff exponent (Denning): fault rate goes as
    #: ``missing_fraction ** exponent`` — mild oversubscription is
    #: nearly free, deep residency loss is catastrophic.
    fault_curve_exponent: float = 1.5
    #: CPU consumed by the kernel per page fault (fault handler, I/O
    #: setup, TLB/cache pollution) — this is what makes a thrashing
    #: node slow down *everyone* on it, the phenomenon behind the
    #: paper's blocking problem.
    fault_cpu_overhead_ms: float = 1.0
    #: The paging disk serves one fault at a time; as its utilization
    #: approaches 1 the effective stall per fault inflates queue-style,
    #: up to this multiplier (co-located thrashing jobs punish each
    #: other).
    paging_disk_max_inflation: float = 10.0
    #: Uncached I/O penalty: when memory pressure reclaims the I/O
    #: buffer cache below what the node's I/O-active jobs want, their
    #: I/O stalls inflate by up to this factor (paper §3.1 monitors
    #: the buffer cache status per workstation).
    uncached_io_penalty: float = 2.0
    #: Optional network-RAM extension: remote-memory fault service time
    #: (ms) used instead of disk when enabled (paper §2.3 mentions [12]).
    network_ram: bool = False
    network_ram_service_ms: float = 1.0

    # --- domain sharding (DESIGN.md §4) --------------------------------
    #: Number of load-information domains the cluster is partitioned
    #: into (contiguous node-id slices) by its
    #: :class:`~repro.cluster.domains.DomainDirectory`: one directory
    #: shard per domain (exchange rounds over N/K nodes).  ``1`` (the
    #: default) is one shard spanning the cluster and no summaries.
    #: ``K > 1`` adds compact per-domain summaries exchanged on the
    #: slower period below, so scheduling becomes two-level — pick a
    #: domain from summaries, then a node from that domain's shard.
    domains: int = 1
    #: Inter-domain summary exchange period (s); the explicit staleness
    #: knob of the domain layer.  Summaries are refreshed this often
    #: (0 = recomputed fresh on every access), independently of the
    #: faster intra-domain ``load_exchange_interval_s``.
    domain_exchange_interval_s: float = 5.0

    # --- fault injection -----------------------------------------------
    #: Failure model of the run (see :mod:`repro.faults`); ``None``
    #: (the default) runs fault-free and byte-identical to a build
    #: without the fault subsystem — a property pinned by tests.
    faults: Optional[FaultConfig] = None

    # --- periodic activities -------------------------------------------
    #: Load index collection/distribution period (s); 0 = always fresh.
    load_exchange_interval_s: float = 1.0
    #: Scheduler monitoring period for overload/blocking detection (s).
    monitor_interval_s: float = 1.0
    #: Metrics sampling period (s); the paper samples every second.
    sample_interval_s: float = 1.0

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if self.cpu_threshold <= 0:
            raise ValueError("cpu_threshold must be positive")
        if not 0 < self.residency_alpha <= 1:
            raise ValueError("residency_alpha must be in (0, 1]")
        if self.domains < 1:
            raise ValueError("domains must be >= 1")
        if self.domains > self.num_nodes:
            raise ValueError(
                f"domains ({self.domains}) cannot exceed num_nodes "
                f"({self.num_nodes})")
        if self.domain_exchange_interval_s < 0:
            raise ValueError("domain_exchange_interval_s must be >= 0")

    # ------------------------------------------------------------------
    def spec_for(self, node_id: int) -> WorkstationSpec:
        """Spec for ``node_id``, honouring heterogeneous overrides."""
        return self.node_overrides.get(node_id, self.spec)

    def user_memory_mb(self, spec: WorkstationSpec) -> float:
        """User-space memory of a node (total minus kernel reserve)."""
        return max(0.0, spec.memory_mb - self.kernel_reserved_mb)

    @property
    def fault_service_s(self) -> float:
        """Effective per-fault service time in seconds."""
        ms = (self.network_ram_service_ms if self.network_ram
              else self.page_fault_service_ms)
        return ms / 1000.0

    @property
    def context_switch_tax(self) -> float:
        """Fraction of CPU capacity lost to context switches when
        more than one job shares the CPU."""
        quantum = self.quantum_ms
        return self.context_switch_ms / (quantum + self.context_switch_ms)

    def replace(self, **changes) -> "ClusterConfig":
        """Return a copy of this config with ``changes`` applied.

        ``node_overrides`` is copied, not shared: mutating the copy's
        overrides (heterogeneous setups) must never leak into the
        original — in particular not into the module-level
        ``SPEC_CLUSTER``/``APP_CLUSTER`` defaults.
        """
        changes.setdefault("node_overrides", dict(self.node_overrides))
        return dataclasses.replace(self, **changes)


#: Paper cluster 1 (runs workload group 1, the SPEC 2000 programs).
#: Note on bandwidth: the paper evaluates with 10 Mbps Ethernet and
#: job lifetimes of minutes to ~45 minutes, so a working-set transfer
#: costs a few percent of a job's life.  Our reconstructed lifetimes
#: are compressed to keep the published job counts feasible on the
#: published trace durations, so the bandwidth is scaled to 100 Mbps
#: to preserve the paper's migration-cost-to-lifetime ratio (the
#: network-speed ablation sweeps this back down).
SPEC_CLUSTER = ClusterConfig(
    spec=WorkstationSpec(cpu_mhz=400, memory_mb=384.0, swap_mb=380.0),
    network_bandwidth_mbps=100.0)

#: Paper cluster 2 (runs workload group 2, the application programs).
APP_CLUSTER = ClusterConfig(
    spec=WorkstationSpec(cpu_mhz=233, memory_mb=128.0, swap_mb=128.0),
    network_bandwidth_mbps=100.0)
