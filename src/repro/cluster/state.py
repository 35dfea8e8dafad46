"""Columnar (struct-of-arrays) cluster hot state.

At a few hundred nodes the simulation's wall time is no longer spent
in the event core but in everything that *reads* per-node state in
bulk: the 1 Hz metrics collector, the load-information exchange, the
obs sampler, and candidate filtering all walked N ``Workstation``
objects through Python properties.  :class:`ClusterState` stores the
published per-node quantities as contiguous columns — one
``array('d')``/``array('l')``/``bytearray`` per quantity — so batch
consumers read C-backed buffers instead of making ``O(N)`` attribute
calls per tick (the storage layout the obs sampler already proved).

Ownership contract:

* every :class:`~repro.cluster.workstation.Workstation` *writes
  through* to its row (``sync_row`` / the flag helpers) whenever its
  externally visible state changes — the same instants it notifies its
  change listeners — so a column always equals what the corresponding
  property would return;
* batch readers (collector, sampler, load directory, cluster-wide
  queries) read columns directly and never touch node objects;
* every writer calls :meth:`ClusterState.pre_change` first, so a
  reader that must see the state as it stood before a change (the
  metrics collector's owed samples, the obs sampler's owed rows) reads
  it there.  Hooks are wiring, not state, and are not pickled;
* per-object reads (``node.idle_memory_mb`` and friends) keep their
  existing row-local caches, so the object API costs exactly what it
  did before.

The obs sampler stores the low three flag bits (alive, reserved,
thrashing), so it copies flag rows with one ``bytes.translate``
instead of re-deriving bits per node.  Committed golden summaries
(``tests/golden/summaries_paths.json``) pin that reading the columns
changes no scheduling decision.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, List

#: Flag bits of one node's ``flags`` byte.  The low three bits are
#: the obs sampler's packing (see module docstring).
FLAG_ALIVE = 1
FLAG_RESERVED = 2
FLAG_THRASHING = 4
FLAG_ACCEPTING = 8
FLAG_STARVING = 16

#: ``bytes.translate`` table projecting a flags byte onto the sampler
#: bits (alive | reserved | thrashing).
SAMPLER_FLAG_MASK = bytes((i & 7) for i in range(256))


class ClusterState:
    """Struct-of-arrays view of every node's published hot state.

    Columns are indexed by node id.  Float columns hold exactly the
    value the corresponding :class:`Workstation` property returns at
    the same instant (``idle_memory_mb`` includes the dead-node-is-0
    rule, for example), so summing a column left to right is
    bit-identical to summing the properties left to right.
    """

    __slots__ = ("num_nodes", "user_memory_mb", "total_demand_mb",
                 "idle_memory_mb", "fault_rate_per_s", "num_running",
                 "inbound_jobs", "flags", "version", "pre_change_hooks")

    def __init__(self, num_nodes: int):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.num_nodes = num_nodes
        zeros = [0.0] * num_nodes
        #: Static user-space memory per node (written once per node).
        self.user_memory_mb = array("d", zeros)
        #: Sum of current per-job demands (``total_demand_mb``).
        self.total_demand_mb = array("d", zeros)
        #: ``idle_memory_mb`` property value (0.0 for a dead node).
        self.idle_memory_mb = array("d", zeros)
        #: Aggregate page faults per second (``fault_rate_per_s``).
        self.fault_rate_per_s = array("d", zeros)
        #: Running-job count per node.
        self.num_running = array("l", [0] * num_nodes)
        #: In-flight arrivals holding a slot (``inbound_jobs``).
        self.inbound_jobs = array("l", [0] * num_nodes)
        #: FLAG_* bits per node; nodes start alive.
        self.flags = bytearray([FLAG_ALIVE]) * num_nodes
        #: Bumped by every row write (``Workstation._sync_row``, the
        #: only column writer): a value derived from the columns stays
        #: exact while the version it was computed at is current.
        self.version = 0
        #: Called by :meth:`pre_change`, before every row write and
        #: every change to a policy's pending queue, while both are
        #: still as they were (the metrics collector's and the obs
        #: sampler's ``flush``).  Not pickled.
        self.pre_change_hooks: List[Callable[[], None]] = []

    def __getstate__(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in self.__slots__
                if name != "pre_change_hooks"}

    def __setstate__(self, state: Dict[str, object]) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self.pre_change_hooks = []

    def pre_change(self) -> None:
        """Run the pre-change hooks: a row or a pending queue is about
        to change."""
        for hook in self.pre_change_hooks:
            hook()

    # ------------------------------------------------------------------
    # batch views
    # ------------------------------------------------------------------
    def reserved_ids(self) -> List[int]:
        """Node ids with the reserved flag set, ascending."""
        return [node_id for node_id, bits in enumerate(self.flags)
                if bits & FLAG_RESERVED]

    def count_flag(self, bit: int) -> int:
        """Number of nodes with ``bit`` set."""
        return sum(1 for bits in self.flags if bits & bit)

    def sampler_flags(self) -> bytes:
        """All flag bytes projected onto the obs-sampler bit packing."""
        return bytes(self.flags).translate(SAMPLER_FLAG_MASK)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        alive = self.count_flag(FLAG_ALIVE)
        return (f"<ClusterState n={self.num_nodes} alive={alive}"
                f" accepting={self.count_flag(FLAG_ACCEPTING)}>")
