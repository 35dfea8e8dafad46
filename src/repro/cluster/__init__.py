"""Cluster substrate: workstations, memory, network, load information.

This package models the simulated 32-workstation clusters of the paper
(§3.3.1): round-robin CPU scheduling inside each workstation, a paging
model for memory oversubscription, Ethernet migration costs, and the
periodically exchanged global load index.
"""

from repro.cluster.cluster import Cluster
from repro.cluster.config import (
    APP_CLUSTER,
    SPEC_CLUSTER,
    ClusterConfig,
    WorkstationSpec,
)
from repro.cluster.job import Job, JobState, MemoryProfile
from repro.cluster.loadinfo import LoadInfoDirectory, NodeSnapshot
from repro.cluster.memory import PagingModel
from repro.cluster.network import Network
from repro.cluster.workstation import Workstation

__all__ = [
    "APP_CLUSTER",
    "Cluster",
    "ClusterConfig",
    "Job",
    "JobState",
    "LoadInfoDirectory",
    "MemoryProfile",
    "Network",
    "NodeSnapshot",
    "PagingModel",
    "SPEC_CLUSTER",
    "Workstation",
    "WorkstationSpec",
]
