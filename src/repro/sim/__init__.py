"""Discrete-event simulation kernel.

The kernel is a minimal, dependency-free event-queue simulator designed
for the cluster models in :mod:`repro.cluster`.  It provides:

* :class:`~repro.sim.engine.Simulator` — the event loop, with exact
  (heap-ordered) event scheduling and cancellable event handles;
* :class:`~repro.sim.rng.RandomStreams` — named, independently seeded
  random streams so that every stochastic component of an experiment is
  reproducible and independently perturbable;
* :mod:`~repro.sim.checkpoint` — whole-world checkpoint/restore: a
  paused run serializes to a schema-versioned snapshot that resumes
  byte-identically, and ``fork`` replays the remainder under an
  alternative policy.

All model code schedules *state-recomputation* events rather than
time-stepping: between events every rate in the system is constant, so
completions and phase boundaries are computed exactly.
"""

from repro.sim.checkpoint import (CheckpointError, load_checkpoint,
                                  restore_bytes, save_checkpoint,
                                  snapshot_bytes)
from repro.sim.engine import EventHandle, Simulator, SimulationError
from repro.sim.rng import RandomStreams

__all__ = [
    "CheckpointError",
    "EventHandle",
    "RandomStreams",
    "SimulationError",
    "Simulator",
    "load_checkpoint",
    "restore_bytes",
    "save_checkpoint",
    "snapshot_bytes",
]
