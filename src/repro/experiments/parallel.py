"""Parallel execution of independent experiment runs.

Every figure/table/ablation in the paper is a sweep of mutually
independent trace-driven simulations (clusters x traces x policies),
which makes the reproduction embarrassingly parallel: each run is
described by a picklable :class:`RunSpec`, executed in a worker
process started with the ``spawn`` method, and reduced to its
:class:`~repro.metrics.summary.RunSummary` before crossing the process
boundary (the live ``Cluster`` / ``Simulator`` objects are full of
scheduled closures and are neither picklable nor needed by any
report).

Determinism is the invariant: a worker runs exactly the same
``run_experiment`` call the serial path would, from the same seeds, so
``run_specs(specs, jobs=N)`` returns summaries identical to
``jobs=1`` for every ``N`` — a property asserted by the test suite and
the perf harness.  Workers are spawned, not forked: a forked child
inherits the parent's locks in whatever state its other threads (a
live HTTP server's, say) left them, and can deadlock on one.  A
spawned worker starts from a fresh import, so everything it needs
travels as an argument.

Sweep telemetry: every worker measures its run (wall seconds, executed
simulator events) and reports the timing back to the parent alongside
the summary.  With progress enabled (``enable_progress`` or the
``progress`` argument) the parent renders a live one-line progress
display as runs complete, and the per-spec timings accumulate in a
module buffer that callers drain with ``pop_sweep_timings`` /
``render_sweep_timings`` — the post-sweep timing table of the
``--obs`` CLI mode.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

from repro.cluster.config import ClusterConfig
from repro.faults.config import FaultConfig
from repro.metrics.summary import RunSummary
from repro.workload.programs import WorkloadGroup


@dataclass(frozen=True)
class RunSpec:
    """One independent experiment run, fully described by value.

    The spec mirrors :func:`repro.experiments.runner.run_experiment`'s
    signature; ``label`` is a free-form tag callers may use to map
    results back to sweep variants (it does not affect execution).
    """

    group: WorkloadGroup
    trace_index: int
    policy: str = "g-loadsharing"
    seed: int = 0
    scale: float = 1.0
    config: Optional[ClusterConfig] = None
    policy_kwargs: Optional[Dict[str, object]] = None
    #: Failure model of the run (overrides ``config.faults``); crosses
    #: the process boundary by value like everything else in the spec,
    #: so serial and parallel sweeps replay identical fault schedules.
    faults: Optional[FaultConfig] = None
    label: Optional[str] = None
    #: Attach a metrics-only ObsSession to the run; the snapshot lands
    #: in ``summary.extra`` under ``obs.`` and crosses the process
    #: boundary with the summary (see repro.obs).
    obs: bool = False
    #: Trace job lifecycles (slowdown attribution); the aggregates land
    #: in ``summary.extra`` as ``obs.lifecycle_*`` and feed the sweep
    #: comparison reports.  Implies an ObsSession.
    lifecycle: bool = False
    #: Sample per-node cluster state every N simulated seconds; the
    #: aggregates land in ``summary.extra`` as ``obs.sampler_*``.
    #: Implies an ObsSession.
    sample_period: Optional[float] = None

    def describe(self) -> str:
        extras = f" kwargs={self.policy_kwargs}" if self.policy_kwargs else ""
        if self.faults is not None:
            extras += (f" faults(mtbf={self.faults.mtbf_s}, "
                       f"fault_seed={self.faults.fault_seed})")
        return (f"{self.group.value}-trace-{self.trace_index} "
                f"policy={self.policy} seed={self.seed} "
                f"scale={self.scale}{extras}")


class SweepError(RuntimeError):
    """A worker run failed; carries the failing :class:`RunSpec`."""

    def __init__(self, spec: RunSpec, detail: str):
        super().__init__(f"run failed for spec [{spec.describe()}]:\n{detail}")
        self.spec = spec
        self.detail = detail


@dataclass(frozen=True)
class SpecTiming:
    """Per-run telemetry a worker reports back to the parent."""

    label: str
    wall_s: float
    events: int

    @property
    def events_per_s(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0


#: When True every executed spec gets a metrics-only ObsSession even if
#: ``spec.obs`` is False — the ``--obs`` switch of the sweep CLIs.
#: ``run_specs`` hands its value to every worker it starts.
_OBS_ALL_SPECS = False

#: Live progress stream (None = off); see :func:`enable_progress`.
_PROGRESS_STREAM: Optional[TextIO] = None

#: Telemetry of completed sweeps, in submission order, drained by
#: :func:`pop_sweep_timings`.
_SWEEP_TIMINGS: List[SpecTiming] = []


def set_obs_default(enabled: bool) -> None:
    """Instrument every subsequent spec run with obs metrics."""
    global _OBS_ALL_SPECS
    _OBS_ALL_SPECS = bool(enabled)


def enable_progress(stream: Optional[TextIO] = None) -> None:
    """Render a live progress line for subsequent ``run_specs`` calls."""
    global _PROGRESS_STREAM
    _PROGRESS_STREAM = stream if stream is not None else sys.stderr


def disable_progress() -> None:
    global _PROGRESS_STREAM
    _PROGRESS_STREAM = None


def pop_sweep_timings() -> List[SpecTiming]:
    """Drain the accumulated per-spec timings (submission order)."""
    timings = list(_SWEEP_TIMINGS)
    _SWEEP_TIMINGS.clear()
    return timings


def render_sweep_timings(timings: Sequence[SpecTiming]) -> str:
    """The post-sweep timing table (slowest runs surface regressions)."""
    from repro.metrics.report import render_table

    rows = [{
        "run": t.label,
        "wall (s)": t.wall_s,
        "events": float(t.events),
        "ev/s": t.events_per_s,
    } for t in timings]
    total = sum(t.wall_s for t in timings)
    rows.append({"run": "TOTAL", "wall (s)": total,
                 "events": float(sum(t.events for t in timings)),
                 "ev/s": (sum(t.events for t in timings) / total
                          if total > 0 else 0.0)})
    return render_table(rows, ("run", "wall (s)", "events", "ev/s"),
                        title="Sweep timing")


def _execute_timed(spec: RunSpec, obs_all: bool
                   ) -> Tuple[RunSummary, SpecTiming]:
    """Run one spec in-process; summary plus worker-side telemetry.
    ``obs_all`` instruments the run as if ``spec.obs`` were set."""
    # Imported lazily: runner imports the policy registry (and through
    # it most of the package), while RunSpec itself stays importable
    # from anywhere without cycles.
    from repro.experiments.runner import run_experiment

    obs = None
    if (spec.obs or spec.lifecycle or spec.sample_period is not None
            or obs_all):
        from repro.obs.session import ObsSession

        obs = ObsSession(record_events=False, run_label=spec.describe(),
                         lifecycle=spec.lifecycle,
                         sample_period=spec.sample_period)
    kwargs = dict(spec.policy_kwargs) if spec.policy_kwargs else None
    started = time.perf_counter()
    result = run_experiment(spec.group, spec.trace_index, policy=spec.policy,
                            seed=spec.seed, config=spec.config,
                            scale=spec.scale, policy_kwargs=kwargs, obs=obs,
                            faults=spec.faults)
    wall_s = time.perf_counter() - started
    timing = SpecTiming(label=spec.label or spec.describe(), wall_s=wall_s,
                        events=result.cluster.sim.event_count)
    return result.summary, timing


def execute_spec(spec: RunSpec) -> RunSummary:
    """Run one spec in-process and return its summary."""
    return _execute_timed(spec, _OBS_ALL_SPECS)[0]


def _worker(spec: RunSpec, obs_all: bool
            ) -> Tuple[str, object, Optional[SpecTiming]]:
    """Process-pool entry point.

    Failures are returned as formatted tracebacks rather than raised:
    arbitrary exception objects may not survive pickling back to the
    parent, a traceback string always does.
    """
    try:
        summary, timing = _execute_timed(spec, obs_all)
        return ("ok", summary, timing)
    except Exception:  # noqa: BLE001 - reported with full traceback
        return ("error", traceback.format_exc(), None)


def default_jobs() -> int:
    """Worker count used for ``jobs=0`` / ``jobs=None``.

    Uses the CPU affinity mask — the cores this process may actually
    run on — rather than the machine-wide count: on an affinity-
    restricted box (containers, ``taskset``) ``os.cpu_count()`` would
    oversubscribe the few available cores and make the "parallel" leg
    slower than serial.  Falls back to ``os.cpu_count()`` where
    affinity is unsupported.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - platform quirk
            pass
    return os.cpu_count() or 1


def _progress_tick(done: int, total: int, label: str,
                   stream: Optional[TextIO]) -> None:
    if stream is None:
        return
    line = f"\r[{done}/{total}] {label}"
    # Overwrite the previous line; pad so a shorter label clears it.
    stream.write(line.ljust(79)[:200])
    if done == total:
        stream.write("\n")
    stream.flush()


def run_specs(specs: Sequence[RunSpec], jobs: int = 1,
              progress: Optional[bool] = None) -> List[RunSummary]:
    """Execute ``specs`` and return their summaries in input order.

    ``jobs`` is the number of worker processes; ``0``/``None`` means
    one per core.  With ``jobs=1``, or a single spec, the specs run
    serially in-process.  Results are byte-identical either way.

    ``progress`` overrides the module-level :func:`enable_progress`
    setting for this call (True renders to stderr, False disables).
    Per-spec timings are appended to the module buffer in submission
    order either way; drain them with :func:`pop_sweep_timings`.

    A failing run raises :class:`SweepError` with the offending
    :class:`RunSpec` attached as ``.spec``; remaining workers are not
    waited on beyond pool shutdown.
    """
    specs = list(specs)
    if jobs is None or jobs == 0:
        jobs = default_jobs()
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if progress is None:
        stream = _PROGRESS_STREAM
    else:
        stream = sys.stderr if progress else None
    total = len(specs)
    if jobs == 1 or len(specs) <= 1:
        results = []
        timings = []
        for done, spec in enumerate(specs, start=1):
            try:
                summary, timing = _execute_timed(spec, _OBS_ALL_SPECS)
            except Exception:  # noqa: BLE001 - uniform error surface
                raise SweepError(spec, traceback.format_exc()) from None
            results.append(summary)
            timings.append(timing)
            _progress_tick(done, total, f"{timing.label} "
                           f"({timing.wall_s:.1f}s)", stream)
        _SWEEP_TIMINGS.extend(timings)
        return results

    context = multiprocessing.get_context("spawn")
    workers = min(jobs, len(specs))
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=context) as pool:
        futures = {pool.submit(_worker, spec, _OBS_ALL_SPECS): index
                   for index, spec in enumerate(specs)}
        outcomes: List[Optional[Tuple[str, object, Optional[SpecTiming]]]] \
            = [None] * total
        # Consume completions as they land so the progress line is
        # live; errors are *raised* afterwards in submission order so
        # SweepError deterministically names the first failing spec.
        done = 0
        for future in as_completed(futures):
            index = futures[future]
            outcomes[index] = future.result()
            done += 1
            timing = outcomes[index][2]
            label = (f"{timing.label} ({timing.wall_s:.1f}s)"
                     if timing is not None
                     else f"{specs[index].describe()} FAILED")
            _progress_tick(done, total, label, stream)
    results = []
    timings = []
    for spec, outcome in zip(specs, outcomes):
        status, payload, timing = outcome
        if status == "error":
            raise SweepError(spec, str(payload))
        results.append(payload)
        timings.append(timing)
    _SWEEP_TIMINGS.extend(timings)
    return results
