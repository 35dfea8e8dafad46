"""Run one workload trace under one scheduling policy.

``run_experiment`` wires together the whole stack: trace generation,
cluster construction, policy, metrics collection, trace replay, and
summary extraction.  ``scale`` subsamples the trace (every k-th job)
so the benchmark suite can exercise every figure quickly while the
full-scale runs reproduce the paper's configuration exactly.
"""

from __future__ import annotations

import argparse
import functools
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Type

from repro.cluster.cluster import Cluster
from repro.cluster.config import APP_CLUSTER, SPEC_CLUSTER, ClusterConfig
from repro.core.reconfiguration import VReconfiguration
from repro.faults.config import FaultConfig
from repro.metrics.collector import MetricsCollector, PolicyPendingProbe
from repro.metrics.summary import RunSummary, summarize_run
from repro.obs.health import parse_rule
from repro.obs.session import ObsSession
from repro.scheduling import (
    CpuBasedPolicy,
    GLoadSharing,
    LoadSharingPolicy,
    LocalPolicy,
    MemoryBasedPolicy,
    SrptOracle,
    SuspensionPolicy,
)
from repro.workload.arrivals import trace_spec
from repro.workload.generator import build_trace
from repro.workload.programs import WorkloadGroup
from repro.workload.trace import Trace

#: Registry of runnable policies, keyed by CLI-friendly names.
POLICIES: Dict[str, Type[LoadSharingPolicy]] = {
    "local": LocalPolicy,
    "cpu": CpuBasedPolicy,
    "memory": MemoryBasedPolicy,
    "g-loadsharing": GLoadSharing,
    "suspension": SuspensionPolicy,
    "srpt-oracle": SrptOracle,
    "v-reconfiguration": VReconfiguration,
}


def default_config(group: WorkloadGroup) -> ClusterConfig:
    """The paper's cluster for a workload group (fresh copy)."""
    base = SPEC_CLUSTER if group is WorkloadGroup.SPEC else APP_CLUSTER
    return base.replace()


@dataclass
class ExperimentResult:
    """A run summary plus the artifacts needed for deeper inspection."""

    summary: RunSummary
    cluster: Cluster
    policy: LoadSharingPolicy
    collector: MetricsCollector
    trace: Trace


def subsample_stride(scale: float) -> int:
    """The stride that keeps every k-th job for ``scale`` (1 for the
    full trace); raises ValueError for a scale stride thinning cannot
    realize."""
    if not 0 < scale <= 1:
        raise ValueError("scale must be in (0, 1]")
    if scale == 1.0:
        return 1
    stride = round(1.0 / scale)
    if stride < 2:
        raise ValueError(
            f"scale={scale} cannot be realized by stride subsampling "
            f"(stride would be {max(1, stride)}, i.e. the full trace); "
            f"use scale <= 0.5 or scale == 1.0")
    return stride


def subsample_trace(trace: Trace, scale: float) -> Trace:
    """Keep roughly ``scale`` of the jobs, preserving the arrival shape
    by taking every k-th job rather than a prefix.

    ``duration_s`` is deliberately *not* scaled: thinning keeps every
    k-th arrival at its original instant, so the subsampled trace still
    spans the full trace duration — only the arrival rate drops.
    Scaling the metadata would misstate the span and skew any rate
    (jobs/duration) derived from it.

    Stride-based thinning cannot realize scales just below 1.0:
    ``round(1/scale)`` rounds to stride 1 for ``scale > 2/3``, which
    would silently return the full trace, so those scales raise.
    Realizable-but-coarse scales (e.g. 0.51 -> stride 2, an actual 0.5)
    warn when the realized fraction is off by more than 25%.
    """
    stride = subsample_stride(scale)
    if stride == 1:
        return trace
    jobs = [job for i, job in enumerate(trace.jobs) if i % stride == 0]
    actual = len(jobs) / max(1, len(trace.jobs))
    if abs(actual - scale) > 0.25 * scale:
        warnings.warn(
            f"subsample_trace(scale={scale}) realized {actual:.3f} "
            f"via stride {stride}", stacklevel=2)
    return Trace(name=trace.name, group=trace.group,
                 trace_index=trace.trace_index,
                 duration_s=trace.duration_s, jobs=jobs)


def run_trace(trace: Trace, policy_name: str,
              config: ClusterConfig,
              policy_kwargs: Optional[dict] = None,
              obs: Optional[ObsSession] = None,
              checkpoint_at: Optional[float] = None,
              checkpoint_to: Optional[str] = None) -> ExperimentResult:
    """Replay ``trace`` on a fresh cluster under ``policy_name``.

    ``obs`` attaches an observability session to the run: structured
    events, metrics (merged into ``summary.extra`` under ``obs.``),
    and per-phase wall times.  With ``obs=None`` (the default) every
    emit site stays a single disabled-bool check.

    ``checkpoint_at`` pauses the engine at that simulated time, writes
    a restorable snapshot to ``checkpoint_to`` (see
    :mod:`repro.sim.checkpoint`), and continues the run to completion —
    the written snapshot resumes byte-identically to the uninterrupted
    remainder.
    """
    if policy_name not in POLICIES:
        raise KeyError(f"unknown policy {policy_name!r}; "
                       f"choose from {sorted(POLICIES)}")
    if (checkpoint_at is None) != (checkpoint_to is None):
        raise ValueError("checkpoint_at and checkpoint_to go together")
    phase = obs.phase if obs is not None else (lambda name: nullcontext())
    cluster = Cluster(config)
    policy = POLICIES[policy_name](cluster, **(policy_kwargs or {}))
    collector = MetricsCollector(
        cluster, pending_probe=PolicyPendingProbe(policy))
    if obs is not None:
        obs.attach(cluster, policy=policy)
    with phase("build_jobs"):
        jobs = trace.build_jobs()
    for job in jobs:
        cluster.sim.schedule_at(job.submit_time,
                                functools.partial(policy.submit, job))
    if obs is not None:
        obs.bind_run(collector=collector, jobs=jobs, trace_name=trace.name)
    if checkpoint_at is not None:
        from repro.sim.checkpoint import save_checkpoint

        with phase("checkpoint"):
            cluster.sim.run(until=checkpoint_at)
            save_checkpoint(checkpoint_to, cluster=cluster, policy=policy,
                            collector=collector, jobs=jobs,
                            trace_name=trace.name)
    with phase("simulate"):
        if obs is not None:
            # Routes through the session's live-telemetry wrappers
            # (profiler span, paced HTTP serving); plain sessions
            # degenerate to sim.run().
            obs.run_engine(cluster.sim)
        else:
            cluster.sim.run()
    with phase("summarize"):
        summary = summarize_run(policy, jobs, collector, trace.name)
    if cluster.faults is not None:
        # Fault counters cross the process boundary with the summary;
        # fault-free runs add no keys (byte-identical extras, pinned).
        summary.extra.update(cluster.faults.extra_metrics())
    if obs is not None:
        obs.finalize(summary)
    return ExperimentResult(summary=summary, cluster=cluster,
                            policy=policy, collector=collector, trace=trace)


def run_experiment(group: WorkloadGroup, trace_index: int,
                   policy: str = "g-loadsharing", seed: int = 0,
                   config: Optional[ClusterConfig] = None,
                   scale: float = 1.0,
                   policy_kwargs: Optional[dict] = None,
                   nodes: Optional[int] = None,
                   obs: Optional[ObsSession] = None,
                   faults: Optional[FaultConfig] = None,
                   checkpoint_at: Optional[float] = None,
                   checkpoint_to: Optional[str] = None
                   ) -> ExperimentResult:
    """Generate the published trace and run it under ``policy``.

    ``nodes`` overrides the cluster size (the trace is regenerated for
    that topology, so home-node placement stays uniform).  ``obs``
    instruments the run (see :func:`run_trace`).  ``faults`` overrides
    the config's failure model (see :mod:`repro.faults`).
    ``checkpoint_at``/``checkpoint_to`` snapshot the run mid-flight
    (see :func:`run_trace`).
    """
    cfg = config if config is not None else default_config(group)
    if nodes is not None:
        cfg = cfg.replace(num_nodes=nodes)
    if faults is not None:
        cfg = cfg.replace(faults=faults)
    phase = obs.phase if obs is not None else (lambda name: nullcontext())
    with phase("build_trace"):
        trace = build_trace(group, trace_index, seed=seed,
                            num_nodes=cfg.num_nodes)
        trace = subsample_trace(trace, scale)
    return run_trace(trace, policy, cfg, policy_kwargs, obs=obs,
                     checkpoint_at=checkpoint_at,
                     checkpoint_to=checkpoint_to)


# ----------------------------------------------------------------------
# The command-line surface shared by this single-run CLI and the sweep
# CLI (``python -m repro.experiments``): one definition of every flag
# both take, one check of the obs flags, one way to build the obs
# session and write its files.
# ----------------------------------------------------------------------
def add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Define ``--seed``, ``--scale``, ``--nodes`` and ``--export-csv``."""
    parser.add_argument("--seed", type=int, default=0,
                        help="workload generation seed")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="trace subsampling factor in (0, 1]")
    parser.add_argument("--nodes", type=int, default=None, metavar="N",
                        help="override the cluster size (traces are "
                             "regenerated for the new topology)")
    parser.add_argument("--export-csv", metavar="PATH", default=None,
                        help="write the results as CSV (a run summary, "
                             "or a figure's comparison rows)")


def add_fault_flags(parser: argparse.ArgumentParser) -> None:
    """Define the fault-injection flags folded by
    :func:`build_fault_config`."""
    parser.add_argument("--faults", action="store_true",
                        help="enable fault injection with default "
                             "parameters (implied by the fault "
                             "options below)")
    parser.add_argument("--mtbf", type=float, default=None, metavar="S",
                        help="mean time between node crashes in "
                             "seconds (default 3600 when faults are "
                             "enabled)")
    parser.add_argument("--mttr", type=float, default=None, metavar="S",
                        help="mean time to repair a crashed node in "
                             "seconds (default 60)")
    parser.add_argument("--fault-seed", type=int, default=None,
                        metavar="N",
                        help="seed of the fault streams, independent "
                             "of the workload seed (default 0)")
    parser.add_argument("--crash-policy", default=None,
                        choices=["requeue", "checkpoint"],
                        help="fate of jobs on a crashed node "
                             "(default requeue)")


def build_fault_config(args) -> Optional[FaultConfig]:
    """Fold the fault flags into a :class:`FaultConfig` (None when none
    of them was given)."""
    given = {key: value for key, value in (
        ("mtbf_s", args.mtbf), ("mttr_s", args.mttr),
        ("fault_seed", args.fault_seed),
        ("crash_policy", args.crash_policy)) if value is not None}
    if not given and not args.faults:
        return None
    return FaultConfig(**given)


def add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Define the observability flags read by
    :func:`obs_session_from_args` and :func:`write_obs_outputs`."""
    parser.add_argument("--obs", action="store_true",
                        help="instrument the run (event bus + metrics; "
                             "implied by the obs options below); the "
                             "sweep CLI adds a live progress line and a "
                             "post-sweep timing table")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write a Chrome trace-event JSON of the "
                             "run (open in https://ui.perfetto.dev)")
    parser.add_argument("--log-json", metavar="PATH", default=None,
                        help="write the structured JSONL run log")
    parser.add_argument("--obs-metrics", metavar="PATH", default=None,
                        help="write the metrics snapshot as JSON")
    parser.add_argument("--report", metavar="PATH", default=None,
                        help="write a self-contained HTML report "
                             "(lifecycle tracing + slowdown "
                             "attribution; implies --obs)")
    parser.add_argument("--sample-period", type=float, default=None,
                        metavar="S",
                        help="sample per-node cluster state every S "
                             "simulated seconds (feeds the report "
                             "timelines; implies --obs)")
    parser.add_argument("--serve", type=int, default=None, metavar="PORT",
                        nargs="?", const=0,
                        help="serve live telemetry over HTTP on PORT "
                             "(omit or 0 for an ephemeral port): "
                             "/metrics /healthz /snapshot.json "
                             "/dashboard; implies --obs")
    parser.add_argument("--serve-port-file", metavar="PATH", default=None,
                        help="write the bound --serve port to PATH "
                             "(ephemeral-port discovery for scripts)")
    parser.add_argument("--pace", type=float, default=0.0, metavar="X",
                        help="advance at most X simulated seconds per "
                             "wall second while serving (0 = unpaced, "
                             "the default)")
    parser.add_argument("--window", type=float, default=None, metavar="S",
                        help="windowed-aggregation width in simulated "
                             "seconds (default 50 when serving or "
                             "health rules are active; implies --obs)")
    parser.add_argument("--health-rule", action="append", default=None,
                        metavar="RULE",
                        help="declarative health rule, e.g. "
                             "'blocking.rate > 0.5 for 3 windows' or "
                             "'critical: absent(finish.rate) for 5 "
                             "windows'; repeatable; implies --obs")
    parser.add_argument("--self-profile", action="store_true",
                        help="time engine phases (recompute/placement/"
                             "loadinfo/reconfiguration/obs) and fold "
                             "obs.profile_* into the summary; adds a "
                             "self-profile track to --trace-out; "
                             "implies --obs")


def check_obs_flags(parser: argparse.ArgumentParser, args) -> None:
    """Reject obs flag values no session can honour, before any run
    starts."""
    if args.serve is None:
        if args.pace:
            parser.error("--pace requires --serve")
        if args.serve_port_file:
            parser.error("--serve-port-file requires --serve")
    if args.pace < 0:
        parser.error("--pace must be >= 0")
    if args.sample_period is not None and args.sample_period <= 0:
        parser.error("--sample-period must be > 0")
    if args.window is not None and args.window <= 0:
        parser.error("--window must be > 0")
    with usage_errors(parser):
        for rule in args.health_rule or ():
            parse_rule(rule)


def obs_session_from_args(args, run_label: str, stream_log=None,
                          ingest_stdin: bool = False
                          ) -> Optional[ObsSession]:
    """The :class:`ObsSession` the obs flags ask for (None when no obs
    flag is set); ``stream_log`` also implies one."""
    if not (args.obs or args.trace_out or args.log_json
            or args.obs_metrics or args.report
            or args.sample_period is not None
            or args.serve is not None or args.window is not None
            or args.health_rule is not None or args.self_profile
            or stream_log is not None):
        return None
    return ObsSession(record_events=bool(args.trace_out or args.log_json),
                      run_label=run_label,
                      lifecycle=bool(args.report),
                      sample_period=args.sample_period,
                      stream_log=stream_log,
                      window_s=args.window,
                      health_rules=args.health_rule,
                      serve=args.serve,
                      serve_port_file=args.serve_port_file,
                      pace=args.pace,
                      profile=args.self_profile,
                      ingest_stdin=ingest_stdin)


def write_obs_outputs(session: ObsSession, args,
                      title: Optional[str] = None) -> None:
    """Write the ``--trace-out``, ``--log-json``, ``--obs-metrics`` and
    ``--report`` files of a finished, finalized run."""
    if args.trace_out:
        session.write_trace(args.trace_out)
        print(f"[wrote Perfetto trace {args.trace_out}]")
    if args.log_json:
        count = session.write_log(args.log_json)
        print(f"[wrote {count} JSONL events to {args.log_json}]")
    if args.obs_metrics:
        session.write_metrics(args.obs_metrics)
        print(f"[wrote metrics snapshot {args.obs_metrics}]")
    if args.report:
        session.write_report(args.report, title=title)
        print(f"[wrote HTML report {args.report}]")


@contextmanager
def usage_errors(parser: argparse.ArgumentParser):
    """Turn a validator's ValueError into a usage error (exit 2) that
    carries the validator's message."""
    try:
        yield
    except ValueError as exc:
        parser.error(str(exc))


def config_from_args(args, base: ClusterConfig,
                     **overrides) -> ClusterConfig:
    """``base`` with ``--nodes``, the fault flags and ``overrides``
    applied, once ``--scale`` has passed the stride rule.  The config
    constructors validate every value; wrap the call in
    :func:`usage_errors`."""
    subsample_stride(args.scale)
    if args.nodes is not None:
        overrides["num_nodes"] = args.nodes
    faults = build_fault_config(args)
    if faults is not None:
        overrides["faults"] = faults
    return base.replace(**overrides)


def build_parser() -> argparse.ArgumentParser:
    """The single-run CLI's argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner",
        description="Run one trace under one policy (optionally "
                    "profiled).")
    parser.add_argument("--group", choices=["spec", "app"], default="spec",
                        help="workload group (default spec)")
    parser.add_argument("--trace", type=int, default=3,
                        help="trace index 1..5 (default 3)")
    parser.add_argument("--policy", default="g-loadsharing",
                        choices=sorted(POLICIES),
                        help="scheduling policy (default g-loadsharing)")
    add_run_flags(parser)
    parser.add_argument("--domains", type=int, default=None, metavar="K",
                        help="partition the cluster into K load-info "
                             "domains (per-domain directory shards + "
                             "slower inter-domain summaries; default 1 "
                             "= one shard, no summaries)")
    parser.add_argument("--domain-exchange-interval", type=float,
                        default=None, metavar="S",
                        help="inter-domain summary exchange period in "
                             "seconds (staleness knob; default 5, "
                             "0 = always fresh)")
    add_fault_flags(parser)
    parser.add_argument("--profile", action="store_true",
                        help="wrap the run in cProfile and print the "
                             "top-25 cumulative entries")
    add_obs_flags(parser)
    parser.add_argument("--prom", metavar="PATH", default=None,
                        help="write the metrics in Prometheus text "
                             "exposition format (implies --obs)")
    parser.add_argument("--sampler-csv", metavar="PATH", default=None,
                        help="write the sampled cluster time series "
                             "as wide-row CSV (requires "
                             "--sample-period)")
    parser.add_argument("--stream-log", metavar="PATH", default=None,
                        help="stream every observed event to a "
                             "line-buffered JSONL file as it happens "
                             "(tail -f friendly; implies --obs)")
    parser.add_argument("--export-json", metavar="PATH", default=None,
                        help="write the run summary as JSON")
    parser.add_argument("--checkpoint-at", type=float, default=None,
                        metavar="T",
                        help="pause at simulated time T, write a "
                             "restorable snapshot to --checkpoint-to, "
                             "then continue to completion")
    parser.add_argument("--checkpoint-to", metavar="PATH", default=None,
                        help="checkpoint file path (required with "
                             "--checkpoint-at)")
    parser.add_argument("--restore-from", metavar="PATH", default=None,
                        help="restore a checkpoint instead of building "
                             "a trace, and run it to completion "
                             "(byte-identical to the uninterrupted "
                             "run; workload flags are ignored).  The "
                             "file is unpickled before any validation: "
                             "restore only checkpoints you wrote")
    parser.add_argument("--submit-stdin", action="store_true",
                        help="admit JSONL job specs from stdin into "
                             "the live run until EOF (requires "
                             "--serve; the run stays alive while "
                             "stdin is open)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Single-run CLI with an optional cProfile wrapper.

    ``python -m repro.experiments.runner --trace 3 --scale 0.25
    --profile`` prints the top-25 cumulative profile entries — the
    tool used to find the scheduling-layer hot spots, shipped with the
    repo so future regressions can be diagnosed the same way.
    """
    parser = build_parser()
    args = parser.parse_args(argv)

    group = (WorkloadGroup.SPEC if args.group == "spec"
             else WorkloadGroup.APP)
    overrides = {}
    if args.domains is not None:
        overrides["domains"] = args.domains
    if args.domain_exchange_interval is not None:
        overrides["domain_exchange_interval_s"] = \
            args.domain_exchange_interval
    with usage_errors(parser):
        trace_spec(args.trace)
        config = config_from_args(args, default_config(group), **overrides)

    if args.sampler_csv and args.sample_period is None:
        parser.error("--sampler-csv requires --sample-period")
    check_obs_flags(parser, args)
    if args.submit_stdin and args.serve is None:
        parser.error("--submit-stdin requires --serve")
    if (args.checkpoint_at is None) != (args.checkpoint_to is None):
        parser.error("--checkpoint-at and --checkpoint-to go together")
    if args.restore_from is not None and args.checkpoint_at is not None:
        parser.error("--restore-from cannot be combined with "
                     "--checkpoint-at")
    # --prom, this CLI's own obs artifact, implies --obs.
    args.obs = args.obs or bool(args.prom)
    obs = obs_session_from_args(
        args, f"{args.group}-trace-{args.trace} {args.policy}",
        stream_log=args.stream_log, ingest_stdin=args.submit_stdin)
    if obs is not None:
        # Killed service runs (systemd stop, supervisor timeouts) must
        # still unwind atexit handlers so the streaming JSONL log
        # closes at a line boundary; SIGTERM's default handler would
        # skip them.  Only the main thread may install this.
        import signal
        import sys as _sys
        try:
            signal.signal(signal.SIGTERM,
                          lambda signum, frame: _sys.exit(143))
        except ValueError:  # pragma: no cover - non-main thread
            pass

    def run() -> ExperimentResult:
        if args.restore_from is not None:
            from repro.sim.checkpoint import load_checkpoint, resume

            restored = load_checkpoint(args.restore_from)
            return resume(restored, obs=obs)
        return run_experiment(group, args.trace, policy=args.policy,
                              seed=args.seed, scale=args.scale,
                              config=config, obs=obs,
                              checkpoint_at=args.checkpoint_at,
                              checkpoint_to=args.checkpoint_to)

    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        result = profiler.runcall(run)
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative")
        stats.print_stats(25)
    else:
        result = run()

    summary = result.summary
    events = result.cluster.sim.event_count
    print(f"{summary.policy} on {summary.trace}: "
          f"{summary.num_jobs} jobs over {result.cluster.num_nodes} nodes, "
          f"makespan {summary.makespan_s:.1f}s, "
          f"avg slowdown {summary.average_slowdown:.2f}, "
          f"{summary.migrations} migrations, {events} events")
    fault_keys = sorted(k for k in summary.extra if k.startswith("fault."))
    if fault_keys:
        print("faults: " + ", ".join(
            f"{key[len('fault.'):]}={summary.extra[key]:g}"
            for key in fault_keys))

    if obs is not None:
        snapshot = obs.finalize()
        print(f"obs: {len(obs.events)} events recorded, "
              f"{snapshot.get('migrations', 0):.0f} migrations, "
              f"{snapshot.get('reservation_reserve', 0):.0f} reservations, "
              f"{snapshot.get('blocking_detections', 0):.0f} blocking "
              f"detections")
        if obs.health is not None:
            verdict = obs.health.verdict()
            print(f"health: {verdict['status']} "
                  f"({verdict['incidents']} incidents over "
                  f"{verdict['windows_evaluated']} windows)")
        if obs.profiler is not None:
            profile_report = obs.profiler.report()
            shares = ", ".join(
                f"{phase}={seconds:.3f}s"
                for phase, seconds in sorted(
                    profile_report["phases_s"].items(),
                    key=lambda item: -item[1]))
            print(f"profile: engine "
                  f"{profile_report['engine_wall_s']:.3f}s wall, "
                  f"coverage {profile_report['coverage']:.1%} ({shares})")
        if obs.live is not None:
            print(f"live: served {obs.live.requests_served} requests on "
                  f"{obs.live.url} ({obs.live.publishes} publishes)")
        write_obs_outputs(obs, args)
        if args.prom:
            samples = obs.write_prom(args.prom)
            print(f"[wrote {samples} Prometheus samples to {args.prom}]")
        if args.sampler_csv:
            rows = obs.write_sampler_csv(args.sampler_csv)
            print(f"[wrote {rows} sample rows to {args.sampler_csv}]")
    if args.export_csv or args.export_json:
        from repro.metrics.export import summaries_to_csv, summaries_to_json

        if args.export_csv:
            summaries_to_csv([summary], target=args.export_csv)
            print(f"[wrote {args.export_csv}]")
        if args.export_json:
            summaries_to_json([summary], target=args.export_json)
            print(f"[wrote {args.export_json}]")
    if obs is not None:
        obs.close()
    return 0


def run_group(group: WorkloadGroup, policy: str, seed: int = 0,
              config: Optional[ClusterConfig] = None,
              scale: float = 1.0,
              trace_indices: Optional[List[int]] = None,
              jobs: int = 1) -> List[RunSummary]:
    """Run all five traces of a group under one policy.

    ``jobs`` fans the independent per-trace runs out to worker
    processes (see :mod:`repro.experiments.parallel`); the returned
    summaries are identical to the serial ones, in trace order.
    """
    from repro.experiments.parallel import RunSpec, run_specs

    indices = trace_indices if trace_indices is not None else [1, 2, 3, 4, 5]
    specs = [RunSpec(group=group, trace_index=i, policy=policy, seed=seed,
                     scale=scale, config=config)
             for i in indices]
    return run_specs(specs, jobs=jobs)


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    import sys

    sys.exit(main())
