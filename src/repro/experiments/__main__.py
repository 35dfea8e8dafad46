"""CLI: regenerate the paper's tables and figures.

Usage::

    python -m repro.experiments all            # everything, full scale
    python -m repro.experiments all --jobs 8   # ... with 8 worker processes
    python -m repro.experiments table1 table2
    python -m repro.experiments figure1 --scale 0.25
    python -m repro.experiments figure1 --export-csv fig1.csv
    python -m repro.experiments figure1 --nodes 256 --scale 0.1
    python -m repro.experiments scenario       # constructed blocking demo
    python -m repro.experiments heterogeneity  # §2.3/§6 extension
    python -m repro.experiments ablations --scale 0.25 --jobs 0
    python -m repro.experiments figure3 --seed 7 --chart
    python -m repro.experiments figure1 --obs --jobs 4   # sweep telemetry
    python -m repro.experiments scenario --trace-out scenario.trace.json
    python -m repro.experiments degradation --scale 0.25 --jobs 0
    python -m repro.experiments scenario --faults --mtbf 600
    python -m repro.experiments whatif --whatif-at 300 --report whatif.html
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List

from repro.experiments import parallel
from repro.experiments.ablations import ALL_ABLATIONS
from repro.experiments.degradation import run_degradation_experiment
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.heterogeneity import run_heterogeneity_experiment
from repro.experiments.runner import (
    add_fault_flags,
    add_obs_flags,
    add_run_flags,
    check_obs_flags,
    config_from_args,
    default_config,
    obs_session_from_args,
    usage_errors,
    write_obs_outputs,
)
from repro.experiments.scenario import (
    large_job_slowdowns,
    run_blocking_scenario,
)
from repro.experiments.tables import render_table1, render_table2
from repro.experiments.topology import (
    DEFAULT_DOMAINS,
    DEFAULT_STALENESS,
    run_topology_experiment,
)
from repro.metrics.export import figure_to_csv
from repro.metrics.report import percentage_reduction, render_bar_chart
from repro.workload.programs import WorkloadGroup

TARGETS = (["table1", "table2"] + sorted(ALL_FIGURES)
           + ["scenario", "heterogeneity", "ablations", "degradation",
              "topology", "whatif"])

#: Targets that accept the shared fault-injection flags.
FAULT_TARGETS = ("scenario", "degradation", "whatif")


def _run_scenario(args, faults) -> None:
    obs_session = obs_session_from_args(args, "scenario v-reconfiguration")
    base = run_blocking_scenario("g-loadsharing", faults=faults)
    reco = run_blocking_scenario("v-reconfiguration", obs=obs_session,
                                 faults=faults)
    big_base = large_job_slowdowns(base)
    big_reco = large_job_slowdowns(reco)
    print("Constructed blocking scenario (32 nodes):")
    rows = [
        ("total paging time (s)", base.summary.total_paging_time_s,
         reco.summary.total_paging_time_s),
        ("mean large-job slowdown", sum(big_base) / len(big_base),
         sum(big_reco) / len(big_reco)),
        ("average slowdown (all)", base.summary.average_slowdown,
         reco.summary.average_slowdown),
    ]
    for name, g, v in rows:
        print(f"  {name:28s} G={g:12.2f} V={v:12.2f} "
              f"reduction={percentage_reduction(g, v):6.1f}%")
    print(f"  reservations={reco.summary.extra.get('reservations', 0)} "
          f"rescues="
          f"{reco.summary.extra.get('reconfiguration_migrations', 0)}")
    fault_keys = sorted(k for k in reco.summary.extra
                        if k.startswith("fault."))
    if fault_keys:
        print("  faults: " + ", ".join(
            f"{key[len('fault.'):]}={reco.summary.extra[key]:g}"
            for key in fault_keys))
    if obs_session is not None:
        write_obs_outputs(obs_session, args,
                          title="Run report — blocking scenario, "
                                "V-Reconfiguration")
        obs_session.close()


def build_parser() -> argparse.ArgumentParser:
    """The sweep CLI's argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the paper's tables and figures.",
        epilog="Target scopes: --nodes applies to figure and topology "
               "targets; --export-csv to one figure target; fault flags "
               "to scenario, degradation and whatif; --report to one of "
               "scenario, degradation, topology or whatif; "
               "--sample-period to scenario, degradation and topology; "
               "--trace-out, --log-json, --obs-metrics and the live "
               "flags (--serve, --window, --health-rule, --self-profile) "
               "to the scenario target's V-Reconfiguration run.")
    parser.add_argument("targets", nargs="+",
                        help=f"targets: all, {', '.join(TARGETS)}")
    add_run_flags(parser)
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for sweep targets "
                             "(1 = serial, 0 = one per core); results "
                             "are identical at any N")
    parser.add_argument("--chart", action="store_true",
                        help="also render ASCII bar charts for figures")
    add_obs_flags(parser)
    parser.add_argument("--domains", default=None, metavar="K1,K2,...",
                        help="comma-separated domain-count grid for the "
                             "topology target (default "
                             f"{','.join(str(k) for k in DEFAULT_DOMAINS)})")
    parser.add_argument("--domain-exchange-interval", default=None,
                        metavar="S1,S2,...",
                        help="comma-separated summary-staleness grid in "
                             "seconds for the topology target (default "
                             f"{','.join(f'{s:g}' for s in DEFAULT_STALENESS)})")
    parser.add_argument("--topology-policy", default=None,
                        metavar="POLICY",
                        help="policy swept by the topology target "
                             "(default v-reconfiguration)")
    parser.add_argument("--topology-blocking", action="store_true",
                        help="sweep the constructed blocking scenario "
                             "instead of a published trace (topology "
                             "target; the memory-pressured regime where "
                             "small domains force cross-domain "
                             "reservations)")
    add_fault_flags(parser)
    parser.add_argument("--whatif-at", type=float, default=None,
                        metavar="T",
                        help="simulated time at which the whatif "
                             "target snapshots its base run and "
                             "branches (default 300)")
    parser.add_argument("--whatif-base", default=None, metavar="POLICY",
                        help="policy of the whatif target's base run "
                             "(default g-loadsharing)")
    parser.add_argument("--whatif-checkpoint", default=None,
                        metavar="PATH",
                        help="keep the whatif target's snapshot file "
                             "at PATH (restorable with the runner's "
                             "--restore-from)")
    return parser


def main(argv: List[str] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    targets = list(args.targets)
    if "all" in targets:
        targets = list(TARGETS)

    unknown = [t for t in targets if t not in TARGETS]
    if unknown:
        parser.error(f"unknown targets: {unknown}; choose from {TARGETS}")

    figure_targets = [t for t in targets if t in ALL_FIGURES]
    if args.export_csv and len(figure_targets) != 1:
        parser.error("--export-csv needs exactly one figure target")
    nodes_targets = figure_targets + [t for t in targets
                                      if t == "topology"]
    if args.nodes is not None and len(nodes_targets) != len(targets):
        parser.error("--nodes applies to figure and topology targets "
                     "only")
    if (args.domains or args.domain_exchange_interval
            or args.topology_policy or args.topology_blocking) \
            and "topology" not in targets:
        parser.error("--domains/--domain-exchange-interval/"
                     "--topology-policy/--topology-blocking apply to "
                     "the topology target; add 'topology' to the "
                     "targets")
    try:
        domains_grid = (tuple(int(v) for v in args.domains.split(","))
                        if args.domains else DEFAULT_DOMAINS)
        staleness_grid = (tuple(float(v) for v in
                                args.domain_exchange_interval.split(","))
                          if args.domain_exchange_interval
                          else DEFAULT_STALENESS)
    except ValueError:
        parser.error("--domains/--domain-exchange-interval take "
                     "comma-separated numbers")
    if (args.trace_out or args.log_json or args.obs_metrics) \
            and "scenario" not in targets:
        parser.error("--trace-out/--log-json/--obs-metrics record the "
                     "scenario target; add 'scenario' to the targets")
    if (args.serve is not None or args.window is not None
            or args.health_rule is not None or args.self_profile) \
            and "scenario" not in targets:
        parser.error("--serve/--window/--health-rule/--self-profile "
                     "instrument the scenario target; add 'scenario' "
                     "to the targets")
    check_obs_flags(parser, args)
    report_targets = [t for t in targets if t in ("scenario",
                                                  "degradation",
                                                  "topology",
                                                  "whatif")]
    if args.report and len(report_targets) != 1:
        parser.error("--report needs exactly one of the scenario, "
                     "degradation, topology, or whatif targets")
    sample_targets = [t for t in targets if t in ("scenario",
                                                  "degradation",
                                                  "topology")]
    if args.sample_period is not None and not sample_targets:
        parser.error("--sample-period applies to the scenario, "
                     "degradation, and topology targets; add one of "
                     "them")
    if (args.whatif_at is not None or args.whatif_base
            or args.whatif_checkpoint) and "whatif" not in targets:
        parser.error("--whatif-at/--whatif-base/--whatif-checkpoint "
                     "apply to the whatif target; add 'whatif' to the "
                     "targets")
    with usage_errors(parser):
        faults = config_from_args(args,
                                  default_config(WorkloadGroup.SPEC)).faults
    if faults is not None and not any(t in FAULT_TARGETS for t in targets):
        parser.error("fault flags apply to the scenario and degradation "
                     f"targets only; add one of {list(FAULT_TARGETS)}")

    if args.obs:
        parallel.set_obs_default(True)
        parallel.enable_progress()
        parallel.pop_sweep_timings()  # start the buffer clean

    for target in targets:
        started = time.time()
        if target == "table1":
            print(render_table1())
        elif target == "table2":
            print(render_table2())
        elif target in ALL_FIGURES:
            result = ALL_FIGURES[target](seed=args.seed, scale=args.scale,
                                         jobs=args.jobs, nodes=args.nodes)
            print(result.render())
            if args.chart:
                for panel, rows in result.panels.items():
                    keys = [result.baseline[0].policy,
                            result.improved[0].policy]
                    print()
                    print(render_bar_chart(rows, "trace", keys,
                                           title=f"{target} — {panel}"))
            if args.export_csv:
                figure_to_csv(result, target=args.export_csv)
                print(f"[wrote {args.export_csv}]")
        elif target == "scenario":
            _run_scenario(args, faults)
        elif target == "degradation":
            report = run_degradation_experiment(
                seed=args.seed, scale=args.scale, jobs=args.jobs,
                fault_seed=(faults.fault_seed if faults is not None else 0),
                mttr_s=(faults.mttr_s if faults is not None else 60.0),
                lifecycle=bool(args.report),
                sample_period=args.sample_period)
            print(report.render())
            if args.report:
                report.write_report(args.report)
                print(f"[wrote HTML comparison report {args.report}]")
        elif target == "topology":
            report = run_topology_experiment(
                seed=args.seed, scale=args.scale, jobs=args.jobs,
                nodes=args.nodes,
                policy=(args.topology_policy or "v-reconfiguration"),
                domains_grid=domains_grid,
                staleness_grid=staleness_grid,
                blocking=args.topology_blocking,
                lifecycle=bool(args.report),
                sample_period=args.sample_period)
            print(report.render())
            if args.report:
                report.write_report(args.report)
                print(f"[wrote HTML comparison report {args.report}]")
        elif target == "whatif":
            from repro.experiments.whatif import (DEFAULT_BRANCH_AT,
                                                  run_whatif_experiment)
            report = run_whatif_experiment(
                seed=args.seed,
                branch_at=(args.whatif_at if args.whatif_at is not None
                           else DEFAULT_BRANCH_AT),
                base_policy=args.whatif_base or "g-loadsharing",
                faults=faults,
                checkpoint_path=args.whatif_checkpoint)
            print(report.render())
            if args.whatif_checkpoint:
                print(f"[kept snapshot {args.whatif_checkpoint}]")
            if args.report:
                report.write_report(args.report)
                print(f"[wrote HTML comparison report {args.report}]")
        elif target == "heterogeneity":
            report = run_heterogeneity_experiment(
                group=WorkloadGroup.APP, trace_index=3,
                seed=args.seed, scale=args.scale, jobs=args.jobs)
            print(report.render())
        elif target == "ablations":
            for name, fn in ALL_ABLATIONS.items():
                print(fn(seed=args.seed, scale=args.scale,
                         jobs=args.jobs).render())
                print()
        if args.obs:
            timings = parallel.pop_sweep_timings()
            if timings:
                print(parallel.render_sweep_timings(timings))
                print()
        print(f"[{target} done in {time.time() - started:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
