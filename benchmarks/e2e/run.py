"""End-to-end benchmark of the reproduction: five workloads, set-up /
run / answer-latency / memory metrics, and a traced per-layer
breakdown.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 0                 # all workloads
    python3 benchmarks/e2e/run.py --seed 0 --trace 1       # per-layer
    python3 benchmarks/e2e/run.py --workload paper_sweep --seed 3 \\
        --seconds 14 --trace 0

With ``--workload`` the workload runs in this process; without it each
workload runs in its own fresh subprocess, one at a time.  Metric
names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object; the exit code is non-zero when an
output check failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
GOLDENS = HERE / "goldens.json"

#: Where ``--trace 1`` runs write their Chrome traces by default, and
#: where a run of every workload collects each one's result (git-ignored).
OUT_DIR = HERE / "out"


def load_spec() -> dict:
    with open(BENCHMARK, encoding="utf-8") as stream:
        return json.load(stream)


def declared(spec: dict, trace: bool) -> List[dict]:
    return spec["per_layer" if trace else "end_to_end"]


def result_line(values: Dict[str, float], metrics: List[dict],
                attempted: int, failed: int, correct: bool) -> dict:
    """The result object: exactly the declared metrics, each with the
    unit ``BENCHMARK.json`` gives it."""
    names = [metric["name"] for metric in metrics]
    missing = sorted(set(names) - set(values))
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise ValueError(f"metrics do not match BENCHMARK.json: missing "
                         f"{missing}, undeclared {extra}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {metric["name"]: {"value": values[metric["name"]],
                                         "unit": metric["unit"]}
                        for metric in metrics}}


def print_table(title: str, result: dict, extras: dict) -> None:
    print(f"== {title} ==")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}")
    if extras:
        print("  -- workload-specific --")
        for name, extra in sorted(extras.items()):
            print(f"  {name:40s} {extra.value:>14.6g} {extra.unit}")
    print(f"  correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is in KiB on
    Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(m) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(m.setups),
        "run_s": m.run_s,
        "answer_ms": m.answer_s * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }


LOADINFO = ("LoadInfoDirectory.refresh", "LoadInfoDirectory.accepting_ids",
            "LoadInfoDirectory.load_order_ids", "LoadInfoDirectory.snapshots")
DOMAINS = ("DomainDirectory.refresh", "DomainDirectory.accepting_ids",
           "DomainDirectory.load_order_ids",
           "DomainDirectory.ranked_remote_domains",
           "DomainDirectory.summaries")
RECONFIG = ("VReconfiguration.on_blocking", "BlockingDetector.assess",
            "ReservationManager.reserve", "ReservationManager.assign",
            "ReservationManager.release")
SEARCH = "LoadSharingPolicy.find_migration_destination"
CANDIDATES = "LoadSharingPolicy.candidates_by_idle_memory"
SELECT = "GLoadSharing.select_node"


def per_layer_metrics(t, untraced, traced, cpu_s: float
                      ) -> Tuple[Dict[str, float], dict]:
    """Per-layer numbers from the tracer totals ``t`` of the traced
    half.  Returns the metrics every workload reaches (declared in
    ``BENCHMARK.json``) and the workload-specific ones: those of layers
    only some workloads reach, where a time would otherwise read 0."""
    from workloads import Extra, quantile

    searches = t.count(SEARCH)
    reserves = t.count("ReservationManager.reserve")
    harness = sum(value for (name, _), value in t.self_time.items()
                  if name.startswith("op "))
    values = {
        "sim.events": traced.events,
        "sim.events_per_s": untraced.events / untraced.event_run_s,
        "sim.schedule_calls": t.count("Simulator.schedule_at"),
        "sim.self_s": t.self_s("Simulator.run"),
        "workstation.job_changes": t.count("Workstation.add_job",
                                           "Workstation.remove_job"),
        "workstation.accepts_migration_calls": t.count(
            "Workstation.accepts_migration"),
        "workstation.self_s": t.self_s("Workstation.add_job",
                                       "Workstation.remove_job"),
        "memory.assess_calls": t.count("PagingModel.assess"),
        "memory.self_s": t.self_s("PagingModel.assess"),
        "network.transfers": t.count("Network.migrate"),
        "loadinfo.refreshes": t.count("LoadInfoDirectory.refresh"),
        "loadinfo.queries": t.count(*LOADINFO[1:]),
        "loadinfo.self_s": t.self_s(*LOADINFO),
        "scheduling.submits": t.count("LoadSharingPolicy.submit"),
        "scheduling.submit_self_s": (
            t.self_s("LoadSharingPolicy.submit", SELECT)
            + t.self_s(CANDIDATES, parent=SELECT)),
        "scheduling.dest_searches": searches,
        "scheduling.dest_search_hit_ratio": (
            t.hits.get(SEARCH, 0) / searches if searches else 0.0),
        "scheduling.migrations": t.count("LoadSharingPolicy.migrate"),
        "reconfig.on_blocking_calls": t.count("VReconfiguration.on_blocking"),
        "reconfig.reservations": reserves,
        "reconfig.reservation_use_ratio": (
            t.distinct.get("ReservationManager.assign", 0) / reserves
            if reserves else 0.0),
        "metrics.samples": t.count("MetricsCollector.sample"),
        "metrics.self_s": t.self_s("MetricsCollector.sample"),
        "metrics.summarize_s": t.self_s("summarize_run"),
        "setup.build_trace_s": t.self_s("TraceGenerator.build"),
        "setup.build_jobs_s": t.self_s("Trace.build_jobs"),
        "setup.cluster_s": t.self_s("Cluster.__init__"),
        "host.cpu_s": cpu_s,
        "trace.overhead": traced.run_s / untraced.run_s - 1.0,
        "trace.coverage": 1.0 - harness / t.root_time,
    }
    extras = dict(traced.extras)
    extras.update({
        "scheduling.dest_search_self_s": Extra(
            t.self_s(SEARCH) + t.self_s(CANDIDATES, parent=SEARCH), "s"),
        "reconfig.self_s": Extra(t.self_s(*RECONFIG), "s"),
    })
    if traced.domain_rounds:
        extras.update({
            "domains.refreshes": Extra(traced.domain_rounds, "count", None),
            "domains.queries": Extra(t.count(*DOMAINS[1:]), "count", None),
            "domains.self_s": Extra(t.self_s(*DOMAINS), "s"),
        })
    if t.count("LiveMonitor.publish"):
        publishes = t.durations["LiveMonitor.publish"]
        handled = t.durations.get("LiveMonitor.handle_submit", [0.0])
        extras.update({
            "obs.publish_p99_ms": Extra(quantile(publishes, 0.99) * 1e3,
                                        "ms"),
            "obs.publish_self_s": Extra(t.self_s("LiveMonitor.publish"), "s"),
            "obs.submit_handler_p50_ms": Extra(
                statistics.median(handled) * 1e3, "ms"),
            "obs.sampler_self_s": Extra(t.self_s("ClusterSampler.sample"),
                                        "s"),
            "obs.health_self_s": Extra(t.self_s("HealthEngine.evaluate"),
                                       "s"),
        })
    return values, extras


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 trace_dir: Path, spec: dict) -> Tuple[dict, dict]:
    """Measure one workload; returns the result object and the
    workload-specific extras."""
    import workloads
    from workloads import Extra
    from spans import Tracer

    with open(GOLDENS, encoding="utf-8") as stream:
        goldens = json.load(stream).get(name, {}).get(str(seed))
    ledger = workloads.Ledger(goldens)
    measure = workloads.WORKLOADS[name]
    if not trace:
        m = measure(seed, seconds, ledger)
        values, extras = end_to_end_metrics(m), m.extras
    else:
        # Half the time untraced (the baseline of trace.overhead, and
        # the summaries the traced half must reproduce), half traced.
        untraced = measure(seed, seconds / 2, ledger)
        tracer = Tracer()
        cpu = time.process_time()
        spanned = ledger.spanned_s
        with tracer.installed():
            traced = measure(seed, seconds / 2, ledger, tracer)
        spanned = ledger.spanned_s - spanned
        cpu = time.process_time() - cpu
        totals = tracer.totals()
        with ledger.op("traced summaries equal untraced") as op:
            for key, digest in traced.digests.items():
                op.check(untraced.digests.get(key) == digest,
                         f"{key}: traced summary differs")
        # Each operation's span tree sums its self times to its root
        # span; the root spans must cover the operations' wall time as
        # measured outside the tracer (a span left open or popped out
        # of order loses its tree's time).
        with ledger.op("op spans cover the operations' wall time") as op:
            covered = totals.root_s("op ")
            op.check(abs(covered - spanned) <= 0.01 * spanned,
                     f"op spans {covered:.6f}s, operations {spanned:.6f}s")
        values, extras = per_layer_metrics(totals, untraced, traced, cpu)
        trace_dir.mkdir(parents=True, exist_ok=True)
        written = tracer.write_chrome_trace(
            str(trace_dir / f"{name}.trace.json"),
            {"workload": name, "seed": seed, "spans_total": totals.spans})
        extras["trace.spans_written"] = Extra(written, "count", None)
    result = result_line(values, declared(spec, trace), ledger.attempted,
                         ledger.failed, ledger.failed == 0)
    return result, extras


# ----------------------------------------------------------------------
# every workload, each in a fresh subprocess
# ----------------------------------------------------------------------
def record_of(result: dict, extras: dict, **about) -> dict:
    """What ``--out`` stores: the result line, what was run, and the
    workload-specific numbers."""
    return dict(result, **about,
                extras={name: extra._asdict()
                        for name, extra in extras.items()})


def run_all(args, spec: dict) -> Tuple[dict, bool]:
    """Every workload in a fresh subprocess; returns the records of
    all of them."""
    records = {}
    ok = True
    for workload in spec_workloads(spec):
        out = OUT_DIR / f"{workload}.result.json"
        out.unlink(missing_ok=True)
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace),
                   "--trace-dir", str(args.trace_dir), "--out", str(out)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               check=False)
        print("\n".join(child.stdout.splitlines()[:-1]), flush=True)
        records[workload] = (json.loads(out.read_text()) if out.is_file()
                             else None)
        ok = ok and child.returncode == 0 and records[workload] is not None
    return {"seed": args.seed, "trace": args.trace,
            "workloads": records}, ok


def spec_workloads(spec: dict) -> List[str]:
    return [workload["name"] for workload in spec["workloads"]]


def bootstrap() -> Optional[str]:
    """Put the checkout's ``src`` first on the import path; returns an
    error message when the program's source is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"program source not found under {SRC}"
    sys.path.insert(0, str(SRC))
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        return f"imported repro from {repro.__file__}, not from {SRC}"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec_workloads(spec),
                        help="run one workload in this process "
                             "(default: all, each in a subprocess)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--trace-dir", type=Path, default=OUT_DIR,
                        help="where --trace 1 writes Chrome traces")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the result JSON to this file")
    args = parser.parse_args(argv)

    problem = bootstrap()
    if problem is not None:
        print(f"e2e benchmark: {problem}", file=sys.stderr)
        return 2
    if args.workload is None:
        output, ok = run_all(args, spec)
        record = output
    else:
        output, extras = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), args.trace_dir, spec)
        mode = "traced" if args.trace else "untraced"
        print_table(f"{args.workload} (seed {args.seed}, {args.seconds:g} s,"
                    f" {mode})", output, extras)
        ok = output["correct"]
        record = record_of(output, extras, workload=args.workload,
                           seed=args.seed, trace=args.trace)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(output), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
