"""Compare benchmark results of a parent commit and a change.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the JSON files ``run.py --out FILE`` wrote, one
per invocation (one workload, or all of them).  Files pair up in name
order — the i-th parent file with the i-th change file — so name them
by pair index and run the two sides alternately, at least ten pairs,
all with the same seed.

For every workload x metric the table gives each side's median and
quartiles and the share of pairs the change wins (ties count for
neither).  End-to-end metrics get one verdict against the bounds in
``BENCHMARK.json``:

* ``gain``: the change wins at least 9/10 of the pairs and its median
  beats the parent's by more than the parent's interquartile range;
* ``regression``: the change's median is worse than the parent's by
  more than the metric's bound;
* ``loss``: a slowdown within the bound that the runs still resolve —
  the gain rule the other way round;
* ``unresolved``: none of these, but either side's spread (IQR over
  median) exceeds the bound, and not every change run beats every
  parent run;
* ``unchanged``: otherwise.

Per-layer metrics and the workload-specific numbers (``submit_p99_ms``,
``ingest_jobs_per_s``, ``checkpoint.*``, ...) have no bound.  They show
``gain``, ``loss`` or ``-``.  The exit code is 1 when any end-to-end
metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]

#: Pairs needed before a gain may be claimed.
MIN_PAIRS = 10

#: workload -> metric -> (value, unit, better); ``better`` is None for
#: a count that is neither.
Results = Dict[str, Dict[str, Tuple[float, str, Optional[str]]]]


def load_results(directory: Path, spec: dict) -> List[Results]:
    """Per file, in name order, every metric and workload-specific
    number of every workload in it."""
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    runs = []
    for path in sorted(directory.glob("*.json")):
        data = json.loads(path.read_text())
        records = (data["workloads"] if "workloads" in data
                   else {data["workload"]: data})
        run: Results = {}
        for workload, record in records.items():
            if not record:
                continue
            values = run.setdefault(workload, {})
            for name, entry in record["metrics"].items():
                values[name] = (entry["value"], entry["unit"], better[name])
            for name, entry in record.get("extras", {}).items():
                values[name] = (entry["value"], entry["unit"],
                                entry["better"])
        runs.append(run)
    return runs


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: List[float], change: List[float], lower_better: bool,
            bound: Optional[float]) -> str:
    sign = 1.0 if lower_better else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    losses = sum(1 for p, c in pairs if sign * (p - c) < 0)
    gap = sign * (p_med - c_med)
    if pairs and wins >= 0.9 * len(pairs) and gap > p_q3 - p_q1:
        return "gain"
    if bound is not None and p_med and -gap / abs(p_med) > bound:
        return "regression"
    if pairs and losses >= 0.9 * len(pairs) and -gap > p_q3 - p_q1:
        return "loss"
    if bound is None:
        return "-"
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parent = load_results(args.parent, spec)
    change = load_results(args.change, spec)
    pairs = min(len(parent), len(change))
    if pairs < MIN_PAIRS:
        print(f"warning: {pairs} pairs; a gain needs at least {MIN_PAIRS}",
              file=sys.stderr)
    print(f"{'workload':15s} {'metric':36s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'wins':>6s}  verdict")
    regressed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        # End-to-end metrics first, as declared, then the rest by name.
        order = list(bounds)
        names = sorted({name for run in parent[:pairs] + change[:pairs]
                        for name in run.get(workload, {})},
                       key=lambda name: (order.index(name), "")
                       if name in bounds else (len(order), name))
        for name in names:
            both = [(p[workload][name], c[workload][name])
                    for p, c in zip(parent[:pairs], change[:pairs])
                    if name in p.get(workload, {})
                    and name in c.get(workload, {})]
            better = both[0][0][2] if both else None
            if better is None:
                continue
            p_vals = [p[0] for p, _ in both]
            c_vals = [c[0] for _, c in both]
            lower = better == "lower"
            result = verdict(p_vals, c_vals, lower, bounds.get(name))
            regressed = regressed or result == "regression"
            wins = sum(1 for p, c in zip(p_vals, c_vals)
                       if (p - c if lower else c - p) > 0)
            p_q = "/".join(f"{v:.4g}" for v in quartiles(p_vals))
            c_q = "/".join(f"{v:.4g}" for v in quartiles(c_vals))
            print(f"{workload:15s} {name:36s} {p_q:>32s} {c_q:>32s} "
                  f"{wins:>3d}/{len(both):<2d}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
