"""What-if replay: branch one run into competing policy universes.

The checkpoint layer (:mod:`repro.sim.checkpoint`) makes a mid-run
snapshot a first-class artifact; this experiment uses it the way an
operator would: run the constructed blocking scenario under a base
policy to a decision instant, snapshot, then replay the *identical*
remainder — same pending queue, same in-flight transfers, same RNG
futures — once per candidate policy.  Because every branch starts
from the same serialized world, the comparison isolates the policy
decision itself: no re-randomized workload, no divergent warm-up.

The control branch (the base policy continued) is restored *without*
forking, so it is byte-identical to the uninterrupted baseline run —
a built-in self-check that the branching harness adds nothing.
Forked branches swap the policy at the snapshot instant and inherit
the pending queue by reference (see
:func:`repro.sim.checkpoint.fork`).
"""

from __future__ import annotations

import html
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.scenario import run_blocking_scenario
from repro.experiments.world import World
from repro.sim.checkpoint import fork, load_checkpoint, resume

#: Decision instant (simulated seconds): the scenario's wedges are
#: detected and starving by now, but most work is still ahead, so the
#: branch policies genuinely compete for the remainder.
DEFAULT_BRANCH_AT = 300.0

#: Branches compared by default: the paper's two contenders.
DEFAULT_POLICIES = ("g-loadsharing", "v-reconfiguration")


@dataclass
class WhatifBranch:
    """One policy universe replayed from the shared snapshot."""

    policy_key: str
    forked: bool
    result: World

    @property
    def label(self) -> str:
        suffix = "" if self.forked else " (continued)"
        return f"{self.result.summary.policy}{suffix}"


@dataclass
class WhatifReport:
    """Baseline run plus the branches grown from its snapshot."""

    base_policy: str
    branch_at: float
    seed: int
    baseline: World
    branches: List[WhatifBranch] = field(default_factory=list)

    _METRICS = (
        ("average slowdown", "average_slowdown", "{:.2f}"),
        ("makespan (s)", "makespan_s", "{:.1f}"),
        ("total paging time (s)", "total_paging_time_s", "{:.1f}"),
        ("migrations", "migrations", "{:d}"),
    )

    def rows(self) -> List[Dict[str, object]]:
        """One row per metric, one column per branch."""
        out = []
        for name, attr, fmt in self._METRICS:
            row: Dict[str, object] = {"metric": name}
            for branch in self.branches:
                row[branch.label] = getattr(branch.result.summary, attr)
            out.append(row)
        return out

    def render(self) -> str:
        labels = [branch.label for branch in self.branches]
        width = max(len(label) for label in labels) + 2
        lines = [
            f"What-if replay — {self.base_policy} run branched at "
            f"t={self.branch_at:g}s (seed {self.seed}, "
            f"{self.baseline.cluster.num_nodes} nodes):"
        ]
        for name, attr, fmt in self._METRICS:
            cells = "".join(
                f"{fmt.format(getattr(b.result.summary, attr)):>{width}}"
                for b in self.branches)
            lines.append(f"  {name:26s}{cells}")
        header = "".join(f"{label:>{width}}" for label in labels)
        lines.insert(1, f"  {'':26s}{header}")
        return "\n".join(lines)

    def write_report(self, target: str) -> str:
        """Write a self-contained HTML comparison of the branches."""
        from repro.obs.report import write_report

        head = "".join(f"<th>{html.escape(b.label)}</th>"
                       for b in self.branches)
        body_rows = []
        for name, attr, fmt in self._METRICS:
            values = [getattr(b.result.summary, attr)
                      for b in self.branches]
            best = min(values)
            cells = "".join(
                f"<td class={'best' if v == best else 'v'}>"
                f"{fmt.format(v)}</td>" for v in values)
            body_rows.append(
                f"<tr><td class=m>{html.escape(name)}</td>{cells}</tr>")
        doc = f"""<!doctype html>
<html><head><meta charset="utf-8">
<title>What-if replay — branched at t={self.branch_at:g}s</title>
<style>
 body {{ font: 14px/1.5 system-ui, sans-serif; margin: 2rem; }}
 table {{ border-collapse: collapse; }}
 th, td {{ border: 1px solid #ccc; padding: .4rem .8rem;
           text-align: right; }}
 td.m {{ text-align: left; }}
 td.best {{ background: #e6f4e6; font-weight: 600; }}
 .note {{ color: #555; max-width: 60ch; }}
</style></head><body>
<h1>What-if replay</h1>
<p class=note>A {html.escape(self.base_policy)} run of the blocking
scenario (seed {self.seed}, {self.baseline.cluster.num_nodes} nodes)
was checkpointed at t={self.branch_at:g}s and the identical remainder
replayed under each policy below.  Every branch starts from the same
serialized world — pending queue, in-flight transfers and RNG futures
included — so the columns differ only by the policy decision.  The
continued branch is byte-identical to the uninterrupted baseline.</p>
<table><tr><th></th>{head}</tr>
{os.linesep.join(body_rows)}
</table></body></html>
"""
        return write_report(target, doc)


def run_whatif_experiment(seed: int = 0,
                          branch_at: float = DEFAULT_BRANCH_AT,
                          base_policy: str = "g-loadsharing",
                          policies: Sequence[str] = DEFAULT_POLICIES,
                          num_nodes: int = 32,
                          faults=None,
                          checkpoint_path: Optional[str] = None
                          ) -> WhatifReport:
    """Branch a scenario run at ``branch_at`` into one universe per
    policy in ``policies`` (see module docstring).

    ``checkpoint_path`` keeps the snapshot file for later inspection
    (``--restore-from`` under the same build); by default it lives in
    a temporary file deleted before returning.
    """
    own_path = checkpoint_path is None
    if own_path:
        handle, checkpoint_path = tempfile.mkstemp(suffix=".ckpt",
                                                   prefix="repro-whatif-")
        os.close(handle)
    try:
        baseline = run_blocking_scenario(
            base_policy, seed=seed, num_nodes=num_nodes, faults=faults,
            checkpoint_at=branch_at, checkpoint_to=checkpoint_path)
        report = WhatifReport(base_policy=base_policy,
                              branch_at=branch_at, seed=seed,
                              baseline=baseline)
        for policy_key in policies:
            restored = load_checkpoint(checkpoint_path)
            forked = policy_key != base_policy
            if forked:
                restored = fork(restored, policy=policy_key)
            report.branches.append(WhatifBranch(
                policy_key=policy_key, forked=forked,
                result=resume(restored)))
        return report
    finally:
        if own_path:
            os.unlink(checkpoint_path)


__all__ = ["DEFAULT_BRANCH_AT", "DEFAULT_POLICIES", "WhatifBranch",
           "WhatifReport", "run_whatif_experiment"]
