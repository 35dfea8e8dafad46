"""Regenerate ``goldens.json``: ``RunSummary`` digests of the
simulation workloads at seeds 0 and 1.

Run from the repository root, after a change that is meant to alter
simulation results::

    python3 benchmarks/e2e/regen_goldens.py

The digests come from the runner's own entry points — ``run_trace``,
and for the what-if fork a checkpoint written by ``run_trace`` itself —
so the goldens also pin the benchmark's own world wiring (periodic
snapshots, explicit construction) to the runner's.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

SEEDS = (0, 1)


def golden_digests(seed: int) -> dict:
    from repro.experiments.runner import run_trace
    from repro.sim.checkpoint import fork, load_checkpoint, resume

    import workloads as w

    def cell_digests(cells):
        digests = {}
        for cell in cells:
            trace, config = cell.build(seed)
            result = run_trace(trace, cell.policy, config)
            digests[cell.key] = w.summary_digest(result.summary)
        return digests

    trace, config = w.WHATIF_INPUT.build(seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "fork_point.ckpt")
        base = run_trace(trace, w.WHATIF_INPUT.policy, config,
                         checkpoint_at=w.FORK_AT_S, checkpoint_to=path)
        forked = resume(fork(load_checkpoint(path),
                             policy=w.WHATIF_FORK_POLICY))
    return {
        "paper_sweep": cell_digests(w.PAPER_SWEEP),
        "blocking_heavy": cell_digests(w.BLOCKING_HEAVY),
        "scaled_domains": cell_digests(w.SCALED_DOMAINS),
        "whatif_fork": {"base": w.summary_digest(base.summary),
                        "fork": w.summary_digest(forked.summary)},
    }


def main() -> int:
    problem = run.bootstrap()
    if problem is not None:
        print(f"regen_goldens: {problem}", file=sys.stderr)
        return 2
    goldens: dict = {}
    for seed in SEEDS:
        for workload, digests in golden_digests(seed).items():
            goldens.setdefault(workload, {})[str(seed)] = digests
    run.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {run.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
