"""Regenerate the committed checkpoint fixture.

Run only after a *deliberate* checkpoint-schema change (bumping
``repro.sim.checkpoint.SCHEMA_VERSION``)::

    PYTHONPATH=src python tests/golden/make_checkpoint_fixture.py

Writes ``checkpoint_v<schema>.ckpt`` (a V-Reconfiguration blocking
scenario, 8 nodes, seed 0, snapshotted at t=250s) and the pinned
post-restore summary next to it.  The equivalence tests restore the
committed file and compare against the pin, so an *accidental* change
to the world layout fails loudly instead of silently invalidating
every checkpoint users have on disk.

After a deliberate change to what a resumed run counts (its
``event_count``), re-pin an existing fixture's summary from the
committed checkpoint, leaving the checkpoint itself untouched::

    PYTHONPATH=src python tests/golden/make_checkpoint_fixture.py --repin 1
"""

import argparse
import dataclasses
import json
import os

from repro.experiments.scenario import (SCENARIO_CLUSTER,
                                        run_blocking_scenario)
from repro.sim.checkpoint import SCHEMA_VERSION, load_checkpoint, resume

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKPOINT_AT = 250.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repin", type=int, metavar="SCHEMA",
                        help="re-pin the summary of the committed "
                             "checkpoint_v<SCHEMA>.ckpt instead of "
                             "writing a new fixture")
    args = parser.parse_args()
    schema = args.repin if args.repin is not None else SCHEMA_VERSION
    ckpt = os.path.join(GOLDEN_DIR, f"checkpoint_v{schema}.ckpt")
    summary_path = os.path.join(
        GOLDEN_DIR, f"checkpoint_v{schema}_summary.json")
    if args.repin is None:
        cfg = SCENARIO_CLUSTER.replace(num_nodes=8)
        run_blocking_scenario("v-reconfiguration", seed=0, config=cfg,
                              checkpoint_at=CHECKPOINT_AT,
                              checkpoint_to=ckpt)
    restored = load_checkpoint(ckpt)
    meta = dict(restored.meta)
    result = resume(restored)
    pinned = {
        "meta": meta,
        "event_count": result.cluster.sim.event_count,
        "summary": json.loads(json.dumps(
            dataclasses.asdict(result.summary), sort_keys=True)),
    }
    with open(summary_path, "w") as stream:
        json.dump(pinned, stream, indent=2, sort_keys=True)
        stream.write("\n")
    if args.repin is None:
        print(f"wrote {ckpt} ({os.path.getsize(ckpt)} bytes)")
    print(f"wrote {summary_path}")


if __name__ == "__main__":
    main()
