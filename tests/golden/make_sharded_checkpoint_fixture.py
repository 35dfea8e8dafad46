"""Write a two-domain checkpoint fixture.

The run is the one of ``make_checkpoint_fixture.py`` (V-Reconfiguration
blocking scenario, 8 nodes, seed 0, snapshotted at t=250s) on a load
directory of two domains.  It writes ``checkpoint_v<schema>_d2.ckpt``
and the pinned post-restore summary next to it::

    PYTHONPATH=src python tests/golden/make_sharded_checkpoint_fixture.py

The committed ``checkpoint_v4_d2.ckpt`` was written this way at commit
261666e, the last schema-4 build, whose sharded exchange rescheduled
itself every round; its pinned ``event_count`` counts that build's
resumed events.
"""

import dataclasses
import json
import os

from make_checkpoint_fixture import CHECKPOINT_AT, GOLDEN_DIR

from repro.experiments.scenario import (SCENARIO_CLUSTER,
                                        run_blocking_scenario)
from repro.sim.checkpoint import SCHEMA_VERSION, load_checkpoint, resume


def main() -> None:
    name = os.path.join(GOLDEN_DIR, f"checkpoint_v{SCHEMA_VERSION}_d2")
    cfg = SCENARIO_CLUSTER.replace(num_nodes=8, domains=2)
    run_blocking_scenario("v-reconfiguration", seed=0, config=cfg,
                          checkpoint_at=CHECKPOINT_AT,
                          checkpoint_to=f"{name}.ckpt")
    restored = load_checkpoint(f"{name}.ckpt")
    meta = dict(restored.meta)
    result = resume(restored)
    pinned = {
        "meta": meta,
        "event_count": result.cluster.sim.event_count,
        "summary": json.loads(json.dumps(
            dataclasses.asdict(result.summary), sort_keys=True)),
    }
    with open(f"{name}_summary.json", "w") as stream:
        json.dump(pinned, stream, indent=2, sort_keys=True)
        stream.write("\n")
    print(f"wrote {name}.ckpt and {name}_summary.json")


if __name__ == "__main__":
    main()
