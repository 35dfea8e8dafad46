"""Regenerate ``checkpoint_layout.json``: the pickled layout of paused
worlds, pinned with the checkpoint schema that names it.

A checkpoint restores only under the schema that wrote it, so any
change to what a world pickles (an attribute added or removed, a value
of a new type, a new class) must bump
``repro.sim.checkpoint.SCHEMA_VERSION``.  After a deliberate bump::

    PYTHONPATH=src python tests/golden/make_checkpoint_layout.py
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

from test_checkpoint_equivalence import (  # noqa: E402
    LAYOUT_GOLDEN_PATH, checkpoint_layout)


def main() -> None:
    with tempfile.TemporaryDirectory() as directory:
        layout = checkpoint_layout(directory)
    with open(LAYOUT_GOLDEN_PATH, "w") as stream:
        json.dump(layout, stream, indent=1, sort_keys=True)
        stream.write("\n")
    print(f"wrote {LAYOUT_GOLDEN_PATH}")


if __name__ == "__main__":
    main()
