"""Regenerate the state-layout / selection-path golden summaries.

Runs every case of ``tests/test_paths_golden.py`` and writes its
record to ``summaries_paths.json``.  Run only after a *deliberate*
change to the simulated behavior::

    PYTHONPATH=src python tests/golden/make_paths_golden.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

from test_paths_golden import CASES, PATHS_GOLDEN_PATH  # noqa: E402


def main() -> None:
    golden = {key: run() for key, run in sorted(CASES.items())}
    with open(PATHS_GOLDEN_PATH, "w") as stream:
        json.dump(golden, stream, indent=2, sort_keys=True)
        stream.write("\n")
    print(f"wrote {PATHS_GOLDEN_PATH}")


if __name__ == "__main__":
    main()
