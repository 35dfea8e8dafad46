"""Regenerate the observer-output digests of ``tests/test_obs_golden.py``.

Runs every case of ``OBS_RUNS`` and writes its digests to
``obs_outputs.json``.  Run only after a *deliberate* change to what an
observer reports::

    PYTHONPATH=src python tests/golden/make_obs_golden.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

from test_obs_golden import (  # noqa: E402
    OBS_GOLDEN_PATH, OBS_RUNS, obs_digests)


def main() -> None:
    golden = {name: obs_digests(name) for name in sorted(OBS_RUNS)}
    with open(OBS_GOLDEN_PATH, "w") as stream:
        json.dump(golden, stream, indent=2, sort_keys=True)
        stream.write("\n")
    print(f"wrote {OBS_GOLDEN_PATH}")


if __name__ == "__main__":
    main()
