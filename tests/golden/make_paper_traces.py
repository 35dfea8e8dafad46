"""Regenerate ``paper_traces.json``: the sha256 of ``Trace.dumps()``
for the ten paper traces at the seeds ``tests/test_trace.py`` pins.

Run only after a *deliberate* change to the generator or the trace
file format::

    PYTHONPATH=src python tests/golden/make_paper_traces.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

from test_trace import (  # noqa: E402
    PAPER_TRACES_GOLDEN_PATH, paper_trace_digests)


def main() -> None:
    with open(PAPER_TRACES_GOLDEN_PATH, "w") as stream:
        json.dump(paper_trace_digests(), stream, indent=1, sort_keys=True)
        stream.write("\n")
    print(f"wrote {PAPER_TRACES_GOLDEN_PATH}")


if __name__ == "__main__":
    main()
