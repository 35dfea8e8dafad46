"""Exporters: run summaries and figure results to CSV / JSON.

A downstream user comparing against this reproduction should not have
to parse printed tables.  Every result object can be exported:

* :func:`summary_to_dict` / :func:`summaries_to_json` — run summaries;
* :func:`summaries_to_csv` — flat CSV, one row per (trace, policy);
* :func:`figure_to_csv` — a reproduced figure's comparison rows,
  including the paper-reported reductions where published.
"""

from __future__ import annotations

import csv
import io
import json
from typing import TYPE_CHECKING, Optional, Sequence, TextIO, Union

from repro.metrics.summary import RunSummary

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.figures import FigureResult

SUMMARY_FIELDS = (
    "trace", "policy", "num_jobs", "makespan_s",
    "total_execution_time_s", "total_queuing_time_s",
    "average_slowdown", "average_idle_memory_mb",
    "average_job_balance_skew", "total_cpu_time_s",
    "total_paging_time_s", "total_io_time_s",
    "total_migration_time_s", "total_pending_time_s",
    "migrations", "remote_submissions", "blocking_events",
)


def summary_to_dict(summary: RunSummary,
                    include_slowdowns: bool = False) -> dict:
    """Flatten a :class:`RunSummary` into plain JSON-able types."""
    data = {field: getattr(summary, field) for field in SUMMARY_FIELDS}
    data["extra"] = dict(summary.extra)
    if include_slowdowns:
        data["slowdowns"] = list(summary.slowdowns)
    return data


def summaries_to_json(summaries: Sequence[RunSummary],
                      target: Union[str, TextIO, None] = None,
                      include_slowdowns: bool = False) -> str:
    """Serialize summaries to JSON; write to ``target`` if given."""
    payload = json.dumps(
        [summary_to_dict(s, include_slowdowns) for s in summaries],
        indent=2, sort_keys=True)
    _write(payload, target)
    return payload


def summaries_to_csv(summaries: Sequence[RunSummary],
                     target: Union[str, TextIO, None] = None) -> str:
    """Serialize summaries to CSV (extra counters are JSON-encoded)."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer,
                            fieldnames=list(SUMMARY_FIELDS) + ["extra"])
    writer.writeheader()
    for summary in summaries:
        row = {field: getattr(summary, field)
               for field in SUMMARY_FIELDS}
        row["extra"] = json.dumps(summary.extra, sort_keys=True)
        writer.writerow(row)
    _write(buffer.getvalue(), target)
    return buffer.getvalue()


def figure_to_csv(figure: "FigureResult",
                  target: Union[str, TextIO, None] = None) -> str:
    """Export a reproduced figure's panel rows as CSV."""
    buffer = io.StringIO()
    writer: Optional[csv.DictWriter] = None
    for panel, rows in figure.panels.items():
        for row in rows:
            record = {"figure": figure.figure, "panel": panel}
            record.update({str(k): v for k, v in row.items()})
            if writer is None:
                writer = csv.DictWriter(buffer,
                                        fieldnames=list(record.keys()))
                writer.writeheader()
            writer.writerow(record)
    _write(buffer.getvalue(), target)
    return buffer.getvalue()


def _write(payload: str, target: Union[str, TextIO, None]) -> None:
    if target is None:
        return
    if isinstance(target, str):
        with open(target, "w") as stream:
            stream.write(payload)
    else:
        target.write(payload)
