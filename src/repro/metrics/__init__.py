"""Metrics: sampling, per-run summaries, and report rendering.

Implements the paper's §4 measurements:

* **average slowdown** — wall-clock execution time over dedicated CPU
  execution time, averaged over all jobs of a trace;
* **total execution time** and its §5 breakdown (CPU, paging, queuing,
  migration);
* **average idle memory volume** — total idle memory sampled every
  second over the lifetime of the workload;
* **average job balance skew** — the per-second standard deviation of
  active job counts among non-reserved workstations, averaged over the
  lifetime.
"""

from repro.metrics.collector import MetricsCollector
from repro.metrics.export import (
    figure_to_csv,
    summaries_to_csv,
    summaries_to_json,
    summary_to_dict,
)
from repro.metrics.summary import RunSummary, summarize_run
from repro.metrics.report import (
    comparison_table,
    percentage_reduction,
    render_table,
)

__all__ = [
    "MetricsCollector",
    "RunSummary",
    "comparison_table",
    "figure_to_csv",
    "percentage_reduction",
    "render_table",
    "summaries_to_csv",
    "summaries_to_json",
    "summarize_run",
    "summary_to_dict",
]
