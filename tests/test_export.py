"""Unit tests for the CSV/JSON exporters."""

import csv
import dataclasses
import io
import json

import pytest

from repro.metrics.collector import MetricsCollector
from repro.metrics.export import (
    SUMMARY_FIELDS,
    figure_to_csv,
    summaries_to_csv,
    summaries_to_json,
    summary_to_dict,
)
from repro.metrics.summary import RunSummary, summarize_run
from repro.scheduling import GLoadSharing

from helpers import drive, job, tiny_cluster


@pytest.fixture
def summary():
    cluster = tiny_cluster()
    policy = GLoadSharing(cluster)
    jobs = [job(work=10.0, home=i % 4) for i in range(4)]
    collector = MetricsCollector(cluster)
    drive(policy, jobs)
    cluster.sim.run()
    return summarize_run(policy, jobs, collector, "export-trace")


class TestSummaryFieldsSync:
    #: Fields carried outside the flat column list: ``extra`` is
    #: JSON-encoded into its own column, ``slowdowns`` is opt-in, and
    #: ``reservation_placements`` is derived from ``extra``.
    NON_COLUMN_FIELDS = {"extra", "slowdowns", "reservation_placements"}

    def test_summary_fields_match_dataclass(self):
        """A field added to RunSummary must be wired into
        SUMMARY_FIELDS (or explicitly listed above) or exports would
        silently drop it."""
        declared = {field.name for field in dataclasses.fields(RunSummary)}
        assert declared - self.NON_COLUMN_FIELDS == set(SUMMARY_FIELDS)

    def test_summary_fields_round_trip(self, summary):
        data = summary_to_dict(summary)
        for name in SUMMARY_FIELDS:
            assert data[name] == getattr(summary, name)


class TestSummaryExport:
    def test_dict_round_trip(self, summary):
        data = summary_to_dict(summary)
        assert data["trace"] == "export-trace"
        assert data["num_jobs"] == 4
        json.dumps(data)  # JSON-able

    def test_dict_with_slowdowns(self, summary):
        data = summary_to_dict(summary, include_slowdowns=True)
        assert len(data["slowdowns"]) == 4

    def test_json_export_and_load(self, summary, tmp_path):
        path = str(tmp_path / "out.json")
        summaries_to_json([summary, summary], target=path)
        with open(path) as stream:
            loaded = json.load(stream)
        assert len(loaded) == 2
        assert loaded[0]["policy"] == "G-Loadsharing"

    def test_json_to_stream(self, summary):
        buffer = io.StringIO()
        text = summaries_to_json([summary], target=buffer)
        assert buffer.getvalue() == text
        assert json.loads(text)[0]["num_jobs"] == 4

    def test_csv_export(self, summary, tmp_path):
        path = str(tmp_path / "out.csv")
        summaries_to_csv([summary], target=path)
        with open(path) as stream:
            rows = list(csv.DictReader(stream))
        assert len(rows) == 1
        assert rows[0]["trace"] == "export-trace"
        assert float(rows[0]["average_slowdown"]) >= 1.0
        assert json.loads(rows[0]["extra"]) == summary.extra


class TestFigureExport:
    def test_figure_csv(self):
        from repro.experiments.figures import figure3
        figure = figure3(scale=0.06, trace_indices=[1])
        text = figure_to_csv(figure)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows
        assert rows[0]["figure"] == "Figure 3"
        panels = {row["panel"] for row in rows}
        assert len(panels) == 2
