"""repro.obs — unified instrumentation layer.

A structured event bus threaded through every layer of the stack
(:mod:`repro.obs.bus`), a metrics registry
(:mod:`repro.obs.metrics`), Chrome-trace/JSONL exporters
(:mod:`repro.obs.trace_export`), per-job causal tracing with exact
slowdown attribution (:mod:`repro.obs.lifecycle`), periodic cluster
sampling (:mod:`repro.obs.sampler`), self-contained HTML reports
(:mod:`repro.obs.report`), and the per-run session object that ties
them together (:mod:`repro.obs.session`).

The live telemetry plane adds streaming windowed aggregation
(:mod:`repro.obs.window`), a declarative health-rule engine
(:mod:`repro.obs.health`), an HTTP monitoring server with paced
real-time execution (:mod:`repro.obs.live`), and engine
self-profiling (:mod:`repro.obs.profile`) — all opt-in via
``ObsSession(window_s=..., health_rules=..., serve=..., pace=...,
profile=True)``.

Observability is off by default and costs one boolean check per emit
site; enable it by attaching an :class:`ObsSession` to a run::

    from repro.obs import ObsSession
    obs = ObsSession(lifecycle=True, sample_period=10.0)
    result = run_experiment(..., obs=obs)
    obs.write_trace("trace.json")      # open in https://ui.perfetto.dev
    obs.write_log("run.jsonl")
    obs.write_report("run.html")       # slowdown attribution + timelines
    obs.write_prom("run.prom")         # Prometheus text exposition
    print(obs.finalize())              # metrics snapshot
"""

from repro.obs.bus import CHANNELS, Channel, EventBus, NULL_CHANNEL, ObsEvent
from repro.obs.health import (
    DEFAULT_RULES,
    HealthEngine,
    HealthRule,
    Incident,
    parse_rule,
)
from repro.obs.lifecycle import (
    ATTRIBUTION_KEYS,
    JobLifecycle,
    JobLifecycleTracker,
)
from repro.obs.live import LiveMonitor
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import EngineProfiler
from repro.obs.report import (
    render_comparison_report,
    render_live_dashboard,
    render_run_report,
    write_report,
)
from repro.obs.sampler import ClusterSampler
from repro.obs.session import EXTRA_PREFIX, ObsSession
from repro.obs.trace_export import chrome_trace, write_chrome_trace, write_jsonl
from repro.obs.window import P2Quantile, WindowAggregator, resolve_metric

__all__ = [
    "ATTRIBUTION_KEYS",
    "CHANNELS",
    "Channel",
    "ClusterSampler",
    "Counter",
    "DEFAULT_RULES",
    "EngineProfiler",
    "EventBus",
    "EXTRA_PREFIX",
    "Gauge",
    "HealthEngine",
    "HealthRule",
    "Histogram",
    "Incident",
    "JobLifecycle",
    "JobLifecycleTracker",
    "LiveMonitor",
    "MetricsRegistry",
    "NULL_CHANNEL",
    "ObsEvent",
    "ObsSession",
    "P2Quantile",
    "WindowAggregator",
    "chrome_trace",
    "parse_rule",
    "render_comparison_report",
    "render_live_dashboard",
    "render_run_report",
    "resolve_metric",
    "write_chrome_trace",
    "write_jsonl",
    "write_report",
]
