"""Self-contained HTML reports for runs and sweeps.

Everything is inline — CSS, SVG, data tables — so a report is one file
that opens anywhere with no external dependencies, survives being
mailed around, and renders identically offline.

Two entry points:

* :func:`render_run_report` — one run: KPI tiles, the per-job slowdown
  attribution stacked bars (from
  :class:`~repro.obs.lifecycle.JobLifecycleTracker`), idle-memory and
  blocking timelines (from
  :class:`~repro.obs.sampler.ClusterSampler`), and the reservation
  Gantt.
* :func:`render_comparison_report` — a sweep: per-policy lines across
  the sweep axis plus mean-attribution stacked bars per point, built
  from flat :func:`comparison_row` dicts so rows cross process
  boundaries (parallel sweeps) untouched.

Design notes (the rules the charts follow): categorical colors are
assigned to *entities* in fixed order and never re-ranked; marks are
thin with surface-colored gaps between touching fills; gridlines are
solid hairlines; every chart carries a legend (at two or more series)
plus a table view, so no value is gated behind hover; dark mode is a
separately stepped palette behind ``prefers-color-scheme``, not a
color flip.  Attribution buckets and policy series sit below the
6-slot soft cap and the palettes validate for adjacent-pair CVD
separation in both modes.
"""

from __future__ import annotations

import html
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.state import FLAG_ALIVE, FLAG_RESERVED, FLAG_THRASHING
from repro.obs.lifecycle import ATTRIBUTION_KEYS, JobLifecycleTracker
from repro.obs.sampler import ClusterSampler

# ----------------------------------------------------------------------
# palette (validated: adjacent-pair CVD dE >= 8 and normal-vision
# dE >= 15 in both modes; light-mode sub-3:1 slots are relieved by the
# per-chart table view and legend)
# ----------------------------------------------------------------------

#: Attribution bucket -> fixed categorical slot.  Color follows the
#: bucket identity everywhere (stacked bars, legends, comparison).
BUCKET_LABELS = {
    "cpu": "CPU service", "paging": "Page-fault stalls",
    "io": "I/O", "contention": "CPU contention",
    "pending": "Queue wait", "transfer": "Migration transfer",
}
_LIGHT_SLOTS = ("#2a78d6", "#eb6834", "#1baf7a",
                "#eda100", "#e87ba4", "#008300")
_DARK_SLOTS = ("#3987e5", "#d95926", "#199e70",
               "#c98500", "#d55181", "#008300")

#: Sequential ramp steps for the reservation Gantt's two phases
#: (one hue, two shades: waiting light, serving dark).
_SEQ_LIGHT = ("#86b6ef", "#2a78d6")
_SEQ_DARK = ("#1c5cab", "#3987e5")

_CSS = """
:root { color-scheme: light dark; }
body {
  margin: 0; padding: 24px;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: #f9f9f7; color: #0b0b0b;
}
.viz-root {
  --surface-1: #fcfcfb; --text-primary: #0b0b0b;
  --text-secondary: #52514e; --text-muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --c-cpu: #2a78d6; --c-paging: #eb6834; --c-io: #1baf7a;
  --c-contention: #eda100; --c-pending: #e87ba4;
  --c-transfer: #008300;
  --seq-wait: #86b6ef; --seq-serve: #2a78d6;
  max-width: 900px; margin: 0 auto;
}
@media (prefers-color-scheme: dark) {
  body { background: #0d0d0d; color: #ffffff; }
  .viz-root {
    --surface-1: #1a1a19; --text-primary: #ffffff;
    --text-secondary: #c3c2b7; --text-muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --c-cpu: #3987e5; --c-paging: #d95926; --c-io: #199e70;
    --c-contention: #c98500; --c-pending: #d55181;
    --c-transfer: #008300;
    --seq-wait: #1c5cab; --seq-serve: #3987e5;
  }
}
h1 { font-size: 22px; font-weight: 650; margin: 0 0 4px; }
h2 { font-size: 15px; font-weight: 600; margin: 28px 0 8px;
     color: var(--text-primary); }
.subtitle { color: var(--text-secondary); font-size: 13px;
            margin: 0 0 20px; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 10px; padding: 16px 18px; margin: 12px 0;
}
.kpis { display: flex; flex-wrap: wrap; gap: 12px; margin: 16px 0; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 10px; padding: 12px 16px; min-width: 120px; flex: 1;
}
.tile .label { font-size: 12px; color: var(--text-secondary); }
.tile .value { font-size: 24px; font-weight: 600; margin-top: 2px; }
.legend { display: flex; flex-wrap: wrap; gap: 14px;
          font-size: 12px; color: var(--text-secondary);
          margin: 6px 0 10px; }
.legend .key { display: inline-flex; align-items: center; gap: 6px; }
.legend .swatch { width: 10px; height: 10px; border-radius: 2px;
                  display: inline-block; }
.legend .linekey { width: 16px; height: 2px; display: inline-block; }
svg { display: block; }
svg text { font-family: system-ui, -apple-system, "Segoe UI",
           sans-serif; }
.mark:hover { filter: brightness(1.12); }
details { margin-top: 10px; }
summary { font-size: 12px; color: var(--text-secondary);
          cursor: pointer; }
table { border-collapse: collapse; font-size: 12px; margin-top: 8px;
        width: 100%; }
th { text-align: left; color: var(--text-secondary); font-weight: 600;
     border-bottom: 1px solid var(--baseline); padding: 4px 8px; }
td { padding: 3px 8px; border-bottom: 1px solid var(--grid);
     font-variant-numeric: tabular-nums; }
td.name { font-variant-numeric: normal; }
footer { color: var(--text-muted); font-size: 11px; margin-top: 24px; }
"""


# ----------------------------------------------------------------------
# small helpers
# ----------------------------------------------------------------------

def _esc(value) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: float, digits: int = 3) -> str:
    """Compact human number: thousands commas, trimmed decimals."""
    if value is None:
        return "–"
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if float(value) == int(value):
        return f"{int(value):,}"
    return f"{value:.{digits}g}"


def _nice_ticks(lo: float, hi: float, target: int = 5) -> List[float]:
    """Clean tick positions covering [lo, hi] (1/2/5 ladder)."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(1, target)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mag * mult
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 10))
        t += step
    return ticks


def _rounded_right(x: float, y: float, w: float, h: float,
                   r: float = 4.0) -> str:
    """Path for a bar segment with rounded *data end* (right side)
    and square baseline side."""
    r = min(r, w / 2.0, h / 2.0)
    return (f"M{x:.2f},{y:.2f} H{x + w - r:.2f} "
            f"Q{x + w:.2f},{y:.2f} {x + w:.2f},{y + r:.2f} "
            f"V{y + h - r:.2f} "
            f"Q{x + w:.2f},{y + h:.2f} {x + w - r:.2f},{y + h:.2f} "
            f"H{x:.2f} Z")


def _legend(entries: Sequence[Tuple[str, str]], line: bool = False) -> str:
    """Legend row; ``entries`` are (label, css color) pairs."""
    swatch = "linekey" if line else "swatch"
    keys = "".join(
        f'<span class="key"><span class="{swatch}" '
        f'style="background:{color}"></span>{_esc(label)}</span>'
        for label, color in entries)
    return f'<div class="legend">{keys}</div>'


def _table(headers: Sequence[str], rows: Iterable[Sequence],
           summary: str = "Table view") -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = []
    for row in rows:
        cells = [f'<td class="name">{_esc(row[0])}</td>']
        cells += [f"<td>{_esc(cell)}</td>" for cell in row[1:]]
        body.append("<tr>" + "".join(cells) + "</tr>")
    return (f"<details><summary>{_esc(summary)}</summary>"
            f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{''.join(body)}</tbody></table></details>")


def _bucket_color(key: str) -> str:
    return f"var(--c-{key})"


# ----------------------------------------------------------------------
# chart builders (inline SVG)
# ----------------------------------------------------------------------

def stacked_bars(rows: Sequence[Tuple[str, Dict[str, float]]],
                 keys: Sequence[str] = ATTRIBUTION_KEYS,
                 unit: str = "s", width: int = 860) -> str:
    """Horizontal stacked bars, one row per entry.

    ``rows`` are (label, {key: value}) pairs; values share one linear
    x-axis starting at zero.  Segments are separated by a 2px surface
    gap; the outermost segment gets the 4px rounded data end.
    """
    if not rows:
        return '<p class="subtitle">No data.</p>'
    label_w, right_pad, bar_h, pitch, top = 170, 70, 18, 26, 8
    plot_w = width - label_w - right_pad
    height = top + pitch * len(rows) + 28
    total_max = max(sum(values.get(k, 0.0) for k in keys)
                    for _, values in rows) or 1.0
    scale = plot_w / total_max
    parts = [f'<svg viewBox="0 0 {width} {height}" role="img" '
             f'width="100%" style="max-width:{width}px">']
    # hairline gridlines + x ticks
    for tick in _nice_ticks(0.0, total_max):
        x = label_w + tick * scale
        parts.append(f'<line x1="{x:.1f}" y1="{top}" x2="{x:.1f}" '
                     f'y2="{height - 24}" stroke="var(--grid)" '
                     f'stroke-width="1"/>')
        parts.append(f'<text x="{x:.1f}" y="{height - 10}" '
                     f'font-size="11" fill="var(--text-muted)" '
                     f'text-anchor="middle">{_fmt(tick)}</text>')
    for i, (label, values) in enumerate(rows):
        y = top + i * pitch
        parts.append(f'<text x="{label_w - 8}" y="{y + bar_h - 5}" '
                     f'font-size="12" fill="var(--text-secondary)" '
                     f'text-anchor="end">{_esc(label)}</text>')
        segments = [(k, values.get(k, 0.0)) for k in keys
                    if values.get(k, 0.0) > 0]
        x = float(label_w)
        for j, (key, value) in enumerate(segments):
            w = value * scale
            gap = 2.0 if j < len(segments) - 1 else 0.0
            draw_w = max(0.0, w - gap)
            color = _bucket_color(key)
            tip = (f"{label} — {BUCKET_LABELS.get(key, key)}: "
                   f"{_fmt(value)} {unit}")
            if j == len(segments) - 1:
                shape = (f'<path class="mark" '
                         f'd="{_rounded_right(x, y, draw_w, bar_h)}" '
                         f'fill="{color}">')
            else:
                shape = (f'<rect class="mark" x="{x:.2f}" y="{y}" '
                         f'width="{draw_w:.2f}" height="{bar_h}" '
                         f'fill="{color}">')
            parts.append(f'{shape}<title>{_esc(tip)}</title>'
                         + ("</path>" if j == len(segments) - 1
                            else "</rect>"))
            x += w
        total = sum(v for _, v in segments)
        parts.append(f'<text x="{x + 6:.1f}" y="{y + bar_h - 5}" '
                     f'font-size="11" fill="var(--text-muted)">'
                     f'{_fmt(total)}</text>')
    # baseline
    parts.append(f'<line x1="{label_w}" y1="{top}" x2="{label_w}" '
                 f'y2="{height - 24}" stroke="var(--baseline)" '
                 f'stroke-width="1"/>')
    parts.append("</svg>")
    legend = _legend([(BUCKET_LABELS.get(k, k), _bucket_color(k))
                      for k in keys])
    table = _table(
        ["", *[BUCKET_LABELS.get(k, k) for k in keys], "Total"],
        [(label, *[_fmt(values.get(k, 0.0)) for k in keys],
          _fmt(sum(values.get(k, 0.0) for k in keys)))
         for label, values in rows])
    return legend + "".join(parts) + table


def line_chart(x: Sequence[float],
               series: Sequence[Tuple[str, str, Sequence[float]]],
               y_label: str = "", x_label: str = "time (s)",
               width: int = 860, height: int = 220,
               area: bool = False) -> str:
    """Multi-series line chart.  ``series`` entries are
    (label, css-color, values); all share ``x``.  Sample points carry
    enlarged transparent hit circles with native tooltips, so every
    value is hoverable without landing on the 2px line."""
    if not x or not series:
        return '<p class="subtitle">No samples.</p>'
    left, right_pad, top, bottom = 64, 16, 10, 34
    plot_w, plot_h = width - left - right_pad, height - top - bottom
    x_lo, x_hi = min(x), max(x) or 1.0
    y_hi = max((max(vals) for _, _, vals in series if vals),
               default=1.0) or 1.0
    ticks_y = _nice_ticks(0.0, y_hi)
    y_hi = max(y_hi, ticks_y[-1])

    def px(value: float) -> float:
        span = (x_hi - x_lo) or 1.0
        return left + (value - x_lo) / span * plot_w

    def py(value: float) -> float:
        return top + plot_h - value / y_hi * plot_h

    parts = [f'<svg viewBox="0 0 {width} {height}" role="img" '
             f'width="100%" style="max-width:{width}px">']
    for tick in ticks_y:
        y = py(tick)
        parts.append(f'<line x1="{left}" y1="{y:.1f}" '
                     f'x2="{width - right_pad}" y2="{y:.1f}" '
                     f'stroke="var(--grid)" stroke-width="1"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.1f}" '
                     f'font-size="11" fill="var(--text-muted)" '
                     f'text-anchor="end">{_fmt(tick)}</text>')
    for tick in _nice_ticks(x_lo, x_hi):
        parts.append(f'<text x="{px(tick):.1f}" y="{height - 16}" '
                     f'font-size="11" fill="var(--text-muted)" '
                     f'text-anchor="middle">{_fmt(tick)}</text>')
    parts.append(f'<text x="{width - right_pad}" y="{height - 2}" '
                 f'font-size="11" fill="var(--text-muted)" '
                 f'text-anchor="end">{_esc(x_label)}</text>')
    if y_label:
        parts.append(f'<text x="{left}" y="{top - 0}" font-size="11" '
                     f'fill="var(--text-muted)">{_esc(y_label)}</text>')
    parts.append(f'<line x1="{left}" y1="{top + plot_h}" '
                 f'x2="{width - right_pad}" y2="{top + plot_h}" '
                 f'stroke="var(--baseline)" stroke-width="1"/>')
    for label, color, values in series:
        points = [(px(t), py(v)) for t, v in zip(x, values)]
        path = " ".join(f"{'M' if i == 0 else 'L'}{p:.1f},{q:.1f}"
                        for i, (p, q) in enumerate(points))
        if area:
            wash = (path + f" L{points[-1][0]:.1f},{top + plot_h} "
                    f"L{points[0][0]:.1f},{top + plot_h} Z")
            parts.append(f'<path d="{wash}" fill="{color}" '
                         f'opacity="0.1"/>')
        parts.append(f'<path d="{path}" fill="none" stroke="{color}" '
                     f'stroke-width="2" stroke-linejoin="round" '
                     f'stroke-linecap="round"/>')
        # end marker: >=8px dot with a 2px surface ring
        ex, ey = points[-1]
        parts.append(f'<circle cx="{ex:.1f}" cy="{ey:.1f}" r="4" '
                     f'fill="{color}" stroke="var(--surface-1)" '
                     f'stroke-width="2"/>')
        # transparent hit circles (~24px target) with tooltips
        stride = max(1, len(points) // 120)
        for (p, q), t, v in list(zip(points, x, values))[::stride]:
            tip = f"{label} at t={_fmt(t)}s: {_fmt(v)}"
            parts.append(f'<circle cx="{p:.1f}" cy="{q:.1f}" r="12" '
                         f'fill="transparent"><title>{_esc(tip)}'
                         f'</title></circle>')
    parts.append("</svg>")
    legend = ""
    if len(series) > 1:
        legend = _legend([(label, color) for label, color, _ in series],
                         line=True)
    stride = max(1, len(x) // 40)
    table = _table(
        ["t (s)", *[label for label, _, _ in series]],
        [(_fmt(t), *[_fmt(vals[i]) for _, _, vals in series])
         for i, t in list(enumerate(x))[::stride]])
    return legend + "".join(parts) + table


def reservation_gantt(records: Sequence[dict], t_max: float,
                      width: int = 860) -> str:
    """Reservation timeline: one row per reservation; the waiting
    phase (reserve -> ready) in the light sequential step, the serving
    phase (ready -> close) in the dark step of the same hue."""
    if not records:
        return ('<p class="subtitle">No reservations were made in '
                'this run.</p>')
    label_w, right_pad, bar_h, pitch, top = 120, 90, 14, 22, 8
    plot_w = width - label_w - right_pad
    height = top + pitch * len(records) + 28
    t_max = t_max or 1.0
    scale = plot_w / t_max
    parts = [f'<svg viewBox="0 0 {width} {height}" role="img" '
             f'width="100%" style="max-width:{width}px">']
    for tick in _nice_ticks(0.0, t_max):
        x = label_w + tick * scale
        parts.append(f'<line x1="{x:.1f}" y1="{top}" x2="{x:.1f}" '
                     f'y2="{height - 24}" stroke="var(--grid)" '
                     f'stroke-width="1"/>')
        parts.append(f'<text x="{x:.1f}" y="{height - 10}" '
                     f'font-size="11" fill="var(--text-muted)" '
                     f'text-anchor="middle">{_fmt(tick)}</text>')
    rows = []
    for i, rec in enumerate(records):
        y = top + i * pitch
        start = rec["reserved_at"]
        ready = rec.get("ready_at")
        closed = rec.get("closed_at")
        end = closed if closed is not None else t_max
        mid = ready if ready is not None else end
        label = f'R{rec["reservation"]} · node {rec["node"]}'
        parts.append(f'<text x="{label_w - 8}" y="{y + bar_h - 3}" '
                     f'font-size="12" fill="var(--text-secondary)" '
                     f'text-anchor="end">{_esc(label)}</text>')
        wait_w = max(0.0, (mid - start) * scale - 2.0)
        tip = (f"{label}: reserved t={_fmt(start)}s, "
               f"ready {_fmt(ready) if ready is not None else '–'}s, "
               f"closed {_fmt(closed) if closed is not None else '–'}s"
               f" ({rec.get('outcome') or 'open'})")
        parts.append(f'<rect class="mark" '
                     f'x="{label_w + start * scale:.2f}" y="{y}" '
                     f'width="{wait_w:.2f}" height="{bar_h}" '
                     f'fill="var(--seq-wait)">'
                     f'<title>{_esc(tip)}</title></rect>')
        serve_w = (end - mid) * scale
        if serve_w > 0:
            parts.append(
                f'<path class="mark" d="'
                f'{_rounded_right(label_w + mid * scale, y, serve_w, bar_h)}'
                f'" fill="var(--seq-serve)">'
                f'<title>{_esc(tip)}</title></path>')
        outcome = rec.get("outcome") or "open"
        jobs = rec.get("jobs") or []
        parts.append(f'<text x="{label_w + end * scale + 6:.1f}" '
                     f'y="{y + bar_h - 3}" font-size="11" '
                     f'fill="var(--text-muted)">{_esc(outcome)}</text>')
        rows.append((label, _fmt(start),
                     _fmt(ready) if ready is not None else "–",
                     _fmt(closed) if closed is not None else "–",
                     outcome, " ".join(str(j) for j in jobs) or "–"))
    parts.append(f'<line x1="{label_w}" y1="{top}" x2="{label_w}" '
                 f'y2="{height - 24}" stroke="var(--baseline)" '
                 f'stroke-width="1"/>')
    parts.append("</svg>")
    legend = _legend([("Waiting for memory", "var(--seq-wait)"),
                      ("Serving dedicated jobs", "var(--seq-serve)")])
    table = _table(["Reservation", "Reserved (s)", "Ready (s)",
                    "Closed (s)", "Outcome", "Jobs"], rows)
    return legend + "".join(parts) + table


#: Severity -> lane color (reuses the report palette; warning borrows
#: the contention hue, critical the paging hue).
_SEVERITY_COLORS = {
    "info": "var(--c-cpu)",
    "warning": "var(--c-contention)",
    "critical": "var(--c-paging)",
}


def incident_lane(incidents: Sequence[dict], t_max: float,
                  width: int = 860) -> str:
    """Health-incident timeline: one row per incident, a bar from
    raise to clear (or the run end while still active), colored by
    severity.  ``incidents`` are
    :meth:`repro.obs.health.Incident.to_jsonable` dicts."""
    if not incidents:
        return ('<p class="subtitle">No health alerts fired during '
                'this run.</p>')
    label_w, right_pad, bar_h, pitch, top = 250, 90, 14, 22, 8
    plot_w = width - label_w - right_pad
    height = top + pitch * len(incidents) + 28
    t_max = t_max or 1.0
    scale = plot_w / t_max
    parts = [f'<svg viewBox="0 0 {width} {height}" role="img" '
             f'width="100%" style="max-width:{width}px">']
    for tick in _nice_ticks(0.0, t_max):
        x = label_w + tick * scale
        parts.append(f'<line x1="{x:.1f}" y1="{top}" x2="{x:.1f}" '
                     f'y2="{height - 24}" stroke="var(--grid)" '
                     f'stroke-width="1"/>')
        parts.append(f'<text x="{x:.1f}" y="{height - 10}" '
                     f'font-size="11" fill="var(--text-muted)" '
                     f'text-anchor="middle">{_fmt(tick)}</text>')
    rows = []
    for i, rec in enumerate(incidents):
        y = top + i * pitch
        raised = rec.get("raised_at", 0.0)
        cleared = rec.get("cleared_at")
        end = cleared if cleared is not None else t_max
        severity = rec.get("severity", "warning")
        color = _SEVERITY_COLORS.get(severity, "var(--c-pending)")
        rule = rec.get("rule", "?")
        parts.append(f'<text x="{label_w - 8}" y="{y + bar_h - 3}" '
                     f'font-size="12" fill="var(--text-secondary)" '
                     f'text-anchor="end">{_esc(rule)}</text>')
        state = ("cleared" if cleared is not None else "active")
        tip = (f"{severity}: {rule} — raised t={_fmt(raised)}s, "
               f"{state}"
               + (f" t={_fmt(cleared)}s" if cleared is not None else ""))
        bar_w = max(2.0, (end - raised) * scale)
        parts.append(f'<rect class="mark" '
                     f'x="{label_w + raised * scale:.2f}" y="{y}" '
                     f'width="{bar_w:.2f}" height="{bar_h}" '
                     f'fill="{color}">'
                     f'<title>{_esc(tip)}</title></rect>')
        parts.append(f'<text x="{label_w + end * scale + 6:.1f}" '
                     f'y="{y + bar_h - 3}" font-size="11" '
                     f'fill="var(--text-muted)">{_esc(state)}</text>')
        peak = rec.get("peak_value")
        rows.append((rule, severity, _fmt(raised),
                     _fmt(cleared) if cleared is not None else "–",
                     _fmt(peak) if peak is not None else "–", state))
    parts.append(f'<line x1="{label_w}" y1="{top}" x2="{label_w}" '
                 f'y2="{height - 24}" stroke="var(--baseline)" '
                 f'stroke-width="1"/>')
    parts.append("</svg>")
    legend = _legend([(sev, color)
                      for sev, color in _SEVERITY_COLORS.items()])
    table = _table(["Rule", "Severity", "Raised (s)", "Cleared (s)",
                    "Peak value", "State"], rows)
    return legend + "".join(parts) + table


# ----------------------------------------------------------------------
# page assembly
# ----------------------------------------------------------------------

def _page(title: str, subtitle: str, body: str,
          refresh_s: Optional[float] = None) -> str:
    refresh = ""
    if refresh_s is not None:
        refresh = f'<meta http-equiv="refresh" content="{refresh_s:g}">\n'
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"{refresh}"
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style></head>\n"
        f'<body><div class="viz-root">\n'
        f"<h1>{_esc(title)}</h1>\n"
        f'<p class="subtitle">{_esc(subtitle)}</p>\n'
        f"{body}\n"
        "<footer>Self-contained report — inline SVG, no external "
        "dependencies.</footer>\n"
        "</div></body></html>\n")


def _tiles(entries: Sequence[Tuple[str, str]]) -> str:
    tiles = "".join(
        f'<div class="tile"><div class="label">{_esc(label)}</div>'
        f'<div class="value">{_esc(value)}</div></div>'
        for label, value in entries)
    return f'<div class="kpis">{tiles}</div>'


def render_run_report(title: str, summary: Dict[str, float],
                      tracker: JobLifecycleTracker,
                      sampler: Optional[ClusterSampler] = None,
                      top_jobs: int = 12,
                      health=None) -> str:
    """One run's self-contained HTML report.  ``health`` (a
    :class:`~repro.obs.health.HealthEngine`) adds the incident lane."""
    finished = sorted(tracker.finished_jobs(),
                      key=lambda life: life.slowdown(), reverse=True)
    agg = tracker.aggregate()
    makespan = summary.get("makespan_s", 0.0)
    tiles = _tiles([
        ("Jobs", _fmt(summary.get("num_jobs", len(finished)))),
        ("Makespan", f"{_fmt(makespan)} s"),
        ("Mean slowdown", _fmt(summary.get("average_slowdown", 0.0))),
        ("Migrations", _fmt(summary.get("migrations", 0))),
        ("Reservations", _fmt(agg.get("lifecycle_reservations", 0))),
        ("Blocked time", f"{_fmt(agg.get('lifecycle_blocked_s', 0.0))} s"),
    ])

    # mean slowdown attribution + the slowest jobs, same buckets
    mean_row = ("All jobs (mean)",
                {k: agg.get(f"lifecycle_slowdown_{k}", 0.0)
                 for k in ATTRIBUTION_KEYS})
    job_rows = [(f"job {life.job_id} ({life.program})",
                 life.slowdown_attribution())
                for life in finished[:top_jobs]]
    attribution = (
        "<h2>Slowdown attribution</h2>"
        '<div class="card"><p class="subtitle">Each bar decomposes '
        "slowdown (wall time / dedicated CPU work) into where the "
        "time went; the mean bar first, then the slowest jobs.</p>"
        + stacked_bars([mean_row, *job_rows], unit="× work") + "</div>")

    timelines = ""
    if sampler is not None and sampler.num_samples:
        times = list(sampler.times)
        idle = sampler.totals("idle_mb")
        idle_chart = line_chart(
            times, [("Cluster idle memory", "var(--c-cpu)", idle)],
            y_label="idle MB", area=True)
        thrash = [float(v) for v in sampler.flag_counts(FLAG_THRASHING)]
        reserved = [float(v) for v in sampler.flag_counts(FLAG_RESERVED)]
        dead = [float(sampler.num_nodes - v)
                for v in sampler.flag_counts(FLAG_ALIVE)]
        node_series = [("Thrashing nodes", "var(--c-paging)", thrash),
                       ("Reserved nodes", "var(--c-io)", reserved)]
        if any(dead):
            node_series.append(("Down nodes", "var(--c-contention)",
                                dead))
        state_chart = line_chart(times, node_series, y_label="nodes")
        timelines = (
            "<h2>Idle memory &amp; blocking timeline</h2>"
            '<div class="card"><p class="subtitle">Idle memory is the '
            "reconfiguration routine's raw material; the node-state "
            "panel below shares the same time axis (two scales, two "
            "panels — never two y-axes).</p>"
            + idle_chart + state_chart + "</div>")

    gantt = ""
    records = [tracker.reservations[rid].to_jsonable()
               for rid in sorted(tracker.reservations)]
    gantt = ("<h2>Reservation timeline</h2>"
             '<div class="card">'
             + reservation_gantt(records, makespan) + "</div>")

    incidents_html = ""
    if health is not None:
        incidents_html = (
            "<h2>Health incidents</h2>"
            '<div class="card"><p class="subtitle">Alerts raised by '
            "the health-rule engine over the windowed metric stream; "
            "a bar spans raise to clear.</p>"
            + incident_lane(health.incident_records(), makespan)
            + "</div>")

    jobs_table = _table(
        ["Job", "Slowdown", "Wall (s)", "CPU work (s)", "Migrations",
         "Reservation wait (s)", "Blocked (s)"],
        [(f"{life.job_id} ({life.program})", _fmt(life.slowdown()),
          _fmt(life.wall_s), _fmt(life.cpu_work_s),
          _fmt(life.migrations), _fmt(life.reservation_wait_s),
          _fmt(life.blocked_s)) for life in finished],
        summary="All jobs")
    jobs = ('<h2>Per-job detail</h2><div class="card">'
            + jobs_table + "</div>")

    subtitle = (f"policy {summary.get('policy', '?')} · trace "
                f"{summary.get('trace', '?')} · "
                f"{_fmt(summary.get('num_jobs', len(finished)))} jobs")
    return _page(title, subtitle,
                 tiles + attribution + timelines + gantt
                 + incidents_html + jobs)


# ----------------------------------------------------------------------
# live dashboard
# ----------------------------------------------------------------------

def _history_series(history: Sequence[dict], *path,
                    default: float = 0.0) -> List[float]:
    """Extract one numeric series from snapshot history records by a
    nested key path (``"rates", "finish"`` etc.)."""
    out = []
    for record in history:
        value = record
        for key in path:
            value = value.get(key) if isinstance(value, dict) else None
            if value is None:
                break
        out.append(float(value) if value is not None else default)
    return out


def render_live_dashboard(title: str, snapshot: dict,
                          history: Sequence[dict], verdict: dict,
                          incidents: Sequence[dict],
                          refresh_s: float = 2.0,
                          paced: bool = False) -> str:
    """The ``/dashboard`` page: KPI tiles, windowed rate/quantile/
    staleness charts over the snapshot history, the health verdict,
    and the incident lane — auto-refreshing, fully self-contained
    (same inline-SVG components as the batch reports)."""
    now = snapshot.get("t", 0.0)
    totals = snapshot.get("totals", {})
    quantiles = snapshot.get("quantiles", {})
    status = verdict.get("status", "ok")
    tile_entries = [
        ("Sim time", f"{_fmt(now)} s"),
        ("Health", status),
        ("Jobs finished", _fmt(totals.get("jobs_finished", 0.0))),
        ("Pending jobs", _fmt(snapshot.get("pending_jobs", 0.0))),
        ("Requeues", _fmt(totals.get("requeues", 0.0))),
        ("Windows closed", _fmt(snapshot.get("window", 0.0))),
    ]
    if paced:
        tile_entries.append(
            ("Sim lag", f"{_fmt(snapshot.get('sim_lag_s', 0.0))} s"))
    body = [_tiles(tile_entries)]

    if len(history) >= 2:
        times = [record.get("t", 0.0) for record in history]
        throughput = line_chart(times, [
            ("submit /s", "var(--c-cpu)",
             _history_series(history, "rates", "submit")),
            ("finish /s", "var(--c-io)",
             _history_series(history, "rates", "finish")),
            ("requeue /s", "var(--c-contention)",
             _history_series(history, "rates", "requeue")),
        ], y_label="events / sim s")
        pressure = line_chart(times, [
            ("blocking /s", "var(--c-paging)",
             _history_series(history, "rates", "blocking")),
            ("remote placements /s", "var(--c-transfer)",
             _history_series(history, "rates", "placement_remote")),
        ], y_label="events / sim s")
        slowdown = line_chart(times, [
            ("slowdown p95", "var(--c-paging)",
             _history_series(history, "quantiles", "slowdown_p95")),
            ("slowdown p50", "var(--c-cpu)",
             _history_series(history, "quantiles", "slowdown_p50")),
        ], y_label="slowdown (x work)")
        staleness_series = [
            ("load-info age", "var(--c-pending)",
             _history_series(history, "staleness", "loadinfo_age_s"))]
        domain_age = _history_series(history, "staleness",
                                     "domain_summary_age_s", default=-1.0)
        if any(value >= 0 for value in domain_age):
            staleness_series.append(
                ("domain summary age", "var(--c-transfer)",
                 [max(0.0, value) for value in domain_age]))
        staleness = line_chart(times, staleness_series, y_label="age (s)")
        if paced:
            staleness += line_chart(times, [
                ("sim lag", "var(--c-contention)",
                 _history_series(history, "sim_lag_s"))],
                y_label="wall s behind")
        body.append("<h2>Throughput</h2>"
                    f'<div class="card">{throughput}</div>'
                    "<h2>Pressure</h2>"
                    f'<div class="card">{pressure}</div>'
                    "<h2>Slowdown quantiles (windowed)</h2>"
                    f'<div class="card">{slowdown}</div>'
                    "<h2>Load-info staleness</h2>"
                    f'<div class="card">{staleness}</div>')
    else:
        body.append('<p class="subtitle">Charts appear once the first '
                    'aggregation windows close.</p>')

    active = verdict.get("active", [])
    if active:
        body.append(
            "<h2>Active alerts</h2>"
            '<div class="card">'
            + _table(["Rule", "Severity", "Raised (s)", "Peak value"],
                     [(rec.get("rule", "?"), rec.get("severity", "?"),
                       _fmt(rec.get("raised_at", 0.0)),
                       _fmt(rec["peak_value"])
                       if rec.get("peak_value") is not None else "–")
                      for rec in active])
            + "</div>")
    body.append("<h2>Health incidents</h2>"
                '<div class="card">'
                + incident_lane(incidents, now) + "</div>")

    mode = (f"paced live run · auto-refresh {refresh_s:g}s"
            if paced else f"live run · auto-refresh {refresh_s:g}s")
    subtitle = (f"{mode} · health {status} · "
                f"{verdict.get('windows_evaluated', 0)} windows evaluated")
    return _page(title, subtitle, "".join(body), refresh_s=refresh_s)


# ----------------------------------------------------------------------
# comparison / sweep report
# ----------------------------------------------------------------------

#: Fixed policy -> color assignment (entity-stable: filtering a sweep
#: never repaints the survivors).
_POLICY_COLORS = ("var(--c-cpu)", "var(--c-paging)", "var(--c-io)",
                  "var(--c-contention)", "var(--c-pending)",
                  "var(--c-transfer)")


def comparison_row(label: str, policy: str, x: float,
                   summary) -> Dict[str, float]:
    """Flatten one run into a comparison-report row.

    ``summary`` is a :class:`~repro.metrics.summary.RunSummary` (or a
    dict of its fields).  Lifecycle aggregates are picked up from
    ``extra`` when the run was traced (``obs.lifecycle_*`` keys)."""
    if not isinstance(summary, dict):
        fields = {"average_slowdown": summary.average_slowdown,
                  "makespan_s": summary.makespan_s,
                  "total_queuing_time_s": summary.total_queuing_time_s,
                  "migrations": summary.migrations,
                  "extra": summary.extra}
    else:
        fields = summary
    row: Dict[str, float] = {
        "label": label, "policy": policy, "x": x,
        "average_slowdown": fields.get("average_slowdown", 0.0),
        "makespan_s": fields.get("makespan_s", 0.0),
        "total_queuing_time_s": fields.get("total_queuing_time_s", 0.0),
        "migrations": fields.get("migrations", 0),
    }
    extra = fields.get("extra") or {}
    for key in ATTRIBUTION_KEYS:
        row[f"slowdown_{key}"] = extra.get(
            f"obs.lifecycle_slowdown_{key}",
            extra.get(f"lifecycle_slowdown_{key}", 0.0))
    return row


def render_comparison_report(title: str, rows: Sequence[Dict],
                             x_label: str = "sweep point",
                             subtitle: str = "") -> str:
    """G-vs-V (or any multi-policy) sweep comparison report.

    ``rows`` come from :func:`comparison_row`; policies become line
    series across the sweep axis, each (policy, point) becomes one
    stacked attribution bar."""
    if not rows:
        return _page(title, subtitle or "empty sweep",
                     '<p class="subtitle">No runs.</p>')
    policies: List[str] = []
    for row in rows:
        if row["policy"] not in policies:
            policies.append(row["policy"])
    colors = {policy: _POLICY_COLORS[i % len(_POLICY_COLORS)]
              for i, policy in enumerate(policies)}
    xs = sorted({row["x"] for row in rows})

    def series_for(metric: str) -> List[Tuple[str, str, List[float]]]:
        out = []
        for policy in policies:
            by_x = {row["x"]: row[metric] for row in rows
                    if row["policy"] == policy}
            if len(by_x) == len(xs):
                out.append((policy, colors[policy],
                            [float(by_x[x]) for x in xs]))
        return out

    slowdown_chart = line_chart(xs, series_for("average_slowdown"),
                                y_label="mean slowdown",
                                x_label=x_label)
    makespan_chart = line_chart(xs, series_for("makespan_s"),
                                y_label="makespan (s)",
                                x_label=x_label)
    lines = ("<h2>Across the sweep</h2>"
             '<div class="card">' + slowdown_chart + "</div>"
             '<div class="card">' + makespan_chart + "</div>")

    attribution_rows = []
    for row in rows:
        values = {k: row.get(f"slowdown_{k}", 0.0)
                  for k in ATTRIBUTION_KEYS}
        if any(v > 0 for v in values.values()):
            attribution_rows.append((str(row["label"]), values))
    attribution = ""
    if attribution_rows:
        attribution = (
            "<h2>Slowdown attribution per run</h2>"
            '<div class="card"><p class="subtitle">Mean per-job '
            "slowdown decomposition at each sweep point (traced runs "
            "only).</p>"
            + stacked_bars(attribution_rows, unit="× work") + "</div>")

    table = _table(
        ["Run", "Policy", x_label, "Mean slowdown", "Makespan (s)",
         "Queueing (s)", "Migrations"],
        [(str(row["label"]), row["policy"], _fmt(row["x"]),
          _fmt(row["average_slowdown"]), _fmt(row["makespan_s"]),
          _fmt(row["total_queuing_time_s"]), _fmt(row["migrations"]))
         for row in rows],
        summary="All runs")
    table_section = '<h2>All runs</h2><div class="card">' + table + "</div>"

    subtitle = subtitle or (f"{len(rows)} runs · "
                            f"{', '.join(policies)} across {x_label}")
    return _page(title, subtitle, lines + attribution + table_section)


def write_report(path: str, html_text: str) -> str:
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(html_text)
    return path
