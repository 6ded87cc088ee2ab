"""Exporters: span trees, JSON records, and Prometheus-style text.

Three renderings of the same data:

* :func:`render_span_tree` — the human-readable nested timing tree the
  benches print under ``--trace``;
* :func:`spans_to_dicts` / :func:`metrics` snapshots — the JSON shipped
  into ``BENCH_<name>.json`` records (see :mod:`repro.telemetry.bench`);
* :func:`render_prometheus` — ``# TYPE``-annotated exposition text for
  scraping a long-running process.

:func:`trace_signature` and :func:`metrics_signature` are the structural
views used by the determinism gates: span names, nesting, attributes, and
metric totals with timing values stripped out.  Two runs of the same
computation must produce byte-identical signatures.
"""

import re

_PROM_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def _fmt_seconds(value):
    if value is None:
        return "   open"
    return "%9.6f" % value


def _fmt_attrs(attrs, include=None):
    shown = {
        k: v
        for k, v in sorted(attrs.items())
        if k != "profile" and (include is None or k in include)
    }
    if not shown:
        return ""
    return "  {%s}" % ", ".join("%s=%r" % (k, v) for k, v in shown.items())


def render_span_tree(spans, include_timings=True):
    """An indented tree, one line per span, wall + CPU seconds."""
    lines = []

    def walk(span, depth):
        name = "%s%s" % ("  " * depth, span.name)
        if include_timings:
            lines.append(
                "%-48s wall %s s  cpu %s s%s%s"
                % (
                    name,
                    _fmt_seconds(span.wall),
                    _fmt_seconds(span.cpu),
                    _fmt_attrs(span.attrs),
                    "  !%s" % span.error if span.error else "",
                )
            )
        else:
            lines.append(
                "%s%s%s"
                % (name, _fmt_attrs(span.attrs),
                   "  !%s" % span.error if span.error else "")
            )
        for child in span.children:
            walk(child, depth + 1)

    for root in spans:
        walk(root, 0)
    return "\n".join(lines)


def spans_to_dicts(spans):
    """JSON-serializable form of a span list (recursive)."""

    def convert(span):
        return {
            "name": span.name,
            "wall_s": span.wall,
            "cpu_s": span.cpu,
            "attrs": dict(span.attrs),
            "error": span.error,
            "children": [convert(c) for c in span.children],
        }

    return [convert(s) for s in spans]


def trace_signature(spans):
    """Structure-only rendering: names, nesting, attributes — no timings."""
    return render_span_tree(spans, include_timings=False)


def metrics_signature(snapshot):
    """Deterministic rendering of a metrics snapshot."""
    lines = []
    for name in sorted(snapshot):
        value = snapshot[name]
        if isinstance(value, dict):
            lines.append(
                "%s count=%d sum=%s min=%s max=%s buckets=%s"
                % (
                    name,
                    value["count"],
                    value["sum"],
                    value["min"],
                    value["max"],
                    value["buckets"],
                )
            )
        else:
            lines.append("%s %s" % (name, value))
    return "\n".join(lines)


def _prom_name(name):
    return _PROM_SANITIZE.sub("_", name)


def render_prometheus(snapshot, prefix="repro"):
    """Prometheus-style exposition text for a metrics snapshot.

    Counters/gauges render as single samples; histograms as cumulative
    ``_bucket{le=...}`` samples plus ``_count`` and ``_sum``, matching the
    exposition-format conventions closely enough for a scraper.
    """
    lines = []
    for name in sorted(snapshot):
        value = snapshot[name]
        metric = "%s_%s" % (prefix, _prom_name(name))
        if isinstance(value, dict):
            lines.append("# TYPE %s histogram" % metric)
            cumulative = 0
            for bound, count in zip(value["bounds"], value["buckets"]):
                cumulative += count
                lines.append('%s_bucket{le="%s"} %d' % (metric, bound, cumulative))
            cumulative += value["buckets"][-1]
            lines.append('%s_bucket{le="+Inf"} %d' % (metric, cumulative))
            lines.append("%s_count %d" % (metric, value["count"]))
            lines.append("%s_sum %s" % (metric, value["sum"]))
        else:
            lines.append("# TYPE %s gauge" % metric)
            lines.append("%s %s" % (metric, value))
    return "\n".join(lines)


def stats_line(label, stats):
    """One-line ``key=value`` summary of a stats dict (insertion order)."""
    return "%s: %s" % (
        label,
        " ".join("%s=%s" % (k, v) for k, v in stats.items()),
    )
