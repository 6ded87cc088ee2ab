"""repro.telemetry: tracing, metrics, and profiling for the NOPE pipeline.

A zero-dependency observability layer with three parts:

* **spans** (:mod:`.trace`) — hierarchical wall + CPU timing, off by
  default with a near-free no-op path; ``enable()`` turns recording on;
* **metrics** (:mod:`.metrics`) — always-on counters, gauges, and
  fixed-bucket histograms in a process-global registry;
* **exporters** (:mod:`.export`, :mod:`.bench`) — the human span tree,
  JSON ``BENCH_<name>.json`` records, and Prometheus-style text.

All time reads flow through :mod:`.clocks`; install a
``repro.clock.FakeClock`` there to make traces — and the prover's Fig. 5
timeline — deterministic.

Run ``python -m repro.telemetry`` for a traced miniature prover pipeline.

PR 10 adds **run certificates** (:mod:`.certify`): every bench run emits a
hash-committed, chained certificate; ``python -m repro.telemetry replay``
re-verifies the deterministic portions bit-identically under a fake
clock, and ``... trajectory`` gates current records against the
checked-in ``benchmarks/history`` chains.
"""

from . import clocks, export, metrics
from .bench import (
    build_record,
    git_rev,
    validate_file,
    validate_metrics_consistency,
    write_bench_record,
)
from .certify import (
    GENESIS,
    append_history,
    build_certificate,
    certify_record,
    compare_to_head,
    load_certificate,
    replay_certificate,
    run_trajectory,
    validate_certificate,
    verify_history,
    write_certificate,
)
from .clocks import get_clock, set_clock, use_clock
from .export import (
    metrics_signature,
    render_prometheus,
    render_span_tree,
    spans_to_dicts,
    stats_line,
    trace_signature,
)
from .metrics import REGISTRY, Counter, Gauge, Histogram
from .trace import NOOP_SPAN, TRACER, Span, disable, enable, is_enabled, span, traced


def render_trace(include_timings=True):
    """The recorded span forest as an indented text tree."""
    return render_span_tree(TRACER.roots, include_timings=include_timings)


def snapshot():
    """The global metrics registry's current snapshot."""
    return metrics.snapshot()


def reset():
    """Drop recorded spans and zero every metric (clock stays installed)."""
    TRACER.reset()
    metrics.reset()


__all__ = [
    "GENESIS",
    "REGISTRY",
    "TRACER",
    "NOOP_SPAN",
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "append_history",
    "build_certificate",
    "build_record",
    "certify_record",
    "compare_to_head",
    "load_certificate",
    "replay_certificate",
    "run_trajectory",
    "validate_certificate",
    "validate_metrics_consistency",
    "verify_history",
    "write_certificate",
    "clocks",
    "disable",
    "enable",
    "export",
    "get_clock",
    "git_rev",
    "is_enabled",
    "metrics",
    "metrics_signature",
    "render_prometheus",
    "render_span_tree",
    "render_trace",
    "reset",
    "set_clock",
    "snapshot",
    "span",
    "spans_to_dicts",
    "stats_line",
    "trace_signature",
    "traced",
    "use_clock",
    "validate_file",
    "write_bench_record",
]
