"""Structured benchmark records: ``BENCH_<name>.json``.

The benches used to print their numbers and exit, so the repo accumulated
no trajectory — every optimization PR re-measured from scratch.
:func:`write_bench_record` gives each bench one call that persists what the
run measured: the git revision, the bench configuration, the headline
results, a metrics snapshot, and (when tracing is enabled) the full span
tree.

Records are versioned (:data:`SCHEMA_VERSION`) and validated by
``python -m repro.telemetry check BENCH_*.json`` and by every
``trajectory`` run, so a bench that silently stops recording fails the
build rather than the next reader.
"""

import json
import os
import sys

from . import clocks, metrics
from .export import spans_to_dicts
from .trace import TRACER

SCHEMA_VERSION = 1

#: fields every record must carry (the ``check`` subcommand enforces this)
REQUIRED_FIELDS = (
    "schema",
    "bench",
    "git_rev",
    "created_unix",
    "python",
    "config",
    "results",
    "metrics",
)


def git_rev(root=None):
    """The repository's HEAD commit, or "unknown" outside a checkout."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root or os.getcwd(),
            capture_output=True,
            timeout=10,
        )
    except Exception:
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.decode("ascii", "replace").strip() or "unknown"


def build_record(name, config, results, created=None):
    """The record dict for one bench run (spans included when tracing).

    ``created_unix`` reads through the telemetry wall-clock funnel
    (:func:`repro.telemetry.clocks.wall`), never the ambient time source:
    under an injected ``FakeClock`` every field of the record — including
    the timestamp — is deterministic, which is what lets a replayed record
    be compared field-for-field against a certified one.  ``created``
    overrides the stamp explicitly (replay pins it to the certificate's).
    """
    record = {
        "schema": SCHEMA_VERSION,
        "bench": name,
        "git_rev": git_rev(),
        "created_unix": clocks.wall() if created is None else created,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "config": dict(config),
        "results": results,
        "metrics": metrics.snapshot(),
    }
    if TRACER.enabled:
        record["spans"] = spans_to_dicts(TRACER.roots)
    return record


def write_bench_record(name, config, results, directory=None,
                       certificate=True, history_dir=None, gate=None):
    """Write ``BENCH_<name>.json`` (to ``directory`` or the cwd); returns
    the path.  ``results`` must be JSON-serializable.

    Unless ``certificate=False``, a hash-committed ``CERT_<name>.json``
    run certificate is written next to the record, chained to the current
    head of ``benchmarks/history/<name>.jsonl`` (see
    :mod:`repro.telemetry.certify`).  ``gate=False`` marks the
    certificate as excluded from trajectory gating (demo records).
    """
    record = build_record(name, config, results)
    path = os.path.join(directory or os.getcwd(), "BENCH_%s.json" % name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=False)
        fh.write("\n")
    if certificate:
        from .certify import certify_record, write_certificate

        cert = certify_record(record, history_dir=history_dir, gate=gate)
        write_certificate(cert, directory)
    return path


def validate_metrics_consistency(metrics_dict):
    """Internal-consistency check of a record's metrics snapshot.

    Schema shape alone lets a silently corrupted record pass; this checks
    the invariants the live registry maintains: histogram ``count`` equals
    the sum of its buckets, ``min <= max`` whenever observations exist,
    bucket/bound vectors line up, and no counter went negative.
    """
    problems = []
    if not isinstance(metrics_dict, dict):
        return ["metrics is not an object"]
    for name in sorted(metrics_dict):
        value = metrics_dict[name]
        if isinstance(value, dict):
            missing = [k for k in ("count", "sum", "buckets") if k not in value]
            if missing:
                problems.append(
                    "%s: histogram missing %s" % (name, ", ".join(missing))
                )
                continue
            count, buckets = value["count"], value["buckets"]
            if not isinstance(buckets, list) or not all(
                isinstance(b, int) and not isinstance(b, bool) for b in buckets
            ):
                problems.append("%s: buckets is not a list of ints" % name)
                continue
            if any(b < 0 for b in buckets):
                problems.append("%s: negative bucket count" % name)
            if count != sum(buckets):
                problems.append(
                    "%s: count %r != sum(buckets) %r"
                    % (name, count, sum(buckets))
                )
            bounds = value.get("bounds")
            if bounds is not None and len(buckets) != len(bounds) + 1:
                problems.append(
                    "%s: %d buckets for %d bounds"
                    % (name, len(buckets), len(bounds))
                )
            lo, hi = value.get("min"), value.get("max")
            if count > 0:
                if lo is None or hi is None:
                    problems.append(
                        "%s: observations but min/max is null" % name
                    )
                elif lo > hi:
                    problems.append("%s: min %r > max %r" % (name, lo, hi))
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append("%s: non-numeric metric %r" % (name, value))
        elif value < 0:
            problems.append("%s: negative counter %r" % (name, value))
    return problems


def validate_record(record):
    """Schema-check one record dict; returns a list of problems ([] = ok)."""
    problems = []
    if not isinstance(record, dict):
        return ["record is not a JSON object"]
    for field in REQUIRED_FIELDS:
        if field not in record:
            problems.append("missing field %r" % field)
    if record.get("schema") != SCHEMA_VERSION:
        problems.append(
            "schema %r != %d" % (record.get("schema"), SCHEMA_VERSION)
        )
    if not isinstance(record.get("config", {}), dict):
        problems.append("config is not an object")
    metrics = record.get("metrics", {})
    if not isinstance(metrics, dict):
        problems.append("metrics is not an object")
    else:
        problems.extend(validate_metrics_consistency(metrics))
    spans = record.get("spans")
    if spans is not None:
        if not isinstance(spans, list):
            problems.append("spans is not a list")
        else:
            stack = list(spans)
            while stack:
                node = stack.pop()
                if not isinstance(node, dict) or "name" not in node:
                    problems.append("span node without a name")
                    break
                stack.extend(node.get("children", ()))
    return problems


def validate_file(path):
    """Schema-check one ``BENCH_*.json`` file; returns a problem list."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError) as exc:
        return ["unreadable: %s" % exc]
    return validate_record(record)
