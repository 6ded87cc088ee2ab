"""Run certificates: hash-committed, chained, replayable bench records.

Every benchmark run produces two artifacts: the ``BENCH_<name>.json``
record (see :mod:`repro.telemetry.bench`) and a **run certificate** — a
canonical, hash-committed JSON document binding everything a reader needs
to re-verify the run's claims:

* the bench name, its full config, and the git revision;
* an environment fingerprint (the python version);
* the SHA-256 of the canonical record (``record_digest``);
* the SHA-256 of the run's ``metrics_signature`` (count-valued metrics)
  and ``trace_signature`` (span names/nesting/attributes — never timings);
* the headline results, the extracted count metrics, and the extracted
  wall-time results.

Certificates chain: each carries ``prev``, the digest of its predecessor
in ``benchmarks/history/<bench>.jsonl`` (or :data:`GENESIS` for the first
entry), so a rewritten interior entry breaks every digest after it.  The
checked-in history is append-only; :func:`append_history` refuses a
certificate that does not commit to the current head.

Two verifiers consume certificates:

* :func:`replay_certificate` re-executes the certified bench's ``replay``
  entrypoint under a ``FakeClock`` with the recorded config, and
  asserts the deterministic portions — metric counts and trace
  structure — match the certificate bit-identically (strict certs) or
  are bit-identical across two consecutive executions (structural
  certs, e.g. pytest-session records whose process-wide metrics mix
  several modules).
* :func:`run_trajectory` diffs the current ``BENCH_*.json`` records
  against each history head and fails on metric-count regressions
  (``msm.calls``, ``msm.bucket_adds``, the ``fft.size`` distribution,
  ``r1cs.constraints``, cache hit ratios) and on timing regressions beyond a configurable tolerance band.

Wall-times are deliberately *excluded* from the replay guarantee — they
are hardware facts, bounded only by the trajectory tolerance band — while
counts are *included*: a count drift is a code-path change, not noise.
"""

import hashlib
import hmac
import json
import os
import sys

from .bench import build_record
from .export import metrics_signature, render_span_tree

CERT_SCHEMA_VERSION = 1

#: the ``prev`` digest of the first certificate in a history chain
GENESIS = "0" * 64

#: written next to ``BENCH_<name>.json`` on every certified run
CERT_PREFIX = "CERT_"

#: benches whose certificates never participate in trajectory gating
#: (the telemetry demo is a smoke artifact, not a performance claim)
UNGATED_BENCHES = ("telemetry_demo",)

#: benches whose runs are deterministic without an explicit ``seed`` in
#: the config (fixed-seed workloads / no secrets-based randomness)
STRICT_BENCHES = ("telemetry_demo", "msm_kernel")

#: replay entrypoints that live inside the library rather than in a
#: ``benchmarks/bench_<name>.py`` module
INTERNAL_ENTRYPOINTS = {
    "telemetry_demo": "repro.telemetry.__main__:demo_replay",
}

#: config keys that do not shape the measured work (compared loosely by
#: the trajectory gate)
CONFIG_COMPARE_EXCLUDE = ("trace",)


# -- canonical form ----------------------------------------------------------


def canonical_json(obj):
    """The canonical serialization certificates are hashed over: sorted
    keys, no whitespace, ASCII-only.  Raises on non-JSON values."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True,
        allow_nan=False,
    )


def sha256_hex(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cert_digest(cert):
    """The self-digest: SHA-256 over the canonical form minus ``digest``."""
    body = {k: v for k, v in cert.items() if k != "digest"}
    return sha256_hex(canonical_json(body))


# -- signature / extraction helpers ------------------------------------------


class _SpanShim:
    """Adapter so :func:`render_span_tree` renders JSON span dicts (the
    structural view only — timings are never part of a signature)."""

    __slots__ = ("name", "attrs", "error", "children")

    def __init__(self, node):
        self.name = node.get("name", "")
        self.attrs = dict(node.get("attrs", {}))
        self.error = node.get("error")
        self.children = [_SpanShim(c) for c in node.get("children", ())]


def trace_signature_text(record):
    """The structural span rendering of a record's ``spans`` ("" if the
    run was untraced)."""
    spans = record.get("spans")
    if not spans:
        return ""
    return render_span_tree(
        [_SpanShim(s) for s in spans], include_timings=False
    )


def metrics_signature_text(record):
    """The count-metric rendering of a record's ``metrics`` snapshot.

    Delegates to :func:`repro.telemetry.export.metrics_signature`; every
    metric in this codebase is count-valued (sizes, calls, constraint
    counts), never a wall-time, which is what makes the signature
    replayable bit-identically under a fake clock.
    """
    return metrics_signature(record.get("metrics", {}))


def extract_counts(metrics_snapshot):
    """The trajectory-gated view of a metrics snapshot: every
    counter/gauge value, and each histogram's count/sum/bucket vector."""
    counts = {}
    for name in sorted(metrics_snapshot):
        value = metrics_snapshot[name]
        if isinstance(value, dict):
            counts[name] = {
                "count": value.get("count"),
                "sum": value.get("sum"),
                "buckets": list(value.get("buckets", ())),
            }
        else:
            counts[name] = value
    return counts


def extract_timings(results, prefix="", inherited=False):
    """Flatten the wall-time leaves out of a results tree.

    A numeric leaf is a timing when its key — or any ancestor key — ends
    with ``_s`` (the repo-wide seconds suffix), so nested tables like
    ``per_proof_s: {path: seconds}`` flatten to ``per_proof_s.<path>``.
    """
    timings = {}
    if not isinstance(results, dict):
        return timings
    for key, value in results.items():
        key_s = str(key)
        is_timing = inherited or key_s.endswith("_s")
        path = "%s.%s" % (prefix, key_s) if prefix else key_s
        if isinstance(value, dict):
            timings.update(extract_timings(value, path, is_timing))
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    timings.update(
                        extract_timings(item, "%s[%d]" % (path, i), is_timing)
                    )
        elif (
            is_timing
            and isinstance(value, (int, float))
            and not isinstance(value, bool)
        ):
            timings[path] = float(value)
    return timings


def environment_fingerprint():
    """What the run's numbers depend on besides the code and config: the
    python version."""
    return {"python": "%d.%d.%d" % sys.version_info[:3]}


def _bench_module(name):
    return name if name.startswith("bench_") else "bench_%s" % name


def replay_meta_for(name, config):
    """How (and how strictly) a cert's bench can be re-executed.

    Strict replay — the re-execution must match the certificate's
    signatures bit-identically — requires the original run to have been
    deterministic: either a fixed-workload bench (:data:`STRICT_BENCHES`)
    or a run with an explicit ``seed`` in its config.  pytest-session
    records are never strict: their metrics snapshot spans the whole
    session, which no single module can re-derive.
    """
    entrypoint = INTERNAL_ENTRYPOINTS.get(name)
    if entrypoint is None:
        entrypoint = "%s:replay" % _bench_module(name)
    strict = name in STRICT_BENCHES or config.get("seed") is not None
    if config.get("pytest_benchmark"):
        strict = False
    return {"entrypoint": entrypoint, "strict": bool(strict)}


# -- certificate construction ------------------------------------------------


def build_certificate(record, prev=GENESIS, gate=None, replay=None):
    """The certificate for one bench record, committing to ``prev``."""
    name = record.get("bench", "")
    config = record.get("config", {})
    trace_text = trace_signature_text(record)
    cert = {
        "schema": CERT_SCHEMA_VERSION,
        "bench": name,
        "git_rev": record.get("git_rev", "unknown"),
        "created_unix": record.get("created_unix", 0),
        "environment": environment_fingerprint(),
        "config": dict(config),
        "results": record.get("results", {}),
        "record_digest": sha256_hex(canonical_json(record)),
        "metrics_signature": sha256_hex(metrics_signature_text(record)),
        "trace_signature": sha256_hex(trace_text) if trace_text else "",
        "counts": extract_counts(record.get("metrics", {})),
        "timings": extract_timings(record.get("results", {})),
        "replay": replay or replay_meta_for(name, config),
        "gate": bool(gate if gate is not None else name not in UNGATED_BENCHES),
        "prev": prev,
    }
    cert["digest"] = cert_digest(cert)
    return cert


def validate_certificate(cert):
    """Structural + digest check of one certificate; [] when valid."""
    problems = []
    if not isinstance(cert, dict):
        return ["certificate is not a JSON object"]
    for field in ("schema", "bench", "config", "counts", "metrics_signature",
                  "record_digest", "prev", "digest"):
        if field not in cert:
            problems.append("missing field %r" % field)
    if problems:
        return problems
    if cert["schema"] != CERT_SCHEMA_VERSION:
        problems.append("schema %r != %d" % (cert["schema"], CERT_SCHEMA_VERSION))
    try:
        expected = cert_digest(cert)
    except (TypeError, ValueError) as exc:
        return problems + ["uncanonicalizable: %s" % exc]
    if not hmac.compare_digest(str(cert["digest"]), expected):
        problems.append(
            "digest mismatch: stored %s != computed %s"
            % (cert["digest"][:16], expected[:16])
        )
    return problems


# -- history chains ----------------------------------------------------------


def default_history_dir(base=None):
    return os.path.join(base or os.getcwd(), "benchmarks", "history")


def history_path(name, history_dir=None):
    return os.path.join(history_dir or default_history_dir(), "%s.jsonl" % name)


def read_history(path):
    """The certificate chain in one ``.jsonl`` file (oldest first)."""
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


def verify_history(entries):
    """Chain-check a history: every digest recomputes, every ``prev``
    commits to its predecessor, the first entry starts at GENESIS, and
    all entries certify the same bench.  Returns a problem list."""
    problems = []
    prev_digest = GENESIS
    bench = None
    for i, cert in enumerate(entries):
        for problem in validate_certificate(cert):
            problems.append("entry %d: %s" % (i, problem))
        if not isinstance(cert, dict):
            continue
        if bench is None:
            bench = cert.get("bench")
        elif cert.get("bench") != bench:
            problems.append(
                "entry %d: bench %r != %r" % (i, cert.get("bench"), bench)
            )
        if not hmac.compare_digest(str(cert.get("prev")), prev_digest):
            problems.append(
                "entry %d: prev %s does not commit to predecessor digest %s"
                % (i, str(cert.get("prev"))[:16], prev_digest[:16])
            )
        prev_digest = cert.get("digest", "")
    return problems


def history_head(name, history_dir=None):
    """The newest certificate in a bench's history, or None."""
    path = history_path(name, history_dir)
    if not os.path.exists(path):
        return None
    entries = read_history(path)
    return entries[-1] if entries else None


def append_history(cert, history_dir=None):
    """Append one certificate to its bench's chain (append-only: the
    cert must commit to the current head's digest).  Returns the path."""
    problems = validate_certificate(cert)
    if problems:
        raise ValueError("invalid certificate: %s" % "; ".join(problems))
    directory = history_dir or default_history_dir()
    os.makedirs(directory, exist_ok=True)
    path = history_path(cert["bench"], directory)
    head = None
    if os.path.exists(path):
        entries = read_history(path)
        chain_problems = verify_history(entries)
        if chain_problems:
            raise ValueError(
                "refusing to extend a broken chain %s: %s"
                % (path, "; ".join(chain_problems))
            )
        head = entries[-1] if entries else None
    expected_prev = head["digest"] if head else GENESIS
    if cert["prev"] != expected_prev:
        raise ValueError(
            "certificate prev %s does not commit to history head %s "
            "(re-certify against the current head)"
            % (cert["prev"][:16], expected_prev[:16])
        )
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(canonical_json(cert))
        fh.write("\n")
    return path


def certify_record(record, history_dir=None, gate=None):
    """The certificate for ``record``, chained to the current history
    head for its bench (GENESIS when no history exists yet)."""
    head = history_head(record.get("bench", ""), history_dir)
    prev = head["digest"] if head else GENESIS
    return build_certificate(record, prev=prev, gate=gate)


def certificate_path(name, directory=None):
    return os.path.join(
        directory or os.getcwd(), "%s%s.json" % (CERT_PREFIX, name)
    )


def write_certificate(cert, directory=None):
    """Write ``CERT_<bench>.json`` (human-indented; the canonical form is
    what the digest commits to, so pretty-printing is safe)."""
    path = certificate_path(cert["bench"], directory)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cert, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_certificate(path):
    """One certificate from a ``CERT_*.json`` file or the head of a
    ``.jsonl`` history chain (after verifying the whole chain)."""
    if path.endswith(".jsonl"):
        entries = read_history(path)
        if not entries:
            raise ValueError("empty history %s" % path)
        problems = verify_history(entries)
        if problems:
            raise ValueError("broken chain %s: %s" % (path, "; ".join(problems)))
        return entries[-1]
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- deterministic replay ----------------------------------------------------


def _load_entrypoint(entrypoint, benchmarks_dir=None):
    """Resolve ``module:function``: dotted modules import normally,
    ``bench_*`` modules load from the benchmarks directory by path."""
    module_name, _, func_name = entrypoint.partition(":")
    if not func_name:
        raise ValueError("entrypoint %r is not module:function" % entrypoint)
    if module_name.startswith("bench_"):
        import importlib.util

        directory = benchmarks_dir or os.path.join(os.getcwd(), "benchmarks")
        path = os.path.join(directory, "%s.py" % module_name)
        if not os.path.exists(path):
            raise FileNotFoundError("no bench module at %s" % path)
        spec = importlib.util.spec_from_file_location(module_name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    else:
        import importlib

        module = importlib.import_module(module_name)
    fn = getattr(module, func_name, None)
    if fn is None:
        raise AttributeError(
            "%s has no replay entrypoint %r" % (module_name, func_name)
        )
    return fn


def _reset_process_caches():
    """Clear the engine's process-wide memo caches (compiled circuits,
    prepared keys, eval cache) so every replay execution starts from the
    same cold state the original bench process started from — otherwise
    ``engine.compile.hit``/``miss`` counts depend on what ran earlier in
    this process."""
    from ..engine import prepared

    prepared._COMPILED.clear()
    prepared._PREPARED.clear()
    prepared._EVAL_CACHE.clear()


def _execute_replay(fn, cert):
    """One deterministic execution of a cert's replay core: fake clock,
    cold engine caches, fresh metrics/trace state.
    Returns the resulting bench record."""
    from ..clock import FakeClock
    from . import clocks, metrics
    from .trace import TRACER

    was_enabled = TRACER.enabled
    with clocks.use_clock(FakeClock()):
        _reset_process_caches()
        TRACER.reset()
        metrics.reset()
        if cert.get("trace_signature"):
            TRACER.enable()
        else:
            TRACER.disable()
        try:
            results = fn(dict(cert.get("config", {})))
            record = build_record(
                cert.get("bench", ""), cert.get("config", {}), results,
                created=cert.get("created_unix", 0),
            )
        finally:
            if was_enabled:
                TRACER.enable()
            else:
                TRACER.disable()
    return record


def _diff_counts(expected, actual):
    lines = []
    for name in sorted(set(expected) | set(actual)):
        then, now = expected.get(name), actual.get(name)
        if then != now:
            lines.append("  %s: certified %r, replayed %r" % (name, then, now))
    return lines


def replay_certificate(cert, benchmarks_dir=None):
    """Re-execute a certified bench and check its deterministic portions.

    Strict certs: one execution must reproduce the certificate's metric
    counts and trace structure bit-identically.  Structural certs: two
    consecutive executions must reproduce *each other* bit-identically
    (the cert's own session-level counts are not independently
    re-derivable).  Returns ``(ok, lines)``.
    """
    lines = []
    problems = validate_certificate(cert)
    if problems:
        return False, ["certificate invalid: %s" % p for p in problems]
    meta = cert.get("replay", {})
    entrypoint = meta.get("entrypoint", "")
    strict = bool(meta.get("strict"))
    fn = _load_entrypoint(entrypoint, benchmarks_dir)

    first = _execute_replay(fn, cert)
    first_metrics = sha256_hex(metrics_signature_text(first))
    first_trace_text = trace_signature_text(first)
    first_trace = sha256_hex(first_trace_text) if first_trace_text else ""

    if strict:
        ok = True
        if first_metrics != cert["metrics_signature"]:
            ok = False
            lines.append("metrics_signature MISMATCH:")
            lines.extend(
                _diff_counts(cert.get("counts", {}),
                             extract_counts(first.get("metrics", {})))
            )
        if first_trace != cert.get("trace_signature", ""):
            ok = False
            lines.append(
                "trace_signature MISMATCH: certified %s, replayed %s"
                % (cert.get("trace_signature", "")[:16], first_trace[:16])
            )
        if ok:
            lines.append(
                "strict replay ok: metric counts and trace structure "
                "match the certificate bit-identically"
            )
        return ok, lines

    second = _execute_replay(fn, cert)
    second_metrics = sha256_hex(metrics_signature_text(second))
    second_trace_text = trace_signature_text(second)
    second_trace = sha256_hex(second_trace_text) if second_trace_text else ""
    ok = first_metrics == second_metrics and first_trace == second_trace
    if ok:
        lines.append(
            "structural replay ok: two consecutive executions are "
            "bit-identical (cert binds a session-wide snapshot that a "
            "single module cannot re-derive; strict matching not claimed)"
        )
    else:
        lines.append("structural replay UNSTABLE across two executions:")
        lines.extend(
            _diff_counts(extract_counts(first.get("metrics", {})),
                         extract_counts(second.get("metrics", {})))
        )
    return ok, lines


# -- trajectory gate ---------------------------------------------------------


def _comparable_config(config):
    return {
        k: v for k, v in config.items() if k not in CONFIG_COMPARE_EXCLUDE
    }


def _hit_ratio(counts, base):
    hit = counts.get(base + ".hit")
    miss = counts.get(base + ".miss")
    if not isinstance(hit, (int, float)) or not isinstance(miss, (int, float)):
        return None
    total = hit + miss
    return (hit / total) if total else None


def compare_to_head(head, record, tolerance=1.5, count_tolerance=0.0):
    """Diff one current bench record against its history head.

    Returns ``[(severity, message)]`` with severity ``"regress"`` or
    ``"note"``.  Counts compare exactly by default (they are
    deterministic under the recorded seeds); timings compare within a
    band: current <= head * (1 + tolerance).
    """
    findings = []
    then_cfg = _comparable_config(head.get("config", {}))
    now_cfg = _comparable_config(record.get("config", {}))
    if then_cfg != now_cfg:
        drifted = sorted(
            k for k in set(then_cfg) | set(now_cfg)
            if then_cfg.get(k) != now_cfg.get(k)
        )
        findings.append((
            "regress",
            "config drift on %s — rerun the bench with the certified "
            "config, or refresh the history" % ", ".join(drifted),
        ))
        return findings

    then_counts = head.get("counts", {})
    now_counts = extract_counts(record.get("metrics", {}))
    for name in sorted(then_counts):
        then = then_counts[name]
        now = now_counts.get(name)
        if now is None:
            findings.append((
                "regress",
                "%s disappeared from the current record "
                "(instrumentation lost?)" % name,
            ))
            continue
        if isinstance(then, dict):  # histogram: count/sum/bucket vector
            if not isinstance(now, dict):
                findings.append(
                    ("regress", "%s changed kind (was a histogram)" % name)
                )
            elif now != then:
                grew = (
                    now.get("count", 0) > then.get("count", 0)
                    or now.get("sum", 0) > then.get("sum", 0)
                )
                severity = "regress" if grew else "note"
                findings.append((
                    severity,
                    "%s distribution %s: count %s -> %s, sum %s -> %s"
                    % (name, "grew" if grew else "shrank",
                       then.get("count"), now.get("count"),
                       then.get("sum"), now.get("sum")),
                ))
        elif name.endswith(".hit"):
            continue  # judged through the hit ratio below, not monotonely
        elif isinstance(then, (int, float)) and isinstance(now, (int, float)):
            if now > then * (1.0 + count_tolerance):
                findings.append((
                    "regress",
                    "%s regressed: %s -> %s (more work per run)"
                    % (name, then, now),
                ))
            elif now < then:
                findings.append((
                    "note",
                    "%s improved: %s -> %s (refresh the history to ratchet)"
                    % (name, then, now),
                ))
    for name in sorted(set(now_counts) - set(then_counts)):
        findings.append(("note", "new metric %s (not yet gated)" % name))

    bases = {n[:-5] for n in then_counts if n.endswith(".miss")}
    for base in sorted(bases):
        then_ratio = _hit_ratio(then_counts, base)
        now_ratio = _hit_ratio(now_counts, base)
        if then_ratio is None or now_ratio is None:
            continue
        if now_ratio < then_ratio - 1e-9:
            findings.append((
                "regress",
                "%s hit ratio fell: %.4f -> %.4f" % (base, then_ratio, now_ratio),
            ))

    now_timings = extract_timings(record.get("results", {}))
    for path in sorted(head.get("timings", {})):
        then_t = head["timings"][path]
        now_t = now_timings.get(path)
        if now_t is None:
            findings.append(("note", "timing %s missing from results" % path))
            continue
        if then_t > 0 and now_t > then_t * (1.0 + tolerance):
            findings.append((
                "regress",
                "timing %s regressed: %.6fs -> %.6fs (> %.2fx band)"
                % (path, then_t, now_t, 1.0 + tolerance),
            ))
    return findings


def run_trajectory(history_dir=None, records_dir=None, tolerance=1.5,
                   count_tolerance=0.0, fail_on="regress", out=print):
    """Gate every checked-in history against the current bench records.

    Returns the number of regressions found (0 = trajectory holds).  A
    tampered chain is always a regression; a missing current record is a
    note (the bench simply was not run).
    """
    directory = history_dir or default_history_dir()
    records_dir = records_dir or os.getcwd()
    regressions = 0
    if not os.path.isdir(directory):
        out("no history directory at %s; nothing to gate" % directory)
        return 0
    chains = sorted(
        f for f in os.listdir(directory) if f.endswith(".jsonl")
    )
    if not chains:
        out("no histories in %s; nothing to gate" % directory)
        return 0
    for filename in chains:
        name = filename[: -len(".jsonl")]
        path = os.path.join(directory, filename)
        entries = read_history(path)
        problems = verify_history(entries)
        if problems:
            regressions += 1
            out("%s: CHAIN BROKEN (history rewritten?)" % name)
            for problem in problems:
                out("  - %s" % problem)
            continue
        head = entries[-1]
        if not head.get("gate", True) or name in UNGATED_BENCHES:
            out("%s: ungated (demo/informational record); skipped" % name)
            continue
        record_path = os.path.join(records_dir, "BENCH_%s.json" % name)
        if not os.path.exists(record_path):
            out("%s: no current BENCH record at %s; run the bench first"
                % (name, record_path))
            continue
        with open(record_path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
        findings = compare_to_head(
            head, record, tolerance=tolerance, count_tolerance=count_tolerance
        )
        bad = [msg for sev, msg in findings if sev == "regress"]
        notes = [msg for sev, msg in findings if sev == "note"]
        if bad:
            regressions += len(bad)
            out("%s: %d regression(s) vs history head %s"
                % (name, len(bad), head.get("digest", "")[:16]))
            for msg in bad:
                out("  REGRESSION: %s" % msg)
        else:
            out("%s: ok vs history head %s (%d entries)"
                % (name, head.get("digest", "")[:16], len(entries)))
        for msg in notes:
            out("  note: %s" % msg)
    if fail_on == "never":
        return 0
    return regressions
