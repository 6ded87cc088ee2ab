"""Findings, baselines, and rendering for ``repro.lint``.

A :class:`Finding` is identified by a *stable key* — tool, check, and a
normalized location (digit runs collapsed to ``#``) — so that e.g. the
per-level ``dk1.signer`` / ``dk2.signer`` copies of one construction
aggregate into a single baseline entry, and adding a wire to a gadget does
not shift every downstream key.

The baseline file maps keys to one-line justifications.  A finding whose
key is in the baseline is *accepted*; ``--fail-on new`` fails only on
unaccepted findings.  Baseline entries that no longer match any finding
of a full sweep are reported as stale (informational) so the file cannot
silently rot; a subset run (one analyzer, or ``--path``) cannot tell a
dead entry from one another analyzer would match, so it reports none.
"""

import json
import os
import re

#: severity ordering for sorting / exit decisions
SEVERITIES = ("error", "warning")

_DIGITS = re.compile(r"\d+")


def normalize_label(label):
    """Collapse digit runs so per-index copies of one construction share
    a key: ``dk1.signer.sfx.ind[3]`` -> ``dk#.signer.sfx.ind[#]``."""
    return _DIGITS.sub("#", label or "unlabeled")


class Finding:
    """One lint finding, aggregatable by key."""

    __slots__ = ("tool", "check", "severity", "where", "message", "count")

    def __init__(self, tool, check, severity, where, message, count=1):
        if severity not in SEVERITIES:
            raise ValueError("unknown severity %r" % severity)
        self.tool = tool  # "circuit" | "hygiene"
        self.check = check  # e.g. "dead-wire"
        self.severity = severity
        self.where = where  # normalized location
        self.message = message
        self.count = count  # occurrences aggregated under this key

    @property
    def key(self):
        return "%s:%s:%s" % (self.tool, self.check, self.where)

    def to_dict(self):
        return {
            "key": self.key,
            "tool": self.tool,
            "check": self.check,
            "severity": self.severity,
            "where": self.where,
            "message": self.message,
            "count": self.count,
        }

    def __repr__(self):
        return "Finding(%s, %s)" % (self.key, self.severity)


def merge_findings(findings):
    """Aggregate findings sharing a key: counts add, first message wins."""
    merged = {}
    for f in findings:
        prev = merged.get(f.key)
        if prev is None:
            merged[f.key] = Finding(
                f.tool, f.check, f.severity, f.where, f.message, f.count
            )
        else:
            prev.count += f.count
    return list(merged.values())


def default_baseline_path():
    """The checked-in baseline that ships with the package."""
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "baseline.json")


def load_baseline(path):
    """Baseline dict key -> justification ({} if the file is absent)."""
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("version") != 1:
        raise ValueError("unsupported baseline version in %s" % path)
    return dict(data.get("entries", {}))


def save_baseline(path, entries):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {"version": 1, "entries": dict(sorted(entries.items()))},
            fh,
            indent=2,
            sort_keys=False,
        )
        fh.write("\n")


class Report:
    """All findings from one lint run, judged against a baseline."""

    def __init__(self, findings, baseline=None, full_sweep=True):
        self.findings = sorted(
            merge_findings(findings),
            key=lambda f: (SEVERITIES.index(f.severity), f.key),
        )
        self.baseline = dict(baseline or {})
        #: whether ``findings`` come from every analyzer over everything the
        #: baseline covers; only then is an unmatched entry stale
        self.full_sweep = full_sweep

    def new_findings(self):
        return [f for f in self.findings if f.key not in self.baseline]

    def accepted_findings(self):
        return [f for f in self.findings if f.key in self.baseline]

    def stale_baseline(self):
        """Baseline keys no longer matching any finding (empty for a
        subset run, which cannot tell)."""
        if not self.full_sweep:
            return []
        seen = {f.key for f in self.findings}
        return sorted(k for k in self.baseline if k not in seen)

    def exit_code(self, fail_on="new"):
        if fail_on == "none":
            return 0
        if fail_on == "any":
            return 1 if self.findings else 0
        if fail_on == "new":
            return 1 if self.new_findings() else 0
        raise ValueError("unknown fail_on %r" % fail_on)

    # -- rendering -----------------------------------------------------------

    def to_json(self):
        return json.dumps(
            {
                "findings": [f.to_dict() for f in self.findings],
                "new": [f.key for f in self.new_findings()],
                "accepted": [f.key for f in self.accepted_findings()],
                "stale_baseline": self.stale_baseline(),
            },
            indent=2,
        )

    def render_text(self):
        lines = []
        new = self.new_findings()
        accepted = self.accepted_findings()
        for f in new:
            lines.append(
                "NEW %-7s %-22s %s (x%d)" % (f.severity, f.check, f.where, f.count)
            )
            lines.append("    %s" % f.message)
        for f in accepted:
            lines.append(
                "ok  %-7s %-22s %s (x%d)  [baseline: %s]"
                % (f.severity, f.check, f.where, f.count, self.baseline[f.key])
            )
        stale = self.stale_baseline()
        for key in stale:
            lines.append("stale baseline entry (no matching finding): %s" % key)
        summary = "%d finding(s): %d new, %d accepted by baseline" % (
            len(self.findings), len(new), len(accepted),
        )
        if self.full_sweep:
            summary += ", %d stale entr%s" % (
                len(stale), "y" if len(stale) == 1 else "ies",
            )
        lines.append(summary)
        return "\n".join(lines)
