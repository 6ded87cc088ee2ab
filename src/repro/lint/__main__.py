"""``python -m repro.lint`` — the CI gate for both analyzers.

Targets:

* ``hygiene``   — syntactic AST pass over the ``repro`` source tree (or
  over explicit ``--path`` files/dirs, e.g. the lint fixtures).
* ``gadgets``   — synthesize and audit every registry entry standalone
  (or one, via ``--gadget NAME``).
* ``statement`` — synthesize the full toy ``S_NOPE`` statement for a
  depth-2 domain and audit it end to end.
* ``all``       — everything above (the default; what CI runs).
* ``baseline prune`` — drop baseline entries whose keys no longer fire
  anywhere, and rewrite the baseline file.

Exit status is decided against the checked-in baseline: ``--fail-on new``
(default) fails only on findings whose key is absent from the baseline,
``any`` fails on any finding, ``none`` always exits 0 (report-only).
Stale baseline entries are reported only by the full sweep (``all``):
a subset run cannot tell a dead entry from another analyzer's.
``--json`` prints the report as JSON; ``--json-out PATH`` additionally
writes it to a file (what CI uploads as the lint artifact).
"""

import argparse
import sys

from ..telemetry.clocks import perf as _perf
from .circuit import DEFAULT_SEED, audit_system
from .hygiene import lint_paths, lint_tree
from .registry import GADGET_AUDITS, build_gadget_system
from .report import Report, default_baseline_path, load_baseline, save_baseline

#: the statement instance CI audits: toy profile, one depth-2 domain
_STATEMENT_DOMAIN = "example.com"


def _statement_findings(probe, probe_rounds, seed):
    from ..core.statement import NopeStatement, StatementShape, prepare_witness
    from ..dns.name import DomainName
    from ..hashes.toyhash import toyhash
    from ..profiles import TOY, build_hierarchy
    from ..r1cs import ConstraintSystem
    from .registry import FR

    hierarchy = build_hierarchy(TOY, [_STATEMENT_DOMAIN])
    domain = DomainName.parse(_STATEMENT_DOMAIN)
    witness = prepare_witness(
        TOY,
        domain,
        hierarchy.fetch_chain(domain),
        hierarchy.zones[domain].ksk,
        hierarchy.root.zsk.dnskey(),
    )
    shape = StatementShape(TOY, domain.depth)
    cs = ConstraintSystem(FR)
    NopeStatement(shape).synthesize(
        cs, witness, toyhash(b"lint-tls"), toyhash(b"lint-ca"), 600
    )
    return audit_system(
        cs,
        "statement/%s" % shape.id_string(),
        probe=probe,
        probe_rounds=probe_rounds,
        seed=seed,
    )


def _gadget_findings(names, probe, probe_rounds, seed, verbose):
    findings = []
    for name in names:
        t0 = _perf()
        cs = build_gadget_system(name)
        findings.extend(
            audit_system(
                cs, name, probe=probe, probe_rounds=probe_rounds, seed=seed
            )
        )
        if verbose:
            print(
                "  audited %-28s %6d constraints  %5.2fs"
                % (name, cs.num_constraints, _perf() - t0),
                file=sys.stderr,
            )
    return findings


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="R1CS soundness auditor + crypto-hygiene linter",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default="all",
        choices=("all", "statement", "gadgets", "hygiene", "baseline"),
        help="what to audit (default: all)",
    )
    parser.add_argument(
        "action",
        nargs="?",
        default=None,
        help="subcommand for the `baseline` target (only: prune)",
    )
    parser.add_argument(
        "--path",
        action="append",
        help="lint this file/directory instead of the source tree "
        "(hygiene target only; repeatable)",
    )
    parser.add_argument(
        "--gadget",
        action="append",
        help="audit only this registry gadget (repeatable; implies gadgets)",
    )
    parser.add_argument(
        "--list-gadgets", action="store_true", help="list registry entries and exit"
    )
    parser.add_argument(
        "--fail-on",
        default="new",
        choices=("new", "any", "none"),
        help="failure policy vs the baseline (default: new)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline path (default: the checked-in src/repro/lint/baseline.json)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept current findings: add missing keys to the baseline file",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parser.add_argument(
        "--json-out",
        default=None,
        help="also write the JSON report to this path (the CI artifact)",
    )
    parser.add_argument(
        "--no-probe",
        action="store_true",
        help="skip the determinism probe (structural checks only)",
    )
    parser.add_argument(
        "--probe-rounds", type=int, default=2, help="probe trials per wire (default 2)"
    )
    parser.add_argument(
        "--seed", default=None, help="probe seed string (default: fixed CI seed)"
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.list_gadgets:
        for name in GADGET_AUDITS:
            print(name)
        return 0

    seed = args.seed.encode() if args.seed is not None else DEFAULT_SEED
    probe = not args.no_probe
    target = "gadgets" if (args.gadget and args.target == "all") else args.target

    baseline_path = args.baseline or default_baseline_path()
    if target == "baseline":
        if args.action != "prune":
            parser.error("the baseline target supports exactly one action: prune")
        return _baseline_prune(baseline_path, probe, args.probe_rounds, seed)
    if args.action is not None:
        parser.error("positional action is only valid with the baseline target")
    if args.path and target != "hygiene":
        parser.error("--path is only valid with the hygiene target")

    findings = []
    if target in ("all", "hygiene"):
        if args.verbose:
            print("linting source tree (hygiene)...", file=sys.stderr)
        findings.extend(lint_paths(args.path) if args.path else lint_tree())
    if target in ("all", "gadgets"):
        names = args.gadget or list(GADGET_AUDITS)
        if args.verbose:
            print("auditing %d gadget(s)..." % len(names), file=sys.stderr)
        findings.extend(
            _gadget_findings(names, probe, args.probe_rounds, seed, args.verbose)
        )
    if target in ("all", "statement"):
        if args.verbose:
            print("synthesizing + auditing the toy statement...", file=sys.stderr)
        t0 = _perf()
        findings.extend(_statement_findings(probe, args.probe_rounds, seed))
        if args.verbose:
            print(
                "  statement audited in %.2fs" % (_perf() - t0),
                file=sys.stderr,
            )

    baseline = load_baseline(baseline_path)
    full_sweep = target == "all"
    report = Report(findings, baseline, full_sweep)

    if args.write_baseline:
        added = 0
        for f in report.new_findings():
            baseline[f.key] = "TODO: justify (%s)" % f.message.split("\n")[0][:80]
            added += 1
        save_baseline(baseline_path, baseline)
        print(
            "baseline: %d new entr%s written to %s (justifications are TODO)"
            % (added, "y" if added == 1 else "ies", baseline_path)
        )
        report = Report(findings, baseline, full_sweep)

    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    print(report.to_json() if args.json else report.render_text())
    return report.exit_code(args.fail_on)


def _baseline_prune(baseline_path, probe, probe_rounds, seed):
    """Run every analyzer, then drop baseline keys that no longer fire.

    The full sweep (hygiene + gadgets + statement) is the same
    set of findings ``all`` gates on, so a pruned entry is genuinely
    dead: nothing in the tree or the audited systems produces its key.
    """
    findings = []
    findings.extend(lint_tree())
    findings.extend(_gadget_findings(list(GADGET_AUDITS), probe, probe_rounds, seed, False))
    findings.extend(_statement_findings(probe, probe_rounds, seed))
    baseline = load_baseline(baseline_path)
    live = {f.key for f in findings}
    stale = sorted(k for k in baseline if k not in live)
    for key in stale:
        del baseline[key]
    save_baseline(baseline_path, baseline)
    for key in stale:
        print("pruned: %s" % key)
    print(
        "baseline: %d stale entr%s pruned, %d kept (%s)"
        % (len(stale), "y" if len(stale) == 1 else "ies", len(baseline), baseline_path)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
