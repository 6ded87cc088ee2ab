"""Tests for repro.lint: auditor fixtures, hygiene rules, pool purity,
rule fixtures, baseline gating, and the CLI."""

import json
import os

import pytest

from repro.ec.curves import BN254_R
from repro.field import PrimeField
from repro.gadgets.bits import bit_decompose, is_zero
from repro.lint import (
    GADGET_AUDITS,
    Finding,
    Report,
    audit_system,
    build_gadget_system,
    default_baseline_path,
    incidence_stats,
    lint_source,
    lint_tree,
    load_baseline,
    normalize_label,
    save_baseline,
)
from repro.lint import __main__ as lint_cli
from repro.lint.__main__ import main as lint_main
from repro.lint.hygiene import lint_paths
from repro.r1cs import ConstraintSystem
from repro.r1cs.compiled import CompiledCircuit

FR = PrimeField(BN254_R)

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "lint_fixtures")

#: the rules the deliberately wrong modules under lint_fixtures/ demonstrate
FIXTURE_CHECKS = {"raw-tuple-escape", "wire-escape", "impure-pool-task"}


def checks(findings):
    return {f.check for f in findings}


def by_check(findings, check):
    return [f for f in findings if f.check == check]


# -- seeded-bug fixtures: each known-bad circuit yields its finding class ----


class TestAuditorFixtures:
    def test_dead_wire_caught(self):
        cs = ConstraintSystem(FR)
        x = cs.alloc(3, "x")
        cs.enforce_equal(x, cs.constant(3), "pin")
        cs.alloc(5, "orphan")  # never constrained
        found = audit_system(cs, "fix")
        dead = by_check(found, "dead-wire")
        assert len(dead) == 1
        assert "orphan" in dead[0].message

    def test_unused_public_caught(self):
        cs = ConstraintSystem(FR)
        cs.alloc_public(9, "pub_unused")
        x = cs.alloc(1, "x")
        cs.enforce_equal(x, cs.constant(1), "pin")
        found = audit_system(cs, "fix")
        assert len(by_check(found, "unused-public")) == 1

    def test_linear_only_wire_caught(self):
        cs = ConstraintSystem(FR)
        x = cs.alloc(3, "x")
        y = cs.alloc(4, "y")
        cs.enforce_equal(x + y, cs.constant(7), "sum")
        found = audit_system(cs, "fix", probe=False)
        flagged = by_check(found, "linear-only")
        assert {f.where for f in flagged} == {"fix:x", "fix:y"}

    def test_linear_only_suppressed_when_affinely_solvable(self):
        # z = x*y (bilinear), w = z + 1 (affine over an examined wire):
        # w must NOT be flagged even though it never appears bilinear
        cs = ConstraintSystem(FR)
        x = cs.alloc(3, "x")
        y = cs.alloc(4, "y")
        z = cs.mul(x, y, "z")
        w = cs.alloc(13, "w")
        cs.enforce_equal(w, z + 1, "def_w")
        found = audit_system(cs, "fix", probe=False)
        assert not by_check(found, "linear-only")

    def test_duplicate_constraint_caught(self):
        cs = ConstraintSystem(FR)
        a = cs.alloc(2, "a")
        b = cs.alloc(3, "b")
        cs.enforce(a, b, cs.constant(6), "first")
        cs.enforce(a, b, cs.constant(6), "again")
        found = audit_system(cs, "fix", probe=False)
        dups = by_check(found, "duplicate-constraint")
        assert len(dups) == 1
        assert "again" in dups[0].message

    def test_missing_bool_caught(self):
        cs = ConstraintSystem(FR)
        w = cs.alloc(1, "flag")
        cs.mark_boolean(w)
        cs.enforce_equal(w, cs.constant(1), "pin")  # but no w*(w-1)=0 row
        found = audit_system(cs, "fix", probe=False)
        missing = by_check(found, "missing-bool")
        assert len(missing) == 1
        assert "flag" in missing[0].message

    def test_marked_and_enforced_bool_clean(self):
        cs = ConstraintSystem(FR)
        bit_decompose(cs, cs.alloc(5, "x"), 4, "bits")
        found = audit_system(cs, "fix")
        assert not found

    def test_free_wire_caught_by_probe(self):
        # is_zero on a zero input leaves the inverse hint unconstrained
        cs = ConstraintSystem(FR)
        is_zero(cs, cs.alloc(0, "x"), "iz")
        found = audit_system(cs, "fix")
        free = by_check(found, "free-wire")
        assert len(free) == 1
        assert "iz.inv" in free[0].message

    def test_probe_clean_on_pinned_system(self):
        cs = ConstraintSystem(FR)
        is_zero(cs, cs.alloc(7, "x"), "iz")
        found = audit_system(cs, "fix")
        assert "free-wire" not in checks(found)

    def test_probe_is_deterministic(self):
        cs = ConstraintSystem(FR)
        is_zero(cs, cs.alloc(0, "x"), "iz")
        a = [f.key for f in audit_system(cs, "fix", seed=b"s1")]
        b = [f.key for f in audit_system(cs, "fix", seed=b"s1")]
        assert a == b


# -- label propagation into the CSR metadata ---------------------------------


class TestLabelPropagation:
    def test_wire_labels_reach_compiled(self):
        cs = ConstraintSystem(FR)
        x = cs.alloc(3, "sha256/w[17]")
        cs.enforce_equal(x, cs.constant(3), "pin")
        compiled = CompiledCircuit.from_system(cs)
        assert "sha256/w[17]" in compiled.wire_labels

    def test_findings_name_wires(self):
        cs = ConstraintSystem(FR)
        cs.alloc(5, "sha256/w[17]")
        (finding,) = audit_system(cs, "g")
        assert finding.where == "g:sha#/w[#]"
        assert "sha256/w[17]" in finding.message

    def test_structure_hash_ignores_labels_and_bool_marks(self):
        def build(labeled):
            cs = ConstraintSystem(FR)
            w = cs.alloc(1, "flag" if labeled else None)
            if labeled:
                cs.mark_boolean(w)
            cs.enforce_bool(w, "b" if labeled else None)
            return cs.structure_hash()

        assert build(True) == build(False)


# -- hygiene rules ------------------------------------------------------------


class TestHygiene:
    def test_random_module_severity_by_path(self):
        src = "import random\n"
        (err,) = lint_source(src, "sig/ecdsa.py")
        assert (err.check, err.severity) == ("random-module", "error")
        (warn,) = lint_source(src, "dns/zone.py")
        assert warn.severity == "warning"

    def test_digest_compare_flagged(self):
        src = "def f(a, b):\n    return a.digest == expected_mac\n"
        (f,) = lint_source(src, "ca/issuer.py")
        assert f.check == "digest-compare"
        assert f.where == "ca/issuer.py:f"

    def test_digest_metadata_exempt(self):
        src = (
            "def f(ds):\n"
            "    ok = ds.digest_type == DIGEST_SHA256\n"
            "    return len(digest_bytes) != 12 and hmac.compare_digest(a, b)\n"
        )
        assert lint_source(src, "dns/dnssec.py") == []

    def test_bare_except_and_mutable_default(self):
        src = (
            "def f(x=[]):\n"
            "    try:\n"
            "        return x\n"
            "    except:\n"
            "        pass\n"
        )
        assert checks(lint_source(src, "core/util.py")) == {
            "bare-except",
            "mutable-default",
        }

    def test_float_banned_only_in_exact_layers(self):
        src = "RATIO = 0.5\n"
        (f,) = lint_source(src, "field/prime.py")
        assert f.check == "float-in-field"
        assert lint_source(src, "benchmarks_helper.py") == []

    def test_direct_time_call_flagged(self):
        src = "import time\n\ndef f():\n    return time.perf_counter()\n"
        (f,) = lint_source(src, "core/util.py")
        assert (f.check, f.severity) == ("direct-time", "warning")
        assert "repro.telemetry.clocks" in f.message

    def test_direct_time_from_import_flagged(self):
        src = "from time import perf_counter\n"
        (f,) = lint_source(src, "engine/core.py")
        assert f.check == "direct-time"

    def test_direct_time_exempt_in_telemetry(self):
        src = "import time\n\ndef f():\n    return time.time()\n"
        assert lint_source(src, "telemetry/clocks.py") == []

    def test_time_conversions_not_flagged(self):
        # gmtime/strftime/strptime convert timestamps, they don't read clocks
        src = (
            "import time\n\n"
            "def f(epoch):\n"
            "    return time.strftime('%Y', time.gmtime(epoch))\n"
        )
        assert lint_source(src, "x509/asn1.py") == []

    def test_inv_in_loop_flagged(self):
        src = (
            "def f(field, xs):\n"
            "    for x in xs:\n"
            "        y = field.inv(x)\n"
            "    return y\n"
        )
        (f,) = lint_source(src, "gadgets/demo.py")
        assert (f.check, f.severity) == ("inv-in-loop", "error")
        assert "batch_inverse" in f.message

    def test_inv_in_comprehension_flagged(self):
        src = "def f(field, xs):\n    return [field.inv(x) for x in xs]\n"
        (f,) = lint_source(src, "engine/demo.py")
        assert f.check == "inv-in-loop"

    def test_inv_outside_loop_not_flagged(self):
        src = "def f(field, x):\n    return field.inv(x)\n"
        assert lint_source(src, "gadgets/demo.py") == []

    def test_random_module_alias_flagged(self):
        src = "import random as r\n\ndef f():\n    return r.random()\n"
        found = lint_source(src, "sig/ecdsa.py")
        # the import itself AND the aliased attribute use are both caught
        assert len(found) == 2
        assert checks(found) == {"random-module"}
        assert {f.where for f in found} == {
            "sig/ecdsa.py:<module>",
            "sig/ecdsa.py:f",
        }

    def test_direct_time_module_alias_flagged(self):
        src = "import time as t\n\ndef f():\n    return t.perf_counter()\n"
        (f,) = lint_source(src, "core/util.py")
        assert f.check == "direct-time"

    def test_direct_time_name_alias_flagged(self):
        src = (
            "from time import perf_counter as pc\n\n"
            "def f():\n"
            "    return pc()\n"
        )
        found = lint_source(src, "engine/core.py")
        assert checks(found) == {"direct-time"}

    def test_inv_in_loop_through_alias(self):
        # `from ..field import inv as finv` must still count as an inverse
        src = (
            "from repro.field import inv as finv\n\n"
            "def f(xs):\n"
            "    return [finv(x) for x in xs]\n"
        )
        (f,) = lint_source(src, "engine/demo.py")
        assert f.check == "inv-in-loop"

    def test_alias_does_not_false_positive(self):
        # an alias that shadows a flagged name with a harmless target is fine
        src = (
            "from os.path import join as perf_counter\n\n"
            "def f(a, b):\n"
            "    return perf_counter(a, b)\n"
        )
        assert lint_source(src, "core/util.py") == []

    def test_wire_layers_are_exempt(self):
        src = (
            "def smuggle(proof, payload):\n"
            "    body = proof_to_bytes(proof)\n"
            "    return body + payload.nullifier\n"
        )
        assert lint_source(src, "wire/demo.py") == []
        assert checks(lint_source(src, "core/demo.py")) == {"wire-escape"}

    def test_wire_import_flagged_through_alias(self):
        src = (
            "from repro.groth16.serialize import proof_from_bytes as pfb\n\n"
            "def f(blob):\n"
            "    return pfb(blob)\n"
        )
        found = lint_source(src, "core/demo.py")
        # the import AND the aliased call are both caught
        assert len(found) == 2
        assert checks(found) == {"wire-escape"}

    def test_raw_flows_through_loops(self):
        src = (
            "def f(acc, xs):\n"
            "    for x in xs:\n"
            "        acc = _add6(acc, _m6(x, x))\n"
            "    return acc\n"
        )
        assert checks(lint_source(src, "pairing/demo.py")) == {"raw-tuple-escape"}
        assert lint_source(src, "field/extension.py") == []

    def test_subscript_is_transparent(self):
        src = (
            "def f(a, b, q):\n"
            "    xs = [_m2(a, b)]\n"
            "    return fq2_raw(xs[0], q)\n"
        )
        assert checks(lint_source(src, "pairing/demo.py")) == {"raw-tuple-escape"}
        assert lint_source(src, "field/extension.py") == []

    def test_undeclared_raw_return_flagged(self):
        src = "def f(a, b):\n    return _m2(a, b)\n"
        (f,) = lint_source(src, "pairing/demo.py")
        assert f.check == "raw-tuple-escape"
        assert lint_source(src, "field/extension.py") == []

    def test_raw_combinators_flagged_outside_tower(self):
        # the unchecked Fq6 limb view, and an aliased import
        src = (
            "from repro.field.extension import _xi2 as xi\n\n"
            "def f(a):\n"
            "    return xi(*a._raw())\n"
        )
        assert checks(lint_source(src, "pairing/demo.py")) == {"raw-tuple-escape"}
        assert lint_source(src, "field/extension.py") == []


# -- worker-pool purity -------------------------------------------------------


class TestPoolPurity:
    def test_pure_task_clean(self):
        src = (
            "def task(x):\n"
            "    y = x * 2\n"
            "    return y\n\n"
            "def drive(pool, xs):\n"
            "    return [pool.submit(task, x) for x in xs]\n"
        )
        assert lint_source(src, "engine/demo.py") == []

    def test_global_assignment_flagged(self):
        src = (
            "def task(x):\n"
            "    global _N\n"
            "    _N = x\n"
            "    return x\n\n"
            "def drive(pool, xs):\n"
            "    return [pool.submit(task, x) for x in xs]\n"
        )
        assert checks(lint_source(src, "engine/demo.py")) == {
            "impure-pool-task"
        }

    def test_mutator_call_on_module_state_flagged(self):
        src = (
            "ACC = []\n\n"
            "def task(x):\n"
            "    ACC.append(x)\n"
            "    return x\n\n"
            "def drive(pool, xs):\n"
            "    return [pool.submit(task, x) for x in xs]\n"
        )
        assert checks(lint_source(src, "engine/demo.py")) == {
            "impure-pool-task"
        }

    def test_delta_wrapper_reaches_the_real_task(self):
        src = (
            "CACHE = {}\n\n"
            "def task(x):\n"
            "    CACHE[x] = x\n"
            "    return x\n\n"
            "def drive(pool, delta, xs):\n"
            "    return [pool.submit(run_with_delta, task, x) for x in xs]\n"
        )
        assert checks(lint_source(src, "engine/demo.py")) == {
            "impure-pool-task"
        }

    def test_cross_file_shipped_names(self, tmp_path):
        # the submit site lives in another module: a tree run collects the
        # shipped names across every file before linting any of them
        task = (
            "CACHE = {}\n\n"
            "def task(x):\n"
            "    CACHE[x] = x\n"
            "    return x\n"
        )
        assert lint_source(task, "engine/work.py") == []
        found = lint_source(task, "engine/work.py", shipped_names={"task"})
        assert checks(found) == {"impure-pool-task"}
        engine = tmp_path / "engine"
        engine.mkdir()
        (engine / "work.py").write_text(task)
        (engine / "drive.py").write_text(
            "def drive(pool, xs):\n"
            "    return [pool.submit(task, x) for x in xs]\n"
        )
        (f,) = lint_tree(str(tmp_path))
        assert (f.check, f.where) == ("impure-pool-task", "engine/work.py:task")

    def test_telemetry_is_exempt(self):
        src = (
            "METRICS = {}\n\n"
            "def task(x):\n"
            "    METRICS[x] = x\n"
            "    return x\n\n"
            "def drive(pool, xs):\n"
            "    return [pool.submit(task, x) for x in xs]\n"
        )
        assert lint_source(src, "telemetry/demo.py") == []


# -- one deliberately wrong module per boundary rule ---------------------------


@pytest.fixture(scope="module")
def fixture_findings():
    return lint_paths([FIXTURES])


def fixture_checks(findings, fname):
    prefix = "lint_fixtures/%s:" % fname
    return {f.check for f in findings if f.where.startswith(prefix)}


class TestRuleFixtures:
    def test_escaped_raw_tuple(self, fixture_findings):
        assert fixture_checks(
            fixture_findings, "escape_raw_tuple.py"
        ) == {"raw-tuple-escape"}

    def test_wire_leak(self, fixture_findings):
        assert fixture_checks(
            fixture_findings, "leak_wire_bytes.py"
        ) == {"wire-escape"}

    def test_impure_pool_task(self, fixture_findings):
        assert fixture_checks(
            fixture_findings, "impure_pool_task.py"
        ) == {"impure-pool-task"}

    def test_every_rule_is_an_error(self, fixture_findings):
        assert checks(fixture_findings) == FIXTURE_CHECKS
        assert all(f.severity == "error" for f in fixture_findings)


# -- baseline gating ----------------------------------------------------------


class TestBaseline:
    def test_normalize_label_collapses_digits(self):
        assert normalize_label("dk1.sfx.ind[3]") == "dk#.sfx.ind[#]"
        assert normalize_label(None) == "unlabeled"

    def test_report_new_vs_accepted_vs_stale(self):
        cs = ConstraintSystem(FR)
        cs.alloc(5, "orphan")
        findings = audit_system(cs, "g")
        key = findings[0].key
        rep = Report(findings, {key: "known", "circuit:gone:g:x": "old"})
        assert not rep.new_findings()
        assert [f.key for f in rep.accepted_findings()] == [key]
        assert rep.stale_baseline() == ["circuit:gone:g:x"]
        assert rep.exit_code("new") == 0
        assert rep.exit_code("any") == 1
        assert rep.exit_code("none") == 0
        # a subset run cannot tell a dead entry from another analyzer's
        subset = Report(findings, {key: "known", "circuit:gone:g:x": "old"},
                        full_sweep=False)
        assert subset.stale_baseline() == []
        assert "stale" not in subset.render_text()

    def test_new_unconstrained_wire_fails_ci_gate(self):
        # simulate the CI failure mode: a fresh dead wire in an otherwise
        # clean gadget must flip --fail-on new to a nonzero exit
        cs = build_gadget_system("bits/bit_decompose")
        cs.alloc(5, "newly_unconstrained")
        rep = Report(audit_system(cs, "bits/bit_decompose"),
                     load_baseline(default_baseline_path()))
        assert rep.exit_code("new") == 1
        assert "dead-wire" in checks(rep.new_findings())


# -- the shipped codebase is clean against the shipped baseline ---------------


class TestShippedClean:
    def test_every_registry_gadget_clean(self):
        baseline = load_baseline(default_baseline_path())
        findings = []
        for name in GADGET_AUDITS:
            findings.extend(audit_system(build_gadget_system(name), name))
        rep = Report(findings, baseline)
        assert rep.new_findings() == []

    def test_full_statement_audit_clean(self):
        from repro.core.statement import NopeStatement, StatementShape, prepare_witness
        from repro.dns.name import DomainName
        from repro.hashes.toyhash import toyhash
        from repro.profiles import TOY, build_hierarchy

        hierarchy = build_hierarchy(TOY, ["example.com"])
        domain = DomainName.parse("example.com")
        witness = prepare_witness(
            TOY,
            domain,
            hierarchy.fetch_chain(domain),
            hierarchy.zones[domain].ksk,
            hierarchy.root.zsk.dnskey(),
        )
        cs = ConstraintSystem(FR)
        NopeStatement(StatementShape(TOY, domain.depth)).synthesize(
            cs, witness, toyhash(b"t"), toyhash(b"n"), 600
        )
        assert audit_system(cs, "statement") == []

    def test_hygiene_tree_clean(self):
        baseline = load_baseline(default_baseline_path())
        rep = Report(lint_tree(), baseline)
        assert rep.new_findings() == []

    def test_boundary_rules_tree_clean(self):
        # not even a baselined exception: the tree has none to justify
        assert not checks(lint_tree()) & FIXTURE_CHECKS

    def test_incidence_stats_shape(self):
        stats = incidence_stats(build_gadget_system("strings/indicator"))
        assert stats["constraints"] == 9
        assert stats["bilinear_rows"] + stats["linear_rows"] == 9
        assert 0 < stats["wires_used"] <= stats["wires"]


# -- CLI ----------------------------------------------------------------------


class TestCli:
    def test_list_gadgets(self, capsys):
        assert lint_main(["--list-gadgets"]) == 0
        out = capsys.readouterr().out
        assert "ecdsa/verify_nope" in out

    def test_single_gadget_json(self, capsys):
        rc = lint_main(["--gadget", "bits/bit_decompose", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["findings"] == []

    def test_unknown_gadget_raises(self):
        with pytest.raises(KeyError):
            lint_main(["--gadget", "no/such"])

    def test_fail_on_any_catches_baselined(self, capsys):
        rc = lint_main(["--gadget", "bits/is_zero_at_zero", "--fail-on", "any"])
        assert rc == 1
        assert "baseline" in capsys.readouterr().out

    def test_fixture_gate_fails_with_all_classes(self, capsys):
        rc = lint_main(["hygiene", "--path", FIXTURES, "--fail-on", "any"])
        assert rc == 1
        out = capsys.readouterr().out
        for check in FIXTURE_CHECKS:
            assert check in out

    def test_tree_gate_passes(self, capsys):
        # a subset run judges only its own findings: the baseline's circuit
        # entry is not reported stale by a hygiene-only run
        assert lint_main(["hygiene"]) == 0
        assert "stale" not in capsys.readouterr().out

    def test_json_out_writes_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "lint.json"
        rc = lint_main(
            [
                "hygiene",
                "--path", FIXTURES,
                "--json",
                "--json-out", str(out_path),
                "--fail-on", "none",
            ]
        )
        assert rc == 0
        data = json.loads(out_path.read_text())
        assert {f["check"] for f in data["findings"]} == FIXTURE_CHECKS
        assert data["new"]  # fixtures are never baselined
        # stdout carries the same JSON report
        assert json.loads(capsys.readouterr().out)["new"] == data["new"]

    def test_baseline_prune_drops_dead_keys(self, monkeypatch, tmp_path, capsys):
        live = Finding("hygiene", "digest-compare", "error", "core/x.py:f", "m")
        monkeypatch.setattr(lint_cli, "lint_tree", lambda: [live])
        monkeypatch.setattr(lint_cli, "_gadget_findings", lambda *a, **k: [])
        monkeypatch.setattr(lint_cli, "_statement_findings", lambda *a, **k: [])
        path = tmp_path / "baseline.json"
        save_baseline(str(path), {live.key: "ok", "circuit:gone:g:x": "old"})
        rc = lint_main(["baseline", "prune", "--baseline", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pruned: circuit:gone:g:x" in out
        assert load_baseline(str(path)) == {live.key: "ok"}

    def test_baseline_requires_prune_action(self):
        with pytest.raises(SystemExit):
            lint_main(["baseline"])
        with pytest.raises(SystemExit):
            lint_main(["baseline", "rewrite"])

    def test_action_rejected_for_other_targets(self):
        with pytest.raises(SystemExit):
            lint_main(["hygiene", "prune"])
        with pytest.raises(SystemExit):
            lint_main(["gadgets", "--path", FIXTURES])
