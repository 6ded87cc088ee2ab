"""Tests for repro.lint.domains: lattice, annotations, mixing fixtures,
inference, pool purity, and the CLI wiring (--path / --json-out /
baseline prune)."""

import ast
import json
import os

import pytest

from repro.lint import (
    Finding,
    Report,
    default_baseline_path,
    load_baseline,
    save_baseline,
)
from repro.lint import __main__ as lint_cli
from repro.lint.__main__ import main as lint_main
from repro.lint.domain_facts import (
    ATOMS,
    BOT,
    CANON_N,
    CANON_P,
    OPAQUE,
    RAW,
    TOP,
    WIRE,
    Sig,
    join,
    meet,
)
from repro.lint.domains import (
    ModuleAnnotations,
    analyze_paths,
    analyze_source,
    analyze_tree,
    parse_annotation,
)

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "lint_fixtures")

ELEMENTS = (BOT, TOP) + ATOMS

MIXING_CHECKS = {
    "raw-tuple-escape",
    "modulus-confusion",
    "wire-escape",
    "impure-pool-task",
}


def checks(findings):
    return {f.check for f in findings}


# -- the lattice itself --------------------------------------------------------


class TestLattice:
    def test_identity_and_absorbing_elements(self):
        for a in ELEMENTS:
            assert join(a, BOT) == a
            assert join(BOT, a) == a
            assert meet(a, TOP) == a
            assert meet(TOP, a) == a
            assert join(a, TOP) == TOP
            assert meet(a, BOT) == BOT

    def test_idempotent_commutative_associative(self):
        for a in ELEMENTS:
            assert join(a, a) == a
            assert meet(a, a) == a
            for b in ELEMENTS:
                assert join(a, b) == join(b, a)
                assert meet(a, b) == meet(b, a)
                for c in ELEMENTS:
                    assert join(join(a, b), c) == join(a, join(b, c))
                    assert meet(meet(a, b), c) == meet(a, meet(b, c))

    def test_absorption_laws(self):
        for a in ELEMENTS:
            for b in ELEMENTS:
                assert join(a, meet(a, b)) == a
                assert meet(a, join(a, b)) == a

    def test_distinct_atoms_are_incomparable(self):
        for a in ATOMS:
            for b in ATOMS:
                if a != b:
                    assert join(a, b) == TOP
                    assert meet(a, b) == BOT


# -- annotation parsing --------------------------------------------------------


class TestAnnotations:
    def test_value_forms(self):
        assert parse_annotation("canonical(p)") == ("value", CANON_P)
        assert parse_annotation("raw") == ("value", RAW)
        assert parse_annotation("raw-tuple") == ("value", RAW)
        assert parse_annotation("wire") == ("value", WIRE)
        assert parse_annotation("canonical(n)") == ("value", CANON_N)
        assert parse_annotation("any") == ("value", TOP)

    def test_signature_forms(self):
        assert parse_annotation("(top, raw, raw) -> raw-tuple") == (
            "sig",
            Sig((TOP, RAW, RAW), RAW),
        )
        assert parse_annotation("() -> opaque") == ("sig", Sig((), OPAQUE))
        # parenthesized domain tokens survive the comma split
        assert parse_annotation(
            "(canonical(p), canonical(n)) -> canonical(p)"
        ) == ("sig", Sig((CANON_P, CANON_N), CANON_P))

    def test_malformed(self):
        assert parse_annotation("florps") is None
        assert parse_annotation("(raw -> raw") is None
        assert parse_annotation("(raw,) -> florps") is None

    def test_only_real_comments_register(self):
        src = (
            '"""Docs may say: write `# domain: raw` on the line."""\n'
            "x = 1  # domain: raw\n"
            "y = 2  # domain: florps\n"
        )
        ann = ModuleAnnotations(src)
        assert ann.value_at(1) is None  # docstring prose is not an annotation
        assert ann.value_at(2) == RAW
        assert ann.bad_lines == [3]

    def test_for_def_spans_multiline_signature(self):
        src = (
            "def f(a,\n"
            "      b):  # domain: (raw, raw) -> raw\n"
            "    return a\n"
        )
        node = ast.parse(src).body[0]
        assert ModuleAnnotations(src).for_def(node) == Sig((RAW, RAW), RAW)

    def test_bad_annotation_is_a_warning_finding(self):
        (f,) = analyze_source("x = 1  # domain: florps\n", "engine/demo.py")
        assert (f.check, f.severity) == ("bad-annotation", "warning")


# -- one fixture module per mixing-error class ---------------------------------


@pytest.fixture(scope="module")
def fixture_findings():
    return analyze_paths([FIXTURES])


def fixture_checks(findings, fname):
    prefix = "lint_fixtures/%s:" % fname
    return {f.check for f in findings if f.where.startswith(prefix)}


class TestMixingFixtures:
    def test_escaped_raw_tuple(self, fixture_findings):
        assert fixture_checks(
            fixture_findings, "escape_raw_tuple.py"
        ) == {"raw-tuple-escape"}

    def test_modulus_confusion(self, fixture_findings):
        assert fixture_checks(
            fixture_findings, "confuse_moduli.py"
        ) == {"modulus-confusion"}

    def test_wire_leak(self, fixture_findings):
        assert fixture_checks(
            fixture_findings, "leak_wire_bytes.py"
        ) == {"wire-escape"}

    def test_impure_pool_task(self, fixture_findings):
        assert fixture_checks(
            fixture_findings, "impure_pool_task.py"
        ) == {"impure-pool-task"}

    def test_every_mixing_class_is_an_error(self, fixture_findings):
        assert checks(fixture_findings) == MIXING_CHECKS
        assert all(f.severity == "error" for f in fixture_findings)


# -- dataflow inference --------------------------------------------------------


class TestInference:
    def test_mod_n_on_mod_p_value_is_legitimate_transfer(self):
        # r = pt.x % n is ECDSA's sanctioned domain crossing
        src = (
            "def f(x, p, n):\n"
            "    c = x % p\n"
            "    return c % n\n"
        )
        assert analyze_source(src, "sig/demo.py") == []

    def test_raw_flows_through_loops(self):
        src = (
            "def f(acc, xs):\n"
            "    for x in xs:\n"
            "        acc = _add6(acc, _m6(x, x))\n"
            "    return acc\n"
        )
        (f,) = analyze_source(src, "pairing/demo.py")
        assert f.check == "raw-tuple-escape"

    def test_subscript_is_transparent(self):
        src = (
            "def f(a, b, q):\n"
            "    xs = [_m2(a, b)]\n"
            "    return fq2_raw(xs[0], q)\n"
        )
        (f,) = analyze_source(src, "pairing/demo.py")
        assert f.check == "raw-tuple-escape"

    def test_divergent_branches_join_to_top(self):
        # a conservative join must NOT produce a false positive
        src = (
            "def f(a, flag, n):\n"
            "    if flag:\n"
            "        x = _m2(a, a)\n"
            "    else:\n"
            "        x = a % n\n"
            "    return fq2_raw(x, x)\n"
        )
        assert analyze_source(src, "engine/demo.py") == []

    def test_declared_raw_return_is_allowed(self):
        src = (
            "def widen(a, b):  # domain: (canonical(p), canonical(p)) -> raw-tuple\n"
            "    return _m2(a, b)\n\n"
            "def use(x, y):\n"
            "    t = widen(x, y)\n"
            "    return _from_raw(t)\n"
        )
        assert analyze_source(src, "pairing/demo.py") == []

    def test_undeclared_raw_return_flagged(self):
        src = "def f(a, b):\n    return _m2(a, b)\n"
        (f,) = analyze_source(src, "pairing/demo.py")
        assert f.check == "raw-tuple-escape"

    def test_wire_layers_are_exempt(self):
        src = (
            "def smuggle(proof, payload):\n"
            "    body = proof_to_bytes(proof)\n"
            "    return body + payload.nullifier\n"
        )
        assert analyze_source(src, "wire/demo.py") == []
        assert checks(analyze_source(src, "core/demo.py")) == {"wire-escape"}

    def test_wire_import_flagged_through_alias(self):
        src = "from repro.groth16.serialize import proof_from_bytes as pfb\n"
        (f,) = analyze_source(src, "core/demo.py")
        assert f.check == "wire-escape"

    def test_annotation_forces_a_domain(self):
        src = (
            "def relay(blob):\n"
            "    body = blob  # domain: wire-bytes\n"
            "    return body\n"
        )
        (f,) = analyze_source(src, "core/demo.py")
        assert f.check == "wire-escape"
        clean = (
            "def relay(blob):\n"
            "    body = blob  # domain: opaque\n"
            "    return body\n"
        )
        assert analyze_source(clean, "core/demo.py") == []


# -- worker-pool purity --------------------------------------------------------


class TestPoolPurity:
    def test_pure_task_clean(self):
        src = (
            "def task(x):\n"
            "    y = x * 2\n"
            "    return y\n\n"
            "def drive(pool, xs):\n"
            "    return [pool.submit(task, x) for x in xs]\n"
        )
        assert analyze_source(src, "engine/demo.py") == []

    def test_global_assignment_flagged(self):
        src = (
            "def task(x):\n"
            "    global _N\n"
            "    _N = x\n"
            "    return x\n\n"
            "def drive(pool, xs):\n"
            "    return [pool.submit(task, x) for x in xs]\n"
        )
        assert checks(analyze_source(src, "engine/demo.py")) == {
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
        assert checks(analyze_source(src, "engine/demo.py")) == {
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
        assert checks(analyze_source(src, "engine/demo.py")) == {
            "impure-pool-task"
        }

    def test_cross_file_shipped_names(self):
        # the submit site lives in another module: the tree pass supplies
        # the shared name set explicitly
        src = (
            "CACHE = {}\n\n"
            "def task(x):\n"
            "    CACHE[x] = x\n"
            "    return x\n"
        )
        assert analyze_source(src, "engine/work.py") == []
        found = analyze_source(src, "engine/work.py", shipped_names={"task"})
        assert checks(found) == {"impure-pool-task"}

    def test_telemetry_is_exempt(self):
        src = (
            "METRICS = {}\n\n"
            "def task(x):\n"
            "    METRICS[x] = x\n"
            "    return x\n\n"
            "def drive(pool, xs):\n"
            "    return [pool.submit(task, x) for x in xs]\n"
        )
        assert analyze_source(src, "telemetry/demo.py") == []


# -- the shipped tree is clean against the shipped baseline --------------------


class TestShippedClean:
    def test_domains_tree_clean(self):
        baseline = load_baseline(default_baseline_path())
        rep = Report(analyze_tree(), baseline)
        assert rep.new_findings() == []


# -- CLI -----------------------------------------------------------------------


class TestCli:
    def test_fixture_gate_fails_with_all_classes(self, capsys):
        rc = lint_main(["domains", "--path", FIXTURES, "--fail-on", "any"])
        assert rc == 1
        out = capsys.readouterr().out
        for check in MIXING_CHECKS:
            assert check in out

    def test_tree_gate_passes(self, capsys):
        assert lint_main(["domains", "--fail-on", "new"]) == 0

    def test_json_out_writes_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "lint.json"
        rc = lint_main(
            [
                "domains",
                "--path", FIXTURES,
                "--json",
                "--json-out", str(out_path),
                "--fail-on", "none",
            ]
        )
        assert rc == 0
        data = json.loads(out_path.read_text())
        assert {f["check"] for f in data["findings"]} == MIXING_CHECKS
        assert data["new"]  # fixtures are never baselined
        # stdout carries the same JSON report
        assert json.loads(capsys.readouterr().out)["new"] == data["new"]

    def test_baseline_prune_drops_dead_keys(self, monkeypatch, tmp_path, capsys):
        live = Finding("hygiene", "digest-compare", "error", "core/x.py:f", "m")
        monkeypatch.setattr(lint_cli, "lint_tree", lambda: [live])
        monkeypatch.setattr(lint_cli, "analyze_tree", lambda: [])
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
