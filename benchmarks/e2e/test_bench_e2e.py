"""Fast checks of the end-to-end benchmark's own logic (no trusted setup).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import sys
import types
from collections import Counter

import pytest

import bench_e2e
import compare
import layers


class FakeSpan:
    def __init__(self, name, wall, children=()):
        self.name = name
        self.wall = wall
        self.children = list(children)


# -- percentiles --------------------------------------------------------------


@pytest.mark.parametrize("q, needed", [(0.90, 100), (0.95, 200), (0.99, 1000)])
def test_percentile_refuses_a_tail_with_fewer_than_ten_beyond(q, needed):
    with pytest.raises(ValueError):
        bench_e2e.percentile(list(range(needed - 1)), q)
    # nearest rank: exactly ten of 1..needed lie above the answer
    assert bench_e2e.percentile(list(range(1, needed + 1)), q) == needed - 10


def test_median_needs_no_tail():
    assert bench_e2e.percentile([7.0], 0.5) == 7.0
    assert bench_e2e.percentile([1.0, 3.0], 0.5) == 2.0


def test_tail_report_picks_the_highest_supported_percentile():
    assert bench_e2e.tail_report(list(range(50))) is None
    assert bench_e2e.tail_report(list(range(120)))[0] == "p90"
    assert bench_e2e.tail_report(list(range(600)))[0] == "p95"
    assert bench_e2e.tail_report(list(range(1000)))[0] == "p99"


# -- span folding -------------------------------------------------------------


def _issue_like_op():
    return FakeSpan("bench.op", 10.0, [
        FakeSpan("issuance.nope_proof_generation", 9.0, [
            FakeSpan("groth16.prove", 8.0, [
                FakeSpan("prove.msm.a", 3.0, [FakeSpan("engine.msm", 2.5)]),
                FakeSpan("prove.msm.b_g2", 4.0, [FakeSpan("engine.msm", 3.5)]),
                FakeSpan("groth16.h_coefficients", 0.5, [
                    FakeSpan("engine.coset_extend", 0.25),
                ]),
            ]),
            FakeSpan("some.new_span", 0.5),
        ]),
    ])


def test_fold_charges_self_time_by_layer():
    folded = layers.fold([_issue_like_op()])
    s = folded.seconds
    assert s["engine.msm_g1_ms"] == pytest.approx(2.5)
    assert s["engine.msm_g2_ms"] == pytest.approx(3.5)
    assert s["engine.fft_ms"] == pytest.approx(0.5)
    # prove self 0.5 + msm.a self 0.5 + msm.b_g2 self 0.5
    assert s["groth16.prove_self_ms"] == pytest.approx(1.5)
    # issuance self 0.5 plus the unknown child folded into its parent
    assert s["core.prover.self_ms"] == pytest.approx(1.0)
    assert folded.unattributed == pytest.approx(1.0)
    assert sum(s.values()) + folded.unattributed == pytest.approx(10.0)
    assert folded.coverage() == pytest.approx(0.9)
    assert folded.span_counts["engine.msm"] == 2


def test_fold_charges_the_verifier_ic_msm_to_groth16():
    op = FakeSpan("bench.op", 2.0, [
        FakeSpan("nope.verify_server", 2.0, [
            FakeSpan("groth16.verify", 1.5, [
                FakeSpan("verify.ic_msm", 0.5, [FakeSpan("engine.msm", 0.4)]),
                FakeSpan("verify.pairing", 1.0, [
                    FakeSpan("pairing.miller", 0.6),
                    FakeSpan("pairing.final_exp", 0.3),
                ]),
            ]),
        ]),
    ])
    folded = layers.fold([op])
    assert "engine.msm_g1_ms" not in folded.seconds
    assert folded.seconds["groth16.verify_self_ms"] == pytest.approx(0.6)
    assert folded.seconds["core.client.self_ms"] == pytest.approx(0.5)
    assert folded.coverage() == pytest.approx(1.0)


def test_coverage_of_an_op_with_no_layer_spans_is_zero():
    assert layers.fold([FakeSpan("bench.op", 1.0)]).coverage() == 0.0


# -- schedule -----------------------------------------------------------------


def _take(workload, seed, n):
    it = bench_e2e.blocks(workload, seed)
    return [next(it) for _ in range(n)]


@pytest.mark.parametrize("workload", bench_e2e.WORKLOADS)
def test_schedule_is_seeded(workload):
    assert _take(workload, 1, 30) == _take(workload, 1, 30)
    assert _take(workload, 1, 30) != _take(workload, 2, 30)


@pytest.mark.parametrize("workload", ["connect_cold", "connect_warm"])
def test_every_connect_block_has_the_exact_mix(workload):
    for block in _take(workload, 3, 50):
        assert Counter(block) == {"alpha": 4, "beta": 4, "legacy": 1,
                                  "tampered": 1}


def test_renewals_alternate_between_the_two_domains():
    blocks = _take("issue", 5, 20)
    assert all(len(block) == bench_e2e.RENEWAL_BLOCK for block in blocks)
    ops = [domain for block in blocks for domain in block]
    for i in range(0, len(ops), 2):
        assert sorted(ops[i:i + 2]) == ["alpha", "beta"]
    assert ops[0::2] != [ops[0]] * (len(ops) // 2)


# -- verdict oracle -----------------------------------------------------------


class _Cert:
    def __init__(self, size):
        self.size = size

    def to_der(self):
        return b"\0" * self.size


class _StubClient:
    """Accepts every NOPE chain -- a client that skipped the pairing."""

    def verify_server(self, domain, chain, now, ocsp_responder=None,
                      ocsp_response=None):
        from repro.core import VerificationReport

        if domain == "legacy":
            return VerificationReport(domain, True, False, False)
        return VerificationReport(domain, True, True, True)


def _stub_world(client):
    pool = {
        kind: bench_e2e.PoolEntry(
            "alpha" if kind == "tampered" else kind,
            [_Cert(100), _Cert(50)], None,
        )
        for kind in ("alpha", "beta", "legacy", "tampered")
    }
    return types.SimpleNamespace(
        clock=types.SimpleNamespace(now=lambda: 0),
        ca=types.SimpleNamespace(ocsp=None),
        pool=pool, warm_client=client,
    )


def test_accepting_the_tampered_chain_drives_fail_ratio_above_zero():
    tally, _, sizes = bench_e2e.timed_phase(
        _stub_world(_StubClient()), "connect_warm", 1, 0, None
    )
    assert tally.attempted == 10
    assert tally.failed == 1
    assert tally.fail_ratio > 0
    assert tally.outcomes["tampered:nope_ok"] == 1
    assert sizes == [150] * 10


def test_rejecting_the_tampered_chain_passes():
    from repro.errors import ProofError

    class Honest(_StubClient):
        def verify_server(self, domain, chain, now, **kw):
            if chain[0] is tampered:
                raise ProofError("pairing check failed")
            return super().verify_server(domain, chain, now, **kw)

    world = _stub_world(Honest())
    tampered = world.pool["tampered"].chain[0]
    tally, _, _ = bench_e2e.timed_phase(world, "connect_warm", 1, 0, None)
    assert tally.failed == 0
    assert tally.rejects == 1


def test_an_unexpected_exception_is_a_failure(capsys):
    tally = bench_e2e.Tally()
    tally.record(0.1, "alpha", KeyError("boom"), "nope_ok")
    assert tally.failed == 1
    assert "KeyError" in capsys.readouterr().err


# -- compare.py bounds --------------------------------------------------------


def test_verdict_agree_within_bound():
    assert compare.verdict([100, 101, 102], [104, 105, 106], "lower", 0.1) == "agree"


def test_verdict_regressed_beyond_bound():
    assert compare.verdict([100, 101, 102], [120, 121, 122], "lower", 0.1) == "regressed"


def test_verdict_direction_follows_better():
    assert compare.verdict([100, 101, 102], [80, 81, 82], "higher", 0.1) == "regressed"
    assert compare.verdict([100, 101, 102], [80, 81, 82], "lower", 0.1) == "agree"


def test_verdict_unresolved_when_spread_exceeds_bound():
    assert compare.verdict([80, 100, 120], [90, 110, 130], "lower", 0.1) == "unresolved"


def test_verdict_wide_spread_but_every_new_run_better_agrees():
    assert compare.verdict([100, 130, 160], [50, 60, 70], "lower", 0.1) == "agree"


def _result(workload, value, backends):
    return {
        "environment": {"workload": workload, "trace": 0,
                        "field_backends": backends},
        "metrics": {"latency_p50_ms": {"value": value, "unit": "ms"}},
    }


def test_compare_refuses_different_field_backends():
    native = {"BN254_Q": "native/native", "BN254_R": "native/native"}
    mont = {"BN254_Q": "montgomery/native", "BN254_R": "native/native"}
    bounds = {"latency_p50_ms": ("ms", "lower", 0.1)}
    rows = compare.compare([_result("issue", 10, native)],
                           [_result("issue", 10.5, native)], bounds)
    assert [row[-1] for row in rows] == ["agree"]
    with pytest.raises(compare.EnvironmentMismatch):
        compare.compare([_result("issue", 10, native)],
                        [_result("issue", 10, mont)], bounds)


# -- wrappers -----------------------------------------------------------------


@pytest.fixture
def dummy_module():
    module = types.ModuleType("e2e_dummy_layer")
    module.work = lambda: "done"
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def _traced_span_counts(call):
    from repro.telemetry.trace import TRACER, span

    TRACER.reset()
    TRACER.enable()
    try:
        with span("bench.op"):
            call()
    finally:
        TRACER.disable()
    roots = list(TRACER.roots)
    TRACER.reset()
    return layers.fold(roots).span_counts


def test_every_wrapper_fired_check(dummy_module):
    bypass = dummy_module.work  # a call site holding the unwrapped function
    expected = {"w": ("dummy.work",)}
    restore = layers.install_wrappers(
        (("e2e_dummy_layer", "work", "dummy.work"),)
    )
    try:
        layers.check_fired("w", _traced_span_counts(
            lambda: dummy_module.work()), expected)
        with pytest.raises(RuntimeError, match="dummy.work"):
            layers.check_fired("w", _traced_span_counts(bypass), expected)
    finally:
        restore()
    assert dummy_module.work is bypass


def test_every_wrap_target_exists():
    layers.install_wrappers()()


# -- BENCHMARK.json -----------------------------------------------------------


def test_benchmark_json_matches_the_benchmark():
    with open(compare.BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"] == ["python3", "benchmarks/e2e/bench_e2e.py"]
    assert [w["name"] for w in spec["workloads"]] == list(bench_e2e.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_e2e.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_e2e.PER_LAYER
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
