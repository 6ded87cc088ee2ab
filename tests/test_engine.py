"""Tests for the shared compute layer (repro.engine).

Covers: the generic MSM against naive scalar-mul sums on G1 *and* G2,
cached-twiddle FFT/IFFT round-trips against the uncached reference,
fixed-base table caching, prepared-proving-key memoization, and the
synthesize-once / bind-per-proof split in the NOPE prover."""

import random

import pytest

from repro.ec import BN254_G1, P256, TOY29
from repro.ec.curve import Point
from repro.engine import (
    DEFAULT_ENGINE,
    Engine,
    FixedBaseTable,
    cached_coset_fft,
    cached_coset_ifft,
    cached_fft,
    cached_ifft,
    domain_root,
    get_engine,
)
from repro.engine.group import JacobianGroup, OperatorGroup
from repro.engine.msm import msm_generic
from repro.field import PrimeField
from repro.groth16 import (
    coset_fft,
    coset_ifft,
    fft,
    ifft,
    prepare,
    prove,
    setup,
    verify,
)
from repro.groth16.fft import R as FR_MODULUS
from repro.pairing.bn254 import BN254_R, G2_GENERATOR, G2Point
from repro.r1cs import ConstraintSystem


class TestGenericMsmG1:
    def test_matches_naive_randomized(self):
        rng = random.Random(1234)
        for curve in (TOY29, P256):
            for n in (1, 2, 5, 17):
                points = [
                    (rng.randrange(1, curve.order)) * curve.generator
                    for _ in range(n)
                ]
                scalars = [rng.randrange(0, curve.order) for _ in range(n)]
                expected = curve.infinity
                for pt, k in zip(points, scalars):
                    expected = expected + k * pt
                group = JacobianGroup(curve)
                got = msm_generic(
                    group, [(p.x, p.y) for p in points], scalars
                )
                assert Point.from_jacobian(curve, got) == expected

    def test_engine_msm_points_matches_naive(self):
        rng = random.Random(99)
        points = [rng.randrange(1, TOY29.order) * TOY29.generator for _ in range(8)]
        scalars = [rng.randrange(0, TOY29.order) for _ in range(8)]
        expected = sum((k * p for p, k in zip(points, scalars)), TOY29.infinity)
        assert DEFAULT_ENGINE.msm_points(points, scalars) == expected

    def test_all_zero_scalars(self):
        group = JacobianGroup(P256)
        g = P256.generator
        assert group.is_identity(msm_generic(group, [(g.x, g.y)], [0]))

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            msm_generic(JacobianGroup(P256), [(1, 2)], [1, 2])


class TestGenericMsmG2:
    def test_matches_naive_randomized(self):
        rng = random.Random(4321)
        group = OperatorGroup(G2Point.infinity(), order=BN254_R)
        for n in (1, 2, 6):
            points = [
                rng.randrange(1, 2**64) * G2_GENERATOR for _ in range(n)
            ]
            scalars = [rng.randrange(0, 2**64) for _ in range(n)]
            expected = G2Point.infinity()
            for pt, k in zip(points, scalars):
                expected = expected + k * pt
            assert msm_generic(group, points, scalars) == expected

    def test_engine_msm_g2_skips_infinity(self):
        got = DEFAULT_ENGINE.msm_g2(
            [G2Point.infinity(), G2_GENERATOR], [5, 3]
        )
        assert got == 3 * G2_GENERATOR

    def test_empty(self):
        assert DEFAULT_ENGINE.msm_g2([], []).is_infinity


class TestCachedFft:
    def test_roundtrip_matches_uncached(self):
        rng = random.Random(7)
        for size in (2, 8, 32):
            omega = domain_root(size)
            vals = [rng.randrange(FR_MODULUS) for _ in range(size)]
            assert cached_fft(vals, omega) == fft(vals, omega)
            assert cached_ifft(vals, omega) == ifft(vals, omega)
            assert cached_ifft(cached_fft(vals, omega), omega) == vals
            # inputs one modulus above canonical reduce inside the butterflies
            wide = [v + FR_MODULUS for v in vals]
            assert cached_fft(wide, omega) == fft(vals, omega)

    def test_coset_roundtrip_matches_uncached(self):
        rng = random.Random(8)
        for size in (4, 16):
            omega = domain_root(size)
            vals = [rng.randrange(FR_MODULUS) for _ in range(size)]
            assert cached_coset_fft(vals, omega) == coset_fft(vals, omega)
            assert cached_coset_ifft(vals, omega) == coset_ifft(vals, omega)
            assert (
                cached_coset_ifft(cached_coset_fft(vals, omega), omega) == vals
            )

    def test_twiddle_cache_is_reused(self):
        from repro.engine import fft as engine_fft

        omega = domain_root(16)
        cached_fft([1] * 16, omega)
        table = engine_fft._twiddles[(16, omega)]
        cached_fft([2] * 16, omega)
        assert engine_fft._twiddles[(16, omega)] is table

    def test_domain_root_errors(self):
        from repro.errors import ProvingError

        with pytest.raises(ProvingError):
            domain_root(12)
        with pytest.raises(ProvingError):
            domain_root(1 << 29)


def _chain_circuit(m):
    cs = ConstraintSystem(PrimeField(BN254_R))
    x = cs.alloc_public(3)
    acc = cs.alloc(3)
    cs.enforce_equal(acc, x)
    for _ in range(m):
        acc = cs.mul(acc, acc + 1)
    return cs


class TestEngine:
    def test_get_engine_default(self):
        assert get_engine() is DEFAULT_ENGINE
        eng = Engine()
        assert get_engine(eng) is eng
        assert eng.workers == 1


class TestCaches:
    def test_fixed_base_table_cached_across_engines(self):
        t1 = DEFAULT_ENGINE.fixed_base_table(
            TOY29.generator, TOY29.infinity, 24
        )
        t2 = Engine().fixed_base_table(TOY29.generator, TOY29.infinity, 24)
        assert t1 is t2
        assert t1.mul(1000) == 1000 * TOY29.generator

    def test_fixed_base_table_standalone(self):
        table = FixedBaseTable(BN254_G1.generator, BN254_G1.infinity, 16)
        assert table.mul(31337) == 31337 * BN254_G1.generator

    def test_prepared_key_is_memoized(self):
        cs = _chain_circuit(4)
        pk, _, _ = setup(cs)
        prep1 = DEFAULT_ENGINE.prepare(pk)
        prep2 = DEFAULT_ENGINE.prepare(pk)
        assert prep1 is prep2
        # sparse queries drop identity points
        for i, base in zip(prep1.a.indices, prep1.a.bases):
            assert not pk.a_query[i].is_infinity
            assert (pk.a_query[i].x, pk.a_query[i].y) == base


def _bindable_circuit(m=10):
    """A pass-through-bound public wire plus a chain of muls, with value
    tracking enabled (the statement flow in miniature)."""
    cs = ConstraintSystem(PrimeField(BN254_R))
    t = cs.alloc_public(0, "T")
    t_wire = next(iter(t.terms))
    cs.enforce(t, cs.one, t, "bind")
    acc = cs.alloc(3)
    cs.enforce_equal(acc, cs.constant(3))
    for _ in range(m):
        acc = cs.mul(acc, acc + 1)
    cs.enable_value_tracking()
    return cs, t_wire


class TestCompiledEngine:
    def test_compile_memoized_across_same_structure_systems(self):
        cs1 = _chain_circuit(6)
        cs2 = _chain_circuit(6)
        compiled = DEFAULT_ENGINE.compile(cs1)
        assert DEFAULT_ENGINE.compile(cs2) is compiled
        assert Engine().compile(cs1) is compiled  # memo is engine-independent

    def test_compile_hit_across_two_prove_calls(self, monkeypatch):
        from repro.r1cs import CompiledCircuit

        cs = _chain_circuit(6)
        pk, vk, _ = setup(cs)
        compiled = DEFAULT_ENGINE.compile(cs)
        calls = []
        orig_init = CompiledCircuit.__init__

        def counting_init(self, system):
            calls.append(system)
            orig_init(self, system)

        monkeypatch.setattr(CompiledCircuit, "__init__", counting_init)
        p1 = prove(pk, cs)
        p2 = prove(pk, cs)
        assert not calls  # both proofs reused the memoized lowering
        assert DEFAULT_ENGINE.compile(cs) is compiled
        verify(prepare(vk), p1, cs.public_inputs())
        verify(prepare(vk), p2, cs.public_inputs())

    def test_eval_cache_hit_when_nothing_rebound(self):
        cs, _ = _bindable_circuit()
        _, e1 = DEFAULT_ENGINE.evaluate_r1cs(cs)
        _, e2 = DEFAULT_ENGINE.evaluate_r1cs(cs)
        assert e1 is e2  # no dirty wires: the cached evals come back as-is

    def test_incremental_rebind_matches_fresh_evaluation(self):
        from repro.r1cs import CompiledCircuit

        cs, t_wire = _bindable_circuit()
        DEFAULT_ENGINE.evaluate_r1cs(cs)  # seed the eval cache
        cs.set_value(t_wire, 777)
        _, incremental = DEFAULT_ENGINE.evaluate_r1cs(cs)
        fresh = CompiledCircuit.from_system(cs).evaluate(cs.values)
        assert tuple(incremental) == tuple(fresh)
        assert cs._dirty_wires == set()  # consumed by the update

    def test_incremental_rebind_uses_update_path(self, monkeypatch):
        from repro.r1cs import CompiledCircuit

        cs, t_wire = _bindable_circuit()
        DEFAULT_ENGINE.evaluate_r1cs(cs)
        calls = []
        orig = CompiledCircuit.update_evals

        def counting(self, evals, values, changed):
            calls.append(set(changed))
            return orig(self, evals, values, changed)

        monkeypatch.setattr(CompiledCircuit, "update_evals", counting)
        cs.set_value(t_wire, 42)
        DEFAULT_ENGINE.evaluate_r1cs(cs)
        assert calls == [{t_wire}]

    def test_structural_change_after_tracking_forces_full_eval(self):
        cs, t_wire = _bindable_circuit()
        _, e1 = DEFAULT_ENGINE.evaluate_r1cs(cs)
        x = cs.alloc(4)
        cs.mul(x, x)  # new structure: new compiled circuit, cache miss
        cs.enable_value_tracking()
        _, e2 = DEFAULT_ENGINE.evaluate_r1cs(cs)
        assert len(e2[0]) == len(e1[0]) + 1


class TestProverSynthesisSplit:
    @pytest.fixture(scope="class")
    def world(self):
        from repro.clock import DAY, SimClock
        from repro.core import NopeProver
        from repro.profiles import TOY, build_hierarchy

        clock = SimClock()
        hierarchy = build_hierarchy(
            TOY,
            ["example.com"],
            inception=clock.now() - DAY,
            expiration=clock.now() + 365 * DAY,
        )
        prover = NopeProver(TOY, hierarchy, "example.com", backend="simulation")
        prover.trusted_setup()
        return {"clock": clock, "prover": prover}

    def test_repeated_proofs_synthesize_structure_once(self, world):
        prover = world["prover"]
        assert prover.synthesis_count == 1  # trusted_setup's synthesis
        p1, ts1 = prover.generate_proof(b"tls-key-1", b"ca", ts=600)
        p2, ts2 = prover.generate_proof(b"tls-key-2", b"ca", ts=1200)
        assert prover.synthesis_count == 1
        assert p1 != p2  # different T/TS bind into different proofs

    def test_bind_witness_tracks_rebound_wires(self, world):
        prover = world["prover"]
        cs = prover._structure_cs()
        assert cs._dirty_wires is not None  # synthesize enabled tracking
        cs._dirty_wires.clear()
        prover.statement.bind_witness(cs, b"\x01" * 8, b"\x02" * 8, 900)
        # exactly the three pass-through wires (T, N, TS) were re-bound,
        # so the engine's incremental path re-evaluates three rows
        assert cs._dirty_wires == set(prover.statement.binding_wires)
        assert len(cs._dirty_wires) == 3

    def test_rebound_public_inputs_verify(self, world):
        prover = world["prover"]
        proof, ts = prover.generate_proof(b"tls-key-3", "Some CA", ts=1800)
        from repro.core.common import input_digest

        expected = prover.statement.public_inputs(
            prover.domain,
            prover.root_zsk_dnskey().public_key,
            input_digest(prover.profile, b"tls-key-3"),
            input_digest(prover.profile, b"Some CA"),
            ts,
        )
        prover.backend.verify(
            prover.keys, prover.backend.decode(proof), expected
        )

    def test_bind_witness_rejects_managed_shapes(self, world):
        from repro.core.statement import NopeStatement, StatementShape
        from repro.errors import SynthesisError
        from repro.profiles import TOY

        stmt = NopeStatement(StatementShape(TOY, 1, managed=True))
        with pytest.raises(SynthesisError):
            stmt.bind_witness(None, b"", b"", 0)

    def test_bind_witness_requires_synthesis(self):
        from repro.core.statement import NopeStatement, StatementShape
        from repro.errors import SynthesisError
        from repro.profiles import TOY

        stmt = NopeStatement(StatementShape(TOY, 1))
        with pytest.raises(SynthesisError):
            stmt.bind_witness(None, b"", b"", 0)


class TestInjectableTimer:
    def test_issuance_timeline_reproducible_with_fake_timer(self):
        from repro.ca import AcmeServer, CertificationAuthority, CtLog, PlainDnsView
        from repro.clock import DAY, SimClock
        from repro.core import NopeProver
        from repro.profiles import TOY, build_hierarchy
        from repro.sig import EcdsaPrivateKey

        clock = SimClock()
        hierarchy = build_hierarchy(
            TOY,
            ["example.com"],
            inception=clock.now() - DAY,
            expiration=clock.now() + 365 * DAY,
        )
        logs = [CtLog("log-a", clock)]
        ca = CertificationAuthority("Repro Encrypt", clock, logs, TOY29)
        acme = AcmeServer(ca, PlainDnsView(hierarchy), clock)
        prover = NopeProver(TOY, hierarchy, "example.com", backend="simulation")
        prover.trusted_setup()
        tls_key = EcdsaPrivateKey.generate(TOY29)

        ticks = iter([100.0, 142.0])  # proof generation "took" 42 s
        chain, timeline = prover.obtain_certificate(
            acme, tls_key, clock, timer=lambda: next(ticks)
        )
        assert timeline.as_dict()["nope_proof_generation"] == 42.0
