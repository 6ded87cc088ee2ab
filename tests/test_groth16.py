"""Tests for the Groth16 back-end: FFT, setup, prove, verify, serialize,
malleability, forgery, and the simulation backend."""

import pytest

from repro.ec.curves import BN254_R
from repro.errors import EncodingError, ProofError, ProvingError
from repro.field import PrimeField
from repro.groth16 import (
    PROOF_SIZE,
    Proof,
    coset_fft,
    coset_ifft,
    domain_root,
    fft,
    forge_with_toxic_waste,
    g1_from_bytes,
    g1_to_bytes,
    g2_from_bytes,
    g2_to_bytes,
    ifft,
    is_valid,
    prepare,
    proof_from_bytes,
    proof_to_bytes,
    prove,
    rerandomize,
    setup,
    sim_prove,
    sim_setup,
    sim_verify,
    verify,
)
from repro.r1cs import ConstraintSystem

FR = PrimeField(BN254_R)
R = BN254_R


def cubic_system(w_val, x_val=None):
    """Public x; witness w with w^3 + w + 5 == x."""
    cs = ConstraintSystem(FR)
    if x_val is None:
        x_val = (pow(w_val, 3, R) + w_val + 5) % R
    x = cs.alloc_public(x_val, "x")
    w = cs.alloc(w_val, "w")
    w2 = cs.mul(w, w)
    w3 = cs.mul(w2, w)
    cs.enforce_equal(w3 + w + 5, x)
    return cs


@pytest.fixture(scope="module")
def keys():
    cs = cubic_system(3)
    pk, vk, toxic = setup(cs)
    return cs, pk, vk, toxic


class TestFFT:
    def test_roundtrip(self):
        vals = [1, 2, 3, 4, 5, 6, 7, 8]
        omega = domain_root(8)
        assert ifft(fft(vals, omega), omega) == [v % R for v in vals]

    def test_coset_roundtrip(self):
        vals = [9, 8, 7, 6]
        omega = domain_root(4)
        assert coset_ifft(coset_fft(vals, omega), omega) == vals

    def test_convolution_property(self):
        # multiply two polynomials via FFT and check one evaluation
        omega = domain_root(8)
        a = [3, 1, 0, 0, 0, 0, 0, 0]  # 3 + x
        b = [2, 5, 0, 0, 0, 0, 0, 0]  # 2 + 5x
        prod_evals = [
            x * y % R for x, y in zip(fft(a, omega), fft(b, omega))
        ]
        prod = ifft(prod_evals, omega)
        assert prod[:3] == [6, 17, 5]  # (3+x)(2+5x) = 6 + 17x + 5x^2

    def test_root_order(self):
        omega = domain_root(16)
        assert pow(omega, 16, R) == 1
        assert pow(omega, 8, R) != 1

    def test_bad_sizes(self):
        with pytest.raises(ProvingError):
            fft([1, 2, 3], domain_root(4))
        with pytest.raises(ProvingError):
            domain_root(12)


class TestProveVerify:
    def test_valid_proof(self, keys):
        cs, pk, vk, _ = keys
        proof = prove(pk, cs)
        verify(prepare(vk), proof, cs.public_inputs())

    def test_wrong_public_input_rejected(self, keys):
        cs, pk, vk, _ = keys
        proof = prove(pk, cs)
        assert not is_valid(prepare(vk), proof, [cs.public_inputs()[0] + 1])

    def test_public_input_count_checked(self, keys):
        cs, pk, vk, _ = keys
        proof = prove(pk, cs)
        with pytest.raises(ProofError):
            verify(prepare(vk), proof, [])

    def test_proof_for_other_witness_same_statement(self, keys):
        # different (x, w) pair under the same circuit/keys
        _, pk, vk, _ = keys
        cs2 = cubic_system(7)
        proof = prove(pk, cs2)
        verify(prepare(vk), proof, cs2.public_inputs())

    def test_unsatisfied_system_cannot_prove(self, keys):
        _, pk, vk, _ = keys
        cs_bad = cubic_system(3, x_val=999)  # wrong public value
        with pytest.raises(Exception):
            prove(pk, cs_bad)

    def test_mismatched_key_rejected(self, keys):
        _, pk, _, _ = keys
        cs_other = ConstraintSystem(FR)
        a = cs_other.alloc(2)
        cs_other.mul(a, a)
        with pytest.raises(ProvingError):
            prove(pk, cs_other)

    def test_tampered_proof_rejected(self, keys):
        cs, pk, vk, _ = keys
        proof = prove(pk, cs)
        bad = Proof(2 * proof.a, proof.b, proof.c)
        assert not is_valid(prepare(vk), bad, cs.public_inputs())

    def test_proofs_are_randomized(self, keys):
        cs, pk, _, _ = keys
        p1 = prove(pk, cs)
        p2 = prove(pk, cs)
        assert p1.a != p2.a  # fresh r, s each time (zero-knowledge blinding)

    def test_verify_with_unprepared_vk(self, keys):
        cs, pk, vk, _ = keys
        proof = prove(pk, cs)
        verify(vk, proof, cs.public_inputs())


def _fixed_rng():
    vals = [123456789, 987654321]
    return lambda: vals.pop(0)


class TestCompiledProver:
    def test_proofs_byte_identical_across_evaluation_paths(self, keys):
        cs, pk, vk, _ = keys
        p_legacy = prove(pk, cs, rng=_fixed_rng(), use_compiled=False)
        p_compiled = prove(pk, cs, rng=_fixed_rng())
        assert proof_to_bytes(p_legacy) == proof_to_bytes(p_compiled)
        verify(prepare(vk), p_compiled, cs.public_inputs())

    def test_each_constraint_evaluated_exactly_once(self, keys, monkeypatch):
        from repro.r1cs import LinearCombination

        cs, pk, _, _ = keys
        calls = [0]
        orig = LinearCombination.evaluate

        def counting(self, values, modulus):
            calls[0] += 1
            return orig(self, values, modulus)

        monkeypatch.setattr(LinearCombination, "evaluate", counting)
        # legacy path: one walk per LC — 3 per constraint, no double pass
        prove(pk, cs, use_compiled=False)
        assert calls[0] == 3 * cs.num_constraints
        # compiled path: the CSR evaluator never touches the LCs at all
        calls[0] = 0
        prove(pk, cs)
        assert calls[0] == 0

    def test_unsatisfied_error_identical_across_paths(self, keys):
        from repro.errors import UnsatisfiedError

        _, pk, _, _ = keys
        with pytest.raises(UnsatisfiedError) as e_check:
            cubic_system(3, x_val=999).check_satisfied()
        with pytest.raises(UnsatisfiedError) as e_legacy:
            prove(pk, cubic_system(3, x_val=999), use_compiled=False)
        with pytest.raises(UnsatisfiedError) as e_compiled:
            prove(pk, cubic_system(3, x_val=999))
        assert str(e_check.value) == str(e_legacy.value) == str(e_compiled.value)


class TestMalleability:
    def test_rerandomized_proof_verifies(self, keys):
        cs, pk, vk, _ = keys
        proof = prove(pk, cs)
        mauled = rerandomize(vk, proof)
        assert mauled.a != proof.a and mauled.b != proof.b
        verify(prepare(vk), mauled, cs.public_inputs())

    def test_rerandomization_cannot_change_statement(self, keys):
        cs, pk, vk, _ = keys
        proof = prove(pk, cs)
        mauled = rerandomize(vk, proof)
        assert not is_valid(prepare(vk), mauled, [cs.public_inputs()[0] + 1])


class TestForgery:
    def test_toxic_waste_forges_arbitrary_statements(self, keys):
        cs, _, vk, toxic = keys
        # no witness exists with w^3+w+5 == 4 ... but the trapdoor "proves" it
        forged = forge_with_toxic_waste(toxic, cs, [4])
        verify(prepare(vk), forged, [4])

    def test_forgery_needs_matching_input_length(self, keys):
        cs, _, _, toxic = keys
        with pytest.raises(ProvingError):
            forge_with_toxic_waste(toxic, cs, [1, 2])


class TestSerialization:
    def test_proof_roundtrip(self, keys):
        cs, pk, vk, _ = keys
        proof = prove(pk, cs)
        data = proof_to_bytes(proof)
        assert len(data) == PROOF_SIZE == 128
        restored = proof_from_bytes(data)
        assert restored == proof
        verify(prepare(vk), restored, cs.public_inputs())

    def test_g1_roundtrip(self):
        from repro.ec.curves import BN254_G1

        for k in (1, 2, 12345):
            pt = k * BN254_G1.generator
            assert g1_from_bytes(g1_to_bytes(pt)) == pt
        assert g1_from_bytes(g1_to_bytes(BN254_G1.infinity)).is_infinity

    def test_g2_roundtrip(self):
        from repro.pairing.bn254 import G2Point, G2_GENERATOR

        for k in (1, 3, 98765):
            pt = k * G2_GENERATOR
            got = g2_from_bytes(g2_to_bytes(pt))
            assert got == pt
        inf = G2Point.infinity()
        assert g2_from_bytes(g2_to_bytes(inf)).is_infinity

    def test_bad_lengths(self):
        with pytest.raises(EncodingError):
            proof_from_bytes(b"\x00" * 127)
        with pytest.raises(EncodingError):
            g1_from_bytes(b"\x00" * 31)

    def test_g1_offcurve_rejected(self):
        data = bytearray(32)
        data[-1] = 5  # x=5: 125+3=128 is not a QR mod p? try several
        for x in range(4, 20):
            data[-1] = x
            try:
                g1_from_bytes(bytes(data))
            except EncodingError:
                break
        else:
            pytest.skip("no non-square found in range")

    def test_g2_subgroup_enforced(self):
        # a point on the twist but outside the r-subgroup must be rejected
        from repro.field.extension import Fq2
        from repro.pairing.bn254 import B2, G2Point
        from repro.field.prime_field import PrimeField
        from repro.field.extension import BN254_P

        fq = PrimeField(BN254_P)
        x_try = 1
        while True:
            x = Fq2(x_try, 0)
            rhs = x.square() * x + B2
            try:
                from repro.groth16.serialize import _fq2_sqrt

                y = _fq2_sqrt(rhs)
            except EncodingError:
                x_try += 1
                continue
            pt = G2Point(x, y)
            if not pt.in_subgroup():
                break
            x_try += 1
        with pytest.raises(EncodingError):
            g2_from_bytes(g2_to_bytes(pt))


def _off_subgroup_twist_point(seed):
    """A seeded point on the twist outside G2."""
    import random

    from tests.test_pairing import _twist_points

    (pt,) = _twist_points(random.Random(seed), 1)
    assert not (BN254_R * pt).is_infinity
    return pt


class TestSubgroupCheckOnce:
    """A decoded proof's B pays the psi membership test once, not twice."""

    def test_decode_then_verify_runs_the_ladder_once(self, keys, monkeypatch):
        import repro.pairing.bn254 as bn254

        cs, pk, vk, _ = keys
        data = proof_to_bytes(prove(pk, cs))
        pvk = prepare(vk)
        calls = []
        ladder = bn254._jac_mul_x

        def counting(q):
            calls.append(q)
            return ladder(q)

        monkeypatch.setattr(bn254, "_jac_mul_x", counting)
        verify(pvk, proof_from_bytes(data), cs.public_inputs())
        assert len(calls) == 1

    def test_verify_refuses_a_built_proof_with_off_subgroup_b(self, keys):
        cs, pk, vk, _ = keys
        proof = prove(pk, cs)
        bad = Proof(proof.a, _off_subgroup_twist_point(41), proof.c)
        with pytest.raises(ProofError):
            verify(prepare(vk), bad, cs.public_inputs())

    def test_answer_follows_the_coordinates(self):
        from repro.pairing.bn254 import G2_GENERATOR

        off = _off_subgroup_twist_point(42)
        assert not off.in_subgroup()
        good = 5 * G2_GENERATOR
        assert good.in_subgroup()
        # swapping coordinates in either direction never reuses the answer
        off.x, off.y = good.x, good.y
        assert off.in_subgroup()
        bad = _off_subgroup_twist_point(43)
        good.x, good.y = bad.x, bad.y
        assert not good.in_subgroup()


class TestSimulationBackend:
    def test_sim_roundtrip(self):
        cs = cubic_system(5)
        key = sim_setup(cs)
        proof = sim_prove(key, cs)
        sim_verify(key, proof, cs.public_inputs())

    def test_sim_rejects_wrong_inputs(self):
        cs = cubic_system(5)
        key = sim_setup(cs)
        proof = sim_prove(key, cs)
        with pytest.raises(ProofError):
            sim_verify(key, proof, [0])

    def test_sim_rejects_unsatisfied(self):
        cs = cubic_system(5, x_val=1)
        key = sim_setup(cs)
        with pytest.raises(Exception):
            sim_prove(key, cs)

    def test_sim_key_statement_binding(self):
        cs = cubic_system(5)
        other = ConstraintSystem(FR)
        a = other.alloc(1)
        other.mul(a, a)
        key = sim_setup(other)
        with pytest.raises(ProvingError):
            sim_prove(key, cs)
