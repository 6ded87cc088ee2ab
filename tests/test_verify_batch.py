"""Tests for batched Groth16 verification: the random-linear-combination
multi-pairing check, Fiat–Shamir coefficient derivation, and the
bisection fallback."""

import pytest

from repro.ec.curves import BN254_R
from repro.errors import ProofError
from repro.field import PrimeField
from repro.groth16 import (
    BatchVerificationError,
    PreparedVerifyingKey,
    Proof,
    batch_coefficients,
    batch_is_valid,
    is_valid,
    prepare,
    prove,
    rerandomize,
    setup,
    verify,
    verify_batch,
)
from repro.r1cs import ConstraintSystem

FR = PrimeField(BN254_R)
R = BN254_R

BATCH = 5


def cubic_system(w_val):
    cs = ConstraintSystem(FR)
    x_val = (pow(w_val, 3, R) + w_val + 5) % R
    x = cs.alloc_public(x_val, "x")
    w = cs.alloc(w_val, "w")
    w2 = cs.mul(w, w)
    w3 = cs.mul(w2, w)
    cs.enforce_equal(w3 + w + 5, x)
    return cs


@pytest.fixture(scope="module")
def batch():
    systems = [cubic_system(3 + i) for i in range(BATCH)]
    pk, vk, _ = setup(systems[0])
    proofs = [prove(pk, cs) for cs in systems]
    publics = [cs.public_inputs() for cs in systems]
    return vk, prepare(vk), proofs, publics


def tampered(proof):
    return Proof(2 * proof.a, proof.b, proof.c)


class TestBatchVerify:
    def test_accepts_good_batch(self, batch):
        _, pvk, proofs, publics = batch
        verify_batch(pvk, proofs, publics)

    def test_accepts_unprepared_vk(self, batch):
        vk, _, proofs, publics = batch
        verify_batch(vk, proofs, publics)

    def test_empty_and_single(self, batch):
        _, pvk, proofs, publics = batch
        verify_batch(pvk, [], [])
        verify_batch(pvk, proofs[:1], publics[:1])

    def test_single_bad_raises_index_zero(self, batch):
        _, pvk, proofs, publics = batch
        with pytest.raises(BatchVerificationError) as exc:
            verify_batch(pvk, [tampered(proofs[0])], publics[:1])
        assert exc.value.indices == [0]

    @pytest.mark.parametrize("bad_at", range(BATCH))
    def test_bisects_to_tampered_proof(self, batch, bad_at):
        _, pvk, proofs, publics = batch
        bad = [tampered(p) if i == bad_at else p for i, p in enumerate(proofs)]
        with pytest.raises(BatchVerificationError) as exc:
            verify_batch(pvk, bad, publics)
        assert exc.value.indices == [bad_at]

    def test_bisects_to_tampered_public_input(self, batch):
        _, pvk, proofs, publics = batch
        bad = [list(xs) for xs in publics]
        bad[3][0] = (bad[3][0] + 1) % R
        with pytest.raises(BatchVerificationError) as exc:
            verify_batch(pvk, proofs, bad)
        assert exc.value.indices == [3]

    def test_reports_multiple_offenders(self, batch):
        _, pvk, proofs, publics = batch
        bad = list(proofs)
        bad[1] = tampered(proofs[1])
        bad[4] = tampered(proofs[4])
        with pytest.raises(BatchVerificationError) as exc:
            verify_batch(pvk, bad, publics)
        assert exc.value.indices == [1, 4]

    def test_structural_failure_reported_without_pairing(self, batch):
        _, pvk, proofs, publics = batch
        short = [list(xs) for xs in publics]
        short[2] = []
        with pytest.raises(BatchVerificationError) as exc:
            verify_batch(pvk, proofs, short)
        assert exc.value.indices == [2]

    def test_batch_error_is_proof_error(self, batch):
        _, pvk, proofs, publics = batch
        with pytest.raises(ProofError):
            verify_batch(pvk, [tampered(proofs[0])] + proofs[1:], publics)

    def test_length_mismatch(self, batch):
        _, pvk, proofs, publics = batch
        with pytest.raises(ValueError):
            verify_batch(pvk, proofs, publics[:-1])

    def test_verdicts_match_per_proof_verify(self, batch):
        _, pvk, proofs, publics = batch
        vectors = [(proofs, publics, True)]
        bad_proofs = [tampered(p) for p in proofs]
        vectors.append((bad_proofs, publics, False))
        for ps, xs, expected in vectors:
            individual = all(
                is_valid(pvk, p, x) for p, x in zip(ps, xs)
            )
            assert individual == expected
            assert batch_is_valid(pvk, ps, xs) == expected

    def test_rerandomized_proofs_batch_verify(self, batch):
        vk, pvk, proofs, publics = batch
        mauled = [rerandomize(vk, p) for p in proofs]
        verify_batch(pvk, mauled, publics)


class TestBatchCoefficients:
    def test_deterministic(self, batch):
        _, _, proofs, publics = batch
        assert batch_coefficients(proofs, publics) == batch_coefficients(
            proofs, publics
        )

    def test_binds_proof_bytes(self, batch):
        _, _, proofs, publics = batch
        other = [tampered(proofs[0])] + proofs[1:]
        assert batch_coefficients(proofs, publics) != batch_coefficients(
            other, publics
        )

    def test_binds_public_inputs(self, batch):
        _, _, proofs, publics = batch
        other = [list(xs) for xs in publics]
        other[0][0] = (other[0][0] + 1) % R
        assert batch_coefficients(proofs, publics) != batch_coefficients(
            proofs, other
        )

    def test_nonzero_and_bounded(self, batch):
        _, _, proofs, publics = batch
        for z in batch_coefficients(proofs, publics):
            assert 0 < z < (1 << 128)


class TestPreparedKey:
    def test_prepare_idempotent(self, batch):
        vk, pvk, _, _ = batch
        assert prepare(pvk) is pvk
        assert isinstance(prepare(vk), PreparedVerifyingKey)

    def test_prepared_key_has_lines(self, batch):
        _, pvk, _, _ = batch
        for prepared in (
            pvk.beta_prepared, pvk.gamma_prepared, pvk.delta_prepared
        ):
            assert prepared.coeffs

    def test_verify_accepts_either_form(self, batch):
        vk, pvk, proofs, publics = batch
        verify(vk, proofs[0], publics[0])
        verify(pvk, proofs[0], publics[0])
