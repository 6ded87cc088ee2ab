"""Canonical-path regression cases first written as Montgomery parity checks.

The field once had a second, Montgomery representation, and these cases
compared it with the canonical ``%``-based path.  That representation is
gone; every kernel runs the canonical path.  The cases keep their names
and inputs and now pin the canonical side against an independent
reference: affine point arithmetic for the Jacobian kernels, the naive
``msm_reference`` for the bucket MSM, the uncached ``groth16.fft`` for the
cached NTT, per-element ``pow`` for batch inversion, and a second prove
for proof bytes.
"""

import random

import pytest

from repro.ec.curve import (
    JAC_INFINITY,
    Point,
    jac_add,
    jac_add_affine,
    jac_double,
    jac_to_affine,
)
from repro.ec.curves import BN254_G1, BN254_R
from repro.engine.fft import cached_coset_fft, cached_fft, cached_ifft, domain_root
from repro.engine.group import JacobianGroup
from repro.engine.msm import msm_generic, msm_reference
from repro.errors import FieldError
from repro.field import PrimeField
from repro.groth16.fft import coset_fft, fft

P = BN254_G1.field.p
FIELD = PrimeField(P)
RNG = random.Random(0xA1B2)


def rand_elems(n, p=P):
    return [RNG.randrange(1, p) for _ in range(n)]


def _affine(pt):
    """The affine class of a Jacobian tuple, as a curve Point."""
    return Point.from_jacobian(BN254_G1, pt)


class TestMontInverse:
    def test_mont_inv(self):
        for a in rand_elems(25):
            inv = FIELD.inv(a)
            assert a * inv % P == 1
            assert inv == pow(a, -1, P)
        # a non-canonical input inverts like its residue
        assert FIELD.inv(P + 7) == pow(7, -1, P)

    def test_mont_inv_zero_raises(self):
        with pytest.raises(FieldError):
            FIELD.inv(0)
        with pytest.raises(FieldError):
            FIELD.inv(P)

    def test_batch_inverse_matches_prime_field(self):
        xs = rand_elems(17)
        assert FIELD.batch_inverse(xs) == [FIELD.inv(x) for x in xs]
        assert FIELD.batch_inverse(xs) == [pow(x, -1, P) for x in xs]

    def test_batch_inverse_zero_index(self):
        with pytest.raises(FieldError, match="index 1"):
            FIELD.batch_inverse([3, 0, 5])
        # a multiple of p is a zero element too
        with pytest.raises(FieldError, match="index 1"):
            FIELD.batch_inverse([3, P, 5])

    def test_batch_inverse_empty(self):
        assert FIELD.batch_inverse([]) == []


def jac_rand_points(n):
    rng = random.Random(909)
    pts = []
    for _ in range(n):
        aff = rng.randrange(1, 1 << 24) * BN254_G1.generator
        z = rng.randrange(1, P)
        # an arbitrary-Z Jacobian representative of the same affine point
        pts.append((aff.x * z * z % P, aff.y * z * z * z % P, z))
    return pts


class TestJacKernelParity:
    """The Jacobian point kernels on arbitrary-Z inputs agree with affine
    point arithmetic, including the branches that special-case equal,
    opposite and infinite operands."""

    def test_double_parity(self):
        for pt in jac_rand_points(12):
            assert _affine(jac_double(BN254_G1, pt)) == _affine(pt).double()

    def test_add_parity(self):
        pts = jac_rand_points(12)
        for p1, p2 in zip(pts, pts[1:]):
            assert _affine(jac_add(BN254_G1, p1, p2)) == _affine(p1) + _affine(p2)

    def test_add_affine_parity(self):
        pts = jac_rand_points(10)
        for p1, p2 in zip(pts, pts[1:]):
            aff = jac_to_affine(BN254_G1, p2)
            got = jac_add_affine(BN254_G1, p1, aff)
            assert _affine(got) == _affine(p1) + _affine(p2)
            # the mixed add matches the full add on the same operands
            assert _affine(got) == _affine(jac_add(BN254_G1, p1, p2))

    def test_chain_parity(self):
        # a long mixed double/add chain stays on the affine class
        pts = jac_rand_points(6)
        acc = JAC_INFINITY
        want = BN254_G1.infinity
        for i, pt in enumerate(pts * 3):
            if i % 2:
                acc = jac_double(BN254_G1, acc)
                want = want.double()
            acc = jac_add(BN254_G1, acc, pt)
            want = want + _affine(pt)
            assert _affine(acc) == want

    def test_special_cases(self):
        pt = jac_rand_points(1)[0]
        # infinity handling
        assert jac_add(BN254_G1, JAC_INFINITY, pt) == pt
        assert jac_add(BN254_G1, pt, JAC_INFINITY) == pt
        assert jac_double(BN254_G1, JAC_INFINITY) == JAC_INFINITY
        # P + P routes through the doubling branch
        assert jac_add(BN254_G1, pt, pt) == jac_double(BN254_G1, pt)
        # P + (-P) cancels to infinity
        neg = (pt[0], (-pt[1]) % P, pt[2])
        assert jac_add(BN254_G1, pt, neg) == JAC_INFINITY
        # mixed add onto an infinity accumulator lifts with Z = 1
        aff = jac_to_affine(BN254_G1, pt)
        assert jac_add_affine(BN254_G1, JAC_INFINITY, aff) == (aff[0], aff[1], 1)
        # mixed P + P and P + (-P)
        assert _affine(jac_add_affine(BN254_G1, pt, aff)) == _affine(pt).double()
        neg_aff = (aff[0], (-aff[1]) % P)
        assert jac_add_affine(BN254_G1, pt, neg_aff) == JAC_INFINITY


def _msm_workload(seed, n):
    rng = random.Random(seed)
    bases, scalars = [], []
    g = BN254_G1.generator
    for _ in range(n):
        pt = rng.randrange(1, 1 << 20) * g
        bases.append((pt.x, pt.y))
        scalars.append(rng.randrange(0, BN254_G1.order))
    return bases, scalars


def _naive_msm(bases, scalars):
    acc = BN254_G1.infinity
    for (x, y), k in zip(bases, scalars):
        acc = acc + k * BN254_G1.point(x, y)
    return acc


class TestMontgomeryGroup:
    """The bucket MSM on the Jacobian group against the naive reference."""

    GROUP = JacobianGroup(BN254_G1)

    def test_msm_parity(self):
        for seed, n in ((11, 1), (22, 33), (33, 120)):
            bases, scalars = _msm_workload(seed, n)
            want = msm_reference(self.GROUP, bases, scalars)
            got = msm_generic(self.GROUP, bases, scalars)
            assert _affine(got) == _affine(want)

    def test_msm_bucket_collisions(self):
        # duplicate bases (P + P in a bucket) and negated pairs (P + -P)
        bases, _ = _msm_workload(77, 8)
        bases = bases + bases + [(x, (-y) % P) for x, y in bases[:4]]
        k = 0x1F2F3F4F
        scalars = [k] * len(bases)
        want = _naive_msm(bases, scalars)
        assert _affine(msm_generic(self.GROUP, bases, scalars)) == want
        assert _affine(msm_reference(self.GROUP, bases, scalars)) == want

    def test_msm_edge_scalars(self):
        bases, _ = _msm_workload(55, 4)
        for scalars in ([0, 0, 0, 0], [1, 0, BN254_G1.order - 1, 2]):
            want = _naive_msm(bases, scalars)
            assert _affine(msm_generic(self.GROUP, bases, scalars)) == want
            assert _affine(msm_reference(self.GROUP, bases, scalars)) == want

    def test_reduce_buckets_parity(self):
        bases, _ = _msm_workload(88, 6)
        neg = (bases[0][0], (-bases[0][1]) % P)
        bucket_lists = [
            bases[:3],
            [],                       # empty bucket -> None
            [bases[0], bases[0]],     # doubling branch
            [bases[0], neg],          # cancellation -> None
            bases[3:] + [bases[3]],
        ]
        want = []
        for lst in bucket_lists:
            total = BN254_G1.infinity
            for x, y in lst:
                total = total + BN254_G1.point(x, y)
            want.append(None if total.is_infinity else (total.x, total.y))
        assert self.GROUP.reduce_buckets(bucket_lists) == want


class TestFFTParity:
    """The cached NTT against the uncached reference transform."""

    def _values(self, n, seed=5):
        rng = random.Random(seed)
        return [rng.randrange(0, BN254_R) for _ in range(n)]

    def test_fft_parity(self):
        for n in (2, 8, 64):
            values = self._values(n)
            omega = domain_root(n)
            assert cached_fft(list(values), omega) == fft(list(values), omega)

    def test_ifft_round_trip_forced(self):
        values = self._values(32)
        omega = domain_root(32)
        assert cached_ifft(cached_fft(list(values), omega), omega) == values

    def test_coset_fft_parity(self):
        values = self._values(16, seed=6)
        omega = domain_root(16)
        want = coset_fft(list(values), omega)
        assert cached_coset_fft(list(values), omega) == want

    def test_fft_handles_unreduced_inputs(self):
        values = self._values(8, seed=7)
        wide = [v + BN254_R for v in values]
        omega = domain_root(8)
        want = fft(list(values), omega)
        assert cached_fft(list(wide), omega) == want


class TestEndToEndParity:
    """Identical proof bytes and verdicts across two proves of one
    statement with the same keys and blinding randomness."""

    def _prove_bytes(self):
        from repro.groth16 import is_valid, proof_to_bytes, prove
        from repro.r1cs import ConstraintSystem

        field = PrimeField(BN254_R)
        cs = ConstraintSystem(field)
        w_val = 3
        x_val = (pow(w_val, 3, BN254_R) + w_val + 5) % BN254_R
        x = cs.alloc_public(x_val, "x")
        w = cs.alloc(w_val, "w")
        w2 = cs.mul(w, w)
        w3 = cs.mul(w2, w)
        cs.enforce_equal(w3 + w + 5, x)
        pk, vk, _ = self._keys_for(cs)
        rng_values = iter([123456789, 987654321])
        proof = prove(pk, cs, rng=lambda: next(rng_values))
        assert is_valid(vk, proof, cs.public_inputs())
        return proof_to_bytes(proof)

    _cached_keys = None

    def _keys_for(self, cs):
        from repro.groth16 import setup

        if TestEndToEndParity._cached_keys is None:
            TestEndToEndParity._cached_keys = setup(cs)
        return TestEndToEndParity._cached_keys

    def test_proof_bytes_identical(self):
        first = self._prove_bytes()
        second = self._prove_bytes()
        assert second == first
