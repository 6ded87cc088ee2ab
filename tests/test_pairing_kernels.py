"""Parity tests for the twist Miller loop's kernels, and GT goldens.

Each kernel is checked against a slower, independent formulation: the
sparse line product against a dense Fq12 product, the flat 12-tuple
products against Fq6-level schoolbook, cyclotomic squaring against plain
squaring, projective twist steps against affine G2 arithmetic, the
prepared replay against the raw loop, and the whole loop against the
untwisted E(Fq12) reference in ``tests/pairing_oracle.py``.  The goldens
pin GT values recorded before the loop moved onto the twist.
"""

import json
import pathlib
import random

import pytest

from repro.ec import BN254_G1
from repro.ec.curves import BN254_R
from repro.engine import get_engine
from repro.errors import CurveError
from repro.field.extension import (
    BN254_P,
    Fq2,
    Fq6,
    Fq12,
    _cyc_sqr12,
    _m6,
    _mul12,
    _mul12_by_034,
    _sqr12,
)
from repro.groth16 import prepare, prove, setup, verify_batch
from repro.groth16.serialize import proof_to_bytes
from repro.groth16.verify import batch_coefficients
from repro.pairing import (
    G2_GENERATOR,
    G2Point,
    final_exponentiation,
    multi_miller,
    multi_pairing,
    pairing,
    prepare_g2,
)
from repro.pairing.ate import _add, _double, _raw_point
from tests.pairing_oracle import in_fq2, miller_loop as oracle_miller_loop
from tests.test_verify_batch import cubic_system

G1 = BN254_G1.generator
G2 = G2_GENERATOR
P = BN254_P

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "pairing_gt.json").read_text()
)


def gt_hex(f):
    return "".join("%064x" % x for x in f.raw())


def _rand_fq12(rng):
    return Fq12.from_raw(tuple(rng.randrange(P) for _ in range(12)))


def _unitary(f):
    """The final exponentiation's easy part: lands in the cyclotomic subgroup."""
    t = f.conjugate() * f.inverse()
    return t.frobenius_n(2) * t


class TestFlatKernels:
    def test_m6_matches_fq2_schoolbook(self):
        rng = random.Random(31)
        for _ in range(20):
            a = [Fq2(rng.randrange(P), rng.randrange(P)) for _ in range(3)]
            b = [Fq2(rng.randrange(P), rng.randrange(P)) for _ in range(3)]
            want = (
                a[0] * b[0] + (a[1] * b[2] + a[2] * b[1]).mul_by_xi(),
                a[0] * b[1] + a[1] * b[0] + (a[2] * b[2]).mul_by_xi(),
                a[0] * b[2] + a[1] * b[1] + a[2] * b[0],
            )
            got = _m6(tuple(c for x in a for c in (x.c0, x.c1)),
                      tuple(c for x in b for c in (x.c0, x.c1)))
            assert tuple(c % P for c in got) == tuple(
                c for x in want for c in (x.c0, x.c1)
            )

    def test_mul12_and_sqr12_match_fq6_schoolbook(self):
        rng = random.Random(32)
        for _ in range(10):
            f, g = _rand_fq12(rng), _rand_fq12(rng)
            # (a0 + a1 w)(b0 + b1 w) = a0 b0 + a1 b1 v + (a0 b1 + a1 b0) w
            want = Fq12(
                f.c0 * g.c0 + (f.c1 * g.c1).mul_by_v(),
                f.c0 * g.c1 + f.c1 * g.c0,
            )
            assert _mul12(f.raw(), g.raw()) == want.raw()
            assert _sqr12(f.raw()) == _mul12(f.raw(), f.raw())

    def test_sparse_line_product_matches_dense(self):
        rng = random.Random(33)
        for i in range(30):
            f = _rand_fq12(rng)
            a0, a1, b30, b31, b40, b41 = (rng.randrange(P) for _ in range(6))
            if i % 3 == 0:
                a1 = 0  # slot 0 in the base field
            if i % 5 == 0:
                b30 = b31 = 0
            line = Fq12(
                Fq6(Fq2(a0, a1), Fq2.zero(), Fq2.zero()),
                Fq6(Fq2(b30, b31), Fq2(b40, b41), Fq2.zero()),
            )
            got = _mul12_by_034(f.raw(), a0, a1, b30, b31, b40, b41)
            assert got == (f * line).raw()

    def test_cyclotomic_square_matches_square(self):
        rng = random.Random(34)
        elems = [_unitary(_rand_fq12(rng)) for _ in range(8)]
        elems.append(_unitary(multi_miller([(3 * G1, 5 * G2)])))
        elems.append(Fq12.one())
        for f in elems:
            assert _cyc_sqr12(f.raw()) == f.square().raw()
            assert f.cyclotomic_square() == f.square()

    def test_cyclotomic_square_needs_a_unitary_input(self):
        f = _rand_fq12(random.Random(35))
        assert f.cyclotomic_square() != f.square()


def _projective(pt, z):
    """A G2 point as raw homogeneous (X, Y, Z) with the given Z."""
    x, y = pt.x * z, pt.y * z
    return (x.c0, x.c1, y.c0, y.c1, z.c0, z.c1)


def _affine(r):
    z_inv = Fq2(r[4], r[5]).inverse()
    return G2Point(Fq2(r[0], r[1]) * z_inv, Fq2(r[2], r[3]) * z_inv)


def _assert_line_is_scaled_affine(line, lam, b):
    """(c0, c1, c2) is a nonzero Fq2 multiple of the affine (-1, lam, b)."""
    c0, c1, c2 = (Fq2(line[i], line[i + 1]) for i in (0, 2, 4))
    assert not c0.is_zero()
    scale = -c0
    assert c1 == lam * scale
    assert c2 == b * scale


class TestProjectiveSteps:
    """The inversion-free twist steps against affine G2 arithmetic."""

    def test_double_matches_affine(self):
        rng = random.Random(36)
        for _ in range(6):
            pt = rng.randrange(1, BN254_R) * G2
            z = Fq2(rng.randrange(1, P), rng.randrange(P))
            line, r2 = _double(_projective(pt, z))
            assert _affine(r2) == pt + pt
            lam = pt.x.square() * 3 * (pt.y + pt.y).inverse()
            _assert_line_is_scaled_affine(line, lam, pt.y - lam * pt.x)

    def test_add_matches_affine(self):
        rng = random.Random(37)
        for _ in range(6):
            pt = rng.randrange(1, BN254_R) * G2
            q = rng.randrange(1, BN254_R) * G2
            z = Fq2(rng.randrange(1, P), rng.randrange(P))
            line, r2 = _add(_projective(pt, z), _raw_point(q))
            assert _affine(r2) == pt + q
            lam = (q.y - pt.y) * (q.x - pt.x).inverse()
            _assert_line_is_scaled_affine(line, lam, pt.y - lam * pt.x)

    def test_degenerate_chord_raises(self):
        # r == q and r == -q have no chord; neither happens for G2 points
        pt = 7 * G2
        z = Fq2(3, 4)
        for q in (pt, -pt):
            with pytest.raises(CurveError):
                _add(_projective(pt, z), _raw_point(q))


class TestMillerLoop:
    def test_prepared_replay_matches_raw_loop(self):
        rng = random.Random(38)
        for _ in range(3):
            p = rng.randrange(1, BN254_R) * G1
            q = rng.randrange(1, BN254_R) * G2
            assert multi_miller([(p, prepare_g2(q))]) == multi_miller([(p, q)])

    def test_mixed_pairs_match_oracle_product(self):
        rng = random.Random(39)
        pairs = [
            (rng.randrange(1, BN254_R) * G1, rng.randrange(1, BN254_R) * G2)
            for _ in range(3)
        ]
        mixed = [pairs[0], (pairs[1][0], prepare_g2(pairs[1][1])), pairs[2]]
        f = multi_miller(mixed)
        ref = Fq12.one()
        for p, q in pairs:
            ref = ref * oracle_miller_loop(q, p)
        assert in_fq2(f * ref.inverse())
        assert final_exponentiation(f) == final_exponentiation(ref)


class TestGtGoldens:
    """GT values bit-identical to the ones recorded before the rewrite."""

    def test_pairing_generators(self):
        assert gt_hex(pairing(G1, G2)) == GOLDEN["pairing_g1_g2"]

    def test_verify_shaped_triples(self):
        for case in GOLDEN["verify_triples"]:
            a, b, c, d, e, g, h, k = (int(s) for s in case["scalars"])
            pairs = [
                (a * G1, b * G2),
                (c * G1, prepare_g2(d * G2)),
                (e * G1, prepare_g2(g * G2)),
            ]
            gt_factor = pairing(h * G1, k * G2)
            assert gt_hex(multi_pairing(pairs) * gt_factor) == case["gt"]

    def test_three_proof_batch_equation(self):
        golden = GOLDEN["batch"]
        rng = random.Random(golden["rng_seed"])

        def rand():
            return rng.randrange(1, BN254_R)

        systems = [cubic_system(w) for w in golden["witnesses"]]
        pk, vk, _ = setup(systems[0], rng=rand)
        proofs = [prove(pk, cs, rng=rand) for cs in systems]
        assert [proof_to_bytes(p).hex() for p in proofs] == golden["proofs"]
        publics = [cs.public_inputs() for cs in systems]
        pvk = prepare(vk)
        verify_batch(pvk, proofs, publics)
        # the batch equation's two sides, built as verify_batch builds them
        eng = get_engine()
        coeffs = batch_coefficients(proofs, publics)
        scale = sum(coeffs) % BN254_R
        ic_scalars = [scale] + [
            sum(z * (xs[j] % BN254_R) for z, xs in zip(coeffs, publics))
            % BN254_R
            for j in range(vk.num_public)
        ]
        ab = [
            (eng.msm_points([-p.a], [z % BN254_R]), p.b)
            for z, p in zip(coeffs, proofs)
        ]
        tail = [
            (eng.msm_points(vk.ic, ic_scalars), pvk.gamma_prepared),
            (eng.msm_points([p.c for p in proofs], coeffs), pvk.delta_prepared),
            (eng.msm_points([vk.alpha_g1], [scale]), pvk.beta_prepared),
        ]
        ab_gt, tail_gt = multi_pairing(ab), multi_pairing(tail)
        assert gt_hex(ab_gt) == golden["ab_gt"]
        assert gt_hex(tail_gt) == golden["tail_gt"]
        assert (ab_gt * tail_gt).is_one()
