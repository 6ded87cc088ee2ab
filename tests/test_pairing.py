"""Tests for BN254 G2 and the optimal ate pairing."""

import random

import pytest

from repro.ec import BN254_G1
from repro.errors import CurveError, EncodingError
from repro.field.extension import BN254_P, Fq2, Fq6, Fq12
from repro.groth16.serialize import _fq2_sqrt
from repro.pairing import (
    B2,
    BN254_R,
    G2Point,
    G2Prepared,
    G2_GENERATOR,
    final_exponentiation,
    miller_loop,
    miller_loop_with_lines,
    multi_pairing,
    pairing,
    pairing_check,
    prepare_g2,
)
from repro.pairing.bn254 import _jac_add, _jac_add_affine, _jac_double, _jac_equal

G1 = BN254_G1.generator
G2 = G2_GENERATOR


class TestG2:
    def test_generator_on_curve(self):
        assert G2Point.on_curve(G2.x, G2.y)

    def test_generator_in_subgroup(self):
        assert G2.in_subgroup()

    def test_order(self):
        assert (BN254_R * G2).is_infinity

    def test_add_identity(self):
        assert G2 + G2Point.infinity() == G2

    def test_inverse(self):
        assert (G2 + (-G2)).is_infinity

    def test_scalar_distributes(self):
        assert 5 * G2 == 2 * G2 + 3 * G2

    def test_double(self):
        assert G2.double() == 2 * G2

    def test_make_rejects_off_curve(self):
        with pytest.raises(CurveError):
            G2Point.make(Fq2(1, 2), Fq2(3, 4))

    def test_infinity_in_subgroup(self):
        assert G2Point.infinity().in_subgroup()


#: #E'(Fq2) = r * h2; h2 = 2p - r has the small prime factors 10069 and
#: 5864401, so the twist carries low-order points outside G2
_TWIST_COFACTOR = 2 * BN254_P - BN254_R


def _twist_points(rng, count):
    """Seeded points on the twist with no cofactor clearing."""
    out = []
    while len(out) < count:
        x = Fq2(rng.randrange(BN254_P), rng.randrange(BN254_P))
        try:
            y = _fq2_sqrt(x.square() * x + B2)
        except EncodingError:
            continue
        out.append(G2Point.make(x, y))
    return out


def _order_r_test(q):
    return (BN254_R * q).is_infinity


class TestG2Membership:
    """The psi-based in_subgroup must agree with the [r]Q ladder."""

    def test_points_outside_g2(self):
        for q in _twist_points(random.Random(14), 12):
            assert q.in_subgroup() == _order_r_test(q)
            assert not q.in_subgroup()

    def test_low_order_and_mixed_points(self):
        rng = random.Random(15)
        base = _twist_points(rng, 2)
        for ell, q in zip((10069, 5864401), base):
            torsion = (_TWIST_COFACTOR * BN254_R // ell) * q
            assert not torsion.is_infinity
            assert (ell * torsion).is_infinity
            mixed = torsion + rng.randrange(1, BN254_R) * G2
            for pt in (torsion, -torsion, mixed, -mixed):
                assert pt.in_subgroup() == _order_r_test(pt)
                assert not pt.in_subgroup()

    def test_g2_points(self):
        rng = random.Random(16)
        points = [G2, -G2, 2 * G2, G2Point.infinity()]
        for _ in range(4):
            q = rng.randrange(1, BN254_R) * G2
            points.extend((q, -q))
        for q in points:
            assert q.in_subgroup() == _order_r_test(q)
            assert q.in_subgroup()

    def test_jacobian_kernel_edge_cases(self):
        def jac(pt, z=Fq2(1, 0)):
            if pt.is_infinity:
                return (1, 0, 1, 0, 0, 0)
            x, y = pt.x * z.square(), pt.y * z.square() * z
            return (x.c0, x.c1, y.c0, y.c1, z.c0, z.c1)

        q = 7 * G2
        aff = (q.x.c0, q.x.c1, q.y.c0, q.y.c1)
        z = Fq2(5, 3)
        inf = jac(G2Point.infinity())
        # P + P doubles, P + (-P) cancels, on both addition formulas
        assert _jac_equal(_jac_add_affine(jac(q, z), aff), jac(2 * q))
        assert _jac_equal(_jac_add_affine(jac(-q, z), aff), inf)
        assert _jac_equal(_jac_add(jac(q, z), jac(q)), jac(2 * q))
        assert _jac_equal(_jac_add(jac(q, z), jac(-q)), inf)
        assert _jac_equal(_jac_add_affine(inf, aff), jac(q))
        assert _jac_equal(_jac_add(inf, jac(q, z)), jac(q))
        assert _jac_equal(_jac_add(jac(q, z), inf), jac(q))
        assert _jac_equal(_jac_double(inf), inf)
        assert _jac_equal(_jac_double(jac(q, z)), jac(2 * q))
        assert _jac_equal(_jac_add(jac(q, z), jac(2 * q)), jac(3 * q))
        assert not _jac_equal(jac(q, z), jac(-q))
        assert not _jac_equal(jac(q), inf)


def _plain_final_exponentiation(f):
    """The easy part, then a plain pow by the hard exponent."""
    easy = f.conjugate() * f.inverse()
    easy = easy.frobenius_n(2) * easy
    return easy.pow((BN254_P ** 4 - BN254_P ** 2 + 1) // BN254_R)


class TestFinalExponentiation:
    def test_matches_plain_hard_exponent(self):
        rng = random.Random(17)
        for _ in range(3):
            p = rng.randrange(1, BN254_R) * G1
            q = rng.randrange(1, BN254_R) * G2
            f = miller_loop(q, p)
            assert final_exponentiation(f) == _plain_final_exponentiation(f)

    def test_arbitrary_fq12_inputs(self):
        # the chain is exact for any nonzero element, not only Miller outputs
        rng = random.Random(18)

        def fq6():
            return Fq6(*(Fq2(rng.randrange(BN254_P), rng.randrange(BN254_P))
                         for _ in range(3)))

        for f in (Fq12.one(), Fq12(fq6(), fq6()), Fq12(fq6(), Fq6.zero())):
            assert final_exponentiation(f) == _plain_final_exponentiation(f)


class TestPairing:
    def test_bilinearity_g1(self):
        assert pairing(2 * G1, G2) == pairing(G1, G2).pow(2)

    def test_bilinearity_g2(self):
        assert pairing(G1, 3 * G2) == pairing(G1, G2).pow(3)

    def test_bilinearity_both(self):
        assert pairing(2 * G1, 3 * G2) == pairing(G1, G2).pow(6)

    def test_nondegenerate(self):
        e = pairing(G1, G2)
        assert not e.is_one()
        assert not e.is_zero()

    def test_result_has_order_r(self):
        e = pairing(G1, G2)
        assert e.pow(BN254_R).is_one()

    def test_pairing_with_infinity(self):
        assert pairing(BN254_G1.infinity, G2).is_one()
        assert pairing(G1, G2Point.infinity()).is_one()

    def test_inverse_pairing(self):
        e1 = pairing(-G1, G2)
        e2 = pairing(G1, -G2)
        assert e1 == e2
        assert (e1 * pairing(G1, G2)).is_one()

    def test_multi_pairing_product(self):
        lhs = multi_pairing([(G1, G2), (2 * G1, G2)])
        rhs = pairing(3 * G1, G2)
        assert lhs == rhs

    def test_pairing_check_balanced(self):
        # e(aP, bQ) * e(-abP, Q) == 1
        assert pairing_check([(2 * G1, 3 * G2), (-(6 * G1), G2)])

    def test_pairing_check_unbalanced(self):
        assert not pairing_check([(2 * G1, 3 * G2), (-(5 * G1), G2)])

    def test_miller_loop_needs_final_exp(self):
        f = miller_loop(G2, G1)
        assert not f.is_one()
        assert final_exponentiation(f) == pairing(G1, G2)

    def test_final_exponentiation_zero_raises(self):
        with pytest.raises(CurveError):
            final_exponentiation(Fq12.zero())


class TestPreparedPairing:
    """Stored Miller-loop lines must replay to exactly the naive pairing."""

    def test_prepared_miller_loop_matches_naive(self):
        import secrets

        for _ in range(3):
            a = secrets.randbelow(BN254_R - 1) + 1
            b = secrets.randbelow(BN254_R - 1) + 1
            p, q = a * G1, b * G2
            prepared = prepare_g2(q)
            assert miller_loop_with_lines(prepared, p) == miller_loop(q, p)

    def test_prepared_pairing_matches_naive(self):
        p, q = 7 * G1, 11 * G2
        assert pairing(p, prepare_g2(q)) == pairing(p, q)

    def test_miller_loop_accepts_prepared(self):
        prepared = prepare_g2(5 * G2)
        assert miller_loop(prepared, G1) == miller_loop(5 * G2, G1)

    def test_prepare_is_idempotent(self):
        prepared = prepare_g2(G2)
        assert prepare_g2(prepared) is prepared

    def test_prepared_infinity(self):
        prepared = prepare_g2(G2Point.infinity())
        assert prepared.coeffs is None
        assert miller_loop_with_lines(prepared, G1).is_one()

    def test_prepared_with_infinity_g1(self):
        prepared = prepare_g2(G2)
        assert miller_loop_with_lines(prepared, BN254_G1.infinity).is_one()

    def test_pairing_check_with_prepared_entries(self):
        prepared = prepare_g2(G2)
        assert pairing_check([(2 * G1, prepare_g2(3 * G2)), (-(6 * G1), prepared)])
        assert not pairing_check([(2 * G1, prepare_g2(3 * G2)), (-(5 * G1), prepared)])

    def test_pairing_check_gt_factor(self):
        e = pairing(G1, G2)
        # e(-G1, G2) * e(G1, G2) == 1, folding one side in as a GT factor
        assert pairing_check([(-G1, G2)], gt_factor=e)
        assert not pairing_check([(G1, G2)], gt_factor=e)

    def test_bilinearity_through_prepared(self):
        prepared = prepare_g2(G2)
        assert pairing(2 * G1, prepared) == pairing(G1, prepared).pow(2)

    def test_repr(self):
        assert "G2Prepared" in repr(prepare_g2(G2))
        assert isinstance(prepare_g2(G2), G2Prepared)
