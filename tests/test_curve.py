"""Tests for the elliptic-curve group law, MSM, and scalar decomposition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import P256, SECP256K1, TOY61, BN254_G1, Point, decompose, half_width_bound, straus
from repro.ec.curve import JAC_INFINITY, jac_add, jac_add_affine, jac_double, jac_mul, jac_to_affine
from repro.engine import get_engine
from repro.errors import CurveError

msm_points = get_engine().msm_points

ALL_CURVES = [P256, SECP256K1, TOY61, BN254_G1]


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.name)
class TestGroupLaw:
    def test_generator_on_curve(self, curve):
        g = curve.generator
        assert curve.contains(g.x, g.y)

    def test_generator_order(self, curve):
        assert (curve.order * curve.generator).is_infinity

    def test_identity(self, curve):
        g = curve.generator
        assert g + curve.infinity == g
        assert curve.infinity + g == g

    def test_inverse(self, curve):
        g = curve.generator
        assert (g + (-g)).is_infinity

    def test_associativity_sample(self, curve):
        g = curve.generator
        p, q, r = 2 * g, 3 * g, 5 * g
        assert (p + q) + r == p + (q + r)

    def test_scalar_distributes(self, curve):
        g = curve.generator
        assert 7 * g == 3 * g + 4 * g

    def test_double_matches_add(self, curve):
        g = curve.generator
        assert g.double() == g + g

    def test_scalar_mod_order(self, curve):
        g = curve.generator
        assert (curve.order + 5) * g == 5 * g

    def test_point_validation(self, curve):
        with pytest.raises(CurveError):
            curve.point(1234, 5678) if not curve.contains(1234, 5678) else None
            raise CurveError("skip")  # if (1234,5678) happened to be on curve

    def test_encode_decode_compressed(self, curve):
        p = 12345 * curve.generator
        assert Point.decode(curve, p.encode(compressed=True)) == p

    def test_encode_decode_uncompressed(self, curve):
        p = 98765 * curve.generator
        assert Point.decode(curve, p.encode(compressed=False)) == p

    def test_infinity_encoding(self, curve):
        assert Point.decode(curve, curve.infinity.encode()) == curve.infinity


def _rescaled(curve, pt, z):
    """An arbitrary-Z Jacobian representative of the affine Point ``pt``."""
    p = curve.field.p
    return (pt.x * z * z % p, pt.y * z * z * z % p, z)


class TestJacobian:
    def test_roundtrip(self):
        g = P256.generator
        assert Point.from_jacobian(P256, g.to_jacobian()) == g

    def test_double(self):
        g = P256.generator
        jac = jac_double(P256, g.to_jacobian())
        assert Point.from_jacobian(P256, jac) == 2 * g
        assert jac_double(P256, JAC_INFINITY) == JAC_INFINITY

    def test_add_matches_affine(self):
        g = P256.generator
        j = jac_add(P256, (2 * g).to_jacobian(), (3 * g).to_jacobian())
        assert Point.from_jacobian(P256, j) == 5 * g
        # infinity on either side returns the other operand unchanged
        pt = _rescaled(P256, 2 * g, 12345)
        assert jac_add(P256, JAC_INFINITY, pt) == pt
        assert jac_add(P256, pt, JAC_INFINITY) == pt

    def test_add_affine_mixed(self):
        g = P256.generator
        q = 7 * g
        j = jac_add_affine(P256, (2 * g).to_jacobian(), (q.x, q.y))
        assert Point.from_jacobian(P256, j) == 9 * g
        # an infinity accumulator lifts the affine base with Z = 1
        assert jac_add_affine(P256, JAC_INFINITY, (q.x, q.y)) == (q.x, q.y, 1)

    def test_add_same_point_doubles(self):
        g = P256.generator
        j = jac_add(P256, g.to_jacobian(), g.to_jacobian())
        assert Point.from_jacobian(P256, j) == 2 * g
        # same point under two different Z representatives still doubles
        q = 5 * BN254_G1.generator
        a, b = _rescaled(BN254_G1, q, 77), _rescaled(BN254_G1, q, 91)
        assert Point.from_jacobian(BN254_G1, jac_add(BN254_G1, a, b)) == 2 * q
        assert jac_add(BN254_G1, a, a) == jac_double(BN254_G1, a)

    def test_add_inverse_gives_infinity(self):
        g = P256.generator
        j = jac_add(P256, g.to_jacobian(), (-g).to_jacobian())
        assert jac_to_affine(P256, j) is None
        q = 5 * BN254_G1.generator
        a, b = _rescaled(BN254_G1, q, 77), _rescaled(BN254_G1, -q, 91)
        assert jac_add(BN254_G1, a, b) == JAC_INFINITY
        assert jac_add_affine(BN254_G1, a, ((-q).x, (-q).y)) == JAC_INFINITY

    def test_mul_zero(self):
        g = P256.generator
        assert jac_mul(P256, g.to_jacobian(), 0) == JAC_INFINITY

    @given(st.integers(min_value=1, max_value=TOY61.order - 1))
    @settings(max_examples=20, deadline=None)
    def test_mul_matches_naive(self, k):
        g = TOY61.generator
        expected = k * g
        got = Point.from_jacobian(TOY61, jac_mul(TOY61, g.to_jacobian(), k))
        assert got == expected


class TestMsm:
    def test_small_msm_matches_naive(self):
        g = P256.generator
        points = [g, 2 * g, 3 * g]
        scalars = [5, 7, 11]
        expected = (5 + 14 + 33) * g
        assert msm_points(points, scalars) == expected

    def test_msm_with_zero_scalars(self):
        g = P256.generator
        assert msm_points([g, 2 * g], [0, 0]) == P256.infinity

    def test_msm_with_infinity_points(self):
        g = P256.generator
        assert msm_points([P256.infinity, g], [5, 3]) == 3 * g

    def test_msm_single(self):
        g = TOY61.generator
        assert msm_points([g], [42]) == 42 * g

    def test_msm_mismatched_lengths(self):
        with pytest.raises(ValueError):
            msm_points([P256.generator], [1, 2])

    def test_msm_empty(self):
        with pytest.raises(ValueError):
            msm_points([], [])

    def test_msm_large_random(self):
        g = TOY61.generator
        points = [(i + 1) * g for i in range(50)]
        scalars = [TOY61.scalar_field.rand() for _ in range(50)]
        expected = sum(
            (k * p for p, k in zip(points, scalars)), TOY61.infinity
        )
        assert msm_points(points, scalars) == expected

    def test_straus_matches_naive(self):
        g = P256.generator
        q = 999 * g
        assert straus([g, q], [123456, 654321]) == 123456 * g + 654321 * q

    def test_straus_three_points(self):
        g = TOY61.generator
        pts = [g, 5 * g, 9 * g]
        ks = [11, 13, 17]
        assert straus(pts, ks) == (11 + 65 + 153) * g

    def test_straus_table_limit(self):
        g = TOY61.generator
        with pytest.raises(ValueError):
            straus([g] * 10, [1] * 10, window=4)


class TestDecompose:
    @given(st.integers(min_value=1, max_value=P256.order - 1))
    @settings(max_examples=30, deadline=None)
    def test_decompose_properties(self, h1):
        n = P256.order
        v, rem, sign = decompose(h1, n)
        assert v > 0 and rem >= 0
        assert sign in (1, -1)
        assert h1 * v % n == (sign * rem) % n
        bound = 1 << half_width_bound(n)
        assert v < bound
        assert rem < bound

    def test_decompose_zero_raises(self):
        with pytest.raises(CurveError):
            decompose(0, P256.order)

    def test_decompose_one(self):
        v, rem, sign = decompose(1, TOY61.order)
        assert (v * 1) % TOY61.order == (sign * rem) % TOY61.order


class TestCurveUtilities:
    def test_lift_x_both_parities(self):
        g = P256.generator
        p0 = P256.lift_x(g.x, 0)
        p1 = P256.lift_x(g.x, 1)
        assert {p0.y % 2, p1.y % 2} == {0, 1}
        assert g in (p0, p1)

    def test_random_point_in_subgroup(self):
        p = TOY61.random_point()
        assert (TOY61.order * p).is_infinity
        assert not p.is_infinity

    def test_hash_to_scalar_deterministic(self):
        a = P256.hash_to_scalar(b"hello")
        assert a == P256.hash_to_scalar(b"hello")
        assert a != P256.hash_to_scalar(b"world")
        assert 0 <= a < P256.order

    def test_toy61_is_supersingular_order(self):
        # q = 3 mod 4 and #E = q + 1 = cofactor * order
        assert TOY61.field.p % 4 == 3
        assert TOY61.cofactor * TOY61.order == TOY61.field.p + 1
