"""Unit tests for repro.ec.glv: Antipa decomposition edges and GLV splits."""

import math
import random

import pytest

from repro.ec.curves import BN254_G1, P256, SECP256K1, TOY29
from repro.ec.glv import (
    curve_endomorphism,
    decompose,
    glv_basis,
    half_width_bound,
    split_scalar,
)
from repro.errors import CurveError


class TestDecompose:
    def test_rejects_zero_mod_n(self):
        n = SECP256K1.order
        with pytest.raises(CurveError):
            decompose(0, n)
        with pytest.raises(CurveError):
            decompose(n, n)
        with pytest.raises(CurveError):
            decompose(3 * n, n)

    def test_h1_one(self):
        # h1 = 1 stays below sqrt(n) immediately: v = 1, rem = 1, sign = +1
        n = SECP256K1.order
        v, rem, sign = decompose(1, n)
        assert (v, rem, sign) == (1, 1, 1)

    def test_h1_minus_one(self):
        # h1 = n - 1 = -1 (mod n): one Euclid step gives v = 1, rem = 1, sign = -1
        n = SECP256K1.order
        v, rem, sign = decompose(n - 1, n)
        assert v * (n - 1) % n == (sign * rem) % n
        assert v.bit_length() <= half_width_bound(n)
        assert rem.bit_length() <= half_width_bound(n)

    def test_h1_near_sqrt_n(self):
        # values straddling the sqrt(n) stopping bound must still satisfy
        # the congruence and the half-width bound
        n = SECP256K1.order
        root = math.isqrt(n)
        for h1 in (root - 1, root, root + 1, root * root % n):
            v, rem, sign = decompose(h1, n)
            assert v > 0 and rem >= 0 and sign in (1, -1)
            assert v * h1 % n == (sign * rem) % n
            assert v.bit_length() <= half_width_bound(n)
            assert rem.bit_length() <= half_width_bound(n)

    def test_randomized_congruence_and_bounds(self):
        rng = random.Random(7)
        for curve in (SECP256K1, P256, BN254_G1):
            n = curve.order
            bound = half_width_bound(n)
            for _ in range(50):
                h1 = rng.randrange(1, n)
                v, rem, sign = decompose(h1, n)
                assert v * h1 % n == (sign * rem) % n
                assert v.bit_length() <= bound
                assert rem.bit_length() <= bound

    def test_small_order(self):
        # exhaustive over every nonzero scalar of a 16-bit prime modulus
        n = 65521
        bound = half_width_bound(n)
        for h1 in range(1, n):
            v, rem, sign = decompose(h1, n)
            assert v > 0 and rem >= 0 and sign in (1, -1)
            assert v * h1 % n == (sign * rem) % n
            assert v.bit_length() <= bound
            assert rem.bit_length() <= bound
        # and a seeded sample of the 27-bit TOY29 group order
        n = TOY29.order
        bound = half_width_bound(n)
        rng = random.Random(29)
        for h1 in [1, n - 1] + [rng.randrange(1, n) for _ in range(2000)]:
            v, rem, sign = decompose(h1, n)
            assert v * h1 % n == (sign * rem) % n
            assert v.bit_length() <= bound
            assert rem.bit_length() <= bound


class TestGlvSplit:
    def test_basis_vectors_in_lattice(self):
        for curve in (SECP256K1, BN254_G1):
            beta, lam = curve_endomorphism(curve)
            n = curve.order
            for a, b in glv_basis(lam, n):
                assert (a + b * lam) % n == 0
                assert abs(a) < n and abs(b) < n

    def test_split_roundtrip_and_width(self):
        rng = random.Random(11)
        for curve in (SECP256K1, BN254_G1):
            _beta, lam = curve_endomorphism(curve)
            n = curve.order
            basis = glv_basis(lam, n)
            # a couple of bits over sqrt(n) covers Babai rounding slack
            width = (n.bit_length() + 1) // 2 + 2
            for _ in range(100):
                k = rng.randrange(n)
                k1, k2 = split_scalar(k, n, basis)
                assert (k1 + k2 * lam - k) % n == 0
                assert abs(k1).bit_length() <= width
                assert abs(k2).bit_length() <= width

    def test_split_edge_scalars(self):
        _beta, lam = curve_endomorphism(SECP256K1)
        n = SECP256K1.order
        basis = glv_basis(lam, n)
        for k in (0, 1, n - 1, lam, n - lam, math.isqrt(n)):
            k1, k2 = split_scalar(k, n, basis)
            assert (k1 + k2 * lam - k) % n == 0

    def test_degenerate_basis_rejected(self):
        with pytest.raises(CurveError):
            split_scalar(5, SECP256K1.order, ((2, 4), (1, 2)))


class TestCurveEndomorphism:
    def test_capable_curves(self):
        # j = 0 curves with p = 1 (mod 3) carry the endomorphism
        for curve in (SECP256K1, BN254_G1):
            params = curve_endomorphism(curve)
            assert params is not None
            beta, lam = params
            p, n = curve.field.p, curve.order
            assert pow(beta, 3, p) == 1 and beta != 1
            assert pow(lam, 3, n) == 1 and lam != 1

    def test_endomorphism_is_lambda_mul(self):
        for curve in (SECP256K1, BN254_G1):
            beta, lam = curve_endomorphism(curve)
            p = curve.field.p
            rng = random.Random(13)
            for _ in range(5):
                pt = rng.randrange(1, curve.order) * curve.generator
                phi = curve.point(beta * pt.x % p, pt.y)
                assert phi == lam * pt

    def test_incapable_curves(self):
        # a != 0 (P-256) and tiny toy curves have no j = 0 endomorphism
        assert curve_endomorphism(P256) is None
        assert curve_endomorphism(TOY29) is None

    def test_memoized(self):
        assert curve_endomorphism(SECP256K1) is curve_endomorphism(SECP256K1)
