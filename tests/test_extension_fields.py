"""Tests for the BN254 tower Fq2/Fq6/Fq12."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.field.extension import BN254_P, Fq2, Fq6, Fq12, XI

fq = st.integers(min_value=0, max_value=BN254_P - 1)


def rand_fq2(draw):
    return Fq2(draw(fq), draw(fq))


fq2_strategy = st.builds(Fq2, fq, fq)
fq6_strategy = st.builds(Fq6, fq2_strategy, fq2_strategy, fq2_strategy)
fq12_strategy = st.builds(Fq12, fq6_strategy, fq6_strategy)


class TestFq2:
    def test_mul_matches_definition(self):
        # (a0 + a1 u)(b0 + b1 u) = (a0 b0 - a1 b1) + (a0 b1 + a1 b0) u
        a = Fq2(3, 5)
        b = Fq2(7, 11)
        c = a * b
        assert c.c0 == (3 * 7 - 5 * 11) % BN254_P
        assert c.c1 == (3 * 11 + 5 * 7) % BN254_P

    def test_square_matches_mul(self):
        a = Fq2(123456789, 987654321)
        assert a.square() == a * a

    @given(fq2_strategy)
    @settings(max_examples=25, deadline=None)
    def test_inverse(self, a):
        if a.is_zero():
            return
        assert a * a.inverse() == Fq2.one()

    def test_mul_by_xi(self):
        a = Fq2(2, 3)
        assert a.mul_by_xi() == a * XI

    def test_frobenius_is_pth_power(self):
        a = Fq2(5, 7)
        assert a.frobenius() == a.pow(BN254_P)

    def test_int_scalar(self):
        a = Fq2(5, 7)
        assert a * 3 == a + a + a


class TestFq6:
    @given(fq6_strategy, fq6_strategy)
    @settings(max_examples=15, deadline=None)
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(fq6_strategy)
    @settings(max_examples=15, deadline=None)
    def test_inverse(self, a):
        if a.is_zero():
            return
        assert a * a.inverse() == Fq6.one()

    def test_mul_by_v(self):
        v = Fq6(Fq2.zero(), Fq2.one(), Fq2.zero())
        a = Fq6(Fq2(1, 2), Fq2(3, 4), Fq2(5, 6))
        assert a.mul_by_v() == a * v

    def test_v_cubed_is_xi(self):
        v = Fq6(Fq2.zero(), Fq2.one(), Fq2.zero())
        xi_elem = Fq6(XI, Fq2.zero(), Fq2.zero())
        assert v * v * v == xi_elem

    def test_frobenius_composition(self):
        a = Fq6(Fq2(1, 2), Fq2(3, 4), Fq2(5, 6))
        x = a
        for _ in range(6):
            x = x.frobenius()
        assert x == a  # Frobenius has order 6 on Fq6


class TestFq12:
    @given(fq12_strategy, fq12_strategy, fq12_strategy)
    @settings(max_examples=10, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)

    @given(fq12_strategy)
    @settings(max_examples=10, deadline=None)
    def test_inverse(self, a):
        if a.is_zero():
            return
        assert a * a.inverse() == Fq12.one()

    def test_square_matches_mul(self):
        a = Fq12(
            Fq6(Fq2(1, 2), Fq2(3, 4), Fq2(5, 6)),
            Fq6(Fq2(7, 8), Fq2(9, 10), Fq2(11, 12)),
        )
        assert a.square() == a * a

    def test_w_squared_is_v(self):
        w = Fq12(Fq6.zero(), Fq6.one())
        v12 = Fq12(Fq6(Fq2.zero(), Fq2.one(), Fq2.zero()), Fq6.zero())
        assert w * w == v12

    def test_frobenius_matches_pth_power(self):
        a = Fq12(
            Fq6(Fq2(1, 2), Fq2(3, 4), Fq2(5, 6)),
            Fq6(Fq2(7, 8), Fq2(9, 10), Fq2(11, 12)),
        )
        assert a.frobenius() == a.pow(BN254_P)

    def test_frobenius_order_12(self):
        a = Fq12(
            Fq6(Fq2(1, 1), Fq2(2, 2), Fq2(3, 3)),
            Fq6(Fq2(4, 4), Fq2(5, 5), Fq2(6, 6)),
        )
        assert a.frobenius_n(12) == a

    def test_conjugate_is_p6_power(self):
        a = Fq12(
            Fq6(Fq2(1, 2), Fq2(3, 4), Fq2(5, 6)),
            Fq6(Fq2(7, 8), Fq2(9, 10), Fq2(11, 12)),
        )
        assert a.conjugate() == a.frobenius_n(6)

    def test_pow_negative(self):
        a = Fq12(
            Fq6(Fq2(1, 2), Fq2(3, 4), Fq2(5, 6)),
            Fq6(Fq2(7, 8), Fq2(9, 10), Fq2(11, 12)),
        )
        assert a.pow(-3) * a.pow(3) == Fq12.one()
