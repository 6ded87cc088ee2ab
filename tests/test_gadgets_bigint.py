"""Tests for big-integer constraint arithmetic (paper §5.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.curves import BN254_R, P256, TOY61
from repro.errors import SynthesisError
from repro.field import PrimeField
from repro.gadgets.bigint import (
    MARGIN_BITS,
    LimbInt,
    carry_groups,
    naive_mod_reduce,
)
from repro.r1cs import ConstraintSystem
from repro.r1cs.lc import LinearCombination

FR = PrimeField(BN254_R)
Q256 = P256.field.p
QTOY = TOY61.field.p


def make_cs():
    return ConstraintSystem(FR)


def wire_of(lc):
    return next(iter(lc.terms))


def labelled(cs, label):
    """The single-wire LC allocated under ``label``."""
    return LinearCombination.single(cs.labels.index(label))


def set_decomposed(cs, lc, bit_lcs, value):
    """Move a range-checked wire to ``value`` and re-decompose its bits."""
    assert 0 <= value < 1 << len(bit_lcs)
    cs.values[wire_of(lc)] = value % FR.p
    for i, bit in enumerate(bit_lcs):
        cs.values[wire_of(bit)] = (value >> i) & 1


def check_groups(bounds, limb_bits, p=BN254_R):
    """Re-derive the soundness conditions of every carry group."""
    limit = p >> MARGIN_BITS
    groups = list(carry_groups(bounds, limb_bits, p))
    assert groups[0][0] == 0 and groups[-1][1] == len(bounds)
    assert groups[-1][2:] == (None, None)
    c_lo = c_hi = 0
    for k, (start, stop, lo, span_bits) in enumerate(groups):
        width = limb_bits * (stop - start)
        t_lo = c_lo + sum(
            bounds[i][0] << (limb_bits * (i - start)) for i in range(start, stop)
        )
        t_hi = c_hi + sum(
            bounds[i][1] << (limb_bits * (i - start)) for i in range(start, stop)
        )
        assert max(abs(t_lo), abs(t_hi)) < limit
        if span_bits is None:
            assert k == len(groups) - 1
            break
        assert groups[k + 1][0] == stop
        top = lo + (1 << span_bits) - 1
        # every carry the range check admits, times b^g, is inside the margin
        assert max(abs(lo), abs(top)) << width < limit
        # and every honest carry T / b^g is admitted
        assert lo <= -((-t_lo) >> width) and t_hi >> width <= top
        c_lo, c_hi = lo, top
    return groups


class TestConstruction:
    def test_alloc_roundtrip(self):
        cs = make_cs()
        x = LimbInt.alloc(cs, 0x123456789ABCDEF0, 32, 4)
        assert x.int_value() == 0x123456789ABCDEF0
        cs.check_satisfied()

    def test_alloc_too_big_raises(self):
        cs = make_cs()
        with pytest.raises(SynthesisError):
            LimbInt.alloc(cs, 1 << 64, 32, 2)

    def test_from_const(self):
        cs = make_cs()
        x = LimbInt.from_const(cs, 987654321, 32)
        assert x.int_value() == 987654321
        assert cs.num_constraints == 0  # constants are free

    def test_from_bytes_be(self):
        cs = make_cs()
        data = bytes.fromhex("0102030405060708090a")
        byte_lcs = [cs.alloc(b) for b in data]
        x = LimbInt.from_bytes_be(cs, byte_lcs, list(data), 32)
        assert x.int_value() == int.from_bytes(data, "big")

    def test_from_bytes_needs_byte_multiple_limbs(self):
        cs = make_cs()
        with pytest.raises(SynthesisError):
            LimbInt.from_bytes_be(cs, [], [], 33)


class TestArithmetic:
    @given(
        a=st.integers(min_value=0, max_value=(1 << 128) - 1),
        b=st.integers(min_value=0, max_value=(1 << 128) - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_add_sub_mul_values(self, a, b):
        cs = make_cs()
        xa = LimbInt.alloc(cs, a, 32, 4)
        xb = LimbInt.alloc(cs, b, 32, 4)
        assert (xa + xb).int_value() == a + b
        assert (xa - xb).int_value() == a - b
        prod = xa.mul(cs, xb)
        assert prod.int_value() == a * b
        cs.check_satisfied()

    def test_mul_cost_is_limb_pairs(self):
        cs = make_cs()
        xa = LimbInt.alloc(cs, 123, 32, 4)
        xb = LimbInt.alloc(cs, 456, 32, 4)
        before = cs.num_constraints
        xa.mul(cs, xb)
        assert cs.num_constraints - before == 16

    def test_mul_const_is_free(self):
        cs = make_cs()
        xa = LimbInt.alloc(cs, 1234567, 32, 4)
        before = cs.num_constraints
        out = xa.mul_const_bigint(cs, Q256)
        assert cs.num_constraints == before
        assert out.int_value() == 1234567 * Q256

    def test_scaled_negative(self):
        cs = make_cs()
        xa = LimbInt.alloc(cs, 100, 32, 2)
        assert xa.scaled(-3).int_value() == -300

    def test_shifted_limbs(self):
        cs = make_cs()
        xa = LimbInt.alloc(cs, 5, 32, 1)
        assert xa.shifted_limbs(2).int_value() == 5 << 64

    def test_margin_overflow_detected(self):
        cs = make_cs()
        # 128-bit bounds squared twice exceeds the 254-bit field margin
        xa = LimbInt.alloc(cs, (1 << 64) - 1, 64, 2)
        sq = xa.mul(cs, xa)
        with pytest.raises(SynthesisError):
            sq.mul(cs, sq)


class TestMatrixMReduction:
    @given(st.integers(min_value=0, max_value=(1 << 512) - 1))
    @settings(max_examples=20, deadline=None)
    def test_preserves_value_mod_q(self, v):
        cs = make_cs()
        x = LimbInt.alloc(cs, v, 32, 16)
        before = cs.num_constraints
        reduced = x.reduce_mod(cs, Q256)
        # zero constraints: reduction is linear combinations only
        assert cs.num_constraints == before
        assert reduced.num_limbs == 8
        assert reduced.int_value() % Q256 == v % Q256

    def test_idempotent_when_small(self):
        cs = make_cs()
        x = LimbInt.alloc(cs, 12345, 32, 4)
        assert x.reduce_mod(cs, Q256) is x

    def test_worked_example_from_paper(self):
        # Paper §5.1: b=10, q=89, x = 51277 -> x*M has value 280 = 51277 mod-89-equal
        # We reproduce with base 2^8 for limb compatibility: the semantics,
        # not the exact numbers, are what matters: val differs, mval equal.
        cs = make_cs()
        v = 51277
        x = LimbInt.alloc(cs, v, 8, 5)
        reduced = x.reduce_mod(cs, 89)
        assert reduced.int_value() != v  # "val" differs...
        assert reduced.int_value() % 89 == v % 89  # ..."mval" preserved


class TestEqualityChecks:
    @given(st.integers(min_value=0, max_value=(1 << 200) - 1))
    @settings(max_examples=15, deadline=None)
    def test_assert_equal_int_accepts(self, v):
        cs = make_cs()
        a = LimbInt.alloc(cs, v, 32, 7)
        b = LimbInt.alloc(cs, v, 32, 7)
        a.assert_equal_int(cs, b)
        cs.check_satisfied()

    def test_assert_equal_int_rejects_at_synthesis(self):
        cs = make_cs()
        a = LimbInt.alloc(cs, 5, 32, 2)
        b = LimbInt.alloc(cs, 6, 32, 2)
        with pytest.raises(SynthesisError):
            a.assert_equal_int(cs, b)

    def test_assert_equal_int_sound_against_tampering(self):
        # equality between a redundant form and fresh limbs, then tamper
        cs = make_cs()
        a = LimbInt.alloc(cs, 99, 32, 2)
        b = LimbInt.alloc(cs, 100, 32, 2)
        c = a + b  # redundant-ish sum
        d = LimbInt.alloc(cs, 199, 32, 2)
        c.assert_equal_int(cs, d)
        cs.check_satisfied()
        # tamper with d's low limb witness
        wire = next(iter(d.limbs[0].terms))
        cs.values[wire] = 198
        assert not cs.is_satisfied()

    @given(
        v=st.integers(min_value=0, max_value=(1 << 500) - 1),
        w=st.integers(min_value=0, max_value=(1 << 250) - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_assert_zero_mod(self, v, w):
        cs = make_cs()
        # build x = v - (v mod q) + ... guaranteed divisible: use v*q - stuff
        x = LimbInt.alloc(cs, v, 32, 16)
        r = v % Q256
        rr = LimbInt.alloc(cs, r, 32, 8)
        (x - rr).assert_zero_mod(cs, Q256)
        cs.check_satisfied()

    def test_assert_zero_mod_rejects_nondivisible(self):
        cs = make_cs()
        x = LimbInt.alloc(cs, Q256 + 1, 32, 9)
        with pytest.raises(SynthesisError):
            x.assert_zero_mod(cs, Q256)

    def test_single_limb_fast_path(self):
        cs = make_cs()
        x = LimbInt.alloc(cs, 12345 * QTOY, 64, 2)
        # collapse to 1 limb via reduce... instead build single-limb directly
        cs2 = make_cs()
        a = LimbInt.alloc(cs2, QTOY - 1, 64, 1)
        b = LimbInt.alloc(cs2, QTOY - 1, 64, 1)
        prod = a.mul(cs2, b)
        assert prod.num_limbs == 1
        before = cs2.num_constraints
        (prod - prod).assert_zero_mod(cs2, QTOY)
        fast_cost = cs2.num_constraints - before
        cs2.check_satisfied()
        # k's range check is sized by the static bounds (~2^128 / q = 2^67),
        # so the whole check costs ~70 — versus hundreds on the limb path.
        assert fast_cost < 80

    def test_single_limb_modeq_nontrivial(self):
        cs = make_cs()
        a = LimbInt.alloc(cs, QTOY - 2, 64, 1)
        b = LimbInt.alloc(cs, QTOY - 3, 64, 1)
        prod = a.mul(cs, b)
        want = (QTOY - 2) * (QTOY - 3) % QTOY
        w = LimbInt.alloc(cs, want, 64, 1)
        prod.assert_equal_mod(cs, w, QTOY)
        cs.check_satisfied()

    def test_single_limb_modeq_sound(self):
        cs = make_cs()
        a = LimbInt.alloc(cs, 1000, 64, 1)
        b = LimbInt.alloc(cs, 1000 + QTOY, 64, 2)
        a.assert_equal_mod(cs, b.reduce_mod(cs, QTOY), QTOY)
        cs.check_satisfied()
        wire = next(iter(a.limbs[0].terms))
        cs.values[wire] = 1001
        assert not cs.is_satisfied()


class TestNormalize:
    @given(st.integers(min_value=0, max_value=(1 << 400) - 1))
    @settings(max_examples=10, deadline=None)
    def test_normalize_mod(self, v):
        cs = make_cs()
        x = LimbInt.alloc(cs, v, 32, 13)
        norm = x.normalize(cs, Q256)
        assert norm.int_value() == v % Q256
        assert norm.num_limbs == 8
        cs.check_satisfied()

    def test_normalize_with_lt_check(self):
        cs = make_cs()
        x = LimbInt.alloc(cs, Q256 + 5, 32, 9)
        norm = x.normalize(cs, Q256, assert_lt_modulus=True)
        assert norm.int_value() == 5
        cs.check_satisfied()

    def test_naive_mod_reduce_is_expensive(self):
        """The pre-NOPE baseline pays per-operation; matrix-M is free."""
        cs1 = make_cs()
        x1 = LimbInt.alloc(cs1, 123456789, 32, 16)
        before1 = cs1.num_constraints
        x1.reduce_mod(cs1, Q256)
        nope_cost = cs1.num_constraints - before1

        cs2 = make_cs()
        x2 = LimbInt.alloc(cs2, 123456789, 32, 16)
        before2 = cs2.num_constraints
        naive_mod_reduce(cs2, x2, Q256)
        naive_cost = cs2.num_constraints - before2

        assert nope_cost == 0
        assert naive_cost > 256  # scales with bits of q

    def test_assert_lt_const(self):
        cs = make_cs()
        x = LimbInt.alloc(cs, Q256 - 1, 32, 8)
        x.assert_lt_const(cs, Q256)
        cs.check_satisfied()

    def test_assert_lt_const_rejects(self):
        cs = make_cs()
        x = LimbInt.alloc(cs, Q256, 32, 8)
        with pytest.raises(SynthesisError):
            x.assert_lt_const(cs, Q256)

    def test_assert_lt_requires_canonical(self):
        cs = make_cs()
        x = LimbInt.alloc(cs, 5, 32, 2)
        y = x + x  # bounds exceed canonical
        with pytest.raises(SynthesisError):
            y.assert_lt_const(cs, 100)


def _redundant(cs, a, b, c, d, k, reduce):
    """A redundant, possibly negative-limbed LimbInt of known value."""
    x = LimbInt.alloc(cs, a, 32, 4, "a").mul(
        cs, LimbInt.alloc(cs, b, 32, 4, "b")
    )
    if reduce:
        x = x.reduce_mod(cs, QTOY)
    x = x - LimbInt.alloc(cs, c, 32, 4, "c")
    return x + LimbInt.alloc(cs, d, 32, 2, "d").shifted_limbs(k)


class TestGroupedCarries:
    """Soundness of the grouped carry chain in ``assert_equal_int``."""

    @given(
        a=st.integers(min_value=0, max_value=(1 << 128) - 1),
        b=st.integers(min_value=0, max_value=(1 << 128) - 1),
        c=st.integers(min_value=0, max_value=(1 << 128) - 1),
        d=st.integers(min_value=0, max_value=(1 << 64) - 1),
        k=st.integers(min_value=0, max_value=12),
        reduce=st.booleans(),
        delta=st.one_of(
            st.just(0),
            st.integers(min_value=-(1 << 40), max_value=1 << 40),
            st.builds(
                lambda s, j: s << (32 * j),
                st.sampled_from([-3, -1, 1, 2]),
                st.integers(min_value=0, max_value=14),
            ),
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_equal_satisfies_unequal_refused(self, a, b, c, d, k, reduce, delta):
        cs = make_cs()
        x = _redundant(cs, a, b, c, d, k, reduce)
        check_groups((x - x).bounds, 32)
        # the other side: a fresh canonical form, offset so it may be negative
        offset = 1 << 500
        v = x.int_value() + offset + delta
        limbs = max(x.num_limbs, (v.bit_length() + 31) // 32)
        y = LimbInt.alloc(cs, v, 32, limbs, "y") - LimbInt.from_const(
            cs, offset, 32
        )
        if delta == 0:
            x.assert_equal_int(cs, y)
            cs.check_satisfied()
        else:
            with pytest.raises(SynthesisError):
                x.assert_equal_int(cs, y)

    @staticmethod
    def _product_vs_canonical():
        # 8x8-limb product (15 redundant limbs) against 16 canonical limbs:
        # bounds force several carry groups
        cs = make_cs()
        a, b = Q256 - 12345, Q256 - 67890
        x = LimbInt.alloc(cs, a, 32, 8, "a").mul(
            cs, LimbInt.alloc(cs, b, 32, 8, "b")
        )
        y = LimbInt.alloc(cs, a * b, 32, 16, "y")
        x.assert_equal_int(cs, y, "eq")
        cs.check_satisfied()
        return cs, x, y

    def test_multiple_groups_fewer_carries_than_limbs(self):
        cs, x, y = self._product_vs_canonical()
        groups = check_groups((x - y).bounds, 32)
        assert 1 < len(groups) < 16
        carries = [l for l in cs.labels if l.startswith("eq.c") and "[" not in l]
        assert len(carries) == len(groups) - 1

    @pytest.mark.parametrize("step", [1, -1])
    def test_tampered_difference_limb_rejected(self, step):
        cs, x, y = self._product_vs_canonical()
        for k in range(y.num_limbs):
            limb_bits = y.bit_wires[32 * k : 32 * (k + 1)]
            honest = y.ints[k]
            if not 0 <= honest + step < 1 << 32:
                continue
            set_decomposed(cs, y.limbs[k], limb_bits, honest + step)
            assert not cs.is_satisfied(), "limb %d moved by %d" % (k, step)
            set_decomposed(cs, y.limbs[k], limb_bits, honest)
        cs.check_satisfied()

    @pytest.mark.parametrize("compensate", [False, True])
    @pytest.mark.parametrize("step", [1, -1])
    def test_tampered_carry_rejected(self, step, compensate):
        # a carry moved by +-1 with its bits re-decomposed; with
        # ``compensate`` the next group's first limb of y moves by the same
        # step, so that group's sum T is unchanged and only the carry's own
        # definition row c * b^g = T can catch the forgery
        cs, x, y = self._product_vs_canonical()
        groups = list(carry_groups((x - y).bounds, 32, FR.p))
        tried = 0
        for j, (_, stop, _, span_bits) in enumerate(groups[:-1]):
            lc = labelled(cs, "eq.c%d" % j)
            bits = [
                labelled(cs, "eq.crc%d[%d]" % (j, i)) for i in range(span_bits)
            ]
            limb_bits = y.bit_wires[32 * stop : 32 * (stop + 1)]
            carry, limb = cs.values[wire_of(lc)], y.ints[stop]
            if not (
                0 <= carry + step < 1 << span_bits
                and 0 <= limb + step < 1 << 32
            ):
                continue
            set_decomposed(cs, lc, bits, carry + step)
            if compensate:
                set_decomposed(cs, y.limbs[stop], limb_bits, limb + step)
            assert not cs.is_satisfied(), "carry %d moved by %d" % (j, step)
            set_decomposed(cs, lc, bits, carry)
            set_decomposed(cs, y.limbs[stop], limb_bits, limb)
            tried += 1
        assert tried
        cs.check_satisfied()

    def test_zero_bounded_run_splits_groups(self):
        # a long run of zero-bounded limbs (shifted_limbs) behind a carry
        # that may be nonzero must not widen a group until b^g passes the
        # field: rule (b) cuts it
        cs = make_cs()

        def split(label):
            low = LimbInt.alloc(cs, 0xDEADBEEF, 32, 1, label + ".lo")
            high = LimbInt.alloc(cs, 0xC0FFEE, 32, 1, label + ".hi")
            return low + high.shifted_limbs(40)

        x, y = split("x"), split("y")
        groups = check_groups((x - y).bounds, 32)
        assert len(groups) > 40 // 8
        assert all(stop - start <= 8 for start, stop, _, _ in groups)
        x.assert_equal_int(cs, y)
        cs.check_satisfied()
        check_groups([(-5, 5)] + [(0, 0)] * 64 + [(-5, 5)], 16)
        check_groups([(0, 0)] * 64 + [(-(1 << 40), 1 << 40)], 32)
        check_groups([(-1, 1)] * 64, 64)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-(1 << 120), max_value=0),
                st.integers(min_value=0, max_value=1 << 120),
            ),
            min_size=2,
            max_size=40,
        ),
        st.sampled_from([16, 32, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_groups_stay_inside_margin(self, bounds, limb_bits):
        check_groups(bounds, limb_bits)

    def test_bounds_at_the_margin_refused(self):
        # equal integers whose limb bounds pass _check_margin but whose
        # difference overflows it: refused at synthesis, never wrapped mod p
        limit = FR.p >> MARGIN_BITS
        cs = make_cs()
        w, zero = cs.alloc(5, "w"), cs.constant(0)
        a = LimbInt([w, zero], 32, [(0, limit - 1), (0, 0)], [5, 0])
        b = LimbInt([w, zero], 32, [(-(limit - 1), limit - 1), (0, 0)], [5, 0])
        with pytest.raises(SynthesisError, match="margin"):
            a.assert_equal_int(cs, b)

    def test_assert_zero_mod_tampered_quotient_rejected(self):
        cs = make_cs()
        v = Q256 * 0x1234567890ABCDEF
        x = LimbInt.alloc(cs, v, 32, 11, "x")
        x.assert_zero_mod(cs, Q256, "zm")
        cs.check_satisfied()
        k0 = labelled(cs, "zm.k[0]")
        bits = [labelled(cs, "zm.k[0].rc[%d]" % i) for i in range(32)]
        honest = cs.values[wire_of(k0)]
        set_decomposed(cs, k0, bits, honest + 1)
        assert not cs.is_satisfied()

    def test_mul_tampered_product_rejected(self):
        cs = make_cs()
        x = LimbInt.alloc(cs, 0xFFFF0000FFFF, 32, 2, "x")
        y = LimbInt.alloc(cs, 0x123456789, 32, 2, "y")
        prod = x.mul(cs, y, "pm")
        want = LimbInt.alloc(cs, 0xFFFF0000FFFF * 0x123456789, 32, 4, "z")
        prod.assert_equal_int(cs, want)
        cs.check_satisfied()
        wire = cs.labels.index("pm[0,0]")
        cs.values[wire] = (cs.values[wire] + 1) % FR.p
        assert not cs.is_satisfied()
