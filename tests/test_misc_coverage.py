"""Coverage for helpers not exercised elsewhere: fixed-base tables,
right-shift placement gadgets, error hierarchy sanity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors
from repro.ec import BN254_G1, TOY29
from repro.ec.curves import BN254_R
from repro.engine.tables import FixedBaseTable
from repro.field import PrimeField
from repro.gadgets.bits import alloc_bytes
from repro.gadgets.strings import condshift_right, place_at_dynamic
from repro.pairing.bn254 import G2Point, G2_GENERATOR
from repro.r1cs import ConstraintSystem

FR = PrimeField(BN254_R)


class TestFixedBaseTable:
    def test_matches_scalar_mult_g1(self):
        table = FixedBaseTable(
            BN254_G1.generator, BN254_G1.infinity, BN254_R.bit_length()
        )
        for k in (0, 1, 7, 123456789, BN254_R - 1):
            assert table.mul(k) == k * BN254_G1.generator

    def test_matches_scalar_mult_g2(self):
        table = FixedBaseTable(
            G2_GENERATOR, G2Point.infinity(), 64, window=4
        )
        for k in (1, 2, 1 << 40, (1 << 64) - 1):
            assert table.mul(k) == k * G2_GENERATOR

    def test_rejects_oversized_scalar(self):
        table = FixedBaseTable(TOY29.generator, TOY29.infinity, 16)
        with pytest.raises(ValueError):
            table.mul(1 << 17)
        with pytest.raises(ValueError):
            table.mul(-1)

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    @settings(max_examples=15, deadline=None)
    def test_property(self, k):
        table = FixedBaseTable(TOY29.generator, TOY29.infinity, 32, window=8)
        assert table.mul(k) == k * TOY29.generator


class TestPlacementGadgets:
    @given(st.integers(min_value=0, max_value=7))
    @settings(max_examples=8, deadline=None)
    def test_condshift_right(self, shift_flag):
        cs = ConstraintSystem(FR)
        arr = [cs.alloc(v) for v in (1, 2, 3, 4, 5)]
        flag = cs.alloc(1 if shift_flag % 2 else 0)
        out = condshift_right(cs, arr, flag, 2)
        cs.check_satisfied()
        vals = [cs.lc_value(x) for x in out]
        if shift_flag % 2:
            assert vals == [0, 0, 1, 2, 3]
        else:
            assert vals == [1, 2, 3, 4, 5]

    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=12, deadline=None)
    def test_place_at_dynamic(self, offset):
        data = b"\x11\x22\x33"
        cs = ConstraintSystem(FR)
        arr = alloc_bytes(cs, data, range_check=False)
        off = cs.alloc(offset)
        out = place_at_dynamic(cs, arr, off, 32)
        cs.check_satisfied()
        vals = [cs.lc_value(x) for x in out]
        expected = [0] * 32
        for i, b in enumerate(data):
            if offset + i < 32:
                expected[offset + i] = b
        assert vals == expected


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError) or obj is errors.ReproError

    def test_verification_family(self):
        for cls in (
            errors.SignatureError,
            errors.ProofError,
            errors.CertificateError,
            errors.DnssecError,
        ):
            assert issubclass(cls, errors.VerificationError)

    def test_unsatisfied_is_synthesis(self):
        assert issubclass(errors.UnsatisfiedError, errors.SynthesisError)
