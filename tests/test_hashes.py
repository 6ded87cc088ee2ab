"""Tests for the SHA-256 reference and the scaled-profile sponge hash."""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashes import (
    pad_message,
    permute,
    reference_sha256,
    sha256,
    toyhash,
    toyhash_int,
)
from repro.hashes.toyhash import FIELD_MODULUS, absorb_chunks


class TestSha256:
    # full-round sha256() is hashlib itself, so these pin the pure-Python
    # compression loop (the gadget's reference) against hashlib instead
    def test_empty(self):
        assert reference_sha256(b"") == hashlib.sha256(b"").digest()

    def test_abc(self):
        assert reference_sha256(b"abc") == hashlib.sha256(b"abc").digest()

    def test_multiblock(self):
        data = b"a" * 200
        assert reference_sha256(data) == hashlib.sha256(data).digest()

    def test_exact_block_boundary(self):
        for n in (55, 56, 63, 64, 119, 120, 128):
            data = bytes(range(256))[:n] * 1
            assert reference_sha256(data) == hashlib.sha256(data).digest()

    @given(st.binary(max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_matches_hashlib(self, data):
        assert reference_sha256(data) == hashlib.sha256(data).digest()

    def test_truncated_output(self):
        assert sha256(b"x", out_bytes=8) == hashlib.sha256(b"x").digest()[:8]
        assert sha256(b"x", rounds=16, out_bytes=8) == (
            reference_sha256(b"x", rounds=16)[:8]
        )

    def test_reduced_rounds_differ(self):
        assert sha256(b"abc", rounds=16) != sha256(b"abc")
        assert sha256(b"abc", rounds=16) == reference_sha256(b"abc", rounds=16)
        assert len(sha256(b"abc", rounds=16)) == 32

    def test_reduced_rounds_deterministic(self):
        assert sha256(b"abc", rounds=16) == sha256(b"abc", rounds=16)

    def test_padding_length_multiple_of_64(self):
        for n in range(0, 130):
            assert len(pad_message(b"z" * n)) % 64 == 0

    def test_padding_embeds_bitlength(self):
        padded = pad_message(b"abc")
        assert int.from_bytes(padded[-8:], "big") == 24


class TestToyHash:
    def test_deterministic(self):
        assert toyhash(b"hello") == toyhash(b"hello")

    def test_differs_on_input(self):
        assert toyhash(b"hello") != toyhash(b"hellp")

    def test_digest_size(self):
        assert len(toyhash(b"data")) == 8
        assert len(toyhash(b"data", out_bytes=16)) == 16

    def test_int_form(self):
        assert toyhash_int(b"x") == int.from_bytes(toyhash(b"x"), "big")

    def test_empty_input(self):
        assert len(toyhash(b"")) == 8

    def test_length_extension_resistance_basics(self):
        # padding includes the exact length, so a trailing zero changes it
        assert toyhash(b"ab") != toyhash(b"ab\x00")

    @given(st.binary(max_size=100), st.binary(max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_no_trivial_collisions(self, a, b):
        if a != b:
            assert toyhash(a) != toyhash(b)

    def test_permute_in_field(self):
        s0, s1 = permute(123, 456)
        assert 0 <= s0 < FIELD_MODULUS
        assert 0 <= s1 < FIELD_MODULUS

    def test_permute_is_not_identity(self):
        assert permute(0, 0) != (0, 0)

    def test_absorb_chunks_includes_length(self):
        chunks = absorb_chunks(b"abc")
        assert chunks[-1] == 3

    def test_absorb_chunks_padding(self):
        chunks = absorb_chunks(b"")
        # 0x80 then zeros: one chunk + length
        assert len(chunks) == 2
        assert chunks[0] == 0x80 << (15 * 8)
