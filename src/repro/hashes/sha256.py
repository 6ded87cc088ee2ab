"""Pure-Python SHA-256 with a configurable round count.

The production NOPE statement hashes DNS records with SHA-256 inside the
constraints, so we need a reference implementation whose internals (message
schedule, compression rounds) exactly match the SHA-256 *gadget* in
:mod:`repro.gadgets.sha256` — including when the gadget is instantiated with
a reduced round count for the scaled-down profile.  At ``rounds=64`` the
pure-Python compression loop is bit-identical to ``hashlib.sha256``
(tested), so full-round digests are taken from ``hashlib`` directly; only
the reduced-round variants run the loop here.

Only whole-message hashing is exposed; incremental APIs are unnecessary for
this codebase.
"""

import hashlib
import struct

_K = [
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
]

_IV = [
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
]

_MASK = 0xFFFFFFFF


def _rotr(x, n):
    return ((x >> n) | (x << (32 - n))) & _MASK


def message_schedule(block, rounds=64):
    """Expand a 64-byte block into the W array (first ``rounds`` words)."""
    w = list(struct.unpack(">16I", block))
    for i in range(16, rounds):
        s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)
        s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ (w[i - 2] >> 10)
        w.append((w[i - 16] + s0 + w[i - 7] + s1) & _MASK)
    return w[:rounds]


def compress(state, block, rounds=64):
    """One SHA-256 compression with the given round count."""
    w = message_schedule(block, max(rounds, 16) if rounds > 16 else rounds)
    a, b, c, d, e, f, g, h = state
    for i in range(rounds):
        s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
        ch = (e & f) ^ (~e & g)
        temp1 = (h + s1 + ch + _K[i] + w[i]) & _MASK
        s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
        maj = (a & b) ^ (a & c) ^ (b & c)
        temp2 = (s0 + maj) & _MASK
        a, b, c, d, e, f, g, h = (
            (temp1 + temp2) & _MASK,
            a,
            b,
            c,
            (d + temp1) & _MASK,
            e,
            f,
            g,
        )
    return [
        (x + y) & _MASK
        for x, y in zip(state, (a, b, c, d, e, f, g, h))
    ]


def pad_message(data):
    """SHA-256 Merkle-Damgard padding: data || 0x80 || zeros || bitlen."""
    bit_len = len(data) * 8
    padded = data + b"\x80"
    padded += b"\x00" * ((56 - len(padded)) % 64)
    padded += struct.pack(">Q", bit_len)
    return padded


def sha256(data, rounds=64, out_bytes=32):
    """SHA-256 digest of ``data``.

    ``rounds`` < 64 yields the round-reduced variant used by the scaled-down
    profile (NOT cryptographically secure; scaled profiles trade security
    for provable-in-pure-Python statement sizes).  ``out_bytes`` truncates
    the digest.
    """
    if rounds == 64:
        return hashlib.sha256(data).digest()[:out_bytes]
    return reference_sha256(data, rounds)[:out_bytes]


def reference_sha256(data, rounds=64):
    """The pure-Python digest: padding, then :func:`compress` per block.

    This is the loop the SHA-256 gadget mirrors; :func:`sha256` runs it for
    reduced round counts.
    """
    state = list(_IV)
    padded = pad_message(data)
    for off in range(0, len(padded), 64):
        state = compress(state, padded[off : off + 64], rounds)
    return struct.pack(">8I", *state)
