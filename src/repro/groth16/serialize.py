"""128-byte proof serialization (the size the paper reports in Fig. 7).

Compressed encodings, bellman/zcash style: a G1 point is its 32-byte
big-endian x with flag bits in the top of the first byte (BN254's modulus
is 254 bits, so two bits are free); a G2 point is the 64-byte x in Fq2
(c1 then c0).  A proof is A (32) || B (64) || C (32) = 128 bytes.

These functions are the **body codec** behind ``KIND_GROTH16`` in the
:mod:`repro.wire` kind registry; everything outside ``repro.wire`` (and
this package) must go through the registry rather than calling them
directly — the ``wire-bypass`` hygiene lint rule enforces that boundary.
"""

from ..ec.curves import BN254_G1
from ..errors import EncodingError, FieldError
from ..field.extension import BN254_P, Fq2
from ..field.prime_field import PrimeField
from ..pairing.bn254 import B2, G2Point
from .keys import Proof

#: flag bit: y is the lexicographically larger root
_FLAG_Y_SIGN = 0x80
#: flag bit: point at infinity
_FLAG_INFINITY = 0x40

PROOF_SIZE = 128

_FQ = PrimeField(BN254_P)
_HALF = pow(2, -1, BN254_P)


def g1_to_bytes(pt):
    if pt.is_infinity:
        return bytes([_FLAG_INFINITY]) + b"\x00" * 31
    data = bytearray(pt.x.to_bytes(32, "big"))
    if pt.y > BN254_P - pt.y:
        data[0] |= _FLAG_Y_SIGN
    return bytes(data)


def g1_from_bytes(data):
    if len(data) != 32:
        raise EncodingError("G1 encoding must be 32 bytes")
    flags = data[0] & 0xC0
    if flags & _FLAG_INFINITY:
        if any(data[1:]) or data[0] != _FLAG_INFINITY:
            raise EncodingError("malformed G1 infinity encoding")
        return BN254_G1.infinity
    body = bytes([data[0] & 0x3F]) + data[1:]
    x = int.from_bytes(body, "big")
    if x >= BN254_P:
        raise EncodingError("G1 x out of range")
    try:
        pt = BN254_G1.lift_x(x, 0)
    except Exception as exc:
        raise EncodingError("G1 x not on curve") from exc
    y_big = max(pt.y, BN254_P - pt.y)
    y_small = min(pt.y, BN254_P - pt.y)
    y = y_big if flags & _FLAG_Y_SIGN else y_small
    return BN254_G1.point(x, y)


def _fq2_sqrt(a):
    """Square root in Fq2 via the norm map; raises EncodingError if none."""
    if a.is_zero():
        return Fq2.zero()
    # complex method: norm = c0^2 + c1^2 must be a QR in Fq
    p = BN254_P
    norm = (a.c0 * a.c0 + a.c1 * a.c1) % p
    try:
        n_sqrt = _FQ.sqrt(norm)
    except FieldError as exc:
        raise EncodingError("Fq2 element is not a square") from exc
    for sign in (1, -1):
        half = (a.c0 + sign * n_sqrt) * _HALF % p
        try:
            x0 = _FQ.sqrt(half)
        except FieldError:
            continue
        if x0 == 0:
            continue
        x1 = a.c1 * pow(2 * x0, -1, p) % p
        cand = Fq2(x0, x1)
        if cand.square() == a:
            return cand
    raise EncodingError("Fq2 element is not a square")


def _fq2_is_larger(y):
    """Lexicographic comparison for the sign flag: (c1, c0) ordering."""
    neg = -y
    return (y.c1, y.c0) > (neg.c1, neg.c0)


def g2_to_bytes(pt):
    if pt.is_infinity:
        return bytes([_FLAG_INFINITY]) + b"\x00" * 63
    data = bytearray(
        pt.x.c1.to_bytes(32, "big") + pt.x.c0.to_bytes(32, "big")
    )
    if _fq2_is_larger(pt.y):
        data[0] |= _FLAG_Y_SIGN
    return bytes(data)


def g2_from_bytes(data):
    if len(data) != 64:
        raise EncodingError("G2 encoding must be 64 bytes")
    flags = data[0] & 0xC0
    if flags & _FLAG_INFINITY:
        if any(data[1:]) or data[0] != _FLAG_INFINITY:
            raise EncodingError("malformed G2 infinity encoding")
        return G2Point.infinity()
    c1 = int.from_bytes(bytes([data[0] & 0x3F]) + data[1:32], "big")
    c0 = int.from_bytes(data[32:], "big")
    if c0 >= BN254_P or c1 >= BN254_P:
        raise EncodingError("G2 x out of range")
    x = Fq2(c0, c1)
    y = _fq2_sqrt(x.square() * x + B2)
    if _fq2_is_larger(y) != bool(flags & _FLAG_Y_SIGN):
        y = -y
    pt = G2Point(x, y)
    if not pt.in_subgroup():
        raise EncodingError("G2 point not in the r-order subgroup")
    return pt


def proof_to_bytes(proof):
    """Serialize to the 128-byte wire format."""
    return g1_to_bytes(proof.a) + g2_to_bytes(proof.b) + g1_to_bytes(proof.c)


def proof_from_bytes(data):
    if len(data) != PROOF_SIZE:
        raise EncodingError("proof must be exactly %d bytes" % PROOF_SIZE)
    return Proof(
        g1_from_bytes(data[:32]),
        g2_from_bytes(data[32:96]),
        g1_from_bytes(data[96:]),
    )
