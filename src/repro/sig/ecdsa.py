"""ECDSA over any of this library's curves.

Implements standard sign/verify with deterministic nonces (RFC 6979), plus
the Antipa et al. *accelerated* verification from the paper's Appendix C:
recover the full point R, find a half-width scalar decomposition with
:func:`repro.ec.glv.decompose`, and check a 128-bit 4-point MSM instead of a
256-bit 2-point MSM.  The ECDSA gadget reuses exactly the same out-of-circuit
side information.
"""

import hashlib
import hmac
import secrets

from ..ec.glv import curve_endomorphism, decompose, glv_basis, split_scalar
from ..ec.msm import straus
from ..errors import SignatureError

#: memo: Curve -> glv_basis(lam, n), for curves with an endomorphism
_GLV_BASES = {}


def _glv_terms(curve, points, scalars):
    """GLV-split every (point, scalar) pair into half-width pairs.

    On endomorphism-capable curves (``j = 0``, ``p = 1 mod 3``) each term
    ``k*P`` becomes ``k1*P + k2*phi(P)`` with ``|k1|, |k2| ~ sqrt(n)``;
    negative halves negate the point instead.  Returns ``(points, scalars)``
    with all scalars positive, or None when the curve has no endomorphism.
    """
    params = curve_endomorphism(curve)
    if params is None:
        return None
    beta, lam = params
    n = curve.order
    basis = _GLV_BASES.get(curve)
    if basis is None:
        basis = _GLV_BASES[curve] = glv_basis(lam, n)
    p = curve.field.p
    out_pts, out_sc = [], []
    for pt, k in zip(points, scalars):
        k1, k2 = split_scalar(k, n, basis)
        phi = curve.point(beta * pt.x % p, pt.y) if k2 else None
        for base, half in ((pt, k1), (phi, k2)):
            if not half:
                continue
            if half < 0:
                base, half = -base, -half
            out_pts.append(base)
            out_sc.append(half)
    return out_pts, out_sc


def bits2int(data, n):
    """Leftmost qlen bits of ``data`` as an integer (RFC 6979 §2.3.2)."""
    qlen = n.bit_length()
    x = int.from_bytes(data, "big")
    blen = len(data) * 8
    if blen > qlen:
        x >>= blen - qlen
    return x


def _int2octets(x, n):
    rolen = (n.bit_length() + 7) // 8
    return x.to_bytes(rolen, "big")


def _bits2octets(data, n):
    z1 = bits2int(data, n)
    z2 = z1 % n
    return _int2octets(z2, n)


def rfc6979_nonce(d, msg_hash, n, extra=b""):
    """Deterministic nonce k per RFC 6979 (HMAC-SHA256)."""
    holen = 32
    bx = _int2octets(d, n) + _bits2octets(msg_hash, n) + extra
    v = b"\x01" * holen
    k = b"\x00" * holen
    k = hmac.new(k, v + b"\x00" + bx, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    k = hmac.new(k, v + b"\x01" + bx, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    rolen = (n.bit_length() + 7) // 8
    while True:
        t = b""
        while len(t) < rolen:
            v = hmac.new(k, v, hashlib.sha256).digest()
            t += v
        candidate = bits2int(t[:rolen], n)
        if 1 <= candidate < n:
            return candidate
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()


class EcdsaPublicKey:
    """An ECDSA verification key: a point Q on a named curve."""

    def __init__(self, curve, point):
        self.curve = curve
        self.point = point

    def __eq__(self, other):
        return (
            isinstance(other, EcdsaPublicKey)
            and self.curve == other.curve
            and self.point == other.point
        )

    def __repr__(self):
        return "EcdsaPublicKey(%s)" % self.curve.name

    def encode(self):
        """Uncompressed x||y encoding (as DNSSEC algorithm 13 uses)."""
        size = self.curve.field.byte_length
        return self.point.x.to_bytes(size, "big") + self.point.y.to_bytes(size, "big")

    @classmethod
    def decode(cls, curve, data):
        size = curve.field.byte_length
        if len(data) != 2 * size:
            raise SignatureError("bad ECDSA public key length")
        x = int.from_bytes(data[:size], "big")
        y = int.from_bytes(data[size:], "big")
        return cls(curve, curve.point(x, y))

    def verify(self, msg_hash, signature):
        """Standard ECDSA verification; raises SignatureError on failure.

        On endomorphism-capable curves (secp256k1) the check
        ``u1*G + u2*Q`` runs through a GLV split first: four half-width
        scalars over ``{G, phi(G), Q, phi(Q)}`` halve the doubling count of
        the joint ladder (window 1 keeps the joint table small).  The
        result is the same group element either way.
        """
        n = self.curve.order
        r, s = signature
        if not (1 <= r < n and 1 <= s < n):
            raise SignatureError("signature component out of range")
        h = bits2int(msg_hash, n)
        w = pow(s, -1, n)
        u1 = h * w % n
        u2 = r * w % n
        terms = _glv_terms(self.curve, [self.curve.generator, self.point], [u1, u2])
        if terms is not None and terms[0]:
            pt = straus(terms[0], terms[1], window=1)
        else:
            pt = straus([self.curve.generator, self.point], [u1, u2])
        if pt.is_infinity or pt.x % n != r:
            raise SignatureError("ECDSA verification failed")

    def recover_r_points(self, r):
        """All points R whose x-coordinate reduces to r mod n."""
        n, p = self.curve.order, self.curve.field.p
        candidates = []
        x = r
        while x < p:
            for parity in (0, 1):
                try:
                    candidates.append(self.curve.lift_x(x, parity))
                except Exception:
                    break
            x += n
        return candidates

    def verify_accelerated(self, msg_hash, signature):
        """Appendix C verification: half-width MSM after recovering R.

        Functionally identical to :meth:`verify` (tested); used to validate
        the decomposition logic the ECDSA gadget relies on.
        """
        n = self.curve.order
        r, s = signature
        if not (1 <= r < n and 1 <= s < n):
            raise SignatureError("signature component out of range")
        h = bits2int(msg_hash, n)
        w = pow(s, -1, n)
        h0 = h * w % n
        h1 = r * w % n
        v, v2, sign = decompose(h1, n)
        t = h0 * v % n
        half = (n.bit_length() + 1) // 2
        v0 = t % (1 << half)
        v1 = t >> half
        big_h = (1 << half) * self.curve.generator
        q_term = self.point if sign > 0 else -self.point
        for r_point in self.recover_r_points(r):
            # check v*R == v0*G + v1*H + sign*v2*Q
            lhs = v * r_point
            rhs = straus(
                [self.curve.generator, big_h, q_term], [v0, v1, v2], window=2
            )
            if lhs == rhs:
                return
        raise SignatureError("ECDSA (accelerated) verification failed")


class EcdsaPrivateKey:
    """An ECDSA signing key: scalar d with Q = d*G."""

    def __init__(self, curve, d):
        if not (1 <= d < curve.order):
            raise SignatureError("private scalar out of range")
        self.curve = curve
        self.d = d
        self.public_key = EcdsaPublicKey(curve, d * curve.generator)

    @classmethod
    def generate(cls, curve):
        d = 0
        while d == 0:
            d = curve.scalar_field.rand()
        return cls(curve, d)

    def __repr__(self):
        return "EcdsaPrivateKey(%s)" % self.curve.name

    def sign(self, msg_hash, nonce=None):
        """Sign a message hash (bytes).  Returns (r, s)."""
        n = self.curve.order
        h = bits2int(msg_hash, n)
        while True:
            k = nonce if nonce is not None else rfc6979_nonce(self.d, msg_hash, n)
            r_point = k * self.curve.generator
            r = r_point.x % n
            if r == 0:
                nonce = None
                continue
            s = pow(k, -1, n) * (h + r * self.d) % n
            if s == 0:
                nonce = None
                continue
            return (r, s)

    def sign_with_point(self, msg_hash):
        """Sign and also return the full nonce point R (gadget witness)."""
        n = self.curve.order
        h = bits2int(msg_hash, n)
        while True:
            k = rfc6979_nonce(self.d, msg_hash, n)
            r_point = k * self.curve.generator
            r = r_point.x % n
            if r == 0:
                continue
            s = pow(k, -1, n) * (h + r * self.d) % n
            if s == 0:
                continue
            return (r, s), r_point


def signature_to_bytes(curve, signature):
    """Fixed-width r||s encoding (DNSSEC algorithm-13 style)."""
    size = (curve.order.bit_length() + 7) // 8
    r, s = signature
    return r.to_bytes(size, "big") + s.to_bytes(size, "big")


def signature_from_bytes(curve, data):
    size = (curve.order.bit_length() + 7) // 8
    if len(data) != 2 * size:
        raise SignatureError("bad signature length")
    return (
        int.from_bytes(data[:size], "big"),
        int.from_bytes(data[size:], "big"),
    )
