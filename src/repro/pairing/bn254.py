"""BN254 G2 arithmetic and curve constants.

G2 is the r-order subgroup of the sextic twist E'/Fq2: ``y^2 = x^3 + 3/xi``
with ``xi = 9 + u``.  Points are affine over Fq2 with operator-based group
law; the Miller loop (in :mod:`repro.pairing.ate`) maps them into Fq12 via
the untwist embedding ``(x, y) -> (x * w^2, y * w^3)``.

Subgroup membership uses the untwist-Frobenius-twist endomorphism ``psi``
(:func:`twist_frobenius`): G2 is exactly the set of twist points with
``[x+1]Q + psi([x]Q) + psi^2([x]Q) == psi^3([2x]Q)`` (El Housni, Guillevic,
Piellard, "Co-factor clearing and subgroup membership testing on
pairing-friendly curves").  That costs one 63-bit ladder ``[x]Q`` where the
order test ``[r]Q`` costs a 254-bit one.  The arithmetic runs in Jacobian
coordinates on raw ``(c0, c1)`` pairs and the final comparison is
projective, so the check performs no inversion.
"""

from ..errors import CurveError
from ..field.extension import (
    BN254_P,
    Fq2,
    Fq6,
    Fq12,
    XI,
    fq2_raw,
    fq6_raw,
    fq12_raw,
)

#: Order of G1 and G2 (the Groth16 scalar field).
BN254_R = 21888242871839275222246405745257275088548364400416034343698204186575808495617

#: The BN parameter x: p = 36x^4 + 36x^3 + 24x^2 + 6x + 1 and
#: r = 36x^4 + 36x^3 + 18x^2 + 6x + 1.
BN_X = 4965661367192848881

#: 6x + 2, the optimal ate Miller-loop count.
ATE_LOOP_COUNT = 6 * BN_X + 2

#: Twist curve coefficient b' = 3 / xi.
B2 = XI.inverse() * 3


class G2Point:
    """Affine point on the BN254 sextic twist (or infinity: x is None)."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    @staticmethod
    def infinity():
        return G2Point(None, None)

    @property
    def is_infinity(self):
        return self.x is None

    @staticmethod
    def on_curve(x, y):
        return y.square() == x.square() * x + B2

    @classmethod
    def make(cls, x, y):
        if not cls.on_curve(x, y):
            raise CurveError("point not on BN254 twist")
        return cls(x, y)

    def __eq__(self, other):
        return isinstance(other, G2Point) and self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        if self.is_infinity:
            return "G2Point(INF)"
        return "G2Point(%r, %r)" % (self.x, self.y)

    def __neg__(self):
        if self.is_infinity:
            return self
        return G2Point(self.x, -self.y)

    def __add__(self, other):
        if self.is_infinity:
            return other
        if other.is_infinity:
            return self
        if self.x == other.x:
            if self.y == -other.y:
                return G2Point.infinity()
            lam = (self.x.square() * 3) * (self.y + self.y).inverse()
        else:
            lam = (other.y - self.y) * (other.x - self.x).inverse()
        x3 = lam.square() - self.x - other.x
        y3 = lam * (self.x - x3) - self.y
        return G2Point(x3, y3)

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (-k) * (-self)
        result = G2Point.infinity()
        addend = self
        while k:
            if k & 1:
                result = result + addend
            addend = addend + addend
            k >>= 1
        return result

    __mul__ = __rmul__

    def double(self):
        return self + self

    def in_subgroup(self):
        """Whether the point lies in the r-order subgroup (the psi test)."""
        if self.is_infinity:
            return True
        q = (self.x.c0, self.x.c1, self.y.c0, self.y.c1)
        xq = _jac_mul_x(q)
        lhs = _jac_add_affine(xq, q)  # [x+1]Q
        psi_xq = _jac_psi(xq)
        lhs = _jac_add(lhs, psi_xq)
        lhs = _jac_add(lhs, _jac_psi(psi_xq))
        rhs = _jac_psi(_jac_psi(_jac_psi(_jac_double(xq))))
        return _jac_equal(lhs, rhs)


#: Standard G2 generator.
G2_GENERATOR = G2Point.make(
    Fq2(
        10857046999023057135944570762232829481370756359578518086990519993285655852781,
        11559732032986387107991004021392285783925812861821192530917403151452391805634,
    ),
    Fq2(
        8495653923123431417604973247489272438418190587263600148770280649306958101930,
        4082367875863433681332203403145435568316851327593401208105741076214120093531,
    ),
)

# Fq12 constants for the untwist embedding.
_W2 = Fq12(Fq6(Fq2.zero(), Fq2.one(), Fq2.zero()), Fq6.zero())  # w^2 = v
_W3 = Fq12(Fq6.zero(), Fq6(Fq2.zero(), Fq2.one(), Fq2.zero()))  # w^3 = v*w


def _embed_fq2(x):
    # x is a canonical Fq2 (point coordinate or tower constant): build the
    # sparse embedding without re-reducing any limb
    return fq12_raw(
        fq6_raw(x, fq2_raw(0, 0), fq2_raw(0, 0)),
        fq6_raw(fq2_raw(0, 0), fq2_raw(0, 0), fq2_raw(0, 0)),
    )


def embed_fq(x):
    """Embed a base-field int into Fq12 (``x`` reduced once here)."""
    return _embed_fq2(Fq2(x, 0))


def untwist(pt):
    """Map a G2 twist point into E(Fq12): (x, y) -> (x w^2, y w^3)."""
    if pt.is_infinity:
        return None
    return (_embed_fq2(pt.x) * _W2, _embed_fq2(pt.y) * _W3)


def embed_g1(pt):
    """Map a BN254 G1 affine Point into E(Fq12) coordinates."""
    if pt.is_infinity:
        return None
    return (embed_fq(pt.x), embed_fq(pt.y))


# Frobenius directly on twist coordinates.  Untwisting, applying x -> x^p on
# E(Fq12), and re-twisting multiplies the Fq2 coordinates by powers of
# w^(p-1), which collapses to the Fq2 scalar xi^((p-1)/6) because w^6 = xi
# and p = 1 mod 6.  The Fq2 Frobenius itself is conjugation (p = 3 mod 4).
_W_FROB = XI.pow((BN254_P - 1) // 6)
TWIST_FROB_X = _W_FROB.square()
TWIST_FROB_Y = TWIST_FROB_X * _W_FROB


def twist_frobenius(pt):
    """pi(Q) on twist coordinates: untwist -> Frobenius -> twist, fused."""
    x, y = pt
    return (x.conjugate() * TWIST_FROB_X, y.conjugate() * TWIST_FROB_Y)


# -- Jacobian twist arithmetic on raw Fq2 pairs (the membership kernel) -------
#
# A point is (X0, X1, Y0, Y1, Z0, Z1) with x = X/Z^2, y = Y/Z^3 and each
# Fq2 coordinate split into canonical ints c0 + c1*u; Z == 0 is infinity.
# Formulas are the a = 0 ones from the Explicit-Formulas Database
# (dbl-2009-l, madd-2007-bl, add-2007-bl).

_P = BN254_P


def _f2mul(a0, a1, b0, b1):
    t0 = a0 * b0
    t1 = a1 * b1
    return (t0 - t1) % _P, ((a0 + a1) * (b0 + b1) - t0 - t1) % _P


def _f2sqr(a0, a1):
    return (a0 + a1) * (a0 - a1) % _P, 2 * a0 * a1 % _P


_INF = (1, 0, 1, 0, 0, 0)


def _jac_double(pt):
    x0, x1, y0, y1, z0, z1 = pt
    if not (z0 or z1):
        return _INF
    a0, a1 = _f2sqr(x0, x1)
    b0, b1 = _f2sqr(y0, y1)
    c0, c1 = _f2sqr(b0, b1)
    d0, d1 = _f2sqr(x0 + b0, x1 + b1)
    d0 = 2 * (d0 - a0 - c0)
    d1 = 2 * (d1 - a1 - c1)
    e0, e1 = 3 * a0, 3 * a1
    f0, f1 = _f2sqr(e0, e1)
    nx0 = (f0 - 2 * d0) % _P
    nx1 = (f1 - 2 * d1) % _P
    ny0, ny1 = _f2mul(e0, e1, d0 - nx0, d1 - nx1)
    nz0, nz1 = _f2mul(y0, y1, z0, z1)
    return (
        nx0, nx1,
        (ny0 - 8 * c0) % _P, (ny1 - 8 * c1) % _P,
        2 * nz0 % _P, 2 * nz1 % _P,
    )


def _jac_add_affine(pt, q):
    """pt + q for a Jacobian ``pt`` and an affine ``q = (x0, x1, y0, y1)``."""
    x0, x1, y0, y1, z0, z1 = pt
    qx0, qx1, qy0, qy1 = q
    if not (z0 or z1):
        return (qx0, qx1, qy0, qy1, 1, 0)
    zz0, zz1 = _f2sqr(z0, z1)
    u0, u1 = _f2mul(qx0, qx1, zz0, zz1)
    s0, s1 = _f2mul(z0, z1, zz0, zz1)
    s0, s1 = _f2mul(qy0, qy1, s0, s1)
    h0, h1 = (u0 - x0) % _P, (u1 - x1) % _P
    r0, r1 = 2 * (s0 - y0) % _P, 2 * (s1 - y1) % _P
    if not (h0 or h1):
        return _jac_double(pt) if not (r0 or r1) else _INF
    hh0, hh1 = _f2sqr(h0, h1)
    i0, i1 = 4 * hh0, 4 * hh1
    j0, j1 = _f2mul(h0, h1, i0, i1)
    v0, v1 = _f2mul(x0, x1, i0, i1)
    nx0, nx1 = _f2sqr(r0, r1)
    nx0 = (nx0 - j0 - 2 * v0) % _P
    nx1 = (nx1 - j1 - 2 * v1) % _P
    ny0, ny1 = _f2mul(r0, r1, v0 - nx0, v1 - nx1)
    w0, w1 = _f2mul(y0, y1, j0, j1)
    nz0, nz1 = _f2sqr(z0 + h0, z1 + h1)
    return (
        nx0, nx1,
        (ny0 - 2 * w0) % _P, (ny1 - 2 * w1) % _P,
        (nz0 - zz0 - hh0) % _P, (nz1 - zz1 - hh1) % _P,
    )


def _jac_add(p1, p2):
    """p1 + p2, both Jacobian."""
    x0, x1, y0, y1, z0, z1 = p1
    X0, X1, Y0, Y1, Z0, Z1 = p2
    if not (z0 or z1):
        return p2
    if not (Z0 or Z1):
        return p1
    zz0, zz1 = _f2sqr(z0, z1)
    ZZ0, ZZ1 = _f2sqr(Z0, Z1)
    u0, u1 = _f2mul(x0, x1, ZZ0, ZZ1)
    U0, U1 = _f2mul(X0, X1, zz0, zz1)
    s0, s1 = _f2mul(Z0, Z1, ZZ0, ZZ1)
    s0, s1 = _f2mul(y0, y1, s0, s1)
    S0, S1 = _f2mul(z0, z1, zz0, zz1)
    S0, S1 = _f2mul(Y0, Y1, S0, S1)
    h0, h1 = (U0 - u0) % _P, (U1 - u1) % _P
    r0, r1 = 2 * (S0 - s0) % _P, 2 * (S1 - s1) % _P
    if not (h0 or h1):
        return _jac_double(p1) if not (r0 or r1) else _INF
    i0, i1 = _f2sqr(2 * h0, 2 * h1)
    j0, j1 = _f2mul(h0, h1, i0, i1)
    v0, v1 = _f2mul(u0, u1, i0, i1)
    nx0, nx1 = _f2sqr(r0, r1)
    nx0 = (nx0 - j0 - 2 * v0) % _P
    nx1 = (nx1 - j1 - 2 * v1) % _P
    ny0, ny1 = _f2mul(r0, r1, v0 - nx0, v1 - nx1)
    w0, w1 = _f2mul(s0, s1, j0, j1)
    nz0, nz1 = _f2sqr(z0 + Z0, z1 + Z1)
    nz0, nz1 = _f2mul(nz0 - zz0 - ZZ0, nz1 - zz1 - ZZ1, h0, h1)
    return (nx0, nx1, (ny0 - 2 * w0) % _P, (ny1 - 2 * w1) % _P, nz0, nz1)


def _jac_mul_x(q):
    """[BN_X]q for an affine ``q``: double-and-add over the 63-bit x."""
    acc = (q[0], q[1], q[2], q[3], 1, 0)
    for i in range(BN_X.bit_length() - 2, -1, -1):
        acc = _jac_double(acc)
        if BN_X >> i & 1:
            acc = _jac_add_affine(acc, q)
    return acc


_PSI_X = (TWIST_FROB_X.c0, TWIST_FROB_X.c1)
_PSI_Y = (TWIST_FROB_Y.c0, TWIST_FROB_Y.c1)


def _jac_psi(pt):
    """:func:`twist_frobenius` on Jacobian coordinates.

    Conjugating Z conjugates Z^2 and Z^3, so the affine map
    ``(conj(x) * cx, conj(y) * cy)`` carries over to
    ``(conj(X) * cx, conj(Y) * cy, conj(Z))``.
    """
    x0, x1, y0, y1, z0, z1 = pt
    nx0, nx1 = _f2mul(x0, -x1, *_PSI_X)
    ny0, ny1 = _f2mul(y0, -y1, *_PSI_Y)
    return (nx0, nx1, ny0, ny1, z0, -z1 % _P)


def _jac_equal(p1, p2):
    """Projective equality: X1 Z2^2 == X2 Z1^2 and Y1 Z2^3 == Y2 Z1^3."""
    x0, x1, y0, y1, z0, z1 = p1
    X0, X1, Y0, Y1, Z0, Z1 = p2
    inf1 = not (z0 or z1)
    inf2 = not (Z0 or Z1)
    if inf1 or inf2:
        return inf1 and inf2
    zz0, zz1 = _f2sqr(z0, z1)
    ZZ0, ZZ1 = _f2sqr(Z0, Z1)
    if _f2mul(x0, x1, ZZ0, ZZ1) != _f2mul(X0, X1, zz0, zz1):
        return False
    zzz0, zzz1 = _f2mul(z0, z1, zz0, zz1)
    ZZZ0, ZZZ1 = _f2mul(Z0, Z1, ZZ0, ZZ1)
    return _f2mul(y0, y1, ZZZ0, ZZZ1) == _f2mul(Y0, Y1, zzz0, zzz1)
