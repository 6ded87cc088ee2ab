"""Short-Weierstrass elliptic curves over prime fields.

A :class:`Curve` is ``y^2 = x^3 + a*x + b`` over a :class:`PrimeField`.
Points are exposed through the ergonomic :class:`Point` wrapper (supporting
``P + Q``, ``k * P``); performance-critical paths (scalar multiplication,
MSM in :mod:`repro.engine`) use Jacobian-coordinate tuples of plain ints via
the module-level ``jac_*`` functions.

Infinity is represented as ``Point(curve, None, None)`` in affine form and
``(1, 1, 0)`` in Jacobian form.
"""

from ..errors import CurveError
from ..field.prime_field import PrimeField


# -- Jacobian-coordinate primitives (tuples of ints, no wrappers) -----------

JAC_INFINITY = (1, 1, 0)


def jac_is_infinity(pt):
    return pt[2] == 0


def jac_double(curve, pt):
    """Double a Jacobian point.  Standard dbl-2007-bl-style formulas."""
    p = curve.field.p
    X1, Y1, Z1 = pt
    if Z1 == 0 or Y1 == 0:
        return JAC_INFINITY
    XX = X1 * X1 % p
    YY = Y1 * Y1 % p
    YYYY = YY * YY % p
    ZZ = Z1 * Z1 % p
    S = 2 * ((X1 + YY) * (X1 + YY) - XX - YYYY) % p
    M = (3 * XX + curve.a * ZZ % p * ZZ) % p
    T = (M * M - 2 * S) % p
    Y3 = (M * (S - T) - 8 * YYYY) % p
    Z3 = ((Y1 + Z1) * (Y1 + Z1) - YY - ZZ) % p
    return (T, Y3, Z3)


def jac_add(curve, pt1, pt2):
    """Add two Jacobian points (general case, handles doubling/infinity)."""
    p = curve.field.p
    X1, Y1, Z1 = pt1
    X2, Y2, Z2 = pt2
    if Z1 == 0:
        return pt2
    if Z2 == 0:
        return pt1
    Z1Z1 = Z1 * Z1 % p
    Z2Z2 = Z2 * Z2 % p
    U1 = X1 * Z2Z2 % p
    U2 = X2 * Z1Z1 % p
    S1 = Y1 * Z2 % p * Z2Z2 % p
    S2 = Y2 * Z1 % p * Z1Z1 % p
    if U1 == U2:
        if S1 != S2:
            return JAC_INFINITY
        return jac_double(curve, pt1)
    H = (U2 - U1) % p
    I = 4 * H * H % p
    J = H * I % p
    r = 2 * (S2 - S1) % p
    V = U1 * I % p
    X3 = (r * r - J - 2 * V) % p
    Y3 = (r * (V - X3) - 2 * S1 * J) % p
    Z3 = ((Z1 + Z2) * (Z1 + Z2) - Z1Z1 - Z2Z2) % p * H % p
    return (X3, Y3, Z3)


def jac_add_affine(curve, pt1, pt2):
    """Mixed addition: Jacobian ``pt1`` plus affine ``pt2 = (x, y)``."""
    p = curve.field.p
    X1, Y1, Z1 = pt1
    if Z1 == 0:
        return (pt2[0], pt2[1], 1)
    x2, y2 = pt2
    Z1Z1 = Z1 * Z1 % p
    U2 = x2 * Z1Z1 % p
    S2 = y2 * Z1 % p * Z1Z1 % p
    if X1 == U2:
        if Y1 != S2:
            return JAC_INFINITY
        return jac_double(curve, pt1)
    H = (U2 - X1) % p
    HH = H * H % p
    I = 4 * HH % p
    J = H * I % p
    r = 2 * (S2 - Y1) % p
    V = X1 * I % p
    X3 = (r * r - J - 2 * V) % p
    Y3 = (r * (V - X3) - 2 * Y1 * J) % p
    Z3 = ((Z1 + H) * (Z1 + H) - Z1Z1 - HH) % p
    return (X3, Y3, Z3)


def jac_neg(curve, pt):
    return (pt[0], (-pt[1]) % curve.field.p, pt[2])


def jac_to_affine(curve, pt):
    """Convert Jacobian -> affine tuple, or None for infinity."""
    X, Y, Z = pt
    if Z == 0:
        return None
    p = curve.field.p
    zinv = pow(Z, -1, p)
    zinv2 = zinv * zinv % p
    return (X * zinv2 % p, Y * zinv2 % p * zinv % p)


def jac_mul(curve, pt, k, window=4):
    """Scalar multiplication of a Jacobian point (signed fixed-window ladder).

    ``k`` is recoded into signed ``window``-bit digits in
    ``[-(2^(w-1) - 1), 2^(w-1)]`` (wNAF-style, carry folded upward), so the
    table only stores the ``2^(w-1)`` positive multiples — negative digits
    add the negated point, one field negation.  Versus double-and-add this
    trades ``~bits/2`` conditional adds for ``~bits/w`` plus the table
    setup, a ~25% saving on a 256-bit scalar.
    """
    k %= curve.order
    if k == 0 or jac_is_infinity(pt):
        return JAC_INFINITY
    if k.bit_length() <= window + 1:
        # tiny scalar: the table setup would dominate
        result = JAC_INFINITY
        for bit in bin(k)[2:]:
            result = jac_double(curve, result)
            if bit == "1":
                result = jac_add(curve, result, pt)
        return result
    half = 1 << (window - 1)
    full = 1 << window
    mask = full - 1
    digits = []  # least significant first
    n = k
    while n:
        d = n & mask
        n >>= window
        if d > half:
            d -= full
            n += 1
        digits.append(d)
    multiples = [pt]  # multiples[i] = (i + 1) * pt, i + 1 up to 2^(w-1)
    for _ in range(half - 1):
        multiples.append(jac_add(curve, multiples[-1], pt))
    p = curve.field.p
    result = JAC_INFINITY
    for d in reversed(digits):
        for _ in range(window):
            result = jac_double(curve, result)
        if d > 0:
            result = jac_add(curve, result, multiples[d - 1])
        elif d < 0:
            x, y, z = multiples[-d - 1]
            result = jac_add(curve, result, (x, (-y) % p, z))
    return result


class Curve:
    """A short-Weierstrass curve ``y^2 = x^3 + a x + b`` over ``F_p``."""

    def __init__(self, name, p, a, b, gx, gy, order, cofactor=1):
        self.name = name
        self.field = PrimeField(p)
        self.a = a % p
        self.b = b % p
        self.order = order
        self.scalar_field = PrimeField(order)
        self.cofactor = cofactor
        if not self.contains(gx, gy):
            raise CurveError("generator not on curve %s" % name)
        self.generator = Point(self, gx, gy)

    def __repr__(self):
        return "Curve(%s)" % self.name

    def __eq__(self, other):
        return (
            isinstance(other, Curve)
            and other.field.p == self.field.p
            and other.a == self.a
            and other.b == self.b
        )

    def __hash__(self):
        return hash((self.field.p, self.a, self.b))

    def contains(self, x, y):
        """Whether affine ``(x, y)`` satisfies the curve equation."""
        p = self.field.p
        return (y * y - (x * x % p * x + self.a * x + self.b)) % p == 0

    @property
    def infinity(self):
        return Point(self, None, None)

    def point(self, x, y):
        """Construct a validated affine point."""
        if not self.contains(x, y):
            raise CurveError("point not on curve %s" % self.name)
        return Point(self, x % self.field.p, y % self.field.p)

    def lift_x(self, x, y_parity=0):
        """Decompress: find the point with given x and y parity bit."""
        p = self.field.p
        rhs = (pow(x, 3, p) + self.a * x + self.b) % p
        y = self.field.sqrt(rhs)
        if y % 2 != y_parity:
            y = p - y
        return self.point(x, y)

    def random_point(self):
        """A uniformly random point in the prime-order subgroup."""
        k = 0
        while k == 0:
            k = self.scalar_field.rand()
        return k * self.generator

    def hash_to_scalar(self, data):
        """Map bytes to a scalar (for toy signature schemes and tests)."""
        import hashlib

        h = hashlib.sha256(data).digest()
        return int.from_bytes(h, "big") % self.order


class Point:
    """An affine point with operator overloading.  Immutable."""

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve, x, y):
        self.curve = curve
        self.x = x
        self.y = y

    @property
    def is_infinity(self):
        return self.x is None

    def __eq__(self, other):
        return (
            isinstance(other, Point)
            and self.curve == other.curve
            and self.x == other.x
            and self.y == other.y
        )

    def __hash__(self):
        return hash((self.curve.field.p, self.x, self.y))

    def __repr__(self):
        if self.is_infinity:
            return "Point(%s, INF)" % self.curve.name
        return "Point(%s, 0x%x, 0x%x)" % (self.curve.name, self.x, self.y)

    def to_jacobian(self):
        if self.is_infinity:
            return JAC_INFINITY
        return (self.x, self.y, 1)

    @staticmethod
    def from_jacobian(curve, jac):
        aff = jac_to_affine(curve, jac)
        if aff is None:
            return curve.infinity
        return Point(curve, aff[0], aff[1])

    def __neg__(self):
        if self.is_infinity:
            return self
        return Point(self.curve, self.x, (-self.y) % self.curve.field.p)

    def __add__(self, other):
        if not isinstance(other, Point) or other.curve != self.curve:
            raise CurveError("cannot add points on different curves")
        if self.is_infinity:
            return other
        if other.is_infinity:
            return self
        p = self.curve.field.p
        if self.x == other.x:
            if (self.y + other.y) % p == 0:
                return self.curve.infinity
            lam = (3 * self.x * self.x + self.curve.a) * pow(2 * self.y, -1, p) % p
        else:
            lam = (other.y - self.y) * pow(other.x - self.x, -1, p) % p
        x3 = (lam * lam - self.x - other.x) % p
        y3 = (lam * (self.x - x3) - self.y) % p
        return Point(self.curve, x3, y3)

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if self.is_infinity:
            return self
        jac = jac_mul(self.curve, self.to_jacobian(), k)
        return Point.from_jacobian(self.curve, jac)

    __mul__ = __rmul__

    def double(self):
        return self + self

    # -- SEC1-style serialization --------------------------------------------

    def encode(self, compressed=True):
        """SEC1 encoding: 02/03 || x (compressed) or 04 || x || y."""
        if self.is_infinity:
            return b"\x00"
        size = self.curve.field.byte_length
        xb = self.x.to_bytes(size, "big")
        if compressed:
            return bytes([2 + (self.y & 1)]) + xb
        return b"\x04" + xb + self.y.to_bytes(size, "big")

    @staticmethod
    def decode(curve, data):
        if data == b"\x00":
            return curve.infinity
        size = curve.field.byte_length
        tag = data[0]
        if tag == 4:
            if len(data) != 1 + 2 * size:
                raise CurveError("bad uncompressed point length")
            x = int.from_bytes(data[1 : 1 + size], "big")
            y = int.from_bytes(data[1 + size :], "big")
            return curve.point(x, y)
        if tag in (2, 3):
            if len(data) != 1 + size:
                raise CurveError("bad compressed point length")
            x = int.from_bytes(data[1:], "big")
            return curve.lift_x(x, tag - 2)
        raise CurveError("bad point encoding tag 0x%02x" % tag)
