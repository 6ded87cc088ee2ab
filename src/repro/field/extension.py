"""Extension-field tower for the BN254 pairing curve.

Groth16 verification needs the optimal ate pairing on BN254, which in turn
needs the tower

    Fq2  = Fq [u] / (u^2 + 1)
    Fq6  = Fq2[v] / (v^3 - xi),   xi = 9 + u
    Fq12 = Fq6[w] / (w^2 - v)

The classes here are specialized to BN254's base prime (the tower structure
and the Frobenius coefficients are properties of that specific field), which
lets multiplication use the standard Karatsuba shortcuts and lets inversion
bottom out in a single native ``pow(x, -1, p)``.

Elements are immutable; coefficients are plain ints (for Fq2) or lower-level
tower elements.

Multiplication through the tower uses **lazy reduction**: the ``_m2`` /
``_m6`` helpers run Karatsuba over raw integer coefficient tuples with the
``% p`` on accumulated cross terms deferred until the output element is
constructed (Python ints never overflow, so intermediates may grow a few
bits past ``2p^2`` harmlessly).  A full Fq12 multiplication therefore pays
exactly 12 modular reductions and zero intermediate object allocations.
The Fq12 kernels (``_mul12``, ``_sqr12``, the cyclotomic ``_cyc_sqr12``
and the sparse line product ``_mul12_by_034``) work on flat 12-tuples of
ints; the Miller loop and the final exponentiation's ladders in
:mod:`repro.pairing.ate` call them directly and build no tower objects.
Canonical reduction at the boundary keeps results bit-identical to the
eagerly-reduced forms.  Tower elements always *store* canonical ints:
coefficients cross equality checks, hashes, and the wire layer.
"""

from ..errors import FieldError

#: BN254 (a.k.a. alt_bn128) base-field prime.
BN254_P = 21888242871839275222246405745257275088696311157297823662689037894645226208583

_P = BN254_P


# -- unchecked constructors ---------------------------------------------------
#
# The hot paths (twist line values, raw-tuple boundary reduction) build
# elements whose coefficients are already canonical; these skip the
# constructor's redundant `% p` per limb.


def fq2_raw(c0, c1):
    """Fq2 from ALREADY-CANONICAL coefficients (no reduction performed)."""
    e = Fq2.__new__(Fq2)
    e.c0 = c0
    e.c1 = c1
    return e


def fq6_raw(c0, c1, c2):
    """Fq6 from three Fq2 coefficients (no validation)."""
    e = Fq6.__new__(Fq6)
    e.c0 = c0
    e.c1 = c1
    e.c2 = c2
    return e


def fq12_raw(c0, c1):
    """Fq12 from two Fq6 coefficients (no validation)."""
    e = Fq12.__new__(Fq12)
    e.c0 = c0
    e.c1 = c1
    return e


# -- lazy-reduction kernels (raw int tuples, `% p` deferred to construction) --


def _m2(a0, a1, b0, b1):
    """Karatsuba product in Fq2 over raw ints; returns an unreduced pair."""
    t0 = a0 * b0
    t1 = a1 * b1
    return t0 - t1, (a0 + a1) * (b0 + b1) - t0 - t1


def _xi2(c0, c1):
    """Raw multiplication by the Fq6 non-residue xi = 9 + u."""
    return 9 * c0 - c1, 9 * c1 + c0


def _m6(a, b):
    """Toom-style Fq6 product over raw 6-tuples (6 raw Fq2 muls, no mods).

    The six Karatsuba Fq2 products are written out in place: this kernel
    sits under every dense Fq12 product and squaring.
    """
    a00, a01, a10, a11, a20, a21 = a
    b00, b01, b10, b11, b20, b21 = b
    t0 = a00 * b00
    t1 = a01 * b01
    v00 = t0 - t1
    v01 = (a00 + a01) * (b00 + b01) - t0 - t1  # a0 b0
    t0 = a10 * b10
    t1 = a11 * b11
    v10 = t0 - t1
    v11 = (a10 + a11) * (b10 + b11) - t0 - t1  # a1 b1
    t0 = a20 * b20
    t1 = a21 * b21
    v20 = t0 - t1
    v21 = (a20 + a21) * (b20 + b21) - t0 - t1  # a2 b2
    c0, c1, d0, d1 = a10 + a20, a11 + a21, b10 + b20, b11 + b21
    t0 = c0 * d0
    t1 = c1 * d1
    s0 = t0 - t1 - v10 - v20
    s1 = (c0 + c1) * (d0 + d1) - t0 - t1 - v11 - v21  # a1 b2 + a2 b1
    c0, c1, d0, d1 = a00 + a10, a01 + a11, b00 + b10, b01 + b11
    t0 = c0 * d0
    t1 = c1 * d1
    u0 = t0 - t1 - v00 - v10
    u1 = (c0 + c1) * (d0 + d1) - t0 - t1 - v01 - v11  # a0 b1 + a1 b0
    c0, c1, d0, d1 = a00 + a20, a01 + a21, b00 + b20, b01 + b21
    t0 = c0 * d0
    t1 = c1 * d1
    w0 = t0 - t1 - v00 - v20 + v10
    w1 = (c0 + c1) * (d0 + d1) - t0 - t1 - v01 - v21 + v11  # a0 b2 + a1 b1 + a2 b0
    return (
        v00 + 9 * s0 - s1, v01 + 9 * s1 + s0,
        u0 + 9 * v20 - v21, u1 + 9 * v21 + v20,
        w0, w1,
    )


def _mulv6(a):
    """Raw multiplication by v (v^3 = xi) on a 6-tuple."""
    x0, x1 = _xi2(a[4], a[5])
    return (x0, x1, a[0], a[1], a[2], a[3])


def _add6(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2],
            a[3] + b[3], a[4] + b[4], a[5] + b[5])


def _m6_by_01(a, b0, b1, c0, c1):
    """Raw Fq6 product ``a * (b + c v)`` (5 raw Fq2 muls, no mods)."""
    a00, a01, a10, a11, a20, a21 = a
    t0 = a00 * b0
    t1 = a01 * b1
    u0 = t0 - t1
    u1 = (a00 + a01) * (b0 + b1) - t0 - t1  # a0 b
    t0 = a10 * c0
    t1 = a11 * c1
    w0 = t0 - t1
    w1 = (a10 + a11) * (c0 + c1) - t0 - t1  # a1 c
    t0 = a20 * c0
    t1 = a21 * c1
    s0 = t0 - t1
    s1 = (a20 + a21) * (c0 + c1) - t0 - t1  # a2 c
    h0, h1, k0, k1 = a00 + a10, a01 + a11, b0 + c0, b1 + c1
    t0 = h0 * k0
    t1 = h1 * k1
    m0 = t0 - t1 - u0 - w0
    m1 = (h0 + h1) * (k0 + k1) - t0 - t1 - u1 - w1  # a0 c + a1 b
    t0 = a20 * b0
    t1 = a21 * b1
    n0 = t0 - t1 + w0
    n1 = (a20 + a21) * (b0 + b1) - t0 - t1 + w1  # a2 b + a1 c
    return (u0 + 9 * s0 - s1, u1 + 9 * s1 + s0, m0, m1, n0, n1)


# -- Fq12 on flat raw 12-tuples -----------------------------------------------
#
# An Fq12 element flattens to (c0.c0.c0, c0.c0.c1, c0.c1.c0, ..., c1.c2.c1):
# twelve canonical ints, "slots" 0-5 holding the Fq2 coefficients of
# 1, v, v^2, w, vw, v^2 w.  The Miller loop and the final exponentiation's
# x-ladders keep their accumulator in this form; each kernel below pays
# exactly one boundary ``% p`` per output limb and allocates no tower
# objects.


def _mul12(a, b):
    """Karatsuba Fq12 product: 18 raw Fq2 muls, 12 mods."""
    p = _P
    a0, a1 = a[:6], a[6:]
    b0, b1 = b[:6], b[6:]
    v0 = _m6(a0, b0)
    v1 = _m6(a1, b1)
    t = _m6(_add6(a0, a1), _add6(b0, b1))
    x0, x1 = _xi2(v1[4], v1[5])  # v * v1 = (xi v1[2], v1[0], v1[1])
    return (
        (v0[0] + x0) % p, (v0[1] + x1) % p,
        (v0[2] + v1[0]) % p, (v0[3] + v1[1]) % p,
        (v0[4] + v1[2]) % p, (v0[5] + v1[3]) % p,
        (t[0] - v0[0] - v1[0]) % p, (t[1] - v0[1] - v1[1]) % p,
        (t[2] - v0[2] - v1[2]) % p, (t[3] - v0[3] - v1[3]) % p,
        (t[4] - v0[4] - v1[4]) % p, (t[5] - v0[5] - v1[5]) % p,
    )


def _sqr12(a):
    """Complex Fq12 squaring: 2 raw Fq6 muls (12 Fq2 muls), 12 mods."""
    p = _P
    a0, a1 = a[:6], a[6:]
    v0 = _m6(a0, a1)
    t = _m6(_add6(a0, a1), _add6(a0, _mulv6(a1)))
    x0, x1 = _xi2(v0[4], v0[5])
    return (
        (t[0] - v0[0] - x0) % p, (t[1] - v0[1] - x1) % p,
        (t[2] - v0[2] - v0[0]) % p, (t[3] - v0[3] - v0[1]) % p,
        (t[4] - v0[4] - v0[2]) % p, (t[5] - v0[5] - v0[3]) % p,
        2 * v0[0] % p, 2 * v0[1] % p, 2 * v0[2] % p,
        2 * v0[3] % p, 2 * v0[4] % p, 2 * v0[5] % p,
    )


def _cyc_sqr12(a):
    """Granger–Scott squaring, valid only in the cyclotomic subgroup.

    R. Granger and M. Scott, "Faster squaring in the cyclotomic subgroup of
    sixth degree extensions" (PKC 2010).  Fq12 is read as a cubic extension
    of Fq4 = Fq2[y]/(y^2 - xi) with y = w^3; for an element of order dividing
    p^4 - p^2 + 1 (anything after the final exponentiation's easy part) the
    square needs only three Fq4 squarings: 6 Fq2 muls against 12.  On other
    inputs the result is wrong, not an error — callers must know ``a`` is
    unitary.
    """
    p = _P
    # the Fq4 pairs are (z0, z1) = (c0.c0, c1.c1), (z2, z3) = (c1.c0, c0.c2),
    # (z4, z5) = (c0.c1, c1.c2); each (x + z y)^2 is
    # (x^2 + xi z^2) + 2xz y = ((x + z)(x + xi z) - xz - xi xz) + 2xz y
    z00, z01, z40, z41, z30, z31, z20, z21, z10, z11, z50, z51 = a
    t0 = z00 * z10
    t1 = z01 * z11
    m0 = t0 - t1
    m1 = (z00 + z01) * (z10 + z11) - t0 - t1
    c0, c1 = z00 + z10, z01 + z11
    d0, d1 = 9 * z10 - z11 + z00, 9 * z11 + z10 + z01
    t0 = c0 * d0
    t1 = c1 * d1
    A0 = t0 - t1 - 10 * m0 + m1
    A1 = (c0 + c1) * (d0 + d1) - t0 - t1 - 10 * m1 - m0
    B0, B1 = 2 * m0, 2 * m1
    t0 = z20 * z30
    t1 = z21 * z31
    m0 = t0 - t1
    m1 = (z20 + z21) * (z30 + z31) - t0 - t1
    c0, c1 = z20 + z30, z21 + z31
    d0, d1 = 9 * z30 - z31 + z20, 9 * z31 + z30 + z21
    t0 = c0 * d0
    t1 = c1 * d1
    C0 = t0 - t1 - 10 * m0 + m1
    C1 = (c0 + c1) * (d0 + d1) - t0 - t1 - 10 * m1 - m0
    D0, D1 = 2 * m0, 2 * m1
    t0 = z40 * z50
    t1 = z41 * z51
    m0 = t0 - t1
    m1 = (z40 + z41) * (z50 + z51) - t0 - t1
    c0, c1 = z40 + z50, z41 + z51
    d0, d1 = 9 * z50 - z51 + z40, 9 * z51 + z50 + z41
    t0 = c0 * d0
    t1 = c1 * d1
    E0 = t0 - t1 - 10 * m0 + m1
    E1 = (c0 + c1) * (d0 + d1) - t0 - t1 - 10 * m1 - m0
    G0, G1 = 2 * (9 * m0 - m1), 2 * (9 * m1 + m0)  # xi * 2 z4 z5
    return (
        (3 * A0 - 2 * z00) % p, (3 * A1 - 2 * z01) % p,
        (3 * C0 - 2 * z40) % p, (3 * C1 - 2 * z41) % p,
        (3 * E0 - 2 * z30) % p, (3 * E1 - 2 * z31) % p,
        (3 * G0 + 2 * z20) % p, (3 * G1 + 2 * z21) % p,
        (3 * B0 + 2 * z10) % p, (3 * B1 + 2 * z11) % p,
        (3 * D0 + 2 * z50) % p, (3 * D1 + 2 * z51) % p,
    )


def _mul12_by_034(f, a0, a1, b30, b31, b40, b41):
    """``f * (a + (b3 + b4 v) w)`` for a, b3, b4 in Fq2, over raw ints.

    This is the shape of every Miller-loop line value on BN254's D-type
    twist: slots 0, 3 and 4 are the only nonzero ones.  Karatsuba over the
    w-halves costs two sparse Fq6 products plus ``a`` times an Fq6
    (13 Fq2 muls) against 18 for a dense product; 12 mods either way.
    """
    p = _P
    f0, f1 = f[:6], f[6:]
    x = _m6_by_01(f1, b30, b31, b40, b41)
    y = _m6_by_01(_add6(f0, f1), a0 + b30, a1 + b31, b40, b41)
    c00, c01 = _m2(a0, a1, f[0], f[1])
    c10, c11 = _m2(a0, a1, f[2], f[3])
    c20, c21 = _m2(a0, a1, f[4], f[5])
    x0, x1 = _xi2(x[4], x[5])  # v * x
    return (
        (c00 + x0) % p, (c01 + x1) % p,
        (c10 + x[0]) % p, (c11 + x[1]) % p,
        (c20 + x[2]) % p, (c21 + x[3]) % p,
        (y[0] - c00 - x[0]) % p, (y[1] - c01 - x[1]) % p,
        (y[2] - c10 - x[2]) % p, (y[3] - c11 - x[3]) % p,
        (y[4] - c20 - x[4]) % p, (y[5] - c21 - x[5]) % p,
    )


class Fq2:
    """Element c0 + c1*u of Fq[u]/(u^2 + 1)."""

    __slots__ = ("c0", "c1")

    def __init__(self, c0, c1):
        self.c0 = c0 % _P
        self.c1 = c1 % _P

    @staticmethod
    def zero():
        return Fq2(0, 0)

    @staticmethod
    def one():
        return Fq2(1, 0)

    def is_zero(self):
        return self.c0 == 0 and self.c1 == 0

    def __eq__(self, other):
        return (
            isinstance(other, Fq2) and self.c0 == other.c0 and self.c1 == other.c1
        )

    def __hash__(self):
        return hash((self.c0, self.c1))

    def __repr__(self):
        return "Fq2(%d, %d)" % (self.c0, self.c1)

    def __add__(self, other):
        return Fq2(self.c0 + other.c0, self.c1 + other.c1)

    def __sub__(self, other):
        return Fq2(self.c0 - other.c0, self.c1 - other.c1)

    def __neg__(self):
        return Fq2(-self.c0, -self.c1)

    def __mul__(self, other):
        if isinstance(other, int):
            e = Fq2.__new__(Fq2)
            e.c0 = self.c0 * other % _P
            e.c1 = self.c1 * other % _P
            return e
        # Karatsuba: (a0 + a1 u)(b0 + b1 u) with u^2 = -1
        t0 = self.c0 * other.c0
        t1 = self.c1 * other.c1
        t2 = (self.c0 + self.c1) * (other.c0 + other.c1)
        e = Fq2.__new__(Fq2)
        e.c0 = (t0 - t1) % _P
        e.c1 = (t2 - t0 - t1) % _P
        return e

    __rmul__ = __mul__

    def square(self):
        # (a0 + a1 u)^2 = (a0+a1)(a0-a1) + 2 a0 a1 u
        t = self.c0 * self.c1
        e = Fq2.__new__(Fq2)
        e.c0 = (self.c0 + self.c1) * (self.c0 - self.c1) % _P
        e.c1 = (t + t) % _P
        return e

    def conjugate(self):
        return Fq2(self.c0, -self.c1)

    def inverse(self):
        # 1/(a0 + a1 u) = (a0 - a1 u) / (a0^2 + a1^2)
        norm = (self.c0 * self.c0 + self.c1 * self.c1) % _P
        if norm == 0:
            raise FieldError("inverse of zero in Fq2")
        inv = pow(norm, -1, _P)
        e = Fq2.__new__(Fq2)
        e.c0 = self.c0 * inv % _P
        e.c1 = -self.c1 * inv % _P
        return e

    def mul_by_xi(self):
        """Multiply by the Fq6 non-residue xi = 9 + u."""
        return Fq2(9 * self.c0 - self.c1, 9 * self.c1 + self.c0)

    def frobenius(self):
        """x -> x^p; since p = 3 mod 4, u^p = -u."""
        return self.conjugate()

    def pow(self, e):
        result = Fq2.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base.square()
            e >>= 1
        return result


#: Fq6 non-residue xi = 9 + u.
XI = Fq2(9, 1)

# Frobenius coefficients.
#   Fq6:  (a0 + a1 v + a2 v^2)^p = a0^p + a1^p * g1 * v + a2^p * g2 * v^2
#         g1 = xi^((p-1)/3), g2 = xi^(2(p-1)/3)
#   Fq12: (b0 + b1 w)^p = b0^p + b1^p * g12 * w,  g12 = xi^((p-1)/6)
_FROB6_C1 = XI.pow((_P - 1) // 3)
_FROB6_C2 = XI.pow(2 * (_P - 1) // 3)
_FROB12_C1 = XI.pow((_P - 1) // 6)


class Fq6:
    """Element a0 + a1*v + a2*v^2 of Fq2[v]/(v^3 - xi)."""

    __slots__ = ("c0", "c1", "c2")

    def __init__(self, c0, c1, c2):
        self.c0 = c0
        self.c1 = c1
        self.c2 = c2

    @staticmethod
    def zero():
        return Fq6(Fq2.zero(), Fq2.zero(), Fq2.zero())

    @staticmethod
    def one():
        return Fq6(Fq2.one(), Fq2.zero(), Fq2.zero())

    def is_zero(self):
        return self.c0.is_zero() and self.c1.is_zero() and self.c2.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, Fq6)
            and self.c0 == other.c0
            and self.c1 == other.c1
            and self.c2 == other.c2
        )

    def __hash__(self):
        return hash((self.c0, self.c1, self.c2))

    def __repr__(self):
        return "Fq6(%r, %r, %r)" % (self.c0, self.c1, self.c2)

    def __add__(self, other):
        return Fq6(self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other):
        return Fq6(self.c0 - other.c0, self.c1 - other.c1, self.c2 - other.c2)

    def __neg__(self):
        return Fq6(-self.c0, -self.c1, -self.c2)

    def _raw(self):
        """Coefficients as a raw 6-tuple for the lazy-reduction kernels."""
        c0, c1, c2 = self.c0, self.c1, self.c2
        return (c0.c0, c0.c1, c1.c0, c1.c1, c2.c0, c2.c1)

    @staticmethod
    def _from_raw(raw):
        """Reduce a raw 6-tuple into a canonical element.

        Exactly one boundary ``% p`` per limb, with unchecked construction
        (the constructor's own ``% p`` would be a redundant second
        reduction).
        """
        p = _P
        return fq6_raw(
            fq2_raw(raw[0] % p, raw[1] % p),
            fq2_raw(raw[2] % p, raw[3] % p),
            fq2_raw(raw[4] % p, raw[5] % p),
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fq2)):
            return Fq6(self.c0 * other, self.c1 * other, self.c2 * other)
        # Toom-style interpolation (CH-SQR / Devegili): 6 raw Fq2 muls with
        # all cross-term reductions deferred to construction.
        return Fq6._from_raw(_m6(self._raw(), other._raw()))

    __rmul__ = __mul__

    def square(self):
        return self * self

    def mul_by_v(self):
        """Multiply by v (v^3 = xi)."""
        return Fq6(self.c2.mul_by_xi(), self.c0, self.c1)

    def inverse(self):
        a0, a1, a2 = self.c0, self.c1, self.c2
        t0 = a0.square() - (a1 * a2).mul_by_xi()
        t1 = a2.square().mul_by_xi() - a0 * a1
        t2 = a1.square() - a0 * a2
        denom = a0 * t0 + (a2 * t1).mul_by_xi() + (a1 * t2).mul_by_xi()
        inv = denom.inverse()
        return Fq6(t0 * inv, t1 * inv, t2 * inv)

    def frobenius(self):
        return Fq6(
            self.c0.frobenius(),
            self.c1.frobenius() * _FROB6_C1,
            self.c2.frobenius() * _FROB6_C2,
        )


class Fq12:
    """Element b0 + b1*w of Fq6[w]/(w^2 - v).  The pairing target group."""

    __slots__ = ("c0", "c1")

    def __init__(self, c0, c1):
        self.c0 = c0
        self.c1 = c1

    @staticmethod
    def zero():
        return Fq12(Fq6.zero(), Fq6.zero())

    @staticmethod
    def one():
        return Fq12(Fq6.one(), Fq6.zero())

    def is_zero(self):
        return self.c0.is_zero() and self.c1.is_zero()

    def is_one(self):
        return self == Fq12.one()

    def __eq__(self, other):
        return (
            isinstance(other, Fq12) and self.c0 == other.c0 and self.c1 == other.c1
        )

    def __hash__(self):
        return hash((self.c0, self.c1))

    def __repr__(self):
        return "Fq12(%r, %r)" % (self.c0, self.c1)

    def __add__(self, other):
        return Fq12(self.c0 + other.c0, self.c1 + other.c1)

    def __sub__(self, other):
        return Fq12(self.c0 - other.c0, self.c1 - other.c1)

    def __neg__(self):
        return Fq12(-self.c0, -self.c1)

    def raw(self):
        """The flat 12-tuple of canonical ints (see :func:`_mul12`)."""
        return self.c0._raw() + self.c1._raw()

    @staticmethod
    def from_raw(t):
        """Element from a flat 12-tuple of ALREADY-CANONICAL ints."""
        return fq12_raw(
            fq6_raw(fq2_raw(t[0], t[1]), fq2_raw(t[2], t[3]), fq2_raw(t[4], t[5])),
            fq6_raw(fq2_raw(t[6], t[7]), fq2_raw(t[8], t[9]), fq2_raw(t[10], t[11])),
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fq2, Fq6)):
            return Fq12(self.c0 * other, self.c1 * other)
        return Fq12.from_raw(_mul12(self.raw(), other.raw()))

    __rmul__ = __mul__

    def square(self):
        return Fq12.from_raw(_sqr12(self.raw()))

    def cyclotomic_square(self):
        """Square of a unitary element (see :func:`_cyc_sqr12`)."""
        return Fq12.from_raw(_cyc_sqr12(self.raw()))

    def conjugate(self):
        """b0 - b1 w, which equals x^(p^6) (the unitary inverse)."""
        return Fq12(self.c0, -self.c1)

    def inverse(self):
        t = (self.c0.square() - self.c1.square().mul_by_v()).inverse()
        return Fq12(self.c0 * t, -(self.c1 * t))

    def frobenius(self):
        return Fq12(
            self.c0.frobenius(),
            self.c1.frobenius() * _FROB12_C1,
        )

    def frobenius_n(self, n):
        x = self
        for _ in range(n % 12):
            x = x.frobenius()
        return x

    def pow(self, e):
        if e < 0:
            return self.inverse().pow(-e)
        result = Fq12.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base.square()
            e >>= 1
        return result
