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
exactly 12 modular reductions and zero intermediate object allocations —
the Miller loop in :mod:`repro.pairing.ate` runs entirely on these paths.
Canonical reduction at construction keeps results bit-identical to the
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
    """Toom-style Fq6 product over raw 6-tuples (6 raw Fq2 muls, no mods)."""
    a00, a01, a10, a11, a20, a21 = a
    b00, b01, b10, b11, b20, b21 = b
    v00, v01 = _m2(a00, a01, b00, b01)
    v10, v11 = _m2(a10, a11, b10, b11)
    v20, v21 = _m2(a20, a21, b20, b21)
    # a1 b2 + a2 b1
    t00, t01 = _m2(a10 + a20, a11 + a21, b10 + b20, b11 + b21)
    t00 -= v10 + v20
    t01 -= v11 + v21
    # a0 b1 + a1 b0
    t10, t11 = _m2(a00 + a10, a01 + a11, b00 + b10, b01 + b11)
    t10 -= v00 + v10
    t11 -= v01 + v11
    # a0 b2 + a2 b0
    t20, t21 = _m2(a00 + a20, a01 + a21, b00 + b20, b01 + b21)
    t20 -= v00 + v20
    t21 -= v01 + v21
    x0, x1 = _xi2(t00, t01)
    y0, y1 = _xi2(v20, v21)
    return (v00 + x0, v01 + x1, t10 + y0, t11 + y1, t20 + v10, t21 + v11)


def _mulv6(a):
    """Raw multiplication by v (v^3 = xi) on a 6-tuple."""
    x0, x1 = _xi2(a[4], a[5])
    return (x0, x1, a[0], a[1], a[2], a[3])


def _add6(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2],
            a[3] + b[3], a[4] + b[4], a[5] + b[5])


def _sub6(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2],
            a[3] - b[3], a[4] - b[4], a[5] - b[5])


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

    def __mul__(self, other):
        if isinstance(other, (int, Fq2, Fq6)):
            return Fq12(self.c0 * other, self.c1 * other)
        # Karatsuba over raw 6-tuples: 18 raw Fq2 muls, 12 mods total.
        a0, a1 = self.c0._raw(), self.c1._raw()
        b0, b1 = other.c0._raw(), other.c1._raw()
        v0 = _m6(a0, b0)
        v1 = _m6(a1, b1)
        t = _sub6(_sub6(_m6(_add6(a0, a1), _add6(b0, b1)), v0), v1)
        return Fq12(
            Fq6._from_raw(_add6(v0, _mulv6(v1))), Fq6._from_raw(t)
        )

    __rmul__ = __mul__

    def square(self):
        # complex squaring over raw 6-tuples (2 raw Fq6 muls, 12 mods)
        a0, a1 = self.c0._raw(), self.c1._raw()
        v0 = _m6(a0, a1)
        t = _m6(_add6(a0, a1), _add6(a0, _mulv6(a1)))
        return Fq12(
            Fq6._from_raw(_sub6(_sub6(t, v0), _mulv6(v0))),
            Fq6._from_raw(_add6(v0, v0)),
        )

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
