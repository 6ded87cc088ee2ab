"""Prime-field arithmetic.

All higher layers (elliptic curves, pairings, R1CS, Groth16) operate on field
elements represented as plain Python integers in ``[0, p)``; a
:class:`PrimeField` instance carries the modulus and provides the operations
that need more than ``%``: inversion, square roots, batch inversion, random
sampling.  Keeping elements as bare ints (instead of wrapper objects) is the
single most important performance decision in this pure-Python codebase.

A thin :class:`Fp` wrapper with operator overloading is provided for tests
and examples where ergonomics matter more than speed.
"""

import secrets

from ..errors import FieldError


class PrimeField:
    """The field of integers modulo a prime ``p``.

    Elements are plain ints.  The class provides inversion, exponentiation,
    Tonelli-Shanks square roots, Legendre symbols, batch inversion, and
    random sampling.
    """

    def __init__(self, modulus):
        if modulus < 2:
            raise FieldError("modulus must be >= 2")
        self.p = modulus
        self.bits = modulus.bit_length()
        # Precomputed Tonelli-Shanks parameters: p - 1 = q * 2^s with q odd.
        q, s = modulus - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        self._ts_q = q
        self._ts_s = s
        self._nonresidue = None

    def __repr__(self):
        return "PrimeField(0x%x)" % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    # -- basic operations ---------------------------------------------------

    def reduce(self, x):
        """Map an arbitrary integer into canonical form in [0, p)."""
        return x % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        """Multiplicative inverse in canonical form; FieldError on zero.

        ``pow(a, -1, p)`` reduces internally and returns a value in
        ``[0, p)``, so no pre- or post-reduction is needed here — callers
        may rely on the result being canonical.
        """
        try:
            return pow(a, -1, self.p)
        except ValueError:
            raise FieldError("inverse of zero")

    def div(self, a, b):
        # inv() is canonical, so one reduction of the product suffices
        return a * self.inv(b) % self.p

    def pow(self, a, e):
        # reduce the base once: pow() over a 254-bit base is measurably
        # faster than over an arbitrarily wide one, and e < 0 requires a
        # reduced base to mean (a mod p)^e
        return pow(a % self.p, e, self.p)

    def rand(self):
        """Uniform random element of the field."""
        return secrets.randbelow(self.p)

    def rand_nonzero(self):
        while True:
            x = self.rand()
            if x != 0:
                return x

    # -- square roots -------------------------------------------------------

    def legendre(self, a):
        """Legendre symbol: 1 if QR, -1 if non-residue, 0 if zero."""
        a %= self.p
        if a == 0:
            return 0
        ls = pow(a, (self.p - 1) // 2, self.p)
        return -1 if ls == self.p - 1 else 1

    def is_square(self, a):
        return self.legendre(a) >= 0

    def _find_nonresidue(self):
        if self._nonresidue is None:
            z = 2
            while self.legendre(z) != -1:
                z += 1
            self._nonresidue = z
        return self._nonresidue

    def sqrt(self, a):
        """A square root of ``a`` via Tonelli-Shanks.

        Raises FieldError if ``a`` is a non-residue.  The returned root is
        the "even" one is not guaranteed; callers needing a canonical root
        should normalize (e.g. pick min(r, p - r)).
        """
        a %= self.p
        if a == 0:
            return 0
        if self.p % 4 == 3:
            r = pow(a, (self.p + 1) // 4, self.p)
            if r * r % self.p != a:
                raise FieldError("not a quadratic residue")
            return r
        if self.legendre(a) != 1:
            raise FieldError("not a quadratic residue")
        q, s = self._ts_q, self._ts_s
        z = self._find_nonresidue()
        m = s
        c = pow(z, q, self.p)
        t = pow(a, q, self.p)
        r = pow(a, (q + 1) // 2, self.p)
        while t != 1:
            # find least i with t^(2^i) == 1
            i, t2i = 0, t
            while t2i != 1:
                t2i = t2i * t2i % self.p
                i += 1
            b = pow(c, 1 << (m - i - 1), self.p)
            m = i
            c = b * b % self.p
            t = t * c % self.p
            r = r * b % self.p
        return r

    # -- batch operations ---------------------------------------------------

    def batch_inverse(self, xs):
        """Invert a list of nonzero elements with one field inversion.

        Montgomery's trick: 3n multiplications + 1 inversion instead of n
        inversions.  This is the shared helper behind every batched-affine
        hot path (Pippenger bucket accumulation, coordinate normalization);
        calling :meth:`inv` in a loop where this applies is a lint smell
        (see the ``inv-in-loop`` hygiene rule).
        """
        n = len(xs)
        if n == 0:
            return []
        p = self.p
        prefix = [0] * n
        acc = 1
        for i, x in enumerate(xs):
            if x % p == 0:
                raise FieldError("batch_inverse: zero element at index %d" % i)
            prefix[i] = acc
            acc = acc * x % p
        inv_acc = self.inv(acc)
        out = [0] * n
        for i in range(n - 1, -1, -1):
            out[i] = prefix[i] * inv_acc % p
            inv_acc = inv_acc * xs[i] % p
        return out

    #: historical name; :meth:`batch_inverse` is the canonical spelling
    batch_inv = batch_inverse

    # -- serialization helpers ----------------------------------------------

    @property
    def byte_length(self):
        return (self.bits + 7) // 8

    def to_bytes(self, a):
        return (a % self.p).to_bytes(self.byte_length, "big")

    def from_bytes(self, data):
        x = int.from_bytes(data, "big")
        if x >= self.p:
            raise FieldError("encoding out of range")
        return x


class Fp:
    """Operator-overloaded wrapper over a :class:`PrimeField` element.

    Convenience type for tests and examples; performance-sensitive code works
    with plain ints through :class:`PrimeField` directly.
    """

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value % field.p

    def _coerce(self, other):
        if isinstance(other, Fp):
            if other.field != self.field:
                raise FieldError("mixed fields")
            return other.value
        if isinstance(other, int):
            return other % self.field.p
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Fp(self.field, self.value + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Fp(self.field, self.value - v)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Fp(self.field, v - self.value)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Fp(self.field, self.value * v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Fp(self.field, self.value * self.field.inv(v))

    def __neg__(self):
        return Fp(self.field, -self.value)

    def __pow__(self, e):
        return Fp(self.field, pow(self.value, e, self.field.p))

    def inverse(self):
        return Fp(self.field, self.field.inv(self.value))

    def sqrt(self):
        return Fp(self.field, self.field.sqrt(self.value))

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.field == other.field and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.value))

    def __repr__(self):
        return "Fp(%d mod 0x%x)" % (self.value, self.field.p)

    def __int__(self):
        return self.value
