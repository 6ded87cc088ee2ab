"""Big-integer arithmetic in constraints (paper §5.1).

Numbers are vectors of limbs in base ``b = 2^limb_bits``.  The key cost
facts:

* additions/subtractions and multiplication by constants are free (linear
  combinations);
* a limb-by-limb product costs one constraint per limb pair;
* NOPE's **matrix-M modular reduction** costs *zero* constraints: the rows
  of M are limb representations of ``b^i mod q``, so multiplying a limb
  vector by the constant matrix M collapses high limbs while preserving the
  value mod q — and a vector-constant-matrix product is just linear
  combinations;
* the price is *redundant representation*: limbs grow beyond ``b`` and the
  value is only meaningful mod q.  Equality/zero checks mod q then pay for
  carries and range checks once, instead of a traditional mod after every
  operation (the pre-NOPE baseline, :meth:`LimbInt.assert_zero_mod_naive`
  territory — see :func:`naive_mod_reduce`).

A :class:`LimbInt` tracks, per limb: the LC, a static signed bound interval
(for soundness: every comparison of field values to integers requires total
magnitudes ``< p/2``), and the exact signed integer value (for witness
generation — field evaluation cannot recover the sign).
"""

from ..errors import SynthesisError
from .bits import bit_decompose

#: Soundness margin: all tracked integer magnitudes must stay below
#: ``field.p >> MARGIN_BITS`` so field equalities imply integer equalities.
MARGIN_BITS = 2


class LimbInt:
    """A (possibly redundant, possibly signed) big integer in limb form."""

    __slots__ = ("limbs", "limb_bits", "bounds", "ints", "bit_wires")

    def __init__(self, limbs, limb_bits, bounds, ints):
        if not (len(limbs) == len(bounds) == len(ints)):
            raise SynthesisError("LimbInt component length mismatch")
        self.limbs = limbs  # list of LCs
        self.limb_bits = limb_bits
        self.bounds = bounds  # list of (lo, hi) signed integer bounds
        self.ints = ints  # list of exact signed limb values (witness side)
        self.bit_wires = None  # set by alloc(): the range-check bit wires

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def alloc(cs, value, limb_bits, num_limbs, label="bigint"):
        """Allocate a canonical (range-checked) big integer witness."""
        if value < 0 or value.bit_length() > limb_bits * num_limbs:
            raise SynthesisError(
                "%s: value %d does not fit %d limbs of %d bits"
                % (label, value, num_limbs, limb_bits)
            )
        base = 1 << limb_bits
        limbs, bounds, ints = [], [], []
        all_bits = []
        v = value
        for i in range(num_limbs):
            limb_val = v % base
            v //= base
            lc = cs.alloc(limb_val, "%s[%d]" % (label, i))
            all_bits.extend(
                bit_decompose(cs, lc, limb_bits, "%s[%d].rc" % (label, i))
            )
            limbs.append(lc)
            bounds.append((0, base - 1))
            ints.append(limb_val)
        out = LimbInt(limbs, limb_bits, bounds, ints)
        out.bit_wires = all_bits  # little-endian across the whole value
        return out

    @staticmethod
    def from_const(cs, value, limb_bits, num_limbs=None):
        """A compile-time constant in limb form (free)."""
        if value < 0:
            raise SynthesisError("constants must be non-negative")
        base = 1 << limb_bits
        if num_limbs is None:
            num_limbs = max(1, (value.bit_length() + limb_bits - 1) // limb_bits)
        limbs, bounds, ints = [], [], []
        v = value
        for _ in range(num_limbs):
            limb_val = v % base
            v //= base
            limbs.append(cs.constant(limb_val))
            bounds.append((limb_val, limb_val))
            ints.append(limb_val)
        if v:
            raise SynthesisError("constant does not fit limbs")
        return LimbInt(limbs, limb_bits, bounds, ints)

    @staticmethod
    def from_bytes_be(cs, byte_lcs, byte_vals, limb_bits):
        """Pack big-endian byte wires into limbs (free linear combos).

        The bytes must already be range-checked by the caller (they come
        from record parsing which range-checks everything once).
        """
        if limb_bits % 8:
            raise SynthesisError("limb_bits must be a multiple of 8")
        if len(byte_lcs) != len(byte_vals):
            raise SynthesisError("byte wires/values length mismatch")
        bpl = limb_bits // 8
        limbs, bounds, ints = [], [], []
        # low limb comes from the last bytes
        rev = list(zip(byte_lcs, byte_vals))[::-1]
        for start in range(0, len(rev), bpl):
            chunk = rev[start : start + bpl]
            lc = None
            val = 0
            for k, (b_lc, b_val) in enumerate(chunk):
                term = b_lc * (1 << (8 * k))
                lc = term if lc is None else lc + term
                val += b_val << (8 * k)
            limbs.append(lc)
            bounds.append((0, (1 << (8 * len(chunk))) - 1))
            ints.append(val)
        return LimbInt(limbs, limb_bits, bounds, ints)

    # -- inspection -----------------------------------------------------------

    @property
    def num_limbs(self):
        return len(self.limbs)

    def int_value(self):
        """Exact signed integer value (witness side)."""
        return sum(v << (self.limb_bits * i) for i, v in enumerate(self.ints))

    def bound_interval(self):
        """Static (lo, hi) bounds on the integer value."""
        lo = sum(b[0] << (self.limb_bits * i) for i, b in enumerate(self.bounds))
        hi = sum(b[1] << (self.limb_bits * i) for i, b in enumerate(self.bounds))
        return lo, hi

    def max_magnitude(self):
        lo, hi = self.bound_interval()
        return max(abs(lo), abs(hi))

    def max_limb_magnitude(self):
        return max(max(abs(lo), abs(hi)) for lo, hi in self.bounds)

    def _check_margin(self, cs, context):
        # Soundness is argued per carry group (see carry_groups, which sizes
        # the groups to the bounds), so only per-limb magnitudes must stay
        # far below p here.
        if self.max_limb_magnitude() >= (cs.field.p >> MARGIN_BITS):
            raise SynthesisError(
                "%s: bounds overflow the field soundness margin; "
                "normalize() first" % context
            )

    # -- arithmetic (free or cheap) -------------------------------------------

    def _aligned(self, other):
        if self.limb_bits != other.limb_bits:
            raise SynthesisError("mixed limb sizes")
        n = max(self.num_limbs, other.num_limbs)
        return n

    def __add__(self, other):
        n = self._aligned(other)
        zero = None
        limbs, bounds, ints = [], [], []
        for i in range(n):
            a_lc = self.limbs[i] if i < self.num_limbs else None
            b_lc = other.limbs[i] if i < other.num_limbs else None
            a_b = self.bounds[i] if i < self.num_limbs else (0, 0)
            b_b = other.bounds[i] if i < other.num_limbs else (0, 0)
            a_v = self.ints[i] if i < self.num_limbs else 0
            b_v = other.ints[i] if i < other.num_limbs else 0
            if a_lc is None:
                lc = b_lc
            elif b_lc is None:
                lc = a_lc
            else:
                lc = a_lc + b_lc
            limbs.append(lc)
            bounds.append((a_b[0] + b_b[0], a_b[1] + b_b[1]))
            ints.append(a_v + b_v)
        return LimbInt(limbs, self.limb_bits, bounds, ints)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c):
        """Multiply by a small signed constant (free)."""
        bounds = [
            (min(lo * c, hi * c), max(lo * c, hi * c)) for lo, hi in self.bounds
        ]
        return LimbInt(
            [lc * c for lc in self.limbs],
            self.limb_bits,
            bounds,
            [v * c for v in self.ints],
        )

    def shifted_limbs(self, k):
        """Multiply by b^k (limb shift, free)."""
        zero_lc = self.limbs[0] * 0
        return LimbInt(
            [zero_lc] * k + list(self.limbs),
            self.limb_bits,
            [(0, 0)] * k + list(self.bounds),
            [0] * k + list(self.ints),
        )

    def mul(self, cs, other, label="bmul"):
        """Limb-convolution product: one constraint per limb pair."""
        n = self._aligned(other)
        self._check_margin(cs, label)
        other._check_margin(cs, label)
        out_n = self.num_limbs + other.num_limbs - 1
        limbs = [None] * out_n
        bounds = [(0, 0)] * out_n
        ints = [0] * out_n
        for i in range(self.num_limbs):
            for j in range(other.num_limbs):
                prod = cs.mul(
                    self.limbs[i], other.limbs[j], "%s[%d,%d]" % (label, i, j)
                )
                k = i + j
                limbs[k] = prod if limbs[k] is None else limbs[k] + prod
                lo1, hi1 = self.bounds[i]
                lo2, hi2 = other.bounds[j]
                candidates = [lo1 * lo2, lo1 * hi2, hi1 * lo2, hi1 * hi2]
                bounds[k] = (
                    bounds[k][0] + min(candidates),
                    bounds[k][1] + max(candidates),
                )
                ints[k] += self.ints[i] * other.ints[j]
        limbs = [cs.constant(0) if lc is None else lc for lc in limbs]
        out = LimbInt(limbs, self.limb_bits, bounds, ints)
        out._check_margin(cs, label + " output")
        return out

    def mul_const_bigint(self, cs, const_value, num_limbs=None):
        """Multiply by a compile-time big constant: free (linear combos)."""
        const = LimbInt.from_const(cs, const_value, self.limb_bits, num_limbs)
        out_n = self.num_limbs + const.num_limbs - 1
        limbs = [None] * out_n
        bounds = [(0, 0)] * out_n
        ints = [0] * out_n
        for i in range(self.num_limbs):
            ci = self.ints[i]
            lo1, hi1 = self.bounds[i]
            for j in range(const.num_limbs):
                cval = const.ints[j]
                if cval == 0:
                    continue
                k = i + j
                term = self.limbs[i] * cval
                limbs[k] = term if limbs[k] is None else limbs[k] + term
                bounds[k] = (
                    bounds[k][0] + min(lo1 * cval, hi1 * cval),
                    bounds[k][1] + max(lo1 * cval, hi1 * cval),
                )
                ints[k] += ci * cval
        limbs = [cs.constant(0) if lc is None else lc for lc in limbs]
        return LimbInt(limbs, self.limb_bits, bounds, ints)

    # -- NOPE's matrix-M reduction (free) ---------------------------------------

    def reduce_mod(self, cs, modulus, out_limbs=None):
        """Collapse high limbs via the constant matrix M (§5.1): free.

        Row i of M is the canonical limb representation of ``b^i mod q``.
        The result has ``out_limbs`` limbs and the same value mod q, in
        redundant form (limb bounds grow; track them).
        """
        if out_limbs is None:
            out_limbs = (modulus.bit_length() + self.limb_bits - 1) // self.limb_bits
        if self.num_limbs <= out_limbs:
            return self
        base = 1 << self.limb_bits
        new_limbs = [None] * out_limbs
        new_bounds = [(0, 0)] * out_limbs
        new_ints = [0] * out_limbs
        for i in range(self.num_limbs):
            row_val = pow(base, i, modulus)
            row = []
            v = row_val
            for _ in range(out_limbs):
                row.append(v % base)
                v //= base
            lo_i, hi_i = self.bounds[i]
            for j in range(out_limbs):
                m = row[j]
                if m == 0:
                    continue
                term = self.limbs[i] * m
                new_limbs[j] = term if new_limbs[j] is None else new_limbs[j] + term
                new_bounds[j] = (
                    new_bounds[j][0] + min(lo_i * m, hi_i * m),
                    new_bounds[j][1] + max(lo_i * m, hi_i * m),
                )
                new_ints[j] += self.ints[i] * m
        new_limbs = [cs.constant(0) if lc is None else lc for lc in new_limbs]
        out = LimbInt(new_limbs, self.limb_bits, new_bounds, new_ints)
        out._check_margin(cs, "reduce_mod output")
        return out

    # -- checks (these are where constraints are paid) ---------------------------

    def assert_equal_int(self, cs, other, label="beq"):
        """Enforce exact integer equality via grouped carry propagation.

        The difference limbs are packed into groups ``T = c_in + sum d_t b^t``
        as wide as the static bounds allow (:func:`carry_groups`); each group
        but the last pays one carry wire, its definition row and its range
        check, and the last group's ``T`` must be exactly zero.
        """
        n = self._aligned(other)
        self._check_margin(cs, label)
        other._check_margin(cs, label)
        if n == 1:
            # Single-limb fast path: the difference is directly bounded well
            # below the field, so field equality IS integer equality.
            if self.ints[0] != other.ints[0]:
                raise SynthesisError("%s: integers differ" % label)
            cs.enforce_zero(self.limbs[0] - other.limbs[0], label + ".eq1")
            return
        diff = self - other
        bits = self.limb_bits
        carry_lc = None
        carry_int = 0
        for j, (start, stop, carry_lo, span_bits) in enumerate(
            carry_groups(diff.bounds, bits, cs.field.p)
        ):
            t_lc = carry_lc
            for t, lc in enumerate(diff.limbs[start:stop]):
                term = lc * (1 << (bits * t))
                t_lc = term if t_lc is None else t_lc + term
            t_int = carry_int + sum(
                v << (bits * t) for t, v in enumerate(diff.ints[start:stop])
            )
            if span_bits is None:
                # the last group: the running remainder must be exactly zero
                if t_int != 0:
                    raise SynthesisError("%s: integers differ (total)" % label)
                cs.enforce_zero(t_lc, label + ".final")
                return
            width = bits * (stop - start)
            if t_int % (1 << width):
                raise SynthesisError(
                    "%s: integers differ (limbs %d..%d)" % (label, start, stop - 1)
                )
            carry_int = t_int >> width
            # the carry lives on its own wire, shifted into [0, 2^span_bits):
            # its definition row is c * b^g = T, and the next group reads the
            # wire, so no linear combination snowballs along the chain
            carry_wire = cs.alloc(carry_int - carry_lo, "%s.c%d" % (label, j))
            inv_bg = pow(1 << width, -1, cs.field.p)
            cs.enforce_equal(
                carry_wire, t_lc * inv_bg - carry_lo, "%s.cdef%d" % (label, j)
            )
            bit_decompose(cs, carry_wire, span_bits, "%s.crc%d" % (label, j))
            carry_lc = carry_wire + carry_lo

    def assert_zero_mod(self, cs, modulus, label="bzeromod"):
        """Enforce value = 0 (mod q): witness the quotient k, check value = k*q.

        Costs the quotient's range checks plus one carry chain.
        """
        self._check_margin(cs, label)
        lo, hi = self.bound_interval()
        value = self.int_value()
        if value % modulus != 0:
            raise SynthesisError("%s: value not divisible by modulus" % label)
        k_int = value // modulus
        k_lo = -((-lo) // modulus) - 1 if lo < 0 else lo // modulus - 1
        k_hi = hi // modulus + 1
        span = k_hi - k_lo
        if self.num_limbs == 1:
            # Single-limb fast path: allocate k as one exact-bit-width wire;
            # k*q stays a single (huge-bounded but in-margin) limb and the
            # equality is a single field constraint.
            span_bits = span.bit_length()
            k_wire = cs.alloc(k_int - k_lo, label + ".k")
            bit_decompose(cs, k_wire, span_bits, label + ".krc")
            kq_lc = (k_wire + k_lo) * modulus
            kq = LimbInt(
                [kq_lc],
                self.limb_bits,
                [(k_lo * modulus, k_hi * modulus)],
                [k_int * modulus],
            )
            if self.max_magnitude() + kq.max_magnitude() >= (
                cs.field.p >> MARGIN_BITS
            ):
                raise SynthesisError("%s: fast path overflow" % label)
            self.assert_equal_int(cs, kq, label + ".eq")
            return
        # allocate k shifted into the non-negative range
        k_limbs = max(1, (span.bit_length() + self.limb_bits - 1) // self.limb_bits)
        shifted = LimbInt.alloc(
            cs, k_int - k_lo, self.limb_bits, k_limbs, label + ".k"
        )
        # k*q = (shifted + k_lo)*q = shifted*q + k_lo*q, all free (q const)
        kq = shifted.mul_const_bigint(cs, modulus)
        if k_lo >= 0:
            kq = kq + LimbInt.from_const(
                cs, k_lo * modulus, self.limb_bits
            )
        else:
            kq = kq - LimbInt.from_const(
                cs, -k_lo * modulus, self.limb_bits
            )
        self.assert_equal_int(cs, kq, label + ".eq")

    def assert_equal_mod(self, cs, other, modulus, label="beqmod"):
        """Enforce self = other (mod q)."""
        (self - other).assert_zero_mod(cs, modulus, label)

    def normalize(self, cs, modulus, label="norm", assert_lt_modulus=False):
        """Re-express as canonical limbs of (value mod q): the 'clean' op.

        Allocates fresh range-checked limbs and proves congruence.  Use
        when redundant bounds approach the field margin.
        """
        value = self.int_value() % modulus
        num = (modulus.bit_length() + self.limb_bits - 1) // self.limb_bits
        fresh = LimbInt.alloc(cs, value, self.limb_bits, num, label)
        fresh.assert_equal_mod(cs, self, modulus, label + ".cong")
        if assert_lt_modulus:
            fresh.assert_lt_const(cs, modulus, label + ".lt")
        return fresh

    def assert_lt_const(self, cs, bound, label="blt"):
        """Enforce 0 <= value < bound for a canonical-limbed integer."""
        for lo, hi in self.bounds:
            if lo < 0 or hi >= (1 << self.limb_bits):
                raise SynthesisError(
                    "%s: assert_lt_const requires canonical limbs" % label
                )
        value = self.int_value()
        if not 0 <= value < bound:
            raise SynthesisError("%s: witness out of range" % label)
        num = self.num_limbs
        diff = LimbInt.alloc(
            cs, bound - 1 - value, self.limb_bits, num, label + ".diff"
        )
        total = self + diff
        total.assert_equal_int(
            cs,
            LimbInt.from_const(cs, bound - 1, self.limb_bits, total.num_limbs),
            label + ".sum",
        )


def carry_groups(bounds, limb_bits, p):
    """Split difference limbs into carry groups, from static bounds alone.

    Walks the limbs low to high and grows a group ``[start, stop)`` while
    both of these stay below ``p >> MARGIN_BITS``:

    (a) every value of the running sum ``T = c_in + sum d_t b^t``, where
        ``c_in`` ranges over what the previous carry's range check admits;
    (b) ``b^g`` times every carry the group's own range check admits.

    Then the field identity ``c * b^g = T`` of a group's carry row spans
    less than ``p`` and implies the integer identity, and the last group's
    ``T = 0`` row does too (it has no carry, so only (a) applies).  Rule
    (b) stops a run of zero-bounded limbs from widening a group until
    ``b^g`` passes the field.  No witness value enters the grouping.

    Yields ``(start, stop, carry_lo, span_bits)``: the carry is range
    checked as ``carry - carry_lo`` in ``[0, 2^span_bits)``.  The last
    group has ``carry_lo = span_bits = None``.
    """
    limit = p >> MARGIN_BITS
    n = len(bounds)
    start = 0
    c_lo = c_hi = 0
    while True:
        chosen = None
        t_lo, t_hi = c_lo, c_hi
        for stop in range(start + 1, n + 1):
            shift = limb_bits * (stop - 1 - start)
            t_lo += bounds[stop - 1][0] << shift
            t_hi += bounds[stop - 1][1] << shift
            if max(-t_lo, t_hi) >= limit:  # rule (a)
                break
            if stop == n:
                chosen = (stop, None, None)
                break
            width = limb_bits * (stop - start)
            lo = t_lo >> width  # floor
            hi = -((-t_hi) >> width)  # ceil
            span_bits = (hi - lo).bit_length()
            top = lo + (1 << span_bits) - 1
            if max(-lo, top) << width >= limit:  # rule (b)
                break
            chosen = (stop, lo, span_bits)
        if chosen is None:
            raise SynthesisError(
                "carry group at limb %d overflows the field soundness margin"
                % start
            )
        stop, lo, span_bits = chosen
        yield start, stop, lo, span_bits
        if span_bits is None:
            return
        start = stop
        c_lo, c_hi = lo, lo + (1 << span_bits) - 1


def naive_mod_reduce(cs, x, modulus, label="naivemod"):
    """The pre-NOPE mod operation, for the ablation baseline (§5.1).

    After every multiplication the classical approach proves
    ``x = k*q + r`` with a *canonical* r < q — paying the quotient range
    check, the remainder range check, the r < q comparison, and a carry
    chain, every time.  NOPE replaces almost all of these with the free
    matrix-M reduction.  Returns canonical r.
    """
    r = x.normalize(cs, modulus, label, assert_lt_modulus=True)
    return r
