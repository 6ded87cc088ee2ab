"""Optimal ate pairing on BN254, computed on the sextic twist.

There is one Miller loop, :func:`multi_miller`.  G2 points never leave the
twist: :func:`_g2_lines` doubles and adds them in homogeneous projective
Fq2 coordinates on raw ``(c0, c1)`` ints, with no inversion, and yields
each step's line as three Fq2 coefficients ``(c0, c1, c2)`` — the affine
line scaled by an Fq2 factor.  (Affine steps pay an Fq2 inversion each,
even when batched across raw pairs, and measured slower; see DESIGN.md,
"One Miller loop, on the twist".)  Evaluated at a G1 point ``(xt, yt)`` and
untwisted, a line is the Fq12 element

    c0 yt + (c1 xt) w + c2 v w

with only three nonzero Fq2 slots (0, 3, 4).  Lines meet the accumulator
through the sparse product :func:`repro.field.extension._mul12_by_034`,
and the accumulator stays a flat 12-tuple of ints for the whole loop.  The
Fq2 factors lie in a proper subfield of Fq12, so the final exponentiation
removes them: GT values are those of the affine loop.

Fixed G2 points (a verifying key's beta/gamma/delta) can be *prepared*:
:func:`prepare_g2` runs the same twist steps once and stores the lines, so
a later loop against that point only evaluates them.  Every pairing entry
point accepts a :class:`G2Prepared` wherever it accepts a ``G2Point``, and
a prepared point gives the same Miller value as the raw one.  Points of G2
never meet a vertical line or a degenerate chord in this schedule; a point
outside G2 that does (callers reject those first) raises
:class:`CurveError`.

The final exponentiation splits into the easy part
``f^((p^6 - 1)(p^2 + 1))`` — conjugation, one inversion, one Frobenius —
and the hard part ``f^((p^4 - p^2 + 1) / r)``.  The hard part uses the
exact base-p decomposition of Scott et al., "On the final exponentiation
for calculating pairings on ordinary elliptic curves":

    (p^4 - p^2 + 1) / r = l0 + l1 p + l2 p^2 + l3 p^3,
    l3 = 1,  l2 = 6x^2 + 1,
    l1 = -36x^3 - 18x^2 - 12x + 1,  l0 = -36x^3 - 30x^2 - 18x - 2,

evaluated as three 63-bit ``f^x`` ladders, Frobenius maps and a short
addition chain.  After the easy part ``f`` is unitary (it lies in the
cyclotomic subgroup), so conjugation is its inverse and every squaring is
a Granger–Scott cyclotomic squaring.  The exponent is exact, not a
multiple, so every GT value is the same field element a plain ``pow`` by
the hard exponent would give.
"""

from ..errors import CurveError
from ..field.extension import (
    BN254_P,
    Fq12,
    _cyc_sqr12,
    _mul12,
    _mul12_by_034,
    _sqr12,
)
from ..telemetry.trace import span as _span
from .bn254 import ATE_LOOP_COUNT, B2, BN_X, _PSI_X, _PSI_Y, _f2mul, _f2sqr

_P = BN254_P

#: The loop's line slots in order, True where ``f`` is squared first: a
#: doubling slot per bit of 6x + 2 below the top one, an addition slot
#: after it on set bits, then the two Frobenius-tail additions.
_SQUARE_FIRST = tuple(
    square
    for i in range(ATE_LOOP_COUNT.bit_length() - 2, -1, -1)
    for square in ((True, False) if ATE_LOOP_COUNT >> i & 1 else (True,))
) + (False, False)

_ONE = (1,) + (0,) * 11

#: 3b' for the doubling step, as a raw Fq2 pair.
_B3 = (3 * B2.c0 % _P, 3 * B2.c1 % _P)


def _double(r):
    """Tangent line at ``r`` and ``2r``, homogeneous projective coordinates.

    ``r`` is ``(X0, X1, Y0, Y1, Z0, Z1)`` with x = X/Z, y = Y/Z.  The line
    is the affine tangent scaled by 2YZ (Costello–Lange–Naehrig), and the
    point is scaled by 4 so no halving is needed.
    """
    x0, x1, y0, y1, z0, z1 = r
    a0, a1 = _f2sqr(x0, x1)
    b0, b1 = _f2sqr(y0, y1)
    c0, c1 = _f2sqr(z0, z1)
    e0, e1 = _f2mul(_B3[0], _B3[1], c0, c1)  # 3b'Z^2
    f0, f1 = 3 * e0, 3 * e1
    h0, h1 = _f2mul(2 * y0, 2 * y1, z0, z1)  # 2YZ
    xy0, xy1 = _f2mul(x0, x1, y0, y1)
    nx0, nx1 = _f2mul(2 * xy0, 2 * xy1, b0 - f0, b1 - f1)
    s0, s1 = _f2sqr(b0 + f0, b1 + f1)
    t0, t1 = _f2sqr(e0, e1)
    nz0, nz1 = _f2mul(4 * b0, 4 * b1, h0, h1)
    line = (-h0 % _P, -h1 % _P, 3 * a0 % _P, 3 * a1 % _P,
            (e0 - b0) % _P, (e1 - b1) % _P)
    return line, (nx0, nx1, (s0 - 12 * t0) % _P, (s1 - 12 * t1) % _P, nz0, nz1)


def _add(r, q):
    """Chord through ``r`` and the affine ``q``, and ``r + q``.

    The line is the affine chord scaled by ``-(X - qx Z)``.  A zero scale
    means ``r == +-q``, which never happens for points of G2 in this
    schedule.
    """
    x0, x1, y0, y1, z0, z1 = r
    qx0, qx1, qy0, qy1 = q
    t0, t1 = _f2mul(qy0, qy1, z0, z1)
    th0, th1 = (y0 - t0) % _P, (y1 - t1) % _P  # theta = Y - qy Z
    t0, t1 = _f2mul(qx0, qx1, z0, z1)
    la0, la1 = (x0 - t0) % _P, (x1 - t1) % _P  # lambda = X - qx Z
    if not (la0 or la1):
        raise CurveError("degenerate Miller-loop step (point outside G2)")
    c0, c1 = _f2sqr(th0, th1)
    d0, d1 = _f2sqr(la0, la1)
    e0, e1 = _f2mul(la0, la1, d0, d1)
    f0, f1 = _f2mul(z0, z1, c0, c1)
    g0, g1 = _f2mul(x0, x1, d0, d1)
    h0, h1 = e0 + f0 - 2 * g0, e1 + f1 - 2 * g1
    nx0, nx1 = _f2mul(la0, la1, h0, h1)
    s0, s1 = _f2mul(th0, th1, g0 - h0, g1 - h1)
    t0, t1 = _f2mul(e0, e1, y0, y1)
    nz0, nz1 = _f2mul(z0, z1, e0, e1)
    j0, j1 = _f2mul(th0, th1, qx0, qx1)
    t2, t3 = _f2mul(la0, la1, qy0, qy1)
    line = (la0, la1, -th0 % _P, -th1 % _P, (j0 - t2) % _P, (j1 - t3) % _P)
    return line, (nx0, nx1, (s0 - t0) % _P, (s1 - t1) % _P, nz0, nz1)


def _psi(q):
    """The untwist-Frobenius-twist map on a raw affine twist point."""
    x0, x1, y0, y1 = q
    return _f2mul(x0, -x1, *_PSI_X) + _f2mul(y0, -y1, *_PSI_Y)


def _g2_lines(q):
    """Yield the Miller-loop lines of the affine twist point ``q`` in order.

    The schedule is :data:`_SQUARE_FIRST`'s: a tangent per loop bit, a
    chord through ``q`` on set bits, then the optimal-ate tail chords
    through ``psi(q)`` and ``-psi^2(q)``.  A line ``(c0, c1, c2)`` (three
    raw Fq2 pairs) evaluates at a G1 point to ``c0 yt + c1 xt w + c2 v w``.
    """
    r = q + (1, 0)
    for square in _SQUARE_FIRST[:-2]:
        line, r = _double(r) if square else _add(r, q)
        yield line
    q1 = _psi(q)
    line, r = _add(r, q1)
    yield line
    x0, x1, y0, y1 = _psi(q1)
    yield _add(r, (x0, x1, -y0 % _P, -y1 % _P))[0]


def _raw_point(g2_point):
    return (g2_point.x.c0, g2_point.x.c1, g2_point.y.c0, g2_point.y.c1)


def _mul_line(f, line, xt, yt):
    """``f`` times ``line`` evaluated at the G1 point ``(xt, yt)``."""
    a0, a1, b0, b1, c0, c1 = line
    return _mul12_by_034(
        f, a0 * yt % _P, a1 * yt % _P, b0 * xt % _P, b1 * xt % _P, c0, c1
    )


class G2Prepared:
    """A G2 point with its Miller-loop lines precomputed.

    ``coeffs`` is the list of lines :func:`_g2_lines` yields for the point,
    in the order the Miller loop consumes them; ``None`` for the point at
    infinity, whose pairing is trivially one.
    """

    __slots__ = ("point", "coeffs")

    def __init__(self, point, coeffs):
        self.point = point
        self.coeffs = coeffs

    def __repr__(self):
        return "G2Prepared(%r)" % (self.point,)


def prepare_g2(g2_point):
    """Precompute the Miller-loop lines for a fixed G2 point."""
    if isinstance(g2_point, G2Prepared):
        return g2_point
    if g2_point.is_infinity:
        return G2Prepared(g2_point, None)
    return G2Prepared(g2_point, list(_g2_lines(_raw_point(g2_point))))


def multi_miller(pairs):
    """Product of Miller loops over (g1, g2) pairs (no final exp).

    All pairs share one accumulator, so the squaring each iteration is paid
    once for the whole product.  G2 entries may be ``G2Point`` or
    :class:`G2Prepared`, mixed freely; a raw point derives its lines as the
    loop goes, a prepared one replays them.
    """
    evals = []  # (xt, yt, line iterator)
    for g1_point, g2_point in pairs:
        if g1_point.is_infinity:
            continue
        if isinstance(g2_point, G2Prepared):
            if g2_point.coeffs is None:
                continue
            lines = iter(g2_point.coeffs)
        elif g2_point.is_infinity:
            continue
        else:
            lines = _g2_lines(_raw_point(g2_point))
        evals.append((g1_point.x, g1_point.y, lines))
    if not evals:
        return Fq12.one()
    f = _ONE
    for square in _SQUARE_FIRST:
        if square:
            f = _sqr12(f)
        for xt, yt, lines in evals:
            f = _mul_line(f, next(lines), xt, yt)
    return Fq12.from_raw(f)


def final_exponentiation(f):
    """Map a Miller-loop output into the r-th roots of unity."""
    if f.is_zero():
        raise CurveError("final exponentiation of zero")
    # Easy part: f^((p^6 - 1)(p^2 + 1)).
    t = f.conjugate() * f.inverse()
    t = t.frobenius_n(2) * t
    return _hard_part(t)


def _pow_x(f):
    """f^x for the BN parameter x and a unitary ``f`` (63-bit ladder)."""
    base = f.raw()
    acc = base
    for i in range(BN_X.bit_length() - 2, -1, -1):
        acc = _cyc_sqr12(acc)
        if BN_X >> i & 1:
            acc = _mul12(acc, base)
    return Fq12.from_raw(acc)


def _hard_part(f):
    """f^((p^4 - p^2 + 1) / r) for a unitary ``f`` (Scott et al.'s chain).

    With a = f^x, b = f^(x^2), c = f^(x^3) the chain below multiplies out
    to f^(l0 + l1 p + l2 p^2 + l3 p^3) exactly.
    """
    a = _pow_x(f)
    b = _pow_x(a)
    c = _pow_x(b)
    y0 = f.frobenius() * f.frobenius_n(2) * f.frobenius_n(3)
    y1 = f.conjugate()
    y2 = b.frobenius_n(2)
    y3 = a.frobenius().conjugate()
    y4 = (a * b.frobenius()).conjugate()
    y5 = b.conjugate()
    y6 = (c * c.frobenius()).conjugate()
    t0 = y6.cyclotomic_square() * y4 * y5
    t1 = y3 * y5 * t0
    t0 = t0 * y2
    t1 = (t1.cyclotomic_square() * t0).cyclotomic_square()
    t0 = t1 * y1
    t1 = t1 * y0
    return t0.cyclotomic_square() * t1


def multi_pairing(pairs):
    """prod e(P_i, Q_i) with a single shared final exponentiation."""
    with _span("pairing.miller", pairs=len(pairs)):
        f = multi_miller(pairs)
    with _span("pairing.final_exp"):
        return final_exponentiation(f)


def pairing(g1_point, g2_point):
    """e(P, Q) for P in G1 (affine Point), Q in G2 (G2Point or G2Prepared)."""
    return multi_pairing([(g1_point, g2_point)])


def pairing_check(pairs, gt_factor=None):
    """Whether prod e(P_i, Q_i) * gt_factor == 1.

    The Groth16 verification predicate; ``gt_factor`` lets a caller fold in
    a cached GT element (e.g. a prepared key's ``e(alpha, beta)``) without
    paying a fourth Miller loop.
    """
    f = multi_pairing(pairs)
    if gt_factor is not None:
        f = f * gt_factor
    return f.is_one()
