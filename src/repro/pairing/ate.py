"""Optimal ate pairing on BN254.

The single-pair Miller loop follows the classical formulation over E(Fq12):
the G2 input is untwisted into Fq12, the G1 input is embedded, and line
functions are evaluated with affine arithmetic.  The multi-pair loop
(:func:`multi_miller`) instead keeps raw G2 points on the sextic twist —
doublings, additions, and the batched slope inversions all stay in Fq2 —
and lifts only the line values into Fq12, sparsely, by slot placement
(see :func:`_twist_line_value`).  Both formulations produce identical
field elements; the untwisted path doubles as a correctness cross-check.

The final exponentiation splits into the easy part
``f^((p^6 - 1)(p^2 + 1))`` — conjugation, one inversion, one Frobenius —
and the hard part ``f^((p^4 - p^2 + 1) / r)``.  The hard part uses the
exact base-p decomposition of Scott et al., "On the final exponentiation
for calculating pairings on ordinary elliptic curves":

    (p^4 - p^2 + 1) / r = l0 + l1 p + l2 p^2 + l3 p^3,
    l3 = 1,  l2 = 6x^2 + 1,
    l1 = -36x^3 - 18x^2 - 12x + 1,  l0 = -36x^3 - 30x^2 - 18x - 2,

evaluated as three 63-bit ``f^x`` ladders, Frobenius maps and a short
addition chain.  After the easy part ``f`` is unitary, so conjugation is
its inverse.  The exponent is exact, not a multiple, so every GT value is
the same field element a plain ``pow`` by the hard exponent would give.

Fixed G2 points (a verifying key's beta/gamma/delta) can be *prepared*:
:func:`prepare_g2` runs the Miller loop once on the G2 side only and stores
the line coefficients, so every later pairing against that point replays
stored lines instead of re-deriving them — no point doublings, additions,
or Fq12 inversions on the hot path.  Every pairing entry point below
accepts a :class:`G2Prepared` wherever it accepts a ``G2Point``.
"""

from ..errors import CurveError
from ..field.extension import (
    BN254_P,
    Fq2,
    Fq6,
    Fq12,
    fq2_raw,
    fq6_raw,
    fq12_raw,
)
from ..telemetry.trace import span as _span
from .bn254 import (
    ATE_LOOP_COUNT,
    BN_X,
    embed_g1,
    twist_frobenius,
    untwist,
)


def _line_coeffs(p1, p2):
    """Coefficients (a, b) of the line through p1, p2 on E(Fq12).

    A sloped line evaluates at t as ``a*x_t - y_t + b``; a vertical line
    (p2 == -p1) has ``a = None`` and evaluates as ``x_t + b``.
    """
    x1, y1 = p1
    x2, y2 = p2
    if x1 != x2:
        lam = (y2 - y1) * (x2 - x1).inverse()
    elif y1 == y2:
        lam = x1.square() * 3 * (y1 + y1).inverse()
    else:
        return (None, -x1)
    return (lam, y1 - lam * x1)


def _eval_line(coeffs, t):
    """Evaluate stored line coefficients at the embedded G1 point t."""
    a, b = coeffs
    xt, yt = t
    if a is None:
        return xt + b
    return a * xt - yt + b


def _line(p1, p2, t):
    """Evaluate the line through p1, p2 (E(Fq12) points) at t."""
    return _eval_line(_line_coeffs(p1, p2), t)


def _double_step(pt):
    """(line coefficients, doubled point) — the slope is computed once."""
    x, y = pt
    lam = x.square() * 3 * (y + y).inverse()
    x3 = lam.square() - x - x
    return (lam, y - lam * x), (x3, lam * (x - x3) - y)


def _add_step(pt, q):
    """(line coefficients, pt + q) — the slope is computed once."""
    x1, y1 = pt
    x2, y2 = q
    if x1 == x2 and y1 == y2:
        return _double_step(pt)
    lam = (y2 - y1) * (x2 - x1).inverse()
    x3 = lam.square() - x1 - x2
    return (lam, y1 - lam * x1), (x3, lam * (x1 - x3) - y1)


def _batch_inverse(elems):
    """Montgomery batch inversion (3(n-1) muls + one inverse), any field.

    Every slope in a Miller-loop step needs one tower inversion, which
    bottoms out in a full Fermat inverse in Fq — by far the most expensive
    single field operation.  A batch of raw pairs (the batched verifier's
    per-proof ``(z_i * -A_i, B_i)`` terms) advances in lockstep, so each
    shared-loop iteration can pay ONE inversion for all pairs.  Works over
    Fq2 (twist coordinates) and Fq12 alike — only ``*`` and ``inverse``.
    """
    n = len(elems)
    if n == 1:
        return [elems[0].inverse()]
    prefix = [elems[0]]
    for e in elems[1:]:
        prefix.append(prefix[-1] * e)
    inv_acc = prefix[-1].inverse()
    out = [None] * n
    for i in range(n - 1, 0, -1):
        out[i] = inv_acc * prefix[i - 1]
        inv_acc = inv_acc * elems[i]
    out[0] = inv_acc
    return out


def _double_steps(pts):
    """Batched :func:`_double_step` over a list of points."""
    invs = _batch_inverse([y + y for _, y in pts])
    out = []
    for (x, y), inv_2y in zip(pts, invs):
        lam = x.square() * 3 * inv_2y
        x3 = lam.square() - x - x
        out.append(((lam, y - lam * x), (x3, lam * (x - x3) - y)))
    return out


def _add_steps(pairs):
    """Batched :func:`_add_step` over a list of (pt, q) pairs."""
    denoms = []
    for (x1, y1), (x2, y2) in pairs:
        if x1 == x2 and y1 == y2:
            denoms.append(y1 + y1)
        else:
            denoms.append(x2 - x1)
    invs = _batch_inverse(denoms)
    out = []
    for ((x1, y1), (x2, y2)), inv_d in zip(pairs, invs):
        if x1 == x2 and y1 == y2:
            lam = x1.square() * 3 * inv_d
        else:
            lam = (y2 - y1) * inv_d
        x3 = lam.square() - x1 - x2
        out.append(((lam, y1 - lam * x1), (x3, lam * (x1 - x3) - y1)))
    return out


def _line_coeffs_batch(pairs):
    """Batched :func:`_line_coeffs`: one shared inversion for all slopes."""
    denoms = []
    idx = []
    coeffs = [None] * len(pairs)
    for i, ((x1, y1), (x2, y2)) in enumerate(pairs):
        if x1 != x2:
            denoms.append(x2 - x1)
            idx.append(i)
        elif y1 == y2:
            denoms.append(y1 + y1)
            idx.append(i)
        else:
            coeffs[i] = (None, -x1)
    if denoms:
        for i, inv_d in zip(idx, _batch_inverse(denoms)):
            (x1, y1), (x2, y2) = pairs[i]
            if x1 != x2:
                lam = (y2 - y1) * inv_d
            else:
                lam = x1.square() * 3 * inv_d
            coeffs[i] = (lam, y1 - lam * x1)
    return coeffs


def _twist_line_value(coeffs, t):
    """Evaluate twist-coordinate line coefficients at a G1 point ``(xt, yt)``.

    ``coeffs`` is the Fq2 slope/intercept of a line through TWIST points.
    Untwisting scales the slope by ``w`` and the intercept by ``w^3``
    (vertical lines: the x-offset by ``w^2``), so the line evaluated at the
    embedded G1 point occupies exactly three Fq12 coefficient slots:

        (lam*w)*xt - yt + b*w^3  =  Fq12(Fq6(-yt, 0, 0), Fq6(lam*xt, b, 0))

    Assembling the sparse element by slot placement replaces the full Fq12
    untwist multiplications and the ``a * xt`` product with two Fq2-by-int
    scalar products.  The G1 coordinates and the stored Fq2 coefficients
    are already canonical, so the sparse slots build through the unchecked
    ``fq*_raw`` constructors — the only boundary reduction paid here is
    inside ``lam * xt``.
    """
    lam, b = coeffs
    xt, yt = t
    if lam is None:
        # vertical: x - x1 on the twist; -x1 rides the w^2 slot
        return fq12_raw(
            fq6_raw(fq2_raw(xt, 0), b, fq2_raw(0, 0)),
            fq6_raw(fq2_raw(0, 0), fq2_raw(0, 0), fq2_raw(0, 0)),
        )
    return fq12_raw(
        fq6_raw(fq2_raw(BN254_P - yt if yt else 0, 0), fq2_raw(0, 0), fq2_raw(0, 0)),
        fq6_raw(lam * xt, b, fq2_raw(0, 0)),
    )


class G2Prepared:
    """A G2 point with its Miller-loop line coefficients precomputed.

    ``coeffs`` is the flat list of line coefficients in the exact order the
    Miller loop consumes them (doubling line each iteration, addition line
    on set bits, then the two Frobenius tail lines); ``None`` for the point
    at infinity, whose pairing is trivially one.
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
    q_pt = untwist(g2_point)
    if q_pt is None:
        return G2Prepared(g2_point, None)
    coeffs = []
    r_pt = q_pt
    for i in range(ATE_LOOP_COUNT.bit_length() - 2, -1, -1):
        line, r_pt = _double_step(r_pt)
        coeffs.append(line)
        if ATE_LOOP_COUNT & (1 << i):
            line, r_pt = _add_step(r_pt, q_pt)
            coeffs.append(line)
    q1 = (q_pt[0].frobenius(), q_pt[1].frobenius())
    nq2 = (q1[0].frobenius(), -(q1[1].frobenius()))
    line, r_pt = _add_step(r_pt, q1)
    coeffs.append(line)
    coeffs.append(_line_coeffs(r_pt, nq2))
    return G2Prepared(g2_point, coeffs)


def miller_loop_with_lines(prepared, g1_point):
    """Miller loop evaluating a :class:`G2Prepared`'s stored lines."""
    p_pt = embed_g1(g1_point)
    if prepared.coeffs is None or p_pt is None:
        return Fq12.one()
    lines = iter(prepared.coeffs)
    f = Fq12.one()
    for i in range(ATE_LOOP_COUNT.bit_length() - 2, -1, -1):
        f = f.square() * _eval_line(next(lines), p_pt)
        if ATE_LOOP_COUNT & (1 << i):
            f = f * _eval_line(next(lines), p_pt)
    f = f * _eval_line(next(lines), p_pt)
    f = f * _eval_line(next(lines), p_pt)
    return f


def miller_loop(g2_point, g1_point):
    """Miller loop for the optimal ate pairing (no final exponentiation).

    ``g2_point`` may be a ``G2Point`` or a :class:`G2Prepared`.
    """
    if isinstance(g2_point, G2Prepared):
        return miller_loop_with_lines(g2_point, g1_point)
    q_pt = untwist(g2_point)
    p_pt = embed_g1(g1_point)
    if q_pt is None or p_pt is None:
        return Fq12.one()
    r_pt = q_pt
    f = Fq12.one()
    for i in range(ATE_LOOP_COUNT.bit_length() - 2, -1, -1):
        line, r_pt = _double_step(r_pt)
        f = f.square() * _eval_line(line, p_pt)
        if ATE_LOOP_COUNT & (1 << i):
            line, r_pt = _add_step(r_pt, q_pt)
            f = f * _eval_line(line, p_pt)
    # Frobenius endomorphism corrections (optimal ate tail).
    q1 = (q_pt[0].frobenius(), q_pt[1].frobenius())
    nq2 = (q1[0].frobenius(), -(q1[1].frobenius()))
    line, r_pt = _add_step(r_pt, q1)
    f = f * _eval_line(line, p_pt)
    f = f * _line(r_pt, nq2, p_pt)
    return f


def final_exponentiation(f):
    """Map a Miller-loop output into the r-th roots of unity."""
    if f.is_zero():
        raise CurveError("final exponentiation of zero")
    # Easy part: f^((p^6 - 1)(p^2 + 1)).
    t = f.conjugate() * f.inverse()
    t = t.frobenius_n(2) * t
    return _hard_part(t)


def _pow_x(f):
    """f^x for the BN parameter x (square-and-multiply, 63 bits)."""
    result = f
    for i in range(BN_X.bit_length() - 2, -1, -1):
        result = result.square()
        if BN_X >> i & 1:
            result = result * f
    return result


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
    t0 = y6.square() * y4 * y5
    t1 = y3 * y5 * t0
    t0 = t0 * y2
    t1 = (t1.square() * t0).square()
    t0 = t1 * y1
    t1 = t1 * y0
    return t0.square() * t1


def pairing(g1_point, g2_point):
    """e(P, Q) for P in G1 (affine Point), Q in G2 (G2Point or G2Prepared)."""
    return final_exponentiation(miller_loop(g2_point, g1_point))


def multi_miller(pairs):
    """Product of Miller loops over (g1, g2) pairs (no final exp).

    Runs all pairs through ONE shared accumulator: the `f.square()` each
    iteration is paid once for the whole product instead of once per pair
    (the standard multi-Miller trick).  Squaring and multiplication are
    exact, so the result is the identical field element a pair-at-a-time
    product would produce.  G2 entries may be ``G2Point`` or
    :class:`G2Prepared`, mixed freely.
    """
    prepared_states = []  # (embedded g1, line-coefficient iterator)
    # Raw pairs keep their point arithmetic ON THE TWIST: r and q are Fq2
    # coordinate pairs, so every doubling/addition costs a handful of Fq2
    # operations instead of full Fq12 ones, and the per-step slope inversion
    # batches in Fq2.  Only the line VALUES are lifted into Fq12, sparsely,
    # by :func:`_twist_line_value`.
    raw_states = []  # [r_twist, q_twist, (g1.x, g1.y)]
    for g1_point, g2_point in pairs:
        if isinstance(g2_point, G2Prepared):
            p_pt = embed_g1(g1_point)
            if g2_point.coeffs is None or p_pt is None:
                continue
            prepared_states.append((p_pt, iter(g2_point.coeffs)))
        else:
            if g2_point.is_infinity or g1_point.is_infinity:
                continue
            q_tw = (g2_point.x, g2_point.y)
            raw_states.append([q_tw, q_tw, (g1_point.x, g1_point.y)])
    f = Fq12.one()
    if not prepared_states and not raw_states:
        return f
    for i in range(ATE_LOOP_COUNT.bit_length() - 2, -1, -1):
        f = f.square()
        for p_pt, lines in prepared_states:
            f = f * _eval_line(next(lines), p_pt)
        if raw_states:
            # all raw pairs advance in lockstep: one batched Fq2 inversion
            # per step instead of one Fermat inverse per pair
            for state, (line, r_pt) in zip(
                raw_states, _double_steps([s[0] for s in raw_states])
            ):
                state[0] = r_pt
                f = f * _twist_line_value(line, state[2])
        if ATE_LOOP_COUNT & (1 << i):
            for p_pt, lines in prepared_states:
                f = f * _eval_line(next(lines), p_pt)
            if raw_states:
                for state, (line, r_pt) in zip(
                    raw_states, _add_steps([(s[0], s[1]) for s in raw_states])
                ):
                    state[0] = r_pt
                    f = f * _twist_line_value(line, state[2])
    # Frobenius endomorphism corrections (optimal ate tail).
    for p_pt, lines in prepared_states:
        f = f * _eval_line(next(lines), p_pt)
        f = f * _eval_line(next(lines), p_pt)
    if raw_states:
        q1s = [twist_frobenius(s[1]) for s in raw_states]
        steps = _add_steps(
            [(s[0], q1) for s, q1 in zip(raw_states, q1s)]
        )
        nq2s = []
        for q1 in q1s:
            x2, y2 = twist_frobenius(q1)
            nq2s.append((x2, -y2))
        finals = _line_coeffs_batch(
            [(r_pt, nq2) for (_, r_pt), nq2 in zip(steps, nq2s)]
        )
        for state, (line, _), fin in zip(raw_states, steps, finals):
            f = f * _twist_line_value(line, state[2])
            f = f * _twist_line_value(fin, state[2])
    return f


def multi_pairing(pairs):
    """prod e(P_i, Q_i) with a single shared final exponentiation."""
    with _span("pairing.miller", pairs=len(pairs)):
        f = multi_miller(pairs)
    with _span("pairing.final_exp"):
        return final_exponentiation(f)


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
