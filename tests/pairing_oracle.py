"""Test-only reference: the optimal ate Miller loop over E(Fq12).

This is the textbook formulation the library no longer runs.  The G2 point
is untwisted into E(Fq12), the G1 point is embedded, and every line is an
affine E(Fq12) line evaluated densely.  It shares no step, line or product
code with :mod:`repro.pairing.ate` (only the Fq12 tower type), so tests can
use it as an independent reference for the twist loop.

The library's lines are the affine ones scaled by Fq2 factors (its twist
steps are projective), so the two Miller values differ by an element of
Fq2, which the final exponentiation removes: compare them after
:func:`repro.pairing.final_exponentiation`, or check that their quotient
lies in Fq2.
"""

from repro.field.extension import Fq2, Fq6, Fq12
from repro.pairing.bn254 import ATE_LOOP_COUNT

_W2 = Fq12(Fq6(Fq2.zero(), Fq2.one(), Fq2.zero()), Fq6.zero())  # w^2 = v
_W3 = Fq12(Fq6.zero(), Fq6(Fq2.zero(), Fq2.one(), Fq2.zero()))  # w^3 = v*w


def _embed_fq2(x):
    return Fq12(Fq6(x, Fq2.zero(), Fq2.zero()), Fq6.zero())


def untwist(pt):
    """Map a G2 twist point into E(Fq12): (x, y) -> (x w^2, y w^3)."""
    if pt.is_infinity:
        return None
    return (_embed_fq2(pt.x) * _W2, _embed_fq2(pt.y) * _W3)


def embed_g1(pt):
    """Map a BN254 G1 affine point into E(Fq12) coordinates."""
    if pt.is_infinity:
        return None
    return (_embed_fq2(Fq2(pt.x, 0)), _embed_fq2(Fq2(pt.y, 0)))


def _line(p1, p2, t):
    """The line through p1, p2 (tangent if equal) evaluated at t."""
    x1, y1 = p1
    x2, y2 = p2
    xt, yt = t
    if x1 != x2:
        lam = (y2 - y1) * (x2 - x1).inverse()
    elif y1 == y2:
        lam = x1.square() * 3 * (y1 + y1).inverse()
    else:
        return xt - x1
    return lam * (xt - x1) - (yt - y1)


def _add(p1, p2):
    """p1 + p2 on E(Fq12), affine, p1 != -p2."""
    x1, y1 = p1
    x2, y2 = p2
    if x1 != x2:
        lam = (y2 - y1) * (x2 - x1).inverse()
    else:
        lam = x1.square() * 3 * (y1 + y1).inverse()
    x3 = lam.square() - x1 - x2
    return (x3, lam * (x1 - x3) - y1)


def miller_loop(g2_point, g1_point):
    """The optimal ate Miller value f_{6x+2,Q}(P) times the two tail lines."""
    q_pt = untwist(g2_point)
    p_pt = embed_g1(g1_point)
    if q_pt is None or p_pt is None:
        return Fq12.one()
    r_pt = q_pt
    f = Fq12.one()
    for i in range(ATE_LOOP_COUNT.bit_length() - 2, -1, -1):
        f = f.square() * _line(r_pt, r_pt, p_pt)
        r_pt = _add(r_pt, r_pt)
        if ATE_LOOP_COUNT & (1 << i):
            f = f * _line(r_pt, q_pt, p_pt)
            r_pt = _add(r_pt, q_pt)
    # Frobenius endomorphism corrections, straight on E(Fq12)
    q1 = (q_pt[0].frobenius(), q_pt[1].frobenius())
    nq2 = (q1[0].frobenius(), -(q1[1].frobenius()))
    f = f * _line(r_pt, q1, p_pt)
    r_pt = _add(r_pt, q1)
    return f * _line(r_pt, nq2, p_pt)


def in_fq2(f):
    """Whether an Fq12 element lies in the subfield Fq2 (slot 0 only)."""
    return f.c1.is_zero() and f.c0.c1.is_zero() and f.c0.c2.is_zero()
