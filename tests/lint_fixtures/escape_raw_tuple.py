"""Deliberately wrong: lazily-unreduced tower tuples escape the tower.

`_m6` and `_m2` return double-wide unreduced limb tuples; only the
boundary reducers of `field/extension.py` may consume them, so no other
module calls the combinators.
"""


def mul_no_reduce(a, b):
    t = _m6(a, b)
    return t


def rebuild_from_wide(a, b):
    t = _m2(a, b)
    lo, hi = t
    return fq2_raw(lo, hi)
