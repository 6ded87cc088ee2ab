"""The Group protocol: what the generic MSM needs from a group.

Two adapters cover every group in the repro:

* :class:`JacobianGroup` — G1-style short-Weierstrass curves.  *Elements*
  are Jacobian ``(X, Y, Z)`` int tuples, *bases* are affine ``(x, y)``
  tuples, and bucket accumulation uses batched affine additions (one field
  inversion per batch via ``PrimeField.batch_inverse``) with mixed
  Jacobian adds for the bucket aggregation.  Curves carrying the GLV
  endomorphism (``j = 0``, ``p = 1 mod 3``) additionally expose
  :meth:`~JacobianGroup.glv_split`, which the MSM uses to halve scalar
  widths over an endomorphism-mapped base set.
* :class:`OperatorGroup` — any operator-overloaded group (pairing
  ``G2Point``, affine ``Point``): elements and bases coincide, addition is
  ``+``, identity is whatever the caller supplies.
"""

from ..ec import curve as _c
from ..ec.glv import curve_endomorphism, glv_basis, split_scalar


class Group:
    """Abstract group interface consumed by :func:`repro.engine.msm.msm_generic`.

    ``element`` is the accumulator representation; ``base`` is the (possibly
    cheaper) representation input points arrive in.  For groups with no
    mixed addition the two coincide and ``add_mixed`` is plain ``add``.
    """

    def identity(self):
        raise NotImplementedError

    def is_identity(self, el):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def double(self, el):
        raise NotImplementedError

    def add_mixed(self, el, base):
        """Accumulate a base point into an element (mixed add if available)."""
        raise NotImplementedError

    def scalar_mul(self, base, k):
        """k * base, returned as an element (used for the 1-point shortcut)."""
        raise NotImplementedError

    def neg_base(self, base):
        """-base, in base representation (signed-digit windows need it)."""
        raise NotImplementedError

    def glv_split(self, bases, scalars):
        """Halve scalar widths via an endomorphism, or None if unsupported.

        Returns ``(new_bases, new_scalars)`` with every scalar positive and
        at most ~half the bit width, such that the MSM over the new pairs
        equals the MSM over the old ones.
        """
        return None

    def reduce_buckets(self, bucket_lists):
        """Collapse each bucket's list of bases to one base (or None).

        The default folds sequentially; :class:`JacobianGroup` overrides
        with batched-affine accumulation.
        """
        out = []
        for lst in bucket_lists:
            if not lst:
                out.append(None)
                continue
            acc = self.identity()
            for base in lst:
                acc = self.add_mixed(acc, base)
            out.append(None if self.is_identity(acc) else acc)
        return out


class JacobianGroup(Group):
    """Adapter for ``repro.ec.curve`` Jacobian arithmetic on one curve."""

    def __init__(self, curve):
        self.curve = curve
        self.order = curve.order
        self._inf = _c.JAC_INFINITY
        self._add = _c.jac_add
        self._double = _c.jac_double
        self._add_affine = _c.jac_add_affine
        self._mul = _c.jac_mul
        self._endo = None
        self._endo_resolved = False

    def identity(self):
        return self._inf

    def is_identity(self, el):
        return el[2] == 0

    def add(self, a, b):
        return self._add(self.curve, a, b)

    def double(self, el):
        return self._double(self.curve, el)

    def add_mixed(self, el, base):
        return self._add_affine(self.curve, el, base)

    def scalar_mul(self, base, k):
        return self._mul(self.curve, (base[0], base[1], 1), k)

    def neg_base(self, base):
        return (base[0], (-base[1]) % self.curve.field.p)

    # -- GLV ------------------------------------------------------------------

    def _endomorphism(self):
        """Memoized ``(beta, lam, basis)`` or None."""
        if not self._endo_resolved:
            params = curve_endomorphism(self.curve)
            if params is not None:
                beta, lam = params
                self._endo = (beta, lam, glv_basis(lam, self.order))
            self._endo_resolved = True
        return self._endo

    def glv_split(self, bases, scalars):
        endo = self._endomorphism()
        if endo is None:
            return None
        beta, _lam, basis = endo
        p = self.curve.field.p
        n = self.order
        new_bases, new_scalars = [], []
        for base, k in zip(bases, scalars):
            k1, k2 = split_scalar(k, n, basis)
            x, y = base
            if k1:
                if k1 > 0:
                    new_bases.append(base)
                    new_scalars.append(k1)
                else:
                    new_bases.append((x, (-y) % p))
                    new_scalars.append(-k1)
            if k2:
                xb = beta * x % p
                if k2 > 0:
                    new_bases.append((xb, y))
                    new_scalars.append(k2)
                else:
                    new_bases.append((xb, (-y) % p))
                    new_scalars.append(-k2)
        return new_bases, new_scalars

    # -- batched-affine bucket accumulation -----------------------------------

    def reduce_buckets(self, bucket_lists):
        """Collapse bucket point-lists via rounds of batched affine adds.

        Each round pairs up the points remaining in every bucket and
        performs all the affine additions together, paying one modular
        inversion per *round* (Montgomery batch inversion) instead of one
        Jacobian mixed add per point.  Exact special cases: ``P + (-P)``
        cancels to the identity (both points dropped), ``P + P`` becomes an
        affine doubling.  Returns one affine tuple (or None) per bucket.
        """
        field = self.curve.field
        p = field.p
        a_coeff = self.curve.a
        lists = bucket_lists
        while True:
            denoms = []
            jobs = []  # (bucket, x1, y1, x2, y2, is_double)
            nxt = [None] * len(lists)
            pending = False
            for bi, lst in enumerate(lists):
                m = len(lst)
                if m <= 1:
                    nxt[bi] = lst
                    continue
                pending = True
                keep = []
                i = 0
                while i + 1 < m:
                    x1, y1 = lst[i]
                    x2, y2 = lst[i + 1]
                    if x1 == x2:
                        if (y1 + y2) % p == 0:
                            pass  # P + (-P): cancels, drop both
                        else:
                            denoms.append(2 * y1 % p)
                            jobs.append((bi, x1, y1, 0, 0, True))
                    else:
                        denoms.append((x2 - x1) % p)
                        jobs.append((bi, x1, y1, x2, y2, False))
                    i += 2
                if i < m:
                    keep.append(lst[i])
                nxt[bi] = keep
            if not pending:
                break
            invs = field.batch_inverse(denoms)
            for (bi, x1, y1, x2, y2, dbl), inv_d in zip(jobs, invs):
                if dbl:
                    lam = (3 * x1 * x1 + a_coeff) * inv_d % p
                    x3 = (lam * lam - 2 * x1) % p
                else:
                    lam = (y2 - y1) * inv_d % p
                    x3 = (lam * lam - x1 - x2) % p
                nxt[bi].append((x3, (lam * (x1 - x3) - y1) % p))
            lists = nxt
        return [lst[0] if lst else None for lst in lists]


class OperatorGroup(Group):
    """Adapter for operator-overloaded groups with an ``is_infinity`` flag."""

    def __init__(self, identity_element, order=None):
        self._identity = identity_element
        self.order = order

    def identity(self):
        return self._identity

    def is_identity(self, el):
        return el.is_infinity

    def add(self, a, b):
        return a + b

    def double(self, el):
        return el + el

    def add_mixed(self, el, base):
        return el + base

    def scalar_mul(self, base, k):
        return k * base

    def neg_base(self, base):
        return -base
