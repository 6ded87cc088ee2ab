"""Compiled constraint systems: flat CSR matrices + one-pass evaluation.

A synthesized :class:`~repro.r1cs.system.ConstraintSystem` stores each
constraint as three ``LinearCombination`` dicts.  That representation is
ideal for gadget synthesis (cheap +/-/scale) but slow to evaluate: the
prover's hot loop pays a method call and a dict walk per LC, three times
per constraint, and the legacy path paid it *twice* (satisfaction check,
then QAP evaluation).

:class:`CompiledCircuit` lowers the A/B/C sides once into CSR-style flat
arrays — a row-pointer list plus parallel wire-index / coefficient lists,
coefficients pre-reduced into ``[1, r)`` (zero coefficients dropped) — and
evaluates all three matrices in a single pass that also performs the
satisfaction check, reporting the first failing row with its label exactly
like ``ConstraintSystem.check_satisfied``.

Two further structures are derived from the CSR arrays:

* per-row *split* views separating coefficient-one terms (gather-add),
  minus-one terms (gather-subtract), and general terms — the inner loops
  run at C speed via ``sum``/``map`` and skip multiplications entirely for
  the +-1 coefficients that dominate gadget-built circuits;
* a lazily-built wire -> rows column index, which lets
  :meth:`CompiledCircuit.update_evals` re-evaluate only the rows touched
  by a witness re-bind.  For the NOPE statement the per-proof inputs
  (T, N, TS) enter through three pass-through constraints, so repeated
  issuance re-evaluates three rows instead of the full system.

Evaluation is structure-only state: one ``CompiledCircuit`` (memoized by
``structure_hash()`` in :mod:`repro.engine.prepared`) serves every witness
for its circuit.
"""

from operator import mul

from ..telemetry import metrics as _metrics
from .system import unsatisfied_error

#: rows re-evaluated per incremental witness re-bind (the Fig. 5 repeat-
#: issuance path touches 3 rows out of the full statement)
_DIRTY_ROWS = _metrics.histogram("r1cs.rows.incremental")

#: keep small negative coefficients in signed form (|c| below this bound)
#: so their products stay single-limb instead of (r - c)-sized
_SMALL = 1 << 64


def _split_row(terms, modulus):
    """(ones, negs, gen_coeffs, gen_wires) for one LC's term dict."""
    ones = []
    negs = []
    gen_wires = []
    gen_coeffs = []
    for wire, coeff in terms.items():
        c = coeff % modulus
        if c == 0:
            continue
        if c == 1:
            ones.append(wire)
        elif c == modulus - 1:
            negs.append(wire)
        else:
            # signed representative keeps e.g. -2^k products small
            gen_coeffs.append(c - modulus if modulus - c < _SMALL else c)
            gen_wires.append(wire)
    return tuple(ones), tuple(negs), tuple(gen_coeffs), tuple(gen_wires)


class CsrMatrix:
    """One side (A, B, or C) of an R1CS in flat CSR form.

    ``row_ptr[i]:row_ptr[i+1]`` delimits row ``i``'s slice of the parallel
    ``wires``/``coeffs`` lists.  ``coeffs`` holds the canonical reduced
    values in ``[1, modulus)``; the ``rows`` split views used by the
    evaluator re-derive signed representatives from them.
    """

    __slots__ = ("row_ptr", "wires", "coeffs", "rows")

    def __init__(self, lcs, modulus):
        row_ptr = [0]
        wires = []
        coeffs = []
        rows = []
        for lc in lcs:
            merged = {}
            for wire, coeff in lc.terms.items():
                # terms is a dict so wires are unique, but merge defensively
                merged[wire] = (merged.get(wire, 0) + coeff) % modulus
            for wire, c in merged.items():
                if c:
                    wires.append(wire)
                    coeffs.append(c)
            row_ptr.append(len(wires))
            rows.append(_split_row(merged, modulus))
        self.row_ptr = row_ptr
        self.wires = wires
        self.coeffs = coeffs
        self.rows = rows

    @property
    def nnz(self):
        return len(self.wires)


def _eval_row_slice(rows, values, p):
    """Evaluate a list of split rows against an assignment; C-speed inner
    loops (``sum(map(...))``), one final reduction per row."""
    g = values.__getitem__
    out = []
    append = out.append
    for ones, negs, gcoeffs, gwires in rows:
        t = sum(map(g, ones))
        if negs:
            t -= sum(map(g, negs))
        if gcoeffs:
            t += sum(map(mul, gcoeffs, map(g, gwires)))
        append(t % p)
    return out


class CompiledCircuit:
    """CSR-lowered structure of a synthesized constraint system."""

    __slots__ = (
        "num_constraints",
        "num_variables",
        "num_public",
        "modulus",
        "labels",
        "wire_labels",
        "boolean_wires",
        "a",
        "b",
        "c",
        "_wire_rows",
    )

    def __init__(self, system):
        self.num_constraints = system.constraint_count
        self.num_variables = system.num_variables
        self.num_public = system.num_public
        self.modulus = system.field.p
        self.labels = [label for _, _, _, label in system.constraints]
        # audit metadata: wire names and boolean-contract marks travel with
        # the CSR form so reports can say "sha256/w[17]" instead of "w1234";
        # neither enters structure_hash(), so unlabeled systems hash the same
        self.wire_labels = list(system.labels)
        self.boolean_wires = frozenset(system.boolean_wires)
        self.a = CsrMatrix([a for a, _, _, _ in system.constraints], self.modulus)
        self.b = CsrMatrix([b for _, b, _, _ in system.constraints], self.modulus)
        self.c = CsrMatrix([c for _, _, c, _ in system.constraints], self.modulus)
        self._wire_rows = None  # built lazily on the first incremental update

    @classmethod
    def from_system(cls, system):
        """Lower a fully synthesized (non-counting) system."""
        return cls(system)

    # -- full evaluation ------------------------------------------------------

    def evaluate(self, values):
        """One pass over the CSR rows: ``(a_evals, b_evals, c_evals)`` plus
        the satisfaction check (raises UnsatisfiedError like
        ``check_satisfied``)."""
        p = self.modulus
        a_evals = _eval_row_slice(self.a.rows, values, p)
        b_evals = _eval_row_slice(self.b.rows, values, p)
        c_evals = _eval_row_slice(self.c.rows, values, p)
        for i, (av, bv, cv) in enumerate(zip(a_evals, b_evals, c_evals)):
            if av * bv % p != cv:
                self._raise_unsatisfied(i, av, bv, cv)
        return a_evals, b_evals, c_evals

    # -- incremental re-evaluation ---------------------------------------------

    def _column_index(self):
        if self._wire_rows is None:
            index = {}
            for mat in (self.a, self.b, self.c):
                ptr = mat.row_ptr
                wires = mat.wires
                for i in range(self.num_constraints):
                    for k in range(ptr[i], ptr[i + 1]):
                        rows = index.setdefault(wires[k], set())
                        rows.add(i)
            self._wire_rows = {w: sorted(rows) for w, rows in index.items()}
        return self._wire_rows

    def rows_touching(self, wires):
        """Sorted row indices whose A, B, or C side reads any given wire."""
        index = self._column_index()
        touched = set()
        for wire in wires:
            touched.update(index.get(wire, ()))
        return sorted(touched)

    def update_evals(self, evals, values, changed_wires):
        """Fresh ``(a, b, c)`` eval lists after a values-only re-bind.

        Only rows reading a changed wire are re-evaluated and re-checked;
        every other row's evaluation — and therefore its satisfaction —
        is unchanged by definition.  The first failing row overall is a
        touched row, so the error matches a full check's.
        """
        p = self.modulus
        a_evals = list(evals[0])
        b_evals = list(evals[1])
        c_evals = list(evals[2])
        rows = self.rows_touching(changed_wires)
        _DIRTY_ROWS.observe(len(rows))
        for i in rows:
            a_evals[i] = _eval_row_slice(self.a.rows[i : i + 1], values, p)[0]
            b_evals[i] = _eval_row_slice(self.b.rows[i : i + 1], values, p)[0]
            c_evals[i] = _eval_row_slice(self.c.rows[i : i + 1], values, p)[0]
        for i in rows:
            if a_evals[i] * b_evals[i] % p != c_evals[i]:
                self._raise_unsatisfied(i, a_evals[i], b_evals[i], c_evals[i])
        return a_evals, b_evals, c_evals

    # -- errors ---------------------------------------------------------------

    def _raise_unsatisfied(self, row, av, bv, cv):
        raise unsatisfied_error(row, self.labels[row], av, bv, cv)
