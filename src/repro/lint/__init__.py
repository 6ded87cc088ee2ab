"""Static analysis for the NOPE reproduction: ``repro.lint``.

Two analyzers plus a reporting layer, gated in CI:

* :mod:`repro.lint.circuit`  — an R1CS soundness auditor in the spirit of
  circomspect/Picus: walks a synthesized :class:`ConstraintSystem` (via
  its compiled CSR form) and flags dead allocations, linear-only witness
  wires, unused public inputs, duplicate constraints, boolean-contract
  wires lacking an ``enforce_bool`` row, and — via a randomized
  determinism probe — wires whose value can change while every constraint
  stays satisfied.
* :mod:`repro.lint.hygiene`  — an ``ast``-based crypto-hygiene pass over
  the source tree: no ``random`` in signing/setup paths, no ``==`` on
  digest/MAC bytes, no floats in the arithmetic layers, no bare
  ``except``, no mutable default arguments, no raw proof wire primitives
  outside the wire layers, no lazy-tower raw tuples outside the tower,
  no worker-pool task that mutates state it does not own; alias-aware.

Findings are identified by stable keys and compared against a checked-in
baseline (``baseline.json``) so intentional constructions don't block CI;
``python -m repro.lint --fail-on new`` fails only on findings absent from
the baseline.  See DESIGN.md "Static analysis" for what each detector
proves and its limits.
"""

from .circuit import audit_system, incidence_stats
from .hygiene import lint_source, lint_tree
from .registry import GADGET_AUDITS, build_gadget_system
from .report import (
    Finding,
    Report,
    default_baseline_path,
    load_baseline,
    normalize_label,
    save_baseline,
)

__all__ = [
    "audit_system",
    "incidence_stats",
    "lint_source",
    "lint_tree",
    "GADGET_AUDITS",
    "build_gadget_system",
    "Finding",
    "Report",
    "default_baseline_path",
    "load_baseline",
    "save_baseline",
    "normalize_label",
]
