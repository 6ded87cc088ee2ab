"""Value-domain facts for :mod:`repro.lint.domains`.

This file is the checked-in half of the analyzer's knowledge: the domain
lattice constants and a signature table declaring, for the public
arithmetic/wire API surface, which representation each parameter and
return value lives in.  The other half is lightweight inline
``# domain:`` annotations in the source (see ``domains.py``).

The lattice is flat (three levels)::

               top  (unknown / mixed)
      /    |     |      |      |      \\
  canonical(p) canonical(n) raw-tuple wire-bytes nullifier opaque
      \\    |     |      |      |      /
               bot  (unreachable / unassigned)

* ``canonical(p)``  — an integer fully reduced mod the base prime p
  (G1/tower coordinate world).
* ``canonical(n)``  — an integer fully reduced mod the group order n
  (scalar world: ECDSA, GLV halves, NTT over the BN254 scalar field).
* ``raw-tuple``     — a lazily-unreduced tower value (the wide int
  tuples ``_m2``/``_m6`` return); must pass through a boundary reducer
  before leaving ``field/extension.py``.
* ``wire-bytes``    — raw proof body bytes *before* sealing; must not
  escape the wire layers un-enveloped.
* ``nullifier``     — a domain-bound nullifier digest.
* ``opaque``        — a known value the checks deliberately ignore
  (objects, sealed envelopes, context handles).

``top`` doubles as the "unchecked" parameter declaration: a ``Sig``
parameter of ``top`` constrains nothing.  Conflicts only fire between
two *specific* domains — the analyzer stays silent unless both sides
are definite facts.
"""

from collections import namedtuple

# -- lattice constants --------------------------------------------------------

BOT = "bot"
TOP = "top"
CANON_P = "canonical(p)"
CANON_N = "canonical(n)"
RAW = "raw-tuple"
WIRE = "wire-bytes"
NULLIFIER = "nullifier"
OPAQUE = "opaque"

#: the mid-level atoms of the flat lattice
ATOMS = (CANON_P, CANON_N, RAW, WIRE, NULLIFIER, OPAQUE)

#: domains definite enough to raise a mixing error (opaque is known but
#: deliberately unconstrained)
SPECIFIC = frozenset({CANON_P, CANON_N, RAW, WIRE, NULLIFIER})

#: spellings accepted by ``# domain:`` annotations (and the facts below)
DOMAIN_NAMES = {
    "canonical(p)": CANON_P,
    "canonical(n)": CANON_N,
    "raw-tuple": RAW,
    "raw": RAW,
    "wire-bytes": WIRE,
    "wire": WIRE,
    "nullifier": NULLIFIER,
    "opaque": OPAQUE,
    "top": TOP,
    "any": TOP,
}


def join(a, b):
    """Least upper bound on the flat lattice."""
    if a == b:
        return a
    if a == BOT:
        return b
    if b == BOT:
        return a
    return TOP


def meet(a, b):
    """Greatest lower bound on the flat lattice."""
    if a == b:
        return a
    if a == TOP:
        return b
    if b == TOP:
        return a
    return BOT


# -- signature facts ----------------------------------------------------------

#: A declared signature: ``params`` is a tuple of domains aligned with the
#: call-site arguments as written (bound methods exclude ``self``), or
#: ``None`` to leave every argument unchecked; ``ret`` is the domain of
#: the call result.
Sig = namedtuple("Sig", ("params", "ret"))

FACTS = {
    # -- ec/curve.py: canonical Jacobian kernels -------------------------
    "jac_double": Sig((TOP, CANON_P), CANON_P),
    "jac_add": Sig((TOP, CANON_P, CANON_P), CANON_P),
    "jac_add_affine": Sig((TOP, CANON_P, CANON_P), CANON_P),
    "jac_mul": Sig((TOP, CANON_P, CANON_N), CANON_P),
    "jac_neg": Sig((TOP, CANON_P), CANON_P),
    "jac_to_affine": Sig((TOP, CANON_P), CANON_P),
    # -- field/extension.py: lazy tower ----------------------------------
    # the raw combinators produce double-wide unreduced tuples; only the
    # boundary reducers may consume them.
    "_m2": Sig(None, RAW),
    "_xi2": Sig(None, RAW),
    "_m6": Sig(None, RAW),
    "_mulv6": Sig(None, RAW),
    "_add6": Sig((RAW, RAW), RAW),
    "_sub6": Sig((RAW, RAW), RAW),
    "_raw": Sig(None, RAW),
    "_from_raw": Sig((RAW,), OPAQUE),
    # the unchecked constructors take ALREADY-REDUCED coefficients
    "fq2_raw": Sig((CANON_P, CANON_P), OPAQUE),
    "fq6_raw": Sig(None, OPAQUE),
    "fq12_raw": Sig(None, OPAQUE),
    # -- engine/fft.py: scalar-field NTT ---------------------------------
    "cached_fft": Sig((CANON_N, CANON_N), CANON_N),
    "cached_ifft": Sig((CANON_N, CANON_N), CANON_N),
    "coset_extend": Sig((CANON_N, CANON_N), CANON_N),
    # -- ec/glv.py + ec/msm.py: scalar decompositions --------------------
    "split_scalar": Sig((CANON_N, CANON_N, TOP), OPAQUE),
    "decompose": Sig((CANON_N, CANON_N), OPAQUE),
    "straus": Sig((TOP, CANON_N), OPAQUE),
    "msm_generic": Sig((TOP, TOP, CANON_N), OPAQUE),
    "msm_reference": Sig((TOP, TOP, CANON_N), OPAQUE),
    # -- wire layer: proof bytes, envelopes, nullifiers ------------------
    "proof_to_bytes": Sig((TOP,), WIRE),
    "proof_from_bytes": Sig((WIRE,), OPAQUE),
    "g1_to_bytes": Sig((TOP,), WIRE),
    "g1_from_bytes": Sig((WIRE,), OPAQUE),
    "g2_to_bytes": Sig((TOP,), WIRE),
    "g2_from_bytes": Sig((WIRE,), OPAQUE),
    "encode_proof_chars": Sig((TOP,), WIRE),
    "decode_proof_chars": Sig(None, OPAQUE),
    "encode_proof_sans": Sig((TOP,), WIRE),
    "decode_proof_sans": Sig(None, OPAQUE),
    "encode_payload_chars": Sig((TOP,), WIRE),
    "decode_payload_chars": Sig(None, OPAQUE),
    "encode_payload_sans": Sig((TOP,), WIRE),
    "decode_payload_sans": Sig(None, OPAQUE),
    # sealing consumes raw body bytes and yields sanctioned objects
    "seal": Sig((TOP, TOP, WIRE), OPAQUE),
    "encode_envelope": Sig((TOP,), OPAQUE),
    "decode_envelope": Sig(None, OPAQUE),
    "compute_nullifier": Sig(None, NULLIFIER),
    "extract_proof": Sig(None, OPAQUE),
    "envelope_to_sans": Sig(None, OPAQUE),
    "envelope_from_sans": Sig(None, OPAQUE),
    "statement_digest": Sig(None, OPAQUE),
}

#: attribute reads with a known domain, keyed by attribute name
ATTR_DOMAINS = {
    "body": WIRE,  # WirePayload.body: raw proof body bytes
    "nullifier": NULLIFIER,  # WirePayload.nullifier / Envelope.nullifier
}

# -- modulus spellings --------------------------------------------------------

#: names that denote the base prime p when they appear as `% <name>`
MODULUS_P_NAMES = frozenset({"p", "_P", "BN254_P"})
#: attribute spellings for p (`curve.field.p`)
MODULUS_P_ATTRS = frozenset({"p"})

#: names that denote the group order n when they appear as `% <name>`
MODULUS_N_NAMES = frozenset({"n", "order", "R", "BN254_R"})
#: attribute spellings for n (`curve.order`)
MODULUS_N_ATTRS = frozenset({"order"})

# -- wire layer boundaries ----------------------------------------------------

#: raw proof wire primitives; calling or importing these outside the
#: sanctioned layers is a wire-escape (previously hygiene's wire-bypass)
WIRE_PRIMITIVES = frozenset({
    "proof_to_bytes", "proof_from_bytes",
    "g1_to_bytes", "g1_from_bytes", "g2_to_bytes", "g2_from_bytes",
    "encode_proof_chars", "decode_proof_chars",
    "encode_proof_sans", "decode_proof_sans",
    "encode_payload_chars", "decode_payload_chars",
    "encode_payload_sans", "decode_payload_sans",
})

#: layers allowed to touch wire-domain values directly
WIRE_ALLOWED_PATHS = ("wire/", "groth16/", "x509/san.py", "x509/__init__.py")

# -- worker-pool purity -------------------------------------------------------

#: call names that ship a function to a worker pool; the first argument
#: (or the second, when the first is a delta wrapper) is the shipped task
POOL_SUBMIT_NAMES = frozenset({"submit"})

#: wrappers that forward to the real task (telemetry's delta protocol)
POOL_DELTA_WRAPPERS = frozenset({"run_with_delta"})

#: modules whose whole job is the delta-merge protocol itself
PURITY_EXEMPT_PATHS = ("telemetry/",)
