"""repro.wire — the canonical proof-envelope layer.

Every proof byte that crosses a trust boundary (prover -> CSR -> CA ->
certificate -> client) travels inside a :class:`ProofEnvelope`; this
package is the only sanctioned producer/consumer of proof wire bytes
(the ``wire-escape`` hygiene lint enforces it).
"""

from .envelope import (
    FLAG_MANAGED,
    NULLIFIER_REJECTED,
    NULLIFIER_TAG,
    ProofEnvelope,
    compute_nullifier,
    decode_envelope,
    encode_envelope,
    seal,
)
from .registry import (
    KIND_GROTH16,
    KIND_SIMULATION,
    VERSION_PRODUCTION,
    VERSION_TOY,
    BodyCodec,
    get_codec,
    kind_for_backend,
    register_codec,
    registered_kinds,
    version_for_profile,
)
from .transport import (
    WirePayload,
    envelope_from_sans,
    envelope_to_sans,
    extract_proof,
)
from .golden import GOLDEN_FORMAT_VERSION, check_golden, roundtrip_golden

__all__ = [
    "FLAG_MANAGED",
    "GOLDEN_FORMAT_VERSION",
    "KIND_GROTH16",
    "KIND_SIMULATION",
    "NULLIFIER_REJECTED",
    "NULLIFIER_TAG",
    "VERSION_PRODUCTION",
    "VERSION_TOY",
    "BodyCodec",
    "ProofEnvelope",
    "WirePayload",
    "check_golden",
    "compute_nullifier",
    "decode_envelope",
    "encode_envelope",
    "envelope_from_sans",
    "envelope_to_sans",
    "extract_proof",
    "get_codec",
    "kind_for_backend",
    "register_codec",
    "registered_kinds",
    "roundtrip_golden",
    "seal",
    "version_for_profile",
]
