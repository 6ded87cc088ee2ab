"""Canonical proof envelope: the one wire format for proof bytes.

Every proof that leaves the prover travels inside a deterministic,
type-tagged envelope (modeled on the animicaorg ENVELOPE spec): a kind
tag naming the proof system, a body version naming the parameter profile,
a managed flag, and the canonical body bytes.  Its wire form is the
paper's Appendix D SAN text, 200 base-37 characters in four 50-char
labels::

    [0]        SAN version char  (ALPHABET[2]; versions 0 and 1 are retired)
    [1]        metadata char     (kind * 4 + body version * 2 + managed)
    [2:199]    body              (197 base-37 digits of the 128-byte body)
    [199]      checksum char     (position-weighted, over chars [0:199])

Nothing else is carried.  The 32-byte **nullifier** is derived, at
:func:`seal` and at decode alike, as a domain-separated hash over
``kind || version || flags || len(domain) || domain || body``: it names
one (proof, domain) pair, so clients and CAs can refuse the same proof
appearing under more than one certificate.  The statement the proof is
for is not carried either: profile, depth and the managed variant are
fixed by the version, the domain and the flag.

Decoding is strict: an unknown SAN version, a wrong length, a checksum
mismatch, an unassigned metadata value (unknown kind or version), an
out-of-range body number and a non-canonical body are all refused.
Checked-in golden vectors (:mod:`repro.wire.golden`) pin this layout
character-for-character.
"""

from ..errors import EncodingError, WireError
from ..hashes.sha256 import sha256
from ..telemetry import metrics as _metrics
from ..telemetry.trace import span as _span
from ..x509.san import (
    ALPHABET,
    BASE,
    LABEL_LEN,
    checksum,
    chars_for_bytes,
    decode_base37,
    encode_base37,
    is_base37,
)

#: explicit hash-domain tag — envelope hashes can never collide with
#: protocol digests computed elsewhere in the codebase
NULLIFIER_TAG = b"NOPE/WIRE/NULLIFIER/V2"

#: the SAN version char; 0 (raw proof) and 1 (197-byte envelope) are retired
SAN_VERSION = 2
_VERSION_CHAR = ALPHABET[SAN_VERSION]

#: every registered kind carries the paper's 128-byte body
BODY_BYTES = 128
#: ceil(log_37(2^1024)) — the paper's 197
BODY_CHARS = chars_for_bytes(BODY_BYTES)
#: version + metadata + body + checksum: 200 chars, four whole labels
ENVELOPE_CHARS = 2 + BODY_CHARS + 1
assert ENVELOPE_CHARS % LABEL_LEN == 0

#: flags bit 0: the proof is for the NOPE-managed statement (paper App. A)
FLAG_MANAGED = 0x01

_ENCODED = _metrics.counter("wire.encode")
_DECODED = _metrics.counter("wire.decode")
NULLIFIER_REJECTED = _metrics.counter("wire.nullifier_rejected")


def compute_nullifier(kind, version, flags, domain, body):
    """The anti-reuse hash over the envelope's fields and its domain.

    The domain is length-prefixed so ``("ab", "c...")`` and
    ``("a", "bc...")`` can never produce the same preimage.
    """
    if isinstance(domain, str):
        domain = domain.rstrip(".").lower().encode()
    preimage = (
        NULLIFIER_TAG
        + bytes([kind, version, flags])
        + len(domain).to_bytes(2, "big")
        + domain
        + body
    )
    return sha256(preimage)


class ProofEnvelope:
    """A decoded (or freshly sealed) proof envelope."""

    __slots__ = ("kind", "version", "flags", "body", "domain", "nullifier",
                 "proof")

    def __init__(self, kind, version, flags, body, domain, proof):
        self.kind = kind
        self.version = version
        self.flags = flags
        self.body = body
        self.domain = domain
        self.nullifier = compute_nullifier(kind, version, flags, domain, body)
        #: ``body`` as the kind codec decoded it (validating the bytes is
        #: decoding them, so the value is kept rather than decoded again)
        self.proof = proof

    @property
    def managed(self):
        return bool(self.flags & FLAG_MANAGED)

    def __repr__(self):
        return "ProofEnvelope(kind=%d v%d flags=%#x domain=%s body=%dB)" % (
            self.kind, self.version, self.flags, self.domain, len(self.body)
        )

    def __eq__(self, other):
        if not isinstance(other, ProofEnvelope):
            return NotImplemented
        return encode_envelope(self) == encode_envelope(other) and (
            self.domain == other.domain
        )


def _checked(kind, version, body):
    """The codec-decoded body; raises WireError unless the kind, version
    and body bytes are registered and canonical."""
    from .registry import get_codec

    codec = get_codec(kind)  # raises WireError on unknown tag
    codec.check_version(version)
    return codec.decode(body)


def seal(kind, version, body, domain, managed=False):
    """Build a :class:`ProofEnvelope` around canonical ``body`` bytes.

    The body is validated against the kind's registered codec so a
    non-canonical proof can never be sealed in the first place.
    """
    proof = _checked(kind, version, body)
    flags = FLAG_MANAGED if managed else 0
    return ProofEnvelope(kind, version, flags, bytes(body),
                         domain.rstrip(".").lower(), proof)


def encode_envelope(env):
    """Serialize to the canonical 200-char SAN text (deterministic)."""
    metadata = env.kind * 4 + env.version * 2 + env.flags
    if env.version > 1 or env.flags > FLAG_MANAGED or metadata >= BASE:
        raise WireError(
            "kind %#x / version %d do not fit the metadata char"
            % (env.kind, env.version)
        )
    with _span("wire.encode", kind=env.kind):
        _ENCODED.inc()
        text = (_VERSION_CHAR + ALPHABET[metadata]
                + encode_base37(env.body, BODY_CHARS))
        return text + checksum(text)


def decode_envelope(chars, domain):
    """Strict inverse of :func:`encode_envelope` for one expected domain.

    Every rejection class raises :class:`WireError`:

    * a version char other than 2 (the retired layouts are named as such);
    * a length other than 200, or a character outside the alphabet;
    * a checksum mismatch;
    * an unassigned metadata value (unknown kind tag or body version);
    * a body number of 1024 bits or more, or a body the kind codec refuses.

    An envelope lifted from another domain decodes here, to a different
    nullifier; the client refuses it at the pairing, where the domain is
    a public input.
    """
    with _span("wire.decode", size=len(chars)):
        if not chars or chars[0] != _VERSION_CHAR:
            raise WireError("unsupported NOPE SAN version %r" % chars[:1])
        if len(chars) != ENVELOPE_CHARS or not is_base37(chars):
            raise WireError(
                "NOPE SAN payload must be %d base-37 characters, got %d"
                % (ENVELOPE_CHARS, len(chars))
            )
        if checksum(chars[:-1]) != chars[-1]:
            raise WireError("NOPE SAN checksum mismatch")
        kind, rest = divmod(ALPHABET.index(chars[1]), 4)
        version, flags = divmod(rest, 2)
        try:
            body = decode_base37(chars[2:-1], BODY_BYTES)
        except EncodingError as exc:
            raise WireError("NOPE SAN body: %s" % exc) from exc
        proof = _checked(kind, version, body)
        _DECODED.inc()
        return ProofEnvelope(kind, version, flags, body,
                             domain.rstrip(".").lower(), proof)
