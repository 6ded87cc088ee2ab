"""Canonical proof envelope: the one wire format for proof bytes.

Every proof that leaves the prover travels inside a deterministic,
type-tagged envelope (modeled on the animicaorg ENVELOPE spec): a kind
tag naming the proof system, a body version naming the parameter profile,
a flags byte, a statement digest binding the envelope to one statement
shape, the canonical body bytes, and a 32-byte **nullifier**.

The nullifier is a domain-separated hash over
``tag || version || flags || statement || domain || body``, so the same
proof body cannot be rebound to a different domain (the recomputed
nullifier would not match the carried one) and clients/CAs can refuse the
same envelope appearing under more than one certificate.

Wire layout (all integers big-endian)::

    [0]        kind tag     (uint8, see repro.wire.registry)
    [1]        body version (uint8, registered per kind; names a profile)
    [2]        flags        (uint8; bit0 = managed statement, rest MBZ)
    [3:35]     statement digest (32 bytes)
    [35:37]    body length  (uint16)
    [37:37+L]  body         (canonical bytes per the kind codec)
    [37+L:]    nullifier    (32 bytes)

Decoding is strict: unknown tags/versions, reserved flag bits, length
mismatches, trailing bytes, non-canonical bodies, and nullifier
mismatches are all distinct rejection classes.  Checked-in golden vectors
(:mod:`repro.wire.golden`) pin this layout byte-for-byte.
"""

import hmac

from ..errors import NullifierError, WireError
from ..hashes.sha256 import sha256
from ..telemetry import metrics as _metrics
from ..telemetry.trace import span as _span

#: explicit hash-domain tags — envelope hashes can never collide with
#: protocol digests computed elsewhere in the codebase
NULLIFIER_TAG = b"NOPE/WIRE/NULLIFIER/V1"
STATEMENT_TAG = b"NOPE/WIRE/STATEMENT/V1"

#: fixed header bytes before the body: kind + version + flags + statement
#: digest + body length
HEADER_SIZE = 1 + 1 + 1 + 32 + 2
NULLIFIER_SIZE = 32

#: flags bit 0: the proof is for the NOPE-managed statement (paper App. A)
FLAG_MANAGED = 0x01
_KNOWN_FLAGS = FLAG_MANAGED

_ENCODED = _metrics.counter("wire.encode")
_DECODED = _metrics.counter("wire.decode")
NULLIFIER_REJECTED = _metrics.counter("wire.nullifier_rejected")


def envelope_size(body_len):
    """Total wire size of an envelope carrying ``body_len`` body bytes."""
    return HEADER_SIZE + body_len + NULLIFIER_SIZE


def statement_digest(shape_id):
    """32-byte digest binding an envelope to one statement shape."""
    if isinstance(shape_id, str):
        shape_id = shape_id.encode()
    return sha256(STATEMENT_TAG + b"|" + shape_id)


def compute_nullifier(kind, version, flags, statement, domain, body):
    """The anti-reuse hash over the envelope's canonical bytes + domain.

    The domain is length-prefixed so ``("ab", "c...")`` and
    ``("a", "bc...")`` can never produce the same preimage.
    """
    if isinstance(domain, str):
        domain = domain.rstrip(".").lower().encode()
    preimage = (
        NULLIFIER_TAG
        + bytes([kind, version, flags])
        + statement
        + len(domain).to_bytes(2, "big")
        + domain
        + body
    )
    return sha256(preimage)


class ProofEnvelope:
    """A decoded (or freshly sealed) proof envelope."""

    __slots__ = ("kind", "version", "flags", "statement", "body", "domain",
                 "nullifier", "proof")

    def __init__(self, kind, version, flags, statement, body, domain,
                 nullifier, proof):
        self.kind = kind
        self.version = version
        self.flags = flags
        self.statement = statement
        self.body = body
        self.domain = domain
        self.nullifier = nullifier
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


def seal(kind, version, body, domain, shape_id=None, statement=None,
         managed=False):
    """Build a :class:`ProofEnvelope` around canonical ``body`` bytes.

    The body is validated against the kind's registered codec so a
    non-canonical proof can never be sealed in the first place.
    """
    from .registry import get_codec

    codec = get_codec(kind)
    codec.check_version(version)
    proof = codec.decode(body)
    if statement is None:
        if shape_id is None:
            raise WireError("seal() needs a shape_id or a statement digest")
        statement = statement_digest(shape_id)
    if len(statement) != 32:
        raise WireError("statement digest must be 32 bytes")
    domain = domain.rstrip(".").lower()
    flags = FLAG_MANAGED if managed else 0
    nullifier = compute_nullifier(kind, version, flags, statement, domain, body)
    return ProofEnvelope(kind, version, flags, statement, bytes(body), domain,
                         nullifier, proof)


def encode_envelope(env):
    """Serialize to the canonical wire bytes (deterministic)."""
    if len(env.body) > 0xFFFF:
        raise WireError("envelope body exceeds the 64 KiB length field")
    with _span("wire.encode", kind=env.kind):
        _ENCODED.inc()
        return (
            bytes([env.kind, env.version, env.flags])
            + env.statement
            + len(env.body).to_bytes(2, "big")
            + env.body
            + env.nullifier
        )


def decode_envelope(data, domain):
    """Strict inverse of :func:`encode_envelope` for one expected domain.

    Every rejection class raises :class:`WireError` (or the
    :class:`NullifierError` subclass for rebinding/tamper):

    * truncated header or truncated body/nullifier;
    * trailing bytes after the nullifier;
    * unknown kind tag, unregistered body version, reserved flag bits;
    * non-canonical body bytes (the kind codec re-validates);
    * nullifier mismatch — including a valid envelope lifted from a
      *different* domain, since the domain enters the nullifier hash.
    """
    with _span("wire.decode", size=len(data)):
        if len(data) < HEADER_SIZE + NULLIFIER_SIZE:
            raise WireError("envelope truncated: %d bytes" % len(data))
        kind, version, flags = data[0], data[1], data[2]
        from .registry import get_codec

        codec = get_codec(kind)  # raises WireError on unknown tag
        codec.check_version(version)
        if flags & ~_KNOWN_FLAGS:
            raise WireError("reserved envelope flag bits set: %#x" % flags)
        statement = data[3:35]
        body_len = int.from_bytes(data[35:37], "big")
        expected = HEADER_SIZE + body_len + NULLIFIER_SIZE
        if len(data) < expected:
            raise WireError("envelope truncated: body length says %d" % body_len)
        if len(data) > expected:
            raise WireError(
                "trailing bytes after envelope (%d extra)" % (len(data) - expected)
            )
        body = data[HEADER_SIZE:HEADER_SIZE + body_len]
        nullifier = data[HEADER_SIZE + body_len:]
        proof = codec.decode(body)
        domain = domain.rstrip(".").lower()
        computed = compute_nullifier(kind, version, flags, statement, domain, body)
        if not hmac.compare_digest(nullifier, computed):
            NULLIFIER_REJECTED.inc()
            raise NullifierError(
                "envelope nullifier mismatch for %s (rebound or tampered)"
                % domain
            )
        _DECODED.inc()
        return ProofEnvelope(kind, version, flags, statement, body, domain,
                             nullifier, proof)
