"""Envelope <-> X.509 SAN transport.

The only sanctioned path between proof envelopes and certificate SANs.
Producers call :func:`envelope_to_sans`; consumers call
:func:`extract_proof`, which understands both the version-1 envelope
payload and the legacy version-0 raw-proof payload and returns a uniform
:class:`WirePayload` view.
"""

from ..errors import EncodingError, WireError
from ..x509.san import (
    SAN_LAYOUTS,
    SAN_VERSION_ENVELOPE,
    SAN_VERSION_LEGACY,
    decode_payload_chars,
    encode_payload_sans,
    is_nope_san,
)
from ..x509 import san as _san
from .envelope import ProofEnvelope, decode_envelope, encode_envelope, envelope_size

#: both registered kinds carry a 128-byte body, so the SAN layout's fixed
#: envelope payload size must match envelope_size(128)
assert SAN_LAYOUTS[SAN_VERSION_ENVELOPE].payload_bytes == envelope_size(128)


class WirePayload:
    """What a certificate's SAN set said about one domain's proof."""

    __slots__ = ("san_version", "envelope", "body", "managed", "consumed")

    def __init__(self, san_version, envelope, body, managed, consumed):
        #: SAN payload version (0 legacy, 1 envelope)
        self.san_version = san_version
        #: the decoded :class:`ProofEnvelope`, or None for legacy payloads
        self.envelope = envelope
        #: raw proof body bytes (what the backend verifies)
        self.body = body
        #: the managed-statement flag (envelope flag bit / legacy metadata)
        self.managed = managed
        #: which SAN names this payload was assembled from
        self.consumed = consumed

    @property
    def nullifier(self):
        return self.envelope.nullifier if self.envelope is not None else None

    @property
    def proof(self):
        """The codec-decoded body, or None for legacy payloads (whose kind
        only the verifying backend knows)."""
        return self.envelope.proof if self.envelope is not None else None


def envelope_to_sans(env, domain=None):
    """Encode an envelope into its SAN hostname set."""
    if not isinstance(env, ProofEnvelope):
        raise WireError("envelope_to_sans wants a ProofEnvelope")
    domain = (domain or env.domain).rstrip(".")
    if domain != env.domain:
        raise WireError(
            "envelope sealed for %s cannot be emitted under %s"
            % (env.domain, domain)
        )
    return encode_payload_sans(encode_envelope(env), domain, SAN_VERSION_ENVELOPE)


def _consumed_names(san_names, domain):
    suffix = "." + domain.rstrip(".")
    out = []
    for name in san_names:
        if is_nope_san(name) and name.endswith(suffix):
            labels = name[: -len(suffix)].split(".")[1:]
            if labels and all(
                len(l) == _san.LABEL_LEN
                and all(c in _san._CHAR_INDEX for c in l)
                for l in labels
            ):
                out.append(name)
    return out


def extract_proof(san_names, domain):
    """Decode the NOPE SAN set for ``domain`` into a :class:`WirePayload`.

    Version-1 payloads are decoded as strict envelopes — which recomputes
    the nullifier over *this* domain, so an envelope lifted from another
    domain's certificate is rejected here with
    :class:`repro.errors.NullifierError`.  Version-0 payloads fall back to
    the legacy raw-proof view (no envelope, no nullifier).
    """
    chars = _san._collect_payload_chars(san_names, domain)
    version, payload, metadata = decode_payload_chars(chars)
    consumed = _consumed_names(san_names, domain)
    if version == SAN_VERSION_LEGACY:
        return WirePayload(version, None, payload, metadata == 1, consumed)
    env = decode_envelope(payload, domain)
    return WirePayload(version, env, env.body, env.managed, consumed)


def envelope_from_sans(san_names, domain):
    """Strict envelope extraction (rejects legacy version-0 payloads)."""
    payload = extract_proof(san_names, domain)
    if payload.envelope is None:
        raise WireError(
            "SAN set for %s carries a legacy version-0 proof, not an envelope"
            % domain
        )
    return payload.envelope
