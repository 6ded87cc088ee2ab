"""Envelope <-> X.509 SAN transport.

The only sanctioned path between proof envelopes and certificate SANs.
Producers call :func:`envelope_to_sans`; consumers call
:func:`extract_proof`, which collects the domain's labels through
:mod:`repro.x509.san` and decodes them as one strict envelope.
"""

from ..errors import WireError
from ..x509.san import collect_chars, encode_sans
from .envelope import ProofEnvelope, decode_envelope, encode_envelope


class WirePayload:
    """What a certificate's SAN set said about one domain's proof."""

    __slots__ = ("envelope", "consumed")

    def __init__(self, envelope, consumed):
        #: the decoded :class:`ProofEnvelope`
        self.envelope = envelope
        #: which SAN names this payload was assembled from
        self.consumed = consumed

    @property
    def body(self):
        """Raw proof body bytes."""
        return self.envelope.body

    @property
    def managed(self):
        return self.envelope.managed

    @property
    def nullifier(self):
        return self.envelope.nullifier

    @property
    def proof(self):
        """The codec-decoded body (what the backend verifies)."""
        return self.envelope.proof


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
    return encode_sans(encode_envelope(env), domain)


def extract_proof(san_names, domain):
    """Decode the NOPE SAN set for ``domain`` into a :class:`WirePayload`.

    The nullifier is derived over *this* domain, so an envelope lifted
    from another domain's certificate decodes to a nullifier of its own
    and fails at the client's pairing, where the domain is a public input.
    """
    chars, consumed = collect_chars(san_names, domain)
    return WirePayload(decode_envelope(chars, domain), consumed)


def envelope_from_sans(san_names, domain):
    """The strictly decoded :class:`ProofEnvelope` for ``domain``."""
    return extract_proof(san_names, domain).envelope
