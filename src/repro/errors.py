"""Exception hierarchy for the NOPE reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can distinguish library failures from programming errors.  Protocol
verification failures (certificate rejected, proof rejected, signature bad)
derive from :class:`VerificationError`; they indicate that the *input* was
invalid, not that the library malfunctioned.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class FieldError(ReproError):
    """Invalid finite-field operation (e.g. inverse of zero)."""


class CurveError(ReproError):
    """Invalid elliptic-curve operation or point not on the curve."""


class EncodingError(ReproError):
    """Malformed serialized data (DER, DNS wire format, SAN encoding...)."""


class WireError(EncodingError):
    """Malformed canonical proof envelope (bad tag, version, framing...)."""


class SynthesisError(ReproError):
    """Constraint-system construction failed (bad gadget inputs, overflow)."""


class UnsatisfiedError(SynthesisError):
    """A constraint system is not satisfied by its assignment."""


class ProvingError(ReproError):
    """Succinct-proof generation failed."""


class VerificationError(ReproError):
    """A signature, proof, certificate, or chain failed verification."""


class SignatureError(VerificationError):
    """A digital signature failed to verify."""


class ProofError(VerificationError):
    """A succinct proof failed to verify."""


class CertificateError(VerificationError):
    """An X.509 certificate or chain failed validation."""


class DnssecError(VerificationError):
    """A DNSSEC record, signature, or chain failed validation."""


class ProtocolError(ReproError):
    """A simulated protocol party received an ill-formed message."""


class AcmeError(ProtocolError):
    """ACME issuance failed (challenge mismatch, validation failure...)."""


class RevocationError(ProtocolError):
    """A revocation operation was rejected (e.g. CA refuses)."""
