"""PKCS#10 certificate signing requests (RFC 2986).

The NOPE tool embeds the encoded proof as extra SAN entries in the CSR
(Figure 2 step 3); the CA copies the requested SANs into the certificate
without understanding them (§6: "the ACME server is oblivious to the
proof").
"""

from ..errors import CertificateError, EncodingError
from . import oid as OID
from .asn1 import (
    DerReader,
    TAG_SEQUENCE,
    TAG_SET,
    encode_bit_string,
    encode_context,
    encode_integer,
    encode_oid,
    encode_sequence,
    encode_set,
    encode_tlv,
)
from .cert import (
    CERT_SIG_ALGS,
    Extension,
    Name,
    SubjectPublicKeyInfo,
    parse_san,
    require_canonical,
    san_extension,
    sig_alg_for_key,
)


class CertificateRequest:
    """A CSR: subject, SPKI, requested extensions, self-signature."""

    def __init__(self, subject, spki, extensions, signature_oid=None, signature=None):
        self.subject = subject
        self.spki = spki
        self.extensions = list(extensions)
        self.signature_oid = signature_oid
        self.signature = signature

    @classmethod
    def build(cls, common_name, public_key, san_names, extra_extensions=()):
        subject = Name.build(common_name=common_name)
        spki = SubjectPublicKeyInfo(public_key)
        exts = [san_extension(san_names)] + list(extra_extensions)
        return cls(subject, spki, exts)

    def san_names(self):
        for ext in self.extensions:
            if ext.oid == OID.OID_EXT_SAN:
                return parse_san(ext.value)
        return []

    def _info_der(self):
        ext_der = encode_sequence(*[e.to_der() for e in self.extensions])
        ext_request = encode_sequence(
            encode_oid(OID.OID_EXTENSION_REQUEST), encode_set(ext_der)
        )
        attributes = encode_context(0, ext_request)
        return encode_sequence(
            encode_integer(0),
            self.subject.to_der(),
            self.spki.to_der(),
            attributes,
        )

    def sign(self, private_key):
        """Self-sign (proves possession of the subject key)."""
        alg = sig_alg_for_key(private_key)
        self.signature_oid = alg.oid
        self.signature = alg.sign(private_key, self._info_der())
        return self

    def verify(self):
        """Check the self-signature against the embedded public key."""
        alg = CERT_SIG_ALGS.get(self.signature_oid)
        if alg is None or self.signature is None:
            raise CertificateError("CSR is unsigned or uses an unknown algorithm")
        alg.verify(self.spki.key, self._info_der(), self.signature)

    def to_der(self):
        if self.signature is None:
            raise CertificateError("CSR is unsigned")
        alg_der = encode_sequence(encode_oid(self.signature_oid))
        return encode_sequence(
            self._info_der(), alg_der, encode_bit_string(self.signature)
        )

    @classmethod
    def from_der(cls, data):
        """Parse DER, refusing any encoding but the canonical one."""
        outer = DerReader(data).read_sequence()
        _, info_raw = outer.read(TAG_SEQUENCE)
        info = DerReader(info_raw)
        version = info.read_integer()
        if version != 0:
            raise EncodingError("unsupported CSR version")
        _, subject_raw = info.read(TAG_SEQUENCE)
        subject = Name.from_der(encode_tlv(TAG_SEQUENCE, subject_raw))
        _, spki_raw = info.read(TAG_SEQUENCE)
        spki = SubjectPublicKeyInfo.from_der(encode_tlv(TAG_SEQUENCE, spki_raw))
        extensions = []
        if not info.exhausted:
            tag, attrs = info.read()
            if tag == 0xA0:
                attr = DerReader(attrs).read_sequence()
                attr_oid = attr.read_oid()
                if attr_oid == OID.OID_EXTENSION_REQUEST:
                    _, set_content = attr.read(TAG_SET)
                    ext_seq = DerReader(set_content).read_sequence()
                    while not ext_seq.exhausted:
                        extensions.append(Extension.from_der_reader(ext_seq))
        alg = outer.read_sequence()
        sig_oid = alg.read_oid()
        signature = outer.read_bit_string()
        return require_canonical(
            cls(subject, spki, extensions, sig_oid, signature), data
        )
