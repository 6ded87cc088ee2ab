"""X.509 v3 certificates: construction, DER encoding/decoding, signing.

Real DER throughout, so Figure 7's byte-level decomposition measures
genuine structures.  The certificate profile mirrors what a Let's Encrypt
subscriber certificate carries: serial, names, validity, SPKI, and the
extension set (SAN, key usage, basic constraints, AIA/OCSP, SCT list).
"""

import secrets

from ..ec import P256, TOY29
from ..errors import CertificateError, EncodingError, SignatureError
from ..hashes.sha256 import sha256
from ..hashes.toyhash import toyhash
from ..sig.ecdsa import EcdsaPrivateKey, EcdsaPublicKey, bits2int
from ..sig.rsa import RsaPrivateKey, RsaPublicKey
from . import oid as OID
from .asn1 import (
    DerReader,
    TAG_BIT_STRING,
    TAG_BOOLEAN,
    TAG_INTEGER,
    TAG_OCTET_STRING,
    TAG_SEQUENCE,
    decode_text,
    decode_utctime,
    encode_bit_string,
    encode_boolean,
    encode_context,
    encode_ia5,
    encode_integer,
    encode_null,
    encode_octet_string,
    encode_oid,
    encode_printable,
    encode_sequence,
    encode_set,
    encode_tlv,
    encode_utctime,
    encode_utf8,
    read_tlv,
)

# -- names -------------------------------------------------------------------


class Name:
    """An X.501 name as an ordered list of (oid, text) attributes."""

    def __init__(self, attributes):
        self.attributes = list(attributes)

    @classmethod
    def build(cls, common_name=None, organization=None, country=None):
        attrs = []
        if country:
            attrs.append((OID.OID_COUNTRY, country))
        if organization:
            attrs.append((OID.OID_ORGANIZATION, organization))
        if common_name:
            attrs.append((OID.OID_COMMON_NAME, common_name))
        return cls(attrs)

    def get(self, oid):
        for o, text in self.attributes:
            if o == oid:
                return text
        return None

    @property
    def common_name(self):
        return self.get(OID.OID_COMMON_NAME)

    @property
    def organization(self):
        return self.get(OID.OID_ORGANIZATION)

    def to_der(self):
        rdns = []
        for o, text in self.attributes:
            encoder = encode_printable if o == OID.OID_COUNTRY else encode_utf8
            rdns.append(encode_set(encode_sequence(encode_oid(o), encoder(text))))
        return encode_sequence(*rdns)

    @classmethod
    def from_der(cls, data):
        reader = DerReader(data)
        seq = reader.read_sequence()
        attrs = []
        while not seq.exhausted:
            _, set_content = seq.read()
            inner = DerReader(set_content).read_sequence()
            o = inner.read_oid()
            _, text = inner.read()
            attrs.append((o, decode_text(text, "utf-8")))
        return cls(attrs)

    def __eq__(self, other):
        return isinstance(other, Name) and self.attributes == other.attributes

    def __repr__(self):
        return "Name(%s)" % ", ".join("%s=%s" % (o, t) for o, t in self.attributes)


# -- public keys ----------------------------------------------------------------

_EC_CURVES = {OID.OID_P256: P256, OID.OID_TOY29: TOY29}
_EC_OIDS = {P256.name: OID.OID_P256, TOY29.name: OID.OID_TOY29}


class SubjectPublicKeyInfo:
    """The SPKI: algorithm identifier + encoded public key."""

    def __init__(self, key):
        self.key = key

    @property
    def is_ec(self):
        return isinstance(self.key, EcdsaPublicKey)

    def raw_key_bytes(self):
        """The canonical 'TLS key T' bytes used as a NOPE public input."""
        if self.is_ec:
            return self.key.point.encode(compressed=False)
        return encode_sequence(
            encode_integer(self.key.n), encode_integer(self.key.e)
        )

    def to_der(self):
        if self.is_ec:
            alg = encode_sequence(
                encode_oid(OID.OID_EC_PUBLIC_KEY),
                encode_oid(_EC_OIDS[self.key.curve.name]),
            )
            return encode_sequence(alg, encode_bit_string(self.raw_key_bytes()))
        alg = encode_sequence(encode_oid(OID.OID_RSA_ENCRYPTION), encode_null())
        return encode_sequence(alg, encode_bit_string(self.raw_key_bytes()))

    @classmethod
    def from_der(cls, data):
        outer = DerReader(data).read_sequence()
        alg = outer.read_sequence()
        alg_oid = alg.read_oid()
        key_bytes = outer.read_bit_string()
        if alg_oid == OID.OID_EC_PUBLIC_KEY:
            curve_oid = alg.read_oid()
            curve = _EC_CURVES.get(curve_oid)
            if curve is None:
                raise CertificateError("unknown curve OID %s" % curve_oid)
            from ..ec.curve import Point

            return cls(EcdsaPublicKey(curve, Point.decode(curve, key_bytes)))
        if alg_oid == OID.OID_RSA_ENCRYPTION:
            inner = DerReader(key_bytes).read_sequence()
            return cls(RsaPublicKey(inner.read_integer(), inner.read_integer()))
        raise CertificateError("unknown key algorithm %s" % alg_oid)


# -- signature algorithms ---------------------------------------------------------


def _ecdsa_sig_to_der(sig):
    r, s = sig
    return encode_sequence(encode_integer(r), encode_integer(s))


def _ecdsa_sig_from_der(data):
    reader = DerReader(data).read_sequence()
    return reader.read_integer(), reader.read_integer()


class _CertSigAlg:
    def __init__(self, oid_str, hash_fn, is_ec):
        self.oid = oid_str
        self.hash_fn = hash_fn
        self.is_ec = is_ec

    def sign(self, private, data):
        if self.is_ec:
            return _ecdsa_sig_to_der(private.sign(self.hash_fn(data)))
        return private.sign(data, scheme="pkcs1v15-sha256")

    def verify(self, public, data, signature):
        if self.is_ec:
            public.verify(self.hash_fn(data), _ecdsa_sig_from_der(signature))
        else:
            public.verify(data, signature, scheme="pkcs1v15-sha256")


CERT_SIG_ALGS = {
    OID.OID_ECDSA_SHA256: _CertSigAlg(OID.OID_ECDSA_SHA256, sha256, True),
    OID.OID_TOY_ECDSA_SIG: _CertSigAlg(
        OID.OID_TOY_ECDSA_SIG, lambda d: toyhash(d), True
    ),
    OID.OID_RSA_SHA256: _CertSigAlg(OID.OID_RSA_SHA256, None, False),
}


def sig_alg_for_key(private):
    if isinstance(private, EcdsaPrivateKey):
        if private.curve.name == TOY29.name:
            return CERT_SIG_ALGS[OID.OID_TOY_ECDSA_SIG]
        return CERT_SIG_ALGS[OID.OID_ECDSA_SHA256]
    if isinstance(private, RsaPrivateKey):
        return CERT_SIG_ALGS[OID.OID_RSA_SHA256]
    raise CertificateError("unsupported signing key type")


# -- extensions ---------------------------------------------------------------------


class Extension:
    def __init__(self, oid_str, value, critical=False):
        self.oid = oid_str
        self.value = value
        self.critical = critical

    def to_der(self):
        parts = [encode_oid(self.oid)]
        if self.critical:
            parts.append(encode_boolean(True))
        parts.append(encode_octet_string(self.value))
        return encode_sequence(*parts)

    @classmethod
    def from_der_reader(cls, reader):
        seq = reader.read_sequence()
        oid_str = seq.read_oid()
        critical = False
        if not seq.exhausted and seq.peek_tag() == TAG_BOOLEAN:
            _, content = seq.read()
            critical = content == b"\xff"
        value = seq.read_octet_string()
        return cls(oid_str, value, critical)


def san_extension(dns_names, critical=False):
    names = b"".join(
        encode_context(2, name.encode("ascii"), constructed=False)
        for name in dns_names
    )
    return Extension(OID.OID_EXT_SAN, encode_tlv(TAG_SEQUENCE, names), critical)


def parse_san(value):
    reader = DerReader(value)
    _, content = reader.read(TAG_SEQUENCE)
    inner = DerReader(content)
    names = []
    while not inner.exhausted:
        tag, body = inner.read()
        if tag == 0x82:  # context [2] primitive: dNSName
            names.append(decode_text(body))
    return names


def basic_constraints_extension(is_ca):
    content = encode_sequence(encode_boolean(True)) if is_ca else encode_sequence()
    return Extension(OID.OID_EXT_BASIC_CONSTRAINTS, content, critical=True)


def parse_basic_constraints(value):
    reader = DerReader(value)
    _, content = reader.read(TAG_SEQUENCE)
    inner = DerReader(content)
    if inner.exhausted:
        return False
    tag, body = inner.read()
    return tag == TAG_BOOLEAN and body == b"\xff"


def key_usage_extension(bits=0b10000000):
    # digitalSignature by default
    return Extension(
        OID.OID_EXT_KEY_USAGE, encode_bit_string(bytes([bits]), 0), critical=True
    )


def aia_ocsp_extension(url):
    access = encode_sequence(
        encode_oid(OID.OID_AIA_OCSP),
        encode_context(6, url.encode("ascii"), constructed=False),
    )
    return Extension(OID.OID_EXT_AIA, encode_sequence(access))


def parse_aia_ocsp(value):
    outer = DerReader(value).read_sequence()
    while not outer.exhausted:
        access = outer.read_sequence()
        method = access.read_oid()
        tag, body = access.read()
        if method == OID.OID_AIA_OCSP and tag == 0x86:
            return decode_text(body)
    return None


def sct_list_extension(serialized_scts):
    """The SignedCertificateTimestampList extension (RFC 6962 §3.3)."""
    body = bytearray()
    for sct in serialized_scts:
        body.extend(len(sct).to_bytes(2, "big"))
        body.extend(sct)
    tls_list = len(body).to_bytes(2, "big") + bytes(body)
    return Extension(OID.OID_EXT_SCT_LIST, encode_octet_string(tls_list))


def parse_sct_list(value):
    inner = DerReader(value).read_octet_string()
    if len(inner) < 2:
        raise EncodingError("truncated SCT list")
    total = int.from_bytes(inner[:2], "big")
    body = inner[2 : 2 + total]
    scts = []
    pos = 0
    while pos < len(body):
        n = int.from_bytes(body[pos : pos + 2], "big")
        pos += 2
        scts.append(body[pos : pos + n])
        pos += n
    return scts


def ct_poison_extension():
    return Extension(OID.OID_EXT_CT_POISON, encode_null(), critical=True)


# -- the certificate ----------------------------------------------------------------


class Certificate:
    """An X.509 v3 certificate (or precertificate, if poisoned)."""

    def __init__(
        self,
        serial,
        issuer,
        subject,
        spki,
        not_before,
        not_after,
        extensions,
        signature_oid=None,
        signature=None,
    ):
        self.serial = serial
        self.issuer = issuer
        self.subject = subject
        self.spki = spki
        self.not_before = not_before
        self.not_after = not_after
        self.extensions = list(extensions)
        self.signature_oid = signature_oid
        self.signature = signature

    @staticmethod
    def new_serial():
        return secrets.randbits(120)

    # -- structure helpers --------------------------------------------------

    def extension(self, oid_str):
        for ext in self.extensions:
            if ext.oid == oid_str:
                return ext
        return None

    def san_names(self):
        ext = self.extension(OID.OID_EXT_SAN)
        return parse_san(ext.value) if ext else []

    def is_precertificate(self):
        return self.extension(OID.OID_EXT_CT_POISON) is not None

    def without_extension(self, oid_str):
        return [e for e in self.extensions if e.oid != oid_str]

    @property
    def tls_key_bytes(self):
        return self.spki.raw_key_bytes()

    # -- DER ------------------------------------------------------------------

    def _alg_der(self):
        if self.signature_oid == OID.OID_RSA_SHA256:
            return encode_sequence(encode_oid(self.signature_oid), encode_null())
        return encode_sequence(encode_oid(self.signature_oid))

    def tbs_der(self):
        if self.signature_oid is None:
            raise CertificateError("signature algorithm not set")
        ext_der = encode_sequence(*[e.to_der() for e in self.extensions])
        return encode_sequence(
            encode_context(0, encode_integer(2)),  # version v3
            encode_integer(self.serial),
            self._alg_der(),
            self.issuer.to_der(),
            encode_sequence(
                encode_utctime(self.not_before), encode_utctime(self.not_after)
            ),
            self.subject.to_der(),
            self.spki.to_der(),
            encode_context(3, ext_der),
        )

    def sign(self, ca_private):
        alg = sig_alg_for_key(ca_private)
        self.signature_oid = alg.oid
        self.signature = alg.sign(ca_private, self.tbs_der())
        return self

    def verify_signature(self, ca_public):
        alg = CERT_SIG_ALGS.get(self.signature_oid)
        if alg is None:
            raise CertificateError("unknown signature algorithm")
        try:
            alg.verify(ca_public, self.tbs_der(), self.signature)
        except SignatureError as exc:
            raise CertificateError("certificate signature invalid: %s" % exc) from exc

    def to_der(self):
        if self.signature is None:
            raise CertificateError("certificate is unsigned")
        return encode_sequence(
            self.tbs_der(), self._alg_der(), encode_bit_string(self.signature)
        )

    @classmethod
    def from_der(cls, data):
        outer = DerReader(data).read_sequence()
        _, tbs_content = outer.read(TAG_SEQUENCE)
        tbs = DerReader(tbs_content)
        tag, _ = tbs.read()  # version [0]
        if tag != 0xA0:
            raise EncodingError("expected explicit version")
        serial = tbs.read_integer()
        alg = tbs.read_sequence()
        sig_oid = alg.read_oid()
        _, issuer_raw = tbs.read(TAG_SEQUENCE)
        issuer = Name.from_der(encode_tlv(TAG_SEQUENCE, issuer_raw))
        validity = tbs.read_sequence()
        _, nb = validity.read()
        _, na = validity.read()
        not_before = decode_utctime(nb)
        not_after = decode_utctime(na)
        _, subject_raw = tbs.read(TAG_SEQUENCE)
        subject = Name.from_der(encode_tlv(TAG_SEQUENCE, subject_raw))
        _, spki_raw = tbs.read(TAG_SEQUENCE)
        spki = SubjectPublicKeyInfo.from_der(encode_tlv(TAG_SEQUENCE, spki_raw))
        extensions = []
        while not tbs.exhausted:
            tag = tbs.peek_tag()
            _, ext_wrapper = tbs.read()
            if tag == 0xA3:
                ext_seq = DerReader(ext_wrapper).read_sequence()
                while not ext_seq.exhausted:
                    extensions.append(Extension.from_der_reader(ext_seq))
        alg2 = outer.read_sequence()
        sig_oid2 = alg2.read_oid()
        if sig_oid2 != sig_oid:
            raise EncodingError("signature algorithm mismatch")
        signature = outer.read_bit_string()
        return cls(
            serial,
            issuer,
            subject,
            spki,
            not_before,
            not_after,
            extensions,
            sig_oid,
            signature,
        )

    def __repr__(self):
        return "Certificate(subject=%s serial=%x)" % (
            self.subject.common_name,
            self.serial,
        )
