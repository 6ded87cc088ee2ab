"""Tests for ASN.1/DER, certificates, CSRs, SAN proof encoding, validation."""

import random
import secrets

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import TOY29
from repro.errors import CertificateError, EncodingError, ReproError
from repro.sig import EcdsaPrivateKey
from repro.x509 import (
    Certificate,
    CertificateRequest,
    Name,
    SubjectPublicKeyInfo,
    aia_ocsp_extension,
    basic_constraints_extension,
    chain_wire_size,
    hostname_matches,
    is_nope_san,
    key_usage_extension,
    parse_aia_ocsp,
    parse_sct_list,
    parse_tree,
    san_extension,
    sct_list_extension,
    validate_chain,
)
from repro.x509.asn1 import (
    DerReader,
    decode_oid_body,
    decode_utctime,
    encode_integer,
    encode_oid,
    encode_sequence,
    encode_utctime,
    read_tlv,
)
from repro.wire import KIND_SIMULATION, VERSION_TOY, encode_envelope, extract_proof, seal
from repro.wire.envelope import ENVELOPE_CHARS
from repro.wire.golden import _det_groth16_body
from repro.x509 import san


class TestAsn1:
    @given(st.integers(min_value=0, max_value=1 << 256))
    @settings(max_examples=30, deadline=None)
    def test_integer_roundtrip(self, n):
        reader = DerReader(encode_integer(n))
        assert reader.read_integer() == n

    def test_integer_msb_padding(self):
        # 128 needs a leading zero byte in DER
        assert encode_integer(128) == b"\x02\x02\x00\x80"

    @given(st.lists(st.integers(min_value=0, max_value=99999), min_size=0, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_oid_roundtrip(self, arcs):
        dotted = ".".join(str(a) for a in [1, 2] + arcs)
        tag, content, _, _ = read_tlv(encode_oid(dotted))
        assert decode_oid_body(content) == dotted

    def test_long_length_encoding(self):
        data = encode_sequence(encode_integer(0) * 100)
        tag, content, nxt, _ = read_tlv(data)
        assert nxt == len(data)
        assert len(content) == 300

    def test_utctime_roundtrip(self):
        epoch = 1730000000
        tag, content, _, _ = read_tlv(encode_utctime(epoch))
        assert decode_utctime(content) == epoch

    def test_truncated_rejected(self):
        with pytest.raises(EncodingError):
            read_tlv(b"\x30\x05\x01")

    def test_parse_tree_sizes(self):
        data = encode_sequence(encode_integer(5), encode_integer(600))
        nodes = parse_tree(data)
        assert len(nodes) == 1
        assert nodes[0].total_len == len(data)
        assert len(nodes[0].children) == 2


KEY = EcdsaPrivateKey.generate(TOY29)
CA_KEY = EcdsaPrivateKey.generate(TOY29)


def make_ca_cert(subject_cn="Test Root", key=None, not_before=1000, not_after=10**10):
    key = key or CA_KEY
    name = Name.build(common_name=subject_cn, organization="Repro CA")
    cert = Certificate(
        serial=Certificate.new_serial(),
        issuer=name,
        subject=name,
        spki=SubjectPublicKeyInfo(key.public_key),
        not_before=not_before,
        not_after=not_after,
        extensions=[basic_constraints_extension(True), key_usage_extension()],
    )
    return cert.sign(key)


def make_leaf(ca_cert, ca_key, cn="example.com", sans=None, not_before=1000, not_after=10**10):
    cert = Certificate(
        serial=Certificate.new_serial(),
        issuer=ca_cert.subject,
        subject=Name.build(common_name=cn),
        spki=SubjectPublicKeyInfo(KEY.public_key),
        not_before=not_before,
        not_after=not_after,
        extensions=[
            san_extension(sans or [cn]),
            basic_constraints_extension(False),
            aia_ocsp_extension("http://ocsp.repro.test"),
        ],
    )
    return cert.sign(ca_key)


class TestCertificate:
    def test_der_roundtrip(self):
        ca = make_ca_cert()
        leaf = make_leaf(ca, CA_KEY, sans=["example.com", "www.example.com"])
        parsed = Certificate.from_der(leaf.to_der())
        assert parsed.serial == leaf.serial
        assert parsed.subject.common_name == "example.com"
        assert parsed.san_names() == ["example.com", "www.example.com"]
        assert parsed.not_before == leaf.not_before
        assert parsed.tls_key_bytes == leaf.tls_key_bytes
        parsed.verify_signature(CA_KEY.public_key)

    def test_mutated_der_parses_or_raises_repro_error(self):
        # untrusted DER either decodes or raises a ReproError subclass:
        # bad UTF-8 names, non-ASCII or malformed UTCTime must not leak
        # UnicodeDecodeError / ValueError
        der = make_leaf(make_ca_cert(), CA_KEY).to_der()
        rng = random.Random(7)
        for _ in range(3000):
            buf = bytearray(der)
            for _ in range(rng.randint(1, 4)):
                buf[rng.randrange(len(buf))] = rng.randrange(256)
            try:
                parsed = Certificate.from_der(bytes(buf))
                parsed.san_names()
                aia = parsed.extension("1.3.6.1.5.5.7.1.1")
                if aia is not None:
                    parse_aia_ocsp(aia.value)
            except ReproError:
                pass

    def test_signature_tamper_detected(self):
        ca = make_ca_cert()
        leaf = make_leaf(ca, CA_KEY)
        leaf.not_after += 1  # mutate TBS after signing
        with pytest.raises(CertificateError):
            leaf.verify_signature(CA_KEY.public_key)

    def test_aia_parse(self):
        ca = make_ca_cert()
        leaf = make_leaf(ca, CA_KEY)
        ext = leaf.extension("1.3.6.1.5.5.7.1.1")
        assert parse_aia_ocsp(ext.value) == "http://ocsp.repro.test"

    def test_sct_list_roundtrip(self):
        scts = [b"sct-one", b"sct-two-longer"]
        ext = sct_list_extension(scts)
        assert parse_sct_list(ext.value) == scts

    def test_rsa_spki_roundtrip(self):
        from repro.sig import RsaPrivateKey

        rsa = RsaPrivateKey.generate(bits=256)
        spki = SubjectPublicKeyInfo(rsa.public_key)
        parsed = SubjectPublicKeyInfo.from_der(spki.to_der())
        assert parsed.key == rsa.public_key


def _mutants(der, count, seed):
    """``count`` copies of ``der``, each with 1-4 bytes overwritten."""
    rng = random.Random(seed)
    for _ in range(count):
        buf = bytearray(der)
        for _ in range(rng.randint(1, 4)):
            buf[rng.randrange(len(buf))] = rng.randrange(256)
        yield bytes(buf)


class TestCanonicalDer:
    """Untrusted certificates and CSRs decode only from the one canonical
    DER of what they parse to; any other byte form raises."""

    @staticmethod
    def _csr():
        csr = CertificateRequest.build(
            "example.com", KEY.public_key, ["example.com", "www.example.com"]
        )
        return csr.sign(KEY)

    @pytest.mark.parametrize("kind", ["certificate", "csr"])
    def test_mutants_reencode_identically_or_raise(self, kind):
        if kind == "certificate":
            parse, der = Certificate.from_der, make_leaf(
                make_ca_cert(), CA_KEY).to_der()
        else:
            parse, der = CertificateRequest.from_der, self._csr().to_der()
        parsed_count = 0
        for data in _mutants(der, 1500, seed=0x4445):
            try:
                parsed = parse(data)
            except ReproError:
                continue
            parsed_count += 1
            assert parsed.to_der() == data
        # some mutants (payload bytes) still parse; the check is not vacuous
        assert parsed_count > 0

    def test_rewritten_tags_refused(self):
        der = make_leaf(make_ca_cert(), CA_KEY).to_der()
        # the explicit version INTEGER: a0 03 02 01 02 -> tag 0xd3
        at = der.index(b"\xa0\x03\x02\x01\x02") + 2
        # the subject CN UTF8String "example.com" -> tag 0x52
        cn = der.index(b"\x0c\x0bexample.com")
        for index, tag in ((at, 0xD3), (cn, 0x52)):
            mutant = der[:index] + bytes([tag]) + der[index + 1:]
            with pytest.raises(EncodingError, match="non-canonical"):
                Certificate.from_der(mutant)
        csr = self._csr().to_der()
        cn = csr.index(b"\x0c\x0bexample.com")
        with pytest.raises(EncodingError, match="non-canonical"):
            CertificateRequest.from_der(csr[:cn] + b"\x52" + csr[cn + 1:])

    def test_serials_have_one_der_length(self):
        lengths = {len(encode_integer(Certificate.new_serial()))
                   for _ in range(1000)}
        assert lengths == {17}  # tag, length, 15 content bytes


class TestCsr:
    def test_build_sign_verify_roundtrip(self):
        csr = CertificateRequest.build(
            "example.com", KEY.public_key, ["example.com", "n0pe.xx.example.com"]
        )
        csr.sign(KEY)
        csr.verify()
        parsed = CertificateRequest.from_der(csr.to_der())
        assert parsed.subject.common_name == "example.com"
        assert parsed.san_names() == ["example.com", "n0pe.xx.example.com"]
        parsed.verify()

    def test_wrong_key_signature_rejected(self):
        csr = CertificateRequest.build("example.com", KEY.public_key, ["example.com"])
        csr.sign(CA_KEY)  # signed by a key that doesn't match the SPKI
        with pytest.raises(Exception):
            csr.verify()


def _payload(size=200):
    """``size`` random base-37 chars (a stand-in for an envelope's text)."""
    return "".join(secrets.choice(san.ALPHABET) for _ in range(size))


class TestSanEncoding:
    def test_char_roundtrip(self):
        body = secrets.token_bytes(128)
        chars = san.encode_base37(body, 197)
        assert len(chars) == 197
        assert san.decode_base37(chars, 128) == body

    def test_paper_character_budget(self):
        # 197 base-37 chars hold any 1024-bit value (paper App. D), and
        # version + metadata + body + checksum fill four whole labels
        assert san.chars_for_bytes(128) == 197
        assert san.encode_base37(b"\xff" * 128, 197)
        assert ENVELOPE_CHARS == 197 + 3 == 4 * san.LABEL_LEN

    def test_checksum_detects_corruption(self):
        chars = _payload(199)
        bad = "a" if chars[5] != "a" else "b"
        corrupted = chars[:5] + bad + chars[6:]
        assert san.checksum(corrupted) != san.checksum(chars)

    def test_san_roundtrip_short_domain(self):
        chars = _payload()
        sans = san.encode_sans(chars, "example.com")
        assert len(sans) == 1
        assert sans[0].startswith("n0pe.")
        assert sans[0].endswith(".example.com")
        assert len(sans[0]) <= 253
        assert san.collect_chars(sans + ["example.com"], "example.com") == (
            chars, sans
        )

    def test_san_multi_fragment_long_domain(self):
        long_domain = ("a" * 40 + ".") * 2 + "example.com"
        chars = _payload()
        sans = san.encode_sans(chars, long_domain)
        assert len(sans) >= 2
        assert sans[0].startswith("n0pe.") and sans[1].startswith("n1pe.")
        assert all(len(s) <= 253 for s in sans)
        assert san.collect_chars(sans, long_domain)[0] == chars

    def test_missing_fragment_detected(self):
        long_domain = ("a" * 40 + ".") * 2 + "example.com"
        sans = san.encode_sans(_payload(), long_domain)
        with pytest.raises(EncodingError, match="missing"):
            san.collect_chars(sans[1:], long_domain)

    def test_metadata_out_of_range_rejected(self):
        # kind * 4 + version * 2 + managed: only kinds 1-2 and versions
        # 0-1 are assigned; every other metadata char is refused by name
        # a body both kinds accept (three canonical points)
        body = _det_groth16_body(b"meta")
        text = encode_envelope(
            seal(KIND_SIMULATION, VERSION_TOY, body, "example.com")
        )
        assigned = set()
        for meta in san.ALPHABET:
            chars = text[0] + meta + text[2:-1]
            sans = san.encode_sans(chars + san.checksum(chars), "example.com")
            try:
                got = extract_proof(sans, "example.com").envelope
            except EncodingError as exc:
                assert "unknown proof kind" in str(exc) or "version" in str(exc)
                continue
            assigned.add((got.kind, got.version, got.managed))
        assert assigned == {(k, v, m) for k in (1, 2) for v in (0, 1)
                            for m in (False, True)}

    def test_subdomain_sans_not_absorbed_into_parent(self):
        # regression: decode for example.com used to absorb sub.example.com
        # fragments via endswith() and garble the payload
        chars = _payload()
        sub_sans = san.encode_sans(chars, "sub.example.com")
        assert all(s.endswith(".example.com") for s in sub_sans)
        with pytest.raises(EncodingError):
            san.collect_chars(sub_sans, "example.com")
        assert san.collect_chars(sub_sans, "sub.example.com")[0] == chars

    def test_is_nope_san(self):
        assert is_nope_san("n0pe.aaa.example.com")
        assert is_nope_san("n1pe.bbb.example.com")
        assert not is_nope_san("nope.example.com")
        assert not is_nope_san("example.com")
        assert not is_nope_san("n\u00b2pe.aaa.example.com")

    def test_no_nope_entries(self):
        with pytest.raises(EncodingError):
            san.collect_chars(["example.com"], "example.com")


class TestValidation:
    def test_valid_chain(self):
        ca = make_ca_cert()
        leaf = make_leaf(ca, CA_KEY)
        validate_chain([leaf], [ca], "example.com", now=5000)

    def test_wildcard_match(self):
        assert hostname_matches("*.example.com", "www.example.com")
        assert not hostname_matches("*.example.com", "example.com")
        assert not hostname_matches("*.example.com", "a.b.example.com")

    def test_untrusted_root_rejected(self):
        ca = make_ca_cert()
        other = make_ca_cert("Other Root", EcdsaPrivateKey.generate(TOY29))
        leaf = make_leaf(ca, CA_KEY)
        with pytest.raises(CertificateError, match="trusted root"):
            validate_chain([leaf], [other], "example.com", now=5000)

    def test_expired_rejected(self):
        ca = make_ca_cert()
        leaf = make_leaf(ca, CA_KEY, not_after=4000)
        with pytest.raises(CertificateError, match="validity"):
            validate_chain([leaf], [ca], "example.com", now=5000)

    def test_name_mismatch_rejected(self):
        ca = make_ca_cert()
        leaf = make_leaf(ca, CA_KEY)
        with pytest.raises(CertificateError, match="SAN"):
            validate_chain([leaf], [ca], "other.com", now=5000)

    def test_intermediate_chain(self):
        root_key = EcdsaPrivateKey.generate(TOY29)
        root = make_ca_cert("Deep Root", root_key)
        inter_key = EcdsaPrivateKey.generate(TOY29)
        inter = Certificate(
            serial=Certificate.new_serial(),
            issuer=root.subject,
            subject=Name.build(common_name="Intermediate", organization="Repro CA"),
            spki=SubjectPublicKeyInfo(inter_key.public_key),
            not_before=1000,
            not_after=10**10,
            extensions=[basic_constraints_extension(True)],
        ).sign(root_key)
        leaf = make_leaf(inter, inter_key)
        validate_chain([leaf, inter], [root], "example.com", now=5000)
        assert chain_wire_size([leaf, inter]) > 300

    def test_non_ca_issuer_rejected(self):
        root_key = EcdsaPrivateKey.generate(TOY29)
        root = make_ca_cert("Root2", root_key)
        fake_inter_key = EcdsaPrivateKey.generate(TOY29)
        fake_inter = make_leaf(root, root_key, cn="innocent.com", sans=["innocent.com"])
        # leaf "signed" by the non-CA cert's key
        leaf = make_leaf(fake_inter, fake_inter_key)
        leaf.issuer = fake_inter.subject
        leaf.sign(fake_inter_key)
        with pytest.raises(CertificateError, match="not a CA"):
            validate_chain([leaf, fake_inter], [root], "example.com", now=5000)

    def test_precertificate_rejected_by_clients(self):
        from repro.x509 import ct_poison_extension

        ca = make_ca_cert()
        pre = Certificate(
            serial=Certificate.new_serial(),
            issuer=ca.subject,
            subject=Name.build(common_name="example.com"),
            spki=SubjectPublicKeyInfo(KEY.public_key),
            not_before=1000,
            not_after=10**10,
            extensions=[san_extension(["example.com"]), ct_poison_extension()],
        ).sign(CA_KEY)
        with pytest.raises(CertificateError, match="precertificate"):
            validate_chain([pre], [ca], "example.com", now=5000)
