"""Cross-module property-based tests (hypothesis) on the invariants the
protocol depends on: encodings round-trip, canonical forms are stable,
and binding values never collide across distinct inputs in practice."""

import secrets

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.common import truncate_timestamp
from repro.dns.name import DomainName
from repro.dns.records import DnskeyData, DsData, ResourceRecord, RrsigData, TxtData, TYPE_TXT
from repro.ec import TOY29
from repro.errors import EncodingError
from repro.groth16 import g1_from_bytes, g1_to_bytes
from repro.x509.asn1 import DerReader, encode_integer, encode_octet_string, encode_sequence, read_tlv
from repro.wire import (
    KIND_GROTH16,
    KIND_SIMULATION,
    VERSION_PRODUCTION,
    VERSION_TOY,
    decode_envelope,
    encode_envelope,
    envelope_to_sans,
    extract_proof,
    seal,
)
from repro.wire.golden import _det_groth16_body
from repro.x509.san import ALPHABET, checksum, encode_sans

label_st = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
).filter(lambda s: not s.startswith("-") and not s.endswith("-"))


@given(st.lists(label_st, min_size=0, max_size=4))
@settings(max_examples=40, deadline=None)
def test_domain_name_wire_roundtrip(labels):
    name = DomainName(tuple(l.encode() for l in labels))
    parsed, consumed = DomainName.from_wire(name.to_wire())
    assert parsed == name
    assert consumed == len(name.to_wire())


@given(st.lists(label_st, min_size=1, max_size=4), st.lists(label_st, min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_canonical_ordering_total(labels_a, labels_b):
    a = DomainName(tuple(l.encode() for l in labels_a))
    b = DomainName(tuple(l.encode() for l in labels_b))
    # trichotomy under the RFC 4034 ordering
    assert (a < b) + (b < a) + (a == b) == 1


def _sim_envelope(body, domain="prop.example", version=VERSION_TOY,
                  managed=False):
    return seal(KIND_SIMULATION, version, body, domain, managed=managed)


@given(
    st.binary(min_size=128, max_size=128),
    st.sampled_from([VERSION_TOY, VERSION_PRODUCTION]),
    st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_san_chars_roundtrip(body, version, managed):
    env = _sim_envelope(body, version=version, managed=managed)
    chars = encode_envelope(env)
    assert len(chars) == 200
    back = decode_envelope(chars, "prop.example")
    assert back == env and back.nullifier == env.nullifier


@given(st.binary(min_size=128, max_size=128))
@settings(max_examples=20, deadline=None)
def test_san_names_roundtrip(body):
    sans = envelope_to_sans(_sim_envelope(body))
    assert extract_proof(sans, "prop.example").body == body
    for san in sans:
        assert len(san) <= 253
        for piece in san.split("."):
            assert 1 <= len(piece) <= 63


@given(st.integers(min_value=1, max_value=TOY29.order - 1))
@settings(max_examples=25, deadline=None)
def test_g1_compression_roundtrip(k):
    from repro.ec.curves import BN254_G1

    pt = k * BN254_G1.generator
    assert g1_from_bytes(g1_to_bytes(pt)) == pt


@given(st.integers(min_value=0, max_value=2**62))
@settings(max_examples=30, deadline=None)
def test_truncate_timestamp_properties(ts):
    t = truncate_timestamp(ts)
    assert t % 300 == 0
    assert 0 <= ts - t < 300
    assert truncate_timestamp(t) == t


@given(
    st.integers(min_value=0, max_value=65535),
    st.integers(min_value=0, max_value=255),
    st.binary(min_size=0, max_size=64),
)
@settings(max_examples=30, deadline=None)
def test_dnskey_rdata_roundtrip(flags, alg, key):
    data = DnskeyData(flags, alg, key)
    parsed = DnskeyData.from_bytes(data.to_bytes())
    assert (parsed.flags, parsed.algorithm, parsed.public_key) == (flags, alg, key)
    assert parsed.key_tag() == data.key_tag()


@given(
    st.integers(min_value=0, max_value=65535),
    st.binary(min_size=1, max_size=40),
)
@settings(max_examples=30, deadline=None)
def test_ds_rdata_roundtrip(key_tag, digest):
    ds = DsData(key_tag, 230, 252, digest)
    parsed = DsData.from_bytes(ds.to_bytes())
    assert parsed.key_tag == key_tag and parsed.digest == digest


@given(st.lists(st.binary(min_size=0, max_size=40), min_size=0, max_size=5))
@settings(max_examples=30, deadline=None)
def test_txt_rdata_roundtrip(strings):
    txt = TxtData(strings)
    assert TxtData.from_bytes(txt.to_bytes()).strings == [
        s if isinstance(s, bytes) else s.encode() for s in strings
    ]


@given(st.lists(st.integers(min_value=0, max_value=2**64), min_size=1, max_size=6))
@settings(max_examples=30, deadline=None)
def test_der_sequence_of_integers_roundtrip(values):
    der = encode_sequence(*[encode_integer(v) for v in values])
    reader = DerReader(der).read_sequence()
    out = []
    while not reader.exhausted:
        out.append(reader.read_integer())
    assert out == values


@given(st.binary(min_size=0, max_size=300))
@settings(max_examples=30, deadline=None)
def test_der_octet_string_roundtrip(data):
    tag, content, nxt, _ = read_tlv(encode_octet_string(data))
    assert content == data and nxt == len(encode_octet_string(data))


#: one SAN, and two SANs (three labels + one)
_SAN_DOMAINS = ("prop.example", "a-rather-long-subdomain-name-here.victim.example")
_G16_BODY = _det_groth16_body(b"prop")


@st.composite
def _mutated_san_sets(draw):
    """A valid envelope's SAN set with at most one transport-level fault."""
    domain = draw(st.sampled_from(_SAN_DOMAINS))
    version = draw(st.sampled_from([VERSION_TOY, VERSION_PRODUCTION]))
    managed = draw(st.booleans())
    if draw(st.booleans()):
        env = _sim_envelope(draw(st.binary(min_size=128, max_size=128)),
                            domain, version, managed)
    else:
        env = seal(KIND_GROTH16, version, _G16_BODY, domain, managed)
    chars = encode_envelope(env)
    fault = draw(st.sampled_from([
        "substitute", "version", "metadata", "transpose", "label",
        "missing", "duplicate",
    ]))
    if fault in ("substitute", "version", "metadata"):
        i = {"version": 0, "metadata": 1}.get(fault)
        if i is None:
            i = draw(st.integers(2, len(chars) - 1))
        chars = chars[:i] + draw(st.sampled_from(ALPHABET)) + chars[i + 1:]
        if draw(st.booleans()):  # a forger would fix the checksum up
            chars = chars[:-1] + checksum(chars[:-1])
    elif fault == "transpose":
        i = draw(st.integers(0, len(chars) - 2))
        j = draw(st.integers(i + 1, min(len(chars) - 1, i + 40)))
        chars = chars[:i] + chars[j] + chars[i + 1:j] + chars[i] + chars[j + 1:]
    sans = encode_sans(chars, domain)
    k = draw(st.integers(0, len(sans) - 1))
    if fault == "label":
        parts = sans[k].split(".")
        n_labels = len(parts) - 1 - len(domain.split("."))
        li = draw(st.integers(1, n_labels))
        if draw(st.booleans()):
            parts[li] = parts[li][:-1]
        else:
            parts[li] += draw(st.sampled_from(ALPHABET))
        sans[k] = ".".join(parts)
    elif fault == "missing":
        del sans[k]
    elif fault == "duplicate":
        sans.append(sans[k])
    return sans, domain


@given(_mutated_san_sets())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_san_set_decodes_canonically_or_refuses(case):
    """Strict decoding of the single SAN layout: a SAN set either decodes
    to an envelope that re-encodes to the identical SAN set, or raises
    EncodingError — never a third outcome."""
    sans, domain = case
    try:
        env = extract_proof(sans, domain).envelope
    except EncodingError:
        return
    assert envelope_to_sans(env) == sans


@given(st.binary(min_size=1, max_size=80), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=20, deadline=None)
def test_rr_wire_roundtrip(rdata, ttl):
    rr = ResourceRecord(DomainName.parse("p.example"), TYPE_TXT, ttl, rdata)
    parsed, consumed = ResourceRecord.from_wire(rr.to_wire())
    assert parsed == rr and consumed == len(rr.to_wire())


def test_distinct_proofs_encode_distinctly():
    seen = set()
    for _ in range(50):
        chars = encode_envelope(_sim_envelope(secrets.token_bytes(128)))
        assert chars not in seen
        seen.add(chars)
