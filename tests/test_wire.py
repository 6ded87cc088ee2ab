"""The wire layer: point-codec strictness, envelope framing, nullifier
anti-reuse, SAN transport, golden vectors, and the end-to-end refusal of
proof envelopes lifted across domains or certificates."""

import random

import pytest

from repro.ca import AcmeServer, CertificationAuthority, CtLog, PlainDnsView
from repro.clock import DAY, SimClock
from repro.core import (
    NopeClient,
    NopeProver,
    PinStore,
    VerificationCache,
    build_multi_domain_csr,
)
from repro.ec import TOY29
from repro.ec.curves import BN254_G1, BN254_R
from repro.errors import (
    EncodingError,
    NullifierError,
    ProofError,
    ProtocolError,
    WireError,
)
from repro.field.extension import BN254_P
from repro.groth16.keys import Proof
from repro.groth16.serialize import (
    g1_from_bytes,
    g1_to_bytes,
    g2_from_bytes,
    g2_to_bytes,
    proof_from_bytes,
    proof_to_bytes,
)
from repro.pairing.bn254 import G2_GENERATOR, G2Point
from repro.profiles import TOY, build_hierarchy
from repro.sig import EcdsaPrivateKey
from repro.wire import (
    FLAG_MANAGED,
    KIND_GROTH16,
    KIND_SIMULATION,
    VERSION_PRODUCTION,
    VERSION_TOY,
    check_golden,
    compute_nullifier,
    decode_envelope,
    encode_envelope,
    envelope_from_sans,
    envelope_size,
    envelope_to_sans,
    extract_proof,
    kind_for_backend,
    roundtrip_golden,
    seal,
    statement_digest,
    version_for_profile,
)
from repro.x509.san import (
    SAN_VERSION_ENVELOPE,
    decode_payload_chars,
    encode_payload_chars,
    encode_payload_sans,
    encode_proof_chars,
    encode_proof_sans,
)


def _g1(k):
    return (k % BN254_R or 1) * BN254_G1.generator


def _g2(k):
    return (k % BN254_R or 1) * G2_GENERATOR


def _proof_bytes(seed=7):
    return proof_to_bytes(Proof(_g1(seed), _g2(seed + 1), _g1(seed + 2)))


def _sim_envelope(domain="example.com", body=b"\xab" * 128, managed=False):
    return seal(
        KIND_SIMULATION, VERSION_TOY, body, domain,
        shape_id="toy/test", managed=managed,
    )


class TestPointCodecs:
    def test_g1_roundtrip(self):
        for k in (1, 2, 12345):
            data = g1_to_bytes(_g1(k))
            assert g1_to_bytes(g1_from_bytes(data)) == data

    def test_g1_infinity_roundtrip(self):
        data = g1_to_bytes(BN254_G1.infinity)
        assert data == bytes([0x40]) + b"\x00" * 31
        assert g1_from_bytes(data).is_infinity

    def test_g1_bad_flags(self):
        # both flag bits: claims infinity but isn't the canonical encoding
        with pytest.raises(EncodingError):
            g1_from_bytes(bytes([0xC0]) + b"\x00" * 31)

    def test_g1_noncanonical_infinity(self):
        with pytest.raises(EncodingError):
            g1_from_bytes(bytes([0x40]) + b"\x00" * 30 + b"\x01")

    def test_g1_x_out_of_range(self):
        with pytest.raises(EncodingError, match="out of range"):
            g1_from_bytes(BN254_P.to_bytes(32, "big"))

    def test_g1_off_curve(self):
        x = 1
        while True:
            try:
                BN254_G1.lift_x(x, 0)
            except Exception:
                break
            x += 1
        with pytest.raises(EncodingError, match="not on curve"):
            g1_from_bytes(x.to_bytes(32, "big"))

    def test_g1_wrong_length(self):
        with pytest.raises(EncodingError):
            g1_from_bytes(b"\x00" * 31)

    def test_g2_roundtrip(self):
        for k in (1, 3, 999):
            data = g2_to_bytes(_g2(k))
            assert g2_to_bytes(g2_from_bytes(data)) == data

    def test_g2_bad_flags_and_infinity(self):
        with pytest.raises(EncodingError):
            g2_from_bytes(bytes([0xC0]) + b"\x00" * 63)
        with pytest.raises(EncodingError):
            g2_from_bytes(bytes([0x40]) + b"\x00" * 62 + b"\x01")

    def test_g2_x_out_of_range(self):
        with pytest.raises(EncodingError, match="out of range"):
            g2_from_bytes(b"\x00" * 32 + BN254_P.to_bytes(32, "big"))

    def test_g2_wrong_subgroup_rejected(self):
        # scan small x = (0, c0): cofactor >> 1, so the first liftable x
        # off the generator's orbit is (whp) outside the r-order subgroup
        found = False
        for c0 in range(1, 400):
            data = b"\x00" * 32 + c0.to_bytes(32, "big")
            try:
                g2_from_bytes(data)
            except EncodingError as exc:
                if "subgroup" in str(exc):
                    found = True
                    break
                continue  # x^3 + b' was a non-square; keep scanning
        assert found, "no off-subgroup x found in scan range"

    def test_proof_wrong_length(self):
        with pytest.raises(EncodingError):
            proof_from_bytes(b"\x00" * 127)

    def test_proof_roundtrip(self):
        data = _proof_bytes()
        assert proof_to_bytes(proof_from_bytes(data)) == data


class TestEnvelope:
    def test_sizes(self):
        assert envelope_size(128) == 197
        env = _sim_envelope()
        assert len(encode_envelope(env)) == 197

    def test_roundtrip(self):
        env = _sim_envelope(managed=True)
        data = encode_envelope(env)
        back = decode_envelope(data, "example.com")
        assert back == env
        assert back.managed and back.flags == FLAG_MANAGED
        assert back.nullifier == env.nullifier

    def test_groth16_body_roundtrip(self):
        body = _proof_bytes()
        env = seal(KIND_GROTH16, VERSION_TOY, body, "example.com",
                   shape_id="toy/test")
        back = decode_envelope(encode_envelope(env), "example.com")
        assert back.body == body

    def test_decoded_proof_rides_the_envelope(self, monkeypatch):
        proof = Proof(_g1(7), _g2(8), _g1(9))
        env = seal(KIND_GROTH16, VERSION_TOY, proof_to_bytes(proof),
                   "example.com", shape_id="toy/test")
        assert env.proof == proof
        sans = envelope_to_sans(env)
        checks = []
        in_subgroup = G2Point.in_subgroup
        monkeypatch.setattr(
            G2Point, "in_subgroup",
            lambda pt: checks.append(pt) or in_subgroup(pt),
        )
        payload = extract_proof(sans, "example.com")
        # decoding the body is its validation: one membership test, and
        # the decoded value is what the backend verifies
        assert len(checks) == 1
        assert payload.proof == proof
        legacy = extract_proof(
            encode_proof_sans(proof_to_bytes(proof), "example.com"),
            "example.com",
        )
        assert legacy.proof is None

    def test_seal_refuses_noncanonical_groth16(self):
        with pytest.raises(WireError):
            seal(KIND_GROTH16, VERSION_TOY, b"\xff" * 128, "example.com",
                 shape_id="toy/test")

    def test_seal_refuses_unknown_kind_and_version(self):
        with pytest.raises(WireError, match="unknown proof kind"):
            seal(0x7F, 0, b"\x00" * 128, "example.com", shape_id="x")
        with pytest.raises(WireError, match="version"):
            seal(KIND_SIMULATION, 9, b"\x00" * 128, "example.com",
                 shape_id="x")

    def test_decode_rejects_every_malformed_class(self):
        env = _sim_envelope()
        data = bytearray(encode_envelope(env))

        def mutated(index, value):
            out = bytearray(data)
            out[index] = value
            return bytes(out)

        with pytest.raises(WireError, match="unknown proof kind"):
            decode_envelope(mutated(0, 0xEE), "example.com")
        with pytest.raises(WireError, match="version"):
            decode_envelope(mutated(1, 0x09), "example.com")
        with pytest.raises(WireError, match="reserved"):
            decode_envelope(mutated(2, 0x80), "example.com")
        with pytest.raises(WireError, match="truncated"):
            decode_envelope(bytes(data[:10]), "example.com")
        with pytest.raises(WireError, match="truncated"):
            decode_envelope(bytes(data[:-1]), "example.com")
        with pytest.raises(WireError, match="trailing"):
            decode_envelope(bytes(data) + b"\x00", "example.com")
        # body tamper: framing is fine, nullifier no longer matches
        with pytest.raises(NullifierError):
            decode_envelope(mutated(40, data[40] ^ 0x01), "example.com")

    def test_cross_domain_lift_rejected(self):
        env = _sim_envelope("alpha.example")
        data = encode_envelope(env)
        assert decode_envelope(data, "alpha.example").body == env.body
        with pytest.raises(NullifierError):
            decode_envelope(data, "beta.example")

    def test_cross_domain_rejection_counted(self):
        from repro.wire import NULLIFIER_REJECTED

        env = _sim_envelope("alpha.example")
        before = NULLIFIER_REJECTED.value
        with pytest.raises(NullifierError):
            decode_envelope(encode_envelope(env), "beta.example")
        assert NULLIFIER_REJECTED.value == before + 1

    def test_domain_normalization(self):
        env = _sim_envelope("Example.COM".lower())
        data = encode_envelope(env)
        assert decode_envelope(data, "example.com.").domain == "example.com"


class TestNullifier:
    def test_binds_every_field(self):
        base = dict(kind=KIND_SIMULATION, version=VERSION_TOY, flags=0,
                    statement=statement_digest("s"), domain="example.com",
                    body=b"\x01" * 128)

        def n(**over):
            params = dict(base, **over)
            return compute_nullifier(
                params["kind"], params["version"], params["flags"],
                params["statement"], params["domain"], params["body"],
            )

        reference = n()
        assert n() == reference  # deterministic
        assert n(kind=KIND_GROTH16) != reference
        assert n(version=VERSION_PRODUCTION) != reference
        assert n(flags=FLAG_MANAGED) != reference
        assert n(statement=statement_digest("t")) != reference
        assert n(domain="other.example") != reference
        assert n(body=b"\x02" * 128) != reference

    def test_length_prefixed_domain(self):
        # ("ab", "c...") and ("a", "bc...") must differ
        a = compute_nullifier(1, 0, 0, b"\x00" * 32, "ab", b"c" + b"\x00" * 127)
        b = compute_nullifier(1, 0, 0, b"\x00" * 32, "a", b"bc" + b"\x00" * 126)
        assert a != b

    def test_registry_maps(self):
        assert kind_for_backend("groth16") == KIND_GROTH16
        assert kind_for_backend("simulation") == KIND_SIMULATION
        assert version_for_profile("toy") == VERSION_TOY
        assert version_for_profile("production") == VERSION_PRODUCTION
        with pytest.raises(WireError):
            kind_for_backend("nope")
        with pytest.raises(WireError):
            version_for_profile("nope")


class TestSanTransport:
    def test_roundtrip(self):
        env = _sim_envelope()
        sans = envelope_to_sans(env)
        assert len(sans) >= 1 and all(s.endswith(".example.com") for s in sans)
        payload = extract_proof(sans, "example.com")
        assert payload.san_version == SAN_VERSION_ENVELOPE
        assert payload.body == env.body
        assert payload.nullifier == env.nullifier
        assert envelope_from_sans(sans, "example.com") == env

    def test_emit_under_wrong_domain_refused(self):
        env = _sim_envelope("alpha.example")
        with pytest.raises(WireError):
            envelope_to_sans(env, domain="beta.example")

    def test_lifted_san_bytes_rejected(self):
        # re-labeling alpha's envelope bytes under beta's SAN set is the
        # cross-domain lift; the nullifier catches it at decode
        env = _sim_envelope("alpha.example")
        lifted = encode_payload_sans(
            encode_envelope(env), "beta.example", SAN_VERSION_ENVELOPE
        )
        with pytest.raises(NullifierError):
            extract_proof(lifted, "beta.example")

    def test_subdomain_sans_not_absorbed(self):
        # the old endswith() bug: sub.example.com's NOPE SANs must never
        # satisfy a decode for example.com
        env = _sim_envelope("sub.example.com")
        sans = envelope_to_sans(env)
        assert all(s.endswith(".example.com") for s in sans)  # the trap
        with pytest.raises(EncodingError, match="no NOPE SAN entries"):
            extract_proof(sans, "example.com")
        assert extract_proof(sans, "sub.example.com").body == env.body

    def test_legacy_subdomain_sans_not_absorbed(self):
        sans = encode_proof_sans(b"\x05" * 128, "sub.example.com")
        with pytest.raises(EncodingError, match="no NOPE SAN entries"):
            extract_proof(sans, "example.com")

    def test_multi_domain_san_sets_disjoint(self):
        env_a = _sim_envelope("alpha.example", body=b"\x01" * 128)
        env_b = _sim_envelope("beta.example", body=b"\x02" * 128)
        sans = (["alpha.example", "beta.example"]
                + envelope_to_sans(env_a) + envelope_to_sans(env_b))
        assert extract_proof(sans, "alpha.example").body == env_a.body
        assert extract_proof(sans, "beta.example").body == env_b.body

    def test_missing_and_duplicate_fragments(self):
        env = _sim_envelope()
        sans = envelope_to_sans(env)
        with pytest.raises(EncodingError):
            extract_proof(sans[:-1], "example.com")
        with pytest.raises(EncodingError, match="duplicate"):
            extract_proof(sans + [sans[-1]], "example.com")

    def test_legacy_v0_still_decodes(self):
        proof = b"\x37" * 128
        sans = encode_proof_sans(proof, "example.com", metadata=1)
        payload = extract_proof(sans, "example.com")
        assert payload.san_version == 0
        assert payload.body == proof
        assert payload.managed and payload.nullifier is None
        with pytest.raises(WireError, match="legacy"):
            envelope_from_sans(sans, "example.com")

    def test_metadata_out_of_range_raises(self):
        for bad in (-1, 37, 255):
            with pytest.raises(EncodingError, match="metadata"):
                encode_proof_chars(b"\x00" * 128, metadata=bad)

    def test_weighted_checksum_catches_transposition(self):
        chars = encode_payload_chars(
            encode_envelope(_sim_envelope()), SAN_VERSION_ENVELOPE
        )
        # find adjacent unequal payload characters and swap them
        for i in range(1, len(chars) - 2):
            if chars[i] != chars[i + 1]:
                swapped = (chars[:i] + chars[i + 1] + chars[i]
                           + chars[i + 2:])
                break
        with pytest.raises(EncodingError, match="checksum"):
            decode_payload_chars(swapped)

    def test_nonzero_padding_rejected(self):
        from repro.x509.san import SAN_LAYOUTS

        layout = SAN_LAYOUTS[SAN_VERSION_ENVELOPE]
        assert layout.padding_chars > 0
        chars = encode_payload_chars(
            encode_envelope(_sim_envelope()), SAN_VERSION_ENVELOPE
        )
        body = chars[:-1]
        tampered = body[:-1] + "b"  # last padding char
        tampered += layout.checksum(tampered)  # fix the checksum up
        with pytest.raises(EncodingError, match="padding"):
            decode_payload_chars(tampered)


class TestGoldenVectors:
    def test_golden_vectors_match(self):
        assert check_golden() == []

    def test_golden_vectors_roundtrip(self):
        assert roundtrip_golden() == []


class TestFuzzRoundtrips:
    def test_seeded_fuzz(self):
        rng = random.Random(0x4E4F5045)  # "NOPE"
        domains = ["example.com", "a.b.example", "x--y.test"]
        for i in range(12):
            domain = domains[i % len(domains)]
            if i % 2:
                body = bytes(rng.randrange(256) for _ in range(128))
                kind = KIND_SIMULATION
            else:
                body = proof_to_bytes(Proof(
                    _g1(rng.randrange(1, BN254_R)),
                    _g2(rng.randrange(1, BN254_R)),
                    _g1(rng.randrange(1, BN254_R)),
                ))
                kind = KIND_GROTH16
            env = seal(kind, VERSION_TOY, body, domain,
                       shape_id="fuzz/%d" % i, managed=bool(i % 3 == 0))
            data = encode_envelope(env)
            assert decode_envelope(data, domain) == env
            payload = extract_proof(envelope_to_sans(env), domain)
            assert payload.body == body
            assert payload.nullifier == env.nullifier


@pytest.fixture(scope="module")
def world():
    clock = SimClock()
    hierarchy = build_hierarchy(
        TOY,
        ["alpha.example", "beta.example"],
        inception=clock.now() - DAY,
        expiration=clock.now() + 365 * DAY,
    )
    logs = [CtLog("log-a", clock), CtLog("log-b", clock)]
    ca = CertificationAuthority("Repro Encrypt", clock, logs, TOY29)
    acme = AcmeServer(ca, PlainDnsView(hierarchy), clock)
    p1 = NopeProver(TOY, hierarchy, "alpha.example", backend="simulation")
    p1.trusted_setup()
    # same statement structure (same depth/profile) -> the keys are shared
    p2 = NopeProver(TOY, hierarchy, "beta.example", backend="simulation")
    p2.keys = p1.keys
    return {
        "clock": clock, "ca": ca, "acme": acme,
        "hierarchy": hierarchy, "p1": p1, "p2": p2,
    }


class BatchCountingBackend:
    """Wraps a backend; counts verify/verify_batch so tests can see both."""

    def __init__(self, inner):
        self.inner = inner
        self.kind = inner.kind
        self.verify_calls = 0
        self.batch_calls = 0

    def verify(self, keys, proof, public_inputs):
        self.verify_calls += 1
        return self.inner.verify(keys, proof, public_inputs)

    def verify_batch(self, keys, proofs, publics):
        self.batch_calls += 1
        return self.inner.verify_batch(keys, proofs, publics)


def make_client(world, cache=None):
    backend = BatchCountingBackend(world["p1"].backend)
    client = NopeClient(
        TOY,
        world["ca"].trust_anchors(),
        root_zsk_dnskey=world["p1"].root_zsk_dnskey(),
        backend=backend,
        pin_store=PinStore(),
        verification_cache=cache,
    )
    client.register_statement(world["p1"].statement, world["p1"].keys)
    return client, backend


class TestEndToEnd:
    def test_multi_proof_certificate_verifies_batched(self, world):
        tls_key = EcdsaPrivateKey.generate(TOY29)
        ts = world["clock"].now()
        csr, envelopes = build_multi_domain_csr(
            [world["p1"], world["p2"]], tls_key, world["ca"].org_name, ts
        )
        assert len({env.nullifier for env in envelopes}) == 2
        chain = world["ca"].issue(
            "alpha.example", csr.spki, csr.san_names()
        )
        client, backend = make_client(world, VerificationCache())
        reports = client.verify_domains(
            ["alpha.example", "beta.example"], chain, world["clock"].now()
        )
        assert all(r.nope_ok for r in reports.values())
        assert backend.batch_calls == 1  # one shape group -> one batch
        assert backend.verify_calls == 0
        # TOFU pins recorded the nullifiers per domain
        for env in envelopes:
            assert client.pin_store.last_nullifier(env.domain) == env.nullifier

    def test_honest_ca_refuses_envelope_reuse(self, world):
        tls_key = EcdsaPrivateKey.generate(TOY29)
        ts = world["clock"].now()
        csr, _ = build_multi_domain_csr(
            [world["p1"]], tls_key, world["ca"].org_name, ts
        )
        world["ca"].issue("alpha.example", csr.spki, csr.san_names())
        with pytest.raises(ProtocolError, match="nullifier reuse"):
            world["ca"].issue("alpha.example", csr.spki, csr.san_names())

    def test_honest_ca_refuses_orphaned_fragments(self, world):
        tls_key = EcdsaPrivateKey.generate(TOY29)
        env = _sim_envelope("gamma.example")
        sans = ["alpha.example"] + encode_payload_sans(
            encode_envelope(env), "alpha.example", SAN_VERSION_ENVELOPE
        )
        from repro.x509.cert import SubjectPublicKeyInfo

        spki = SubjectPublicKeyInfo(tls_key.public_key)
        # the lifted bytes decode for no requested domain (nullifier was
        # computed over gamma.example) -> the screen refuses
        with pytest.raises(ProtocolError, match="decode for no requested"):
            world["ca"].issue("alpha.example", spki, sans)

    def test_client_refuses_cross_certificate_reuse(self, world):
        clock = world["clock"]
        tls_key = EcdsaPrivateKey.generate(TOY29)
        ts = clock.now()
        csr, _ = build_multi_domain_csr(
            [world["p2"]], tls_key, world["ca"].org_name, ts
        )
        chain_a = world["ca"].issue("beta.example", csr.spki, csr.san_names())
        # a compromised CA re-embeds the same envelope in a second cert
        world["ca"].compromised = True
        try:
            chain_b = world["ca"].issue_rogue(
                "beta.example", csr.spki, csr.san_names()
            )
        finally:
            world["ca"].compromised = False
        assert chain_a[0].serial != chain_b[0].serial
        now = clock.now()
        # no cache: the seen-nullifier map refuses the second certificate
        client, _ = make_client(world)
        assert client.verify_server("beta.example", chain_a, now).nope_ok
        with pytest.raises(ProofError, match="reuse"):
            client.verify_server("beta.example", chain_b, now)
        # with a cache: the nullifier-keyed hit refuses on the fast path
        client2, backend2 = make_client(world, VerificationCache())
        assert client2.verify_server("beta.example", chain_a, now).nope_ok
        with pytest.raises(ProofError, match="reuse"):
            client2.verify_server("beta.example", chain_b, now)
        assert backend2.verify_calls == 1  # never re-verified for chain_b

    def test_seen_nullifiers_bounded_and_recent_reuse_refused(
        self, world, monkeypatch
    ):
        assert NopeClient.MAX_SEEN_NULLIFIERS == VerificationCache().max_entries
        cap = 3
        monkeypatch.setattr(NopeClient, "MAX_SEEN_NULLIFIERS", cap)
        clock = world["clock"]
        ca = world["ca"]

        def fresh_csr():
            csr, _ = build_multi_domain_csr(
                [world["p2"]], EcdsaPrivateKey.generate(TOY29), ca.org_name,
                clock.now(),
            )
            return csr

        csr = fresh_csr()
        chain_a = ca.issue("beta.example", csr.spki, csr.san_names())
        ca.compromised = True
        try:
            chain_b = ca.issue_rogue("beta.example", csr.spki, csr.san_names())
        finally:
            ca.compromised = False
        fillers = []
        for _ in range(4):
            other = fresh_csr()
            fillers.append(
                ca.issue("beta.example", other.spki, other.san_names())
            )
        now = clock.now()
        client, _ = make_client(world)
        seen = client._seen_nullifiers
        # chain_a, two fillers, chain_a again (moves it to the newest end),
        # then two more fillers: five distinct nullifiers through a map of 3
        for chain in [chain_a] + fillers[:2] + [chain_a] + fillers[2:]:
            assert client.verify_server("beta.example", chain, now).nope_ok
            assert len(seen) <= cap
        assert len(seen) == cap
        # the two evictions took the oldest fillers, not the re-noted chain_a
        with pytest.raises(ProofError, match="reuse"):
            client.verify_server("beta.example", chain_b, now)

    def test_envelope_lifted_to_other_domain_refused(self, world):
        clock = world["clock"]
        tls_key = EcdsaPrivateKey.generate(TOY29)
        csr, envelopes = build_multi_domain_csr(
            [world["p1"]], tls_key, world["ca"].org_name, clock.now()
        )
        # rebuild alpha's envelope bytes as SANs for beta.example and have
        # a compromised CA sign the franken-cert
        lifted = encode_payload_sans(
            encode_envelope(envelopes[0]), "beta.example",
            SAN_VERSION_ENVELOPE,
        )
        from repro.x509.cert import SubjectPublicKeyInfo

        world["ca"].compromised = True
        try:
            chain = world["ca"].issue_rogue(
                "beta.example", SubjectPublicKeyInfo(tls_key.public_key),
                ["beta.example"] + lifted,
            )
        finally:
            world["ca"].compromised = False
        client, _ = make_client(world)
        with pytest.raises(ProofError, match="nullifier"):
            client.verify_server("beta.example", chain, clock.now())
