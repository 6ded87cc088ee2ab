"""Tests for NOPE-managed (paper Appendix A): the outsourced-DNSSEC variant
where a signed TXT record replaces KSK-knowledge."""

import pytest

from repro.ca import AcmeServer, CertificationAuthority, CtLog, PlainDnsView
from repro.clock import DAY, SimClock
from repro.core import (
    ManagedNopeProver,
    NopeClient,
    NopeProver,
    PinStore,
    managed_binding_digest,
    input_digest,
)
from repro.ec import TOY29
from repro.errors import ProofError, SynthesisError
from repro.profiles import TOY, build_hierarchy
from repro.sig import EcdsaPrivateKey


@pytest.fixture(scope="module")
def world():
    clock = SimClock()
    hierarchy = build_hierarchy(
        TOY,
        ["managed.example"],
        inception=clock.now() - DAY,
        expiration=clock.now() + 365 * DAY,
    )
    logs = [CtLog("log-a", clock), CtLog("log-b", clock)]
    ca = CertificationAuthority("Repro Encrypt", clock, logs, TOY29)
    acme = AcmeServer(ca, PlainDnsView(hierarchy), clock)
    prover = ManagedNopeProver(TOY, hierarchy, "managed.example", backend="simulation")
    prover.trusted_setup()
    return {
        "clock": clock,
        "hierarchy": hierarchy,
        "ca": ca,
        "acme": acme,
        "prover": prover,
    }


class TestManagedStatement:
    def test_synthesis_satisfied(self, world):
        cs = world["prover"].synthesize(b"tls", "Repro Encrypt", world["clock"].now())
        cs.check_satisfied()

    def test_managed_larger_than_base(self, world):
        base = NopeProver(TOY, world["hierarchy"], "managed.example", backend="simulation")
        cs_base = base.synthesize(b"tls", b"ca", 300)
        cs_managed = world["prover"].synthesize(b"tls", "ca", 300)
        # App. A: "roughly twice as expensive for the prover"
        ratio = cs_managed.num_constraints / cs_base.num_constraints
        assert 1.3 < ratio < 3.0

    def test_shape_id_differs_from_base(self, world):
        assert "managed" in world["prover"].shape.id_string()

    def test_binding_digest_deterministic(self):
        d1 = managed_binding_digest(TOY, b"t" * 8, b"n" * 8, 600)
        d2 = managed_binding_digest(TOY, b"t" * 8, b"n" * 8, 600)
        assert d1 == d2
        assert d1 != managed_binding_digest(TOY, b"t" * 8, b"n" * 8, 900)

    def test_wrong_binding_rejected_at_synthesis(self, world):
        prover = world["prover"]
        clock = world["clock"]
        # publish a binding for one key, then try to prove for another
        prover.publish_binding(b"key-one", "Repro Encrypt", clock.now())
        from repro.core.prover import FR
        from repro.core.statement import prepare_managed_witness
        from repro.dns.records import TYPE_TXT
        from repro.r1cs import ConstraintSystem
        from repro.core.common import truncate_timestamp

        txt = prover.zone.get(prover.domain, TYPE_TXT)
        chain = prover.hierarchy.fetch_chain(prover.domain, for_dce=True)
        witness = prepare_managed_witness(
            TOY, prover.domain, chain, txt, prover.root_zsk_dnskey()
        )
        cs = ConstraintSystem(FR)
        # the digest-equality constraints are recorded but cannot be
        # satisfied when the binding covers a different key
        try:
            prover.statement.synthesize(
                cs,
                witness,
                input_digest(TOY, b"key-two"),
                input_digest(TOY, b"Repro Encrypt"),
                truncate_timestamp(clock.now()),
            )
        except SynthesisError:
            return  # also acceptable: native witness computation fails
        assert not cs.is_satisfied()


class TestManagedPipeline:
    def test_end_to_end(self, world):
        tls_key = EcdsaPrivateKey.generate(TOY29)
        chain, timeline = world["prover"].obtain_certificate(
            world["acme"], tls_key, world["clock"]
        )
        # the envelope's managed flag bit marks the App. A variant
        from repro.wire import extract_proof

        payload = extract_proof(chain[0].san_names(), "managed.example")
        assert payload.managed and payload.envelope.managed
        client = NopeClient(
            TOY,
            world["ca"].trust_anchors(),
            root_zsk_dnskey=world["prover"].root_zsk_dnskey(),
            backend=world["prover"].backend,
            pin_store=PinStore(preloaded=["managed.example"]),
        )
        client.register_statement(world["prover"].statement, world["prover"].keys)
        report = client.verify_server(
            "managed.example", chain, world["clock"].now(),
            ocsp_responder=world["ca"].ocsp,
        )
        assert report.nope_ok

    def test_client_needs_the_managed_statement(self, world):
        tls_key = EcdsaPrivateKey.generate(TOY29)
        chain, _ = world["prover"].obtain_certificate(
            world["acme"], tls_key, world["clock"]
        )
        # a client that only knows the base statement rejects managed proofs
        client = NopeClient(
            TOY,
            world["ca"].trust_anchors(),
            root_zsk_dnskey=world["prover"].root_zsk_dnskey(),
            backend=world["prover"].backend,
        )
        with pytest.raises(ProofError, match="verification key"):
            client.verify_server("managed.example", chain, world["clock"].now())
