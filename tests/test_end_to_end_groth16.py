"""The full pipeline through the REAL Groth16 backend (slow: pure-Python
trusted setup + proving).  Uses a depth-1 domain so the statement stays
around 15k constraints."""

import pytest

from repro.ca import AcmeServer, CertificationAuthority, CtLog, PlainDnsView
from repro.clock import DAY, SimClock
from repro.core import NopeClient, NopeProver, PinStore
from repro.ec import TOY29
from repro.errors import ProofError
from repro.profiles import TOY, build_hierarchy
from repro.sig import EcdsaPrivateKey

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def world():
    clock = SimClock()
    hierarchy = build_hierarchy(
        TOY, ["demo"], inception=clock.now() - DAY, expiration=clock.now() + 365 * DAY
    )
    logs = [CtLog("log-a", clock), CtLog("log-b", clock)]
    ca = CertificationAuthority("Repro Encrypt", clock, logs, TOY29)
    acme = AcmeServer(ca, PlainDnsView(hierarchy), clock)
    prover = NopeProver(TOY, hierarchy, "demo", backend="groth16")
    prover.trusted_setup()  # the expensive step (~1-2 min pure Python)
    return {"clock": clock, "ca": ca, "acme": acme, "prover": prover}


def test_full_pipeline_with_real_proofs(world):
    tls_key = EcdsaPrivateKey.generate(TOY29)
    chain, timeline = world["prover"].obtain_certificate(
        world["acme"], tls_key, world["clock"]
    )
    assert timeline.as_dict()["nope_proof_generation"] > 0.5  # real proving
    client = NopeClient(
        TOY,
        world["ca"].trust_anchors(),
        root_zsk_dnskey=world["prover"].root_zsk_dnskey(),
        backend=world["prover"].backend,
        pin_store=PinStore(preloaded=["demo"]),
    )
    client.register_statement(world["prover"].statement, world["prover"].keys)
    report = client.verify_server(
        "demo", chain, world["clock"].now(), ocsp_responder=world["ca"].ocsp
    )
    assert report.nope_ok

    # a proof bound to a different TLS key must not verify for this cert
    import copy

    from repro.x509.cert import SubjectPublicKeyInfo

    tampered = [copy.deepcopy(chain[0]), chain[1]]
    tampered[0].spki = SubjectPublicKeyInfo(
        EcdsaPrivateKey.generate(TOY29).public_key
    )
    tampered[0].sign(world["ca"].intermediate_key)
    with pytest.raises(ProofError):
        client.verify_server("demo", tampered, world["clock"].now())


def test_proof_is_128_bytes_and_rerandomizable(world):
    from repro.groth16 import proof_from_bytes, proof_to_bytes, rerandomize

    tls_key = EcdsaPrivateKey.generate(TOY29)
    from repro.x509.cert import SubjectPublicKeyInfo

    tls_bytes = SubjectPublicKeyInfo(tls_key.public_key).raw_key_bytes()
    proof_bytes, ts = world["prover"].generate_proof(
        tls_bytes, world["ca"].org_name, ts=world["clock"].now()
    )
    assert len(proof_bytes) == 128
    # Groth16 malleability: a mauled proof still verifies for the SAME
    # statement (motivating the N/TS binding; §3.2)
    proof = proof_from_bytes(proof_bytes)
    vk = world["prover"].keys.verifying_key
    mauled = rerandomize(vk.vk, proof)
    from repro.core.common import input_digest, truncate_timestamp
    from repro.groth16 import verify

    pub = world["prover"].statement.public_inputs(
        "demo",
        world["prover"].root_zsk_dnskey().public_key,
        input_digest(TOY, tls_bytes),
        input_digest(TOY, world["ca"].org_name.encode()),
        truncate_timestamp(ts),
    )
    verify(vk, mauled, pub)
    assert proof_to_bytes(mauled) != proof_bytes
