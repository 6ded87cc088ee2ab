"""Figure 7: byte-level decomposition of a NOPE certificate chain.

Uses PRODUCTION-scale key material (P-256 certificates, RSA-2048 root,
P-256 DNSSEC zones) because Figure 7 is about bytes on the wire — the
proof body is always 128 raw bytes regardless of scale, but certificate
and DNSSEC-chain sizes depend on real key sizes.

Paper: chain 2554 B; encoded NOPE proof 248 B (9.7%); raw 128 B (5.0%);
DCE 5870 B (229.8%).  The SAN layout is the paper's Appendix D geometry:
a version char, a metadata char (kind, profile version, managed flag),
the 128-byte body as 197 base-37 chars and a checksum char, 200 chars in
four labels (see repro.wire).  The nullifier is derived, not carried, so
for ``nope-tools.org`` the whole payload is one 223-byte SAN.
"""

import secrets

import pytest

from repro.ca import CertificationAuthority, CtLog
from repro.clock import DAY, SimClock
from repro.core import DceServer
from repro.ec import P256
from repro.profiles import PRODUCTION, build_hierarchy
from repro.sig import EcdsaPrivateKey
from repro.wire import KIND_SIMULATION, VERSION_PRODUCTION, envelope_to_sans, seal
from repro.x509 import is_nope_san, oid, parse_tree
from repro.x509.cert import SubjectPublicKeyInfo


def replay(config):
    """Run-certificate replay core: the SAN-payload decomposition over a
    fixed 128-byte body (byte-for-byte what the figure measures; the CA
    issuance in the fixture depends on secrets-generated keys, which a
    deterministic replay cannot reproduce)."""
    body = bytes((i * 53 + 7) % 251 for i in range(128))
    env = seal(KIND_SIMULATION, VERSION_PRODUCTION, body, "nope-tools.org")
    sans = envelope_to_sans(env)
    return {
        "san_labels": len(sans),
        "encoded_proof_bytes": sum(len(s) for s in sans),
        "raw_proof_bytes": len(body),
    }


@pytest.fixture(scope="module")
def cert_world():
    domain = "nope-tools.org"
    clock = SimClock()
    hierarchy = build_hierarchy(
        PRODUCTION, [domain],
        inception=clock.now() - DAY, expiration=clock.now() + 365 * DAY,
    )
    logs = [CtLog("log-a", clock), CtLog("log-b", clock)]
    ca = CertificationAuthority("Repro Encrypt", clock, logs, P256)
    tls_key = EcdsaPrivateKey.generate(P256)
    # Figure 7 measures bytes; the SAN payload is identical for any
    # 128-byte body, so a placeholder sealed under the simulation kind
    # keeps this bench fast (the groth16 codec would insist on real points)
    env = seal(
        KIND_SIMULATION, VERSION_PRODUCTION, secrets.token_bytes(128), domain
    )
    sans = [domain] + envelope_to_sans(env)
    chain = ca.issue(domain, SubjectPublicKeyInfo(tls_key.public_key), sans)
    dce = DceServer(
        hierarchy, domain, tls_key.public_key.encode(), now=clock.now()
    )
    return {"chain": chain, "dce": dce, "domain": domain}


def decompose(chain):
    leaf_der = chain[0].to_der()
    inter_der = chain[1].to_der()
    leaf = chain[0]
    rows = {}
    rows["Certificate Chain"] = len(leaf_der) + len(inter_der)
    rows["Intermediate Certificate"] = len(inter_der)
    rows["Subscriber Certificate"] = len(leaf_der)
    rows["Subject public key"] = len(leaf.spki.to_der())
    rows["Extensions"] = sum(len(e.to_der()) for e in leaf.extensions)
    sct_ext = leaf.extension(oid.OID_EXT_SCT_LIST)
    rows["SCT"] = len(sct_ext.to_der()) if sct_ext else 0
    aia_ext = leaf.extension(oid.OID_EXT_AIA)
    rows["OCSP"] = len(aia_ext.to_der()) if aia_ext else 0
    rows["Signature"] = len(leaf.signature)
    rows["Encoded NOPE proof"] = sum(
        len(n) for n in leaf.san_names() if is_nope_san(n)
    )
    rows["Raw NOPE proof"] = 128
    return rows


def test_encode_chain(benchmark, cert_world):
    benchmark(lambda: [c.to_der() for c in cert_world["chain"]])


def test_asn1_walk(benchmark, cert_world):
    der = cert_world["chain"][0].to_der()
    nodes = benchmark(lambda: parse_tree(der))
    assert nodes[0].total_len == len(der)


def test_zz_print_decomposition(benchmark, cert_world):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = decompose(cert_world["chain"])
    total = rows["Certificate Chain"]
    print("\n== Figure 7: certificate chain decomposition (production keys) ==")
    for name, size in rows.items():
        print("  %-26s %6d B  %6.1f%%" % (name, size, 100.0 * size / total))
    dce_size = cert_world["dce"].bandwidth()
    print(
        "  %-26s %6d B  %6.1f%%  (paper: 5870 B, 229.8%%)"
        % ("DCE chain", dce_size, 100.0 * dce_size / total)
    )
    assert rows["Raw NOPE proof"] == 128
    # 200 base-37 chars plus the "n0pe." prefix, label dots and the
    # domain suffix: at most the paper's 248 B
    assert rows["Encoded NOPE proof"] <= 250
    # the paper's shape: DCE costs substantially more than the NOPE proof,
    # and more than the whole certificate chain
    assert dce_size > total
    # paper: 248/2554 = 9.7%.  The simulated chain is leaner than a real
    # production chain, so the share here is higher — still a minor
    # fraction of the chain
    assert rows["Encoded NOPE proof"] < 0.30 * total
