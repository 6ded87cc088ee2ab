#!/usr/bin/env python3
"""DCE vs NOPE: bandwidth and trust trade-offs (paper §8.4, Figure 7).

DCE ships the whole DNSSEC chain in the TLS handshake (5-6 KB, no CA, no
transparency); NOPE ships a 248-byte encoded proof inside a normal
certificate.  This example builds both for the same domain and compares.
"""

from repro.ca import AcmeServer, CertificationAuthority, CtLog, PlainDnsView
from repro.clock import DAY, SimClock
from repro.core import DceClient, DceServer, NopeProver
from repro.ec import TOY29
from repro.profiles import TOY, build_hierarchy
from repro.sig import EcdsaPrivateKey
from repro.x509.validate import chain_wire_size


def main():
    domain = "nope-tools.org"
    clock = SimClock()
    hierarchy = build_hierarchy(
        TOY, [domain], inception=clock.now() - DAY,
        expiration=clock.now() + 365 * DAY,
    )
    logs = [CtLog("log-a", clock), CtLog("log-b", clock)]
    ca = CertificationAuthority("Repro Encrypt", clock, logs, TOY29)
    acme = AcmeServer(ca, PlainDnsView(hierarchy), clock)
    tls_key = EcdsaPrivateKey.generate(TOY29)

    print("== NOPE: proof inside a legacy certificate ==")
    prover = NopeProver(TOY, hierarchy, domain, backend="simulation")
    prover.trusted_setup()
    chain, _ = prover.obtain_certificate(acme, tls_key, clock)
    cert_bytes = chain_wire_size(chain)
    nope_sans = [s for s in chain[0].san_names() if s[1:4] in ("0pe", "1pe")]
    encoded = sum(len(s) for s in nope_sans)
    print("  certificate chain: %5d B" % cert_bytes)
    print("  encoded proof:     %5d B (%.1f%% of the chain)" % (
        encoded, 100.0 * encoded / cert_bytes))
    print("  raw proof:           128 B")
    print("  transparency: YES (CT logs)   revocation: YES (OCSP/CRL)")

    print("\n== DCE: the whole DNSSEC chain in the handshake ==")
    server = DceServer(hierarchy, domain, tls_key.public_key.encode(), now=clock.now())
    client = DceClient(prover.root_zsk_dnskey())
    tls_bytes, dce_chain = server.handshake_payload()
    client.verify_server(tls_bytes, dce_chain, now=clock.now())
    print("  chain on the wire: %5d B (%.0f%% of the NOPE chain)" % (
        server.bandwidth(), 100.0 * server.bandwidth() / cert_bytes))
    print("  transparency: NO              revocation: NO")
    print("\n(paper: NOPE proof 248 B ~ 9.7% of a 2554 B chain; DCE 5870 B)")
    print("note: toy keys shrink DNSSEC records below production sizes;")
    print("      benchmarks/bench_fig7_cert_sizes.py re-measures with")
    print("      production key sizes, where DCE costs ~1.7x the chain.")


if __name__ == "__main__":
    main()
