"""Figure 4: client-side cost to verify a server's authenticity.

Five (server, client) configurations; for each, the bench measures the
wall time from "credentials in hand" to "authenticated" and reports the
bytes on the wire.  Absolute times are pure-Python (the paper's native row
is compiled code); the shape to compare: legacy ~= NOPE-server/legacy-
client << NOPE/NOPE, and DCE costs ~2x the certificate bandwidth.

Paper's numbers: 2554 B legacy, 2783 B NOPE (+~9%), 5-6 KB DCE; 0.3 ms
legacy, 1.5 ms NOPE native, 0.7 ms DCE.
"""

from repro.core import DceClient, DceServer, NopeClient, run_legacy_acme
from repro.ec import TOY29
from repro.profiles import TOY
from repro.sig import EcdsaPrivateKey
from repro.x509.validate import chain_wire_size

_report = {}


def replay(config):
    """Run-certificate replay core: the bytes-on-the-wire arithmetic this
    figure is about, over a fixed proof body (the timed verify paths need
    the session-scoped groth16 world and secrets-generated TLS keys, which
    a deterministic replay cannot reproduce)."""
    from repro.wire import KIND_SIMULATION, VERSION_PRODUCTION, envelope_to_sans, seal

    body = bytes(i % 251 for i in range(128))
    env = seal(KIND_SIMULATION, VERSION_PRODUCTION, body, "nope-tools")
    sans = envelope_to_sans(env)
    return {
        "san_labels": len(sans),
        "encoded_proof_bytes": sum(len(s) for s in sans),
        "raw_proof_bytes": len(body),
    }


def _legacy_chain(world):
    if "legacy_chain" not in world:
        zone = world["hierarchy"].zones[world["prover"].domain]
        key = EcdsaPrivateKey.generate(TOY29)
        chain, _ = run_legacy_acme(
            world["acme"], zone, "nope-tools", key, world["clock"]
        )
        world["legacy_chain"] = chain
    return world["legacy_chain"]


def test_legacy_server_legacy_client(benchmark, groth16_world):
    w = groth16_world
    chain = _legacy_chain(w)
    now = w["clock"].now()
    benchmark.pedantic(
        lambda: w["legacy_client"].verify_server("nope-tools", chain, now),
        rounds=10, iterations=1,
    )
    _report["legacy/legacy"] = chain_wire_size(chain)


def test_legacy_server_nope_client(benchmark, groth16_world):
    w = groth16_world
    chain = _legacy_chain(w)
    now = w["clock"].now()
    benchmark.pedantic(
        lambda: w["client"].verify_server("nope-tools", chain, now),
        rounds=10, iterations=1,
    )
    _report["legacy/NOPE"] = chain_wire_size(chain)


def test_nope_server_legacy_client(benchmark, groth16_world):
    w = groth16_world
    now = w["clock"].now()
    benchmark.pedantic(
        lambda: w["legacy_client"].verify_server("nope-tools", w["chain"], now),
        rounds=10, iterations=1,
    )
    _report["NOPE/legacy"] = chain_wire_size(w["chain"])


def test_nope_server_nope_client(benchmark, groth16_world):
    w = groth16_world
    now = w["clock"].now()
    benchmark.pedantic(
        lambda: w["client"].verify_server("nope-tools", w["chain"], now),
        rounds=5, iterations=1,
    )
    _report["NOPE/NOPE"] = chain_wire_size(w["chain"])


def test_dce_server_dce_client(benchmark, groth16_world):
    w = groth16_world
    tls_key = EcdsaPrivateKey.generate(TOY29)
    server = DceServer(
        w["hierarchy"], "nope-tools", tls_key.public_key.encode(),
        now=w["clock"].now(),
    )
    client = DceClient(w["prover"].root_zsk_dnskey())
    payload = server.handshake_payload()
    now = w["clock"].now()
    benchmark.pedantic(
        lambda: client.verify_server(payload[0], payload[1], now=now),
        rounds=10, iterations=1,
    )
    _report["DCE/DCE"] = server.bandwidth()


def test_zz_print_bandwidth_table(benchmark, groth16_world):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    """Prints the Figure 4 bandwidth column after the timing benches."""
    legacy = _report.get("legacy/legacy", 0)
    print("\n== Figure 4: bytes on the wire (this repo vs paper shape) ==")
    for config, size in sorted(_report.items()):
        rel = (100.0 * size / legacy) if legacy else 0.0
        print("  %-14s %6d B  (%.0f%% of legacy)" % (config, size, rel))
    if "NOPE/NOPE" in _report and legacy:
        overhead = _report["NOPE/NOPE"] - legacy
        print(
            "  NOPE adds %d B (paper: +229 B, ~10%% of the chain)" % overhead
        )
