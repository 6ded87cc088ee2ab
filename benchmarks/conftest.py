"""Shared fixtures for the benchmark suite.

``groth16_world`` runs the expensive pure-Python trusted setup once per
session (depth-1 toy statement, ~15k constraints) and is shared by the
Figure 4 and Figure 5 benches, which need *real* proofs and verifications.
"""

import os

import pytest

from repro.ca import AcmeServer, CertificationAuthority, CtLog, PlainDnsView
from repro.clock import DAY, SimClock
from repro.core import NopeClient, NopeProver, PinStore
from repro.ec import TOY29
from repro.profiles import TOY, build_hierarchy
from repro.sig import EcdsaPrivateKey


def pytest_sessionfinish(session, exitstatus):
    """Emit one BENCH_<module>.json per pytest-benchmark module.

    Mirrors the structured records the script-style benches write, so every
    bench run — pytest or direct — leaves a machine-readable artifact.
    ``write_bench_record`` also emits each module's chained
    ``CERT_<module>.json`` run certificate; because the metrics snapshot in
    a pytest-session record spans every module that ran, these certificates
    are *structural* replay targets (``python -m repro.telemetry replay``
    re-executes the module's ``replay(config)`` core twice and requires the
    two executions to agree bit-identically, rather than matching the
    session-wide snapshot).  Guarded defensively: absent or drifted
    pytest-benchmark internals must never fail the bench session itself.
    """
    bench_session = getattr(session.config, "_benchmarksession", None)
    benchmarks = getattr(bench_session, "benchmarks", None)
    if not benchmarks:
        return
    try:
        from repro.telemetry.bench import write_bench_record

        per_module = {}
        for bench in benchmarks:
            stats = getattr(bench, "stats", None)
            if stats is None:
                continue
            module = bench.fullname.split("::")[0]
            name = os.path.splitext(os.path.basename(module))[0]
            per_module.setdefault(name, {})[bench.name] = {
                "min_s": stats.min,
                "mean_s": stats.mean,
                "rounds": stats.rounds,
            }
        for name, results in per_module.items():
            write_bench_record(name, {"pytest_benchmark": True}, results)
    except Exception as exc:  # never fail the bench run over reporting
        print("conftest: skipping BENCH_*.json emission: %s" % exc)


@pytest.fixture(scope="session")
def groth16_world():
    clock = SimClock()
    hierarchy = build_hierarchy(
        TOY,
        ["nope-tools"],
        inception=clock.now() - DAY,
        expiration=clock.now() + 365 * DAY,
    )
    logs = [CtLog("log-a", clock), CtLog("log-b", clock)]
    ca = CertificationAuthority("Repro Encrypt", clock, logs, TOY29)
    acme = AcmeServer(ca, PlainDnsView(hierarchy), clock)
    prover = NopeProver(TOY, hierarchy, "nope-tools", backend="groth16")
    prover.trusted_setup()
    tls_key = EcdsaPrivateKey.generate(TOY29)
    chain, timeline = prover.obtain_certificate(acme, tls_key, clock)
    client = NopeClient(
        TOY,
        ca.trust_anchors(),
        root_zsk_dnskey=prover.root_zsk_dnskey(),
        backend=prover.backend,
        pin_store=PinStore(),
    )
    client.register_statement(prover.statement, prover.keys)
    legacy_client = NopeClient(TOY, ca.trust_anchors(), nope_aware=False)
    return {
        "clock": clock,
        "hierarchy": hierarchy,
        "ca": ca,
        "acme": acme,
        "prover": prover,
        "tls_key": tls_key,
        "chain": chain,
        "timeline": timeline,
        "client": client,
        "legacy_client": legacy_client,
    }
