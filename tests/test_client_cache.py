"""Client verification-cache semantics: hit/miss/expiry, and the rule that
a revoked or expired certificate is never served from cache."""

import pytest

from repro.ca import AcmeServer, CertificationAuthority, CtLog, PlainDnsView
from repro.clock import DAY, SimClock
from repro.core import (
    NopeClient,
    NopeProver,
    PinStore,
    VerificationCache,
    leaf_fingerprint,
)
from repro.ec import TOY29
from repro.errors import CertificateError
from repro.profiles import TOY, build_hierarchy
from repro.sig import EcdsaPrivateKey
from repro.wire import extract_proof


def cache_token(chain, domain):
    """The (nullifier) token the client caches this chain's verdict under."""
    return extract_proof(chain[0].san_names(), domain).nullifier


@pytest.fixture(scope="module")
def world():
    clock = SimClock()
    hierarchy = build_hierarchy(
        TOY,
        ["example.com"],
        inception=clock.now() - DAY,
        expiration=clock.now() + 365 * DAY,
    )
    logs = [CtLog("log-a", clock), CtLog("log-b", clock)]
    ca = CertificationAuthority("Repro Encrypt", clock, logs, TOY29)
    acme = AcmeServer(ca, PlainDnsView(hierarchy), clock)
    prover = NopeProver(TOY, hierarchy, "example.com", backend="simulation")
    prover.trusted_setup()
    tls_key = EcdsaPrivateKey.generate(TOY29)
    chain, _ = prover.obtain_certificate(acme, tls_key, clock)
    return {
        "clock": clock,
        "ca": ca,
        "prover": prover,
        "chain": chain,
    }


class CountingBackend:
    """Wraps a backend; counts verify() calls so tests can see cache skips."""

    def __init__(self, inner):
        self.inner = inner
        self.verify_calls = 0

    def verify(self, keys, proof, public_inputs):
        self.verify_calls += 1
        return self.inner.verify(keys, proof, public_inputs)


def make_client(world, cache=None):
    backend = CountingBackend(world["prover"].backend)
    client = NopeClient(
        TOY,
        world["ca"].trust_anchors(),
        root_zsk_dnskey=world["prover"].root_zsk_dnskey(),
        backend=backend,
        pin_store=PinStore(),
        verification_cache=cache,
    )
    client.register_statement(world["prover"].statement, world["prover"].keys)
    return client, backend


class TestCacheHitMiss:
    def test_second_connection_skips_proof_verification(self, world):
        cache = VerificationCache()
        client, backend = make_client(world, cache)
        now = world["clock"].now()
        first = client.verify_server("example.com", world["chain"], now)
        assert first.nope_ok and backend.verify_calls == 1
        second = client.verify_server("example.com", world["chain"], now)
        assert second.nope_ok
        assert backend.verify_calls == 1  # served from cache
        assert cache.hits == 1 and cache.misses == 1

    def test_no_cache_verifies_every_time(self, world):
        client, backend = make_client(world, cache=None)
        now = world["clock"].now()
        client.verify_server("example.com", world["chain"], now)
        client.verify_server("example.com", world["chain"], now)
        assert backend.verify_calls == 2

    def test_different_domain_is_a_miss(self, world):
        cache = VerificationCache()
        client, _ = make_client(world, cache)
        now = world["clock"].now()
        client.verify_server("example.com", world["chain"], now)
        assert cache.lookup(
            leaf_fingerprint(world["chain"][0]), "other.com", now
        ) is None

    def test_different_certificate_is_a_miss(self, world):
        cache = VerificationCache()
        client, backend = make_client(world, cache)
        now = world["clock"].now()
        client.verify_server("example.com", world["chain"], now)
        other_key = EcdsaPrivateKey.generate(TOY29)
        prover = world["prover"]
        from repro.ca import AcmeServer, PlainDnsView

        acme = AcmeServer(
            world["ca"], PlainDnsView(prover.hierarchy), world["clock"]
        )
        chain2, _ = prover.obtain_certificate(acme, other_key, world["clock"])
        client.verify_server("example.com", chain2, world["clock"].now())
        assert backend.verify_calls == 2

    def test_failed_verification_not_cached(self, world):
        cache = VerificationCache()
        client, _ = make_client(world, cache)
        now = world["clock"].now()
        # hostname mismatch: chain validation rejects, nothing is cached
        with pytest.raises(CertificateError):
            client.verify_server("wrong.com", world["chain"], now)
        assert len(cache) == 0


class TestCacheExpiry:
    def test_expired_certificate_never_served(self, world):
        cache = VerificationCache()
        client, _ = make_client(world, cache)
        now = world["clock"].now()
        client.verify_server("example.com", world["chain"], now)
        leaf = world["chain"][0]
        after_expiry = leaf.not_after + 1
        # the cache refuses the stale entry AND full validation rejects
        with pytest.raises(CertificateError):
            client.verify_server("example.com", world["chain"], after_expiry)
        assert cache.lookup(
            cache_token(world["chain"], "example.com"),
            "example.com", after_expiry,
        ) is None

    def test_max_ttl_caps_entry_lifetime(self, world):
        cache = VerificationCache(max_ttl=60)
        client, backend = make_client(world, cache)
        now = world["clock"].now()
        client.verify_server("example.com", world["chain"], now)
        client.verify_server("example.com", world["chain"], now + 61)
        assert backend.verify_calls == 2  # TTL elapsed -> full re-verification

    def test_ocsp_window_bounds_entry(self, world):
        cache = VerificationCache()
        client, backend = make_client(world, cache)
        now = world["clock"].now()
        responder = world["ca"].ocsp
        client.verify_server(
            "example.com", world["chain"], now, ocsp_responder=responder
        )
        beyond_window = now + responder.validity + 1
        token = cache_token(world["chain"], "example.com")
        entry = cache._entries[(token, "example.com")]
        assert entry.fingerprint == leaf_fingerprint(world["chain"][0])
        assert entry.expires_at <= now + responder.validity
        assert cache.lookup(token, "example.com", beyond_window) is None


class TestCacheRevocation:
    def test_revoked_certificate_never_served(self, world):
        cache = VerificationCache()
        client, backend = make_client(world, cache)
        now = world["clock"].now()
        responder = world["ca"].ocsp
        serial = world["chain"][0].serial
        client.verify_server(
            "example.com", world["chain"], now, ocsp_responder=responder
        )
        assert backend.verify_calls == 1
        world["ca"].revoke(serial)
        try:
            with pytest.raises(CertificateError, match="revoked"):
                client.verify_server(
                    "example.com", world["chain"], now,
                    ocsp_responder=responder,
                )
            assert len(cache) == 0  # revocation evicts the entry
        finally:
            responder.revoked.pop(serial, None)

    def test_cache_hit_still_checks_ocsp(self, world):
        cache = VerificationCache()
        client, backend = make_client(world, cache)
        now = world["clock"].now()
        responder = world["ca"].ocsp
        client.verify_server(
            "example.com", world["chain"], now, ocsp_responder=responder
        )
        report = client.verify_server(
            "example.com", world["chain"], now, ocsp_responder=responder
        )
        assert report.nope_ok and backend.verify_calls == 1

    def test_invalidate_serial(self, world):
        cache = VerificationCache()
        client, backend = make_client(world, cache)
        now = world["clock"].now()
        client.verify_server("example.com", world["chain"], now)
        cache.invalidate_serial(world["chain"][0].serial)
        client.verify_server("example.com", world["chain"], now)
        assert backend.verify_calls == 2


class TestCacheBounds:
    def test_eviction_keeps_cache_bounded(self, world):
        cache = VerificationCache(max_entries=2)

        class _Leaf:
            def __init__(self, serial, na):
                self.serial = serial
                self.not_before = 0
                self.not_after = na

        for i in range(5):
            cache.store(
                bytes([i]) * 32, "d%d.com" % i, object(), _Leaf(i, 100 + i), 1
            )
        assert len(cache) == 2

    def test_store_refuses_expired(self, world):
        cache = VerificationCache()

        class _Leaf:
            serial = 9
            not_before = 0
            not_after = 10

        cache.store(b"\x09" * 32, "x.com", object(), _Leaf(), now=50)
        assert len(cache) == 0
