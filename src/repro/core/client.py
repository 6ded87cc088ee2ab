"""The NOPE-aware client (Figure 2 steps 8-11; the paper's Firefox
extension, §7 client-side).

Verification order matters and mirrors §3.2:

1. legacy chain validation (signatures, validity, hostname);
2. revocation: a fresh OCSP response must accompany the chain;
3. NOPE: extract the proof from the SANs, rebuild the public inputs from
   the certificate itself (D, T = the leaf's key, N = the issuer's
   organization name, TS = truncated notBefore) plus the pinned root ZSK,
   and verify;
4. CT consistency: at least ``min_scts`` SCTs whose timestamps sit within
   tolerance of notBefore — the check that stops a compromised CA from
   backdating a certificate to match a replayed proof.

Advertisement (§6) is a pin store: for pinned domains a certificate
*without* a valid NOPE proof is rejected, preventing rogue-certificate
laundering against NOPE-enabled servers.

Repeat connections are served from a :class:`VerificationCache`: a
successful NOPE verification is remembered under (cache token, domain) —
the token is the proof envelope's **nullifier** for wire-format
certificates, or the leaf-certificate fingerprint for legacy/non-NOPE
chains — for as long as the certificate — and, when OCSP is in play, the
revocation window — stays valid, so the expensive proof pairing check
runs once per (cert, domain) instead of once per connection.  Each cache
entry remembers the fingerprint it was verified under, so a nullifier hit
from a *different* certificate (an envelope lifted wholesale into a new
cert) is refused instead of served.  Revocation is never cached: on a hit
the client still re-checks OCSP status, and a revoked or expired
certificate is evicted, not served.
"""

import hmac
import logging

from ..errors import CertificateError, EncodingError, ProofError, VerificationError
from ..hashes.sha256 import sha256
from ..telemetry import metrics as _metrics
from ..telemetry.export import stats_line
from ..telemetry.trace import span as _span
from ..wire import NULLIFIER_REJECTED, extract_proof, version_for_profile
from ..x509 import oid as OID
from ..x509.cert import parse_sct_list
from ..x509.san import is_nope_san
from ..x509.validate import validate_chain
from ..ca.ct import SignedCertificateTimestamp
from ..ca.ocsp import STATUS_REVOKED
from .common import SCT_TOLERANCE, input_digest, truncate_timestamp

_CACHE_HIT = _metrics.counter("cache.hit")
_CACHE_MISS = _metrics.counter("cache.miss")
_CACHE_EXPIRED = _metrics.counter("cache.expired")
_CACHE_EVICTED = _metrics.counter("cache.evicted")
_CACHE_REVOCATION_REFUSED = _metrics.counter("cache.revocation_refused")

_LOG = logging.getLogger("repro.core.client")


class VerificationReport:
    """What the client concluded about a connection."""

    def __init__(self, domain, legacy_ok, nope_checked, nope_ok, details=""):
        self.domain = domain
        self.legacy_ok = legacy_ok
        self.nope_checked = nope_checked
        self.nope_ok = nope_ok
        self.details = details

    def __repr__(self):
        return "VerificationReport(%s legacy=%s nope=%s%s)" % (
            self.domain,
            self.legacy_ok,
            self.nope_ok if self.nope_checked else "n/a",
            " (%s)" % self.details if self.details else "",
        )


def leaf_fingerprint(cert):
    """SHA-256 over the certificate's DER encoding — the legacy cache key
    (and every entry's bound certificate identity)."""
    return sha256(cert.to_der())


class _CacheEntry:
    """One remembered verification outcome."""

    __slots__ = ("report", "fingerprint", "serial", "not_before", "expires_at")

    def __init__(self, report, fingerprint, serial, not_before, expires_at):
        self.report = report
        #: the leaf fingerprint the verification ran against — a hit from a
        #: different certificate with the same token is proof reuse
        self.fingerprint = fingerprint
        self.serial = serial
        self.not_before = not_before
        self.expires_at = expires_at


class VerificationCache:
    """TTL cache of successful NOPE verifications.

    Keyed by (token, domain) where the token is the envelope nullifier for
    wire-format certificates and the leaf fingerprint otherwise; an entry
    expires at the earliest of the certificate's notAfter, the OCSP
    response's nextUpdate (when revocation was checked at store time), and
    an optional ``max_ttl`` cap.  Only *successful* verifications are
    stored — a rejection must re-run every check, since the server may
    staple a corrected response on retry.
    """

    def __init__(self, max_entries=4096, max_ttl=None):
        self.max_entries = max_entries
        self.max_ttl = max_ttl
        self._entries = {}
        self.hits = 0
        self.misses = 0
        self.expirations = 0
        self.evictions = 0
        self.revocation_refused = 0

    def __len__(self):
        return len(self._entries)

    def stats(self):
        """Counters as a dict (also mirrored into the telemetry registry
        under ``cache.*``)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "expirations": self.expirations,
            "evictions": self.evictions,
            "revocation_refused": self.revocation_refused,
            "entries": len(self._entries),
        }

    def lookup(self, token, domain, now):
        """The live :class:`_CacheEntry` for (token, domain), or None.

        Callers compare ``entry.fingerprint`` against the presented leaf
        before serving ``entry.report`` — a token collision across
        different certificate bytes is proof reuse, not a hit.
        """
        key = (token, domain)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            _CACHE_MISS.inc()
            return None
        if now < entry.not_before or now > entry.expires_at:
            del self._entries[key]
            self.misses += 1
            self.expirations += 1
            _CACHE_MISS.inc()
            _CACHE_EXPIRED.inc()
            return None
        self.hits += 1
        _CACHE_HIT.inc()
        return entry

    def refuse_revoked(self, token):
        """A cache hit was *not* served because revocation failed; evict."""
        self.revocation_refused += 1
        _CACHE_REVOCATION_REFUSED.inc()
        self.invalidate(token)

    def store(self, token, domain, report, leaf, now, ocsp_response=None,
              fingerprint=None):
        """Remember a successful verification within its validity window."""
        expires_at = leaf.not_after
        if ocsp_response is not None:
            expires_at = min(expires_at, ocsp_response.next_update)
        if self.max_ttl is not None:
            expires_at = min(expires_at, now + self.max_ttl)
        if expires_at < now:
            return
        if len(self._entries) >= self.max_entries:
            # drop the entry closest to expiry; keeps the cache bounded
            # without tracking recency
            victim = min(
                self._entries, key=lambda k: self._entries[k].expires_at
            )
            del self._entries[victim]
            self.evictions += 1
            _CACHE_EVICTED.inc()
        self._entries[(token, domain)] = _CacheEntry(
            report, fingerprint if fingerprint is not None else token,
            leaf.serial, leaf.not_before, expires_at
        )

    def invalidate(self, token, domain=None):
        """Drop entries for a token *or* certificate fingerprint
        (optionally one domain only)."""
        if domain is not None:
            self._entries.pop((token, domain), None)
            return
        for key in [
            k for k, e in self._entries.items()
            if k[0] == token or e.fingerprint == token
        ]:
            del self._entries[key]

    def invalidate_serial(self, serial):
        """Drop every entry for a serial (revocation broadcast hook)."""
        for key in [
            k for k, e in self._entries.items() if e.serial == serial
        ]:
            del self._entries[key]

    def clear(self):
        self._entries.clear()


class NopeClient:
    """A TLS client with optional NOPE awareness."""

    #: bound on the seen-nullifier map (VerificationCache's default bound);
    #: any peer with valid proofs can add entries, so the map must not grow
    #: without limit
    MAX_SEEN_NULLIFIERS = 4096

    def __init__(self, profile, trust_roots, root_zsk_dnskey=None,
                 statement_keys=None, statements=None, backend=None,
                 pin_store=None, min_scts=1, nope_aware=True,
                 verification_cache=None):
        self.profile = profile
        self.trust_roots = list(trust_roots)
        self.root_zsk_dnskey = root_zsk_dnskey
        #: shape_id -> (NopeStatement, StatementKeys)
        self.statements = dict(statements or {})
        if statement_keys is not None:
            for shape_id, pair in statement_keys.items():
                self.statements[shape_id] = pair
        self.backend = backend
        self.pin_store = pin_store
        self.min_scts = min_scts
        self.nope_aware = nope_aware
        #: optional :class:`VerificationCache`; None disables caching
        self.verification_cache = verification_cache
        #: envelope nullifier -> leaf fingerprint it was first verified
        #: under; the same nullifier under different certificate bytes is
        #: cross-certificate proof reuse and is refused.  Kept in recency
        #: order and evicted oldest-first past MAX_SEEN_NULLIFIERS.
        self._seen_nullifiers = {}

    def register_statement(self, statement, keys):
        self.statements[statement.shape.id_string()] = (statement, keys)

    def cache_summary(self):
        """One-line verification-cache summary (empty string if no cache)."""
        if self.verification_cache is None:
            return ""
        return stats_line("verification-cache", self.verification_cache.stats())

    def log_cache_summary(self):
        """Log the cache summary at INFO; returns the line for callers."""
        line = self.cache_summary()
        if line:
            _LOG.info("%s", line)
        return line

    # -- the connection-time check -------------------------------------------------

    def verify_server(self, domain, chain, now, ocsp_responder=None,
                      ocsp_response=None):
        """Validate a server's chain; returns a VerificationReport.

        Raises CertificateError/ProofError on rejection.
        """
        domain = domain.rstrip(".")
        with _span("nope.verify_server", domain=domain):
            return self._verify_server(
                domain, chain, now, ocsp_responder, ocsp_response
            )

    def _verify_server(self, domain, chain, now, ocsp_responder, ocsp_response):
        fingerprint = leaf_fingerprint(chain[0]) if chain else None
        payload, payload_error = (
            self._extract_payload(chain[0], domain) if chain else (None, None)
        )
        token = payload.nullifier if payload is not None else None
        if token is None:
            token = fingerprint
        if self.verification_cache is not None and chain:
            cached = self._cached_report(
                token, fingerprint, domain, chain[0], now,
                ocsp_responder, ocsp_response
            )
            if cached is not None:
                return cached
        leaf = validate_chain(chain, self.trust_roots, domain, now)
        # revocation (stapled response, or fetched from the responder)
        if ocsp_responder is not None:
            if ocsp_response is None:
                ocsp_response = ocsp_responder.status(leaf.serial)
            status = ocsp_responder.verify_response(ocsp_response, now)
            if status == STATUS_REVOKED:
                if self.verification_cache is not None and fingerprint:
                    self.verification_cache.invalidate(fingerprint)
                raise CertificateError("certificate is revoked")
        if not self.nope_aware:
            return VerificationReport(domain, True, False, False, "legacy client")
        has_nope = any(is_nope_san(name) for name in leaf.san_names())
        pinned = self.pin_store.is_required(domain, now) if self.pin_store else False
        if not has_nope:
            if pinned:
                raise ProofError(
                    "domain %s is pinned to NOPE but presented no proof" % domain
                )
            return VerificationReport(domain, True, False, False, "no NOPE proof")
        self._refuse_nullifier_reuse(payload, fingerprint)
        self._verify_nope_proof(domain, leaf, payload, payload_error)
        self._check_sct_consistency(leaf)
        self._note_nullifier(payload, fingerprint)
        if self.pin_store is not None:
            self.pin_store.record_nope_seen(
                domain, now, nullifier=payload.nullifier if payload else None
            )
        report = VerificationReport(domain, True, True, True)
        if self.verification_cache is not None and token:
            self.verification_cache.store(
                token, domain, report, leaf, now, ocsp_response,
                fingerprint=fingerprint,
            )
        return report

    @staticmethod
    def _extract_payload(leaf, domain):
        """(WirePayload, None) or (None, the decoding error)."""
        try:
            return extract_proof(leaf.san_names(), domain), None
        except EncodingError as exc:
            return None, exc

    def _refuse_nullifier_reuse(self, payload, fingerprint):
        """The same envelope under different certificate bytes is reuse."""
        nullifier = payload.nullifier if payload is not None else None
        if nullifier is None or fingerprint is None:
            return
        prior = self._seen_nullifiers.get(nullifier)
        if prior is not None and not hmac.compare_digest(prior, fingerprint):
            NULLIFIER_REJECTED.inc()
            raise ProofError(
                "NOPE envelope nullifier already bound to a different "
                "certificate (cross-certificate proof reuse)"
            )

    def _note_nullifier(self, payload, fingerprint):
        if payload is not None and fingerprint:
            seen = self._seen_nullifiers
            # re-noting moves the entry to the newest end
            seen.pop(payload.nullifier, None)
            seen[payload.nullifier] = fingerprint
            if len(seen) > self.MAX_SEEN_NULLIFIERS:
                del seen[next(iter(seen))]

    def _cached_report(self, token, fingerprint, domain, leaf, now,
                       ocsp_responder, ocsp_response):
        """A still-valid cached verification, or None to verify in full.

        A hit skips chain validation, proof verification, and the SCT
        checks — all of which depend only on the (immutable) certificate
        bytes already verified — but *never* skips revocation: with a
        responder in play the OCSP status is re-checked on every
        connection, and a revoked certificate evicts the entry.  A
        nullifier-keyed hit whose stored fingerprint differs from the
        presented leaf is cross-certificate proof reuse and is refused
        outright, even on this fast path.
        """
        cache = self.verification_cache
        entry = cache.lookup(token, domain, now)
        if entry is None:
            return None
        if fingerprint is not None and not hmac.compare_digest(
            entry.fingerprint, fingerprint
        ):
            NULLIFIER_REJECTED.inc()
            raise ProofError(
                "NOPE envelope nullifier already bound to a different "
                "certificate (cross-certificate proof reuse)"
            )
        if now > leaf.not_after or now < leaf.not_before:
            cache.invalidate(token)
            return None
        if ocsp_responder is not None:
            if ocsp_response is None:
                ocsp_response = ocsp_responder.status(leaf.serial)
            status = ocsp_responder.verify_response(ocsp_response, now)
            if status == STATUS_REVOKED:
                cache.refuse_revoked(token)
                raise CertificateError("certificate is revoked")
        return entry.report

    def _statement_for_payload(self, domain, payload):
        """Resolve (statement, keys) and cross-check the envelope header."""
        from ..dns.name import DomainName
        from .statement import StatementShape

        env = payload.envelope
        expected_kind = getattr(self.backend, "kind", None)
        if expected_kind is not None and env.kind != expected_kind:
            raise ProofError(
                "envelope kind %#x does not match the %r backend"
                % (env.kind, getattr(self.backend, "name", "?"))
            )
        if env.version != version_for_profile(self.profile.name):
            raise ProofError(
                "envelope body version %d does not match the %s profile"
                % (env.version, self.profile.name)
            )
        depth = DomainName.parse(domain).depth
        shape_id = StatementShape(
            self.profile, depth, managed=payload.managed
        ).id_string()
        entry = self.statements.get(shape_id)
        if entry is None:
            raise ProofError("no verification key for statement %s" % shape_id)
        return entry

    def _verify_nope_proof(self, domain, leaf, payload, payload_error):
        if payload is None:
            raise ProofError(
                "malformed NOPE SAN encoding: %s" % payload_error
            ) from payload_error
        statement, keys = self._statement_for_payload(domain, payload)
        proof = payload.proof
        ca_name = (leaf.issuer.organization or "").encode()
        base_ts = truncate_timestamp(leaf.not_before)
        # the prover truncates TS *before* CA issuance latency, so the
        # certificate's notBefore may land one bucket later (§3.2:
        # "truncates TS to within a few minutes")
        last_error = None
        from .common import TS_GRANULARITY

        for delta in (0, -TS_GRANULARITY):
            public_inputs = statement.public_inputs(
                domain,
                self.root_zsk_dnskey.public_key,
                input_digest(self.profile, leaf.tls_key_bytes),
                input_digest(self.profile, ca_name),
                base_ts + delta,
            )
            try:
                self.backend.verify(keys, proof, public_inputs)
                return
            except (ProofError, VerificationError) as exc:
                last_error = exc
        raise ProofError("NOPE proof rejected: %s" % last_error) from last_error

    def verify_domains(self, domains, chain, now, ocsp_responder=None,
                       ocsp_response=None):
        """Verify one certificate binding several NOPE domains at once.

        Chain signatures/validity/revocation and the SCT-consistency check
        run once; each domain's envelope is extracted from its own SAN
        fragment set, header-checked, screened for nullifier reuse, and
        the proofs are then verified in batches — one
        ``backend.verify_batch`` multi-pairing call per statement shape.
        Returns ``{domain: VerificationReport}``.
        """
        if not domains:
            raise ProofError("verify_domains needs at least one domain")
        domains = [d.rstrip(".") for d in domains]
        with _span("nope.verify_domains", count=len(domains)):
            leaf = validate_chain(chain, self.trust_roots, domains[0], now)
            san_names = leaf.san_names()
            for domain in domains[1:]:
                if domain not in san_names:
                    raise CertificateError(
                        "certificate does not bind %s" % domain
                    )
            if ocsp_responder is not None:
                if ocsp_response is None:
                    ocsp_response = ocsp_responder.status(leaf.serial)
                if ocsp_responder.verify_response(ocsp_response, now) == STATUS_REVOKED:
                    raise CertificateError("certificate is revoked")
            fingerprint = leaf_fingerprint(leaf)
            payloads = {}
            for domain in domains:
                payload, error = self._extract_payload(leaf, domain)
                if payload is None:
                    raise ProofError(
                        "malformed NOPE SAN encoding for %s: %s"
                        % (domain, error)
                    ) from error
                self._refuse_nullifier_reuse(payload, fingerprint)
                payloads[domain] = payload
            self._check_sct_consistency(leaf)
            self._verify_proof_batch(domains, leaf, payloads)
            reports = {}
            for domain in domains:
                payload = payloads[domain]
                self._note_nullifier(payload, fingerprint)
                if self.pin_store is not None:
                    self.pin_store.record_nope_seen(
                        domain, now, nullifier=payload.nullifier
                    )
                report = VerificationReport(domain, True, True, True)
                reports[domain] = report
                if self.verification_cache is not None:
                    self.verification_cache.store(
                        payload.nullifier, domain, report, leaf, now,
                        ocsp_response, fingerprint=fingerprint,
                    )
            return reports

    def _verify_proof_batch(self, domains, leaf, payloads):
        """Group per-domain proofs by statement shape; one batched
        verification per group."""
        from ..groth16 import BatchVerificationError
        from .common import TS_GRANULARITY

        groups = {}
        for domain in domains:
            payload = payloads[domain]
            statement, keys = self._statement_for_payload(domain, payload)
            groups.setdefault(id(keys), (statement, keys, []))[2].append(
                (domain, payload)
            )
        ca_name = (leaf.issuer.organization or "").encode()
        base_ts = truncate_timestamp(leaf.not_before)
        for statement, keys, members in groups.values():
            proofs = [p.proof for _, p in members]
            last_error = None
            for delta in (0, -TS_GRANULARITY):
                publics = [
                    statement.public_inputs(
                        domain,
                        self.root_zsk_dnskey.public_key,
                        input_digest(self.profile, leaf.tls_key_bytes),
                        input_digest(self.profile, ca_name),
                        base_ts + delta,
                    )
                    for domain, _ in members
                ]
                try:
                    self.backend.verify_batch(keys, proofs, publics)
                    last_error = None
                    break
                except (BatchVerificationError, ProofError,
                        VerificationError) as exc:
                    last_error = exc
            if last_error is not None:
                raise ProofError(
                    "NOPE batch verification rejected: %s" % last_error
                ) from last_error

    def audit_scts(self, leaf, logs, grace=0):
        """SCT auditing (§3.3's fallback against a CT attacker).

        For each SCT in the certificate, ask the issuing log for an
        inclusion proof of the corresponding precertificate once the MMD
        (plus ``grace``) has elapsed.  A log that signed an SCT but
        withheld the entry is caught here — the check browsers "do not do
        by default today" per the paper.  Raises ProofError on any missing
        or unverifiable entry.
        """
        from ..ca.ct import MerkleTree

        ext = leaf.extension(OID.OID_EXT_SCT_LIST)
        if ext is None:
            raise ProofError("certificate carries no SCTs to audit")
        scts = [
            SignedCertificateTimestamp.from_bytes(raw)
            for raw in parse_sct_list(ext.value)
        ]
        logs_by_id = {log.log_id: log for log in logs}
        for sct in scts:
            log = logs_by_id.get(sct.log_id)
            if log is None:
                raise ProofError("SCT from an unknown log")
            log.merge()
            if log.clock.now() < sct.timestamp + log.mmd + grace:
                raise ProofError("MMD has not elapsed; audit later")
            # find the precertificate entry (same serial, poisoned)
            for index, (_, der) in enumerate(log.entries):
                try:
                    from ..x509.cert import Certificate

                    entry = Certificate.from_der(der)
                except Exception:
                    continue
                if entry.serial == leaf.serial:
                    path = log.tree.inclusion_proof(index)
                    MerkleTree.verify_inclusion(
                        der, index, log.tree.size, path, log.tree.root()
                    )
                    break
            else:
                raise ProofError(
                    "log %s signed an SCT but never merged the entry "
                    "(CT attacker caught by auditing)" % log.name
                )

    def _check_sct_consistency(self, leaf):
        """SCT timestamps must match the certificate's notBefore (§3.2)."""
        ext = leaf.extension(OID.OID_EXT_SCT_LIST)
        if ext is None:
            raise ProofError("NOPE certificate lacks SCTs")
        scts = [
            SignedCertificateTimestamp.from_bytes(raw)
            for raw in parse_sct_list(ext.value)
        ]
        if len(scts) < self.min_scts:
            raise ProofError("not enough SCTs")
        for sct in scts:
            if abs(sct.timestamp - leaf.not_before) > SCT_TOLERANCE:
                raise ProofError(
                    "SCT timestamp inconsistent with notBefore "
                    "(possible backdated certificate)"
                )
