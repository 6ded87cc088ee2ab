"""The domain owner's NOPE tool (Figure 2 steps 1-4, paper §7 server-side).

``NopeProver`` fetches the DNSSEC chain, synthesizes S_NOPE, produces the
proof, encodes it into SAN entries, builds the CSR, and drives the ACME
DNS-01 exchange.  The result is a legacy certificate chain with the proof
embedded — the CA never knows.
"""

from ..ca.acme import DNS_PROPAGATION_DELAY, respond_to_challenge
from ..dns.name import DomainName
from ..errors import ProvingError
from ..r1cs import ConstraintSystem
from ..telemetry import clocks as _clocks
from ..telemetry.trace import span as _span
from ..wire import envelope_to_sans, seal, version_for_profile
from ..x509.csr import CertificateRequest
from .backend import make_backend
from .common import input_digest, truncate_timestamp
from .statement import NopeStatement, StatementShape, prepare_witness


class IssuanceTimeline:
    """Per-step durations for the Figure 5 timeline."""

    def __init__(self):
        self.steps = []

    def record(self, step, seconds):
        self.steps.append((step, seconds))

    def total(self):
        return sum(s for _, s in self.steps)

    def as_dict(self):
        return dict(self.steps)


class NopeProver:
    """A domain owner with DNSSEC keys, producing NOPE certificates."""

    def __init__(self, profile, hierarchy, domain, backend=None, field=None,
                 engine=None):
        from ..ec.curves import BN254_R
        from ..field import PrimeField

        self.profile = profile
        self.hierarchy = hierarchy
        self.domain = (
            DomainName.parse(domain) if isinstance(domain, str) else domain
        )
        self.zone = hierarchy.zones[self.domain]
        self.shape = StatementShape(profile, self.domain.depth)
        self.statement = NopeStatement(self.shape)
        self.backend = make_backend(
            backend or profile.default_backend, engine=engine
        )
        self.field = field or PrimeField(BN254_R)
        self.keys = None
        #: how many times the full R1CS has been synthesized (structure +
        #: witness); the base statement synthesizes once and re-binds
        self.synthesis_count = 0
        self._synthesized_cs = None

    # -- one-time statement setup ---------------------------------------------

    def root_zsk_dnskey(self):
        return self.hierarchy.root.zsk.dnskey()

    def _witness(self):
        chain = self.hierarchy.fetch_chain(self.domain)
        return prepare_witness(
            self.profile, self.domain, chain, self.zone.ksk, self.root_zsk_dnskey()
        )

    def synthesize(self, tls_key_bytes=b"", ca_name=b"", ts=0):
        """Build the fully-assigned constraint system for this statement."""
        self.synthesis_count += 1
        cs = ConstraintSystem(self.field)
        self.statement.synthesize(
            cs,
            self._witness(),
            input_digest(self.profile, tls_key_bytes),
            input_digest(self.profile, ca_name),
            ts,
        )
        return cs

    def _structure_cs(self):
        """The synthesized system, built once and re-bound per proof."""
        if self._synthesized_cs is None:
            self._synthesized_cs = self.synthesize()
        return self._synthesized_cs

    def trusted_setup(self):
        """Run (or reuse) the statement's trusted setup; returns the keys."""
        if self.keys is None:
            self.keys = self.backend.setup(
                self.shape.id_string(), self._structure_cs()
            )
        return self.keys

    # -- proof + certificate pipeline -----------------------------------------------

    def generate_proof(self, tls_key_bytes, ca_name, ts=None, clock=None,
                       timer=None):
        """Steps 1-2 of Figure 2.  Returns (proof_bytes, truncated_ts).

        The constraint *structure* is synthesized once per prover; each
        call only re-binds the per-proof inputs (T, N, TS) before proving.
        ``timer`` supplies wall-clock time when no ``clock``/``ts`` is
        given (injectable so tests stay deterministic).
        """
        if self.keys is None:
            raise ProvingError("run trusted_setup() first")
        if ts is None:
            # timer overrides the installed telemetry clock; both routes
            # make one FakeClock injection cover ts and every span below
            now = timer or _clocks.wall
            ts = clock.now() if clock is not None else int(now())
        ts = truncate_timestamp(ts)
        if isinstance(ca_name, str):
            ca_name = ca_name.encode()
        with _span("nope.generate_proof", ts=ts):
            cs = self._structure_cs()
            with _span("statement.bind"):
                self.statement.bind_witness(
                    cs,
                    input_digest(self.profile, tls_key_bytes),
                    input_digest(self.profile, ca_name),
                    ts,
                )
            return self.backend.prove(self.keys, cs), ts

    #: proves the NOPE-managed statement (paper App. A); sealed as the
    #: envelope's managed flag
    managed = False

    def seal_envelope(self, proof_bytes):
        """Wrap raw proof bytes in the canonical wire envelope.

        The envelope binds the proof to this prover's backend kind,
        parameter-profile version, managed flag, and domain — producing
        the nullifier that clients and CAs use to refuse reuse.
        """
        return seal(
            self.backend.kind,
            version_for_profile(self.profile.name),
            proof_bytes,
            str(self.domain).rstrip("."),
            managed=self.managed,
        )

    def build_csr(self, tls_private_key, proof_bytes):
        """Step 3: a CSR whose SANs carry the sealed proof envelope."""
        domain_text = str(self.domain).rstrip(".")
        sans = [domain_text] + envelope_to_sans(self.seal_envelope(proof_bytes))
        csr = CertificateRequest.build(domain_text, tls_private_key.public_key, sans)
        return csr.sign(tls_private_key)

    def obtain_certificate(self, acme_server, tls_private_key, clock,
                           dns_propagation=DNS_PROPAGATION_DELAY, timer=None):
        """The whole setup-time flow; returns (chain, timeline).

        Mirrors the paper's Figure 5 measurement: proof generation, ACME
        initiation, DNS propagation, ACME verification.  Proof-generation
        wall time is read from ``timer`` (default: real wall clock); inject
        a fake timer to make the Figure 5 timeline reproducible under test.
        """
        timer = timer or _clocks.wall
        timeline = IssuanceTimeline()
        tls_key_bytes = self._spki_bytes(tls_private_key)
        # NOPE proof generation (steps 1-2): measured in wall-clock time
        with _span("issuance.nope_proof_generation"):
            t0 = timer()
            ca_name = acme_server.ca.org_name
            proof_bytes, ts = self.generate_proof(
                tls_key_bytes, ca_name, ts=clock.now()
            )
            proof_wall = timer() - t0
        timeline.record("nope_proof_generation", proof_wall)
        clock.advance(max(1, int(proof_wall)))
        # ACME initiation (step 3)
        with _span("issuance.acme_initiation"):
            t_start = clock.now()
            order = acme_server.new_order(str(self.domain))
            csr = self.build_csr(tls_private_key, proof_bytes)
            timeline.record("acme_initiation", clock.now() - t_start + 1)
        clock.advance(1)
        # post the DNS challenge (step 4) and wait for propagation
        with _span("issuance.dns_propagation", seconds=dns_propagation):
            respond_to_challenge(self.zone, order, acme_server)
            self.zone.sign(clock.now(), clock.now() + 90 * 24 * 3600)
            clock.advance(dns_propagation)
            timeline.record("dns_propagation", dns_propagation)
        # CA validation + issuance (steps 5-7)
        with _span("issuance.acme_verification"):
            t_start = clock.now()
            acme_server.validate(order.order_id)
            chain = acme_server.finalize(order.order_id, csr)
            timeline.record("acme_verification", clock.now() - t_start)
        return chain, timeline

    @staticmethod
    def _spki_bytes(tls_private_key):
        from ..x509.cert import SubjectPublicKeyInfo

        return SubjectPublicKeyInfo(tls_private_key.public_key).raw_key_bytes()


def build_multi_domain_csr(provers, tls_private_key, ca_name, ts):
    """One CSR binding several domains, each with its own sealed proof.

    Every prover contributes its domain SAN plus that domain's envelope
    SAN set; the strict label-shape rules in :mod:`repro.x509.san` keep
    the per-domain fragments unambiguous, and clients verify the whole
    set in one batched pairing check (``NopeClient.verify_domains``).
    Returns ``(signed_csr, envelopes)``.
    """
    if not provers:
        raise ProvingError("need at least one prover for a multi-domain CSR")
    tls_key_bytes = NopeProver._spki_bytes(tls_private_key)
    sans = []
    envelopes = []
    for prover in provers:
        proof_bytes, _ = prover.generate_proof(tls_key_bytes, ca_name, ts=ts)
        env = prover.seal_envelope(proof_bytes)
        envelopes.append(env)
        sans.append(env.domain)
        sans.extend(envelope_to_sans(env))
    primary = envelopes[0].domain
    csr = CertificateRequest.build(primary, tls_private_key.public_key, sans)
    return csr.sign(tls_private_key), envelopes


def run_legacy_acme(acme_server, zone, domain, tls_private_key, clock,
                    dns_propagation=DNS_PROPAGATION_DELAY):
    """Plain ACME issuance (the DV baseline): no proof, same challenge flow."""
    timeline = IssuanceTimeline()
    domain_text = str(domain).rstrip(".")
    t_start = clock.now()
    order = acme_server.new_order(domain_text)
    csr = CertificateRequest.build(
        domain_text, tls_private_key.public_key, [domain_text]
    ).sign(tls_private_key)
    timeline.record("acme_initiation", clock.now() - t_start + 1)
    clock.advance(1)
    respond_to_challenge(zone, order, acme_server)
    zone.sign(clock.now(), clock.now() + 90 * 24 * 3600)
    clock.advance(dns_propagation)
    timeline.record("dns_propagation", dns_propagation)
    t_start = clock.now()
    acme_server.validate(order.order_id)
    chain = acme_server.finalize(order.order_id, csr)
    timeline.record("acme_verification", clock.now() - t_start)
    return chain, timeline
