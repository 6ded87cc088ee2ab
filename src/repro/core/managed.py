"""NOPE-managed (paper Appendix A): outsourced-DNSSEC domains.

Domain owners who outsource DNSSEC to a managed DNS provider do not hold
their KSK's private key, so they cannot run S_KSK.K.  Instead they write
``H(T-digest || N-digest || TS)`` into a TXT record on the domain (which
the provider signs with the zone's ZSK, as it signs everything) and prove
the existence of a valid chain down to *that record*.  The statement is
roughly twice the prover work (one more DNSKEY level plus the TXT check)
and — since no secret enters the witness — needs succinctness but not
zero knowledge.
"""

from ..dns.records import TYPE_TXT
from ..errors import ProvingError
from ..r1cs import ConstraintSystem
from ..telemetry import clocks as _clocks
from ..telemetry.trace import span as _span
from .common import input_digest, truncate_timestamp
from .prover import FR, NopeProver
from .statement import (
    NopeStatement,
    StatementShape,
    managed_binding_digest,
    prepare_managed_witness,
)


class ManagedNopeProver(NopeProver):
    """A domain owner without KSK access, using the App. A variant."""

    managed = True

    def __init__(self, profile, hierarchy, domain, backend=None):
        super().__init__(profile, hierarchy, domain, backend)
        self.shape = StatementShape(profile, self.domain.depth, managed=True)
        self.statement = NopeStatement(self.shape)

    def publish_binding(self, tls_key_bytes, ca_name, ts, validity=90 * 24 * 3600):
        """Write the binding TXT record and have the zone (re)sign it."""
        if isinstance(ca_name, str):
            ca_name = ca_name.encode()
        digest = managed_binding_digest(
            self.profile,
            input_digest(self.profile, tls_key_bytes),
            input_digest(self.profile, ca_name),
            ts,
        )
        self.zone.remove_txt(self.domain)
        self.zone.add_txt(self.domain, [digest])
        self.zone.sign(ts - 60, ts + validity)
        return self.zone.get(self.domain, TYPE_TXT)

    def synthesize(self, tls_key_bytes=b"", ca_name=b"", ts=None):
        self.synthesis_count += 1
        if isinstance(ca_name, str):
            ca_name = ca_name.encode()
        ts = truncate_timestamp(ts) if ts else 300
        txt_rrset = self.publish_binding(tls_key_bytes, ca_name, ts)
        chain = self.hierarchy.fetch_chain(self.domain, for_dce=True)
        witness = prepare_managed_witness(
            self.profile, self.domain, chain, txt_rrset, self.root_zsk_dnskey()
        )
        cs = ConstraintSystem(FR)
        self.statement.synthesize(
            cs,
            witness,
            input_digest(self.profile, tls_key_bytes),
            input_digest(self.profile, ca_name),
            ts,
        )
        return cs

    def generate_proof(self, tls_key_bytes, ca_name, ts=None, clock=None,
                       timer=None):
        # T/N/TS feed the TXT-binding logic here, and the binding TXT
        # record itself changes per proof, so the managed statement must
        # re-synthesize (structure is unchanged; the witness is not).
        if self.keys is None:
            raise ProvingError("run trusted_setup() first")
        if ts is None:
            now = timer or _clocks.wall
            ts = clock.now() if clock is not None else int(now())
        ts = truncate_timestamp(ts)
        with _span("nope.generate_proof", ts=ts, managed=True):
            with _span("statement.bind"):
                cs = self.synthesize(tls_key_bytes, ca_name, ts)
            return self.backend.prove(self.keys, cs), ts
