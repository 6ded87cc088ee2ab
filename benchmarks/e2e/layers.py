"""Per-layer attribution for the end-to-end benchmark.

The program already opens telemetry spans in the engine, groth16, pairing,
wire and client layers.  For layers that open none (dns, statement
synthesis, x509, sig, ca) the benchmark wraps public functions with
:func:`repro.telemetry.trace.traced`, so a traced operation yields one span
tree per op: the benchmark's ``bench.op`` root, the program's spans, and the
wrapper spans.  :func:`fold` turns those trees into per-metric self times;
self time is a span's wall time minus the wall time of its children, so the
per-metric totals plus the unattributed ``bench.op`` self time add up to
the op's wall time exactly.

Only the benchmark imports this module; the program is never patched in an
untraced run.
"""

import importlib
from collections import Counter, defaultdict

from repro.telemetry.trace import traced

#: benchmark-side spans: (module, attribute path, span name)
WRAPPED = (
    ("repro.dns.zone", "Zone.sign", "dns.zone_sign"),
    ("repro.dns.resolver", "DnsHierarchy.fetch_chain", "dns.fetch_chain"),
    ("repro.core.statement", "NopeStatement.synthesize",
     "core.statement.synthesize"),
    ("repro.pairing.bn254", "G2Point.in_subgroup", "pairing.g2_subgroup"),
    # the client's own import of validate_chain is its call site
    ("repro.core.client", "validate_chain", "x509.validate_chain"),
    ("repro.x509.csr", "CertificateRequest.sign", "x509.csr"),
    ("repro.sig.ecdsa", "EcdsaPublicKey.verify", "sig.ecdsa_verify"),
    ("repro.ca.acme", "AcmeServer.new_order", "ca.acme"),
    ("repro.ca.acme", "AcmeServer.validate", "ca.acme"),
    ("repro.ca.acme", "AcmeServer.finalize", "ca.acme"),
    ("repro.ca.authority", "CertificationAuthority.issue", "ca.issue"),
    ("repro.ca.ct", "CtLog.submit", "ca.ct_submit"),
    ("repro.ca.ocsp", "OcspResponder.verify_response", "ca.ocsp_verify"),
    ("repro.core.client", "leaf_fingerprint", "core.client.fingerprint"),
)

#: span name -> the per-layer metric its self time is charged to
SELF_TIME = {
    "dns.zone_sign": "dns.zone_sign_ms",
    "dns.fetch_chain": "dns.fetch_chain_ms",
    "core.statement.synthesize": "core.statement.synthesize_ms",
    "statement.bind": "core.statement.bind_ms",
    "engine.coset_extend": "engine.fft_ms",
    "groth16.h_coefficients": "engine.fft_ms",
    "engine.evaluate_r1cs": "engine.evaluate_ms",
    "engine.compile": "engine.compile_ms",
    "groth16.prove": "groth16.prove_self_ms",
    "prove.evaluate": "groth16.prove_self_ms",
    "prove.msm.a": "groth16.prove_self_ms",
    "prove.msm.b_g1": "groth16.prove_self_ms",
    "prove.msm.b_g2": "groth16.prove_self_ms",
    "prove.msm.c": "groth16.prove_self_ms",
    "groth16.verify": "groth16.verify_self_ms",
    "verify.ic_msm": "groth16.verify_self_ms",
    "verify.pairing": "groth16.verify_self_ms",
    "pairing.miller": "pairing.miller_ms",
    "pairing.final_exp": "pairing.final_exp_ms",
    "pairing.g2_subgroup": "pairing.g2_subgroup_ms",
    "wire.encode": "wire.encode_ms",
    "wire.decode": "wire.decode_ms",
    "x509.validate_chain": "x509.validate_chain_ms",
    "x509.csr": "x509.csr_ms",
    "sig.ecdsa_verify": "sig.ecdsa_verify_ms",
    "ca.acme": "ca.acme_ms",
    "ca.issue": "ca.issue_ms",
    "ca.ct_submit": "ca.ct_submit_ms",
    "ca.ocsp_verify": "ca.ocsp_verify_ms",
    "core.client.fingerprint": "core.client.fingerprint_ms",
    "nope.verify_server": "core.client.self_ms",
    "nope.generate_proof": "core.prover.self_ms",
    "issuance.nope_proof_generation": "core.prover.self_ms",
    "issuance.acme_initiation": "core.prover.self_ms",
    "issuance.dns_propagation": "core.prover.self_ms",
    "issuance.acme_verification": "core.prover.self_ms",
}

#: spans that must appear in the traced ops of each workload: a wrapper or
#: program span that never fires means a call site bypassed it
EXPECTED_SPANS = {
    "issue": (
        "dns.zone_sign", "dns.fetch_chain", "core.statement.synthesize",
        "statement.bind", "engine.msm", "engine.coset_extend",
        "engine.evaluate_r1cs", "engine.compile", "groth16.prove",
        "wire.encode", "wire.decode", "x509.csr", "pairing.g2_subgroup",
        "sig.ecdsa_verify", "ca.acme", "ca.issue", "ca.ct_submit",
    ),
    "connect_cold": (
        "nope.verify_server", "core.client.fingerprint", "wire.decode",
        "pairing.g2_subgroup", "x509.validate_chain", "sig.ecdsa_verify",
        "ca.ocsp_verify", "groth16.verify", "pairing.miller",
        "pairing.final_exp",
    ),
    "connect_warm": (
        "nope.verify_server", "core.client.fingerprint", "wire.decode",
        "pairing.g2_subgroup", "ca.ocsp_verify", "sig.ecdsa_verify",
    ),
}


def install_wrappers(wrapped=WRAPPED):
    """Wrap every target in a span; returns a function that restores them.

    A missing target raises here, before any run starts.
    """
    undo = []
    for module_name, path, span_name in wrapped:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        original = getattr(owner, attr)
        setattr(owner, attr, traced(span_name)(original))
        undo.append((owner, attr, original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def _metric_for(name, ancestors, inherited):
    if name == "engine.msm":
        if ancestors[-1] == "prove.msm.b_g2":
            return "engine.msm_g2_ms"
        if "verify.ic_msm" in ancestors:
            return "groth16.verify_self_ms"
        return "engine.msm_g1_ms"
    # a span this table does not know is folded into its parent's metric
    return SELF_TIME.get(name, inherited)


class Fold:
    """Self time per metric and span counts over a set of op trees."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.span_counts = Counter()
        self.wall = 0.0
        self.unattributed = 0.0

    def coverage(self):
        """Share of the ops' wall time charged to a layer metric."""
        if self.wall <= 0:
            return 0.0
        return 1.0 - self.unattributed / self.wall


def fold(roots):
    """Fold op span trees (roots are the benchmark's ``bench.op`` spans,
    which belong to no layer) into a :class:`Fold`."""
    result = Fold()
    stack = []
    for root in roots:
        result.wall += root.wall
        stack.append((root, (), None))
    while stack:
        span, ancestors, inherited = stack.pop()
        metric = (
            _metric_for(span.name, ancestors, inherited) if ancestors else None
        )
        self_time = span.wall - sum(child.wall for child in span.children)
        result.span_counts[span.name] += 1
        if metric is None:
            result.unattributed += self_time
        else:
            result.seconds[metric] += self_time
        below = ancestors + (span.name,)
        for child in span.children:
            stack.append((child, below, metric))
    return result


def wall_by_name(roots, names):
    """Total wall time of the spans named in ``names`` (not nested in one
    another), anywhere in the trees."""
    totals = dict.fromkeys(names, 0.0)
    stack = list(roots)
    while stack:
        span = stack.pop()
        if span.name in totals:
            totals[span.name] += span.wall
        stack.extend(span.children)
    return totals


def check_fired(workload, span_counts, expected=EXPECTED_SPANS):
    """Raise unless every span expected on ``workload`` appeared."""
    missing = [n for n in expected[workload] if not span_counts.get(n)]
    if missing:
        raise RuntimeError(
            "traced %s ops never reached: %s (a call site bypasses the "
            "wrapper or the span moved)" % (workload, ", ".join(missing))
        )
