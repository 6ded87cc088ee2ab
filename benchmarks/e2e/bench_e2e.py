#!/usr/bin/env python3
"""End-to-end NOPE protocol benchmark: renewal, cold and warm connections.

Drives the real Groth16 toy-profile protocol through its public entry
points -- ``NopeProver.obtain_certificate`` for issuance and
``NopeClient.verify_server`` for connections -- one workload per run, in one
process on the default serial engine.  Run it from the repository root::

    python3 benchmarks/e2e/bench_e2e.py --workload connect_cold --seed 1 \\
        --seconds 20 --trace 0 [--out result.json]

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or with
``--trace 1`` the per-layer metrics.  README.md lists the workloads, the
metrics and their bounds.

The trusted setup (~90 s) and the two pool proofs (~10 s each) cost more
than a whole run may take, so the first run in a checkout makes them once,
the way a setup ceremony publishes a CRS, and stores them under
``.bench_build/e2e/`` keyed by a digest of the sources.  Every run then
sets up from that artifact several times and reports the median.
"""

import argparse
import copy
import gc
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BUILD_DIR = ROOT / ".bench_build" / "e2e"

# the program under test is this checkout's src/, not an installed copy
sys.path.insert(0, str(SRC))

import layers  # noqa: E402
from repro.ca import AcmeServer, CertificationAuthority, CtLog, PlainDnsView  # noqa: E402
from repro.clock import DAY, SimClock  # noqa: E402
from repro.core import (  # noqa: E402
    NopeClient,
    NopeProver,
    PinStore,
    VerificationCache,
    run_legacy_acme,
    truncate_timestamp,
)
from repro.dns.dnssec import DnssecKey  # noqa: E402
from repro.dns.name import DomainName  # noqa: E402
from repro.dns.resolver import DnsHierarchy  # noqa: E402
from repro.dns.zone import Zone  # noqa: E402
from repro.ec import TOY29  # noqa: E402
from repro.ec.curves import BN254_Q, BN254_R  # noqa: E402
from repro.engine import get_engine  # noqa: E402
from repro.errors import CertificateError, ProofError  # noqa: E402
from repro.profiles import TOY, build_hierarchy  # noqa: E402
from repro.sig import EcdsaPrivateKey  # noqa: E402
from repro.telemetry.bench import git_rev  # noqa: E402
from repro.telemetry.metrics import REGISTRY  # noqa: E402
from repro.telemetry.trace import TRACER, span  # noqa: E402
from repro.wire import envelope_from_sans  # noqa: E402
from repro.x509.cert import SubjectPublicKeyInfo  # noqa: E402

WORKLOADS = ("issue", "connect_cold", "connect_warm")

#: set-ups per run; setup_s is their median
SETUP_REPEATS = 3

CA_NAME = "Repro Encrypt"
DOMAINS = ("alpha", "beta", "legacy")
NOPE_DOMAINS = ("alpha", "beta")

#: one block of connections: the exact 80/10/10 honest/legacy/tampered mix.
#: Runs stop only at block boundaries, so every run sees the mix exactly.
CONNECT_BLOCK = ("alpha",) * 4 + ("beta",) * 4 + ("legacy", "tampered")

#: renewals per block: three ~10 s renewals average the host's speed
#: swings over ~30 s, where two left the run-to-run spread near 0.25
RENEWAL_BLOCK = 3

#: what each connection kind must yield
EXPECTED_VERDICT = {
    "alpha": "nope_ok",
    "beta": "nope_ok",
    "legacy": "legacy_ok",
    "tampered": "rejected",
}

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "throughput_ops_s": "ops/s",
    "chain_bytes": "B",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> unit; "_ms" metrics are self time per op, except
#: the setup.* ones, which are wall time per set-up
PER_LAYER = {
    "dns.zone_sign_ms": "ms",
    "dns.fetch_chain_ms": "ms",
    "core.statement.synthesize_ms": "ms",
    "core.statement.bind_ms": "ms",
    "engine.msm_g1_ms": "ms",
    "engine.msm_g2_ms": "ms",
    "engine.fft_ms": "ms",
    "engine.evaluate_ms": "ms",
    "engine.compile_ms": "ms",
    "groth16.prove_self_ms": "ms",
    "groth16.verify_self_ms": "ms",
    "pairing.miller_ms": "ms",
    "pairing.final_exp_ms": "ms",
    "pairing.g2_subgroup_ms": "ms",
    "wire.encode_ms": "ms",
    "wire.decode_ms": "ms",
    "x509.validate_chain_ms": "ms",
    "x509.csr_ms": "ms",
    "sig.ecdsa_verify_ms": "ms",
    "ca.acme_ms": "ms",
    "ca.issue_ms": "ms",
    "ca.ct_submit_ms": "ms",
    "ca.ocsp_verify_ms": "ms",
    "core.client.fingerprint_ms": "ms",
    "core.client.self_ms": "ms",
    "core.prover.self_ms": "ms",
    "engine.msm_points": "count/op",
    "engine.msm_bucket_adds": "count/op",
    "engine.fft_points": "count/op",
    "engine.rows_full": "count/op",
    "pairing.calls": "count/op",
    "pairing.g2_subgroup_checks": "count/op",
    "wire.decode_calls": "count/op",
    "sig.ecdsa_verify_calls": "count/op",
    "core.client.rejects": "count/op",
    "engine.compile_hit_ratio": "ratio",
    "core.client.cache_hit_ratio": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
    "setup.load_ms": "ms",
    "setup.synthesize_ms": "ms",
    "setup.compile_ms": "ms",
    "setup.pool_ms": "ms",
}

#: per-op counts: metric -> span counted in the traced op trees
SPAN_COUNTS = {
    "pairing.calls": "pairing.miller",
    "pairing.g2_subgroup_checks": "pairing.g2_subgroup",
    "wire.decode_calls": "wire.decode",
    "sig.ecdsa_verify_calls": "sig.ecdsa_verify",
}

#: per-op counts: metric -> program metric summed over traced blocks
REGISTRY_COUNTS = {
    "engine.msm_points": "msm.points",
    "engine.msm_bucket_adds": "msm.bucket_adds",
    "engine.fft_points": "fft.size",
    "engine.rows_full": "r1cs.rows.full",
}

#: setup.* metric -> span whose wall time it averages over the set-ups
SETUP_SPANS = {
    "setup.load_ms": "setup.load",
    "setup.synthesize_ms": "core.statement.synthesize",
    "setup.compile_ms": "engine.compile",
    "setup.pool_ms": "setup.pool",
}


# -- statistics, schedule and verdicts ----------------------------------------


def percentile(samples, q):
    """The q-quantile (nearest rank) of ``samples``.

    A tail quantile is refused unless at least ten samples lie beyond it:
    p95 needs 200 samples, p99 needs 1000.
    """
    if not samples:
        raise ValueError("no samples")
    n = len(samples)
    if q > 0.5 and round(n * (1 - q), 9) < 10:
        raise ValueError(
            "p%g needs %d samples for ten beyond it, have %d"
            % (100 * q, math.ceil(round(10 / (1 - q), 9)), n)
        )
    if q == 0.5:
        return statistics.median(samples)
    return sorted(samples)[max(1, math.ceil(round(q * n, 9))) - 1]


def tail_report(samples):
    """(label, value) for the highest of p99/p95/p90 the sample count
    supports, or None."""
    for q in (0.99, 0.95, 0.90):
        try:
            return "p%g" % (100 * q), percentile(samples, q)
        except ValueError:
            continue
    return None


def blocks(workload, seed):
    """The seeded input schedule: an endless iterator of op blocks.

    Connections come in shuffled blocks of ten with the exact mix.
    Renewals come in blocks of three; the domains come in shuffled pairs,
    so renewals alternate between alpha and beta.  The seed sets nothing
    else.
    """
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "issue":
        order = _renewal_order(rng)
        while True:
            yield tuple(next(order) for _ in range(RENEWAL_BLOCK))
    while True:
        block = list(CONNECT_BLOCK)
        rng.shuffle(block)
        yield tuple(block)


def _renewal_order(rng):
    while True:
        pair = list(NOPE_DOMAINS)
        rng.shuffle(pair)
        yield from pair


def verdict_of(report):
    """Classify a VerificationReport."""
    if report.legacy_ok and report.nope_checked and report.nope_ok:
        return "nope_ok"
    if report.legacy_ok and not report.nope_checked:
        return "legacy_ok"
    return "unexpected report %r" % (report,)


def connect_verdict(client, entry, now, ocsp):
    """One connection: the client's verdict on a pool entry."""
    try:
        report = client.verify_server(
            entry.domain, entry.chain, now,
            ocsp_responder=ocsp, ocsp_response=entry.staple,
        )
    except (ProofError, CertificateError) as exc:
        return "rejected:%s" % type(exc).__name__
    return verdict_of(report)


def verdict_matches(label, expected):
    """Whether a verdict label is the expected one; a rejection's label
    carries the exception type after a colon."""
    return label.split(":", 1)[0] == expected


class Tally:
    """Latencies, verdicts and (when traced) spans of one run's ops."""

    def __init__(self):
        self.latencies = []
        self.traced = []
        self.untraced = []
        self.attempted = 0
        self.failed = 0
        self.outcomes = Counter()
        #: span roots and summed program metrics of the traced blocks
        self.roots = []
        self.registry = Counter()
        self._printed_error = False

    def record(self, seconds, kind, outcome, expected, traced=None):
        """One op; ``outcome`` is a verdict label or the exception raised,
        ``traced`` None outside a traced run."""
        self.attempted += 1
        self.latencies.append(seconds)
        if traced is not None:
            (self.traced if traced else self.untraced).append(seconds)
        if isinstance(outcome, BaseException):
            if not self._printed_error:  # the first traceback is enough
                self._printed_error = True
                traceback.print_exception(
                    type(outcome), outcome, outcome.__traceback__,
                    file=sys.stderr,
                )
            label = "error:%s" % type(outcome).__name__
        else:
            label = outcome
        self.outcomes["%s:%s" % (kind, label)] += 1
        if not verdict_matches(label, expected):
            self.failed += 1

    def fail(self, what):
        """An untimed check that did not hold."""
        self.failed += 1
        print("check failed: %s" % what, file=sys.stderr)

    @property
    def rejects(self):
        return sum(
            n for key, n in self.outcomes.items()
            if key.split(":")[1] == "rejected"
        )

    @property
    def fail_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0


@contextmanager
def recording(roots, registry=None):
    """Trace the block: its span roots go to ``roots`` and its program
    metric deltas are summed into ``registry``."""
    before = REGISTRY.snapshot()
    TRACER.reset()
    TRACER.enable()
    try:
        yield
    finally:
        TRACER.disable()
        roots.extend(TRACER.roots)
        TRACER.reset()
        if registry is not None:
            for name, (kind, value) in REGISTRY.delta_since(before).items():
                if kind != "gauge":
                    registry[name] += (
                        value["sum"] if kind == "histogram" else value
                    )


# -- the one-time artifact ----------------------------------------------------

#: bump when build_artifact changes what it stores
ARTIFACT_VERSION = 1


def source_digest():
    """SHA-256 over the program's sources and the artifact version."""
    h = hashlib.sha256(b"artifact/%d" % ARTIFACT_VERSION)
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def pool_ts():
    """The TS bucket the pool is issued in: set-up issues it right after
    building a fresh SimClock world."""
    return truncate_timestamp(SimClock().now())


def build_artifact(path):
    """Key the hierarchy, run the trusted setup, prove the pool's two
    statements, and store all of it at ``path``."""
    clock = SimClock()
    hierarchy = build_hierarchy(
        TOY, DOMAINS, inception=clock.now() - DAY,
        expiration=clock.now() + 365 * DAY,
    )
    keys = NopeProver(TOY, hierarchy, NOPE_DOMAINS[0]).trusted_setup()
    pool = {}
    for domain in NOPE_DOMAINS:
        prover = NopeProver(TOY, hierarchy, domain)
        prover.keys = keys
        tls_key = EcdsaPrivateKey.generate(TOY29)
        spki = SubjectPublicKeyInfo(tls_key.public_key).raw_key_bytes()
        proof, _ = prover.generate_proof(spki, CA_NAME, ts=pool_ts())
        pool[domain] = (tls_key, proof)
    artifact = {
        "zones": [
            (zone.name, zone.ksk.private, zone.zsk.private)
            for zone in hierarchy.zones.values()
        ],
        "keys": keys,
        "pool": pool,
        "pool_ts": pool_ts(),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as fh:
        pickle.dump(artifact, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)


def ensure_artifact(digest):
    """The artifact for these sources, built first if absent; returns
    (path, build seconds or None)."""
    path = BUILD_DIR / ("artifact-%s.pickle" % digest[:16])
    if path.exists():
        return path, None
    for stale in BUILD_DIR.glob("artifact-*"):
        stale.unlink()
    print("building the trusted-setup artifact (one time per checkout) ...",
          flush=True)
    # in a child process, so the build's memory stays out of peak_rss_mb.
    # fork, not spawn: spawn also starts a resource-tracker process that
    # outlives the run; this process has started no threads yet
    t0 = time.perf_counter()
    child = multiprocessing.get_context("fork").Process(
        target=build_artifact, args=(path,)
    )
    child.start()
    child.join()
    if child.exitcode != 0 or not path.exists():
        raise RuntimeError("artifact build failed (exit %s)" % child.exitcode)
    return path, time.perf_counter() - t0


# -- set-up -------------------------------------------------------------------


class PoolEntry:
    """One chain a server presents, with its stapled OCSP response."""

    def __init__(self, domain, chain, staple):
        self.domain = domain
        self.chain = chain
        self.staple = staple
        self.wire_bytes = sum(len(cert.to_der()) for cert in chain)


def _replay_proof(proof, ts_bucket):
    """Stands in for ``NopeProver.generate_proof`` on a pool prover: hands
    back the artifact's proof, which was made for this TS bucket."""

    def generate_proof(tls_key_bytes, ca_name, ts=None, clock=None,
                       timer=None):
        if truncate_timestamp(ts) != ts_bucket:
            raise RuntimeError(
                "pool proof is for TS %d, set-up asked for %d"
                % (ts_bucket, truncate_timestamp(ts))
            )
        return proof, ts_bucket

    return generate_proof


class World:
    """Everything one set-up builds from the artifact."""

    def __init__(self, artifact):
        self.clock = SimClock()
        zones = []
        for name, ksk, zsk in artifact["zones"]:
            alg = TOY.root_algorithm if name.is_root else TOY.zone_algorithm
            zones.append(Zone(
                name, DnssecKey(alg, ksk, True), DnssecKey(alg, zsk, False),
                TOY.ds_digest_type,
            ))
        self.hierarchy = DnsHierarchy(zones[0])
        for zone in zones[1:]:
            self.hierarchy.add_zone(zone)
        now = self.clock.now()
        self.hierarchy.sign_all(now - DAY, now + 365 * DAY)
        logs = [CtLog("log-a", self.clock), CtLog("log-b", self.clock)]
        self.ca = CertificationAuthority(CA_NAME, self.clock, logs, TOY29)
        self.acme = AcmeServer(self.ca, PlainDnsView(self.hierarchy), self.clock)
        self.keys = artifact["keys"]
        prover = self.new_prover(NOPE_DOMAINS[0])
        self.statement = prover.statement
        self.backend = prover.backend
        self.root_zsk = prover.root_zsk_dnskey()
        # a renewal process's one-time work before its first proof
        get_engine().compile(prover.synthesize())
        get_engine().prepare(self.keys.proving_key)
        self.pool = {}
        #: connect_warm's long-lived client with the default cache
        self.warm_client = None

    def new_prover(self, domain):
        prover = NopeProver(TOY, self.hierarchy, domain)
        prover.keys = self.keys
        return prover

    def new_client(self, cached):
        client = NopeClient(
            TOY, self.ca.trust_anchors(), root_zsk_dnskey=self.root_zsk,
            backend=self.backend, pin_store=PinStore(preloaded=NOPE_DOMAINS),
            verification_cache=VerificationCache() if cached else None,
        )
        client.register_statement(self.statement, self.keys)
        return client

    def issue_pool(self, artifact):
        """The chains servers present: alpha and beta over ACME with the
        artifact's proofs, legacy over plain ACME, and the alpha leaf
        re-keyed and re-signed by the CA."""
        chains = {}
        for domain in NOPE_DOMAINS:
            tls_key, proof = artifact["pool"][domain]
            prover = self.new_prover(domain)
            prover.generate_proof = _replay_proof(proof, artifact["pool_ts"])
            chains[domain], _ = prover.obtain_certificate(
                self.acme, tls_key, self.clock
            )
        chains["legacy"], _ = run_legacy_acme(
            self.acme, self.hierarchy.zones[DomainName.parse("legacy")],
            "legacy", EcdsaPrivateKey.generate(TOY29), self.clock,
        )
        leaf = copy.deepcopy(chains["alpha"][0])
        leaf.spki = SubjectPublicKeyInfo(EcdsaPrivateKey.generate(TOY29).public_key)
        leaf.sign(self.ca.intermediate_key)
        chains["tampered"] = [leaf, chains["alpha"][1]]
        for kind, chain in chains.items():
            domain = "alpha" if kind == "tampered" else kind
            staple = self.ca.ocsp.status(chain[0].serial)
            self.pool[kind] = PoolEntry(domain, chain, staple)

    def check_pool(self, client_for):
        """Untimed visit of every pool chain; raises on a wrong verdict."""
        for kind in ("alpha", "beta", "legacy", "tampered"):
            got = connect_verdict(
                client_for(), self.pool[kind], self.clock.now(), self.ca.ocsp
            )
            if not verdict_matches(got, EXPECTED_VERDICT[kind]):
                raise RuntimeError(
                    "set-up: %s chain gave %r, expected %r"
                    % (kind, got, EXPECTED_VERDICT[kind])
                )


def forget_process_memos():
    """Drop the engine's compiled-circuit and prepared-key memos so every
    set-up pays what a fresh process pays."""
    try:
        from repro.engine import prepared
    except ImportError:
        return
    for name in ("_COMPILED", "_PREPARED", "_EVAL_CACHE"):
        memo = getattr(prepared, name, None)
        if memo is not None:
            memo.clear()


def set_up(artifact_path, workload):
    """One set-up, from loading the artifact to the first op."""
    with span("bench.setup"):
        with span("setup.load"):
            with open(artifact_path, "rb") as fh:
                artifact = pickle.load(fh)
        world = World(artifact)
        if workload != "issue":
            with span("setup.pool"):
                world.issue_pool(artifact)
                if workload == "connect_warm":
                    world.warm_client = world.new_client(cached=True)
                    world.check_pool(lambda: world.warm_client)
                else:
                    world.check_pool(lambda: world.new_client(cached=False))
    return world


# -- timed phase --------------------------------------------------------------


def check_issued(world, domain, chain, tally):
    """Untimed checks of an issued chain."""
    try:
        # strict decode of the SAN-borne envelope for this domain
        env = envelope_from_sans(chain[0].san_names(), domain)
        if len(env.body) != 128:
            tally.fail("%s proof body is %d bytes" % (domain, len(env.body)))
        got = connect_verdict(
            world.new_client(cached=False),
            PoolEntry(domain, chain, None), world.clock.now(),
            world.ca.ocsp,
        )
        if got != "nope_ok":
            tally.fail("fresh client gave %r for issued %s chain" % (got, domain))
    except Exception as exc:  # an untimed check that raises has failed
        tally.fail("issued %s chain: %r" % (domain, exc))


def timed_phase(world, workload, seed, seconds, trace=False):
    """The closed loop: one caller, no think time, whole blocks until the
    deadline.  With ``trace``, odd blocks are traced and even ones not, and
    the loop runs until it has one of each.  Returns (tally, seconds
    elapsed, wire bytes of each op's chain)."""
    tally = Tally()
    issued = []
    presented = []
    now = world.clock.now()
    ocsp = world.ca.ocsp

    if workload == "issue":
        def op(domain):
            chain, _ = world.new_prover(domain).obtain_certificate(
                world.acme, EcdsaPrivateKey.generate(TOY29), world.clock
            )
            issued.append((domain, chain))
            return "issued"
    else:
        def op(kind):
            presented.append(world.pool[kind].wire_bytes)
            client = (
                world.new_client(cached=False)
                if workload == "connect_cold" else world.warm_client
            )
            return connect_verdict(client, world.pool[kind], now, ocsp)

    start = time.perf_counter()
    deadline = start + seconds
    for index, block in enumerate(blocks(workload, seed)):
        traced = trace and index % 2 == 1
        with recording(tally.roots, tally.registry) if traced else nullcontext():
            for kind in block:
                t0 = time.perf_counter()
                try:
                    with span("bench.op", kind=kind):
                        outcome = op(kind)
                except Exception as exc:  # the loop records it and goes on
                    outcome = exc
                tally.record(
                    time.perf_counter() - t0, kind, outcome,
                    "issued" if workload == "issue" else EXPECTED_VERDICT[kind],
                    traced if trace else None,
                )
        if time.perf_counter() >= deadline and (not trace or index >= 1):
            break
    elapsed = time.perf_counter() - start
    for domain, chain in issued:
        presented.append(sum(len(cert.to_der()) for cert in chain))
        check_issued(world, domain, chain, tally)
    return tally, elapsed, presented


# -- reporting ----------------------------------------------------------------


def field_backends():
    """Calibrated field-backend kind per BN254 modulus."""
    try:
        from repro.field.montgomery import backend_for
    except ImportError:  # a program without calibration is native only
        return {"BN254_Q": "native", "BN254_R": "native"}
    kinds = {}
    for label, p in (("BN254_Q", BN254_Q), ("BN254_R", BN254_R)):
        backend = backend_for(p)
        kinds[label] = "%s/%s" % (backend.mul_kind, backend.wide_kind)
    return kinds


def environment(args, digest, counts):
    return {
        "git_rev": git_rev(str(ROOT)) if (ROOT / ".git").exists() else "unknown",
        "source_digest": digest[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "field_backends": field_backends(),
        "repro_field_backend": os.environ.get("REPRO_FIELD_BACKEND", ""),
        "engine_workers": get_engine().workers,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "counts": counts,
    }


def layer_metrics(workload, tally, setup_roots):
    """The per-layer metrics of a traced run."""
    folded = layers.fold(tally.roots)
    layers.check_fired(workload, folded.span_counts)
    ops = len(tally.roots)
    values = {
        name: folded.seconds.get(name, 0.0) * 1000 / ops
        for name, unit in PER_LAYER.items()
        if unit == "ms" and name not in SETUP_SPANS
    }
    for name, span_name in SPAN_COUNTS.items():
        values[name] = folded.span_counts.get(span_name, 0) / ops
    for name, metric in REGISTRY_COUNTS.items():
        values[name] = tally.registry[metric] / ops
    values["core.client.rejects"] = tally.rejects / tally.attempted
    for name, (hit, miss) in (
        ("engine.compile_hit_ratio", ("engine.compile.hit", "engine.compile.miss")),
        ("core.client.cache_hit_ratio", ("cache.hit", "cache.miss")),
    ):
        lookups = tally.registry[hit] + tally.registry[miss]
        values[name] = tally.registry[hit] / lookups if lookups else 0.0
    values["trace.coverage"] = folded.coverage()
    values["trace.overhead_ratio"] = (
        statistics.median(tally.traced) / statistics.median(tally.untraced)
    )
    walls = layers.wall_by_name(setup_roots, SETUP_SPANS.values())
    for name, span_name in SETUP_SPANS.items():
        values[name] = walls[span_name] * 1000 / len(setup_roots)
    return values


def run(args):
    """Build if needed, set up, run the timed phase; returns (result,
    environment record)."""
    digest = source_digest()
    artifact_path, build_s = ensure_artifact(digest)
    if build_s is not None:
        print("build_s %.3f s (trusted setup + pool proofs, not a metric)"
              % build_s)
    restore = layers.install_wrappers() if args.trace else (lambda: None)
    setup_roots = []
    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            world = None  # release the last set-up before the next one
            forget_process_memos()
            gc.collect()
            with recording(setup_roots) if args.trace else nullcontext():
                t0 = time.perf_counter()
                world = set_up(artifact_path, args.workload)
                setup_times.append(time.perf_counter() - t0)
        gc.collect()
        tally, elapsed, presented = timed_phase(
            world, args.workload, args.seed, args.seconds, bool(args.trace)
        )
        layer = (
            layer_metrics(args.workload, tally, setup_roots)
            if args.trace else None
        )
    finally:
        restore()
    latencies_ms = [s * 1000 for s in tally.latencies]
    e2e = {
        "setup_s": statistics.median(setup_times),
        "latency_p50_ms": statistics.median(latencies_ms),
        "throughput_ops_s": tally.attempted / elapsed,
        "chain_bytes": statistics.median(presented),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    counts = {
        "ops": tally.attempted,
        "traced_ops": len(tally.traced),
        "setup_repeats": SETUP_REPEATS,
        "outcomes": dict(sorted(tally.outcomes.items())),
    }
    env = environment(args, digest, counts)
    print("env %s" % json.dumps(env, sort_keys=True))
    print("samples ops=%d traced_ops=%d setup_repeats=%d timed_s=%.3f"
          % (tally.attempted, len(tally.traced), SETUP_REPEATS, elapsed))
    for name, unit in END_TO_END.items():
        print("%-24s %14.4f %s" % (name, e2e[name], unit))
    print("%-24s %14.4f failed/attempted" % ("fail_ratio", tally.fail_ratio))
    tail = tail_report(latencies_ms)
    if tail is None:
        print("latency tail: none (n=%d; a tail needs ten samples beyond it)"
              % len(latencies_ms))
    else:
        print("latency_%s_ms %14.4f ms (n=%d)"
              % (tail[0], tail[1], len(latencies_ms)))
    if layer is not None:
        print("per-layer (means per traced op; traced ops=%d):"
              % len(tally.traced))
        for name, unit in PER_LAYER.items():
            print("  %-32s %14.4f %s" % (name, layer[name], unit))
    metrics, units = (layer, PER_LAYER) if layer is not None else (e2e, END_TO_END)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }, env


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report per-layer metrics instead of end-to-end ones",
    )
    parser.add_argument("--out", help="also write the result and "
                        "environment record to this JSON file")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    result, env = run(args)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(dict(result, environment=env), fh, indent=1,
                      sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
