"""repro.telemetry: spans, metrics, and clock injection.

Covers the telemetry subsystem's contracts:

- span nesting, exception safety, and the disabled no-op path;
- counter/gauge/histogram math and registry deltas;
- deterministic traces under ``repro.clock.FakeClock``;
- the unified clock source: the prover's timeline timer and ``ts``
  default route through ``repro.telemetry.clocks``.
"""

import pytest

from repro import telemetry
from repro.clock import DAY, FakeClock, SimClock
from repro.telemetry import clocks
from repro.telemetry.export import (
    metrics_signature,
    render_prometheus,
    render_span_tree,
    stats_line,
    trace_signature,
)
from repro.telemetry.metrics import Counter, Histogram, MetricsRegistry
from repro.telemetry.trace import NOOP_SPAN, TRACER, span


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Each test starts and ends with tracing off, no spans, system clock."""
    telemetry.disable()
    TRACER.reset()
    yield
    telemetry.disable()
    TRACER.reset()
    clocks.set_clock(None)


class TestSpans:
    def test_nesting(self):
        telemetry.enable()
        with span("outer", kind="test"):
            with span("inner.a"):
                pass
            with span("inner.b"):
                with span("leaf"):
                    pass
        (root,) = TRACER.roots
        assert root.name == "outer"
        assert root.attrs == {"kind": "test"}
        assert [c.name for c in root.children] == ["inner.a", "inner.b"]
        assert [c.name for c in root.children[1].children] == ["leaf"]
        assert root.wall is not None and root.wall >= 0
        assert root.cpu is not None

    def test_exception_safety(self):
        telemetry.enable()
        with pytest.raises(ValueError):
            with span("outer"):
                with span("failing"):
                    raise ValueError("boom")
        (root,) = TRACER.roots
        assert root.error == "ValueError"
        assert root.children[0].error == "ValueError"
        # both spans closed and popped: a new span is a fresh root
        assert TRACER.current() is None
        with span("after"):
            pass
        assert [r.name for r in TRACER.roots] == ["outer", "after"]

    def test_disabled_is_noop_singleton(self):
        assert not telemetry.is_enabled()
        s = span("anything", attr=1)
        assert s is NOOP_SPAN
        with s:
            assert span("nested") is NOOP_SPAN
        assert TRACER.roots == []
        assert s.annotate(x=1) is s

    def test_traced_decorator(self):
        calls = []

        @telemetry.traced("decorated.fn", tag="t")
        def fn(x):
            calls.append(x)
            return x + 1

        assert fn(1) == 2  # disabled: no span recorded
        assert TRACER.roots == []
        telemetry.enable()
        assert fn(2) == 3
        (root,) = TRACER.roots
        assert root.name == "decorated.fn"
        assert root.attrs == {"tag": "t"}
        assert calls == [1, 2]

    def test_render_tree_and_signature(self):
        telemetry.enable()
        with span("a", n=3):
            with span("b"):
                pass
        tree = telemetry.render_trace()
        assert "a" in tree and "  b" in tree and "wall" in tree
        sig = trace_signature(TRACER.roots)
        assert "wall" not in sig
        assert sig.splitlines()[0] == "a  {n=3}"


class TestMetrics:
    def test_counter_math(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(4)
        assert c.snapshot() == 5
        assert reg.counter("x") is c  # memoized
        c.reset()
        assert c.snapshot() == 0

    def test_gauge_math(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set(7)
        g.inc(2)
        g.dec()
        assert g.snapshot() == 8

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", bounds=(1, 4, 16))
        for v in (1, 2, 4, 5, 100):
            h.observe(v)
        snap = h.snapshot()
        # bounds are inclusive upper edges; 100 overflows
        assert snap["buckets"] == [1, 2, 1, 1]
        assert snap["count"] == 5
        assert snap["sum"] == 112
        assert snap["min"] == 1 and snap["max"] == 100

    def test_name_kind_conflict(self):
        reg = MetricsRegistry()
        reg.counter("dual")
        with pytest.raises(TypeError):
            reg.histogram("dual")

    def test_delta_since(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        h = reg.histogram("h", bounds=(2, 8))
        g = reg.gauge("g")
        c.inc(5)
        h.observe(1)
        g.set(3)
        before = reg.snapshot()
        assert reg.delta_since(before) == {}
        c.inc(3)
        h.observe(10)
        g.set(4)
        delta = reg.delta_since(before)
        assert delta["c"] == ("counter", 3)
        assert delta["g"] == ("gauge", 4)
        kind, hdelta = delta["h"]
        assert kind == "histogram"
        assert hdelta["count"] == 1 and hdelta["sum"] == 10

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.counter("msm.calls").inc(2)
        h = reg.histogram("fft.size", bounds=(4, 16))
        h.observe(4)
        h.observe(64)
        text = render_prometheus(reg.snapshot())
        assert "# TYPE repro_msm_calls gauge" in text
        assert "repro_msm_calls 2" in text
        assert '# TYPE repro_fft_size histogram' in text
        assert 'repro_fft_size_bucket{le="4"} 1' in text
        assert 'repro_fft_size_bucket{le="+Inf"} 2' in text
        assert "repro_fft_size_count 2" in text

    def test_stats_line(self):
        assert stats_line("cache", {"hits": 2, "misses": 1}) == (
            "cache: hits=2 misses=1"
        )


class TestFakeClock:
    def test_single_stream(self):
        fc = FakeClock(start=10.0, tick=2.0)
        assert fc.time() == 10.0
        assert fc.perf() == 12.0
        assert fc.cpu() == 14.0
        assert fc.reads == 3
        with pytest.raises(ValueError):
            FakeClock(tick=-1.0)

    def test_deterministic_trace(self):
        def traced_run():
            TRACER.reset()
            with clocks.use_clock(FakeClock(start=100.0, tick=1.0)):
                telemetry.enable()
                with span("outer"):
                    with span("inner"):
                        pass
                telemetry.disable()
            return telemetry.render_trace()

        first = traced_run()
        second = traced_run()
        assert first == second  # byte-identical, timings included
        (root,) = TRACER.roots
        # reads: outer(perf=100,cpu=101) inner(102,103) / (104,105) (106,107)
        assert root.wall == 6.0 and root.cpu == 6.0
        inner = root.children[0]
        assert inner.wall == 2.0 and inner.cpu == 2.0

    def test_clock_funnel_functions(self):
        with clocks.use_clock(FakeClock(start=5.0, tick=0.5)):
            assert clocks.wall() == 5.0
            assert clocks.perf() == 5.5
            assert clocks.cpu() == 6.0
        assert isinstance(clocks.get_clock(), type(clocks.set_clock(None)))


class TestProverClockUnification:
    @pytest.fixture(scope="class")
    def world(self):
        from repro.ca import (
            AcmeServer,
            CertificationAuthority,
            CtLog,
            PlainDnsView,
        )
        from repro.core import NopeProver
        from repro.ec import TOY29
        from repro.profiles import TOY, build_hierarchy
        from repro.sig import EcdsaPrivateKey

        clock = SimClock()
        hierarchy = build_hierarchy(
            TOY,
            ["example.com"],
            inception=clock.now() - DAY,
            expiration=clock.now() + 365 * DAY,
        )
        logs = [CtLog("log-a", clock)]
        ca = CertificationAuthority("Repro Encrypt", clock, logs, TOY29)
        acme = AcmeServer(ca, PlainDnsView(hierarchy), clock)
        prover = NopeProver(TOY, hierarchy, "example.com", backend="simulation")
        prover.trusted_setup()
        tls_key = EcdsaPrivateKey.generate(TOY29)
        return {
            "clock": clock,
            "acme": acme,
            "prover": prover,
            "tls_key": tls_key,
        }

    def test_generate_proof_ts_reads_installed_clock(self, world):
        from repro.core.common import truncate_timestamp

        with clocks.use_clock(FakeClock(start=987654.0, tick=0.0)):
            _, ts = world["prover"].generate_proof(b"tls", b"ca")
        assert ts == truncate_timestamp(987654)

    def test_explicit_timer_still_overrides(self, world):
        from repro.core.common import truncate_timestamp

        _, ts = world["prover"].generate_proof(
            b"tls", b"ca", timer=lambda: 123456.0
        )
        assert ts == truncate_timestamp(123456)

    def test_timeline_and_spans_share_one_fake_clock(self, world):
        """One FakeClock injection makes the Fig. 5 proof-generation wall
        time AND every span duration deterministic."""
        TRACER.reset()
        with clocks.use_clock(FakeClock(start=0.0, tick=1.0)):
            telemetry.enable()
            chain, timeline = world["prover"].obtain_certificate(
                world["acme"], world["tls_key"], world["clock"]
            )
            telemetry.disable()
        steps = timeline.as_dict()
        # timer() brackets generate_proof; every intervening clock read is
        # a FakeClock tick, so the measured duration is exact and repeatable
        assert steps["nope_proof_generation"] == float(
            int(steps["nope_proof_generation"])
        )
        names = [r.name for r in TRACER.roots]
        assert "issuance.nope_proof_generation" in names
        assert "issuance.acme_verification" in names
        root = TRACER.roots[names.index("issuance.nope_proof_generation")]
        assert root.wall == root.wall  # closed span, concrete float
        assert any(
            c.name == "nope.generate_proof" for c in root.children
        )


class TestBenchRecords:
    def test_build_and_validate_record(self):
        from repro.telemetry.bench import build_record, validate_record

        record = build_record("unit", {"m": 1}, {"wall_s": 0.25})
        assert validate_record(record) == []
        assert record["bench"] == "unit"
        assert record["results"] == {"wall_s": 0.25}
        assert isinstance(record["metrics"], dict)

    def test_validate_rejects_missing_fields(self):
        from repro.telemetry.bench import validate_record

        problems = validate_record({"schema": 1, "bench": "x"})
        assert problems  # missing git_rev/config/results/metrics/...

    def test_write_and_check_file(self, tmp_path):
        from repro.telemetry.bench import validate_file, write_bench_record

        path = write_bench_record(
            "unit", {"m": 2}, {"ok": True}, directory=str(tmp_path)
        )
        assert path.endswith("BENCH_unit.json")
        assert validate_file(path) == []

    def test_record_includes_spans_when_tracing(self, tmp_path):
        from repro.telemetry.bench import build_record

        telemetry.enable()
        with span("record.me"):
            pass
        record = build_record("traced", {}, {})
        assert [s["name"] for s in record["spans"]] == ["record.me"]


class TestCacheStats:
    def test_stats_and_revocation_refused(self):
        from repro.core import VerificationCache

        class _Leaf:
            serial = 7
            not_before = 0
            not_after = 1000

        cache = VerificationCache(max_entries=1)
        report = object()
        assert cache.lookup(b"fp1", "a.example", 10) is None  # miss
        cache.store(b"fp1", "a.example", report, _Leaf(), now=10)
        hit = cache.lookup(b"fp1", "a.example", 20)  # hit
        assert hit is not None and hit.report is report
        assert cache.lookup(b"fp1", "a.example", 2000) is None  # expired
        cache.store(b"fp1", "a.example", report, _Leaf(), now=10)
        cache.store(b"fp2", "b.example", report, _Leaf(), now=10)  # evicts
        cache.refuse_revoked(b"fp2")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        assert stats["expirations"] == 1
        assert stats["evictions"] == 1
        assert stats["revocation_refused"] == 1
        assert stats["entries"] == 0

    def test_client_cache_summary_line(self):
        from repro.core import NopeClient, VerificationCache
        from repro.profiles import TOY

        cache = VerificationCache()
        client = NopeClient(TOY, [], verification_cache=cache)
        line = client.log_cache_summary()
        assert line.startswith("verification-cache: hits=0 misses=0")
        no_cache = NopeClient(TOY, [])
        assert no_cache.log_cache_summary() == ""


class TestExporterEscaping:
    """Satellite coverage: exposition-name escaping and signature
    stability under registration-order permutation."""

    def test_prometheus_escapes_every_illegal_character(self):
        reg = MetricsRegistry()
        reg.counter("msm.calls-per second/core%").inc(1)
        text = render_prometheus(reg.snapshot())
        assert "# TYPE repro_msm_calls_per_second_core_ gauge" in text
        assert "repro_msm_calls_per_second_core_ 1" in text
        for ch in ".-/% ":
            assert ch not in text.split("\n")[1].split(" ")[0]

    def test_prometheus_histogram_escaping_and_inf_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("fft.size@radix-2", bounds=(4,))
        h.observe(2)
        h.observe(100)
        text = render_prometheus(reg.snapshot())
        assert "# TYPE repro_fft_size_radix_2 histogram" in text
        assert 'repro_fft_size_radix_2_bucket{le="4"} 1' in text
        assert 'repro_fft_size_radix_2_bucket{le="+Inf"} 2' in text
        assert "repro_fft_size_radix_2_count 2" in text

    def test_prometheus_custom_prefix(self):
        reg = MetricsRegistry()
        reg.counter("x").inc(1)
        assert render_prometheus(reg.snapshot(), prefix="nope").startswith(
            "# TYPE nope_x gauge"
        )

    def test_signature_stable_under_registration_order(self):
        def populate(reg, order):
            for name in order:
                if name == "fft.size":
                    h = reg.histogram("fft.size", bounds=(4, 16))
                    h.observe(3)
                    h.observe(12)
                else:
                    reg.counter(name).inc(len(name))

        names = ["msm.calls", "msm.bucket_adds", "fft.size", "r1cs.rows"]
        forward, backward = MetricsRegistry(), MetricsRegistry()
        populate(forward, names)
        populate(backward, list(reversed(names)))
        assert metrics_signature(forward.snapshot()) == metrics_signature(
            backward.snapshot()
        )

    def test_prometheus_stable_under_registration_order(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        for reg, order in ((first, ("b", "a")), (second, ("a", "b"))):
            for name in order:
                reg.counter(name).inc(1)
        assert render_prometheus(first.snapshot()) == render_prometheus(
            second.snapshot()
        )
