"""repro.telemetry.certify: run certificates, chained history, replay,
and the trajectory gate.

Covers the certificate subsystem's contracts:

- canonical digests: self-verifying certificates, any field perturbation
  detected;
- chained history: append-only ``.jsonl`` files where every entry commits
  to its predecessor, with rewrites and bad links rejected;
- deterministic replay: a strict certificate re-executes bit-identically
  under ``FakeClock`` (the acceptance path for ``telemetry replay``);
- the trajectory gate: metric-count regressions (``msm.calls`` drift),
  hit-ratio drops, config drift, invalid records, and same-run ratios
  missing or below the head's floors all fail; improvements and demo
  (``gate: false``) records do not.
"""

import json
import os

import pytest

from repro import telemetry
from repro.clock import FakeClock
from repro.telemetry import certify as ct
from repro.telemetry import clocks
from repro.telemetry.bench import build_record, validate_metrics_consistency
from repro.telemetry.trace import TRACER


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    TRACER.reset()
    yield
    telemetry.disable()
    TRACER.reset()
    clocks.set_clock(None)


def make_record(name="msm_kernel", metrics=None, results=None, config=None):
    """A synthetic, schema-valid bench record."""
    return {
        "schema": 1,
        "bench": name,
        "git_rev": "0" * 40,
        "created_unix": 1700000000.0,
        "python": "3.11.0",
        "config": dict(config if config is not None else {"smoke": True}),
        "results": dict(results or {}),
        "metrics": dict(metrics or {"msm.calls": 10}),
    }


class TestCanonicalDigests:
    def test_certificate_self_verifies(self):
        cert = ct.build_certificate(make_record())
        assert ct.validate_certificate(cert) == []
        assert cert["digest"] == ct.cert_digest(cert)
        assert cert["prev"] == ct.GENESIS

    def test_any_field_perturbation_detected(self):
        cert = ct.build_certificate(make_record())
        for field, value in (
            ("bench", "other"),
            ("git_rev", "f" * 40),
            ("metrics_signature", "0" * 64),
            ("counts", {"msm.calls": 11}),
            ("prev", "1" * 64),
        ):
            tampered = dict(cert, **{field: value})
            assert ct.validate_certificate(tampered), field

    def test_digest_independent_of_key_order(self):
        cert = ct.build_certificate(make_record())
        shuffled = {k: cert[k] for k in reversed(list(cert))}
        assert ct.cert_digest(shuffled) == cert["digest"]

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            ct.canonical_json({"x": float("nan")})

    def test_record_digest_binds_record(self):
        record = make_record()
        cert = ct.build_certificate(record)
        record["results"]["speedup"] = 99.0
        assert (
            ct.sha256_hex(ct.canonical_json(record)) != cert["record_digest"]
        )


class TestExtraction:
    def test_extract_counts_keeps_histograms(self):
        snapshot = {
            "msm.calls": 4,
            "fft.size": {"count": 2, "sum": 48, "min": 16, "max": 32,
                         "buckets": [1, 1], "bounds": [16]},
        }
        counts = ct.extract_counts(snapshot)
        assert counts["msm.calls"] == 4
        assert counts["fft.size"] == {"count": 2, "sum": 48, "buckets": [1, 1]}

    def test_replay_meta_strictness(self):
        assert ct.replay_meta_for("msm_kernel", {})["strict"]
        assert ct.replay_meta_for("telemetry_demo", {"seed": None})["strict"]
        assert not ct.replay_meta_for("groth16", {"seed": None})["strict"]
        assert ct.replay_meta_for("groth16", {"seed": 7})["strict"]
        assert not ct.replay_meta_for(
            "bench_fig7_cert_sizes", {"pytest_benchmark": True}
        )["strict"]
        assert (
            ct.replay_meta_for("groth16", {})["entrypoint"]
            == "bench_groth16:replay"
        )


class TestHistoryChain:
    def test_append_and_verify(self, tmp_path):
        hist = str(tmp_path)
        first = ct.build_certificate(make_record(metrics={"msm.calls": 10}))
        path = ct.append_history(first, history_dir=hist)
        second = ct.certify_record(
            make_record(metrics={"msm.calls": 10}), history_dir=hist
        )
        assert second["prev"] == first["digest"]
        ct.append_history(second, history_dir=hist)
        entries = ct.read_history(path)
        assert len(entries) == 2
        assert ct.verify_history(entries) == []
        assert ct.history_head("msm_kernel", hist)["digest"] == second["digest"]

    def test_append_refuses_stale_prev(self, tmp_path):
        hist = str(tmp_path)
        ct.append_history(ct.build_certificate(make_record()), history_dir=hist)
        stale = ct.build_certificate(make_record())  # prev = GENESIS again
        with pytest.raises(ValueError, match="does not commit to history head"):
            ct.append_history(stale, history_dir=hist)

    def test_history_rewrite_detected(self, tmp_path):
        hist = str(tmp_path)
        ct.append_history(
            ct.build_certificate(make_record(metrics={"msm.calls": 10})),
            history_dir=hist,
        )
        ct.append_history(
            ct.certify_record(
                make_record(metrics={"msm.calls": 10}), history_dir=hist
            ),
            history_dir=hist,
        )
        path = ct.history_path("msm_kernel", hist)
        entries = ct.read_history(path)
        # rewrite the interior entry without re-digesting: self-digest fails
        entries[0]["counts"]["msm.calls"] = 5
        problems = ct.verify_history(entries)
        assert any("digest mismatch" in p for p in problems)
        # re-digest the rewritten entry: now its successor's prev breaks
        entries[0]["digest"] = ct.cert_digest(entries[0])
        problems = ct.verify_history(entries)
        assert any("does not commit to predecessor" in p for p in problems)

    def test_append_refuses_to_extend_broken_chain(self, tmp_path):
        hist = str(tmp_path)
        cert = ct.build_certificate(make_record())
        path = ct.append_history(cert, history_dir=hist)
        broken = dict(cert, counts={"msm.calls": 1})
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(ct.canonical_json(broken) + "\n")
        fresh = ct.build_certificate(make_record())
        with pytest.raises(ValueError, match="broken chain"):
            ct.append_history(fresh, history_dir=hist)

    def test_load_certificate_from_history_verifies_chain(self, tmp_path):
        hist = str(tmp_path)
        cert = ct.build_certificate(make_record())
        path = ct.append_history(cert, history_dir=hist)
        assert ct.load_certificate(path)["digest"] == cert["digest"]
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(ct.canonical_json(dict(cert, prev="2" * 64)) + "\n")
        with pytest.raises(ValueError, match="broken chain"):
            ct.load_certificate(path)


class TestStrictReplay:
    def test_demo_replays_bit_identically_twice(self):
        """The acceptance path: a freshly certified demo run replays
        bit-identically, twice in a row, in-process."""
        from repro.telemetry.__main__ import demo_replay

        config = {"m": 8, "profile": False, "seed": 5}
        seed_cert = {
            "bench": "telemetry_demo", "config": config,
            "environment": {}, "created_unix": 1700000000.0,
            "trace_signature": "nonempty",  # ask for a traced execution
        }
        record = ct._execute_replay(demo_replay, seed_cert)
        assert record.get("spans"), "traced replay must record spans"
        cert = ct.build_certificate(record)
        assert cert["replay"]["strict"]
        for _ in range(2):
            ok, lines = ct.replay_certificate(cert)
            assert ok, lines

    def test_replay_detects_count_drift(self):
        from repro.telemetry.__main__ import demo_replay

        config = {"m": 8, "profile": False, "seed": 5}
        seed_cert = {
            "bench": "telemetry_demo", "config": config,
            "environment": {}, "created_unix": 1700000000.0,
            "trace_signature": "",
        }
        record = ct._execute_replay(demo_replay, seed_cert)
        # certify a lie: one more msm.call than the run actually made
        record["metrics"]["msm.calls"] += 1
        cert = ct.build_certificate(record)
        ok, lines = ct.replay_certificate(cert)
        assert not ok
        assert any("msm.calls" in line for line in lines)


class TestTrajectoryGate:
    def _seed_history(self, hist, metrics, results=None, config=None,
                      name="msm_kernel"):
        head = ct.build_certificate(
            make_record(name=name, metrics=metrics, results=results,
                        config=config)
        )
        ct.append_history(head, history_dir=hist)
        return head

    def _write_current(self, records_dir, metrics, results=None, config=None,
                       name="msm_kernel"):
        record = make_record(name=name, metrics=metrics, results=results,
                             config=config)
        path = os.path.join(records_dir, "BENCH_%s.json" % name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        return record

    def test_msm_calls_regression_fails(self, tmp_path):
        """The ISSUE's negative test: a perturbed head ``msm.calls`` makes
        the gate demonstrably fail."""
        hist, records = str(tmp_path / "h"), str(tmp_path)
        self._seed_history(hist, {"msm.calls": 10})
        self._write_current(records, {"msm.calls": 14})
        lines = []
        regressions = ct.run_trajectory(
            history_dir=hist, records_dir=records, out=lines.append
        )
        assert regressions == 1
        assert any("msm.calls regressed: 10 -> 14" in l for l in lines)

    def test_equal_counts_pass(self, tmp_path):
        hist, records = str(tmp_path / "h"), str(tmp_path)
        self._seed_history(hist, {"msm.calls": 10})
        self._write_current(records, {"msm.calls": 10})
        assert ct.run_trajectory(
            history_dir=hist, records_dir=records, out=lambda s: None
        ) == 0

    def test_improvement_is_a_note_not_a_failure(self, tmp_path):
        hist, records = str(tmp_path / "h"), str(tmp_path)
        self._seed_history(hist, {"msm.bucket_adds": 100})
        self._write_current(records, {"msm.bucket_adds": 60})
        lines = []
        assert ct.run_trajectory(
            history_dir=hist, records_dir=records, out=lines.append
        ) == 0
        assert any("improved" in l for l in lines)

    def test_histogram_growth_fails(self, tmp_path):
        hist, records = str(tmp_path / "h"), str(tmp_path)
        fft = {"count": 2, "sum": 48, "min": 16, "max": 32,
               "buckets": [1, 1], "bounds": [16]}
        self._seed_history(hist, {"fft.size": fft})
        grown = dict(fft, count=3, sum=112, buckets=[1, 2])
        self._write_current(records, {"fft.size": grown})
        lines = []
        assert ct.run_trajectory(
            history_dir=hist, records_dir=records, out=lines.append
        ) == 1
        assert any("fft.size distribution grew" in l for l in lines)

    def test_hit_ratio_drop_fails(self, tmp_path):
        hist, records = str(tmp_path / "h"), str(tmp_path)
        self._seed_history(
            hist, {"engine.evalcache.hit": 8, "engine.evalcache.miss": 2}
        )
        self._write_current(
            records, {"engine.evalcache.hit": 5, "engine.evalcache.miss": 5}
        )
        lines = []
        assert ct.run_trajectory(
            history_dir=hist, records_dir=records, out=lines.append
        ) >= 1
        assert any("hit ratio fell" in l for l in lines)

    def test_config_drift_fails_with_instructive_message(self, tmp_path):
        hist, records = str(tmp_path / "h"), str(tmp_path)
        self._seed_history(hist, {"msm.calls": 1}, config={"smoke": True})
        self._write_current(records, {"msm.calls": 1},
                            config={"smoke": False})
        lines = []
        assert ct.run_trajectory(
            history_dir=hist, records_dir=records, out=lines.append
        ) == 1
        assert any("config drift on smoke" in l for l in lines)

    def test_trace_config_key_is_not_drift(self, tmp_path):
        hist, records = str(tmp_path / "h"), str(tmp_path)
        self._seed_history(hist, {"msm.calls": 1},
                           config={"smoke": True, "trace": True})
        self._write_current(records, {"msm.calls": 1},
                            config={"smoke": True, "trace": False})
        assert ct.run_trajectory(
            history_dir=hist, records_dir=records, out=lambda s: None
        ) == 0

    def test_tampered_history_is_a_regression(self, tmp_path):
        hist, records = str(tmp_path / "h"), str(tmp_path)
        head = self._seed_history(hist, {"msm.calls": 10})
        path = ct.history_path("msm_kernel", hist)
        tampered = dict(head, counts={"msm.calls": 5})
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(ct.canonical_json(tampered) + "\n")
        self._write_current(records, {"msm.calls": 10})
        lines = []
        assert ct.run_trajectory(
            history_dir=hist, records_dir=records, out=lines.append
        ) == 1
        assert any("CHAIN BROKEN" in l for l in lines)

    def test_demo_records_are_excluded(self, tmp_path):
        hist, records = str(tmp_path / "h"), str(tmp_path)
        head = ct.build_certificate(
            make_record(name="telemetry_demo", metrics={"msm.calls": 10})
        )
        assert head["gate"] is False
        ct.append_history(head, history_dir=hist)
        self._write_current(records, {"msm.calls": 999},
                            name="telemetry_demo")
        lines = []
        assert ct.run_trajectory(
            history_dir=hist, records_dir=records, out=lines.append
        ) == 0
        assert any("ungated" in l for l in lines)

    def test_missing_metric_is_a_regression(self, tmp_path):
        hist, records = str(tmp_path / "h"), str(tmp_path)
        self._seed_history(hist, {"msm.calls": 10, "msm.bucket_adds": 5})
        self._write_current(records, {"msm.calls": 10})
        lines = []
        assert ct.run_trajectory(
            history_dir=hist, records_dir=records, out=lines.append
        ) == 1
        assert any("disappeared" in l for l in lines)

    def _ratio_run(self, tmp_path, current_results):
        hist, records = str(tmp_path / "h"), str(tmp_path)
        self._seed_history(
            hist, {"msm.calls": 1},
            results={"min_speedup": 1.8, "floors": {"min_speedup": 1.3}},
        )
        self._write_current(records, {"msm.calls": 1},
                            results=current_results)
        lines = []
        regressions = ct.run_trajectory(
            history_dir=hist, records_dir=records, out=lines.append
        )
        return regressions, lines

    def test_ratio_below_head_floor_fails(self, tmp_path):
        # the floor is the head's: a current record cannot lower its own
        regressions, lines = self._ratio_run(
            tmp_path, {"min_speedup": 1.2, "floors": {"min_speedup": 1.0}}
        )
        assert regressions == 1
        assert any(
            "msm_kernel ratio min_speedup below its floor" in l for l in lines
        )

    def test_missing_ratio_fails(self, tmp_path):
        regressions, lines = self._ratio_run(tmp_path, {"other": 3.0})
        assert regressions == 1
        assert any(
            "msm_kernel ratio min_speedup missing" in l for l in lines
        )

    def test_ratio_exactly_at_floor_passes(self, tmp_path):
        regressions, _ = self._ratio_run(tmp_path, {"min_speedup": 1.3})
        assert regressions == 0

    def test_invalid_current_record_fails(self, tmp_path):
        hist, records = str(tmp_path / "h"), str(tmp_path)
        self._seed_history(hist, {"msm.calls": 10})
        self._write_current(records, {"msm.calls": -1})
        lines = []
        assert ct.run_trajectory(
            history_dir=hist, records_dir=records, out=lines.append
        ) == 1
        assert any("INVALID current record" in l for l in lines)
        assert any("negative counter" in l for l in lines)


class TestRecordPlumbing:
    def test_write_bench_record_emits_chained_certificate(self, tmp_path):
        from repro.telemetry.bench import write_bench_record

        hist = str(tmp_path / "h")
        write_bench_record("unit", {"m": 1}, {"ok": True},
                           directory=str(tmp_path), history_dir=hist)
        cert_path = str(tmp_path / "CERT_unit.json")
        assert os.path.exists(cert_path)
        with open(cert_path, "r", encoding="utf-8") as fh:
            cert = json.load(fh)
        assert ct.validate_certificate(cert) == []
        assert cert["prev"] == ct.GENESIS
        ct.append_history(cert, history_dir=hist)
        write_bench_record("unit", {"m": 1}, {"ok": True},
                           directory=str(tmp_path), history_dir=hist)
        with open(cert_path, "r", encoding="utf-8") as fh:
            second = json.load(fh)
        assert second["prev"] == cert["digest"]

    def test_build_record_is_deterministic_under_fakeclock(self):
        def build():
            TRACER.reset()
            telemetry.metrics.reset()
            with clocks.use_clock(FakeClock(start=50.0, tick=1.0)):
                return build_record("unit", {"m": 1}, {"ok": True})

        first, second = build(), build()
        assert first["created_unix"] == second["created_unix"] == 50.0
        assert first["metrics"] == second["metrics"]

    def test_build_record_created_override(self):
        record = build_record("unit", {}, {}, created=123.0)
        assert record["created_unix"] == 123.0


class TestMetricsConsistency:
    def test_valid_snapshot_passes(self):
        snap = {
            "msm.calls": 3,
            "fft.size": {"count": 2, "sum": 20, "min": 4, "max": 16,
                         "buckets": [1, 1], "bounds": [8]},
        }
        assert validate_metrics_consistency(snap) == []

    def test_histogram_count_bucket_mismatch(self):
        snap = {"h": {"count": 3, "sum": 20, "min": 4, "max": 16,
                      "buckets": [1, 1], "bounds": [8]}}
        problems = validate_metrics_consistency(snap)
        assert any("sum(buckets)" in p for p in problems)

    def test_histogram_min_above_max(self):
        snap = {"h": {"count": 2, "sum": 20, "min": 16, "max": 4,
                      "buckets": [1, 1], "bounds": [8]}}
        problems = validate_metrics_consistency(snap)
        assert any("min" in p for p in problems)

    def test_negative_counter(self):
        assert any(
            "negative" in p
            for p in validate_metrics_consistency({"c": -1})
        )

    def test_negative_bucket_and_bounds_shape(self):
        snap = {"h": {"count": 0, "sum": 0, "min": None, "max": None,
                      "buckets": [-1, 1], "bounds": [8]}}
        problems = validate_metrics_consistency(snap)
        assert any("negative bucket" in p for p in problems)
        snap = {"h": {"count": 1, "sum": 1, "min": 1, "max": 1,
                      "buckets": [1], "bounds": [8]}}
        problems = validate_metrics_consistency(snap)
        assert any("buckets for" in p for p in problems)

    def test_non_numeric_metric(self):
        assert validate_metrics_consistency({"c": "lots"})
        assert validate_metrics_consistency({"c": True})

    def test_validate_record_integrates_consistency(self):
        record = make_record(metrics={"msm.calls": -2})
        from repro.telemetry.bench import validate_record

        assert any("negative" in p for p in validate_record(record))
