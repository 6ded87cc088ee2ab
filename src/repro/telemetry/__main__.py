"""``python -m repro.telemetry`` — demo pipeline, record checker, and the
run-certificate toolchain.

Subcommands:

* ``demo`` (default) — run a miniature statement-shaped prover pipeline
  with tracing enabled and print the nested span tree (compile -> bind ->
  evaluate -> h-coefficients -> MSM -> pairing) plus the metrics snapshot;
  ``--json`` also writes a ``BENCH_telemetry_demo.json`` record *and* its
  chained ``CERT_telemetry_demo.json`` run certificate (demo certificates
  carry ``gate: false`` — they never participate in trajectory gating).
* ``check FILE...`` — validate ``BENCH_*.json`` records: schema shape plus
  internal metric consistency (histogram count == sum(buckets), min <= max,
  no negative counters).
* ``certify FILE...`` — build run certificates for existing records;
  ``--append`` extends the append-only ``benchmarks/history`` chains.
* ``replay CERT`` — re-execute a certified bench under ``FakeClock`` with
  the recorded config/seeds, and assert the
  deterministic portions (metric counts, trace structure) match.
* ``trajectory`` — diff current ``BENCH_*.json`` records against each
  checked-in history head; fail on an invalid record, metric-count
  regressions, config drift, and same-run ratios below the head's floors.
* ``history`` — chain-verify every checked-in history file.
"""

import argparse
import json
import sys

from . import (
    enable,
    metrics,
    render_prometheus,
    render_trace,
    span,
    validate_file,
    write_bench_record,
)

#: fixed default seed for the demo's CRS/proof randomness — the demo is a
#: *strict* replay target, so its only entropy must come from the config
DEMO_SEED = 20241


def _demo_circuit(m):
    """A statement-shaped system: three re-bindable public inputs plus
    ``m`` constraints of bulk logic (miniature of the prover bench)."""
    from ..ec.curves import BN254_R
    from ..field import PrimeField
    from ..r1cs import ConstraintSystem

    cs = ConstraintSystem(PrimeField(BN254_R))
    t = cs.alloc_public(0, "T")
    n = cs.alloc_public(0, "N")
    ts = cs.alloc_public(0, "TS")
    wires = tuple(next(iter(lc.terms)) for lc in (t, n, ts))
    for bound in (t, n, ts):
        cs.enforce(bound, cs.one, bound, "bind")
    small = [cs.alloc((i * 37 + 11) % 251, "byte%d" % i) for i in range(16)]
    acc = cs.alloc(7, "seed")
    cs.enforce_equal(acc, cs.constant(7), "seed.eq")
    for i in range(m):
        acc = cs.mul(acc, small[i % len(small)] + 1, "bulk%d" % i)
    cs.enable_value_tracking()
    return cs, wires


def _seeded_rng(seed):
    """A zero-arg scalar sampler over the BN254 scalar field, driven by a
    private PRNG instance (never the global ``random`` state)."""
    import random

    from ..ec.curves import BN254_R

    state = random.Random(seed)
    return lambda: state.randrange(1, BN254_R)


def run_demo(m, profile=False, seed=DEMO_SEED):
    """The demo pipeline core: synthesize -> setup -> bind -> rebind ->
    prove -> verify, fully deterministic under a fixed ``seed``.

    This is both what ``demo`` runs and what ``replay`` re-executes, so
    it takes only JSON-serializable config values and prints nothing.
    """
    from ..engine import get_engine
    from ..groth16 import prepare, prove, setup, verify

    enable(profile=profile)
    rng = _seeded_rng(seed)
    eng = get_engine()
    with span("demo.pipeline", m=m):
        with span("demo.synthesize"):
            cs, wires = _demo_circuit(m)
        with span("demo.setup"):
            pk, vk, _ = setup(cs, rng=rng)
        with span("demo.bind"):
            for wire, value in zip(wires, (101, 202, 303)):
                cs.set_value(wire, value)
        eng.evaluate_r1cs(cs)  # seed the eval cache (full pass)
        with span("demo.rebind"):
            for wire, value in zip(wires, (111, 222, 333)):
                cs.set_value(wire, value)
        with span("demo.prove", profile=profile):
            proof = prove(pk, cs, rng=rng)
        with span("demo.verify"):
            verify(prepare(vk), proof, cs.public_inputs())  # raises on failure
    return {"ok": True}


def demo_replay(config):
    """Replay entrypoint for ``telemetry_demo`` certificates (resolved by
    :mod:`repro.telemetry.certify` via its internal registry)."""
    return run_demo(
        m=config.get("m", 48),
        profile=bool(config.get("profile", False)),
        seed=config.get("seed", DEMO_SEED),
    )


def demo(args):
    results = run_demo(args.m, profile=args.profile, seed=args.seed)

    print("== span tree ==")
    print(render_trace())
    print()
    print("== metrics ==")
    print(render_prometheus(metrics.snapshot()))
    if args.json:
        path = write_bench_record(
            "telemetry_demo",
            {"m": args.m, "profile": args.profile, "seed": args.seed},
            results,
        )
        print("\nwrote %s (+ run certificate)" % path)
    return 0


def check(args):
    bad = 0
    for path in args.files:
        problems = validate_file(path)
        if problems:
            bad += 1
            print("%s: INVALID" % path)
            for problem in problems:
                print("  - %s" % problem)
        else:
            print("%s: ok" % path)
    return 1 if bad else 0


def certify_cmd(args):
    from . import certify as ct

    bad = 0
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, ValueError) as exc:
            print("%s: unreadable (%s)" % (path, exc))
            bad += 1
            continue
        problems = validate_file(path)
        if problems:
            print("%s: refusing to certify an invalid record" % path)
            for problem in problems:
                print("  - %s" % problem)
            bad += 1
            continue
        cert = ct.certify_record(
            record, history_dir=args.history_dir,
            gate=False if args.no_gate else None,
        )
        cert_path = ct.write_certificate(cert)
        print("%s -> %s (digest %s, prev %s)"
              % (path, cert_path, cert["digest"][:16], cert["prev"][:16]))
        if args.append:
            chain = ct.append_history(cert, history_dir=args.history_dir)
            print("  appended to %s" % chain)
    return 1 if bad else 0


def replay_cmd(args):
    from . import certify as ct

    cert = ct.load_certificate(args.cert)
    print("replaying %s (bench %s, digest %s, %s)"
          % (args.cert, cert.get("bench"), cert.get("digest", "")[:16],
             "strict" if cert.get("replay", {}).get("strict")
             else "structural"))
    ok, lines = ct.replay_certificate(cert, benchmarks_dir=args.benchmarks)
    for line in lines:
        print(line)
    print("REPLAY %s" % ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def trajectory_cmd(args):
    from . import certify as ct

    regressions = ct.run_trajectory(
        history_dir=args.history_dir,
        records_dir=args.records_dir,
    )
    if regressions:
        print("TRAJECTORY: %d regression(s)" % regressions)
        return 1
    print("TRAJECTORY: ok")
    return 0


def history_cmd(args):
    import os

    from . import certify as ct

    directory = args.history_dir or ct.default_history_dir()
    if not os.path.isdir(directory):
        print("no history directory at %s" % directory)
        return 1
    bad = 0
    for filename in sorted(os.listdir(directory)):
        if not filename.endswith(".jsonl"):
            continue
        path = os.path.join(directory, filename)
        entries = ct.read_history(path)
        problems = ct.verify_history(entries)
        if problems:
            bad += 1
            print("%s: BROKEN" % path)
            for problem in problems:
                print("  - %s" % problem)
        else:
            head = entries[-1] if entries else None
            print("%s: ok (%d entries, head %s)"
                  % (path, len(entries),
                     head.get("digest", "")[:16] if head else "-"))
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="traced demo pipeline / record checker / run certificates",
    )
    sub = parser.add_subparsers(dest="command")
    demo_p = sub.add_parser("demo", help="run the traced miniature pipeline")
    demo_p.add_argument("-m", type=int, default=48, help="bulk constraints")
    demo_p.add_argument("--seed", type=int, default=DEMO_SEED,
                        help="CRS/proof randomness seed (replay fidelity)")
    demo_p.add_argument("--profile", action="store_true",
                        help="attach cProfile to the prove span")
    demo_p.add_argument("--json", action="store_true",
                        help="write BENCH_telemetry_demo.json + certificate")
    check_p = sub.add_parser("check", help="validate BENCH_*.json records")
    check_p.add_argument("files", nargs="+")
    cert_p = sub.add_parser("certify",
                            help="build run certificates for BENCH records")
    cert_p.add_argument("files", nargs="+")
    cert_p.add_argument("--append", action="store_true",
                        help="append to benchmarks/history/<bench>.jsonl")
    cert_p.add_argument("--history-dir", default=None)
    cert_p.add_argument("--no-gate", action="store_true",
                        help="mark the certificate as trajectory-exempt")
    replay_p = sub.add_parser("replay",
                              help="re-verify a certificate deterministically")
    replay_p.add_argument("cert", help="CERT_*.json or history .jsonl path")
    replay_p.add_argument("--benchmarks", default=None,
                          help="directory holding bench_*.py entrypoints")
    traj_p = sub.add_parser("trajectory",
                            help="gate current records against history heads")
    traj_p.add_argument("--history-dir", default=None)
    traj_p.add_argument("--records-dir", default=None)
    hist_p = sub.add_parser("history", help="chain-verify history files")
    hist_p.add_argument("--history-dir", default=None)
    args = parser.parse_args(argv)

    if args.command == "check":
        return check(args)
    if args.command == "certify":
        return certify_cmd(args)
    if args.command == "replay":
        return replay_cmd(args)
    if args.command == "trajectory":
        return trajectory_cmd(args)
    if args.command == "history":
        return history_cmd(args)
    if args.command is None:
        args = demo_p.parse_args([])
    return demo(args)


if __name__ == "__main__":
    sys.exit(main())
