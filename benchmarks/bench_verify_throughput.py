"""Verifier throughput: naive vs prepared vs batched vs cached
(proofs/sec), against the Fig. 4 single-verify baseline.

The client-side verifier is the path a production deployment executes
millions of times per day; this bench measures how far each layer of the
verifier stack moves it:

- **naive**: per-proof ``verify()`` on an *unprepared* verifying key —
  three Miller loops with on-the-fly line derivation plus a fresh
  ``e(alpha, beta)`` every call (the Fig. 4 baseline).
- **prepared**: per-proof ``verify()`` on a ``PreparedVerifyingKey`` —
  cached ``e(alpha, beta)`` and stored Miller-loop lines for
  beta/gamma/delta.
- **batched**: ``verify_batch()`` — one random-linear-combination
  multi-pairing check, one final exponentiation per batch.
- **cached**: a client :class:`~repro.core.VerificationCache` hit — a
  dictionary probe; what a repeat connection to the same server pays.

Every path must return verdicts identical to naive ``verify()`` on every
test vector, including tampered proofs — asserted before timing.

Run::

    PYTHONPATH=src python benchmarks/bench_verify_throughput.py [--smoke]
        [--batch N] [--rounds N] [--no-regress] [--no-record]

``--no-regress`` holds this run's batched-vs-prepared speedup to >= 0.98x
the checked-in ``BENCH_verify_throughput.json`` reference (the record's
conservative per-round floor).
"""

import argparse
import json
import os

from repro import telemetry
from repro.ec.curves import BN254_R
from repro.field import PrimeField
from repro.groth16 import (
    Proof,
    batch_is_valid,
    is_valid,
    prepare,
    prove,
    setup,
)
from repro.groth16.verify import PreparedVerifyingKey
from repro.r1cs import ConstraintSystem
from repro.telemetry.bench import write_bench_record
from repro.telemetry.clocks import perf
from repro.telemetry.trace import span

FR = PrimeField(BN254_R)
R = BN254_R

#: --no-regress floor: this run's batched-vs-prepared speedup may not fall
#: below this fraction of the checked-in BENCH_verify_throughput.json record
NO_REGRESS_FLOOR = 0.98


def recorded_speedup(directory=None):
    """The gate reference from the checked-in bench record, or None when
    no record exists yet (first run bootstraps the gate).

    Prefers the conservative per-round floor; records written before the
    floor existed fall back to the headline best-of ratio.
    """
    path = os.path.join(directory or os.getcwd(),
                        "BENCH_verify_throughput.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        return None
    results = record.get("results", {})
    value = results.get("batched_vs_prepared_floor",
                        results.get("batched_vs_prepared"))
    return value if isinstance(value, (int, float)) else None


def cubic_system(w_val):
    """Public x; witness w with w^3 + w + 5 == x (Fig. 4-sized statement:
    verification cost is independent of circuit size)."""
    cs = ConstraintSystem(FR)
    x_val = (pow(w_val, 3, R) + w_val + 5) % R
    x = cs.alloc_public(x_val, "x")
    w = cs.alloc(w_val, "w")
    w2 = cs.mul(w, w)
    w3 = cs.mul(w2, w)
    cs.enforce_equal(w3 + w + 5, x)
    return cs


def make_batch(batch_size, seed=None):
    """One key pair plus ``batch_size`` proofs over distinct public inputs.

    ``seed`` pins the CRS and per-proof randomness to a private PRNG so
    the run's metric counts replay deterministically; unseeded runs keep
    the ``secrets`` default.
    """
    rng = None
    if seed is not None:
        import random

        state = random.Random(seed)
        rng = lambda: state.randrange(1, R)
    systems = [cubic_system(3 + i) for i in range(batch_size)]
    pk, vk, _ = setup(systems[0], rng=rng)
    proofs = [prove(pk, cs, rng=rng) for cs in systems]
    publics = [cs.public_inputs() for cs in systems]
    return vk, proofs, publics


def tamper(proof):
    return Proof(2 * proof.a, proof.b, proof.c)


def check_verdicts_identical(vk, pvk, proofs, publics):
    """Every path must agree with naive verify() on good AND tampered
    vectors; returns the number of vectors checked."""
    vectors = [(proofs[i], publics[i], True) for i in range(len(proofs))]
    vectors.append((tamper(proofs[0]), publics[0], False))
    vectors.append((proofs[1], [publics[1][0] + 1], False))
    for proof, xs, expected in vectors:
        assert is_valid(vk, proof, xs) == expected, "naive verdict drifted"
        assert is_valid(pvk, proof, xs) == expected, "prepared != naive"
    # batched path: all-good batch, and a batch with one bad entry
    assert batch_is_valid(pvk, proofs, publics)
    bad_proofs = [tamper(p) if i == len(proofs) // 2 else p
                  for i, p in enumerate(proofs)]
    assert not batch_is_valid(pvk, bad_proofs, publics)
    bad_publics = [list(xs) for xs in publics]
    bad_publics[-1][0] += 1
    assert not batch_is_valid(pvk, proofs, bad_publics)
    return len(vectors) + 3


def time_paths_interleaved(fns, batch_size, rounds):
    """Per-proof times for each path, round-robin: (best-of list, rows).

    Timing every path once per round (instead of all rounds of one path,
    then all rounds of the next) keeps the measurements of the paths
    inside the same time window, so slow drift of the host's load hits
    them all alike — the *ratios* between paths, which the --no-regress
    gate consumes, come out far more stable than with sequential timing.
    The raw per-round rows are returned too, so the caller can derive a
    conservative per-round ratio floor.
    """
    rows = []
    for _ in range(rounds):
        row = []
        for fn in fns:
            t0 = perf()
            fn()
            row.append((perf() - t0) / batch_size)
        rows.append(row)
    best = [min(row[i] for row in rows) for i in range(len(fns))]
    return best, rows


def bench_cached_lookup(rounds=10000):
    """Proofs/sec equivalent of a client verification-cache hit."""
    from repro.core import VerificationCache

    class _FakeLeaf:
        serial = 1
        not_before = 0
        not_after = 1 << 40

    cache = VerificationCache()
    cache.store(b"\x01" * 32, "example.com", object(), _FakeLeaf(), now=100)
    t0 = perf()
    for _ in range(rounds):
        cache.lookup(b"\x01" * 32, "example.com", 100)
    return (perf() - t0) / rounds


def run(batch_size, rounds, seed=None):
    print("generating %d proofs..." % batch_size)
    vk, proofs, publics = make_batch(batch_size, seed=seed)
    pvk = prepare(vk)
    checked = check_verdicts_identical(vk, pvk, proofs, publics)
    print("verdict parity: %d vectors identical across all paths" % checked)

    def naive():
        for proof, xs in zip(proofs, publics):
            # a fresh PreparedVerifyingKey per call = the legacy
            # no-precomputation cost (lines + alpha_beta re-derived)
            assert is_valid(PreparedVerifyingKey(vk), proof, xs)

    def prepared():
        for proof, xs in zip(proofs, publics):
            assert is_valid(pvk, proof, xs)

    def batched():
        assert batch_is_valid(pvk, proofs, publics)

    with span("bench.verify.paths", batch=batch_size, rounds=rounds):
        bests, rows = time_paths_interleaved(
            [naive, prepared, batched], batch_size, rounds,
        )
    naive_s, prepared_pp, batched_pp = bests
    results = [
        ("naive verify()", naive_s),
        ("prepared verify()", prepared_pp),
        ("batched (N=%d)" % batch_size, batched_pp),
        ("cached (client hit)", bench_cached_lookup()),
    ]
    print("\n%-24s %12s %12s %10s" % ("path", "s/proof", "proofs/sec", "speedup"))
    for name, per_proof in results:
        print("%-24s %12.6f %12.1f %9.1fx"
              % (name, per_proof, 1.0 / per_proof, naive_s / per_proof))
    batched_vs_per_proof = prepared_pp / batched_pp
    # the gate reference: the WORST per-round ratio this run observed.
    # Best-of composites flatter the headline; recording the floor
    # gives --no-regress a reference a future (noisier) run can
    # actually be held to without flaking on scheduler jitter.
    ratio_floor = min(row[1] / row[2] for row in rows)
    print("\nbatched vs per-proof verify() at N=%d: %.2fx "
          "(per-round floor %.2fx)"
          % (batch_size, batched_vs_per_proof, ratio_floor))
    return batched_vs_per_proof, {
        "batch": batch_size,
        "per_proof_s": {name: s for name, s in results},
        "batched_vs_prepared": batched_vs_per_proof,
        "batched_vs_prepared_floor": ratio_floor,
    }


def replay(config):
    """Deterministic re-execution core for run certificates (certs from
    seeded runs replay strictly; unseeded ones only structurally)."""
    _, results = run(
        config.get("batch", 16),
        config.get("rounds", 3),
        seed=config.get("seed"),
    )
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Verifier throughput: naive/prepared/batched/cached"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (fewer rounds, still batch 16)")
    parser.add_argument("--batch", type=int, default=16)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None,
                        help="pin CRS/proof randomness (strict replay)")
    parser.add_argument("--trace", action="store_true",
                        help="enable span tracing and print the span tree")
    parser.add_argument("--no-record", action="store_true",
                        help="skip writing BENCH_verify_throughput.json")
    parser.add_argument(
        "--no-regress", action="store_true",
        help="fail (exit 1) unless this run's batched-vs-prepared speedup "
             "stays >= %.2f x the checked-in record" % NO_REGRESS_FLOOR,
    )
    args = parser.parse_args(argv)

    # --smoke shrinks nothing here: proof *generation* dominates the bench,
    # the timed section is seconds, and the --no-regress gate needs the
    # same best-of-3 methodology the checked-in record was measured with
    rounds = args.rounds or 3
    if args.trace:
        telemetry.enable()
    # the reference value must be read before write_bench_record replaces it
    reference = recorded_speedup()
    speedup, results = run(args.batch, rounds, seed=args.seed)
    if args.trace:
        print()
        print(telemetry.render_trace())
    if not args.no_record:
        config = {"batch": args.batch, "rounds": rounds, "smoke": args.smoke,
                  "trace": args.trace, "seed": args.seed}
        print("wrote %s"
              % write_bench_record("verify_throughput", config, results))
    if args.no_regress:
        if reference is None:
            print("no checked-in record to gate against; skipping --no-regress")
        else:
            floor = NO_REGRESS_FLOOR * reference
            if speedup < floor:
                print("REGRESSION: batched_vs_prepared %.3f < %.3f "
                      "(%.2f x recorded %.3f)"
                      % (speedup, floor, NO_REGRESS_FLOOR, reference))
                raise SystemExit(1)
            print("no-regress gate: %.3f >= %.3f (%.2f x recorded %.3f)"
                  % (speedup, floor, NO_REGRESS_FLOOR, reference))
    if args.batch >= 16 and speedup < 2.0:
        raise SystemExit(
            "batched verification below the 2x target: %.2fx" % speedup
        )
    print("ok")


if __name__ == "__main__":
    main()
