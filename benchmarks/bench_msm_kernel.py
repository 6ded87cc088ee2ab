"""Microbench: the Pippenger MSM kernel, before vs after the raw-speed pass.

Times :func:`repro.engine.msm.msm_reference` (the pre-refactor unsigned
bucket kernel, kept verbatim) against :func:`repro.engine.msm.msm_generic`
(signed-digit windows + batched-affine buckets + GLV) on BN254 G1, at the
smoke sizes the Groth16 prover actually issues (``msm.points`` tops out at
224 on the smoke circuit) plus one larger size.  Both kernels must agree on
the affine result at every size before any number is recorded.

Run::

    PYTHONPATH=src python benchmarks/bench_msm_kernel.py [--smoke] [--gate]

``--gate`` enforces the raw-speed floor: the optimized kernel must be at
least ``GATE_SPEEDUP``x faster than the reference at every measured size.
The before/after pair is persisted to ``BENCH_msm_kernel.json``.
"""

import random

from repro.ec.curve import jac_to_affine
from repro.ec.curves import BN254_G1
from repro.engine.group import JacobianGroup
from repro.engine.msm import msm_generic, msm_reference
from repro.telemetry.bench import write_bench_record
from repro.telemetry.clocks import perf

#: minimum required speedup of msm_generic over msm_reference (--gate)
GATE_SPEEDUP = 1.3

#: (seed, n) workloads; the smoke set mirrors the prover's real MSM sizes
SMOKE_SIZES = ((303, 96), (404, 224))
FULL_SIZES = SMOKE_SIZES + ((505, 512),)


def _workload(curve, seed, n):
    """n (affine point, 254-bit scalar) pairs from a fixed seed."""
    rng = random.Random(seed)
    g = curve.generator
    bases, scalars = [], []
    for _ in range(n):
        pt = rng.randrange(1, 1 << 20) * g
        bases.append((pt.x, pt.y))
        scalars.append(rng.randrange(1, curve.order))
    return bases, scalars


def _time(fn, rounds):
    best = None
    for _ in range(rounds):
        t0 = perf()
        fn()
        dt = perf() - t0
        best = dt if best is None or dt < best else best
    return best


def run(sizes, rounds=3):
    """Measure each workload; returns a list of per-size result dicts.

    Raises AssertionError if the kernels ever disagree on the affine
    result — a benchmark of a wrong kernel is worse than no benchmark.
    """
    curve = BN254_G1
    group = JacobianGroup(curve)
    out = []
    for seed, n in sizes:
        bases, scalars = _workload(curve, seed, n)
        ref = jac_to_affine(curve, msm_reference(group, bases, scalars))
        opt = jac_to_affine(curve, msm_generic(group, bases, scalars))
        assert ref == opt, "kernel parity violated at n=%d" % n
        before = _time(lambda: msm_reference(group, bases, scalars), rounds)
        after = _time(lambda: msm_generic(group, bases, scalars), rounds)
        out.append({
            "n": n,
            "seed": seed,
            "before_s": before,
            "after_s": after,
            "speedup": before / after,
        })
    return out


def replay(config):
    """Deterministic re-execution core for run certificates.

    The workloads are fully seed-driven (``size_pairs``), so under the
    replay harness's fake clock the metric counts — ``msm.calls``,
    ``msm.bucket_adds`` — reproduce bit-identically.
    Certificates from before ``size_pairs`` existed fall back to mapping
    the recorded sizes onto the canonical seed table.
    """
    pairs = config.get("size_pairs")
    if pairs is None:
        seed_for = {n: seed for seed, n in FULL_SIZES}
        pairs = [[seed_for[n], n] for n in config.get("sizes", [])]
    return {
        "per_size": run(
            [tuple(pair) for pair in pairs],
            rounds=config.get("rounds", 3),
        ),
    }


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="Pippenger kernel before/after microbench"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="prover-sized workloads only (CI-sized)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per size (best-of)")
    parser.add_argument(
        "--gate", action="store_true",
        help="fail (exit 1) unless every size clears %.1fx" % GATE_SPEEDUP,
    )
    parser.add_argument("--no-record", action="store_true",
                        help="skip writing BENCH_msm_kernel.json")
    args = parser.parse_args(argv)

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    results = run(sizes, rounds=args.rounds)
    print("BN254 G1 Pippenger kernel, reference (unsigned) vs optimized "
          "(signed + batch-affine + GLV):")
    for row in results:
        print("  n=%4d   before %7.1f ms   after %7.1f ms   %.2fx"
              % (row["n"], row["before_s"] * 1e3, row["after_s"] * 1e3,
                 row["speedup"]))
    if not args.no_record:
        config = {"curve": "bn254-g1", "smoke": args.smoke,
                  "rounds": args.rounds,
                  "sizes": [n for _, n in sizes],
                  "size_pairs": [list(pair) for pair in sizes]}
        record = {"per_size": results,
                  "min_speedup": min(r["speedup"] for r in results)}
        print("wrote %s" % write_bench_record("msm_kernel", config, record))
    slow = [r for r in results if r["speedup"] < GATE_SPEEDUP]
    if args.gate and slow:
        for row in slow:
            print("REGRESSION: n=%d speedup %.2f < %.1f floor"
                  % (row["n"], row["speedup"], GATE_SPEEDUP))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
