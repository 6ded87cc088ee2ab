"""Microbench: the Pippenger MSM kernel, before vs after the raw-speed pass.

Times :func:`repro.engine.msm.msm_reference` (the pre-refactor unsigned
bucket kernel, kept verbatim) against :func:`repro.engine.msm.msm_generic`
(signed-digit windows + batched-affine buckets + GLV) on BN254 G1, at the
smoke sizes the Groth16 prover actually issues (``msm.points`` tops out at
224 on the smoke circuit) plus one larger size.  Both kernels must agree on
the affine result at every size before any number is recorded.

Run::

    PYTHONPATH=src python benchmarks/bench_msm_kernel.py [--smoke]

The before/after pair is persisted to ``BENCH_msm_kernel.json`` with the
same-run ratio ``min_speedup`` (the slowest size's before/after) and its
floor (``FLOORS``); ``python -m repro.telemetry trajectory`` fails when a
fresh run falls below the floor recorded in the history head.
"""

import random

from repro.ec.curve import jac_to_affine
from repro.ec.curves import BN254_G1
from repro.engine.group import JacobianGroup
from repro.engine.msm import msm_generic, msm_reference
from repro.telemetry.bench import write_bench_record
from repro.telemetry.clocks import perf

#: same-run ratio floors, certified in the record and judged by trajectory:
#: msm_generic must beat msm_reference by 1.3x at every measured size
FLOORS = {"min_speedup": 1.3}

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
    per_size = run([tuple(pair) for pair in pairs],
                   rounds=config.get("rounds", 3))
    return {"per_size": per_size,
            "min_speedup": min(r["speedup"] for r in per_size),
            "floors": FLOORS}


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="Pippenger kernel before/after microbench"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="prover-sized workloads only (CI-sized)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per size (best-of)")
    parser.add_argument("--no-record", action="store_true",
                        help="skip writing BENCH_msm_kernel.json")
    args = parser.parse_args(argv)

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    config = {"curve": "bn254-g1", "smoke": args.smoke,
              "rounds": args.rounds,
              "sizes": [n for _, n in sizes],
              "size_pairs": [list(pair) for pair in sizes]}
    results = replay(config)
    print("BN254 G1 Pippenger kernel, reference (unsigned) vs optimized "
          "(signed + batch-affine + GLV):")
    for row in results["per_size"]:
        print("  n=%4d   before %7.1f ms   after %7.1f ms   %.2fx"
              % (row["n"], row["before_s"] * 1e3, row["after_s"] * 1e3,
                 row["speedup"]))
    if not args.no_record:
        print("wrote %s" % write_bench_record("msm_kernel", config, results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
