"""Prover pipeline stage timings: synthesize / compile / bind+evaluate /
FFT / MSM, plus compiled-vs-LC parity and two same-run ratios.

The workload is the paper's Figure 5 repeated-issuance shape: one
statement-sized circuit is synthesized and compiled once, then each "proof"
re-binds three pass-through public wires (T, N, TS) and re-evaluates.  The
legacy path walks every LinearCombination per proof; the compiled path
evaluates the memoized CSR matrices once, then re-evaluates only the rows
reading a re-bound wire on later proofs.

Every run also proves a warmed keyed circuit with tracing off, then on.
The record carries two same-run ratios and their floors (``FLOORS``):
``compiled_speedup`` (LC walk / warm compiled bind+evaluate, at least 2x)
and ``traced_vs_untraced`` (untraced / traced prove time, at least
1/1.05: tracing costs under 5%).  ``python -m repro.telemetry
trajectory`` fails when a fresh run falls below a floor recorded in the
history head.

A second, proving-key-sized circuit checks evaluation parity on a keyed
statement: the compiled evaluator must reproduce the LC walk's A/B/C
evaluations, and a proof is a deterministic function of those evaluations
and the sampled blinding scalars, so equal evaluations mean equal proofs.

Run::

    PYTHONPATH=src python benchmarks/bench_prover_pipeline.py [--smoke]
        [-m M] [--keyed-m M] [--rounds N] [--seed N] [--trace] [--no-record]
"""

import argparse

from repro import telemetry
from repro.ec.curves import BN254_R
from repro.engine import get_engine
from repro.field import PrimeField
from repro.groth16 import (
    compute_h_coefficients,
    evaluate_constraints,
    prepare,
    proof_to_bytes,
    prove,
    setup,
    verify,
)
from repro.r1cs import CompiledCircuit, ConstraintSystem
from repro.telemetry.bench import write_bench_record
from repro.telemetry.clocks import perf
from repro.telemetry.trace import span

FR = PrimeField(BN254_R)

#: same-run ratio floors, certified in the record and judged by trajectory
FLOORS = {"compiled_speedup": 2.0, "traced_vs_untraced": 1 / 1.05}


def statement_like_circuit(m):
    """A statement-shaped system: three pass-through-bound public inputs
    (T, N, TS) that no other constraint touches, plus ``m`` constraints of
    bulk logic mixing byte-sized and full-width values (as the real
    statement mixes byte wires with big-int limbs).

    Returns ``(cs, binding_wires)`` with value tracking enabled, matching
    the synthesize-once / bind-per-proof flow of ``NopeStatement``.
    """
    cs = ConstraintSystem(FR)
    t = cs.alloc_public(0, "T")
    n = cs.alloc_public(0, "N")
    ts = cs.alloc_public(0, "TS")
    wires = tuple(next(iter(lc.terms)) for lc in (t, n, ts))
    for bound in (t, n, ts):
        cs.enforce(bound, cs.one, bound, "bind")
    small = [cs.alloc((i * 37 + 11) % 251, "byte%d" % i) for i in range(64)]
    acc = cs.alloc(7, "seed")
    cs.enforce_equal(acc, cs.constant(7), "seed.eq")
    for i in range(m):
        a = small[i % len(small)]
        b = small[(3 * i + 1) % len(small)]
        if i % 2:
            cs.mul(a + b, a + 2, "sp%d" % i)
        else:
            acc = cs.mul(acc, a + 1, "bulk%d" % i)
    cs.enable_value_tracking()
    return cs, wires


def bind(cs, wires, t_val, n_val, ts_val):
    t_w, n_w, ts_w = wires
    cs.set_value(t_w, t_val)
    cs.set_value(n_w, n_val)
    cs.set_value(ts_w, ts_val)


def keyed_circuit(m):
    """bench_groth16's multiplication chain, for the MSM-dominated stages."""
    cs = ConstraintSystem(FR)
    x = cs.alloc_public(3)
    acc = cs.alloc(3)
    cs.enforce_equal(acc, x)
    for _ in range(m):
        acc = cs.mul(acc, acc + 1)
    return cs


def _fixed_rng():
    vals = [123456789, 987654321]
    return lambda: vals.pop(0)


def _best(fn, rounds):
    best = float("inf")
    for i in range(rounds):
        t0 = perf()
        fn(i)
        best = min(best, perf() - t0)
    return best


def _seeded_rng(seed):
    """Zero-arg BN254 scalar sampler over a private PRNG (None -> None,
    keeping the ``secrets`` default for unseeded runs)."""
    if seed is None:
        return None
    import random

    state = random.Random(seed)
    return lambda: state.randrange(1, BN254_R)


def check_keyed_parity(keyed_m, rng=None):
    """The compiled evaluator must match the LC walk on a keyed circuit, and
    the compiled proof must verify; returns the proof bytes."""
    cs = keyed_circuit(keyed_m)
    pk, vk, _ = setup(cs, rng=rng)
    compiled = CompiledCircuit.from_system(cs)
    if compiled.evaluate(cs.values) != evaluate_constraints(cs):
        raise AssertionError("keyed-circuit compiled evals differ from LC walk")
    proof = prove(pk, cs, rng=_fixed_rng())
    verify(prepare(vk), proof, cs.public_inputs())
    return proof_to_bytes(proof)


def run(m, keyed_m, rounds, seed=None):
    rng = _seeded_rng(seed)
    eng = get_engine()

    with span("bench.synthesize", m=m):
        t0 = perf()
        cs, wires = statement_like_circuit(m)
        synth_s = perf() - t0

    with span("bench.compile"):
        t0 = perf()
        compiled = CompiledCircuit.from_system(cs)
        compile_s = perf() - t0

    # parity: the CSR evaluator must agree with the LC walk bit-for-bit
    lc_evals = evaluate_constraints(cs)
    if compiled.evaluate(cs.values) != lc_evals:
        raise AssertionError("compiled evals differ from LC-walk evals")

    # legacy per-proof cost: re-bind, then walk every LC
    def lc_round(i):
        bind(cs, wires, 100 + i, 200 + i, 300 + i)
        evaluate_constraints(cs)

    lc_s = _best(lc_round, rounds)

    # compiled warm path: one full evaluation seeds the cache, each later
    # proof re-evaluates only the rows reading a re-bound wire
    eng.evaluate_r1cs(cs)

    def compiled_round(i):
        with span("bench.bind", round=i):
            bind(cs, wires, 400 + i, 500 + i, 600 + i)
        with span("bench.evaluate", round=i):
            eng.evaluate_r1cs(cs)

    warm_s = _best(compiled_round, rounds)

    # incremental results must match a from-scratch walk of the same values
    _, inc_evals = eng.evaluate_r1cs(cs)
    if tuple(inc_evals) != tuple(evaluate_constraints(cs)):
        raise AssertionError("incremental evals differ from fresh LC walk")

    evals = evaluate_constraints(cs)
    fft_s = _best(lambda i: compute_h_coefficients(evals), rounds)

    # MSM-dominated tail, on a circuit small enough to run setup
    with span("bench.keyed_setup", keyed_m=keyed_m):
        kcs = keyed_circuit(keyed_m)
        pk, _, _ = setup(kcs, rng=rng)
        prove(pk, kcs, rng=rng)  # warm the prepared-key and compiled caches
    keyed_eval_s = _best(lambda i: eng.evaluate_r1cs(kcs), rounds)
    keyed_evals = evaluate_constraints(kcs)
    keyed_fft_s = _best(lambda i: compute_h_coefficients(keyed_evals), rounds)
    prove_s = _best(lambda i: prove(pk, kcs, rng=_fixed_rng()), rounds)
    msm_s = max(prove_s - keyed_eval_s - keyed_fft_s, 0.0)

    proof_bytes = check_keyed_parity(keyed_m, rng=rng)

    print(
        "statement-like circuit: m=%d constraints, nnz=%d (A+B+C)"
        % (compiled.num_constraints, compiled.a.nnz + compiled.b.nnz + compiled.c.nnz)
    )
    print("  synthesize:                 %8.3f s" % synth_s)
    print("  compile (CSR lowering):     %8.3f s" % compile_s)
    print("  bind+evaluate, LC walk:     %8.3f s /proof" % lc_s)
    print("  bind+evaluate, compiled:    %8.3f s /proof   (%.1fx)"
          % (warm_s, lc_s / warm_s if warm_s else float("inf")))
    print("  FFT (h coefficients):       %8.3f s" % fft_s)
    print("keyed circuit: m=%d, proof = %d bytes" % (keyed_m, len(proof_bytes)))
    print("  prove, total:               %8.3f s" % prove_s)
    print("  msm + tail (residual):      %8.3f s" % msm_s)
    print("keyed-circuit evals identical across {LC walk, compiled}")
    results = {
        "m": compiled.num_constraints,
        "nnz": compiled.a.nnz + compiled.b.nnz + compiled.c.nnz,
        "keyed_m": keyed_m,
        "proof_bytes": len(proof_bytes),
        "synthesize_s": synth_s,
        "compile_s": compile_s,
        "bind_evaluate_lc_s": lc_s,
        "bind_evaluate_compiled_s": warm_s,
        "h_coefficients_s": fft_s,
        "prove_s": prove_s,
        "msm_tail_s": msm_s,
        "compiled_speedup": lc_s / warm_s if warm_s else None,
    }
    return results


def tracing_overhead(keyed_m, rounds, seed=None):
    """Untraced vs traced prove time on a warmed keyed circuit.

    Proves the same circuit with tracing off, then on, taking the best of
    ``rounds`` each.  Returns ``(disabled_s, enabled_s)``.
    """
    rng = _seeded_rng(seed)
    kcs = keyed_circuit(keyed_m)
    pk, _, _ = setup(kcs, rng=rng)
    prove(pk, kcs, rng=rng)  # warm every cache before either timing
    was_enabled = telemetry.is_enabled()
    telemetry.disable()
    disabled_s = _best(lambda i: prove(pk, kcs, rng=_fixed_rng()), rounds)
    telemetry.enable()
    try:
        enabled_s = _best(lambda i: prove(pk, kcs, rng=_fixed_rng()), rounds)
    finally:
        if not was_enabled:
            telemetry.disable()
    print("tracing: untraced prove %.3fs, traced prove %.3fs"
          % (disabled_s, enabled_s))
    return disabled_s, enabled_s


def replay(config):
    """The bench core: ``main`` runs exactly this, and run certificates
    re-execute it (under a fake clock the ratios are meaningless; only the
    metric counts and the span structure are re-verified)."""
    m = config.get("m", 20000)
    keyed_m = config.get("keyed_m", 512)
    rounds = config.get("rounds", 3)
    seed = config.get("seed")
    with span("bench.prover_pipeline", m=m, keyed_m=keyed_m):
        results = run(m, keyed_m, rounds, seed=seed)
    disabled_s, enabled_s = tracing_overhead(keyed_m, max(rounds, 3), seed=seed)
    results["prove_untraced_s"] = disabled_s
    results["prove_traced_s"] = enabled_s
    results["traced_vs_untraced"] = disabled_s / enabled_s if enabled_s else None
    results["floors"] = FLOORS
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Prover pipeline stage timings and same-run ratios"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized circuits (~1 min)")
    parser.add_argument("-m", type=int, default=None,
                        help="statement-like constraint count "
                             "(default 3000 smoke / 20000)")
    parser.add_argument("--keyed-m", type=int, default=None,
                        help="keyed-circuit chain length (default 96 / 512)")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=None,
                        help="pin CRS/warm-up randomness (strict replay)")
    parser.add_argument("--trace", action="store_true",
                        help="enable span tracing and print the span tree")
    parser.add_argument("--no-record", action="store_true",
                        help="skip writing BENCH_prover_pipeline.json")
    args = parser.parse_args(argv)

    config = {
        "m": args.m or (3000 if args.smoke else 20000),
        "keyed_m": args.keyed_m or (96 if args.smoke else 512),
        "rounds": args.rounds, "smoke": args.smoke, "trace": args.trace,
        "seed": args.seed,
    }
    if args.trace:
        telemetry.enable()
    results = replay(config)
    if args.trace:
        print()
        print(telemetry.render_trace())
    if not args.no_record:
        path = write_bench_record("prover_pipeline", config, results)
        print("wrote %s" % path)
    print("ok")


if __name__ == "__main__":
    main()
