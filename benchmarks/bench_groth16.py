"""Supporting bench: the Groth16 back-end itself (setup/prove/verify).

Verification cost is statement-size independent (the paper's Figure 4
premise); proof size is always 128 bytes.  A pytest-benchmark module::

    PYTHONPATH=src python -m pytest benchmarks/bench_groth16.py
"""

import pytest

from repro.ec.curves import BN254_R
from repro.field import PrimeField
from repro.groth16 import PROOF_SIZE, prepare, proof_to_bytes, prove, setup, verify
from repro.r1cs import ConstraintSystem

FR = PrimeField(BN254_R)


def chain_circuit(m):
    cs = ConstraintSystem(FR)
    x = cs.alloc_public(3)
    acc = cs.alloc(3)
    cs.enforce_equal(acc, x)
    for _ in range(m):
        acc = cs.mul(acc, acc + 1)
    return cs


def replay(config):
    """Run-certificate replay core: set up, prove and verify one chain
    circuit with seeded randomness, so two executions agree bit-identically
    (the timed benchmarks draw their CRS from ``secrets``)."""
    import random

    state = random.Random(config.get("seed", 1))
    rng = lambda: state.randrange(1, BN254_R)
    cs = chain_circuit(config.get("m", 64))
    pk, vk, _ = setup(cs, rng=rng)
    proof = prove(pk, cs, rng=rng)
    verify(prepare(vk), proof, cs.public_inputs())
    return {"proof_bytes": len(proof_to_bytes(proof))}


@pytest.fixture(scope="module", params=[64, 1024], ids=["m=64", "m=1024"])
def keyed(request):
    cs = chain_circuit(request.param)
    pk, vk, _ = setup(cs)
    proof = prove(pk, cs)
    return cs, pk, prepare(vk), proof


def test_prove(benchmark, keyed):
    cs, pk, _, _ = keyed
    benchmark.pedantic(lambda: prove(pk, cs), rounds=3, iterations=1)


def test_verify(benchmark, keyed):
    cs, _, pvk, proof = keyed
    benchmark.pedantic(
        lambda: verify(pvk, proof, cs.public_inputs()), rounds=5, iterations=1
    )


def test_proof_size(benchmark, keyed):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _, _, _, proof = keyed
    assert len(proof_to_bytes(proof)) == PROOF_SIZE == 128
