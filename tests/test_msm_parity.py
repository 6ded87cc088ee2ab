"""MSM kernel parity: optimized vs pre-refactor goldens vs parallel.

The raw-speed pass (signed windows, batched-affine buckets, GLV) must be a
pure re-association: every kernel variant computes the same group element.
Three legs pin that down:

* golden parity — ``msm_generic`` reproduces the affine results captured
  from the pre-refactor unsigned kernel (``tests/golden/msm_golden.json``),
  across four G1 curves and BN254 G2;
* reference parity — ``msm_reference`` (the retained pre-refactor kernel)
  still reproduces its own goldens, so the baseline cannot drift;
* serial/parallel parity — a pool engine returns the same affine point as
  the serial path on the same workload.

Workloads are rebuilt from the recorded seeds with ``random.Random``, so
the fixtures stay a few hundred bytes instead of shipping point dumps.
"""

import json
import os
import random

import pytest

from repro.ec.curve import Point
from repro.ec.curves import BN254_G1, TOY29, curve_by_name
from repro.engine import Engine, EngineConfig
from repro.engine.group import JacobianGroup, OperatorGroup
from repro.engine.msm import msm_generic, msm_reference
from repro.pairing.bn254 import BN254_R, G2_GENERATOR, G2Point

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "msm_golden.json")

with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
    GOLDEN = json.load(fh)["cases"]

G1_CASES = [c for c in GOLDEN if c["group"] == "g1"]
G2_CASES = [c for c in GOLDEN if c["group"] == "g2"]


def _g1_workload(curve, seed, n):
    rng = random.Random(seed)
    base_scalars = [rng.randrange(1, curve.order) for _ in range(n)]
    scalars = [rng.randrange(0, curve.order) for _ in range(n)]
    points = [k * curve.generator for k in base_scalars]
    return [(p.x, p.y) for p in points], scalars


def _g2_workload(seed, n):
    rng = random.Random(seed)
    points = [rng.randrange(1, BN254_R) * G2_GENERATOR for _ in range(n)]
    scalars = [rng.randrange(0, BN254_R) for _ in range(n)]
    return points, scalars


def _case_id(case):
    return "%s-n%d" % (case["curve"], case["n"])


@pytest.mark.parametrize("case", G1_CASES, ids=_case_id)
@pytest.mark.parametrize("kernel", [msm_generic, msm_reference],
                         ids=["optimized", "reference"])
def test_g1_matches_golden(case, kernel):
    curve = curve_by_name(case["curve"])
    bases, scalars = _g1_workload(curve, case["seed"], case["n"])
    got = Point.from_jacobian(curve, kernel(JacobianGroup(curve), bases, scalars))
    assert hex(got.x) == case["x"]
    assert hex(got.y) == case["y"]


@pytest.mark.parametrize("case", G2_CASES, ids=_case_id)
@pytest.mark.parametrize("kernel", [msm_generic, msm_reference],
                         ids=["optimized", "reference"])
def test_g2_matches_golden(case, kernel):
    points, scalars = _g2_workload(case["seed"], case["n"])
    group = OperatorGroup(G2Point.infinity(), order=BN254_R)
    got = kernel(group, points, scalars)
    assert [hex(v) for v in (got.x.c0, got.x.c1)] == case["x"]
    assert [hex(v) for v in (got.y.c0, got.y.c1)] == case["y"]


def test_bucket_special_cases():
    """Batched-affine buckets hit P+P and P+(-P) without losing exactness."""
    for curve in (TOY29, BN254_G1):
        g = curve.generator
        pts = [g, g, g, -g, 2 * g, -(2 * g), 3 * g]
        bases = [(pt.x, pt.y) for pt in pts]
        group = JacobianGroup(curve)
        # equal scalars force every point into the same bucket per window;
        # the last two rows are edge scalars (all zero; 1, 0, n - 1 mixed)
        for scalars in ([5] * 7, [1] * 7, [curve.order - 1] * 7,
                        [3, 3, 3, 3, 7, 7, 7], [0x1F2F3F4F] * 7, [0] * 7,
                        [1, 0, curve.order - 1, 2, 0, 0, 0]):
            want = curve.infinity
            for pt, k in zip(pts, scalars):
                want = want + k * pt
            for kernel in (msm_generic, msm_reference):
                got = kernel(group, bases, list(scalars))
                assert Point.from_jacobian(curve, got) == want
        # one reduction round: empty -> None, doubling, cancellation -> None
        b1, neg = bases[0], bases[3]
        two = ((2 * g).x, (2 * g).y)
        assert group.reduce_buckets([[], [b1, b1], [b1, neg]]) == [None, two, None]


def test_serial_parallel_parity():
    """A pool engine and the serial engine agree on the affine result."""
    case = next(c for c in G1_CASES if c["curve"] == "bn254-g1" and c["n"] == 96)
    curve = curve_by_name(case["curve"])
    bases, scalars = _g1_workload(curve, case["seed"], case["n"])
    serial = Engine()
    parallel = Engine(EngineConfig(workers=2, min_parallel_msm=1, adaptive=False))
    try:
        a = Point.from_jacobian(curve, serial.msm_jacobian(curve, bases, scalars))
        b = Point.from_jacobian(curve, parallel.msm_jacobian(curve, bases, scalars))
    finally:
        parallel.close()
    assert a == b
    assert hex(a.x) == case["x"] and hex(a.y) == case["y"]
