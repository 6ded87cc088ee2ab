"""BN254 optimal ate pairing (the Groth16 back-end's bilinear map)."""

from .ate import (
    G2Prepared,
    final_exponentiation,
    multi_miller,
    multi_pairing,
    pairing,
    pairing_check,
    prepare_g2,
)
from .bn254 import ATE_LOOP_COUNT, B2, BN254_R, G2Point, G2_GENERATOR

__all__ = [
    "pairing",
    "multi_pairing",
    "pairing_check",
    "multi_miller",
    "prepare_g2",
    "G2Prepared",
    "final_exponentiation",
    "G2Point",
    "G2_GENERATOR",
    "ATE_LOOP_COUNT",
    "BN254_R",
    "B2",
]
