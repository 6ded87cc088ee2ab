"""Finite-field arithmetic: prime fields and the BN254 extension tower."""

from .prime_field import PrimeField, Fp
from .extension import Fq2, Fq6, Fq12, BN254_P, XI, fq2_raw, fq6_raw, fq12_raw

__all__ = [
    "PrimeField", "Fp", "Fq2", "Fq6", "Fq12", "BN254_P", "XI",
    "fq2_raw", "fq6_raw", "fq12_raw",
]
