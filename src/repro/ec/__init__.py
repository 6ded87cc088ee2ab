"""Elliptic-curve groups, named curves, MSM, and scalar decomposition."""

from .curve import Curve, Point
from .curves import BN254_G1, BN254_Q, BN254_R, CURVES, P256, SECP256K1, TOY29, TOY61, curve_by_name
from .glv import decompose, half_width_bound
from .msm import straus

__all__ = [
    "Curve",
    "Point",
    "P256",
    "SECP256K1",
    "TOY29",
    "TOY61",
    "BN254_G1",
    "BN254_Q",
    "BN254_R",
    "CURVES",
    "curve_by_name",
    "straus",
    "decompose",
    "half_width_bound",
]
