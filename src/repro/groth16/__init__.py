"""Groth16 zkSNARK over BN254: setup, prove, verify, 128-byte proofs."""

from ..engine.fft import domain_root
from .keys import Proof, ProvingKey, ToxicWaste, VerifyingKey
from .prove import compute_h_coefficients, evaluate_constraints, prove
from .rerandomize import proof_in_groups, rerandomize
from .serialize import (
    PROOF_SIZE,
    g1_from_bytes,
    g1_to_bytes,
    g2_from_bytes,
    g2_to_bytes,
    proof_from_bytes,
    proof_to_bytes,
)
from .setup import evaluate_qap_at, forge_with_toxic_waste, setup
from .simulation import (
    SIM_PROOF_SIZE,
    SimulatedKey,
    SimulatedProof,
    sim_prove,
    sim_setup,
    sim_verify,
)
from .verify import (
    BatchVerificationError,
    PreparedVerifyingKey,
    batch_coefficients,
    batch_is_valid,
    is_valid,
    prepare,
    verify,
    verify_batch,
)

__all__ = [
    "setup",
    "prove",
    "verify",
    "verify_batch",
    "batch_is_valid",
    "batch_coefficients",
    "BatchVerificationError",
    "is_valid",
    "prepare",
    "PreparedVerifyingKey",
    "Proof",
    "ProvingKey",
    "VerifyingKey",
    "ToxicWaste",
    "forge_with_toxic_waste",
    "evaluate_qap_at",
    "evaluate_constraints",
    "compute_h_coefficients",
    "rerandomize",
    "proof_in_groups",
    "proof_to_bytes",
    "proof_from_bytes",
    "g1_to_bytes",
    "g1_from_bytes",
    "g2_to_bytes",
    "g2_from_bytes",
    "PROOF_SIZE",
    "domain_root",
    "sim_setup",
    "sim_prove",
    "sim_verify",
    "SimulatedKey",
    "SimulatedProof",
    "SIM_PROOF_SIZE",
]
