"""Groth16 verification: single proofs, prepared keys, and batches.

Verification cost is independent of the statement size except for the
low-order IC multi-scalar multiplication over the public inputs — exactly
the behaviour the paper measures in Figure 4.  Three layers make the
repeated-verification hot path cheap:

- :class:`PreparedVerifyingKey` caches ``e(alpha, beta)`` *and* the
  Miller-loop line coefficients of the key's fixed G2 points
  (beta/gamma/delta via :func:`repro.pairing.ate.prepare_g2`), so a single
  verification evaluates stored lines instead of re-deriving them.
- :func:`verify_batch` collapses N proofs into one multi-pairing check via
  a random linear combination with Fiat–Shamir-derived coefficients
  (deterministic — no ``random`` anywhere in the check), paying one final
  exponentiation per batch instead of per proof.  A bisection fallback
  isolates the offending proof(s) when a batch fails.
"""

from ..ec.curves import BN254_R
from ..engine import get_engine
from ..errors import ProofError
from ..hashes.sha256 import sha256
from ..pairing.ate import (
    final_exponentiation,
    multi_miller,
    pairing_check,
    prepare_g2,
)
from ..telemetry import metrics as _metrics
from ..telemetry.trace import span as _span
from .rerandomize import proof_in_groups
from .serialize import proof_to_bytes

R = BN254_R

_BATCH_SIZE = _metrics.histogram("batch.size")

#: Fiat–Shamir coefficients are this many bits (128-bit soundness slack is
#: far beyond the 2^-100 batching literature asks for).
BATCH_COEFF_BITS = 128

_FS_DOMAIN = b"repro/groth16/batch-verify/v1"


class BatchVerificationError(ProofError):
    """A batch failed; ``indices`` points at the offending proof(s)."""

    def __init__(self, indices):
        self.indices = sorted(indices)
        super().__init__(
            "Groth16 batch verification failed at indices %s" % self.indices
        )


class PreparedVerifyingKey:
    """A verifying key with per-key pairing work hoisted out of the loop.

    Stores ``e(alpha, beta)`` and the prepared Miller-loop lines for the
    fixed G2 points ``beta``, ``gamma``, ``delta``.
    """

    def __init__(self, vk):
        self.vk = vk
        self.beta_prepared = prepare_g2(vk.beta_g2)
        self.gamma_prepared = prepare_g2(vk.gamma_g2)
        self.delta_prepared = prepare_g2(vk.delta_g2)
        self.alpha_beta = final_exponentiation(
            multi_miller([(vk.alpha_g1, self.beta_prepared)])
        )

    @property
    def num_public(self):
        return self.vk.num_public


def prepare(vk):
    """Prepare a verifying key; idempotent (prepared keys pass through)."""
    if isinstance(vk, PreparedVerifyingKey):
        return vk
    return PreparedVerifyingKey(vk)


def _check_proof(vk, proof, public_inputs):
    if len(public_inputs) != vk.num_public:
        raise ProofError(
            "expected %d public inputs, got %d"
            % (vk.num_public, len(public_inputs))
        )
    if not proof_in_groups(proof):
        raise ProofError("proof elements not in the expected groups")


def _ic_combination(vk, public_inputs, engine):
    """vk.ic[0] + sum(x_j * vk.ic[j+1]) through the shared engine MSM."""
    if not public_inputs:
        return vk.ic[0]
    return vk.ic[0] + get_engine(engine).msm_points(
        vk.ic[1:], [x % R for x in public_inputs]
    )


def verify(pvk, proof, public_inputs, engine=None):
    """Check a proof against public inputs; raises ProofError on failure."""
    with _span("groth16.verify", public_inputs=len(public_inputs)):
        pvk = prepare(pvk)
        _check_proof(pvk.vk, proof, public_inputs)
        with _span("verify.ic_msm"):
            ic_point = _ic_combination(pvk.vk, public_inputs, engine)
        # e(A, B) == e(alpha, beta) * e(IC, gamma) * e(C, delta), checked as
        # e(-A, B) * e(IC, gamma) * e(C, delta) * e(alpha, beta) == 1.
        with _span("verify.pairing"):
            ok = pairing_check(
                [
                    (-proof.a, proof.b),
                    (ic_point, pvk.gamma_prepared),
                    (proof.c, pvk.delta_prepared),
                ],
                gt_factor=pvk.alpha_beta,
            )
        if not ok:
            raise ProofError("Groth16 pairing check failed")


def is_valid(pvk, proof, public_inputs, engine=None):
    """Boolean form of :func:`verify`."""
    try:
        verify(pvk, proof, public_inputs, engine=engine)
        return True
    except ProofError:
        return False


# -- batch verification ----------------------------------------------------


def batch_coefficients(proofs, public_inputs_list):
    """Fiat–Shamir random-linear-combination coefficients for a batch.

    The coefficients are a hash of the serialized proofs and public inputs,
    so the check is deterministic and replayable; a prover committed to the
    batch contents cannot steer them.  Each coefficient is a nonzero
    ``BATCH_COEFF_BITS``-bit integer.
    """
    transcript = [_FS_DOMAIN, len(proofs).to_bytes(8, "big")]
    for proof, public_inputs in zip(proofs, public_inputs_list):
        transcript.append(proof_to_bytes(proof))
        transcript.append(len(public_inputs).to_bytes(4, "big"))
        for x in public_inputs:
            transcript.append((x % R).to_bytes(32, "big"))
    seed = sha256(b"".join(transcript))
    coeffs = []
    for i in range(len(proofs)):
        digest = sha256(seed + i.to_bytes(8, "big"))
        z = int.from_bytes(digest[: BATCH_COEFF_BITS // 8], "big")
        coeffs.append(z or 1)
    return coeffs


def _batch_check(pvk, proofs, public_inputs_list, engine):
    """Whether the random-linear-combination multi-pairing equation holds.

    With coefficients z_i, the per-proof equations
    ``e(-A_i, B_i) e(IC_i, gamma) e(C_i, delta) e(alpha, beta) == 1``
    combine into
    ``prod e(-z_i A_i, B_i) * e(sum z_i IC_i, gamma)
    * e(sum z_i C_i, delta) * e(alpha, beta)^(sum z_i) == 1``
    — one final exponentiation for the whole batch.
    """
    eng = get_engine(engine)
    vk = pvk.vk
    _BATCH_SIZE.observe(len(proofs))
    with _span("groth16.verify_batch", proofs=len(proofs)):
        return _batch_equation(eng, pvk, vk, proofs, public_inputs_list)


def _batch_equation(eng, pvk, vk, proofs, public_inputs_list):
    coeffs = batch_coefficients(proofs, public_inputs_list)
    scale = sum(coeffs) % R
    # One IC MSM for the whole batch: the z-weighted public inputs fold
    # into per-column scalars, so the MSM size stays num_public + 1.
    with _span("verify.ic_msm", batch=len(proofs)):
        ic_scalars = [scale]
        for j in range(vk.num_public):
            ic_scalars.append(
                sum(z * (xs[j] % R) for z, xs in zip(coeffs, public_inputs_list))
                % R
            )
        ic_point = eng.msm_points(vk.ic, ic_scalars)
    c_point = eng.msm_points([proof.c for proof in proofs], coeffs)
    # -z_i * A_i as z_i * (-A_i): negating the point costs one field
    # negation, while folding the minus into the scalar (R - z) would turn
    # the 128-bit batch coefficient into a full-width 254-bit ladder
    ab_pairs = [
        (eng.msm_points([-proof.a], [z % R]), proof.b)
        for z, proof in zip(coeffs, proofs)
    ]
    # e(alpha, beta)^(sum z_i) rides the Miller product as e(s*alpha, beta)
    # — one G1 scalar-mul plus a prepared loop, cheaper than a GT pow.
    tail = [
        (ic_point, pvk.gamma_prepared),
        (c_point, pvk.delta_prepared),
        (eng.msm_points([vk.alpha_g1], [scale]), pvk.beta_prepared),
    ]
    with _span("verify.pairing", batch=len(proofs)):
        return pairing_check(ab_pairs + tail)


def _bisect_failures(pvk, proofs, public_inputs_list, indices, engine):
    """Recursively halve a failing batch down to the offending indices."""
    if len(indices) == 1:
        return list(indices)
    mid = len(indices) // 2
    bad = []
    for half in (indices[:mid], indices[mid:]):
        sub_proofs = [proofs[i] for i in half]
        sub_publics = [public_inputs_list[i] for i in half]
        if len(half) == 1:
            if not is_valid(pvk, sub_proofs[0], sub_publics[0], engine=engine):
                bad.extend(half)
        elif not _batch_check(pvk, sub_proofs, sub_publics, engine):
            bad.extend(
                _bisect_failures(pvk, proofs, public_inputs_list, half, engine)
            )
    return bad


def verify_batch(pvk, proofs, public_inputs_list, engine=None):
    """Verify N proofs with one multi-pairing check.

    Raises :class:`BatchVerificationError` naming the offending indices if
    any proof fails; accepts iff per-proof :func:`verify` would accept every
    entry.  Structural failures (wrong input counts, off-curve points) are
    reported without running the pairing check at all.
    """
    pvk = prepare(pvk)
    proofs = list(proofs)
    public_inputs_list = [list(xs) for xs in public_inputs_list]
    if len(proofs) != len(public_inputs_list):
        raise ValueError("verify_batch: proofs and public inputs differ in length")
    if not proofs:
        return
    structural = []
    for i, (proof, public_inputs) in enumerate(zip(proofs, public_inputs_list)):
        try:
            _check_proof(pvk.vk, proof, public_inputs)
        except ProofError:
            structural.append(i)
    if structural:
        raise BatchVerificationError(structural)
    if len(proofs) == 1:
        try:
            verify(pvk, proofs[0], public_inputs_list[0], engine=engine)
        except ProofError:
            raise BatchVerificationError([0]) from None
        return
    if _batch_check(pvk, proofs, public_inputs_list, engine):
        return
    bad = _bisect_failures(
        pvk, proofs, public_inputs_list, list(range(len(proofs))), engine
    )
    if not bad:
        # The combined check failed but every proof passes individually —
        # astronomically unlikely (a Fiat–Shamir collision); be loud.
        raise BatchVerificationError(list(range(len(proofs))))
    raise BatchVerificationError(bad)


def batch_is_valid(pvk, proofs, public_inputs_list, engine=None):
    """Boolean form of :func:`verify_batch`."""
    try:
        verify_batch(pvk, proofs, public_inputs_list, engine=engine)
        return True
    except ProofError:
        return False
