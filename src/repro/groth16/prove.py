"""The Groth16 prover.

Cost profile (why the paper cares about constraint counts): three G1 MSMs
and one G2 MSM of size ~n plus one size-m MSM for h, and FFTs of size d =
next_pow2(m) — overall m log m field work and O(m) group work.

All group and polynomial kernels flow through :mod:`repro.engine`: the
generic Pippenger MSM (shared between G1 and G2), cached-twiddle FFTs, and
the memoized prepared proving key that pre-extracts each CRS query's
non-identity entries.

The field side is single-pass: each constraint's A/B/C linear combinations
are evaluated exactly once per proof, with the satisfaction check folded
into the same pass.  The evaluation runs on the engine's compiled circuit
(flat CSR matrices, memoized by structure hash, and incremental across
witness re-binds).  :func:`evaluate_constraints` is the uncompiled LC walk
it must agree with bit-for-bit; tests and the prover-pipeline bench use it
as the reference.
"""

import secrets

from ..ec.curves import BN254_R
from ..engine import get_engine
from ..engine.fft import GENERATOR, domain_root
from ..errors import ProvingError
from ..r1cs.system import unsatisfied_error
from ..telemetry.trace import span as _span
from .keys import Proof
from .setup import _next_pow2

R = BN254_R


def evaluate_constraints(system):
    """One LC-walk pass over all constraints: evals + satisfaction check.

    Returns ``(a_evals, b_evals, c_evals)`` (length ``m`` each); raises
    UnsatisfiedError naming the first failing constraint, exactly like
    ``check_satisfied``.  This is the uncompiled reference path — the
    compiled CSR evaluator must agree with it bit-for-bit.
    """
    p = system.field.p
    values = system.values
    a_evals = []
    b_evals = []
    c_evals = []
    for i, (a, b, c, label) in enumerate(system.constraints):
        av = a.evaluate(values, p)
        bv = b.evaluate(values, p)
        cv = c.evaluate(values, p)
        if av * bv % p != cv:
            raise unsatisfied_error(i, label, av, bv, cv)
        a_evals.append(av)
        b_evals.append(bv)
        c_evals.append(cv)
    return a_evals, b_evals, c_evals


def compute_h_coefficients(evals):
    """Coefficients of h(X) = (A(X)B(X) - C(X)) / Z(X) on the QAP domain.

    ``evals`` is the ``(a_evals, b_evals, c_evals)`` triple (length ``m``
    each, one entry per constraint) from the single evaluation pass.
    """
    m = len(evals[0])
    d = _next_pow2(max(m, 2))
    eng = get_engine()
    with _span("groth16.h_coefficients", constraints=m, domain=d):
        omega = domain_root(d)
        padding = [0] * (d - m)
        a_coset, b_coset, c_coset = eng.coset_extend_many(
            [list(vec) + padding for vec in evals], omega
        )
        # Z(g w^j) = g^d - 1 is constant on the coset
        z_coset = (pow(GENERATOR, d, R) - 1) % R
        z_inv = pow(z_coset, -1, R)
        h_coset = [
            (av * bv - cv) % R * z_inv % R
            for av, bv, cv in zip(a_coset, b_coset, c_coset)
        ]
        h_coeffs = eng.coset_ifft(h_coset, omega)
        # degree of h is d - 2; the top coefficient must vanish
        if h_coeffs[d - 1] % R != 0:
            raise ProvingError(
                "constraint system is not satisfied (h overflow)"
            )
        return h_coeffs[: d - 1]


def prove(pk, system, rng=None):
    """Produce a proof that ``system``'s assignment satisfies its R1CS.

    ``system`` is a fully synthesized ConstraintSystem (witness included);
    ``rng`` is a zero-argument sampler for the blinding scalars r and s
    (default: ``secrets``).  The proof is a deterministic function of the
    evaluations and the two sampled scalars.
    """
    if system.counting_only:
        raise ProvingError("cannot prove a counting-only system")
    eng = get_engine()
    with _span("groth16.prove", constraints=system.constraint_count):
        prep = eng.prepare(pk)
        curve = prep.curve
        z = system.full_assignment()
        num_vars = len(z)
        if num_vars != len(pk.a_query):
            raise ProvingError("proving key does not match this statement")
        with _span("prove.evaluate"):
            _, evals = eng.evaluate_r1cs(system)
        rand = rng or (lambda: secrets.randbelow(R))
        r = rand()
        s = rand()
        h_coeffs = compute_h_coefficients(evals)

        with _span("prove.msm.a"):
            a_bases, a_sc = prep.a.gather(z)
            g1_a = eng.msm_affine_point(curve, a_bases, a_sc)
            # A = alpha + sum z_i A_i(tau) + r*delta
            g1_a = pk.alpha_g1 + g1_a + r * pk.delta_g1

        with _span("prove.msm.b_g1"):
            b1_bases, b1_sc = prep.b_g1.gather(z)
            g1_b = eng.msm_affine_point(curve, b1_bases, b1_sc)
            g1_b = pk.beta_g1 + g1_b + s * pk.delta_g1

        with _span("prove.msm.b_g2"):
            b2_bases, b2_sc = prep.b_g2.gather(z)
            g2_b = eng.msm_g2(b2_bases, b2_sc)
            g2_b = pk.beta_g2 + g2_b + s * pk.delta_g2

        # C = sum_w z_i L_i/delta + sum h_k tau^k Z/delta + s*A + r*B1 - rs*delta
        with _span("prove.msm.c"):
            wit_start = 1 + system.num_public
            l_bases, l_sc = prep.l.gather(z, offset=wit_start)
            h_bases, h_sc = prep.h.gather(h_coeffs)
            g1_c = eng.msm_affine_point(curve, l_bases + h_bases, l_sc + h_sc)
            g1_c = (
                g1_c + s * g1_a + r * g1_b + ((-(r * s)) % R) * pk.delta_g1
            )
        return Proof(g1_a, g2_b, g1_c)
