"""Groth16 trusted setup (and the forgery that motivates trusting it).

The setup samples the trapdoor (tau, alpha, beta, gamma, delta), evaluates
every variable's QAP polynomials at tau via Lagrange coefficients (O(nnz)
field work, no FFT needed), and exponentiates with fixed-base tables.

``forge_with_toxic_waste`` constructs a verifying proof for an arbitrary
public input *without any witness*, given the trapdoor — the reason the
paper notes the setup "must be executed by a trusted party" and compares it
to DNSSEC's root key ceremonies (§2.3).
"""

import secrets

from ..ec.curve import Point
from ..ec.curves import BN254_G1, BN254_R
from ..engine import get_engine
from ..engine.fft import domain_root
from ..errors import ProvingError
from ..pairing.bn254 import G2Point, G2_GENERATOR
from ..telemetry.trace import span as _span
from .keys import ProvingKey, ToxicWaste, VerifyingKey

R = BN254_R
G1 = BN254_G1.generator
G2 = G2_GENERATOR


def _next_pow2(n):
    size = 1
    while size < n:
        size <<= 1
    return size


def evaluate_qap_at(structure, tau):
    """Evaluate every variable's (A_i, B_i, C_i) QAP polynomials at tau.

    Uses the Lagrange-basis identity  L_j(tau) = Z(tau) * omega^j /
    (d * (tau - omega^j))  with one batched inversion.  Returns
    (a_vals, b_vals, c_vals, domain_size, z_tau).
    """
    m = structure.constraint_count
    num_vars = structure.num_variables
    d = _next_pow2(max(m, 2))
    omega = domain_root(d)
    z_tau = (pow(tau, d, R) - 1) % R
    if z_tau == 0:
        raise ProvingError("tau landed in the domain; resample")
    # Lagrange coefficients at tau for each constraint index
    omegas = []
    w = 1
    for _ in range(d):
        omegas.append(w)
        w = w * omega % R
    denoms = [(tau - w) % R for w in omegas[:m]]
    # batch invert
    prefix = [1] * (m + 1)
    for i in range(m):
        prefix[i + 1] = prefix[i] * denoms[i] % R
    inv_all = pow(prefix[m], -1, R)
    inv_denoms = [0] * m
    for i in range(m - 1, -1, -1):
        inv_denoms[i] = prefix[i] * inv_all % R
        inv_all = inv_all * denoms[i] % R
    d_inv = pow(d, -1, R)
    lag = [z_tau * omegas[j] % R * inv_denoms[j] % R * d_inv % R for j in range(m)]
    a_vals = [0] * num_vars
    b_vals = [0] * num_vars
    c_vals = [0] * num_vars
    for j, (a, b, c, _) in enumerate(structure.constraints):
        lj = lag[j]
        for wire, coeff in a.terms.items():
            a_vals[wire] = (a_vals[wire] + coeff * lj) % R
        for wire, coeff in b.terms.items():
            b_vals[wire] = (b_vals[wire] + coeff * lj) % R
        for wire, coeff in c.terms.items():
            c_vals[wire] = (c_vals[wire] + coeff * lj) % R
    return a_vals, b_vals, c_vals, d, z_tau


def setup(structure, rng=None, engine=None):
    """Run the trusted setup for an R1CS structure.

    Returns (proving_key, verifying_key, toxic_waste).  Callers other than
    tests should discard the toxic waste immediately.  The engine's
    fixed-base tables for the two generators are cached process-wide, so
    repeated setups skip the table precomputation.
    """
    if structure.counting_only:
        raise ProvingError("cannot set up a counting-only system")
    eng = get_engine(engine)
    with _span(
        "groth16.setup",
        constraints=structure.constraint_count,
        variables=structure.num_variables,
    ):
        return _setup(structure, eng, rng)


def _setup(structure, eng, rng):
    rand = rng or (lambda: secrets.randbelow(R - 1) + 1)
    tau, alpha, beta, gamma, delta = (rand() for _ in range(5))
    with _span("setup.qap"):
        a_vals, b_vals, c_vals, d, z_tau = evaluate_qap_at(structure, tau)
    num_vars = structure.num_variables
    num_public = structure.num_public
    gamma_inv = pow(gamma, -1, R)
    delta_inv = pow(delta, -1, R)

    g1_table = eng.fixed_base_table(G1, BN254_G1.infinity, R.bit_length())
    g2_table = eng.fixed_base_table(G2, G2Point.infinity(), R.bit_length())

    with _span("setup.queries", variables=num_vars, domain=d):
        a_query = [g1_table.mul(a_vals[i]) for i in range(num_vars)]
        b_g1_query = [g1_table.mul(b_vals[i]) for i in range(num_vars)]
        b_g2_query = [g2_table.mul(b_vals[i]) for i in range(num_vars)]
        ic = []
        l_query = []
        for i in range(num_vars):
            combined = (beta * a_vals[i] + alpha * b_vals[i] + c_vals[i]) % R
            if i <= num_public:
                ic.append(g1_table.mul(combined * gamma_inv % R))
            else:
                l_query.append(g1_table.mul(combined * delta_inv % R))
        # h query: tau^i * Z(tau) / delta for i in 0..d-2
        h_query = []
        factor = z_tau * delta_inv % R
        power = factor
        for _ in range(d - 1):
            h_query.append(g1_table.mul(power))
            power = power * tau % R
    vk = VerifyingKey(
        alpha_g1=g1_table.mul(alpha),
        beta_g2=g2_table.mul(beta),
        gamma_g2=g2_table.mul(gamma),
        delta_g2=g2_table.mul(delta),
        ic=ic,
    )
    pk = ProvingKey(
        alpha_g1=vk.alpha_g1,
        beta_g1=g1_table.mul(beta),
        beta_g2=vk.beta_g2,
        delta_g1=g1_table.mul(delta),
        delta_g2=vk.delta_g2,
        a_query=a_query,
        b_g1_query=b_g1_query,
        b_g2_query=b_g2_query,
        h_query=h_query,
        l_query=l_query,
        vk=vk,
    )
    return pk, vk, ToxicWaste(tau, alpha, beta, gamma, delta)


def forge_with_toxic_waste(toxic, structure, public_inputs):
    """Produce a verifying proof with NO witness, using the trapdoor.

    Demonstrates knowledge-soundness collapse when toxic waste leaks: the
    exponent relation e(A,B) = e(alpha,beta) e(I,gamma) e(C,delta) is
    solved directly in the scalar field.
    """
    from .keys import Proof

    a_vals, b_vals, c_vals, _, _ = evaluate_qap_at(structure, toxic.tau)
    x = [1] + [v % R for v in public_inputs]
    if len(x) != structure.num_public + 1:
        raise ProvingError("public input length mismatch")
    s_exp = 0
    for i, xi in enumerate(x):
        s_exp = (
            s_exp
            + xi * (toxic.beta * a_vals[i] + toxic.alpha * b_vals[i] + c_vals[i])
        ) % R
    a_scalar = secrets.randbelow(R - 1) + 1
    b_scalar = secrets.randbelow(R - 1) + 1
    c_scalar = (
        (a_scalar * b_scalar - toxic.alpha * toxic.beta - s_exp)
        * pow(toxic.delta, -1, R)
    ) % R
    return Proof(a_scalar * G1, b_scalar * G2, c_scalar * G1)
