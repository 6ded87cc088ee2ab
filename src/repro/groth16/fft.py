"""Radix-2 FFT (NTT) over the BN254 scalar field — uncached reference.

The Groth16 prover divides A(X)*B(X) - C(X) by the vanishing polynomial of
the evaluation domain; with a power-of-two domain (BN254's Fr has 2-adicity
28) this is three FFTs and a coset trick.

The hot path uses the cached-twiddle variants in :mod:`repro.engine.fft`
(same transforms, memoized domain tables); the implementations here are the
uncached reference the engine's property tests compare against.  The
coset shift ``GENERATOR`` is the engine's, so the two can never diverge.
"""

from ..ec.curves import BN254_R
from ..engine.fft import GENERATOR
from ..errors import ProvingError

R = BN254_R


def fft(values, omega):
    """In-place-style iterative NTT; returns evaluations at omega^i."""
    n = len(values)
    if n & (n - 1):
        raise ProvingError("fft length must be a power of two")
    a = list(values)
    # bit-reversal permutation
    j = 0
    for i in range(1, n):
        bit = n >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        if i < j:
            a[i], a[j] = a[j], a[i]
    length = 2
    while length <= n:
        w_len = pow(omega, n // length, R)
        for start in range(0, n, length):
            w = 1
            half = length // 2
            for k in range(start, start + half):
                u = a[k]
                v = a[k + half] * w % R
                a[k] = (u + v) % R
                a[k + half] = (u - v) % R
                w = w * w_len % R
        length <<= 1
    return a


def ifft(values, omega):
    """Inverse NTT."""
    n = len(values)
    inv_n = pow(n, -1, R)
    out = fft(values, pow(omega, -1, R))
    return [x * inv_n % R for x in out]


def coset_fft(coeffs, omega, shift=GENERATOR):
    """Evaluate the polynomial on the coset shift * <omega>."""
    shifted = []
    power = 1
    for c in coeffs:
        shifted.append(c * power % R)
        power = power * shift % R
    return fft(shifted, omega)


def coset_ifft(values, omega, shift=GENERATOR):
    """Interpolate from coset evaluations back to coefficients."""
    coeffs = ifft(values, omega)
    inv_shift = pow(shift, -1, R)
    out = []
    power = 1
    for c in coeffs:
        out.append(c * power % R)
        power = power * inv_shift % R
    return out
