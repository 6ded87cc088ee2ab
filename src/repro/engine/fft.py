"""Cached-twiddle radix-2 NTT over the BN254 scalar field.

The reference (uncached) implementation lives in :mod:`repro.groth16.fft`;
these variants compute the same transforms but memoize everything that
depends only on the domain: the domain roots, the twiddle-factor table for
each ``(size, omega)`` pair, the coset shift-power vectors, and ``1/n``.
The prover calls three forward and two inverse transforms per proof on the
same domain, and every proof for one statement shares that domain, so the
tables amortize to zero.
"""

from ..ec.curves import BN254_R
from ..errors import ProvingError
from ..telemetry import metrics as _metrics

R = BN254_R

#: one observation per forward transform (inverse/coset variants funnel
#: through cached_fft, so they are counted too)
_FFT_SIZE = _metrics.histogram("fft.size")

#: Multiplicative generator of Fr* (standard for BN254).
GENERATOR = 5

#: 2-adicity of r - 1.
TWO_ADICITY = 28

_ODD = (R - 1) >> TWO_ADICITY

#: 2^28-th root of unity.
ROOT_OF_UNITY = pow(GENERATOR, _ODD, R)

_domain_roots = {}
_twiddles = {}
_shift_powers = {}
_inv_n = {}


def domain_root(size):
    """Primitive size-th root of unity (size a power of two <= 2^28)."""
    root = _domain_roots.get(size)
    if root is not None:
        return root
    if size & (size - 1):
        raise ProvingError("domain size must be a power of two")
    log = size.bit_length() - 1
    if log > TWO_ADICITY:
        raise ProvingError("domain too large for the field's 2-adicity")
    root = pow(ROOT_OF_UNITY, 1 << (TWO_ADICITY - log), R)
    _domain_roots[size] = root
    return root


def _twiddle_table(n, omega):
    """[omega^0, omega^1, ..., omega^(n/2 - 1)], memoized."""
    key = (n, omega)
    table = _twiddles.get(key)
    if table is None:
        table = [1] * (n // 2)
        w = 1
        for i in range(n // 2):
            table[i] = w
            w = w * omega % R
        _twiddles[key] = table
    return table


def _shift_table(n, shift):
    """[shift^0, ..., shift^(n-1)], memoized."""
    key = (n, shift)
    table = _shift_powers.get(key)
    if table is None:
        table = [1] * n
        s = 1
        for i in range(n):
            table[i] = s
            s = s * shift % R
        _shift_powers[key] = table
    return table


def cached_fft(values, omega):
    """Iterative NTT using the memoized twiddle table for (n, omega)."""
    n = len(values)
    if n & (n - 1):
        raise ProvingError("fft length must be a power of two")
    _FFT_SIZE.observe(n)
    a = list(values)
    if n == 1:
        return a
    tw = _twiddle_table(n, omega)
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
        half = length // 2
        stride = n // length
        for start in range(0, n, length):
            for k in range(half):
                i = start + k
                u = a[i]
                v = a[i + half] * tw[k * stride] % R
                a[i] = (u + v) % R
                a[i + half] = (u - v) % R
        length <<= 1
    return a


def cached_ifft(values, omega):
    """Inverse NTT (cached twiddles for the inverse root, cached 1/n)."""
    n = len(values)
    inv_n = _inv_n.get(n)
    if inv_n is None:
        inv_n = pow(n, -1, R)
        _inv_n[n] = inv_n
    out = cached_fft(values, pow(omega, -1, R))
    return [x * inv_n % R for x in out]


def cached_coset_fft(coeffs, omega, shift=GENERATOR):
    """Evaluate the polynomial on the coset shift * <omega>."""
    table = _shift_table(len(coeffs), shift)
    shifted = [c * table[i] % R for i, c in enumerate(coeffs)]
    return cached_fft(shifted, omega)


def cached_coset_ifft(values, omega, shift=GENERATOR):
    """Interpolate from coset evaluations back to coefficients."""
    coeffs = cached_ifft(values, omega)
    table = _shift_table(len(coeffs), pow(shift, -1, R))
    return [c * table[i] % R for i, c in enumerate(coeffs)]


def coset_extend(evals, omega, shift=GENERATOR):
    """Domain evaluations -> coset evaluations (IFFT then coset FFT)."""
    return cached_coset_fft(cached_ifft(evals, omega), omega, shift)
