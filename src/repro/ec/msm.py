"""Straus/Shamir joint scalar multiplication for tiny fixed-width MSMs.

The Groth16 prover's large MSMs run through the group-generic Pippenger
kernel in :mod:`repro.engine.msm` (``get_engine().msm_points``); this
module keeps only ``straus``, which signature verification and the ECDSA
gadget use for their 2-4 point sums.
"""


def straus(points, scalars, window=2):
    """Straus/Shamir joint scalar multiplication for small fixed MSMs.

    Precomputes the 2^(w*len) combination table, then walks the scalars'
    bits jointly.  Intended for 2-4 points (e.g. ECDSA's u1*G + u2*Q).
    """
    if len(points) != len(scalars):
        raise ValueError("straus: points and scalars differ in length")
    if not points:
        raise ValueError("straus: empty input")
    curve = points[0].curve
    scalars = [k % curve.order for k in scalars]
    npts = len(points)
    if npts * window > 12:
        raise ValueError("straus table too large; use the engine MSM instead")
    # table[i] = sum of digit_j(i) * P_j for the joint index i
    table_size = 1 << (window * npts)
    table = [curve.infinity] * table_size
    # small doubles of each point
    pt_multiples = []
    for pt in points:
        row = [curve.infinity]
        for _ in range((1 << window) - 1):
            row.append(row[-1] + pt)
        pt_multiples.append(row)
    for idx in range(1, table_size):
        acc = curve.infinity
        for j in range(npts):
            digit = (idx >> (j * window)) & ((1 << window) - 1)
            acc = acc + pt_multiples[j][digit]
        table[idx] = acc
    max_bits = max((k.bit_length() for k in scalars), default=1) or 1
    num_windows = (max_bits + window - 1) // window
    mask = (1 << window) - 1
    result = curve.infinity
    for w in range(num_windows - 1, -1, -1):
        for _ in range(window):
            result = result + result
        idx = 0
        for j, k in enumerate(scalars):
            idx |= ((k >> (w * window)) & mask) << (j * window)
        if idx:
            result = result + table[idx]
    return result
