"""Group-generic Pippenger multi-scalar multiplication.

One implementation serves every MSM in the repro: G1 (Jacobian tuples with
batched-affine bucket accumulation), G2 (operator arithmetic on the twist),
and the verifier's small IC combination.  The kernel composes three
constant-factor optimizations over the classic unsigned bucket loop:

* **Signed-digit (wNAF-style) windows** — digits are recoded into
  ``[-2^(c-1), 2^(c-1)]`` with carry propagation, so each window needs
  ``2^(c-1)`` buckets instead of ``2^c - 1`` (negative digits accumulate
  the negated base, which is free in affine coordinates).
* **Batched-affine bucket accumulation** — bucket contents collapse via
  rounds of pairwise *affine* additions sharing one Montgomery batch
  inversion per round (``PrimeField.batch_inverse``), instead of one
  Jacobian mixed add per point (see ``JacobianGroup.reduce_buckets``).
* **GLV decomposition** — on endomorphism-capable curves (BN254 G1,
  secp256k1) every scalar splits as ``k = k1 + k2*lam`` with half-width
  halves over an endomorphism-mapped base set (``group.glv_split``),
  halving the window count.

The pre-refactor unsigned kernel is retained as :func:`msm_reference`: the
parity suite pins the optimized kernels to its outputs (and to checked-in
goldens generated from it), and the MSM kernel benchmark uses it as the
"before" side of its before/after record.
"""

import math

from ..telemetry import metrics as _metrics

#: one call and one points observation per kernel entry, so a direct
#: caller (the MSM kernel bench) is counted like an engine call
_MSM_CALLS = _metrics.counter("msm.calls")
_MSM_POINTS = _metrics.histogram("msm.points")
_WINDOW_TASKS = _metrics.counter("msm.window_tasks")
#: window width chosen per MSM call — the tuning histogram for _window_bits
_WINDOW_BITS = _metrics.histogram("msm.window_bits", bounds=tuple(range(1, 17)))
#: total bucket accumulation adds (nonzero signed digits) per process
_BUCKET_ADDS = _metrics.counter("msm.bucket_adds")


def _window_bits(n):
    """Window size minimizing per-bit work for an n-point signed MSM.

    Bucket accumulation costs ~``n`` adds per window and aggregation costs
    ~``2^c`` adds per window, over ``B/c`` windows: pick the ``c``
    minimizing ``(n + 2^c) / c``.  Calibrated against the recorded
    ``msm.points`` / ``msm.window_bits`` histograms (BENCH_*.json);
    the integer comparison keeps the choice exact and platform-free.
    """
    if n < 4:
        return 1
    best, best_num, best_den = 1, n + 2, 1
    for c in range(2, 17):
        num = n + (1 << c)
        # num / c < best_num / best_den  <=>  num * best_den < best_num * c
        if num * best_den < best_num * c:
            best, best_num, best_den = c, num, c
    return best


def _window_bits_unsigned(n):
    """Pre-refactor heuristic, kept for the reference kernel."""
    if n < 4:
        return 1
    return max(2, min(16, int(math.log2(n))))


# -- signed-digit recoding ----------------------------------------------------


def _signed_digits(k, c):
    """Signed window digits of ``k``, least significant first.

    Digits lie in ``[-(2^(c-1) - 1), 2^(c-1)]``; values above ``2^(c-1)``
    are replaced by ``d - 2^c`` with a carry folded into the remaining
    scalar, so ``sum(d_w * 2^(c*w)) == k`` exactly.
    """
    half = 1 << (c - 1)
    full = 1 << c
    mask = full - 1
    digits = []
    while k:
        d = k & mask
        k >>= c
        if d > half:
            d -= full
            k += 1
        digits.append(d)
    return digits


def _digit_columns(scalars, c):
    """Per-window digit columns plus the total nonzero-digit count.

    ``columns[w][i]`` is scalar ``i``'s signed digit for window ``w``;
    ragged scalars are zero-padded so every column spans all points.
    """
    per_scalar = [_signed_digits(k, c) for k in scalars]
    num_windows = max(len(d) for d in per_scalar)
    n = len(per_scalar)
    columns = [[0] * n for _ in range(num_windows)]
    adds = 0
    for i, digits in enumerate(per_scalar):
        for w, d in enumerate(digits):
            if d:
                columns[w][i] = d
                adds += 1
    return columns, adds


# -- window kernels -----------------------------------------------------------


def _window_sum_signed(group, bases, digits, half):
    """Bucket-accumulate one signed window: sum(digit_i * P_i)."""
    lists = [[] for _ in range(half)]
    for base, d in zip(bases, digits):
        if d > 0:
            lists[d - 1].append(base)
        elif d < 0:
            lists[-d - 1].append(group.neg_base(base))
    buckets = group.reduce_buckets(lists)
    acc = group.identity()
    total = group.identity()
    for b in range(half - 1, -1, -1):
        bucket = buckets[b]
        if bucket is not None:
            acc = group.add_mixed(acc, bucket)
        if not group.is_identity(acc):
            total = group.add(total, acc)
    return total


def msm_generic(group, bases, scalars):
    """sum(k_i * P_i) over an arbitrary :class:`repro.engine.group.Group`.

    ``bases`` are in the group's base representation (affine tuples for
    Jacobian groups, elements otherwise) and must not include the identity;
    zero scalars are filtered here.  Returns a group element.
    """
    if len(bases) != len(scalars):
        raise ValueError("msm: points and scalars differ in length")
    _MSM_CALLS.inc()
    _MSM_POINTS.observe(len(bases))
    order = group.order
    pairs = []
    for base, k in zip(bases, scalars):
        if order is not None:
            k %= order
        if k:
            pairs.append((base, k))
    if not pairs:
        return group.identity()
    if len(pairs) == 1:
        return group.scalar_mul(pairs[0][0], pairs[0][1])
    bases = [b for b, _ in pairs]
    scalars = [k for _, k in pairs]
    # GLV: two half-width halves over an endomorphism-mapped base set
    if max(k.bit_length() for k in scalars) > 32:
        split = group.glv_split(bases, scalars)
        if split is not None:
            bases, scalars = split
            if not bases:
                return group.identity()
    c = _window_bits(len(bases))
    _WINDOW_BITS.observe(c)
    half = 1 << (c - 1)
    columns, bucket_adds = _digit_columns(scalars, c)
    num_windows = len(columns)
    _WINDOW_TASKS.inc(num_windows)
    _BUCKET_ADDS.inc(bucket_adds)
    sums = [_window_sum_signed(group, bases, digits, half) for digits in columns]
    result = group.identity()
    for w in range(num_windows - 1, -1, -1):
        if not group.is_identity(result):
            for _ in range(c):
                result = group.double(result)
        result = group.add(result, sums[w])
    return result


# -- pre-refactor reference kernel -------------------------------------------


def _window_sum_unsigned(group, bases, scalars, shift, mask):
    """Unsigned bucket accumulation (the pre-refactor kernel's inner loop)."""
    buckets = [group.identity()] * mask
    for base, k in zip(bases, scalars):
        digit = (k >> shift) & mask
        if digit:
            buckets[digit - 1] = group.add_mixed(buckets[digit - 1], base)
    acc = group.identity()
    total = group.identity()
    for b in range(mask - 1, -1, -1):
        if not group.is_identity(buckets[b]):
            acc = group.add(acc, buckets[b])
        if not group.is_identity(acc):
            total = group.add(total, acc)
    return total


def msm_reference(group, bases, scalars):
    """The pre-refactor unsigned Pippenger kernel, byte-for-byte.

    Serial only.  Kept as the parity baseline for the optimized kernel
    (``tests/test_msm_parity.py``) and as the "before" side of the MSM
    kernel benchmark's before/after record.
    """
    if len(bases) != len(scalars):
        raise ValueError("msm: points and scalars differ in length")
    order = group.order
    pairs = []
    for base, k in zip(bases, scalars):
        if order is not None:
            k %= order
        if k:
            pairs.append((base, k))
    if not pairs:
        return group.identity()
    if len(pairs) == 1:
        return group.scalar_mul(pairs[0][0], pairs[0][1])
    bases = [b for b, _ in pairs]
    scalars = [k for _, k in pairs]
    c = _window_bits_unsigned(len(pairs))
    max_bits = max(k.bit_length() for k in scalars)
    num_windows = (max_bits + c - 1) // c or 1
    mask = (1 << c) - 1
    sums = [
        _window_sum_unsigned(group, bases, scalars, w * c, mask)
        for w in range(num_windows)
    ]
    result = group.identity()
    for w in range(num_windows - 1, -1, -1):
        if not group.is_identity(result):
            for _ in range(c):
                result = group.double(result)
        result = group.add(result, sums[w])
    return result
