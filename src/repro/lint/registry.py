"""Per-gadget audit registry: synthesize each public gadget standalone.

Every entry builds a small *honest* instance of one gadget into a fresh
:class:`ConstraintSystem` over Fr, so the auditor can walk it in isolation
— a finding localized to ``ecc/point_add`` is far easier to act on than
the same wires buried in a full statement synthesis.  Instances are
deliberately tiny (toy curve, short buffers, reduced SHA rounds) so the
whole registry audits in seconds; the checks are structural, so the sizes
do not change what is detected.

All inputs are fixed constants: the audit must be deterministic so the
baseline keys are stable across runs.
"""

import hmac

from ..ec.curves import BN254_R, TOY29
from ..field import PrimeField
from ..gadgets.bigint import LimbInt, naive_mod_reduce
from ..gadgets.bits import (
    alloc_bytes,
    assert_lt,
    bit_decompose,
    field_decompose_strict,
    geq_const,
    is_equal,
    is_zero,
    lt_const,
    map_nonzero_to_zero,
    select,
)
from ..gadgets.ecc import (
    CurveConfig,
    alloc_point,
    assert_points_equal,
    const_point,
    fixed_base_mul,
    msm_straus,
    point_add,
    point_add_classic,
    point_double,
    point_double_classic,
)
from ..gadgets.ecdsa import verify_ecdsa
from ..gadgets.rsa import verify_rsa_pkcs1
from ..gadgets.sha256 import sha256_gadget, sha256_var_gadget
from ..gadgets.strings import (
    condshift,
    indicator,
    mask,
    mask_keep_prefix,
    mask_naive,
    place_at_dynamic,
    scan,
    slice_and_pack,
    slice_gadget,
    slice_naive,
)
from ..gadgets.toyhash import toyhash_gadget, toyhash_padded
from ..r1cs import ConstraintSystem
from ..sig.ecdsa import EcdsaPrivateKey, bits2int

#: the BN254 scalar field every statement synthesizes over
FR = PrimeField(BN254_R)

#: toy curve config matching the TOY profile (32-bit limbs -> 1 limb)
_TOY_CFG = CurveConfig(TOY29, 32)

#: deterministic toy RSA-96 instance for the PKCS#1 audit:
#: p, q are 47/48-bit primes; em = 0x00*4 || digest (the toy zero-prefix
#: encoding, em_len = 12 bytes for the 95-bit modulus)
_RSA_P = 0x800000000005
_RSA_Q = 0x8000000F424D
_RSA_N = _RSA_P * _RSA_Q
_RSA_D = pow(65537, -1, (_RSA_P - 1) * (_RSA_Q - 1))
_RSA_DIGEST = bytes(range(1, 9))


def _byte_lcs(cs, data, label):
    """Allocate range-checked byte wires for ``data``; returns LC list."""
    return alloc_bytes(cs, data, label)


# -- builders -----------------------------------------------------------------


def _bits_bit_decompose(cs):
    bit_decompose(cs, cs.alloc(0xAB, "x"), 8, "bits")


def _bits_field_decompose(cs):
    field_decompose_strict(cs, cs.alloc(12345678901234567890, "x"), "fbits")


def _bits_is_zero(cs):
    is_zero(cs, cs.alloc(7, "x"), "iz")


def _bits_is_zero_at_zero(cs):
    # input 0: the inverse hint is unconstrained by construction (baseline)
    is_zero(cs, cs.alloc(0, "x"), "izz")


def _bits_is_equal(cs):
    is_equal(cs, cs.alloc(5, "a"), cs.alloc(9, "b"), "ieq")


def _bits_select(cs):
    flag = bit_decompose(cs, cs.alloc(1, "flag"), 1, "flagrc")[0]
    select(cs, flag, cs.alloc(11, "a"), cs.alloc(22, "b"), "sel")


def _bits_geq_const(cs):
    geq_const(cs, cs.alloc(200, "x"), 128, 8, "geq")
    lt_const(cs, cs.alloc(3, "y"), 128, 8, "lt")


def _bits_assert_lt(cs):
    # inputs are range-checked as callers do; assert_lt alone pins only a-b
    a, b = cs.alloc(3, "a"), cs.alloc(9, "b")
    bit_decompose(cs, a, 8, "arc")
    bit_decompose(cs, b, 8, "brc")
    assert_lt(cs, a, b, 8, "alt")


def _bits_map_nonzero_to_zero(cs):
    x = cs.alloc(5, "x")
    bit_decompose(cs, x, 8, "xrc")  # pin the input as callers do
    map_nonzero_to_zero(cs, x, "mnz")


def _strings_indicator(cs):
    indicator(cs, cs.alloc(3, "idx"), 8, "ind")


def _strings_mask(cs):
    arr = _byte_lcs(cs, bytes(range(10, 18)), "m")
    mask(cs, arr, cs.alloc(3, "ell"), "mask")


def _strings_mask_keep_prefix(cs):
    arr = _byte_lcs(cs, bytes(range(20, 28)), "m")
    mask_keep_prefix(cs, arr, cs.alloc(5, "len"), "maskp")


def _strings_mask_naive(cs):
    arr = _byte_lcs(cs, bytes(range(30, 38)), "m")
    mask_naive(cs, arr, cs.alloc(4, "ell"), "masknaive")


def _strings_condshift(cs):
    arr = _byte_lcs(cs, bytes(range(40, 48)), "m")
    flag = bit_decompose(cs, cs.alloc(1, "flag"), 1, "flagrc")[0]
    condshift(cs, arr, flag, 2, label="cshift")


def _strings_slice(cs):
    msg = _byte_lcs(cs, bytes(range(50, 66)), "m")
    slice_gadget(cs, msg, cs.alloc(5, "idx"), 4, "slice")


def _strings_slice_naive(cs):
    msg = _byte_lcs(cs, bytes(range(60, 76)), "m")
    slice_naive(cs, msg, cs.alloc(5, "idx"), 4, "slicenaive")


def _strings_slice_and_pack(cs):
    msg = _byte_lcs(cs, bytes(range(70, 86)), "m")
    slice_and_pack(cs, msg, cs.alloc(5, "idx"), 4, label="spack")


def _strings_place_at_dynamic(cs):
    arr = _byte_lcs(cs, bytes(range(80, 84)), "m")
    place_at_dynamic(cs, arr, cs.alloc(3, "off"), 12, "place")


def _strings_scan(csys):
    # header(2) + records [3,...], [4,...], [3,...]: exactly fills the
    # buffer, so no padding position has a spuriously-free boundary hint
    msg_bytes = bytes([0xAA, 0xBB, 3, 1, 2, 4, 9, 8, 7, 3, 5, 6])
    msg = _byte_lcs(csys, msg_bytes, "m")
    scan(csys, msg, csys.alloc(5, "start"), 2, "scan")


def _toyhash(cs):
    # mirror the statement's _hash_buffer: mask + 0x80 separator injection
    data = b"hello"
    capacity = 32
    lcs = _byte_lcs(cs, data + bytes(capacity - len(data)), "m")
    length_lc = cs.alloc(len(data), "len")
    masked = mask_keep_prefix(cs, lcs, length_lc, "th.mask")
    sep = indicator(cs, length_lc, capacity, "th.sep")
    padded_lcs = [masked[i] + sep[i] * 0x80 for i in range(capacity)]
    padded = bytearray(capacity)
    padded[: len(data)] = data
    padded[len(data)] = 0x80
    digest_lcs, digest_vals = toyhash_gadget(
        cs, padded_lcs, list(padded), length_lc, len(data), "th"
    )
    assert hmac.compare_digest(bytes(digest_vals), toyhash_padded(data, capacity))


def _sha256_fixed(cs):
    msg = b"abcdefgh01234567"
    lcs = _byte_lcs(cs, msg, "m")
    sha256_gadget(cs, lcs, list(msg), rounds=8, label="sha")


def _sha256_var(cs):
    msg = b"0123456789"
    capacity = 64
    lcs = _byte_lcs(cs, msg + bytes(capacity - len(msg)), "m")
    sha256_var_gadget(
        cs, lcs, list(msg) + [0] * (capacity - len(msg)),
        cs.alloc(len(msg), "len"), len(msg), rounds=8, label="shav",
    )


def _bigint_modmul(cs):
    a = LimbInt.alloc(cs, 0x123456789ABCDEF0F00D, 32, 3, "a")
    b = LimbInt.alloc(cs, 0xFEDCBA987654321, 32, 3, "b")
    prod = a.mul(cs, b, "ab")
    red = prod.reduce_mod(cs, _RSA_N)
    red.normalize(cs, _RSA_N, "norm")


def _bigint_assert_zero_mod(cs):
    v = 0xDEADBEEFCAFEF00D % _RSA_N
    x = LimbInt.alloc(cs, v, 32, 3, "x")
    c = LimbInt.from_const(cs, v, 32, 3)
    (x - c).assert_zero_mod(cs, _RSA_N, "zmod")


def _bigint_assert_equal_grouped(cs):
    # 64-bit limbs: the product's bounds allow two limbs per carry group, so
    # the equality materializes several carry wires for the probe
    a_val, b_val = 0x0123456789ABCDEF0011223344556677, 0xFEDCBA98765432100F0E0D0C
    a = LimbInt.alloc(cs, a_val, 64, 4, "a")
    b = LimbInt.alloc(cs, b_val, 64, 4, "b")
    want = LimbInt.alloc(cs, a_val * b_val, 64, 8, "want")
    a.mul(cs, b, "ab").assert_equal_int(cs, want, "geq")


def _bigint_naive_mod_reduce(cs):
    a = LimbInt.alloc(cs, 0x1122334455667788, 32, 3, "a")
    b = LimbInt.alloc(cs, 0x99AABBCCDD, 32, 3, "b")
    naive_mod_reduce(cs, a.mul(cs, b, "ab"), _RSA_N, "naivemod")


def _ecc_on_curve(cs):
    alloc_point(cs, _TOY_CFG, TOY29.generator, "g", on_curve=True)


def _ecc_point_add(cs):
    g = TOY29.generator
    p1 = alloc_point(cs, _TOY_CFG, g, "p1")
    p2 = alloc_point(cs, _TOY_CFG, 3 * g, "p2")
    point_add(cs, _TOY_CFG, p1, p2, "padd")


def _ecc_point_double(cs):
    p1 = alloc_point(cs, _TOY_CFG, TOY29.generator, "p1")
    point_double(cs, _TOY_CFG, p1, "pdbl")


def _ecc_point_add_classic(cs):
    g = TOY29.generator
    p1 = alloc_point(cs, _TOY_CFG, g, "p1")
    p2 = alloc_point(cs, _TOY_CFG, 5 * g, "p2")
    point_add_classic(cs, _TOY_CFG, p1, p2, "caddc")


def _ecc_point_double_classic(cs):
    p1 = alloc_point(cs, _TOY_CFG, 7 * TOY29.generator, "p1")
    point_double_classic(cs, _TOY_CFG, p1, "cdblc")


def _ecc_fixed_base_mul(cs):
    k = 0x2D
    bits = bit_decompose(cs, cs.alloc(k, "k"), 8, "kbits")
    res = fixed_base_mul(cs, _TOY_CFG, bits, TOY29.generator, label="fbmul")
    want = const_point(cs, _TOY_CFG, k * TOY29.generator)
    assert_points_equal(cs, _TOY_CFG, res, want, "fbeq")


def _ecc_msm_straus(cs):
    g = TOY29.generator
    k1, k2 = 5, 7
    bits1 = bit_decompose(cs, cs.alloc(k1, "k1"), 4, "k1bits")
    bits2 = bit_decompose(cs, cs.alloc(k2, "k2"), 4, "k2bits")
    pts = [alloc_point(cs, _TOY_CFG, g, "q1"),
           alloc_point(cs, _TOY_CFG, 3 * g, "q2")]
    res = msm_straus(cs, _TOY_CFG, [bits1, bits2], pts, "msm")
    want = const_point(cs, _TOY_CFG, (k1 + k2 * 3) * g)
    assert_points_equal(cs, _TOY_CFG, res, want, "msmeq")


def _ecdsa_instance(cs, technique):
    priv = EcdsaPrivateKey(TOY29, 0xBEEF01)
    msg = bytes(range(1, 9))
    r, s = priv.sign(msg, nonce=0x1234567)
    cfg = _TOY_CFG
    h = bits2int(msg, cfg.n)
    pub = alloc_point(cs, cfg, priv.public_key.point, "pub")
    h_wire = cs.alloc(h, "h")
    bit_decompose(cs, h_wire, cfg.n.bit_length(), "hrc")
    h_li = LimbInt([h_wire], cfg.limb_bits,
                   [(0, (1 << cfg.n.bit_length()) - 1)], [h])
    r_li = LimbInt.alloc(cs, r, cfg.limb_bits, cfg.scalar_limbs, "r")
    s_li = LimbInt.alloc(cs, s, cfg.limb_bits, cfg.scalar_limbs, "s")
    verify_ecdsa(cs, cfg, pub, h_li, r_li, s_li, "e", technique=technique)


def _ecdsa_nope(cs):
    _ecdsa_instance(cs, "nope")


def _ecdsa_baseline(cs):
    _ecdsa_instance(cs, "baseline")


def _rsa_instance(cs, naive):
    em_len = (_RSA_N.bit_length() + 7) // 8
    prefix = bytes(em_len - len(_RSA_DIGEST))
    em_int = int.from_bytes(prefix + _RSA_DIGEST, "big")
    sig = pow(em_int, _RSA_D, _RSA_N)
    s_li = LimbInt.alloc(cs, sig, 32, 3, "s")
    digest_lcs = _byte_lcs(cs, _RSA_DIGEST, "d")
    pairs = list(zip(digest_lcs, _RSA_DIGEST))
    verify_rsa_pkcs1(cs, s_li, _RSA_N, pairs, prefix, 32, "rsa", naive=naive)


def _rsa_verify(cs):
    _rsa_instance(cs, naive=False)


def _rsa_verify_naive(cs):
    _rsa_instance(cs, naive=True)


#: name -> builder(cs); iteration order is the audit order
GADGET_AUDITS = {
    "bits/bit_decompose": _bits_bit_decompose,
    "bits/field_decompose_strict": _bits_field_decompose,
    "bits/is_zero": _bits_is_zero,
    "bits/is_zero_at_zero": _bits_is_zero_at_zero,
    "bits/is_equal": _bits_is_equal,
    "bits/select": _bits_select,
    "bits/geq_lt_const": _bits_geq_const,
    "bits/assert_lt": _bits_assert_lt,
    "bits/map_nonzero_to_zero": _bits_map_nonzero_to_zero,
    "strings/indicator": _strings_indicator,
    "strings/mask": _strings_mask,
    "strings/mask_keep_prefix": _strings_mask_keep_prefix,
    "strings/mask_naive": _strings_mask_naive,
    "strings/condshift": _strings_condshift,
    "strings/slice": _strings_slice,
    "strings/slice_naive": _strings_slice_naive,
    "strings/slice_and_pack": _strings_slice_and_pack,
    "strings/place_at_dynamic": _strings_place_at_dynamic,
    "strings/scan": _strings_scan,
    "hash/toyhash": _toyhash,
    "hash/sha256": _sha256_fixed,
    "hash/sha256_var": _sha256_var,
    "bigint/modmul_reduce": _bigint_modmul,
    "bigint/assert_zero_mod": _bigint_assert_zero_mod,
    "bigint/assert_equal_grouped": _bigint_assert_equal_grouped,
    "bigint/naive_mod_reduce": _bigint_naive_mod_reduce,
    "ecc/on_curve": _ecc_on_curve,
    "ecc/point_add": _ecc_point_add,
    "ecc/point_double": _ecc_point_double,
    "ecc/point_add_classic": _ecc_point_add_classic,
    "ecc/point_double_classic": _ecc_point_double_classic,
    "ecc/fixed_base_mul": _ecc_fixed_base_mul,
    "ecc/msm_straus": _ecc_msm_straus,
    "ecdsa/verify_nope": _ecdsa_nope,
    "ecdsa/verify_baseline": _ecdsa_baseline,
    "rsa/verify": _rsa_verify,
    "rsa/verify_naive": _rsa_verify_naive,
}


def build_gadget_system(name):
    """Synthesize the named gadget instance; returns the ConstraintSystem."""
    try:
        builder = GADGET_AUDITS[name]
    except KeyError:
        raise KeyError(
            "unknown gadget %r (known: %s)" % (name, ", ".join(GADGET_AUDITS))
        ) from None
    cs = ConstraintSystem(FR)
    builder(cs)
    return cs
