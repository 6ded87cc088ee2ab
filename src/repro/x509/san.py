"""Base-37 label transport for NOPE payloads in SANs (paper Appendix D).

A payload is a string of hostname-safe characters (alphabet a-z, 0-9,
'-') whose length is a whole number of 50-character labels.  The labels
are attached under an ``n0pe.`` prefix::

    n0pe.<label>...<label>.<domain>

For long domains the labels are spread across several SANs whose
prefixes count up (``n0pe.``, ``n1pe.``, ...) to fix the order.

This module knows only the transport: the alphabet and base-37 integer
codec, the position-weighted checksum, the label geometry and the strict
collection of a domain's labels.  What the characters mean (version,
metadata, proof body, where the checksum sits) is :mod:`repro.wire`'s
business.

Collection is strict: every label between the ``nXpe`` prefix and the
domain must be *exactly* 50 base-37 characters.  A NOPE SAN belonging to
a subdomain (``n0pe.<...>.sub.example.com``) therefore can never be
absorbed into a collection for the parent (``example.com``) — its
trailing ``sub`` label has the wrong length — which also makes
multi-domain certificates (one SAN set per bound domain) unambiguous.
"""

from ..errors import EncodingError

ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789-"
BASE = len(ALPHABET)  # 37
_CHAR_INDEX = {c: i for i, c in enumerate(ALPHABET)}

LABEL_LEN = 50

#: maximum total SAN length (RFC 1035 name limit, presented form)
MAX_SAN_LENGTH = 253


def chars_for_bytes(n):
    """Smallest k such that 37^k can hold any n-byte value."""
    k, cap, limit = 0, 1, 1 << (8 * n)
    while cap < limit:
        cap *= BASE
        k += 1
    return k


def is_base37(text):
    return all(c in _CHAR_INDEX for c in text)


def encode_base37(data, num_chars):
    """``data`` as a big-endian number in exactly ``num_chars`` digits."""
    value = int.from_bytes(data, "big")
    digits = []
    for _ in range(num_chars):
        value, rem = divmod(value, BASE)
        digits.append(ALPHABET[rem])
    if value:
        raise EncodingError("payload does not fit the base-37 budget")
    return "".join(reversed(digits))


def decode_base37(chars, num_bytes):
    """Inverse of :func:`encode_base37`; refuses values over ``num_bytes``."""
    value = 0
    for c in chars:
        value = value * BASE + _CHAR_INDEX[c]
    if value.bit_length() > 8 * num_bytes:
        raise EncodingError("decoded payload out of range")
    return value.to_bytes(num_bytes, "big")


def checksum(chars):
    """Position-weighted checksum character: weight (i mod 36) + 1 is never
    zero mod 37, so any substitution, and any transposition of unequal
    characters fewer than 36 positions apart, changes the sum."""
    total = 0
    for i, c in enumerate(chars):
        total += ((i % 36) + 1) * _CHAR_INDEX[c]
    return ALPHABET[total % BASE]


def _prefix(index):
    return "n%dpe" % index


def encode_sans(chars, domain):
    """Cut payload characters into labels spread over as few SANs for
    ``domain`` as the name-length limit allows."""
    domain = domain.rstrip(".")
    if len(chars) % LABEL_LEN or not is_base37(chars):
        raise EncodingError(
            "NOPE SAN payload must be whole %d-char base-37 labels" % LABEL_LEN
        )
    labels = [chars[i:i + LABEL_LEN] for i in range(0, len(chars), LABEL_LEN)]
    # "n0pe." + k * "<label>." + domain must fit one name
    per_san = (MAX_SAN_LENGTH - len(_prefix(0)) - 1 - len(domain)) // (
        LABEL_LEN + 1
    )
    if per_san < 1:
        raise EncodingError("domain too long for NOPE SAN encoding")
    sans = []
    for i in range(0, len(labels), per_san):
        sans.append(".".join([_prefix(len(sans))] + labels[i:i + per_san]
                             + [domain]))
    return sans


def is_nope_san(name):
    label = name.split(".", 1)[0]
    return (
        len(label) == 4
        and label[0] == "n"
        and label[2:] == "pe"
        and label[1] in "0123456789"
    )


def collect_chars(san_names, domain):
    """Strictly gather the payload characters addressed to ``domain``.

    A SAN contributes only if it is exactly
    ``n<k>pe.<50-char base-37 label>...<domain>``; NOPE SANs bound to a
    *subdomain* are skipped rather than absorbed.  Fragments must be
    numbered 0..k-1 with none repeated.  Returns ``(chars, names)``: the
    concatenated labels and the SAN names they came from.
    """
    domain = domain.rstrip(".")
    suffix = "." + domain
    pieces = {}
    for name in san_names:
        if not is_nope_san(name) or not name.endswith(suffix):
            continue
        parts = name[: -len(suffix)].split(".")
        labels = parts[1:]
        if not labels or any(
            len(label) != LABEL_LEN or not is_base37(label) for label in labels
        ):
            continue  # a NOPE SAN for some other (sub)domain
        order = int(parts[0][1])
        if order in pieces:
            raise EncodingError("duplicate NOPE SAN fragment %d" % order)
        pieces[order] = (name, labels)
    if not pieces:
        raise EncodingError("no NOPE SAN entries for %s" % domain)
    chars, names = [], []
    for order in range(len(pieces)):
        if order not in pieces:
            raise EncodingError("missing NOPE SAN fragment %d" % order)
        names.append(pieces[order][0])
        chars.extend(pieces[order][1])
    return "".join(chars), names
