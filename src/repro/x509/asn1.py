"""Minimal ASN.1 DER encoder/decoder.

Covers the subset X.509 needs: INTEGER, BIT STRING, OCTET STRING, NULL,
OID, UTF8String, PrintableString, IA5String, UTCTime, GeneralizedTime,
BOOLEAN, SEQUENCE, SET, and context-specific tags.  The decoder is strict
about lengths (DER, not BER) and exposes both a streaming reader and a
recursive tree walk used by the Figure 7 size-decomposition bench (our
stand-in for ``openssl asn1parse``).
"""

import calendar
import time

from ..errors import EncodingError

TAG_BOOLEAN = 0x01
TAG_INTEGER = 0x02
TAG_BIT_STRING = 0x03
TAG_OCTET_STRING = 0x04
TAG_NULL = 0x05
TAG_OID = 0x06
TAG_UTF8 = 0x0C
TAG_PRINTABLE = 0x13
TAG_IA5 = 0x16
TAG_UTCTIME = 0x17
TAG_GENERALIZEDTIME = 0x18
TAG_SEQUENCE = 0x30
TAG_SET = 0x31


def encode_length(n):
    if n < 0x80:
        return bytes([n])
    body = n.to_bytes((n.bit_length() + 7) // 8, "big")
    return bytes([0x80 | len(body)]) + body


def encode_tlv(tag, content):
    return bytes([tag]) + encode_length(len(content)) + content


def encode_integer(value):
    if value == 0:
        return encode_tlv(TAG_INTEGER, b"\x00")
    if value < 0:
        raise EncodingError("negative integers unsupported")
    body = value.to_bytes((value.bit_length() + 7) // 8, "big")
    if body[0] & 0x80:
        body = b"\x00" + body
    return encode_tlv(TAG_INTEGER, body)


def encode_boolean(value):
    return encode_tlv(TAG_BOOLEAN, b"\xff" if value else b"\x00")


def encode_bit_string(data, unused_bits=0):
    return encode_tlv(TAG_BIT_STRING, bytes([unused_bits]) + data)


def encode_octet_string(data):
    return encode_tlv(TAG_OCTET_STRING, data)


def encode_null():
    return encode_tlv(TAG_NULL, b"")


def encode_oid(dotted):
    parts = [int(p) for p in dotted.split(".")]
    if len(parts) < 2:
        raise EncodingError("OID needs at least two arcs")
    body = bytearray([parts[0] * 40 + parts[1]])
    for arc in parts[2:]:
        chunk = [arc & 0x7F]
        arc >>= 7
        while arc:
            chunk.append(0x80 | (arc & 0x7F))
            arc >>= 7
        body.extend(reversed(chunk))
    return encode_tlv(TAG_OID, bytes(body))


def encode_utf8(text):
    return encode_tlv(TAG_UTF8, text.encode("utf-8"))


def encode_printable(text):
    return encode_tlv(TAG_PRINTABLE, text.encode("ascii"))


def encode_ia5(text):
    return encode_tlv(TAG_IA5, text.encode("ascii"))


def encode_utctime(epoch):
    t = time.gmtime(epoch)
    return encode_tlv(
        TAG_UTCTIME, time.strftime("%y%m%d%H%M%SZ", t).encode("ascii")
    )


def encode_sequence(*items):
    return encode_tlv(TAG_SEQUENCE, b"".join(items))


def encode_set(*items):
    return encode_tlv(TAG_SET, b"".join(items))


def encode_context(number, content, constructed=True):
    tag = 0x80 | number | (0x20 if constructed else 0)
    return encode_tlv(tag, content)


# -- decoding -----------------------------------------------------------------


def read_tlv(data, offset=0):
    """Parse one TLV; returns (tag, content, next_offset, header_len)."""
    if offset + 2 > len(data):
        raise EncodingError("truncated TLV header")
    tag = data[offset]
    length = data[offset + 1]
    pos = offset + 2
    if length & 0x80:
        n = length & 0x7F
        if n == 0 or n > 4:
            raise EncodingError("unsupported DER length")
        if pos + n > len(data):
            raise EncodingError("truncated length")
        length = int.from_bytes(data[pos : pos + n], "big")
        pos += n
    if pos + length > len(data):
        raise EncodingError("truncated content")
    return tag, data[pos : pos + length], pos + length, pos - offset


class DerReader:
    """Sequential reader over the contents of a constructed type."""

    def __init__(self, data):
        self.data = data
        self.offset = 0

    @property
    def exhausted(self):
        return self.offset >= len(self.data)

    def peek_tag(self):
        if self.exhausted:
            raise EncodingError("no more elements")
        return self.data[self.offset]

    def read(self, expected_tag=None):
        tag, content, nxt, _ = read_tlv(self.data, self.offset)
        if expected_tag is not None and tag != expected_tag:
            raise EncodingError(
                "expected tag 0x%02x, found 0x%02x" % (expected_tag, tag)
            )
        self.offset = nxt
        return tag, content

    def read_sequence(self):
        _, content = self.read(TAG_SEQUENCE)
        return DerReader(content)

    def read_integer(self):
        _, content = self.read(TAG_INTEGER)
        return int.from_bytes(content, "big")

    def read_oid(self):
        _, content = self.read(TAG_OID)
        return decode_oid_body(content)

    def read_octet_string(self):
        _, content = self.read(TAG_OCTET_STRING)
        return content

    def read_bit_string(self):
        _, content = self.read(TAG_BIT_STRING)
        if not content:
            raise EncodingError("empty BIT STRING")
        if content[0] != 0:
            raise EncodingError("unaligned BIT STRING unsupported")
        return content[1:]


def decode_oid_body(body):
    if not body:
        raise EncodingError("empty OID")
    parts = [body[0] // 40, body[0] % 40]
    arc = 0
    for byte in body[1:]:
        arc = (arc << 7) | (byte & 0x7F)
        if not byte & 0x80:
            parts.append(arc)
            arc = 0
    return ".".join(str(p) for p in parts)


def decode_text(content, encoding="ascii"):
    """Decode a string body; malformed bytes raise EncodingError."""
    try:
        return content.decode(encoding)
    except UnicodeDecodeError as exc:
        raise EncodingError("invalid %s string: %s" % (encoding, exc)) from None


def decode_utctime(content):
    text = decode_text(content)
    try:
        t = time.strptime(text, "%y%m%d%H%M%SZ")
    except ValueError:
        raise EncodingError("malformed UTCTime %r" % text) from None
    return calendar.timegm(t)


class AsnNode:
    """A parsed-tree node for size attribution (asn1parse equivalent)."""

    __slots__ = ("tag", "offset", "header_len", "length", "children")

    def __init__(self, tag, offset, header_len, length, children):
        self.tag = tag
        self.offset = offset
        self.header_len = header_len
        self.length = length
        self.children = children

    @property
    def total_len(self):
        return self.header_len + self.length


def parse_tree(data, offset=0, end=None):
    """Recursively parse constructed types into AsnNode trees."""
    end = len(data) if end is None else end
    nodes = []
    pos = offset
    while pos < end:
        tag, content, nxt, header = read_tlv(data, pos)
        children = []
        if tag & 0x20:  # constructed
            try:
                children = parse_tree(data, pos + header, nxt)
            except EncodingError:
                children = []
        nodes.append(AsnNode(tag, pos, header, len(content), children))
        pos = nxt
    return nodes
