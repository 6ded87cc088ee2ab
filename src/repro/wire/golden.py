"""Checked-in golden vectors pinning the wire format character-for-character.

``golden_vectors.json`` is generated once per format revision and checked
in; CI recomputes every vector from the live code and fails on any drift.
Changing the wire format therefore requires bumping
:data:`GOLDEN_FORMAT_VERSION` *and* regenerating the file
(``python -m repro.wire regen``) in the same change — a silent encoding
change cannot land.

Vector bodies are derived deterministically (fixed scalars against the
BN254 generators for Groth16 bodies, a SHA-256 counter stream for opaque
bodies), so regeneration is reproducible on any machine.
"""

import json
import os

from ..ec.curves import BN254_G1, BN254_R
from ..groth16.keys import Proof
from ..hashes.sha256 import sha256
from ..pairing.bn254 import G2_GENERATOR
from .envelope import encode_envelope, seal
from .registry import (
    KIND_GROTH16,
    KIND_SIMULATION,
    VERSION_PRODUCTION,
    VERSION_TOY,
    get_codec,
)
from .transport import envelope_to_sans

#: bump when the wire format (SAN layout, header chars, checksum, or
#: nullifier derivation) intentionally changes, and regenerate the file
GOLDEN_FORMAT_VERSION = 2

_DEFAULT_PATH = os.path.join(os.path.dirname(__file__), "golden_vectors.json")


def _det_bytes(n, tag):
    """n deterministic bytes from a SHA-256 counter stream."""
    out = b""
    counter = 0
    while len(out) < n:
        out += sha256(b"NOPE/WIRE/GOLDEN|" + tag + counter.to_bytes(4, "big"))
        counter += 1
    return out[:n]


def _det_scalar(tag):
    return int.from_bytes(_det_bytes(32, tag), "big") % BN254_R or 1


def _det_groth16_body(tag):
    proof = Proof(
        _det_scalar(tag + b"/a") * BN254_G1.generator,
        _det_scalar(tag + b"/b") * G2_GENERATOR,
        _det_scalar(tag + b"/c") * BN254_G1.generator,
    )
    return get_codec(KIND_GROTH16).encode(proof)


def generate_vectors():
    """Recompute every golden vector from the live code."""
    cases = [
        ("groth16-toy", KIND_GROTH16, VERSION_TOY, "example.com", False,
         _det_groth16_body(b"g16-toy")),
        ("groth16-production-managed", KIND_GROTH16, VERSION_PRODUCTION,
         "nope-tools.org", True, _det_groth16_body(b"g16-prod")),
        ("simulation-toy", KIND_SIMULATION, VERSION_TOY, "victim.example",
         False, _det_bytes(128, b"sim-toy")),
        # long enough that the four labels split over two SANs
        ("simulation-production-long-domain", KIND_SIMULATION,
         VERSION_PRODUCTION, "a-rather-long-subdomain-name-here.victim.example",
         False, _det_bytes(128, b"sim-long")),
    ]
    vectors = []
    for name, kind, version, domain, managed, body in cases:
        env = seal(kind, version, body, domain, managed=managed)
        vectors.append({
            "name": name,
            "kind": kind,
            "version": version,
            "flags": env.flags,
            "domain": domain,
            "body": body.hex(),
            "envelope": encode_envelope(env),
            "nullifier": env.nullifier.hex(),
            "sans": envelope_to_sans(env),
        })
    return vectors


def _render():
    return {
        "format_version": GOLDEN_FORMAT_VERSION,
        "vectors": generate_vectors(),
    }


def write_golden(path=_DEFAULT_PATH):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_render(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def check_golden(path=_DEFAULT_PATH):
    """Compare the live encoding against the checked-in file.

    Returns a list of problem strings (empty = the format is unchanged).
    """
    problems = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            stored = json.load(fh)
    except (OSError, ValueError) as exc:
        return ["cannot load golden vectors: %s" % exc]
    if stored.get("format_version") != GOLDEN_FORMAT_VERSION:
        problems.append(
            "format_version mismatch: file says %r, code says %d — "
            "regenerate the vectors alongside the version bump"
            % (stored.get("format_version"), GOLDEN_FORMAT_VERSION)
        )
    live = {v["name"]: v for v in generate_vectors()}
    seen = set()
    for vec in stored.get("vectors", ()):
        name = vec.get("name", "<unnamed>")
        seen.add(name)
        if name not in live:
            problems.append("vector %r in file but no longer generated" % name)
            continue
        for key, value in live[name].items():
            if vec.get(key) != value:
                problems.append(
                    "vector %r field %r drifted (wire format changed "
                    "without a GOLDEN_FORMAT_VERSION bump)" % (name, key)
                )
    for name in live:
        if name not in seen:
            problems.append("new vector %r missing from the checked-in file" % name)
    return problems


def roundtrip_golden(path=_DEFAULT_PATH):
    """Decode every checked-in vector; returns problem strings."""
    from ..errors import EncodingError
    from .envelope import decode_envelope
    from .transport import extract_proof

    problems = []
    with open(path, "r", encoding="utf-8") as fh:
        stored = json.load(fh)
    for vec in stored.get("vectors", ()):
        name = vec["name"]
        try:
            env = decode_envelope(vec["envelope"], vec["domain"])
            if env.nullifier.hex() != vec["nullifier"]:
                problems.append("vector %r nullifier mismatch" % name)
            payload = extract_proof(vec["sans"], vec["domain"])
            if payload.body.hex() != vec["body"] or payload.envelope != env:
                problems.append("vector %r SAN roundtrip mismatch" % name)
        except EncodingError as exc:
            problems.append("vector %r failed to decode: %s" % (name, exc))
    return problems
