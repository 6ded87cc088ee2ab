"""Deliberately wrong: raw proof bytes handled outside the wire layer.

Proof bytes must be produced/consumed through repro.wire's sealed
envelopes; hand-assembling them here bypasses sealing and the
domain-bound nullifier.
"""


def smuggle(proof, payload):
    body = proof_to_bytes(proof)
    return body + payload.nullifier
