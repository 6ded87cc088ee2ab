"""Hash functions: reference SHA-256 and the scaled-profile sponge hash."""

from .sha256 import (
    compress,
    message_schedule,
    pad_message,
    reference_sha256,
    sha256,
)
from .toyhash import DIGEST_SIZE, RATE, ROUNDS, permute, toyhash, toyhash_int

__all__ = [
    "sha256",
    "reference_sha256",
    "compress",
    "message_schedule",
    "pad_message",
    "toyhash",
    "toyhash_int",
    "permute",
    "ROUNDS",
    "RATE",
    "DIGEST_SIZE",
]
