"""The shared cryptographic compute layer.

Every performance-critical group/field kernel in the repro flows through
this package: the group-generic Pippenger MSM (:mod:`repro.engine.msm`),
cached-twiddle FFTs (:mod:`repro.engine.fft`), fixed-base table caches
(:mod:`repro.engine.tables`), prepared proving keys
(:mod:`repro.engine.prepared`), and the serial engine front-end that
ties them together (:mod:`repro.engine.core`, reached through
:func:`get_engine`).

Layering: ``engine`` sits above ``field``/``ec``/``pairing`` primitives and
below ``groth16``/``core``.
"""

from .core import get_engine
from .fft import (
    GENERATOR,
    ROOT_OF_UNITY,
    TWO_ADICITY,
    cached_coset_fft,
    cached_coset_ifft,
    cached_fft,
    cached_ifft,
    domain_root,
)
from .group import Group, JacobianGroup, OperatorGroup
from .msm import msm_generic
from .prepared import PreparedProvingKey, compile_system
from .tables import FixedBaseTable

__all__ = [
    "get_engine",
    "Group",
    "JacobianGroup",
    "OperatorGroup",
    "msm_generic",
    "FixedBaseTable",
    "PreparedProvingKey",
    "compile_system",
    "GENERATOR",
    "ROOT_OF_UNITY",
    "TWO_ADICITY",
    "domain_root",
    "cached_fft",
    "cached_ifft",
    "cached_coset_fft",
    "cached_coset_ifft",
]
