"""The shared cryptographic compute layer.

Every performance-critical group/field kernel in the repro flows through
this package: the group-generic Pippenger MSM (:mod:`repro.engine.msm`),
cached-twiddle FFTs (:mod:`repro.engine.fft`), fixed-base table caches
(:mod:`repro.engine.tables`), prepared proving keys
(:mod:`repro.engine.prepared`), and the :class:`Engine` front-end that ties
them together and owns the optional worker pool
(:mod:`repro.engine.core`).

Layering: ``engine`` sits above ``field``/``ec``/``pairing`` primitives and
below ``groth16``/``core``.
"""

from .config import EngineConfig
from .core import DEFAULT_ENGINE, Engine, get_engine
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
    "Engine",
    "EngineConfig",
    "DEFAULT_ENGINE",
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
