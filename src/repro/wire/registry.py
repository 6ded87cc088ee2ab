"""Kind registry: which proof systems may ride in an envelope, and how.

Each proof kind owns a tag byte, an ASCII name, a version table mapping
body-version numbers to parameter profiles, and a body codec.  The Groth16
codec is :mod:`repro.groth16.serialize` — the 128-byte compressed
``A || B || C`` encoding the paper reports in Fig. 7 — registered here so
that **no module outside repro.wire touches proof wire bytes directly**
(enforced by the ``wire-escape`` hygiene lint rule).

Versions name profiles, not byte layouts: version 0 is the toy profile,
version 1 the production profile.  Both use the same 128-byte body today;
a future proof system (or a curve change) registers a new kind/version
instead of silently changing existing bytes — the golden vectors in
:mod:`repro.wire.golden` pin every registered layout.
"""

from ..errors import WireError

#: Groth16 over BN254 — compressed A(32) || B(64) || C(32)
KIND_GROTH16 = 0x01
#: the non-cryptographic simulation backend's 128-byte attestation digest
KIND_SIMULATION = 0x02

#: body version <-> parameter profile (shared by both current kinds)
VERSION_TOY = 0
VERSION_PRODUCTION = 1
_PROFILE_VERSIONS = {"toy": VERSION_TOY, "production": VERSION_PRODUCTION}


class BodyCodec:
    """Encode/decode/validate one proof kind's canonical body bytes."""

    def __init__(self, kind, name, body_size, versions):
        self.kind = kind
        self.name = name
        self.body_size = body_size
        #: version number -> profile name
        self.versions = dict(versions)

    def check_version(self, version):
        if version not in self.versions:
            raise WireError(
                "unregistered %s body version %d" % (self.name, version)
            )

    def validate(self, body):
        """Raise WireError unless ``body`` is canonical for this kind."""
        if len(body) != self.body_size:
            raise WireError(
                "%s body must be %d bytes, got %d"
                % (self.name, self.body_size, len(body))
            )

    def encode(self, obj):
        raise NotImplementedError

    def decode(self, body):
        """The proof value ``body`` encodes; raises WireError unless the
        bytes are canonical for this kind."""
        raise NotImplementedError


class Groth16Codec(BodyCodec):
    """The paper's 128-byte proof as an envelope body."""

    def __init__(self):
        super().__init__(
            KIND_GROTH16, "groth16", 128,
            {VERSION_TOY: "toy", VERSION_PRODUCTION: "production"},
        )

    def encode(self, proof):
        from ..groth16.serialize import proof_to_bytes

        return proof_to_bytes(proof)

    def decode(self, body):
        from ..errors import EncodingError
        from ..groth16.serialize import proof_from_bytes

        self.validate(body)
        # full canonical-form check: every point must decode (flags, range,
        # on-curve, subgroup); compressed decoding re-encodes bijectively,
        # so decode success == byte-canonical
        try:
            return proof_from_bytes(body)
        except WireError:
            raise
        except EncodingError as exc:
            raise WireError("non-canonical groth16 body: %s" % exc) from exc


class SimulationCodec(BodyCodec):
    """Opaque 128-byte attestation digest (size-parity with Groth16)."""

    def __init__(self):
        super().__init__(
            KIND_SIMULATION, "simulation", 128,
            {VERSION_TOY: "toy", VERSION_PRODUCTION: "production"},
        )

    def encode(self, proof):
        return proof.digest if hasattr(proof, "digest") else bytes(proof)

    def decode(self, body):
        self.validate(body)
        return bytes(body)


_CODECS = {}


def register_codec(codec):
    if codec.kind in _CODECS:
        raise WireError("kind tag %#x already registered" % codec.kind)
    _CODECS[codec.kind] = codec
    return codec


def get_codec(kind):
    codec = _CODECS.get(kind)
    if codec is None:
        raise WireError("unknown proof kind tag %#x" % kind)
    return codec


def registered_kinds():
    return dict(_CODECS)


def kind_for_backend(backend_name):
    """Map a proof-system backend name onto its envelope kind tag."""
    table = {"groth16": KIND_GROTH16, "simulation": KIND_SIMULATION}
    if backend_name not in table:
        raise WireError("no envelope kind for backend %r" % backend_name)
    return table[backend_name]


def version_for_profile(profile_name):
    """Map a parameter-profile name onto its envelope body version."""
    if profile_name not in _PROFILE_VERSIONS:
        raise WireError("no envelope version for profile %r" % profile_name)
    return _PROFILE_VERSIONS[profile_name]


register_codec(Groth16Codec())
register_codec(SimulationCodec())
