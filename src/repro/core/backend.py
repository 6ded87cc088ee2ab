"""Proof-system backends behind one interface.

``Groth16Backend`` is the real thing (what the paper ships); 128-byte
proofs, pairing verification.  ``SimulationBackend`` swaps in the
non-cryptographic attestation from :mod:`repro.groth16.simulation` so that
protocol-level tests and the Figure 3 analysis (which issue dozens of
certificates) stay fast; it still refuses to "prove" unsatisfied
statements.  Both serialize to exactly 128 bytes so certificate sizes are
identical.

``prove`` returns body bytes; ``verify`` and ``verify_batch`` take the
codec-decoded value.  Extracting an envelope already decodes its body
(``WirePayload.proof``), so a connection decodes each proof once however
many timestamp buckets it tries; ``decode`` covers raw bodies.
"""

from ..engine import get_engine
from ..errors import ProofError, WireError
from ..groth16 import (
    BatchVerificationError,
    prepare,
    prove,
    setup,
    sim_prove,
    sim_setup,
    sim_verify,
    verify,
    verify_batch,
)
from ..wire import KIND_GROTH16, KIND_SIMULATION, get_codec


class StatementKeys:
    """Keys bound to one statement shape (and, for NOPE, one root ZSK)."""

    def __init__(self, shape_id, proving_key, verifying_key):
        self.shape_id = shape_id
        self.proving_key = proving_key
        self.verifying_key = verifying_key


class Groth16Backend:
    name = "groth16"
    #: envelope kind tag this backend's proof bodies are sealed under
    kind = KIND_GROTH16

    def __init__(self, engine=None):
        #: compute engine for setup/prove (None -> the default serial engine)
        self.engine = engine
        self._codec = get_codec(self.kind)

    def setup(self, shape_id, system):
        pk, vk, toxic = setup(system, engine=self.engine)
        del toxic  # the trapdoor is destroyed; see tests for why it must be
        # pre-compile the CSR form so the first prove() pays no lowering cost
        get_engine(self.engine).compile(system)
        return StatementKeys(shape_id, pk, prepare(vk))

    def prove(self, keys, system):
        proof = prove(keys.proving_key, system, engine=self.engine)
        return self._codec.encode(proof)

    def decode(self, proof_bytes):
        """The :class:`repro.groth16.Proof` a body encodes (ProofError if
        malformed)."""
        return _decode(self._codec, proof_bytes)

    def verify(self, keys, proof, public_inputs):
        """Check a decoded proof (see :meth:`decode`)."""
        verify(keys.verifying_key, proof, public_inputs, engine=self.engine)

    def verify_batch(self, keys, proofs, public_inputs_list):
        """One multi-pairing check over N decoded proofs (same verdicts as
        N :meth:`verify` calls; raises BatchVerificationError with the
        offending indices)."""
        verify_batch(
            keys.verifying_key, proofs, public_inputs_list, engine=self.engine
        )


class SimulationBackend:
    name = "simulation"
    #: envelope kind tag this backend's proof bodies are sealed under
    kind = KIND_SIMULATION

    def __init__(self, engine=None):
        # the simulation has no group work; accepted for interface parity
        self.engine = engine
        self._codec = get_codec(self.kind)

    def setup(self, shape_id, system):
        key = sim_setup(system)
        return StatementKeys(shape_id, key, key)

    def prove(self, keys, system):
        return self._codec.encode(sim_prove(keys.proving_key, system))

    def decode(self, proof_bytes):
        """The attestation digest a body encodes (ProofError if malformed)."""
        return _decode(self._codec, proof_bytes)

    def verify(self, keys, proof_bytes, public_inputs):
        from ..groth16.simulation import SimulatedProof

        if len(proof_bytes) != 128:
            raise ProofError("bad proof length")
        sim_verify(keys.verifying_key, SimulatedProof(proof_bytes), public_inputs)

    def verify_batch(self, keys, proof_bytes_list, public_inputs_list):
        """Interface parity with Groth16Backend (a per-proof loop here)."""
        bad = []
        for i, (data, publics) in enumerate(
            zip(proof_bytes_list, public_inputs_list)
        ):
            try:
                self.verify(keys, data, publics)
            except ProofError:
                bad.append(i)
        if bad:
            raise BatchVerificationError(bad)


def _decode(codec, proof_bytes):
    try:
        return codec.decode(proof_bytes)
    except WireError as exc:
        raise ProofError("malformed proof body: %s" % exc) from exc


BACKENDS = {"groth16": Groth16Backend, "simulation": SimulationBackend}


def make_backend(name, engine=None):
    """Instantiate a backend, optionally bound to a specific compute engine
    (an :class:`repro.engine.Engine`; None means the shared serial default).
    """
    cls = BACKENDS.get(name)
    if cls is None:
        raise ProofError("unknown backend %r" % name)
    return cls(engine=engine)
