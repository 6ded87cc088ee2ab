"""Tests for the S_NOPE statement circuit itself."""

import pytest

from repro.core.statement import NopeStatement, StatementShape, prepare_witness
from repro.costmodel.counts import count_statement
from repro.dns.name import DomainName
from repro.ec.curves import BN254_R
from repro.errors import SynthesisError
from repro.field import PrimeField
from repro.hashes.toyhash import toyhash
from repro.profiles import TOY, build_hierarchy
from repro.r1cs import ConstraintSystem

FR = PrimeField(BN254_R)


@pytest.fixture(scope="module")
def setup_world():
    hierarchy = build_hierarchy(TOY, ["example.com", "other.net"])
    return hierarchy


def make_witness(hierarchy, domain_text):
    domain = DomainName.parse(domain_text)
    zone = hierarchy.zones[domain]
    chain = hierarchy.fetch_chain(domain)
    return prepare_witness(
        TOY, domain, chain, zone.ksk, hierarchy.root.zsk.dnskey()
    )


def synthesize(hierarchy, domain_text, t=b"tls", n=b"ca", ts=600, shape=None):
    witness = make_witness(hierarchy, domain_text)
    shape = shape or StatementShape(TOY, DomainName.parse(domain_text).depth)
    stmt = NopeStatement(shape)
    cs = ConstraintSystem(FR)
    stmt.synthesize(cs, witness, toyhash(t), toyhash(n), ts)
    return cs, stmt


class TestSynthesis:
    def test_depth2_satisfied(self, setup_world):
        cs, _ = synthesize(setup_world, "example.com")
        cs.check_satisfied()
        assert cs.num_constraints > 10000

    def test_public_inputs_match(self, setup_world):
        cs, stmt = synthesize(setup_world, "example.com", b"k", b"o", 1200)
        expected = stmt.public_inputs(
            "example.com",
            setup_world.root.zsk.dnskey().public_key,
            toyhash(b"k"),
            toyhash(b"o"),
            1200,
        )
        assert cs.public_inputs() == expected

    def test_structure_is_input_independent(self, setup_world):
        """Same shape, different T/N/TS and different signatures -> same
        R1CS structure (the property Groth16 setup requires)."""
        cs1, _ = synthesize(setup_world, "example.com", b"aaa", b"bbb", 300)
        cs2, _ = synthesize(setup_world, "example.com", b"ccc", b"ddd", 900)
        assert cs1.structure_hash() == cs2.structure_hash()

    def test_different_domains_same_depth_share_structure(self, setup_world):
        cs1, _ = synthesize(setup_world, "example.com")
        cs2, _ = synthesize(setup_world, "other.net")
        assert cs1.structure_hash() == cs2.structure_hash()

    def test_wrong_depth_witness_rejected(self, setup_world):
        witness = make_witness(setup_world, "example.com")
        stmt = NopeStatement(StatementShape(TOY, 1))
        cs = ConstraintSystem(FR)
        with pytest.raises(SynthesisError):
            stmt.synthesize(cs, witness, toyhash(b"t"), toyhash(b"n"), 0)

    def test_binding_inputs_affect_instance_not_structure(self, setup_world):
        cs1, _ = synthesize(setup_world, "example.com", t=b"key-one")
        cs2, _ = synthesize(setup_world, "example.com", t=b"key-two")
        assert cs1.public_inputs() != cs2.public_inputs()
        assert cs1.structure_hash() == cs2.structure_hash()


class TestSoundness:
    def test_tampered_ksk_private_key_fails(self, setup_world):
        """A prover who does not know the KSK private key cannot satisfy
        S_KSK.K: substitute a wrong scalar and the system breaks."""
        cs, _ = synthesize(setup_world, "example.com")
        wire = cs.labels.index("kskk.dlo")
        cs.values[wire] = (cs.values[wire] + 1) % FR.p
        assert not cs.is_satisfied()

    def test_tampered_ds_digest_fails(self, setup_world):
        witness = make_witness(setup_world, "example.com")
        # corrupt the digest byte inside the DS buffer witness
        buf = bytearray(witness.ds_buffers[2])
        buf[-1] ^= 1
        witness.ds_buffers[2] = bytes(buf)
        stmt = NopeStatement(StatementShape(TOY, 2))
        cs = ConstraintSystem(FR)
        with pytest.raises(SynthesisError):
            stmt.synthesize(cs, witness, toyhash(b"t"), toyhash(b"n"), 0)

    def test_wrong_signature_fails(self, setup_world):
        witness = make_witness(setup_world, "example.com")
        sig = bytearray(witness.ds_signatures[1])
        sig[0] ^= 1
        witness.ds_signatures[1] = bytes(sig)
        stmt = NopeStatement(StatementShape(TOY, 2))
        cs = ConstraintSystem(FR)
        with pytest.raises(SynthesisError):
            stmt.synthesize(cs, witness, toyhash(b"t"), toyhash(b"n"), 0)

    def test_offset_tamper_detected(self, setup_world):
        cs, _ = synthesize(setup_world, "example.com")
        # flipping the ksk-first flag must break the flags equality
        wire = cs.labels.index("dk1.kskfirst")
        cs.values[wire] = 1 - cs.values[wire]
        assert not cs.is_satisfied()


class TestAblationVariants:
    def test_naive_parsing_still_satisfiable(self, setup_world):
        shape = StatementShape(TOY, 2, parsing="naive")
        cs, _ = synthesize(setup_world, "example.com", shape=shape)
        cs.check_satisfied()

    def test_baseline_crypto_still_satisfiable(self, setup_world):
        shape = StatementShape(TOY, 2, crypto="baseline")
        cs, _ = synthesize(setup_world, "example.com", shape=shape)
        cs.check_satisfied()

    def test_nope_techniques_are_cheaper(self, setup_world):
        base_shape = StatementShape(TOY, 2, parsing="naive", crypto="baseline")
        nope_shape = StatementShape(TOY, 2)
        cs_base, _ = synthesize(setup_world, "example.com", shape=base_shape)
        cs_nope, _ = synthesize(setup_world, "example.com", shape=nope_shape)
        assert cs_nope.num_constraints < cs_base.num_constraints

    def test_depth1_smaller_than_depth2(self, setup_world):
        h1 = build_hierarchy(TOY, ["tld"])
        witness = make_witness(h1, "tld")
        stmt = NopeStatement(StatementShape(TOY, 1))
        cs = ConstraintSystem(FR)
        stmt.synthesize(cs, witness, toyhash(b"t"), toyhash(b"n"), 0)
        cs.check_satisfied()
        cs2, _ = synthesize(setup_world, "example.com")
        assert cs.num_constraints < cs2.num_constraints

    def test_depth1_fits_16384_point_domain(self):
        """The depth-1 toy statement (the one renewals prove) stays within
        a 2^14 QAP domain; crossing it doubles every prover FFT and the
        H-query MSM.  The margin (~1,300) is several times the drift that
        freshly drawn keys cause."""
        assert count_statement(TOY, "tld", "nope", "nope") <= 1 << 14
