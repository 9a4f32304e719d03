"""Certificate grammar walk: field order, algorithm parameters, key shapes."""

from dataclasses import replace

import pytest

from derlint.der import parse_tlv_tree
from derlint.diagnostics import Code
from derlint.extensions import WalkContext
from derlint.grammar import (
    parse_algorithm_identifier,
    parse_certificate,
    parse_spki,
)
from derlint.registry import default_registry

from support import certs
from support import encoder as enc

REG = default_registry()

OID_EC_KEY = "1.2.840.10045.2.1"
OID_P256 = "1.2.840.10045.3.1.7"
OID_DSA_SHA1 = "1.2.840.10040.4.3"
OID_DSA_KEY = "1.2.840.10040.4.1"
OID_PSS = "1.2.840.113549.1.1.10"
OID_KEA = "2.16.840.1.101.2.1.1.22"
OID_GOST_KEY = "1.2.643.2.2.19"
OID_SHA256 = "2.16.840.1.101.3.4.2.1"


def codes_of(parsed) -> list[Code]:
    return [d.code for d in parsed.diagnostics]


def alg_codes(data: bytes, role: str = "signature"):
    ctx = WalkContext(REG)
    alg = parse_algorithm_identifier(parse_tlv_tree(data), role, ctx, "alg")
    return alg, [d.code for d in ctx.diags]


def spki_codes(data: bytes):
    ctx = WalkContext(REG)
    info = parse_spki(parse_tlv_tree(data), ctx, "spki")
    return info, [d.code for d in ctx.diags]


class TestBaseCertificate:
    def test_accepted_with_no_diagnostics(self):
        parsed = parse_certificate(certs.base_cert())
        assert parsed.accepted
        assert parsed.diagnostics == []

    def test_parsed_fields(self):
        parsed = parse_certificate(certs.base_cert())
        tbs = parsed.tbs
        assert tbs.version == 2
        assert tbs.inner_algorithm.oid == certs.OID_SHA256_RSA
        assert tbs.issuer.node.raw == certs.ISSUER
        assert tbs.subject.node.raw == certs.SUBJECT
        assert tbs.spki.key_family == "rsa"
        assert tbs.extensions is not None
        assert parsed.outer_algorithm.oid == certs.OID_SHA256_RSA

    def test_bytes_like_inputs_agree(self):
        # Slices of a bytearray are unhashable, so the walk's OID table must not see them.
        for data in [certs.base_cert(), *(fixture.data for fixture in certs.planted_fixtures())]:
            want = parse_certificate(data).diagnostics
            for view in (bytearray(data), memoryview(data), memoryview(bytearray(data))):
                assert parse_certificate(view).diagnostics == want

    def test_outer_shape_must_be_three_sequence(self):
        parsed = parse_certificate(enc.seq(enc.integer(1)))
        assert codes_of(parsed) == [Code.STRUCTURAL_MISMATCH]
        parsed = parse_certificate(enc.integer(1))
        assert codes_of(parsed) == [Code.STRUCTURAL_MISMATCH]

    def test_tbs_running_out_of_fields(self):
        spec = certs.CertSpec()
        tbs = enc.seq(spec.version, spec.serial, spec.inner_alg)
        parsed = parse_certificate(enc.seq(tbs, spec.outer_alg, spec.sig_value))
        assert Code.STRUCTURAL_MISMATCH in codes_of(parsed)
        assert any("ends before" in d.message for d in parsed.diagnostics)

    def test_extra_tbs_field_rejected(self):
        spec = certs.CertSpec()
        tbs_parts = [
            spec.version,
            spec.serial,
            spec.inner_alg,
            spec.issuer,
            spec.validity,
            spec.subject,
            spec.spki,
            enc.ctx(3, enc.seq(certs.aki())),
            enc.integer(9),
        ]
        parsed = parse_certificate(enc.seq(enc.seq(*tbs_parts), spec.outer_alg, spec.sig_value))
        assert Code.STRUCTURAL_MISMATCH in codes_of(parsed)


class TestVersionGating:
    def test_explicit_default_version_flagged(self):
        spec = replace(certs.CertSpec(), version=enc.ctx(0, enc.integer(0)), exts=None)
        parsed = parse_certificate(certs.build(replace(spec, subject=certs.ISSUER)))
        codes = set(codes_of(parsed))
        assert Code.DEFAULT_VALUE_ENCODED in codes

    def test_out_of_range_version(self):
        spec = replace(certs.CertSpec(), version=enc.ctx(0, enc.integer(5)))
        parsed = parse_certificate(certs.build(spec))
        assert Code.STRUCTURAL_MISMATCH in codes_of(parsed)

    def test_v2_with_unique_id_accepted(self):
        spec = replace(
            certs.CertSpec(),
            version=enc.ctx(0, enc.integer(1)),
            subject=certs.ISSUER,
            exts=None,
            subject_uid=enc.ctx_prim(2, b"\x00\xfe"),
        )
        parsed = parse_certificate(certs.build(spec))
        assert Code.UNIQUE_ID_REQUIRES_V2_PLUS not in codes_of(parsed)

    def test_v2_with_extensions_rejected(self):
        spec = replace(certs.CertSpec(), version=enc.ctx(0, enc.integer(1)))
        parsed = parse_certificate(certs.build(spec))
        assert Code.EXTENSIONS_REQUIRE_V3 in codes_of(parsed)

    def test_version_wrapper_must_hold_one_integer(self):
        spec = replace(certs.CertSpec(), version=enc.ctx(0, enc.integer(2), enc.integer(2)))
        parsed = parse_certificate(certs.build(spec))
        assert Code.STRUCTURAL_MISMATCH in codes_of(parsed)

    def test_constructed_unique_id_rejected(self):
        spec = replace(
            certs.CertSpec(),
            version=enc.ctx(0, enc.integer(1)),
            subject=certs.ISSUER,
            exts=None,
            issuer_uid=enc.ctx(1, enc.octet_string(b"z")),
        )
        parsed = parse_certificate(certs.build(spec))
        assert Code.STRUCTURAL_MISMATCH in codes_of(parsed)


class TestAlgorithmParameters:
    def test_null_grammar(self):
        alg, codes = alg_codes(enc.seq(enc.oid(certs.OID_SHA256_RSA), enc.null()))
        assert codes == []
        assert alg.oid == certs.OID_SHA256_RSA
        assert alg.grammar == "null"

    def test_null_grammar_missing(self):
        _, codes = alg_codes(enc.seq(enc.oid(certs.OID_SHA256_RSA)))
        assert codes == [Code.MISSING_PARAMETERS]

    def test_null_grammar_with_content(self):
        _, codes = alg_codes(enc.seq(enc.oid(certs.OID_SHA256_RSA), enc.tlv(5, b"x")))
        assert codes == [Code.MALFORMED_PARAMETERS]

    def test_absent_grammar(self):
        _, codes = alg_codes(enc.seq(enc.oid(certs.OID_ECDSA_SHA256)))
        assert codes == []

    def test_absent_grammar_with_null(self):
        _, codes = alg_codes(enc.seq(enc.oid(certs.OID_ECDSA_SHA256), enc.null()))
        assert codes == [Code.UNEXPECTED_NULL_IN_ALGORITHM_P]

    def test_absent_grammar_with_other(self):
        _, codes = alg_codes(enc.seq(enc.oid(certs.OID_ECDSA_SHA256), enc.integer(5)))
        assert codes == [Code.MALFORMED_PARAMETERS]

    def test_unregistered_oid(self):
        _, codes = alg_codes(enc.seq(enc.oid("1.2.3.4"), enc.null()))
        assert codes == [Code.WRONG_ALGORITHM]

    def test_algorithm_slot_must_be_oid(self):
        _, codes = alg_codes(enc.seq(enc.integer(1), enc.null()))
        assert codes == [Code.WRONG_ALGORITHM]

    def test_named_curve(self):
        alg, codes = alg_codes(enc.seq(enc.oid(OID_EC_KEY), enc.oid(OID_P256)), role="spki")
        assert codes == []
        assert alg.curve_oid == OID_P256

    def test_named_curve_missing(self):
        _, codes = alg_codes(enc.seq(enc.oid(OID_EC_KEY)), role="spki")
        assert codes == [Code.MISSING_PARAMETERS]

    def test_named_curve_unknown(self):
        _, codes = alg_codes(enc.seq(enc.oid(OID_EC_KEY), enc.oid("1.2.3.4")), role="spki")
        assert codes == [Code.WRONG_ALGORITHM]

    def test_named_curve_not_oid(self):
        _, codes = alg_codes(enc.seq(enc.oid(OID_EC_KEY), enc.null()), role="spki")
        assert codes == [Code.MALFORMED_PARAMETERS]

    def test_dss_params(self):
        params = enc.seq(enc.integer(7), enc.integer(5), enc.integer(3))
        _, codes = alg_codes(enc.seq(enc.oid(OID_DSA_KEY), params), role="spki")
        assert codes == []
        _, codes = alg_codes(enc.seq(enc.oid(OID_DSA_KEY), enc.seq(enc.integer(7))), role="spki")
        assert codes == [Code.MALFORMED_PARAMETERS]

    def test_dh_params_with_optionals(self):
        base = [enc.integer(23), enc.integer(5), enc.integer(11)]
        _, codes = alg_codes(enc.seq(enc.oid("1.2.840.10046.2.1"), enc.seq(*base)), role="spki")
        assert codes == []
        with_j = base + [enc.integer(2)]
        vparms = enc.seq(enc.bit_string(b"\x01"), enc.integer(9))
        full = enc.seq(*(with_j + [vparms]))
        _, codes = alg_codes(enc.seq(enc.oid("1.2.840.10046.2.1"), full), role="spki")
        assert codes == []
        _, codes = alg_codes(enc.seq(enc.oid("1.2.840.10046.2.1"), enc.seq()), role="spki")
        assert codes == [Code.MALFORMED_PARAMETERS]

    def test_kea_params(self):
        _, codes = alg_codes(enc.seq(enc.oid(OID_KEA), enc.octet_string(b"domain")), role="spki")
        assert codes == []
        _, codes = alg_codes(enc.seq(enc.oid(OID_KEA), enc.octet_string(b"")), role="spki")
        assert codes == [Code.EMPTY_VALUE_FIELD]

    def test_gost_params(self):
        params = enc.seq(enc.oid("1.2.643.2.2.35.1"), enc.oid("1.2.643.2.2.30.1"))
        _, codes = alg_codes(enc.seq(enc.oid(OID_GOST_KEY), params), role="spki")
        assert codes == []
        _, codes = alg_codes(enc.seq(enc.oid(OID_GOST_KEY), enc.seq(enc.integer(1))), role="spki")
        assert codes == [Code.MALFORMED_PARAMETERS]

    def test_pss_params(self):
        hash_alg = enc.seq(enc.oid(OID_SHA256), enc.null())
        body = enc.seq(enc.ctx(0, hash_alg), enc.ctx(2, enc.integer(32)))
        _, codes = alg_codes(enc.seq(enc.oid(OID_PSS), body))
        assert codes == []

    def test_pss_params_empty_defaults(self):
        _, codes = alg_codes(enc.seq(enc.oid(OID_PSS), enc.seq()))
        assert codes == []

    def test_pss_params_out_of_order(self):
        body = enc.seq(enc.ctx(2, enc.integer(32)), enc.ctx(0, enc.seq(enc.oid(OID_SHA256), enc.null())))
        _, codes = alg_codes(enc.seq(enc.oid(OID_PSS), body))
        assert codes == [Code.MALFORMED_PARAMETERS]

    def test_pss_params_negative_salt(self):
        body = enc.seq(enc.ctx(2, enc.integer(-1)))
        _, codes = alg_codes(enc.seq(enc.oid(OID_PSS), body))
        assert codes == [Code.MALFORMED_PARAMETERS]

    def test_too_many_children(self):
        _, codes = alg_codes(enc.seq(enc.oid(certs.OID_SHA256_RSA), enc.null(), enc.null()))
        assert codes == [Code.STRUCTURAL_MISMATCH]


class TestSubjectPublicKeyInfo:
    def test_rsa_key(self):
        info, codes = spki_codes(certs.rsa_spki())
        assert codes == []
        assert info.key_family == "rsa"

    def test_rsa_key_non_positive_modulus(self):
        key = enc.seq(enc.integer(-5), enc.integer(65537))
        data = enc.seq(enc.seq(enc.oid(certs.OID_RSA_ENC), enc.null()), enc.bit_string(key))
        _, codes = spki_codes(data)
        assert codes == [Code.MALFORMED_PUBLIC_KEY]

    def test_ec_point_lengths(self):
        alg = enc.seq(enc.oid(OID_EC_KEY), enc.oid(OID_P256))
        good = enc.seq(alg, enc.bit_string(b"\x04" + bytes(64)))
        _, codes = spki_codes(good)
        assert codes == []
        compressed = enc.seq(alg, enc.bit_string(b"\x02" + bytes(32)))
        _, codes = spki_codes(compressed)
        assert codes == []
        short = enc.seq(alg, enc.bit_string(b"\x04" + bytes(63)))
        _, codes = spki_codes(short)
        assert codes == [Code.MALFORMED_PUBLIC_KEY]
        bad_prefix = enc.seq(alg, enc.bit_string(b"\x05" + bytes(64)))
        _, codes = spki_codes(bad_prefix)
        assert codes == [Code.MALFORMED_PUBLIC_KEY]

    def test_integer_key(self):
        data = enc.seq(
            enc.seq(enc.oid(OID_DSA_KEY), enc.seq(enc.integer(7), enc.integer(5), enc.integer(3))),
            enc.bit_string(enc.integer(99)),
        )
        info, codes = spki_codes(data)
        assert codes == []
        assert info.key_family == "dsa"

    def test_key_with_unused_bits_rejected(self):
        data = enc.seq(enc.seq(enc.oid(certs.OID_RSA_ENC), enc.null()), enc.tlv(3, b"\x04\xa0"))
        _, codes = spki_codes(data)
        assert Code.BAD_BIT_STRING_ENCODING in codes

    def test_empty_key_bits(self):
        data = enc.seq(enc.seq(enc.oid(certs.OID_RSA_ENC), enc.null()), enc.bit_string(b""))
        _, codes = spki_codes(data)
        assert codes == [Code.EMPTY_VALUE_FIELD]


class TestValidityAndSignature:
    def test_generalized_time_accepted(self):
        spec = replace(
            certs.CertSpec(),
            validity=enc.seq(enc.gentime("20200101000000Z"), enc.gentime("20500101000000Z")),
        )
        parsed = parse_certificate(certs.build(spec))
        assert parsed.accepted
        assert parsed.diagnostics == []

    def test_validity_field_tag_checked(self):
        spec = replace(
            certs.CertSpec(),
            validity=enc.seq(enc.printable("soon"), enc.utctime("300101000000Z")),
        )
        parsed = parse_certificate(certs.build(spec))
        assert Code.STRUCTURAL_MISMATCH in codes_of(parsed)

    def test_dss_signature_value(self):
        spec = replace(
            certs.CertSpec(),
            inner_alg=certs.ecdsa_alg(),
            outer_alg=certs.ecdsa_alg(),
            sig_value=enc.bit_string(enc.seq(enc.integer(7), enc.integer(9))),
        )
        parsed = parse_certificate(certs.build(spec))
        assert parsed.accepted

    def test_dss_signature_negative_component(self):
        spec = replace(
            certs.CertSpec(),
            inner_alg=certs.ecdsa_alg(),
            outer_alg=certs.ecdsa_alg(),
            sig_value=enc.bit_string(enc.seq(enc.integer(-7), enc.integer(9))),
        )
        parsed = parse_certificate(certs.build(spec))
        assert Code.MALFORMED_SIGNATURE_STRUCTURE in codes_of(parsed)

    def test_signature_value_must_be_bit_string(self):
        spec = replace(certs.CertSpec(), sig_value=enc.octet_string(b"sig"))
        parsed = parse_certificate(certs.build(spec))
        assert Code.STRUCTURAL_MISMATCH in codes_of(parsed)


class TestPostConditions:
    def test_empty_subject_allowed_with_critical_san(self):
        spec = replace(
            certs.CertSpec(),
            subject=enc.seq(),
            exts=(certs.aki(), certs.san(["example.com"], critical=True)),
        )
        parsed = parse_certificate(certs.build(spec))
        assert parsed.accepted

    def test_self_issued_does_not_need_aki(self):
        spec = replace(certs.CertSpec(), subject=certs.ISSUER, exts=(certs.ski(),))
        parsed = parse_certificate(certs.build(spec))
        assert parsed.accepted
        assert [d.code for d in parsed.diagnostics] == [Code.MISSING_KEY_IDENTIFIER_SELF_ISSUED]

    def test_accepted_reflects_rejecting_codes_only(self):
        parsed = parse_certificate(certs.build(replace(certs.CertSpec(), serial=enc.integer(0))))
        assert parsed.codes() == [Code.NON_POSITIVE_SERIAL]
        assert parsed.accepted
