"""Cross-field byte-agreement checks, on the records of whole certificate walks."""

from dataclasses import replace

from derlint.diagnostics import Code
from derlint.extensions import WalkContext
from derlint.grammar import parse_certificate
from derlint.matchers import check_aid_match
from derlint.registry import default_registry

from support import certs
from support import encoder as enc

AGREEMENT_CODES = {
    Code.SIGNATURE_ALGORITHM_MISMATCH,
    Code.MISSING_KEY_IDENTIFIER_SELF_ISSUED,
    Code.MISSING_KEY_IDENTIFIER_NOT_SELF_ISSUED,
}
AKI_WITHOUT_KEY_ID = certs.extension(certs.OID_AKI, enc.seq())


def walk(**fields):
    return parse_certificate(certs.build(replace(certs.CertSpec(), **fields)))


def agreement(result) -> list:
    return [d for d in result.diagnostics if d.code in AGREEMENT_CODES]


def codes_for(**fields) -> list[Code]:
    return [d.code for d in agreement(walk(**fields))]


def test_byte_equality_predicates():
    ctx = WalkContext(default_registry())
    assert check_aid_match(b"\x30\x00", b"\x30\x00", None, ctx)
    assert ctx.diags == []
    assert not check_aid_match(b"\x30\x00", b"\x30\x01", 5, ctx)
    assert [(d.code, d.byte_offset) for d in ctx.diags] == [(Code.SIGNATURE_ALGORITHM_MISMATCH, 5)]


def test_clean_input_passes():
    result = walk()
    assert result.accepted
    assert agreement(result) == []


def test_algorithm_mismatch():
    # Flip one bit of each octet of the inner copy: the walk may reject the copy itself, but agreement never passes.
    inner = certs.rsa_alg()
    reached = 0
    for i in range(len(inner)):
        mutated = bytearray(inner)
        mutated[i] ^= 0x01
        result = walk(inner_alg=bytes(mutated))
        if result.tbs is not None and result.tbs.inner_algorithm is not None:
            reached += 1
            assert Code.SIGNATURE_ALGORITHM_MISMATCH in result.codes()
    assert reached >= 10


def test_mismatch_diagnostic_location():
    # The outer copy drops the NULL parameters: the copies differ, and the mismatch is placed on the inner one.
    outer = enc.seq(enc.oid("1.2.840.113549.1.1.11"))
    result = walk(outer_alg=outer)
    [mismatch] = agreement(result)
    assert mismatch.code is Code.SIGNATURE_ALGORITHM_MISMATCH
    assert mismatch.grammar_path == "tbsCertificate.signature"
    assert mismatch.byte_offset == result.tbs.inner_algorithm.node.header_offset
    assert mismatch.message == "inner and outer signature algorithm encodings differ"


def test_missing_key_id_not_self_issued():
    assert codes_for(exts=(certs.ski(),)) == [Code.MISSING_KEY_IDENTIFIER_NOT_SELF_ISSUED]
    assert codes_for(exts=None) == [Code.MISSING_KEY_IDENTIFIER_NOT_SELF_ISSUED]


def test_missing_key_id_self_issued():
    [missing] = agreement(walk(subject=certs.ISSUER, exts=(certs.ski(),)))
    assert missing.code is Code.MISSING_KEY_IDENTIFIER_SELF_ISSUED
    assert missing.byte_offset is None
    assert missing.message == "no authority key identifier (self-issued certificate)"


def test_self_issued_with_key_id_is_fine():
    assert codes_for(subject=certs.ISSUER) == []


def test_aki_without_key_identifier():
    for subject, code in ((certs.SUBJECT, "NOT_SELF_ISSUED"), (certs.ISSUER, "SELF_ISSUED")):
        result = walk(subject=subject, exts=(AKI_WITHOUT_KEY_ID,))
        [missing] = agreement(result)
        assert missing.code is Code[f"MISSING_KEY_IDENTIFIER_{code}"]
        assert missing.grammar_path == "tbsCertificate.extensions"
        aki = result.tbs.extensions[certs.OID_AKI]
        assert aki.body.key_id is None
        assert missing.byte_offset == aki.node.header_offset
