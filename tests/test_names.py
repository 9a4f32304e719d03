"""Distinguished name walking: RDN structure, attribute types, string rules."""

from derlint.der import parse_tlv_tree
from derlint.diagnostics import Code
from derlint.extensions import WalkContext
from derlint.ingest import lint_bytes
from derlint.names import parse_name
from derlint.registry import default_registry

from support import certs
from support import encoder as enc

REG = default_registry()

OID_CN = "2.5.4.3"
OID_C = "2.5.4.6"
OID_EMAIL = "1.2.840.113549.1.9.1"
OID_SERIAL = "2.5.4.5"


def walk(data: bytes, role: str = "subject"):
    ctx = WalkContext(REG)
    empty = parse_name(parse_tlv_tree(data), ctx, "name", role=role)
    return empty, [d.code for d in ctx.diags]


def atv(oid_text: str, value: bytes) -> bytes:
    return enc.seq(enc.oid(oid_text), value)


def test_single_cn():
    data = enc.seq(enc.set_of(atv(OID_CN, enc.printable("Root"))))
    empty, codes = walk(data)
    assert codes == []
    assert not empty


def test_multiple_rdns_and_attributes():
    data = enc.seq(
        enc.set_of(atv(OID_C, enc.printable("DE"))),
        enc.set_of(atv(OID_CN, enc.utf8("Beispiel"))),
    )
    empty, codes = walk(data)
    assert codes == []
    assert not empty


def test_empty_name_roles():
    empty, codes = walk(enc.seq())
    assert empty
    assert codes == []
    empty, codes = walk(enc.seq(), role="issuer")
    assert empty
    assert codes == [Code.EMPTY_ISSUER_DN]


def test_wrong_shape_is_not_empty():
    empty, codes = walk(enc.octet_string(b"x"))
    assert codes == [Code.STRUCTURAL_MISMATCH]
    assert not empty


def test_rdn_must_be_set():
    _, codes = walk(enc.seq(enc.seq(atv(OID_CN, enc.printable("x")))))
    assert codes == [Code.INVALID_DN]


def test_empty_rdn_set():
    _, codes = walk(enc.seq(enc.set_of()))
    assert codes == [Code.INVALID_DN]


def test_set_order_enforced():
    first = atv(OID_CN, enc.printable("zz"))
    second = atv(OID_CN, enc.printable("aa"))
    assert first > second
    _, codes = walk(enc.seq(enc.set_of(first, second)))
    assert Code.INVALID_DN in codes


def test_unknown_attribute_type():
    _, codes = walk(enc.seq(enc.set_of(atv("1.2.3.4.5", enc.printable("x")))))
    assert codes == [Code.WRONG_OID_IN_DN]


def test_malformed_attribute_oid():
    data = enc.seq(enc.set_of(enc.seq(enc.raw_oid(b"\x80\x01"), enc.printable("x"))))
    _, codes = walk(data)
    assert codes == [Code.INVALID_DN]


def test_email_must_be_ia5():
    _, codes = walk(enc.seq(enc.set_of(atv(OID_EMAIL, enc.ia5("a@b.example")))))
    assert codes == []
    _, codes = walk(enc.seq(enc.set_of(atv(OID_EMAIL, enc.printable("a")))))
    assert codes == [Code.WRONG_STRING_TYPE]


def test_country_must_be_printable():
    _, codes = walk(enc.seq(enc.set_of(atv(OID_C, enc.utf8("DE")))))
    assert codes == [Code.WRONG_STRING_TYPE]


def test_wrong_string_type_still_checks_charset():
    # BMP with an embedded NUL: both the slot violation and the character
    # defect are reported, not just the first.
    data = enc.seq(enc.set_of(atv(OID_CN, enc.tlv(30, b"\x00\x41\x00\x00"))))
    _, codes = walk(data)
    assert Code.WRONG_STRING_TYPE in codes
    assert Code.CHAR_SET_VIOLATION in codes


def test_empty_attribute_value():
    _, codes = walk(enc.seq(enc.set_of(atv(OID_CN, enc.printable("")))))
    assert codes == [Code.EMPTY_STRING]


def test_charset_violation_in_value():
    _, codes = walk(enc.seq(enc.set_of(atv(OID_CN, enc.printable("a@b")))))
    assert codes == [Code.CHAR_SET_VIOLATION]


def test_serial_number_attribute_printable():
    _, codes = walk(enc.seq(enc.set_of(atv(OID_SERIAL, enc.printable("12345")))))
    assert codes == []


def test_organization_identifier_is_a_directory_string():
    # X.520 organizationIdentifier (2.5.4.97), an UnboundedDirectoryString used by EV certificates.
    subject = enc.seq(
        enc.set_of(atv(OID_C, enc.printable("DE"))),
        enc.set_of(atv("2.5.4.97", enc.utf8("VATDE-123456789"))),
        enc.set_of(atv(OID_CN, enc.utf8("Beispiel"))),
    )
    _, codes = walk(subject)
    assert codes == []
    report = lint_bytes(certs.build(certs.CertSpec(subject=subject)))
    assert report.outcome == "accepted"
    assert report.diagnostics == []
    _, codes = walk(enc.seq(enc.set_of(atv("2.5.4.97", enc.integer(7)))))
    assert codes == [Code.WRONG_STRING_TYPE]
