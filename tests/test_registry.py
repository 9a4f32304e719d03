"""The OID registry, and the walk's table of registered OIDs by their DER content octets."""

from dataclasses import replace

import pytest

from derlint import extensions
from derlint.der import parse_tlv_tree
from derlint.diagnostics import Code
from derlint.extensions import WalkContext, parse_extensions
from derlint.grammar import parse_algorithm_identifier, parse_certificate
from derlint.names import parse_name
from derlint.registry import default_registry, load_registry, parse_registry
from derlint.values import decode_oid, dotted

from support import certs
from support import encoder as enc

SHA256_RSA = "1.2.840.113549.1.1.11"
OID_CN = "2.5.4.3"
OID_BASIC_CONSTRAINTS = "2.5.29.19"
UNREGISTERED = "1.3.6.1.4.1.55555.99"


def content_of(oid_text: str) -> bytes:
    return parse_tlv_tree(enc.oid(oid_text)).content


def non_minimal(oid_text: str) -> bytes:
    """The OID with a 0x80 pad octet before its last arc: the same arcs, spelled non-minimally."""
    content = content_of(oid_text)
    return enc.raw_oid(content[:-1] + b"\x80" + content[-1:])


def codes(ctx: WalkContext) -> list[Code]:
    return [d.code for d in ctx.diags]


def cert_with_unregistered_extension() -> bytes:
    return certs.build(replace(certs.CertSpec(), exts=(certs.aki(), certs.extension(UNREGISTERED, enc.null()))))


def test_walk_keys_registered_oids_by_their_encoding():
    reg = load_registry()
    assert reg.by_der == {}
    for data in (certs.base_cert(), cert_with_unregistered_extension()):
        parse_certificate(data, reg)
    assert OID_CN in reg.by_der.values() and SHA256_RSA in reg.by_der.values()
    for content, text in reg.by_der.items():
        assert dotted(decode_oid(parse_tlv_tree(enc.raw_oid(content)))) == text
        assert text in reg.oids
    assert content_of(UNREGISTERED) not in reg.by_der


def test_second_walk_decodes_only_unregistered_oids(monkeypatch):
    reg = load_registry()
    data = cert_with_unregistered_extension()
    first = parse_certificate(data, reg).diagnostics
    decoded = []

    def recording(node):
        arcs = decode_oid(node)
        decoded.append(dotted(arcs))
        return arcs

    monkeypatch.setattr(extensions, "decode_oid", recording)
    assert parse_certificate(data, reg).diagnostics == first
    assert decoded == [UNREGISTERED]


def test_oids_that_cannot_round_trip_stay_out():
    # 1.50.3 encodes its first two arcs as 90, which decodes as 2.10;
    # an arc above 2**32-1 overflows the decoder.
    reg = parse_registry("1.50.3 ; attribute ; ia5\n1.2.4294967296 ; attribute ; ia5\n1.2.4294967295 ; attribute ; ia5\n")
    assert reg.lookup("attribute", "1.50.3") == "ia5"
    assert reg.lookup("attribute", "1.2.4294967296") == "ia5"
    for text in ("1.50.3", "1.2.4294967296", "1.2.4294967295"):
        name = enc.seq(enc.set_of(enc.seq(enc.oid(text), enc.ia5("x"))))
        parse_name(parse_tlv_tree(name), WalkContext(reg), "name")
    assert reg.by_der == {content_of("1.2.4294967295"): "1.2.4294967295"}


def test_extra_registry_oid_joins_the_table():
    extra = "1.3.6.1.4.1.55555.7"
    text = f"{OID_BASIC_CONSTRAINTS} ; extension ; basic-constraints\n{extra} ; extension ; key-usage\n"
    reg = parse_registry(text)
    ctx = WalkContext(reg)
    body = enc.bit_string(b"\x80", unused=7)
    exts = parse_extensions(parse_tlv_tree(enc.ctx(3, enc.seq(enc.seq(enc.oid(extra), enc.octet_string(body))))), ctx)
    assert codes(ctx) == []
    assert isinstance(exts[extra].body, extensions.KeyUsageValue)
    assert reg.by_der[content_of(extra)] == extra


def test_non_minimal_registered_oid_keeps_the_slot_code():
    reg = default_registry()
    assert SHA256_RSA in reg.by_role["signature"]

    ctx = WalkContext(reg)
    alg = parse_algorithm_identifier(parse_tlv_tree(enc.seq(non_minimal(SHA256_RSA), enc.null())), "signature", ctx, "alg")
    assert alg.oid is None
    assert codes(ctx) == [Code.WRONG_ALGORITHM]

    ctx = WalkContext(reg)
    name = enc.seq(enc.set_of(enc.seq(non_minimal(OID_CN), enc.printable("x"))))
    parse_name(parse_tlv_tree(name), ctx, "name")
    assert codes(ctx) == [Code.INVALID_DN]

    ctx = WalkContext(reg)
    ext = enc.seq(non_minimal(OID_BASIC_CONSTRAINTS), enc.octet_string(enc.seq()))
    parse_extensions(parse_tlv_tree(enc.ctx(3, enc.seq(ext))), ctx)
    assert codes(ctx) == [Code.WRONG_EXTN_ID]


@pytest.mark.parametrize(
    "text, message",
    [
        ("# header\n\n1.2.3 ; signature\n", "bad.txt:3: expected 'oid ; role ; grammar'"),
        ("1.2.3 ; signature ; null ; extra\n", "bad.txt:1: expected 'oid ; role ; grammar'"),
        ("1.2.3 ; gadget ; null\n", "bad.txt:1: unknown role 'gadget'"),
        ("1.2.3 ; curve ; point-x\n", "bad.txt:1: curve grammar must be point-N"),
        ("1.2.3 ; curve ; width-32\n", "bad.txt:1: curve grammar must be point-N"),
        ("1.2.3 ; signature ; rsa-key\n", "bad.txt:1: unknown grammar 'rsa-key' for role signature"),
        (
            "1.2.3 ; signature ; null\n1.2.3 ; spki ; null\n1.2.3 ; signature ; absent\n",
            "bad.txt:3: duplicate entry for (1.2.3, signature)",
        ),
    ],
)
def test_registry_errors_name_their_line(text, message):
    with pytest.raises(ValueError) as exc:
        parse_registry(text, source="bad.txt")
    assert str(exc.value) == message

