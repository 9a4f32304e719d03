"""The OID registry, and the walk's table of registered OIDs by their DER content octets."""

from dataclasses import replace

import pytest

from derlint import extensions, names, registry
from derlint.der import parse_tlv_tree
from derlint.diagnostics import Code
from derlint.extensions import WalkContext, parse_extensions
from derlint.grammar import AlgorithmId, _check_key_bits, _check_parameters, parse_algorithm_identifier
from derlint.grammar import parse_certificate
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


def test_linting_leaves_equal_registries_equal():
    # Equality reads what the file gave, not the tables a walk fills.
    linted, other = load_registry(), load_registry()
    assert linted == other
    parse_certificate(certs.base_cert(), linted)
    assert linted.by_der and linted.silent_extensions and other.by_der == {}
    assert linted == other and repr(linted) == repr(other)


def test_second_walk_decodes_only_unregistered_oids(monkeypatch):
    reg = load_registry()
    data = cert_with_unregistered_extension()
    first = parse_certificate(data, reg).diagnostics
    reg.silent_extensions.clear()  # by_der stays: the second walk names the registered OIDs from it
    decoded = []

    def recording(node):
        arcs = decode_oid(node)
        decoded.append(dotted(arcs))
        return arcs

    monkeypatch.setattr(extensions, "decode_oid", recording)
    assert parse_certificate(data, reg).diagnostics == first
    assert decoded == [UNREGISTERED]


def test_oids_that_cannot_round_trip_stay_out():
    # No DER OID decodes to these: 1.50.3 encodes its first two arcs as 90, which decodes as 2.10, and a first
    # arc above 2 folds the same way; an arc above 2**32-1 overflows the decoder, however many digits it has.
    for oid in ("1.50.3", "0.40", "3.1", "1.2.4294967296", "2.4294967296", "1.2." + "9" * 5000):
        with pytest.raises(ValueError) as exc:
            parse_registry(f"1.2.3 ; attribute ; ia5\n{oid} ; attribute ; ia5\n", source="bad.txt")
        assert str(exc.value) == f"bad.txt:2: no DER OID decodes to {oid!r}"
    # The largest arcs the decoder takes still load, and the walk names each.
    for oid in ("0.39", "1.39.4294967295", "2.4294967295", "2.999.3"):
        reg = parse_registry(f"{oid} ; attribute ; ia5\n")
        name = enc.seq(enc.set_of(enc.seq(enc.oid(oid), enc.ia5("x"))))
        parse_name(parse_tlv_tree(name), WalkContext(reg), "name")
        assert reg.by_der == {content_of(oid): oid}


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
        # Superscript digits pass str.isdigit but not int(), which would raise in the middle of a walk.
        ("1.2.3 ; curve ; point-\u00b3\u00b2\n", "bad.txt:1: curve grammar must be point-N"),
        # A width of 0 would take a lone 0x04 octet as a whole point.
        ("1.2.3 ; curve ; point-0\n", "bad.txt:1: curve grammar must be point-N"),
        ("1.2.3 ; curve ; point-032\n", "bad.txt:1: curve grammar must be point-N"),
        # OIDs the walk can never spell, so they would load and match nothing.
        ("1.2.840.10045.4.3.02 ; signature ; null\n", "bad.txt:1: '1.2.840.10045.4.3.02' is not a dotted OID"),
        ("# header\nfoo ; signature ; null\n", "bad.txt:2: 'foo' is not a dotted OID"),
        ("1 ; signature ; null\n", "bad.txt:1: '1' is not a dotted OID"),
        ("1.2.\u0663 ; signature ; null\n", "bad.txt:1: '1.2.\u0663' is not a dotted OID"),
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



def test_bundled_registry_spells_every_oid_as_the_walk_does():
    reg = default_registry()
    assert sum(len(table) for table in reg.by_role.values()) > 100
    for oid in reg.oids:
        assert dotted(decode_oid(parse_tlv_tree(enc.oid(oid)))) == oid
    assert all(int(grammar.removeprefix("point-")) > 0 for grammar in reg.by_role["curve"].values())


def test_registry_grammars_match_the_walk_tables():
    """A grammar name the registry accepts for these roles must be one the walk has a table entry for.

    A name in the registry's set alone would load, then raise KeyError in `_parse_body` or fall to a
    `.get` default that permits every key usage or string type; a name in a walk table alone is dead.
    """
    grammars = registry._VALID_GRAMMARS
    assert grammars["extension"] == set(extensions._BODY_PARSERS)
    assert grammars["keyfamily"] == set(extensions._FORBIDDEN_USAGE)
    assert grammars["attribute"] == set(names._PERMITTED_BY_KIND)


def test_registry_grammars_reach_a_branch_of_their_walk():
    """Each grammar name of the roles the walk dispatches by if chains reaches one of its branches.

    A name in the registry's set alone would load, then raise AssertionError in the walk; parse_signature_value
    reads any sigvalue name but "opaque" as "dss-sig", so that set is fixed.
    """
    grammars = registry._VALID_GRAMMARS
    null = parse_tlv_tree(enc.null())
    for role in ("signature", "spki"):
        for grammar in grammars[role]:
            # Parameters are given: with none, every grammar past the first three returns before its branch.
            alg = AlgorithmId(null)
            alg.oid, alg.grammar = "1.2.3", grammar
            _check_parameters(alg, null, null, WalkContext(default_registry()), "a")
    key = parse_tlv_tree(bytes.fromhex("0303000500"))  # a BIT STRING whose payload, a NULL, parses
    for grammar in grammars["keybits"]:
        _check_key_bits(grammar, key, b"\x05\x00", AlgorithmId(null), WalkContext(default_registry()), "k")
    assert grammars["sigvalue"] == {"opaque", "dss-sig"}
