"""Extension block: entry framing, body grammars, GeneralName, usage rules."""

import itertools
import random
import re
import sys
import threading

import pytest

import derlint.extensions
from derlint.der import parse_tlv_tree
from derlint.diagnostics import Code, RecognitionError
from derlint.extensions import (
    _MEMO_MAX_CONTENT,
    _MEMO_MAX_ENTRIES,
    AkiValue,
    BasicConstraintsValue,
    KeyUsageValue,
    WalkContext,
    _plain_name,
    check_key_usage_rules,
    parse_extensions,
    parse_general_name,
    valid_dns_name,
    valid_email,
    valid_uri,
)
from derlint.ingest import LintOptions, lint_bytes
from derlint.registry import Registry, default_registry, load_registry
from derlint.values import decode_oid, dotted, plain_oid

from support import certs
from support import encoder as enc

REG = default_registry()

OID_CP = "2.5.29.32"
OID_PM = "2.5.29.33"
OID_IAN = "2.5.29.18"
OID_SDA = "2.5.29.9"
OID_NC = "2.5.29.30"
OID_CRL_DP = "2.5.29.31"
OID_IAP = "2.5.29.54"
OID_FRESHEST = "2.5.29.46"
OID_SIA = "1.3.6.1.5.5.7.1.11"
OID_CPS = "1.3.6.1.5.5.7.2.1"
OID_UNOTICE = "1.3.6.1.5.5.7.2.2"
OID_OCSP = "1.3.6.1.5.5.7.48.1"
NON_MINIMAL_OID = enc.raw_oid(b"\x2a\x80\x03")  # 1.2.3, its last arc padded with a 0x80 octet


def run_exts(*ext_bytes: bytes):
    wrapper = parse_tlv_tree(enc.ctx(3, enc.seq(*ext_bytes)))
    ctx = WalkContext(REG)
    extset = parse_extensions(wrapper, ctx, "exts")
    return extset, [d.code for d in ctx.diags]


def run_body(oid_text: str, payload: bytes, critical: bool | None = None):
    return run_exts(certs.extension(oid_text, payload, critical))


def codes_only(oid_text: str, payload: bytes, critical: bool | None = None):
    _, codes = run_body(oid_text, payload, critical)
    return codes


class TestFraming:
    def test_wrapper_must_hold_one_sequence(self):
        wrapper = parse_tlv_tree(enc.ctx(3, enc.integer(1)))
        ctx = WalkContext(REG)
        assert parse_extensions(wrapper, ctx, "exts") is None
        assert [d.code for d in ctx.diags] == [Code.STRUCTURAL_MISMATCH]

    def test_empty_sequence(self):
        extset, codes = run_exts()
        assert codes == [Code.EMPTY_EXTENSION_SEQUENCE]
        assert extset == {}

    def test_duplicates_reported_each_extra_occurrence(self):
        extset, codes = run_exts(certs.ski(), certs.ski(), certs.ski())
        assert codes.count(Code.DUPLICATED_EXTENSION) == 2
        assert extset[certs.OID_SKI].index == 0

    def test_duplicates_found_in_either_order(self):
        _, codes = run_exts(certs.aki(), certs.ski(), certs.aki())
        assert Code.DUPLICATED_EXTENSION in codes
        _, codes = run_exts(certs.ski(), certs.aki(), certs.ski())
        assert Code.DUPLICATED_EXTENSION in codes

    def test_unknown_extension_kept_opaque(self):
        extset, codes = run_body("1.2.3.4.99", enc.octet_string(b"anything"))
        assert codes == []
        assert REG.lookup("extension", "1.2.3.4.99") is None
        assert extset["1.2.3.4.99"].body is None

    def test_explicit_noncritical_flagged(self):
        codes = codes_only(certs.OID_SKI, enc.octet_string(b"k"), critical=False)
        assert codes == [Code.DEFAULT_VALUE_ENCODED]

    def test_extn_value_must_be_primitive_octet_string(self):
        ext = enc.seq(enc.oid(certs.OID_SKI), enc.ia5("zz"))
        _, codes = run_exts(ext)
        assert codes == [Code.STRUCTURAL_MISMATCH]

    def test_entry_wrong_field_count(self):
        _, codes = run_exts(enc.seq(enc.oid(certs.OID_SKI)))
        assert codes == [Code.STRUCTURAL_MISMATCH]
        # An entry whose extnID does not decode is recorded and left out; a later entry still counts.
        extset, codes = run_exts(enc.seq(NON_MINIMAL_OID, enc.octet_string(b"x")), certs.ski())
        assert codes == [Code.WRONG_EXTN_ID]
        assert list(extset) == [certs.OID_SKI] and extset[certs.OID_SKI].index == 1

    def test_body_trailing_bytes_remapped(self):
        codes = codes_only(certs.OID_SKI, enc.octet_string(b"k") + b"\x00")
        assert codes == [Code.REDUNDANT_TRAILING_BYTES]
        # An overflow inside the body comes first, with or without an octet after it.
        body = enc.seq(b"\x30\x02\x04\x05", enc.null())
        for payload in (body, body + b"\x00"):
            doc = enc.ctx(3, enc.seq(certs.extension(certs.OID_SKI, payload)))
            ctx = WalkContext(REG)
            parse_extensions(parse_tlv_tree(doc), ctx, "exts")
            overflow_at = len(doc) - len(payload) + 4
            assert [(d.code, d.byte_offset, d.message) for d in ctx.diags] == [
                (Code.CHILD_OVERFLOW, overflow_at, "declared length 5 overruns parent extent")
            ]


class TestBodies:
    def test_ski(self):
        extset, codes = run_body(certs.OID_SKI, enc.octet_string(certs.KEYID))
        assert codes == []
        assert extset[certs.OID_SKI].body is None
        assert codes_only(certs.OID_SKI, enc.octet_string(b"")) == [Code.EMPTY_VALUE_FIELD]

    def test_aki_key_id_only(self):
        extset, codes = run_body(certs.OID_AKI, enc.seq(enc.ctx_prim(0, b"\x01\x02")))
        assert codes == []
        body = extset[certs.OID_AKI].body
        assert isinstance(body, AkiValue)
        assert body.key_id == b"\x01\x02"

    def test_aki_full_form(self):
        issuer = enc.ctx(1, enc.ctx_prim(2, b"ca.example.com"))
        body = enc.seq(enc.ctx_prim(0, b"\x01"), issuer, enc.ctx_prim(2, b"\x05"))
        _, codes = run_body(certs.OID_AKI, body)
        assert codes == []

    def test_aki_issuer_without_serial(self):
        body = enc.seq(enc.ctx(1, enc.ctx_prim(2, b"ca.example.com")))
        codes = codes_only(certs.OID_AKI, body)
        assert codes == [Code.MALFORMED_EXTENSION_BODY]

    def test_aki_fields_out_of_order(self):
        body = enc.seq(enc.ctx_prim(2, b"\x05"), enc.ctx_prim(0, b"\x01"))
        codes = codes_only(certs.OID_AKI, body)
        assert codes == [Code.MALFORMED_EXTENSION_BODY]

    def test_aki_empty_key_id(self):
        codes = codes_only(certs.OID_AKI, enc.seq(enc.ctx_prim(0, b"")))
        assert codes == [Code.EMPTY_VALUE_FIELD]

    def test_key_usage_bits(self):
        extset, codes = run_body(certs.OID_KU, enc.named_bit_string({0, 5}), critical=True)
        assert codes == []
        ku = extset[certs.OID_KU].body
        assert isinstance(ku, KeyUsageValue)
        assert 5 in ku.bits and 0 in ku.bits and 2 not in ku.bits

    def test_key_usage_decipher_only_bit8(self):
        extset, codes = run_body(certs.OID_KU, enc.named_bit_string({8}), critical=True)
        assert codes == []
        assert 8 in extset[certs.OID_KU].body.bits

    def test_key_usage_bit_out_of_range(self):
        codes = codes_only(certs.OID_KU, enc.named_bit_string({9}), critical=True)
        assert codes == [Code.MALFORMED_EXTENSION_BODY]

    def test_basic_constraints_values(self):
        extset, codes = run_body(certs.OID_BC, enc.seq(enc.boolean(True), enc.integer(3)), critical=True)
        assert codes == []
        bc = extset[certs.OID_BC].body
        assert isinstance(bc, BasicConstraintsValue)
        assert bc.ca and bc.path_len == 3

    def test_basic_constraints_explicit_false(self):
        codes = codes_only(certs.OID_BC, enc.seq(enc.boolean(False)), critical=True)
        assert codes == [Code.DEFAULT_VALUE_ENCODED]

    def test_basic_constraints_stray_field(self):
        codes = codes_only(certs.OID_BC, enc.seq(enc.boolean(True), enc.integer(3), enc.null()), critical=True)
        assert codes == [Code.MALFORMED_EXTENSION_BODY]

    def test_certificate_policies(self):
        cps = enc.seq(enc.oid(OID_CPS), enc.ia5("https://example.com/cps"))
        notice = enc.seq(enc.oid(OID_UNOTICE), enc.seq(enc.utf8("read me")))
        pi = enc.seq(enc.oid("2.23.140.1.2.1"), enc.seq(cps, notice))
        assert codes_only(OID_CP, enc.seq(pi)) == []
        # The policy identifier is decoded: a non-minimal arc is flagged.
        assert codes_only(OID_CP, enc.seq(enc.seq(NON_MINIMAL_OID))) == [Code.WRONG_OID]

    def test_certificate_policies_duplicate_policy(self):
        # RFC 5280 4.2.1.4: a policy OID appears at most once.
        first = enc.seq(enc.oid("2.23.140.1.2.1"))
        other = enc.seq(enc.oid("2.23.140.1.2.2"))
        wrapper = parse_tlv_tree(enc.ctx(3, enc.seq(certs.extension(OID_CP, enc.seq(first, other, first)))))
        ctx = WalkContext(REG)
        parse_extensions(wrapper, ctx, "exts")
        assert [(d.code, d.grammar_path, d.message) for d in ctx.diags] == [
            (Code.MALFORMED_EXTENSION_BODY, "exts[0].extnValue.policy[2]", "policy 2.23.140.1.2.1 named twice")
        ]
        third_oid = wrapper.raw.rindex(enc.oid("2.23.140.1.2.1"))
        assert ctx.diags[0].byte_offset == third_oid

    def test_certificate_policies_empty(self):
        codes = codes_only(OID_CP, enc.seq())
        assert codes == [Code.MALFORMED_EXTENSION_BODY]

    def test_certificate_policies_bad_cps(self):
        cps = enc.seq(enc.oid(OID_CPS), enc.ia5("not a uri"))
        pi = enc.seq(enc.oid("2.23.140.1.2.1"), enc.seq(cps))
        codes = codes_only(OID_CP, enc.seq(pi))
        assert codes == [Code.BAD_DNS_URI_EMAIL_FORMAT]

    def test_certificate_policies_unknown_qualifier(self):
        q = enc.seq(enc.oid("1.2.3.4"), enc.null())
        pi = enc.seq(enc.oid("2.23.140.1.2.1"), enc.seq(q))
        codes = codes_only(OID_CP, enc.seq(pi))
        assert codes == [Code.WRONG_OID]

    def test_user_notice_with_ref(self):
        ref = enc.seq(enc.utf8("Org"), enc.seq(enc.integer(1), enc.integer(2)))
        notice = enc.seq(enc.oid(OID_UNOTICE), enc.seq(ref, enc.utf8("text")))
        pi = enc.seq(enc.oid("2.23.140.1.2.1"), enc.seq(notice))
        assert codes_only(OID_CP, enc.seq(pi)) == []

    def test_policy_mappings(self):
        pair = enc.seq(enc.oid("1.2.3"), enc.oid("1.2.4"))
        assert codes_only(OID_PM, enc.seq(pair)) == []
        # Both members are decoded: a non-minimal arc in either is flagged.
        for bad in (enc.seq(NON_MINIMAL_OID, enc.oid("1.2.4")), enc.seq(enc.oid("1.2.3"), NON_MINIMAL_OID)):
            assert codes_only(OID_PM, enc.seq(bad)) == [Code.WRONG_OID]

    def test_policy_mappings_wrong_member(self):
        pair = enc.seq(enc.oid("1.2.3"), enc.integer(1))
        codes = codes_only(OID_PM, enc.seq(pair))
        assert codes == [Code.WRONG_OID]

    def test_issuer_alt_name(self):
        body = enc.seq(enc.ctx_prim(1, b"admin@example.com"))
        assert codes_only(OID_IAN, body) == []

    def test_subject_directory_attributes(self):
        attr = enc.seq(enc.oid("2.5.4.12"), enc.set_of(enc.utf8("Dr")))
        assert codes_only(OID_SDA, enc.seq(attr)) == []
        bad = enc.seq(enc.oid("2.5.4.12"), enc.set_of())
        assert codes_only(OID_SDA, enc.seq(bad)) == [Code.MALFORMED_EXTENSION_BODY]

    def test_name_constraints(self):
        subtree = enc.seq(enc.ctx_prim(2, b"example.com"))
        body = enc.seq(enc.ctx(0, subtree))
        assert codes_only(OID_NC, body, critical=True) == []

    def test_name_constraints_ip_with_mask(self):
        subtree = enc.seq(enc.ctx_prim(7, bytes(8)))
        body = enc.seq(enc.ctx(0, subtree))
        assert codes_only(OID_NC, body, critical=True) == []
        # Outside nameConstraints the same 8-octet address is malformed.
        assert codes_only(certs.OID_SAN, enc.seq(enc.ctx_prim(7, bytes(8)))) == [
            Code.BAD_DNS_URI_EMAIL_FORMAT
        ]

    def test_name_constraints_host_and_domain_forms(self):
        # RFC 5280 4.2.1.10: a URI constraint is a host or a .domain, an
        # rfc822Name constraint a mailbox, a host or a .domain.
        accepted = [
            (6, b".example.com"), (6, b"host.example.com"),
            (1, b"example.com"), (1, b".example.com"), (1, b"root@example.com"),
        ]
        rejected = [(6, b"http://example.com"), (6, b"."), (1, b"@example.com"), (1, b"..example.com")]
        for tag, text in accepted + rejected:
            body = enc.seq(enc.ctx(0, enc.seq(enc.ctx_prim(tag, text))))
            expected = [Code.BAD_DNS_URI_EMAIL_FORMAT] if (tag, text) in rejected else []
            assert codes_only(OID_NC, body, critical=True) == expected, text
        # Outside nameConstraints a URI and an rfc822Name keep their full syntax.
        for tag, text in ((6, b".example.com"), (1, b"example.com")):
            assert codes_only(certs.OID_SAN, enc.seq(enc.ctx_prim(tag, text))) == [Code.BAD_DNS_URI_EMAIL_FORMAT]

    def test_name_constraints_explicit_zero_minimum(self):
        subtree = enc.seq(enc.ctx_prim(2, b"example.com"), enc.ctx_prim(0, b"\x00"))
        body = enc.seq(enc.ctx(0, subtree))
        assert codes_only(OID_NC, body, critical=True) == [Code.DEFAULT_VALUE_ENCODED]

    def test_name_constraints_empty(self):
        assert codes_only(OID_NC, enc.seq(), critical=True) == [Code.MALFORMED_EXTENSION_BODY]

    def test_policy_constraints_fields(self):
        body = enc.seq(enc.ctx_prim(0, b"\x01"), enc.ctx_prim(1, b"\x02"))
        assert codes_only("2.5.29.36", body, critical=True) == []
        body = enc.seq(enc.ctx_prim(1, b"\x02"), enc.ctx_prim(0, b"\x01"))
        assert codes_only("2.5.29.36", body, critical=True) == [Code.MALFORMED_EXTENSION_BODY]

    def test_extended_key_usage(self):
        assert codes_only(certs.OID_EKU, enc.seq(enc.oid(certs.OID_KP_SERVER_AUTH))) == []
        # Each purpose is decoded: a non-minimal arc is flagged.
        assert codes_only(certs.OID_EKU, enc.seq(enc.oid(certs.OID_KP_SERVER_AUTH), NON_MINIMAL_OID)) == [
            Code.WRONG_OID
        ]

    def test_extended_key_usage_empty(self):
        assert codes_only(certs.OID_EKU, enc.seq()) == [Code.MALFORMED_EXTENSION_BODY]

    def test_crl_distribution_points(self):
        uri = enc.ctx_prim(6, b"http://crl.example.com/ca.crl")
        dp = enc.seq(enc.ctx(0, enc.ctx(0, uri)))
        assert codes_only(OID_CRL_DP, enc.seq(dp)) == []
        assert codes_only(OID_FRESHEST, enc.seq(dp)) == []

    def test_crl_dp_reasons_only(self):
        dp = enc.seq(enc.tlv(1, b"\x06\x40", tag_class="context"))
        codes = codes_only(OID_CRL_DP, enc.seq(dp))
        assert codes == [Code.MALFORMED_EXTENSION_BODY]

    def test_crl_dp_empty_point(self):
        assert codes_only(OID_CRL_DP, enc.seq(enc.seq())) == [Code.MALFORMED_EXTENSION_BODY]

    def test_crl_dp_name_relative_to_issuer_is_walked_as_an_rdn(self):
        def relative(*attributes: bytes) -> bytes:
            return enc.seq(enc.seq(enc.ctx(0, enc.ctx(1, *attributes))))

        cn = enc.seq(enc.oid(certs.OID_CN), enc.utf8("CRL"))
        ou = enc.seq(enc.oid("2.5.4.11"), enc.utf8("Ops"))
        assert codes_only(OID_CRL_DP, relative(cn, ou)) == []
        assert codes_only(OID_CRL_DP, relative()) == [Code.INVALID_DN]
        assert codes_only(OID_CRL_DP, relative(ou, cn)) == [Code.INVALID_DN]
        integer_type = relative(enc.seq(enc.integer(1), enc.null()))
        assert codes_only(OID_CRL_DP, integer_type) == [Code.INVALID_DN, Code.WRONG_STRING_TYPE]
        ctx = WalkContext(REG)
        parse_extensions(parse_tlv_tree(enc.ctx(3, enc.seq(certs.extension(OID_CRL_DP, relative())))), ctx, "exts")
        assert [d.grammar_path for d in ctx.diags] == ["exts[0].extnValue.point[0].nameRelativeToCRLIssuer"]

    def test_inhibit_any_policy(self):
        assert codes_only(OID_IAP, enc.integer(3), critical=True) == []
        assert codes_only(OID_IAP, enc.integer(-1), critical=True) == [Code.MALFORMED_EXTENSION_BODY]

    def test_info_access(self):
        ad = enc.seq(enc.oid(OID_OCSP), enc.ctx_prim(6, b"http://ocsp.example.com"))
        assert codes_only(certs.OID_AIA, enc.seq(ad)) == []
        assert codes_only(OID_SIA, enc.seq(ad)) == []

    def test_info_access_empty(self):
        assert codes_only(certs.OID_AIA, enc.seq()) == [Code.EMPTY_SEQUENCE_IN_INFO_ACCESS]

    def test_info_access_bad_description(self):
        ad = enc.seq(enc.oid(OID_OCSP))
        assert codes_only(certs.OID_AIA, enc.seq(ad)) == [Code.MALFORMED_EXTENSION_BODY]


class TestGeneralNames:
    def gn_codes(self, gn: bytes):
        return codes_only(certs.OID_SAN, enc.seq(gn))

    def test_all_good_kinds(self):
        other = enc.ctx(0, enc.oid("1.3.6.1.4.1.311.20.2.3"), enc.ctx(0, enc.utf8("u@d")))
        cases = [
            other,
            enc.ctx_prim(1, b"user@example.com"),
            enc.ctx_prim(2, b"www.example.com"),
            enc.ctx(3, enc.seq(enc.null())),
            enc.ctx(4, certs.name("Dir Name")),
            enc.ctx(5, enc.ctx(1, enc.utf8("party"))),
            enc.ctx_prim(6, b"https://example.com/x"),
            enc.ctx_prim(7, bytes(4)),
            enc.ctx_prim(7, bytes(16)),
            enc.ctx_prim(8, enc.oid("1.2.3.4")[2:]),
        ]
        for gn in cases:
            assert self.gn_codes(gn) == [], gn.hex()

    def test_non_context_tag(self):
        assert self.gn_codes(enc.ia5("x")) == [Code.MALFORMED_EXTENSION_BODY]

    def test_unknown_choice_tag(self):
        assert self.gn_codes(enc.ctx_prim(9, b"x")) == [Code.MALFORMED_EXTENSION_BODY]

    def test_other_name_needs_wrapped_value(self):
        bad = enc.ctx(0, enc.oid("1.2.3"), enc.utf8("bare"))
        assert self.gn_codes(bad) == [Code.MALFORMED_EXTENSION_BODY]

    def test_email_format(self):
        assert self.gn_codes(enc.ctx_prim(1, b"not-an-email")) == [Code.BAD_DNS_URI_EMAIL_FORMAT]

    def test_dns_format(self):
        assert self.gn_codes(enc.ctx_prim(2, b"-bad.example.com")) == [Code.BAD_DNS_URI_EMAIL_FORMAT]

    def test_uri_format(self):
        assert self.gn_codes(enc.ctx_prim(6, b"no-scheme-here")) == [Code.BAD_DNS_URI_EMAIL_FORMAT]

    def test_high_byte_in_dns(self):
        assert self.gn_codes(enc.ctx_prim(2, b"caf\xe9.example")) == [Code.CHAR_SET_VIOLATION]

    def test_nul_in_dns(self):
        assert self.gn_codes(enc.ctx_prim(2, b"a\x00b.example")) == [Code.CHAR_SET_VIOLATION]

    def test_ip_wrong_length(self):
        assert self.gn_codes(enc.ctx_prim(7, bytes(5))) == [Code.BAD_DNS_URI_EMAIL_FORMAT]

    def test_directory_name_inner_errors_surface(self):
        inner = enc.seq(enc.set_of(enc.seq(enc.oid("1.9.9.9"), enc.printable("x"))))
        assert self.gn_codes(enc.ctx(4, inner)) == [Code.WRONG_OID_IN_DN]

    def test_edi_party_name_needs_party(self):
        gn = enc.ctx(5, enc.ctx(0, enc.utf8("assigner")))
        assert self.gn_codes(gn) == [Code.MALFORMED_EXTENSION_BODY]

    @pytest.mark.parametrize(
        "tag, base", [(1, b"user@example.com"), (2, b"www.example.com"), (6, b"https://example.com/x")]
    )
    def test_ia5_choices_match_per_byte_reference(self, tag, base):
        # Every byte value at the first, a middle and the last position,
        # with the name behind a NULL so that offsets are not trivial.
        for position in (0, len(base) // 2, len(base) - 1):
            for b in range(256):
                content = base[:position] + bytes([b]) + base[position + 1 :]
                node = parse_tlv_tree(enc.seq(enc.null(), enc.ctx_prim(tag, content))).children[1]
                ctx = WalkContext(REG)
                parse_general_name(node, ctx, "gn")
                got = [(d.code, d.byte_offset, d.message) for d in ctx.diags]
                assert got == reference_general_name(node), (position, b)

    def test_newline_in_dns_name_rejects_the_leaf(self):
        for name in ("www\n.example.com", "www.example.com\n"):
            spec = certs.CertSpec(exts=(certs.aki(), certs.san([name])))
            report = lint_bytes(certs.build(spec))
            assert report.outcome == "rejected", name
            assert [d.code for d in report.diagnostics] == [Code.BAD_DNS_URI_EMAIL_FORMAT], name


# The syntax checks as they were before the compiled matchers: a split per
# label and one regex call per label, anchored with \Z rather than "$" so
# that a trailing newline does not pass.
_REF_LABEL = re.compile(r"[A-Za-z0-9](?:[A-Za-z0-9-]{0,61}[A-Za-z0-9])?\Z")
_REF_SCHEME = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*\Z")


def reference_dns_name(text: str) -> bool:
    if not text or len(text) > 253:
        return False
    return all(_REF_LABEL.match(label) for label in text.split("."))


def reference_email(text: str) -> bool:
    if text.count("@") != 1:
        return False
    local, domain = text.split("@")
    if not local or not reference_dns_name(domain):
        return False
    return all(0x21 <= ord(ch) <= 0x7E and ch != "@" for ch in local)


def reference_uri(text: str) -> bool:
    scheme, sep, rest = text.partition(":")
    if not sep or not rest:
        return False
    return bool(_REF_SCHEME.match(scheme))


def reference_general_name(node):
    """The per-byte IA5 loop parse_general_name ran before its compiled
    matcher: [(code, offset, message)]."""
    kind, valid = {
        1: ("rfc822Name", reference_email),
        2: ("dNSName", reference_dns_name),
        6: ("uniformResourceIdentifier", reference_uri),
    }[node.tag_number]
    content = node.content
    for i, b in enumerate(content):
        if b == 0x00 or b > 0x7F:
            return [(Code.CHAR_SET_VIOLATION, node.content_offset + i, f"byte 0x{b:02x} in {kind}")]
    text = content.decode("ascii")
    if not valid(text):
        return [(Code.BAD_DNS_URI_EMAIL_FORMAT, node.header_offset, f"malformed {kind}: {text!r}")]
    return []


def seeded_host_names(seed: int, count: int):
    """Strings over [A-Za-z0-9._-\\n ] with lengths near 1, the 63-octet
    label cap and the 253-octet name cap, from sparse to dense dots and noise."""
    rng = random.Random(seed)
    alnum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    for _ in range(count):
        length = rng.choice([rng.randint(1, 8), rng.randint(61, 66), rng.randint(125, 130), rng.randint(250, 256)])
        dots = rng.choice([0.0, 0.01, 0.03, 0.15])
        noise = rng.choice([0.0, 0.0, 0.003, 0.02])
        chars = []
        for _ in range(length):
            roll = rng.random()
            if roll < noise:
                chars.append(rng.choice("-_\n "))
            elif roll < noise + dots:
                chars.append(".")
            else:
                chars.append(rng.choice(alnum))
        yield "".join(chars)


class TestValidators:
    def test_dns(self):
        assert valid_dns_name("example.com")
        assert valid_dns_name("a-b.c0.example")
        assert valid_dns_name("x" * 63 + ".example")
        assert not valid_dns_name("")
        assert not valid_dns_name("x" * 64 + ".example")
        assert not valid_dns_name("-leading.example")
        assert not valid_dns_name("trailing-.example")
        assert not valid_dns_name("double..dot")
        assert not valid_dns_name("under_score.example")
        assert not valid_dns_name("spa ce.example")
        assert not valid_dns_name("a." * 130 + "example")

    def test_email(self):
        assert valid_email("user@example.com")
        assert valid_email("a.b+c@sub.example.org")
        assert not valid_email("userexample.com")
        assert not valid_email("a@b@c.example")
        assert not valid_email("@example.com")
        assert not valid_email("user@")
        assert not valid_email("us er@example.com")

    def test_uri(self):
        assert valid_uri("https://example.com/")
        assert valid_uri("ldap://host/dc=example")
        assert valid_uri("urn:ietf:rfc:5280")
        assert not valid_uri("example.com/path")
        assert not valid_uri("https:")
        assert not valid_uri("1http://x")

    def test_newline_is_not_a_line_end(self):
        assert not valid_dns_name("foo\n.example.com")
        assert not valid_dns_name("example.com\n")
        assert not valid_uri("http\n:x")
        assert not valid_email("a@b\n.com")

    def test_match_split_per_label_reference(self):
        outcomes = {True: 0, False: 0}
        for text in seeded_host_names(0xD25, 4000):
            expected = reference_dns_name(text)
            outcomes[expected] += 1
            assert valid_dns_name(text) == expected, repr(text)
            at = text[:5] + "@" + text[5:]
            assert valid_email(at) == reference_email(at), repr(at)
            colon = text[:5] + ":" + text[5:]
            assert valid_uri(colon) == reference_uri(colon), repr(colon)
        assert min(outcomes.values()) >= 1000, outcomes


def _strings(alphabet: str, longest: int) -> list[str]:
    """Every string over alphabet of at most longest characters, shortest first."""
    return ["".join(chars) for size in range(longest + 1) for chars in itertools.product(alphabet, repeat=size)]


def _long_labels_and_names():
    """Labels of 62-65 octets, alone and between other labels, and names of 252-255 octets."""
    texts = []
    for size in range(62, 66):
        for label in ("a" * size, "0" + "-" * (size - 2) + "a", "a" * (size - 1) + "-", "-" + "a" * (size - 1)):
            texts += [label, "x." + label, label + ".y", "x." + label + ".y", label + "." + label]
    for size in range(252, 256):
        for last in range(1, 66):
            # Labels of 62 octets up to the last one's dot; a cut that ends on a dot ends on a 63rd octet instead.
            head = ("a" * 62 + ".") * 5
            head = head[: size - last - 1]
            head = head[:-1] + "b" if head.endswith(".") else head
            texts += [f"{head}.{'c' * last}", f"{head}.{'c' * (last - 1)}-"]
    return texts


def _sequence_children(elements: list[bytes]):
    """The nodes of elements, parsed as the children of one SEQUENCE over a single buffer."""
    return parse_tlv_tree(enc.seq(*elements)).children


class TestPatternsMatchTheirReferences:
    """The compiled patterns accept exactly what their references accept: host names at every label and name cap
    against a split per label, and OID contents against decode_oid."""

    @pytest.mark.parametrize("build", [lambda: _strings("a0-.", 8), _long_labels_and_names], ids=["short", "long"])
    def test_validators_and_in_place_check(self, build):
        texts = build()
        dns = _sequence_children([enc.ctx_prim(2, text.encode()) for text in texts])
        mail = _sequence_children([enc.ctx_prim(1, b"u@" + text.encode()) for text in texts])
        outcomes = {True: 0, False: 0}
        for text, dns_node, mail_node in zip(texts, dns, mail):
            expected = reference_dns_name(text)
            outcomes[expected] += 1
            assert valid_dns_name(text) == expected, text
            assert valid_email("u@" + text) == expected, text
            assert _plain_name(dns_node) == expected, text
            # The in-place check caps the whole content, "u@" and the name, at 253 octets.
            assert _plain_name(mail_node) == (expected and len(text) <= 251), text
        assert min(outcomes.values()) >= 50, outcomes

    def test_oid_check_accepts_what_decode_oid_accepts_in_short_sub_identifiers(self):
        # Every content of up to 2 octets, then every content of 3-6 octets over the edges of the base-128 form.
        edges = b"\x00\x01\x7f\x80\x81\xc0\xff"
        contents = [bytes(octets) for size in range(3) for octets in itertools.product(range(256), repeat=size)]
        contents += [bytes(octets) for size in range(3, 7) for octets in itertools.product(edges, repeat=size)]
        outcomes = {True: 0, False: 0}
        for content, node in zip(contents, _sequence_children([enc.raw_oid(content) for content in contents])):
            try:
                decode_oid(node)
            except RecognitionError:
                expected = False
            else:
                # plain_oid stops at sub-identifiers of 4 octets; a 5-octet one takes the full decode.
                expected = max(map(len, re.findall(rb"[\x80-\xff]*[\x00-\x7f]", content))) <= 4
            outcomes[expected] += 1
            assert plain_oid(node) == expected, content.hex()
        assert min(outcomes.values()) >= 10_000, outcomes


def ia5_name_contents(rng: random.Random, tag: int):
    """Edge cases and seeded mutations of IA5 GeneralName contents for one tag."""
    label63, label64 = b"a" * 63, b"b" * 64
    host253 = b".".join([label63, label63, label63, b"c" * 61])
    hosts = [b"", b"a", label63, label64, host253, host253 + b"d", b"x." + label64, b"-a.example", b"a..b"]
    if tag == 2:
        edges = hosts
    elif tag == 1:
        edges = [b"user@" + h for h in hosts] + [b"user" + hosts[1], b"a@b@example.com", b"@example.com"]
        domain = host253[:200]
        edges += [b"u" * 52 + b"@" + domain, b"u" * 53 + b"@" + domain]  # 253 and 254 octets
    else:
        edges = [b"http:", b"h:x", b"http://" + host253[:246], b"http://" + host253[:247], b"1http://x", b":x"]
        edges += [b"urn:" + bytes(range(1, 128)), b"http" + host253]
    special = [b"\x00", b"\x7f", b"\x80", b"\xff", b"\n", b"@", b":", b".", b"-", b" ", b"a"]
    base = {1: b"user.name+tag@mail.example.com", 2: b"www.example.com", 6: b"https://example.com/a?b=c"}[tag]
    yield from edges
    for _ in range(1500):
        content = bytearray(rng.choice(edges[1:] + [base] * 4))
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            content.insert(rng.randint(0, len(content)), rng.choice(special)[0])
        if content and rng.random() < 0.2:
            del content[rng.randrange(len(content))]
        yield bytes(content)


class TestPlainName:
    """_plain_name, the in-place check every GeneralNames loop runs before parse_general_name."""

    @pytest.mark.parametrize(
        "tag, valid", [(1, valid_email), (2, valid_dns_name), (6, valid_uri)], ids=["rfc822", "dns", "uri"]
    )
    def test_true_exactly_when_the_ia5_check_and_the_validator_accept(self, tag, valid):
        # Within the 253-octet cap; a longer name always takes parse_general_name's full check.
        outcomes = {True: 0, False: 0}
        for content in ia5_name_contents(random.Random(0x8A5 + tag), tag):
            # Octets past the name's end bound must not count: a "\n" or a label there changes no verdict.
            encoded = enc.ctx_prim(tag, content)
            node = parse_tlv_tree(encoded + b"\n.example", 0, len(encoded))
            ia5 = all(0 < b < 0x80 for b in content)
            expected = len(content) <= 253 and ia5 and valid(content.decode("ascii"))
            outcomes[expected] += 1
            assert _plain_name(node) == expected, content
            if expected:
                ctx = WalkContext(REG)
                parse_general_name(node, ctx, "gn")
                assert ctx.diags == [], content
        assert min(outcomes.values()) >= 200, outcomes

    def test_other_shapes_take_the_full_check(self):
        others = [
            enc.ctx(2, enc.ia5("www.example.com")),
            enc.tlv(2, b"www.example.com"),
            enc.ctx_prim(7, b"www."),
            enc.ctx_prim(8, b"www.example.com"),
        ]
        for data in others:
            assert not _plain_name(parse_tlv_tree(data)), data.hex()


class TestGeneralNameDiagnostics:
    def test_exact_diagnostics_among_many_plain_names(self, monkeypatch):
        names = []
        for i in range(200):
            kind = i % 3
            if kind == 0:
                names.append(enc.ctx_prim(2, b"host%d.example.com" % i))
            elif kind == 1:
                names.append(enc.ctx_prim(1, b"user%d@example.org" % i))
            else:
                names.append(enc.ctx_prim(6, b"https://example.net/%d" % i))
        names[150] = enc.ctx_prim(2, b"host150.ex\xe9mple.com")
        names[151] = enc.ctx_prim(2, b"-host151.example.com")
        good_uri = enc.ctx_prim(6, b"http://crl.example.com/ca.crl")
        bad_crl = enc.ctx_prim(6, b"crl.example.com/ca.crl")
        dp = enc.seq(enc.ctx(0, enc.ctx(0, good_uri, bad_crl)))
        ocsp = enc.seq(enc.oid(OID_OCSP), enc.ctx_prim(6, b"http://ocsp.example.com"))
        bad_issuers = enc.ctx_prim(6, b"ca.example.com/ca.crt")
        ca_issuers = enc.seq(enc.oid("1.3.6.1.5.5.7.48.2"), bad_issuers)
        exts = (
            certs.aki(),
            certs.extension(certs.OID_SAN, enc.seq(*names)),
            certs.extension(OID_CRL_DP, enc.seq(dp)),
            certs.extension(certs.OID_AIA, enc.seq(ocsp, ca_issuers)),
        )
        data = certs.build(certs.CertSpec(exts=exts))

        walked = []

        def counted(node, ctx, path, in_name_constraints=False):
            walked.append(path)
            return parse_general_name(node, ctx, path, in_name_constraints)

        monkeypatch.setattr("derlint.extensions.parse_general_name", counted)
        report = lint_bytes(data)
        ext = "tbsCertificate.extensions"
        got = [(d.code, d.byte_offset, d.grammar_path, d.message) for d in report.diagnostics]
        assert got == [
            (
                Code.CHAR_SET_VIOLATION,
                data.index(b"host150.ex") + 10,
                f"{ext}[1].extnValue.name[150]",
                "byte 0xe9 in dNSName",
            ),
            (
                Code.BAD_DNS_URI_EMAIL_FORMAT,
                data.index(names[151]),
                f"{ext}[1].extnValue.name[151]",
                "malformed dNSName: '-host151.example.com'",
            ),
            (
                Code.BAD_DNS_URI_EMAIL_FORMAT,
                data.index(bad_crl),
                f"{ext}[2].extnValue.point[0].fullName[1]",
                "malformed uniformResourceIdentifier: 'crl.example.com/ca.crl'",
            ),
            (
                Code.BAD_DNS_URI_EMAIL_FORMAT,
                data.index(bad_issuers),
                f"{ext}[3].extnValue.accessDescription[1]",
                "malformed uniformResourceIdentifier: 'ca.example.com/ca.crt'",
            ),
        ]
        # The 198 good SAN names, the good fullName and the OCSP location are matched in place and walk nothing.
        assert walked == [d[2] for d in got]


class TestUsageRules:
    def run_rules(self, exts: tuple[bytes, ...], family: str = "rsa"):
        wrapper = parse_tlv_tree(enc.ctx(3, enc.seq(*exts)))
        ctx = WalkContext(REG)
        extset = parse_extensions(wrapper, ctx, "exts")
        check_key_usage_rules(extset, family, ctx, "exts")
        return [d.code for d in ctx.diags]

    def test_cert_sign_without_bc(self):
        codes = self.run_rules((certs.aki(), certs.ski(), certs.key_usage({5})))
        assert codes == [Code.KEY_CERT_SIGN_WITHOUT_BASIC_CONSTRAINTS]

    def test_cert_sign_with_proper_bc(self):
        codes = self.run_rules(
            (certs.aki(), certs.ski(), certs.key_usage({5}), certs.basic_constraints(ca=True))
        )
        assert codes == []

    def test_cert_sign_in_leaf(self):
        codes = self.run_rules(
            (certs.aki(), certs.ski(), certs.key_usage({5}), certs.basic_constraints())
        )
        assert codes == [Code.KEY_CERT_SIGN_IN_LEAF]

    def test_ca_without_ski(self):
        codes = self.run_rules((certs.aki(), certs.basic_constraints(ca=True)))
        assert codes == [Code.MISSING_SUBJECT_KEY_ID]

    def test_non_critical_ca_with_pathlen(self):
        codes = self.run_rules(
            (certs.aki(), certs.ski(), certs.basic_constraints(ca=True, pathlen=1, critical=None))
        )
        assert set(codes) == {Code.NOT_CRITICAL_BASIC_CONSTRAINTS, Code.PATH_LEN_IN_NON_CRITICAL_BC}

    def test_pathlen_in_leaf(self):
        codes = self.run_rules((certs.aki(), certs.basic_constraints(pathlen=0)))
        assert codes == [Code.PATH_LEN_IN_LEAF]

    def test_family_restrictions(self):
        # Agreement-only families cannot sign; signing families cannot encipher.
        assert self.run_rules((certs.aki(), certs.key_usage({0})), family="dh") == [
            Code.KEY_USAGE_VIOLATION_ON_PK_ALGORITHM
        ]
        assert self.run_rules((certs.aki(), certs.key_usage({2})), family="ec") == [
            Code.KEY_USAGE_VIOLATION_ON_PK_ALGORITHM
        ]
        assert self.run_rules((certs.aki(), certs.key_usage({0, 4})), family="ec") == []
        assert self.run_rules((certs.aki(), certs.key_usage({4})), family="dh") == []
        assert self.run_rules((certs.aki(), certs.key_usage({0, 2, 4})), family="rsa") == []

    def test_unknown_family_unrestricted(self):
        assert self.run_rules((certs.aki(), certs.key_usage({0})), family=None) == []


class TestOidNaming:
    """WalkContext.oid names all-ASCII content from its octets; every outcome must be decode_oid's."""

    EMPTY = Registry()  # names no OID, so by_der stays empty and every call names its OID afresh

    def outcomes(self, content: bytes):
        """(decode_oid's outcome, WalkContext.oid's): the dotted text, or the diagnostic's fields."""
        node = parse_tlv_tree(enc.seq(enc.null(), enc.raw_oid(content))).children[1]
        try:
            want = dotted(decode_oid(node))
        except RecognitionError as err:
            want = [(err.code, err.offset, "slot", err.message)]
        ctx = WalkContext(self.EMPTY)
        got = ctx.oid(node, "slot")
        return want, [(d.code, d.byte_offset, d.grammar_path, d.message) for d in ctx.diags] if got is None else got

    def test_ascii_contents_named_as_decoded(self):
        rng = random.Random(0x01D)
        contents = [bytes([a]) for a in range(128)] + [bytes([a, b]) for a in range(128) for b in range(128)]
        contents += [bytes(rng.randrange(128) for _ in range(rng.randrange(3, 25))) for _ in range(2000)]
        for content in contents:
            want, got = self.outcomes(content)
            assert isinstance(got, str) and got == want, content.hex()

    def test_other_contents_keep_the_decoder_diagnostic(self):
        rng = random.Random(0x01E)
        contents = [
            b"",  # EMPTY_VALUE_FIELD
            b"\x80\x01",  # leading 0x80 in the first sub-identifier
            b"\x2a\x80\x03",  # leading 0x80 in a later one
            b"\x2a" + enc.encode_base128(1 << 35),  # arc overflow
            b"\x55\x1d\x83",  # truncated: the last octet continues
            enc.encode_oid_arcs([1, 2, 840, 113549, 1, 1, 11]),  # well formed, multi-octet arcs
        ]
        for _ in range(3000):
            content = bytearray(rng.randrange(256) for _ in range(rng.randrange(1, 12)))
            content[rng.randrange(len(content))] |= 0x80
            contents.append(bytes(content))
        texts = 0
        for content in contents:
            want, got = self.outcomes(content)
            assert got == want, content.hex()
            texts += isinstance(got, str)
        assert 100 < texts < len(contents) - 100


class TestSilentEntryMemo:
    """Registry.silent_extensions gives a repeated silent entry what its walk gave, and stays inside its caps."""

    @staticmethod
    def walk(reg: Registry, *ext_bytes: bytes):
        ctx = WalkContext(reg)
        extset = parse_extensions(parse_tlv_tree(enc.ctx(3, enc.seq(*ext_bytes))), ctx, "exts")
        return extset, ctx.diags

    def test_body_values_are_frozen(self):
        aki, ku, bc = AkiValue(b"\x01"), KeyUsageValue(frozenset({0})), BasicConstraintsValue(True, 0)
        for value, name in ((aki, "key_id"), (ku, "bits")):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        with pytest.raises(AttributeError):
            bc.ca = False
        assert (aki.key_id, ku.bits, bc.ca, bc.path_len) == (b"\x01", frozenset({0}), True, 0)

    def test_a_hit_gives_what_the_walk_gave(self):
        reg = load_registry()
        block = (
            certs.aki(),
            certs.extension(certs.OID_KU, enc.named_bit_string({0, 5}), critical=True),
            certs.extension(certs.OID_BC, enc.seq(enc.boolean(True), enc.integer(0)), critical=True),
            certs.extension(certs.OID_EKU, enc.seq(enc.oid(certs.OID_KP_SERVER_AUTH))),
        )
        cold, diags = self.walk(reg, *block)
        assert diags == [] and len(reg.silent_extensions) == 4
        warm, diags = self.walk(reg, *block)
        assert diags == [] and len(reg.silent_extensions) == 4
        assert list(warm) == list(cold)
        for oid_str, entry in warm.items():
            was = cold[oid_str]
            assert (entry.index, entry.critical, entry.body, entry.node.raw) == (
                was.index, was.critical, was.body, was.node.raw
            )
            assert entry.node is not was.node
        # A hit keeps the duplicate check, which runs per document.
        _, diags = self.walk(reg, block[1], block[1])
        assert [d.code for d in diags] == [Code.DUPLICATED_EXTENSION]

    def test_only_short_silent_entries_are_admitted(self):
        reg = load_registry()
        sizes = set()
        for n in range(1, 100):
            ext = certs.extension(certs.OID_SKI, enc.octet_string(bytes([n]) * n))
            size = parse_tlv_tree(ext).content_length
            sizes.add(size)
            reg.silent_extensions.clear()
            assert self.walk(reg, ext)[1] == []
            assert (ext in reg.silent_extensions) == (size <= _MEMO_MAX_CONTENT), size
        assert {_MEMO_MAX_CONTENT, _MEMO_MAX_CONTENT + 1} <= sizes
        noisy = certs.extension(certs.OID_SKI, enc.octet_string(b""))
        assert [d.code for d in self.walk(reg, noisy)[1]] == [Code.EMPTY_VALUE_FIELD]
        assert [d.code for d in self.walk(reg, noisy)[1]] == [Code.EMPTY_VALUE_FIELD]
        assert noisy not in reg.silent_extensions

    def test_count_cap_empties_the_memo(self):
        reg = load_registry()
        memo = reg.silent_extensions
        sizes = []
        for k in range(3 * _MEMO_MAX_ENTRIES):
            ext = certs.extension(certs.OID_SKI, enc.octet_string(k.to_bytes(2, "big")))
            assert self.walk(reg, ext)[1] == []
            sizes.append(len(memo))
            assert ext in memo
            assert all(parse_tlv_tree(key).content_length <= _MEMO_MAX_CONTENT for key in memo)
        assert max(sizes) == _MEMO_MAX_ENTRIES
        assert sizes.count(1) == 3

    def test_two_threads_sharing_a_registry_get_the_single_threaded_reports(self, monkeypatch):
        def report(data, reg):
            r = lint_bytes(data, "doc", LintOptions(fmt="der", timing=False, registry=reg))
            return r.outcome, [(d.code, d.byte_offset, d.grammar_path, d.message) for d in r.diagnostics]

        documents = [f.data for f in certs.planted_fixtures()] + [certs.ca_cert_accepted()]
        want = [report(data, load_registry()) for data in documents]
        shared = load_registry()
        # A small count cap makes the threads empty the memo while the other one reads it.
        monkeypatch.setattr(derlint.extensions, "_MEMO_MAX_ENTRIES", 8)
        got: dict[int, list] = {0: [], 1: []}
        errors = []

        def run(which):
            try:
                order = list(range(len(documents)))
                for _ in range(4):
                    for i in order if which == 0 else reversed(order):
                        got[which].append((i, report(documents[i], shared)))
            except Exception as exc:  # reported below, with the thread that raised it
                errors.append((which, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(which,)) for which in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for which in (0, 1):
            assert len(got[which]) == 4 * len(documents)
            for i, result in got[which]:
                assert result == want[i], (which, i)
