"""Certificate extension recognition, and the context every walk shares.

The extension block is the part of a certificate that regular or
context-free machinery cannot finish alone: each extnValue is an OCTET
STRING whose payload must itself parse under the grammar selected by the
extnID.  Payload parsing therefore re-enters the structural layer on the
extnValue content, in place in the whole document, so body nodes and
their diagnostics carry absolute offsets.  The outer walk deliberately
does not require extension OIDs to be unique while scanning; uniqueness
is a separate post-check so a duplicated extension is reported as
exactly that instead of a generic shape mismatch.

parse_extensions returns the first entry for each extnID, keyed by its
dotted OID.  All bodies listed in the extension registry are parsed in
full; unknown extnIDs keep their payload opaque.  Each entry keeps its
critical flag, and whether the registry knows an extnID is
reg.lookup("extension", oid), so a caller can decide what an
unrecognized critical extension means.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial

from .der import TlvNode, parse_tlv_tree
from .diagnostics import Code, Diagnostic, RecognitionError, diag
from .names import parse_name, parse_rdn
from .registry import Registry
from .values import (
    TAG_BIT_STRING,
    TAG_BMP_STRING,
    TAG_BOOLEAN,
    TAG_IA5_STRING,
    TAG_INTEGER,
    TAG_OCTET_STRING,
    TAG_OID,
    TAG_SEQUENCE,
    TAG_SET,
    TAG_UTF8_STRING,
    TAG_VISIBLE_STRING,
    _OUTSIDE_ALPHABET,
    decode_bit_string,
    decode_boolean,
    decode_integer,
    decode_oid,
    dotted,
    validate_charset,
)

OID_AUTHORITY_KEY_IDENTIFIER = "2.5.29.35"
OID_SUBJECT_KEY_IDENTIFIER = "2.5.29.14"
OID_KEY_USAGE = "2.5.29.15"
OID_SUBJECT_ALT_NAME = "2.5.29.17"
OID_BASIC_CONSTRAINTS = "2.5.29.19"

_OID_QT_CPS = "1.3.6.1.5.5.7.2.1"
_OID_QT_UNOTICE = "1.3.6.1.5.5.7.2.2"

KEY_USAGE_BITS = (
    "digitalSignature",
    "nonRepudiation",
    "keyEncipherment",
    "dataEncipherment",
    "keyAgreement",
    "keyCertSign",
    "cRLSign",
    "encipherOnly",
    "decipherOnly",
)
BIT_KEY_CERT_SIGN = 5

# Key usage bits a public key algorithm family cannot honor.
_FORBIDDEN_USAGE = {
    "rsa": frozenset(),
    "dh": frozenset({0, 1, 5, 6}),
    "kea": frozenset({0, 1, 5, 6}),
    "dsa": frozenset({2, 3}),
    "ec": frozenset({2, 3}),
    "gost": frozenset({2, 3}),
}

_REASON_FLAG_COUNT = 9  # ReasonFlags named bits

_DISPLAY_TEXT_TAGS = frozenset(
    {TAG_IA5_STRING, TAG_VISIBLE_STRING, TAG_BMP_STRING, TAG_UTF8_STRING}
)

# The codes an accepted walk passes, bound once: a Code.X read costs over ten global reads (EnumType.__getattr__).
_MISMATCH, _MALFORMED_BODY, _WRONG_EXTN_ID = Code.STRUCTURAL_MISMATCH, Code.MALFORMED_EXTENSION_BODY, Code.WRONG_EXTN_ID
_WRONG_OID, _EMPTY_NAMES, _EMPTY_ACCESS = Code.WRONG_OID, Code.EMPTY_GENERAL_NAMES, Code.EMPTY_SEQUENCE_IN_INFO_ACCESS

# The text of a one-octet sub-identifier, by its value: the first one folds two arcs, a later one adds ".N".
_FIRST_ARCS = tuple(f"{min(v // 40, 2)}.{v - 40 * min(v // 40, 2)}" for v in range(128))
_LATER_ARCS = tuple(f".{v}" for v in range(128))


class WalkContext:
    """What one certificate walk shares: the registry and the diagnostic sink.

    Every node the walk sees, payload nodes included, carries absolute
    offsets into the whole document, so a diagnostic keeps the offset it
    was found at.  add() is the one way the walk records a diagnostic;
    expect() records a node whose tag is not the slot's universal tag, and
    decode(), oid() and payload() turn a decoder's or a re-entered payload's
    RecognitionError into one.
    """

    __slots__ = ("reg", "diags")

    def __init__(self, reg: Registry):
        self.reg = reg
        self.diags: list[Diagnostic] = []

    def add(self, code: Code, at: TlvNode | int | None, path: str, message: str = "") -> None:
        """Record a diagnostic at a node's header, at an offset, or nowhere (None)."""
        offset = at.header_offset if isinstance(at, TlvNode) else at
        self.diags.append(diag(code, path=path, offset=offset, message=message))

    def expect(self, code: Code, node: TlvNode, tag: int, constructed: bool, path: str, what: str) -> bool:
        """True when node carries the universal tag; otherwise records "{what}, found {its tag}" and returns False.

        The test is node.is_universal(tag, constructed) written out: one call less at most nodes of a walk.
        """
        if node.tag_number == tag and node.constructed == constructed and node.tag_class == "universal":
            return True
        self.add(code, node, path, f"{what}, found {node.describe_tag()}")
        return False

    def decode(self, fn, node, path: str, *args, **kwargs):
        """fn(node, ...), or None after recording its error.

        No decoder returns None, so None marks the failure.
        """
        try:
            return fn(node, *args, **kwargs)
        except RecognitionError as err:
            self.add(err.code, err.offset, path, err.message)
            return None

    def oid(self, node: TlvNode, path: str, wrong_oid: Code = _WRONG_OID) -> str | None:
        """The dotted form of an OID node, or None after recording its error.

        A non-minimal arc (WRONG_OID) is recorded as the slot's wrong_oid
        code.  A registered OID is decoded once per registry: its content
        octets then name it through the registry's by_der table.  In
        non-empty all-ASCII content each octet is one whole sub-identifier,
        which no decoder error can befall, so the text is built from the
        octets; any other content goes through decode_oid and its errors.
        """
        content = node.content
        text = self.reg.by_der.get(content)
        if text is None:
            if content.isascii() and content:
                text = _FIRST_ARCS[content[0]] + "".join(map(_LATER_ARCS.__getitem__, content[1:]))
            else:
                try:
                    text = dotted(decode_oid(node))
                except RecognitionError as err:
                    self.add(wrong_oid if err.code is _WRONG_OID else err.code, err.offset, path, err.message)
                    return None
            if text in self.reg.oids:
                self.reg.by_der[content] = text
        return text

    def payload(self, node: TlvNode, skip: int, path: str, fallback: Code | None = None) -> TlvNode | None:
        """Parse the DER element carried in node's content after skip octets.

        Leftover octets become REDUNDANT_TRAILING_BYTES; any other
        structural error becomes the slot's fallback code, or keeps its
        own code when there is none, and keeps its own message.
        """
        end = node.content_offset + node.content_length
        try:
            return parse_tlv_tree(node.buffer, node.content_offset + skip, end)
        except RecognitionError as err:
            if err.code is Code.TRAILING_BYTES:
                code = Code.REDUNDANT_TRAILING_BYTES
            else:
                code = fallback or err.code
            self.add(code, err.offset, path, err.message)
            return None


@dataclass
class KeyUsageValue:
    bits: frozenset[int]


@dataclass
class BasicConstraintsValue:
    ca: bool = False
    path_len: int | None = None


@dataclass
class AkiValue:
    key_id: bytes | None = None


@dataclass
class ExtensionEntry:
    index: int
    critical: bool
    node: TlvNode
    body: object | None = None


def parse_extensions(
    wrapper: TlvNode,
    ctx: WalkContext,
    path: str = "tbsCertificate.extensions",
) -> dict[str, ExtensionEntry] | None:
    """Parse the [3] EXPLICIT extensions wrapper into the first entry for each extnID.

    Returns None when the wrapper itself has the wrong shape.  Individual
    extension entries that fail to parse, or whose extnID does not
    decode, are recorded and left out; the rest of the block is still
    examined.
    """
    if len(wrapper.children) != 1 or not wrapper.children[0].is_universal(TAG_SEQUENCE, True):
        ctx.add(_MISMATCH, wrapper, path, "extensions wrapper must hold exactly one SEQUENCE")
        return None
    seq = wrapper.children[0]
    out: dict[str, ExtensionEntry] = {}
    if not seq.children:
        ctx.add(Code.EMPTY_EXTENSION_SEQUENCE, seq, path)
        return out
    found = [_parse_extension_entry(node, i, ctx, f"{path}[{i}]") for i, node in enumerate(seq.children)]
    # Uniqueness is checked over the finished scan: the first occurrence of
    # each OID is kept, and the second and later ones are reported.
    for oid_str, e in filter(None, found):
        if out.setdefault(oid_str, e) is not e:
            ctx.add(
                Code.DUPLICATED_EXTENSION, e.node, f"{path}[{e.index}]", f"extension {oid_str} appears more than once"
            )
    return out


def _parse_extension_entry(node: TlvNode, index: int, ctx: WalkContext, path: str) -> tuple[str, ExtensionEntry] | None:
    """(extnID, entry), or None when the entry has the wrong shape or its extnID does not decode."""
    if not ctx.expect(_MISMATCH, node, TAG_SEQUENCE, True, path, "extension must be a SEQUENCE"):
        return None
    kids = node.children
    if not 2 <= len(kids) <= 3:
        ctx.add(_MISMATCH, node, path, f"extension with {len(kids)} fields")
        return None

    oid_str: str | None = None
    id_path = f"{path}.extnID"
    if ctx.expect(_WRONG_EXTN_ID, kids[0], TAG_OID, False, id_path, "extnID must be an OID"):
        oid_str = ctx.oid(kids[0], id_path, wrong_oid=_WRONG_EXTN_ID)

    critical = False
    value_node = kids[-1]
    if len(kids) == 3:
        sub = f"{path}.critical"
        if not ctx.expect(_MISMATCH, kids[1], TAG_BOOLEAN, False, sub, "critical must be a BOOLEAN"):
            return None
        critical = ctx.decode(decode_boolean, kids[1], sub)
        if critical is False:
            ctx.add(Code.DEFAULT_VALUE_ENCODED, kids[1], sub, "critical FALSE explicitly encoded")

    body_path = f"{path}.extnValue"
    what = "extnValue must be a primitive OCTET STRING"
    if not ctx.expect(_MISMATCH, value_node, TAG_OCTET_STRING, False, body_path, what):
        return None

    body = None
    if value_node.content_length == 0:
        ctx.add(Code.EMPTY_VALUE_FIELD, value_node, body_path, "empty extnValue")
    elif oid_str is not None and (grammar := ctx.reg.lookup("extension", oid_str)) is not None:
        body_root = ctx.payload(value_node, 0, body_path)
        if body_root is not None:
            body = _BODY_PARSERS[grammar](body_root, ctx, body_path)
    return None if oid_str is None else (oid_str, ExtensionEntry(index, bool(critical), node, body))


def _expect(ctx: WalkContext, node: TlvNode, tag: int, constructed: bool, what: str, path: str) -> bool:
    """ctx.expect under MALFORMED_EXTENSION_BODY, its message formatted only when the tag is wrong."""
    if node.tag_number == tag and node.constructed == constructed and node.tag_class == "universal":
        return True
    shape = "constructed" if constructed else "primitive"
    ctx.add(_MALFORMED_BODY, node, path, f"{what}: expected {shape} tag {tag}, found {node.describe_tag()}")
    return False


def _elements(
    ctx: WalkContext, node: TlvNode, what: str, path: str, on_empty: str, code: Code = _MALFORMED_BODY
) -> list[TlvNode] | None:
    """The children of a non-empty SEQUENCE, or None after recording _expect's diagnostic or on_empty."""
    if not _expect(ctx, node, TAG_SEQUENCE, True, what, path):
        return None
    if not node.children:
        ctx.add(code, node, path, on_empty)
        return None
    return node.children


def _tagged_fields(ctx: WalkContext, fields, what: str, max_tag: int, constructed: bool | None, path: str):
    """Yield the context-tagged fields [0..max_tag] of what, in ascending tag order.

    A field of another class, with a higher tag, with the wrong constructed
    bit (constructed=None accepts either) or out of order is recorded, and
    yields None: the caller stops there.
    """
    last = -1
    for child in fields:
        if child.tag_class != "context" or child.tag_number > max_tag or constructed not in (None, child.constructed):
            ctx.add(_MALFORMED_BODY, child, path, f"unexpected field {child.describe_tag()} in {what}")
            yield None
            return
        if child.tag_number <= last:
            ctx.add(_MALFORMED_BODY, child, path, f"{what} fields out of order or repeated")
            yield None
            return
        last = child.tag_number
        yield child


def _non_negative(ctx: WalkContext, node: TlvNode, path: str, what: str) -> int | None:
    """The INTEGER's value, or None after recording its error; a value below zero is also recorded."""
    value = ctx.decode(decode_integer, node, path)
    if value is not None and value < 0:
        ctx.add(_MALFORMED_BODY, node, path, f"negative {what} {value}")
    return value


# --- individual bodies ------------------------------------------------------
#
# Each body parser takes the payload root, the walk context and the
# extnValue path.


def _body_subject_key_identifier(root: TlvNode, ctx: WalkContext, path: str) -> None:
    if _expect(ctx, root, TAG_OCTET_STRING, False, "subjectKeyIdentifier", path) and root.content_length == 0:
        ctx.add(Code.EMPTY_VALUE_FIELD, root, path, "empty key identifier")


def _body_authority_key_identifier(root: TlvNode, ctx: WalkContext, path: str) -> AkiValue | None:
    if not _expect(ctx, root, TAG_SEQUENCE, True, "authorityKeyIdentifier", path):
        return None
    value = AkiValue()
    has_issuer = has_serial = False
    for child in _tagged_fields(ctx, root.children, "authorityKeyIdentifier", 2, None, path):
        if child is None:
            return value
        if child.tag_number == 0:
            if child.constructed:
                ctx.add(_MALFORMED_BODY, child, path, "keyIdentifier must be primitive")
                continue
            if child.content_length == 0:
                ctx.add(Code.EMPTY_VALUE_FIELD, child, path, "empty keyIdentifier")
                continue
            value.key_id = child.content
        elif child.tag_number == 1:
            if not child.constructed:
                ctx.add(_MALFORMED_BODY, child, path, "authorityCertIssuer must be constructed")
                continue
            has_issuer = True
            if not child.children:
                ctx.add(_EMPTY_NAMES, child, path, "empty authorityCertIssuer")
            for gn in child.children:
                if not _plain_name(gn):
                    parse_general_name(gn, ctx, f"{path}.authorityCertIssuer")
        else:
            if child.constructed:
                ctx.add(_MALFORMED_BODY, child, path, "authorityCertSerialNumber must be primitive")
                continue
            has_serial = True
            ctx.decode(decode_integer, child, f"{path}.authorityCertSerialNumber")
    if has_issuer != has_serial:
        ctx.add(
            _MALFORMED_BODY,
            root,
            path,
            "authorityCertIssuer and authorityCertSerialNumber must appear together",
        )
    return value


def _body_key_usage(root: TlvNode, ctx: WalkContext, path: str) -> KeyUsageValue | None:
    if not _expect(ctx, root, TAG_BIT_STRING, False, "keyUsage", path):
        return None
    bs = ctx.decode(decode_bit_string, root, path, named=True)
    if bs is None:
        return None
    if bs.named_bits and max(bs.named_bits) >= len(KEY_USAGE_BITS):
        ctx.add(_MALFORMED_BODY, root, path, f"keyUsage bit {max(bs.named_bits)} beyond the named range")
        return None
    if not bs.named_bits:
        ctx.add(Code.EMPTY_KEY_USAGE, root, path)
    return KeyUsageValue(bits=bs.named_bits)


def _body_basic_constraints(root: TlvNode, ctx: WalkContext, path: str) -> BasicConstraintsValue | None:
    if not _expect(ctx, root, TAG_SEQUENCE, True, "basicConstraints", path):
        return None
    value = BasicConstraintsValue()
    kids = list(root.children)
    if kids and kids[0].is_universal(TAG_BOOLEAN, False):
        ca = ctx.decode(decode_boolean, kids[0], f"{path}.cA")
        if ca is False:
            ctx.add(Code.DEFAULT_VALUE_ENCODED, kids[0], f"{path}.cA", "cA FALSE explicitly encoded")
        value.ca = bool(ca)
        kids = kids[1:]
    if kids and kids[0].is_universal(TAG_INTEGER, False):
        value.path_len = ctx.decode(decode_integer, kids[0], f"{path}.pathLenConstraint")
        if value.path_len is not None and value.path_len < 0:
            ctx.add(Code.NEGATIVE_PATH_LEN, kids[0], f"{path}.pathLenConstraint", f"pathLenConstraint {value.path_len}")
        kids = kids[1:]
    if kids:
        ctx.add(
            _MALFORMED_BODY,
            kids[0],
            path,
            f"unexpected field {kids[0].describe_tag()} in basicConstraints",
        )
    return value


def _body_certificate_policies(root: TlvNode, ctx: WalkContext, path: str) -> None:
    policies: list[str] = []
    infos = _elements(ctx, root, "certificatePolicies", path, "certificatePolicies must name at least one policy")
    for i, pi in enumerate(infos or ()):
        sub = f"{path}.policy[{i}]"
        if not _expect(ctx, pi, TAG_SEQUENCE, True, "policyInformation", sub):
            continue
        if not 1 <= len(pi.children) <= 2:
            ctx.add(_MALFORMED_BODY, pi, sub, "policyInformation with wrong field count")
            continue
        if not pi.children[0].is_universal(TAG_OID, False):
            ctx.add(_WRONG_OID, pi.children[0], sub, "policyIdentifier must be an OID")
        else:
            policy = ctx.oid(pi.children[0], sub)
            if policy in policies:  # RFC 5280 4.2.1.4: each policy OID at most once
                ctx.add(_MALFORMED_BODY, pi.children[0], sub, f"policy {policy} named twice")
            elif policy is not None:
                policies.append(policy)
        if len(pi.children) == 2:
            _parse_policy_qualifiers(pi.children[1], ctx, sub)


def _parse_policy_qualifiers(node: TlvNode, ctx: WalkContext, path: str) -> None:
    qualifiers = _elements(ctx, node, "policyQualifiers", path, "empty policyQualifiers")
    for j, pqi in enumerate(qualifiers or ()):
        sub = f"{path}.qualifier[{j}]"
        if not _expect(ctx, pqi, TAG_SEQUENCE, True, "policyQualifierInfo", sub):
            continue
        if len(pqi.children) != 2 or not pqi.children[0].is_universal(TAG_OID, False):
            ctx.add(_MALFORMED_BODY, pqi, sub, "policyQualifierInfo must be (OID, qualifier)")
            continue
        qid = ctx.oid(pqi.children[0], sub)
        if qid is None:
            continue
        qualifier = pqi.children[1]
        if qid == _OID_QT_CPS:
            if qualifier.is_universal(TAG_IA5_STRING, False):
                text = ctx.decode(validate_charset, qualifier, sub)
                if text is not None and not valid_uri(text):
                    ctx.add(Code.BAD_DNS_URI_EMAIL_FORMAT, qualifier, sub, f"URI without scheme: {text!r}")
            else:
                ctx.add(_MALFORMED_BODY, qualifier, sub, "CPS qualifier must be an IA5String")
        elif qid == _OID_QT_UNOTICE:
            _parse_user_notice(qualifier, ctx, sub)
        else:
            ctx.add(_WRONG_OID, pqi.children[0], sub, f"unknown policy qualifier {qid}")


def _parse_user_notice(node: TlvNode, ctx: WalkContext, path: str) -> None:
    if not _expect(ctx, node, TAG_SEQUENCE, True, "userNotice", path):
        return
    kids = list(node.children)
    if len(kids) > 2:
        ctx.add(_MALFORMED_BODY, node, path, "userNotice with too many fields")
        return
    if kids and kids[0].is_universal(TAG_SEQUENCE, True):
        ref = kids.pop(0)
        if len(ref.children) != 2:
            ctx.add(_MALFORMED_BODY, ref, path, "noticeRef must be (organization, noticeNumbers)")
        else:
            ctx.decode(validate_charset, ref.children[0], path, _DISPLAY_TEXT_TAGS)
            numbers = ref.children[1]
            if _expect(ctx, numbers, TAG_SEQUENCE, True, "noticeNumbers", path):
                for n in numbers.children:
                    if not n.is_universal(TAG_INTEGER, False):
                        ctx.add(_MALFORMED_BODY, n, path, "noticeNumbers entry must be an INTEGER")
                        continue
                    ctx.decode(decode_integer, n, path)
    if kids:
        ctx.decode(validate_charset, kids.pop(0), path, _DISPLAY_TEXT_TAGS)
    if kids:
        ctx.add(_MALFORMED_BODY, kids[0], path, "unexpected field in userNotice")


def _body_policy_mappings(root: TlvNode, ctx: WalkContext, path: str) -> None:
    pairs = _elements(ctx, root, "policyMappings", path, "policyMappings must hold at least one mapping")
    for i, pair in enumerate(pairs or ()):
        sub = f"{path}.mapping[{i}]"
        if not _expect(ctx, pair, TAG_SEQUENCE, True, "policy mapping", sub):
            continue
        if len(pair.children) != 2:
            ctx.add(
                _MALFORMED_BODY, pair, sub, "mapping must be (issuerDomainPolicy, subjectDomainPolicy)"
            )
            continue
        for part in pair.children:
            if not part.is_universal(TAG_OID, False):
                ctx.add(_WRONG_OID, part, sub, "mapping member must be an OID")
                break
            if ctx.oid(part, sub) is None:
                break


def _general_names_body(root: TlvNode, ctx: WalkContext, path: str, what: str) -> None:
    kids = _elements(ctx, root, what, path, f"empty {what}", _EMPTY_NAMES)
    for i, gn in enumerate(kids or ()):
        if not _plain_name(gn):
            parse_general_name(gn, ctx, f"{path}.name[{i}]")


def _body_subject_directory_attributes(root: TlvNode, ctx: WalkContext, path: str) -> None:
    empty = "subjectDirectoryAttributes must hold at least one attribute"
    attrs = _elements(ctx, root, "subjectDirectoryAttributes", path, empty)
    for i, attr in enumerate(attrs or ()):
        sub = f"{path}.attribute[{i}]"
        if not _expect(ctx, attr, TAG_SEQUENCE, True, "attribute", sub):
            continue
        if len(attr.children) != 2 or not attr.children[0].is_universal(TAG_OID, False):
            ctx.add(_MALFORMED_BODY, attr, sub, "attribute must be (OID, SET OF values)")
            continue
        ctx.oid(attr.children[0], sub)
        values = attr.children[1]
        if not values.is_universal(TAG_SET, True):
            ctx.add(_MALFORMED_BODY, values, sub, "attribute values must be a SET")
            continue
        if not values.children:
            ctx.add(_MALFORMED_BODY, values, sub, "attribute with no values")
        # Value syntax depends on the attribute type; values stay opaque.


def _body_name_constraints(root: TlvNode, ctx: WalkContext, path: str) -> None:
    empty = "nameConstraints with neither permitted nor excluded subtrees"
    fields = _elements(ctx, root, "nameConstraints", path, empty)
    for child in _tagged_fields(ctx, fields or (), "nameConstraints", 1, True, path):
        if child is None:
            return
        which = "permittedSubtrees" if child.tag_number == 0 else "excludedSubtrees"
        if not child.children:
            ctx.add(_MALFORMED_BODY, child, path, f"empty {which}")
            continue
        for i, subtree in enumerate(child.children):
            _parse_general_subtree(subtree, ctx, f"{path}.{which}[{i}]")


def _parse_general_subtree(node: TlvNode, ctx: WalkContext, path: str) -> None:
    kids = _elements(ctx, node, "generalSubtree", path, "empty generalSubtree")
    if kids is None:
        return
    parse_general_name(kids[0], ctx, path, in_name_constraints=True)
    for extra in _tagged_fields(ctx, kids[1:], "generalSubtree", 1, False, path):
        if extra is None:
            return
        if _non_negative(ctx, extra, path, "subtree bound") == 0 and extra.tag_number == 0:
            ctx.add(Code.DEFAULT_VALUE_ENCODED, extra, path, "minimum 0 explicitly encoded")


def _body_policy_constraints(root: TlvNode, ctx: WalkContext, path: str) -> None:
    fields = _elements(ctx, root, "policyConstraints", path, "policyConstraints with no fields")
    for child in _tagged_fields(ctx, fields or (), "policyConstraints", 1, False, path):
        if child is None:
            return
        _non_negative(ctx, child, path, "skipCerts")


def _body_extended_key_usage(root: TlvNode, ctx: WalkContext, path: str) -> None:
    kids = _elements(ctx, root, "extendedKeyUsage", path, "extendedKeyUsage must name at least one purpose")
    for i, child in enumerate(kids or ()):
        sub = f"{path}.purpose[{i}]"
        if ctx.expect(_WRONG_OID, child, TAG_OID, False, sub, "key purpose must be an OID"):
            ctx.oid(child, sub)


def _body_crl_distribution_points(root: TlvNode, ctx: WalkContext, path: str) -> None:
    points = _elements(ctx, root, "cRLDistributionPoints", path, "cRLDistributionPoints must hold at least one point")
    for i, dp in enumerate(points or ()):
        _parse_distribution_point(dp, ctx, f"{path}.point[{i}]")


def _parse_distribution_point(node: TlvNode, ctx: WalkContext, path: str) -> None:
    fields = _elements(ctx, node, "distributionPoint", path, "empty distributionPoint")
    for child in _tagged_fields(ctx, fields or (), "distributionPoint", 2, None, path):
        if child is None:
            return
        if child.tag_number == 0:
            if not child.constructed or len(child.children) != 1:
                ctx.add(_MALFORMED_BODY, child, path, "distributionPoint name must hold one choice")
                continue
            choice = child.children[0]
            if choice.is_context(0, True):
                if not choice.children:
                    ctx.add(_EMPTY_NAMES, choice, path, "empty fullName")
                for k, gn in enumerate(choice.children):
                    if not _plain_name(gn):
                        parse_general_name(gn, ctx, f"{path}.fullName[{k}]")
            elif choice.is_context(1, True):
                parse_rdn(choice, ctx, f"{path}.nameRelativeToCRLIssuer")
            else:
                ctx.add(
                    _MALFORMED_BODY,
                    choice,
                    path,
                    f"unknown distributionPointName choice {choice.describe_tag()}",
                )
        elif child.tag_number == 1:
            if child.constructed:
                ctx.add(_MALFORMED_BODY, child, path, "reasons must be a primitive BIT STRING")
                continue
            bs = ctx.decode(decode_bit_string, child, path, named=True)
            if bs is not None and bs.named_bits and max(bs.named_bits) >= _REASON_FLAG_COUNT:
                ctx.add(_MALFORMED_BODY, child, path, "reason flag beyond the named range")
        else:
            if not child.constructed:
                ctx.add(_MALFORMED_BODY, child, path, "cRLIssuer must be constructed")
                continue
            if not child.children:
                ctx.add(_EMPTY_NAMES, child, path, "empty cRLIssuer")
            for k, gn in enumerate(child.children):
                if not _plain_name(gn):
                    parse_general_name(gn, ctx, f"{path}.cRLIssuer[{k}]")
    if fields is not None and len(fields) == 1 and fields[0].is_context(1):
        ctx.add(_MALFORMED_BODY, node, path, "distributionPoint with only a reasons field")


def _body_inhibit_any_policy(root: TlvNode, ctx: WalkContext, path: str) -> None:
    if _expect(ctx, root, TAG_INTEGER, False, "inhibitAnyPolicy", path):
        _non_negative(ctx, root, path, "skipCerts")


def _info_access_body(root: TlvNode, ctx: WalkContext, path: str, what: str) -> None:
    descriptions = _elements(ctx, root, what, path, f"empty {what}", _EMPTY_ACCESS)
    for i, ad in enumerate(descriptions or ()):
        sub = f"{path}.accessDescription[{i}]"
        if not _expect(ctx, ad, TAG_SEQUENCE, True, "accessDescription", sub):
            continue
        if len(ad.children) != 2 or not ad.children[0].is_universal(TAG_OID, False):
            ctx.add(_MALFORMED_BODY, ad, sub, "accessDescription must be (OID, GeneralName)")
            continue
        ctx.oid(ad.children[0], sub)
        if not _plain_name(ad.children[1]):
            parse_general_name(ad.children[1], ctx, sub)


_BODY_PARSERS = {
    "authority-key-identifier": _body_authority_key_identifier,
    "subject-key-identifier": _body_subject_key_identifier,
    "key-usage": _body_key_usage,
    "certificate-policies": _body_certificate_policies,
    "policy-mappings": _body_policy_mappings,
    "subject-alt-name": partial(_general_names_body, what="subjectAltName"),
    "issuer-alt-name": partial(_general_names_body, what="issuerAltName"),
    "subject-directory-attributes": _body_subject_directory_attributes,
    "basic-constraints": _body_basic_constraints,
    "name-constraints": _body_name_constraints,
    "policy-constraints": _body_policy_constraints,
    "extended-key-usage": _body_extended_key_usage,
    "crl-distribution-points": _body_crl_distribution_points,
    "inhibit-any-policy": _body_inhibit_any_policy,
    "freshest-crl": _body_crl_distribution_points,
    "authority-info-access": partial(_info_access_body, what="authorityInfoAccess"),
    "subject-info-access": partial(_info_access_body, what="subjectInfoAccess"),
}


# --- GeneralName ------------------------------------------------------------

# Host names: dot-separated labels of 1-63 alphanumerics and hyphens, no
# hyphen at either end of a label, the whole name capped at 253 octets.
# Every pattern here is used with fullmatch: "$" would also match before a
# trailing newline, and "www\n.example.com" would pass.
_LABEL = r"[A-Za-z0-9](?:[A-Za-z0-9-]{0,61}[A-Za-z0-9])?"
_DNS_NAME = re.compile(rf"(?:{_LABEL}\.)*{_LABEL}")
_SCHEME = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*")
_LOCAL_PART = re.compile(r"[\x21-\x3f\x41-\x7e]+")  # printable ASCII without space or "@"

# The same grammar over content octets, by GeneralName tag.  A URI's rest is any IA5 octet but NUL, and the
# other two allow no octet outside IA5, so a match is also a passed IA5 check.
_PLAIN_NAMES = {
    1: re.compile(f"{_LOCAL_PART.pattern}@{_DNS_NAME.pattern}".encode()),
    2: re.compile(_DNS_NAME.pattern.encode()),
    6: re.compile(rf"{_SCHEME.pattern}:[\x01-\x7f]+".encode()),
}


def _plain_name(node: TlvNode) -> bool:
    """True for an rfc822Name, dNSName or URI of at most 253 octets that parse_general_name accepts silently.

    It matches the content octets in place, with no slice, decode or path; on False, run parse_general_name.
    """
    pattern = _PLAIN_NAMES.get(node.tag_number)
    start = node.content_offset
    return (
        pattern is not None and node.tag_class == "context" and not node.constructed and node.content_length <= 253
        and pattern.fullmatch(node.buffer, start, start + node.content_length) is not None
    )


def valid_dns_name(text: str) -> bool:
    return len(text) <= 253 and _DNS_NAME.fullmatch(text) is not None


def valid_email(text: str) -> bool:
    local, at, domain = text.partition("@")
    return bool(at) and _LOCAL_PART.fullmatch(local) is not None and valid_dns_name(domain)


def valid_uri(text: str) -> bool:
    scheme, sep, rest = text.partition(":")
    return bool(sep and rest) and _SCHEME.fullmatch(scheme) is not None


def _valid_host_constraint(text: str) -> bool:
    """A host, or a domain written with a leading period (RFC 5280 4.2.1.10)."""
    return valid_dns_name(text[1:] if text.startswith(".") else text)


def _valid_mail_constraint(text: str) -> bool:
    """A mailbox, a host or a domain (RFC 5280 4.2.1.10)."""
    return valid_email(text) or _valid_host_constraint(text)


# The IA5String choices of GeneralName: tag -> (kind, syntax check, syntax check inside nameConstraints).
_STRING_NAMES = {
    1: ("rfc822Name", valid_email, _valid_mail_constraint),
    2: ("dNSName", valid_dns_name, valid_dns_name),
    6: ("uniformResourceIdentifier", valid_uri, _valid_host_constraint),
}


def parse_general_name(
    node: TlvNode,
    ctx: WalkContext,
    path: str,
    in_name_constraints: bool = False,
) -> None:
    """Check one GeneralName choice.

    Inside nameConstraints an iPAddress carries an address plus netmask,
    doubling its length, a URI names a host or a domain, and an
    rfc822Name a mailbox, a host or a domain.
    """
    if node.tag_class != "context":
        ctx.add(
            _MALFORMED_BODY,
            node,
            path,
            f"GeneralName must be context-tagged, found {node.describe_tag()}",
        )
        return

    tag = node.tag_number
    if tag == 0:  # otherName
        if not node.constructed or len(node.children) != 2:
            ctx.add(_MALFORMED_BODY, node, path, "otherName must be (type-id, [0] value)")
            return
        type_node, value_wrap = node.children
        if not type_node.is_universal(TAG_OID, False):
            ctx.add(_WRONG_OID, type_node, path, "otherName type-id must be an OID")
            return
        if ctx.oid(type_node, path) is None:
            return
        if not value_wrap.is_context(0, True) or len(value_wrap.children) != 1:
            ctx.add(
                _MALFORMED_BODY, value_wrap, path, "otherName value must be one explicitly tagged element"
            )
        return

    if tag in _STRING_NAMES:
        kind, valid, valid_constraint = _STRING_NAMES[tag]
        if node.constructed:
            ctx.add(_MALFORMED_BODY, node, path, f"{kind} must be primitive")
            return
        content = node.content
        bad = _OUTSIDE_ALPHABET["ia5"].search(content)
        if bad is not None:
            message = f"byte 0x{content[bad.start()]:02x} in {kind}"
            ctx.add(Code.CHAR_SET_VIOLATION, node.content_offset + bad.start(), path, message)
            return
        text = content.decode("ascii")
        if not (valid_constraint if in_name_constraints else valid)(text):
            ctx.add(Code.BAD_DNS_URI_EMAIL_FORMAT, node, path, f"malformed {kind}: {text!r}")
        return

    if tag == 3:  # x400Address, parsed for shape only
        if not node.constructed:
            ctx.add(_MALFORMED_BODY, node, path, "x400Address must be constructed")
        return

    if tag == 4:  # directoryName, explicit because Name is a CHOICE
        if not node.constructed or len(node.children) != 1:
            ctx.add(_MALFORMED_BODY, node, path, "directoryName must hold one Name")
            return
        parse_name(node.children[0], ctx, path, role="general")
        return

    if tag == 5:  # ediPartyName
        if not node.constructed:
            ctx.add(_MALFORMED_BODY, node, path, "ediPartyName must be constructed")
            return
        last = -1
        saw_party = False
        for child in node.children:
            explicit = child.tag_class == "context" and child.tag_number <= 1 and child.constructed
            if not explicit or len(child.children) != 1:
                ctx.add(
                    _MALFORMED_BODY,
                    child,
                    path,
                    "ediPartyName field must be an explicitly tagged DirectoryString",
                )
                return
            if child.tag_number <= last:
                ctx.add(_MALFORMED_BODY, child, path, "ediPartyName fields out of order or repeated")
                return
            last = child.tag_number
            saw_party = saw_party or child.tag_number == 1
            ctx.decode(validate_charset, child.children[0], path, _DISPLAY_TEXT_TAGS)
        if not saw_party:
            ctx.add(_MALFORMED_BODY, node, path, "ediPartyName without partyName")
        return

    if tag == 7:  # iPAddress
        if node.constructed:
            ctx.add(_MALFORMED_BODY, node, path, "iPAddress must be primitive")
            return
        allowed = (8, 32) if in_name_constraints else (4, 16)
        if node.content_length not in allowed:
            message = f"iPAddress of {node.content_length} octets, expected {allowed[0]} or {allowed[1]}"
            ctx.add(Code.BAD_DNS_URI_EMAIL_FORMAT, node, path, message)
        return

    if tag == 8:  # registeredID
        if node.constructed:
            ctx.add(_MALFORMED_BODY, node, path, "registeredID must be primitive")
        else:
            ctx.oid(node, path)
        return

    ctx.add(_MALFORMED_BODY, node, path, f"unknown GeneralName tag [{tag}]")


# --- cross-extension rules ---------------------------------------------------


def check_key_usage_rules(
    extset: dict[str, ExtensionEntry],
    key_family: str | None,
    ctx: WalkContext,
    path: str = "tbsCertificate.extensions",
) -> None:
    """Rules tying keyUsage, basicConstraints and the key algorithm together.

    A subject may only sign certificates when it is marked as an
    authority: keyCertSign without basicConstraints, or with
    basicConstraints not asserting cA, flags the certificate.  An
    authority in turn must be a deliberate one: cA certificates want a
    critical basicConstraints and a subjectKeyIdentifier.  Finally the
    asserted usage bits must be ones the public key algorithm can honor.
    """
    ku_entry = extset.get(OID_KEY_USAGE)
    bc_entry = extset.get(OID_BASIC_CONSTRAINTS)
    ku = ku_entry.body if ku_entry and isinstance(ku_entry.body, KeyUsageValue) else None
    bc = bc_entry.body if bc_entry and isinstance(bc_entry.body, BasicConstraintsValue) else None

    if ku is not None and BIT_KEY_CERT_SIGN in ku.bits:
        where = f"{path}[{ku_entry.index}]"
        if bc_entry is None:
            ctx.add(
                Code.KEY_CERT_SIGN_WITHOUT_BASIC_CONSTRAINTS,
                ku_entry.node,
                where,
                "keyCertSign asserted without a basicConstraints extension",
            )
        elif bc is not None and not bc.ca:
            ctx.add(
                Code.KEY_CERT_SIGN_IN_LEAF,
                ku_entry.node,
                where,
                "keyCertSign asserted but basicConstraints does not mark a CA",
            )

    if bc_entry is not None and bc is not None:
        where = f"{path}[{bc_entry.index}]"
        if bc.ca:
            if not bc_entry.critical:
                ctx.add(
                    Code.NOT_CRITICAL_BASIC_CONSTRAINTS,
                    bc_entry.node,
                    where,
                    "cA asserted in a non-critical basicConstraints",
                )
                if bc.path_len is not None:
                    ctx.add(
                        Code.PATH_LEN_IN_NON_CRITICAL_BC,
                        bc_entry.node,
                        where,
                        "pathLenConstraint in a non-critical basicConstraints",
                    )
            if OID_SUBJECT_KEY_IDENTIFIER not in extset:
                ctx.add(
                    Code.MISSING_SUBJECT_KEY_ID,
                    bc_entry.node,
                    path,
                    "CA certificate without a subjectKeyIdentifier extension",
                )
        elif bc.path_len is not None:
            ctx.add(Code.PATH_LEN_IN_LEAF, bc_entry.node, where, "pathLenConstraint without cA")

    if ku is not None and key_family is not None:
        forbidden = _FORBIDDEN_USAGE.get(key_family, frozenset())
        bad = sorted(ku.bits & forbidden)
        if bad:
            names = ", ".join(KEY_USAGE_BITS[b] for b in bad)
            ctx.add(
                Code.KEY_USAGE_VIOLATION_ON_PK_ALGORITHM,
                ku_entry.node,
                f"{path}[{ku_entry.index}]",
                f"{names} asserted for a {key_family} key",
            )
