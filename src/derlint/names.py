"""Distinguished name recognition.

A Name is a SEQUENCE of relative distinguished names, each a SET of
attribute type/value pairs.  Attribute values are checked against the
string kind the naming attribute registry allows: directory-string
attributes take PrintableString or UTF8String (the legacy Teletex, BMP
and Universal spellings parse but are flagged), emailAddress and
domainComponent take IA5String, serialNumber and friends PrintableString
only.  Unknown attribute OIDs are flagged but their values are still
structurally checked.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .der import TlvNode
from .diagnostics import Code
from .values import (
    STRING_KIND_BY_TAG,
    TAG_IA5_STRING,
    TAG_OID,
    TAG_PRINTABLE_STRING,
    TAG_SEQUENCE,
    TAG_SET,
    TAG_UTF8_STRING,
    _OUTSIDE_ALPHABET,
    validate_charset,
)

# Unused here (WalkContext.oid reads OIDs); perfbench's traced run wraps these names.
from .values import decode_oid, dotted  # noqa: F401

if TYPE_CHECKING:
    from .extensions import WalkContext
    from .registry import Registry

# The codes an accepted walk passes, bound once: a Code.X read costs over ten global reads (EnumType.__getattr__).
_MISMATCH, _INVALID_DN = Code.STRUCTURAL_MISMATCH, Code.INVALID_DN

# Universal tags a directory-string attribute may carry.  The full CHOICE
# includes the three legacy kinds (Teletex, BMP, Universal); only the
# first two are allowed in new certificates, so the rest trip a
# wrong-string-type flag on the way in.
_DIR_STRING_ALLOWED = frozenset({TAG_PRINTABLE_STRING, TAG_UTF8_STRING})

_PERMITTED_BY_KIND = {
    "dir-string": _DIR_STRING_ALLOWED,
    "printable": frozenset({TAG_PRINTABLE_STRING}),
    "ia5": frozenset({TAG_IA5_STRING}),
}


def parse_name(
    node: TlvNode,
    ctx: WalkContext,
    path: str,
    role: str = "subject",
) -> bool:
    """Walk one Name, and return whether it is empty; role 'issuer' makes emptiness an error here.

    An empty subject is legal only alongside a critical subjectAltName,
    which the certificate walk checks once extensions are known; this
    function just reports emptiness to its caller.
    """
    if not ctx.expect(_MISMATCH, node, TAG_SEQUENCE, path, "name must be a SEQUENCE"):
        # empty specifically means a SEQUENCE with zero RDNs; a node of
        # the wrong shape is neither empty nor usable.
        return False

    if not node.children:
        if role == "issuer":
            ctx.add(Code.EMPTY_ISSUER_DN, node, path)
        return True

    for i, rdn in enumerate(node.children):
        if rdn.tag == TAG_SET and _plain_rdn(rdn, ctx.reg):
            continue
        rdn_path = f"{path}.rdn[{i}]"
        if ctx.expect(_INVALID_DN, rdn, TAG_SET, rdn_path, "RDN must be a SET"):
            parse_rdn(rdn, ctx, rdn_path)
    return False


def _plain_rdn(rdn: TlvNode, reg: Registry) -> bool:
    """True for a one-attribute RDN that parse_rdn walks silently; the caller checks the tag, as for parse_rdn.

    The type must be a registered naming attribute whose kind permits the value's tag, and the value non-empty
    and inside its alphabet.  It reads the octets in place, with no path or decoder; on False, run parse_rdn.
    """
    if len(rdn.children) != 1 or rdn.children[0].tag != TAG_SEQUENCE or len(rdn.children[0].children) != 2:
        return False
    type_node, value = rdn.children[0].children
    text = reg.by_der.get(type_node.content) if type_node.tag == TAG_OID else None
    permitted = _PERMITTED_BY_KIND.get(reg.by_role["attribute"].get(text)) if text else None
    if permitted is None or value.tag not in permitted or not value.content_length:
        return False
    start, stop = value.content_offset, value.content_offset + value.content_length
    if value.tag != TAG_UTF8_STRING:
        return _OUTSIDE_ALPHABET[STRING_KIND_BY_TAG[value.tag]].search(value.buffer, start, stop) is None
    try:
        return "\x00" not in value.buffer[start:stop].decode()
    except UnicodeDecodeError:
        return False


def parse_rdn(rdn: TlvNode, ctx: WalkContext, path: str) -> None:
    """Walk one RDN's SET OF attributes.

    The caller checks the tag: nameRelativeToCRLIssuer carries an RDN under [1].
    """
    if not rdn.children:
        ctx.add(_INVALID_DN, rdn, path, "empty RDN set")
        return
    # SET OF elements must come in ascending encoding order.
    for a, b in zip(rdn.children, rdn.children[1:]):
        if a.raw > b.raw:
            ctx.add(_INVALID_DN, b, path, "SET OF elements out of order")
            break
    for j, atv in enumerate(rdn.children):
        _parse_atv(atv, ctx, f"{path}.attr[{j}]")


def _parse_atv(atv: TlvNode, ctx: WalkContext, path: str) -> None:
    if atv.tag != TAG_SEQUENCE or len(atv.children) != 2:
        ctx.add(_INVALID_DN, atv, path, "attribute must be a two-element SEQUENCE")
        return
    type_node, value_node = atv.children
    oid_str: str | None = None
    if ctx.expect(_INVALID_DN, type_node, TAG_OID, path, "attribute type must be an OID"):
        # A malformed type OID makes the whole attribute unusable.
        oid_str = ctx.oid(type_node, path, wrong_oid=_INVALID_DN)

    kind: str | None = None
    if oid_str is not None:
        kind = ctx.reg.lookup("attribute", oid_str)
        if kind is None:
            ctx.add(Code.WRONG_OID_IN_DN, type_node.content_offset, path, f"unknown naming attribute {oid_str}")

    _validate_attribute_value(value_node, kind, ctx, path)


def _validate_attribute_value(value_node: TlvNode, kind: str | None, ctx: WalkContext, path: str) -> None:
    is_string = value_node.tag in STRING_KIND_BY_TAG
    if is_string and value_node.content_length == 0:
        ctx.add(Code.EMPTY_STRING, value_node, path)
    permitted = _PERMITTED_BY_KIND.get(kind) if kind else None
    ctx.decode(validate_charset, value_node, path, permitted)
    if is_string and permitted is not None and value_node.tag not in permitted:
        # Wrong kind for this slot, but still a string: check its own
        # character set so smuggled NULs and friends do not hide.
        ctx.decode(validate_charset, value_node, path)
