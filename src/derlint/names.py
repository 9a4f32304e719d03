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

from dataclasses import dataclass
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
    validate_charset,
)

# Unused here (WalkContext.oid reads OIDs); perfbench's traced run wraps these names.
from .values import decode_oid, dotted  # noqa: F401

if TYPE_CHECKING:
    from .extensions import WalkContext

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


@dataclass
class NameInfo:
    """Summary of a parsed Name, enough for the cross-field checks."""

    node: TlvNode
    empty: bool


def parse_name(
    node: TlvNode,
    ctx: WalkContext,
    path: str,
    role: str = "subject",
) -> NameInfo:
    """Walk one Name; role 'issuer' makes emptiness an error here.

    An empty subject is legal only alongside a critical subjectAltName,
    which the certificate walk checks once extensions are known; this
    function just reports emptiness in the returned NameInfo.
    """
    if not ctx.expect(_MISMATCH, node, TAG_SEQUENCE, True, path, "name must be a SEQUENCE"):
        # empty specifically means a SEQUENCE with zero RDNs; a node of
        # the wrong shape is neither empty nor usable.
        return NameInfo(node, empty=False)

    info = NameInfo(node, empty=not node.children)
    if info.empty:
        if role == "issuer":
            ctx.add(Code.EMPTY_ISSUER_DN, node, path)
        return info

    for i, rdn in enumerate(node.children):
        rdn_path = f"{path}.rdn[{i}]"
        if ctx.expect(_INVALID_DN, rdn, TAG_SET, True, rdn_path, "RDN must be a SET"):
            parse_rdn(rdn, ctx, rdn_path)
    return info


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
    if not atv.is_universal(TAG_SEQUENCE, True) or len(atv.children) != 2:
        ctx.add(_INVALID_DN, atv, path, "attribute must be a two-element SEQUENCE")
        return
    type_node, value_node = atv.children
    oid_str: str | None = None
    if ctx.expect(_INVALID_DN, type_node, TAG_OID, False, path, "attribute type must be an OID"):
        # A malformed type OID makes the whole attribute unusable.
        oid_str = ctx.oid(type_node, path, wrong_oid=_INVALID_DN)

    kind: str | None = None
    if oid_str is not None:
        kind = ctx.reg.lookup("attribute", oid_str)
        if kind is None:
            ctx.add(Code.WRONG_OID_IN_DN, type_node.content_offset, path, f"unknown naming attribute {oid_str}")

    _validate_attribute_value(value_node, kind, ctx, path)


def _validate_attribute_value(value_node: TlvNode, kind: str | None, ctx: WalkContext, path: str) -> None:
    is_string = (
        value_node.tag_class == "universal"
        and not value_node.constructed
        and value_node.tag_number in STRING_KIND_BY_TAG
    )
    if is_string and value_node.content_length == 0:
        ctx.add(Code.EMPTY_STRING, value_node, path)
    permitted = _PERMITTED_BY_KIND.get(kind) if kind else None
    ctx.decode(validate_charset, value_node, path, permitted)
    if is_string and permitted is not None and value_node.tag_number not in permitted:
        # Wrong kind for this slot, but still a string: check its own
        # character set so smuggled NULs and friends do not hide.
        ctx.decode(validate_charset, value_node, path)
