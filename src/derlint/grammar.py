"""The certificate grammar walk.

This module drives everything below it: the structural layer yields a
tag tree, and the walk here checks that the tree spells a certificate.
The walk is positional over a fixed field list, so a field with the
wrong shape is reported and skipped rather than silently re-matched as
a later field.  Value-level problems never stop the walk; shape
problems that would make every later match a guess do.

Algorithm identifiers, key material and signature values are checked
against the algorithm registry: which OIDs exist for the slot, what
their parameters must look like, and what the carried bits must parse
as.  Acceptance is a pure function of the collected diagnostics: the
input is in the language exactly when no recorded code is a rejecting
one.
"""

from __future__ import annotations

from .der import TlvNode, parse_tlv_tree
from .diagnostics import Code, Diagnostic, RecognitionError
from .extensions import (
    OID_SUBJECT_ALT_NAME,
    ExtensionEntry,
    WalkContext,
    check_key_usage_rules,
    parse_extensions,
)
from .matchers import run_cross_checks
from .names import parse_name
from .registry import Registry, default_registry
from .values import (
    TAG_BIT_STRING,
    TAG_GENERALIZED_TIME,
    TAG_INTEGER,
    TAG_NULL,
    TAG_OCTET_STRING,
    TAG_OID,
    TAG_SEQUENCE,
    TAG_UTC_TIME,
    decode_bit_string,
    decode_integer,
    plain_time,
    validate_time,
)

# Unused here (WalkContext.oid reads OIDs); perfbench's traced run wraps these names.
from .values import decode_oid, dotted  # noqa: F401

# The codes an accepted walk passes, bound once: a Code.X read costs over ten global reads (EnumType.__getattr__).
_MISMATCH, _WRONG_ALGORITHM = Code.STRUCTURAL_MISMATCH, Code.WRONG_ALGORITHM
_MALFORMED_PARAMS, _MALFORMED_KEY, _MALFORMED_SIG = (
    Code.MALFORMED_PARAMETERS, Code.MALFORMED_PUBLIC_KEY, Code.MALFORMED_SIGNATURE_STRUCTURE
)

# The explicitly tagged fields [0] to [3] of RSASSA-PSS parameters, as identifier octets.
_PSS_FIELDS = frozenset({0xA0, 0xA1, 0xA2, 0xA3})


class AlgorithmId:
    __slots__ = ("node", "oid", "grammar", "curve_oid")

    def __init__(self, node: TlvNode):
        self.node = node
        self.oid: str | None = None
        self.grammar: str | None = None
        self.curve_oid: str | None = None


class ParsedTbs:
    __slots__ = (
        "version", "inner_algorithm", "issuer", "subject", "subject_empty", "key_family", "has_unique_id",
        "extensions", "extensions_present",
    )

    def __init__(self):
        self.version = 0
        self.inner_algorithm: AlgorithmId | None = None
        self.issuer: TlvNode | None = None
        self.subject: TlvNode | None = None
        self.subject_empty = False
        self.key_family: str | None = None
        self.has_unique_id = False
        self.extensions: dict[str, ExtensionEntry] | None = None
        self.extensions_present = False


class ParsedCertificate:
    __slots__ = ("tbs", "outer_algorithm", "diagnostics")

    def __init__(self, diagnostics: list[Diagnostic]):
        self.tbs: ParsedTbs | None = None
        self.outer_algorithm: AlgorithmId | None = None
        self.diagnostics = diagnostics

    @property
    def accepted(self) -> bool:
        return not any(d.code.rejects for d in self.diagnostics)

    def codes(self) -> list[Code]:
        return [d.code for d in self.diagnostics]


class _Abort(Exception):
    """Internal: the current walk cannot identify any further fields."""


# --- algorithm identifiers ---------------------------------------------------


def parse_algorithm_identifier(
    node: TlvNode,
    role: str,
    ctx: WalkContext,
    path: str,
) -> AlgorithmId | None:
    """Check one AlgorithmIdentifier against the registry for its slot.

    role is 'signature' for the two signature algorithm fields and
    'spki' for the public key algorithm; the registry decides which OIDs
    are allowed and what the parameters field must contain for each.
    """
    kids = node.children
    if node.tag != TAG_SEQUENCE or not 1 <= len(kids) <= 2:
        if not ctx.expect(_MISMATCH, node, TAG_SEQUENCE, path, "AlgorithmIdentifier must be a SEQUENCE"):
            return None
        ctx.add(_MISMATCH, node, path, f"AlgorithmIdentifier with {len(kids)} fields")
        return AlgorithmId(node)

    out = AlgorithmId(node)
    alg_node = kids[0]
    out.oid = ctx.reg.by_der.get(alg_node.content) if alg_node.tag == TAG_OID else None
    if out.oid is None:
        if not ctx.expect(_WRONG_ALGORITHM, alg_node, TAG_OID, f"{path}.algorithm", "algorithm must be an OID"):
            return out
        out.oid = ctx.oid(alg_node, f"{path}.algorithm", wrong_oid=_WRONG_ALGORITHM)
        if out.oid is None:
            return out

    out.grammar = ctx.reg.by_role[role].get(out.oid)
    if out.grammar is None:
        ctx.add(_WRONG_ALGORITHM, alg_node, f"{path}.algorithm", f"{out.oid} is not a registered {role} algorithm")
        return out

    params = kids[1] if len(kids) == 2 else None
    _check_parameters(out, params, node, ctx, path)
    return out


def _check_parameters(
    alg: AlgorithmId,
    params: TlvNode | None,
    holder: TlvNode,
    ctx: WalkContext,
    path: str,
) -> None:
    """Check an AlgorithmIdentifier's parameters against its grammar; path is the identifier's.

    The parameters' path is formatted only where a diagnostic is recorded, or before a grammar's own walk.  No
    parameters, an empty NULL and a curve OID that reg.by_der names are read in place.
    """
    grammar = alg.grammar

    if grammar == "absent":
        if params is None:
            return
        path = f"{path}.parameters"
        if params.tag == TAG_NULL:
            ctx.add(Code.UNEXPECTED_NULL_IN_ALGORITHM_P, params, path, f"{alg.oid} takes no parameters, NULL present")
        else:
            ctx.add(_MALFORMED_PARAMS, params, path, f"{alg.oid} takes no parameters, found {params.describe_tag()}")
        return

    if grammar == "null":
        if params is None or params.tag != TAG_NULL or params.content_length:
            path = f"{path}.parameters"
            need = f"{alg.oid} requires NULL parameters"
            if params is None:
                ctx.add(Code.MISSING_PARAMETERS, holder, path, need)
            elif ctx.expect(_MALFORMED_PARAMS, params, TAG_NULL, path, need):
                ctx.add(_MALFORMED_PARAMS, params, path, "NULL with content octets")
        return

    if grammar == "named-curve":
        curves = ctx.reg.by_role["curve"]
        curve = ctx.reg.by_der.get(params.content) if params is not None and params.tag == TAG_OID else None
        if curve not in curves:
            path = f"{path}.parameters"
            if params is None:
                ctx.add(Code.MISSING_PARAMETERS, holder, path, f"{alg.oid} requires a named curve")
                return
            if not ctx.expect(_MALFORMED_PARAMS, params, TAG_OID, path, "named curve must be an OID"):
                return
            curve = ctx.oid(params, path, wrong_oid=_MALFORMED_PARAMS)
            if curve is None:
                return
            if curve not in curves:
                ctx.add(_WRONG_ALGORITHM, params, path, f"{curve} is not a registered curve")
                return
        alg.curve_oid = curve
        return

    path = f"{path}.parameters"
    if params is None:
        ctx.add(Code.MISSING_PARAMETERS, holder, path, f"{alg.oid} requires parameters")
        return

    if grammar == "dss-params":
        if params.tag != TAG_SEQUENCE or len(params.children) != 3:
            ctx.add(_MALFORMED_PARAMS, params, path, "domain parameters must be a SEQUENCE of three INTEGERs")
            return
        for part in params.children:
            if not ctx.expect(_MALFORMED_PARAMS, part, TAG_INTEGER, path, "domain parameter must be an INTEGER"):
                return
            ctx.decode(decode_integer, part, path)
        return

    if grammar == "dh-params":
        _check_dh_params(params, ctx, path)
        return

    if grammar == "kea-params":
        what = "domain identifier must be an OCTET STRING"
        if ctx.expect(_MALFORMED_PARAMS, params, TAG_OCTET_STRING, path, what) and params.content_length == 0:
            ctx.add(Code.EMPTY_VALUE_FIELD, params, path, "empty domain identifier")
        return

    if grammar == "gost-params":
        if params.tag != TAG_SEQUENCE or not 2 <= len(params.children) <= 3:
            ctx.add(_MALFORMED_PARAMS, params, path, "parameters must be a SEQUENCE of two or three OIDs")
            return
        for part in params.children:
            if not ctx.expect(_MALFORMED_PARAMS, part, TAG_OID, path, "parameter must be an OID"):
                return
            ctx.oid(part, path, wrong_oid=_MALFORMED_PARAMS)
        return

    if grammar == "rsa-pss-params":
        _check_pss_params(params, ctx, path)
        return

    raise AssertionError(f"unhandled parameter grammar {grammar!r}")


def _check_dh_params(params: TlvNode, ctx: WalkContext, path: str) -> None:
    if params.tag != TAG_SEQUENCE:
        ctx.add(_MALFORMED_PARAMS, params, path, "domain parameters must be a SEQUENCE")
        return
    kids = list(params.children)
    if len(kids) < 3:
        ctx.add(_MALFORMED_PARAMS, params, path, "domain parameters need prime, base and subprime")
        return
    for part in kids[:3]:
        if not ctx.expect(_MALFORMED_PARAMS, part, TAG_INTEGER, path, "domain parameter must be an INTEGER"):
            return
        ctx.decode(decode_integer, part, path)
    rest = kids[3:]
    if rest and rest[0].tag == TAG_INTEGER:
        ctx.decode(decode_integer, rest[0], path)
        rest = rest[1:]
    if rest:
        vp = rest.pop(0)
        if vp.tag != TAG_SEQUENCE or len(vp.children) != 2:
            ctx.add(_MALFORMED_PARAMS, vp, path, "validation parameters must be (seed, pgenCounter)")
        else:
            seed, counter = vp.children
            if seed.tag != TAG_BIT_STRING:
                ctx.add(_MALFORMED_PARAMS, seed, path, "seed must be a BIT STRING")
            else:
                ctx.decode(decode_bit_string, seed, path)
            if counter.tag != TAG_INTEGER:
                ctx.add(_MALFORMED_PARAMS, counter, path, "pgenCounter must be an INTEGER")
            else:
                ctx.decode(decode_integer, counter, path)
    if rest:
        ctx.add(_MALFORMED_PARAMS, rest[0], path, f"unexpected field {rest[0].describe_tag()} in domain parameters")


def _check_pss_params(params: TlvNode, ctx: WalkContext, path: str) -> None:
    """Shape check for PSS parameters.

    Each field is an explicitly tagged slot: hash and mask algorithms
    are AlgorithmIdentifier-shaped, salt length and trailer field are
    INTEGERs.  The hash and mask OIDs live in their own registries and
    stay unchecked here.
    """
    if params.tag != TAG_SEQUENCE:
        ctx.add(_MALFORMED_PARAMS, params, path, "PSS parameters must be a SEQUENCE")
        return
    last = -1
    for child in params.children:
        if child.tag not in _PSS_FIELDS or len(child.children) != 1:
            ctx.add(_MALFORMED_PARAMS, child, path, f"unexpected field {child.describe_tag()} in PSS parameters")
            return
        if child.tag <= last:
            ctx.add(_MALFORMED_PARAMS, child, path, "PSS parameter fields out of order or repeated")
            return
        last = child.tag
        inner = child.children[0]
        if child.tag in (0xA0, 0xA1):
            algorithm = inner.tag == TAG_SEQUENCE and 1 <= len(inner.children) <= 2
            if not algorithm or inner.children[0].tag != TAG_OID:
                ctx.add(_MALFORMED_PARAMS, inner, path, "PSS algorithm slot must hold an AlgorithmIdentifier")
                return
            ctx.oid(inner.children[0], path, wrong_oid=_MALFORMED_PARAMS)
        else:
            if inner.tag != TAG_INTEGER:
                ctx.add(_MALFORMED_PARAMS, inner, path, "PSS integer slot must hold an INTEGER")
                return
            value = ctx.decode(decode_integer, inner, path)
            if value is not None and value < 0:
                ctx.add(_MALFORMED_PARAMS, inner, path, f"negative PSS parameter {value}")


# --- subject public key info -------------------------------------------------


def parse_spki(
    node: TlvNode,
    ctx: WalkContext,
    path: str = "tbsCertificate.subjectPublicKeyInfo",
) -> str | None:
    """Walk a subjectPublicKeyInfo, and return the registry's key family for its algorithm, or None."""
    what = "subjectPublicKeyInfo must be a SEQUENCE"
    if not ctx.expect(_MISMATCH, node, TAG_SEQUENCE, path, what):
        return None
    if len(node.children) != 2:
        ctx.add(_MISMATCH, node, path, f"subjectPublicKeyInfo with {len(node.children)} fields")
        return None
    alg_node, key_node = node.children
    alg = parse_algorithm_identifier(alg_node, "spki", ctx, f"{path}.algorithm")
    oid = alg.oid if alg is not None else None
    key_family = ctx.reg.lookup("keyfamily", oid) if oid is not None else None

    key_path = f"{path}.subjectPublicKey"
    bits = _bit_string_octets(key_node, ctx, key_path, "subjectPublicKey", "key", "public key")
    if bits is not None and oid is not None and (grammar := ctx.reg.lookup("keybits", oid)) is not None:
        _check_key_bits(grammar, key_node, bits, alg, ctx, key_path)
    return key_family


def _bit_string_octets(node: TlvNode, ctx: WalkContext, path: str, slot: str, noun: str, empty: str) -> bytes | None:
    """The octets a primitive BIT STRING slot carries, or None after recording why it carries none.

    slot names the field in the tag message, noun its bits, and empty what
    an empty one lacks.  Unused bits are recorded, and the octets still
    returned.
    """
    what = f"{slot} must be a primitive BIT STRING"
    if not ctx.expect(_MISMATCH, node, TAG_BIT_STRING, path, what):
        return None
    bs = ctx.decode(decode_bit_string, node, path)
    if bs is None:
        return None
    if bs.unused_bits != 0:
        message = f"{noun} bits must fill whole octets, {bs.unused_bits} unused"
        ctx.add(Code.BAD_BIT_STRING_ENCODING, node.content_offset, path, message)
    if not bs.bits:
        ctx.add(Code.EMPTY_VALUE_FIELD, node, path, f"empty {empty}")
        return None
    return bs.bits


def _positive_integer(node: TlvNode, what: str, code: Code, ctx: WalkContext, path: str) -> None:
    """A key or signature INTEGER: tagged as one, minimal, above zero."""
    if not ctx.expect(code, node, TAG_INTEGER, path, f"{what} must be an INTEGER"):
        return
    value = ctx.decode(decode_integer, node, path)
    if value is not None and value <= 0:
        ctx.add(code, node, path, f"non-positive {what}")


def _check_key_bits(
    grammar: str,
    key_node: TlvNode,
    bits: bytes,
    alg: AlgorithmId,
    ctx: WalkContext,
    path: str,
) -> None:
    if grammar == "ec-point":
        # The point starts after the BIT STRING's unused-bits octet.
        point_offset = key_node.content_offset + 1
        first = bits[0]
        curve = ctx.reg.by_role["curve"].get(alg.curve_oid)  # "point-N": N is the coordinate width
        width = None if curve is None else int(curve[6:])
        if first == 0x04:
            expect = None if width is None else 1 + 2 * width
        elif first in (0x02, 0x03):
            expect = None if width is None else 1 + width
        else:
            ctx.add(_MALFORMED_KEY, point_offset, path, f"unknown point form 0x{first:02x}")
            return
        if expect is not None and len(bits) != expect:
            ctx.add(
                _MALFORMED_KEY,
                point_offset,
                path,
                f"point of {len(bits)} octets, form 0x{first:02x} on this curve takes {expect}",
            )
        return

    root = ctx.payload(key_node, 1, path, _MALFORMED_KEY)
    if root is None:
        return

    if grammar == "rsa-key":
        if root.tag != TAG_SEQUENCE or len(root.children) != 2:
            ctx.add(_MALFORMED_KEY, root, path, "key must be a SEQUENCE of modulus and exponent")
            return
        _positive_integer(root.children[0], "modulus", _MALFORMED_KEY, ctx, path)
        _positive_integer(root.children[1], "exponent", _MALFORMED_KEY, ctx, path)
        return

    if grammar == "integer-key":
        _positive_integer(root, "public value", _MALFORMED_KEY, ctx, path)
        return

    if grammar == "octet-key":
        what = "key must be an OCTET STRING"
        if ctx.expect(_MALFORMED_KEY, root, TAG_OCTET_STRING, path, what) and root.content_length == 0:
            ctx.add(Code.EMPTY_VALUE_FIELD, root, path, "empty key octets")
        return

    raise AssertionError(f"unhandled key grammar {grammar!r}")


# --- signature value ---------------------------------------------------------


def parse_signature_value(
    node: TlvNode,
    outer: AlgorithmId | None,
    ctx: WalkContext,
    path: str = "signatureValue",
) -> None:
    bits = _bit_string_octets(node, ctx, path, "signatureValue", "signature", "signature")
    if bits is None or outer is None or outer.oid is None:
        return
    grammar = ctx.reg.lookup("sigvalue", outer.oid)
    if grammar in (None, "opaque"):
        return

    root = ctx.payload(node, 1, path, _MALFORMED_SIG)
    if root is None:
        return
    if root.tag != TAG_SEQUENCE or len(root.children) != 2:
        ctx.add(_MALFORMED_SIG, root, path, "signature must be a SEQUENCE of two INTEGERs")
        return
    for what, part in zip(("r", "s"), root.children):
        _positive_integer(part, what, _MALFORMED_SIG, ctx, path)


# --- tbsCertificate ----------------------------------------------------------


def _parse_version(node: TlvNode, tbs: ParsedTbs, ctx: WalkContext) -> None:
    path = "tbsCertificate.version"
    if node.tag != 0xA0 or len(node.children) != 1:
        ctx.add(_MISMATCH, node, path, "version wrapper must hold one INTEGER")
        return
    inner = node.children[0]
    if not ctx.expect(_MISMATCH, inner, TAG_INTEGER, path, "version must be an INTEGER"):
        return
    value = ctx.decode(decode_integer, inner, path)
    if value is None:
        return
    if value == 0:
        ctx.add(Code.DEFAULT_VALUE_ENCODED, node, path, "version 1 is the default and must be left implicit")
    elif value not in (1, 2):
        ctx.add(_MISMATCH, inner, path, f"version value {value} out of range")
    tbs.version = value


def _parse_validity(node: TlvNode, ctx: WalkContext) -> None:
    path = "tbsCertificate.validity"
    if len(node.children) != 2:
        ctx.add(_MISMATCH, node, path, f"validity with {len(node.children)} fields")
        return
    for label, child in zip(("notBefore", "notAfter"), node.children):
        if plain_time(child):
            continue
        sub = f"{path}.{label}"
        if child.tag != TAG_UTC_TIME and child.tag != TAG_GENERALIZED_TIME:
            ctx.add(_MISMATCH, child, sub, f"{label} must be a time, found {child.describe_tag()}")
            continue
        ctx.decode(validate_time, child, sub)


def _parse_tbs(node: TlvNode, ctx: WalkContext) -> ParsedTbs:
    path = "tbsCertificate"
    tbs = ParsedTbs()
    if not ctx.expect(_MISMATCH, node, TAG_SEQUENCE, path, "tbsCertificate must be a SEQUENCE"):
        raise _Abort
    kids = node.children
    idx = 0

    if idx < len(kids) and kids[idx].tag in (0x80, 0xA0):  # [0], either form
        _parse_version(kids[idx], tbs, ctx)
        idx += 1

    def need(label: str) -> TlvNode | None:
        nonlocal idx
        if idx >= len(kids):
            end = node.content_offset + node.content_length
            ctx.add(_MISMATCH, end, path, f"tbsCertificate ends before {label}")
            raise _Abort
        got = kids[idx]
        idx += 1
        return got

    serial_node = need("serialNumber")
    sub = f"{path}.serialNumber"
    if ctx.expect(_MISMATCH, serial_node, TAG_INTEGER, sub, "serialNumber must be an INTEGER"):
        serial = ctx.decode(decode_integer, serial_node, sub)
        if serial is not None and serial <= 0:
            ctx.add(Code.NON_POSITIVE_SERIAL, serial_node, sub, f"serial number {serial}")

    alg_node = need("signature")
    tbs.inner_algorithm = parse_algorithm_identifier(alg_node, "signature", ctx, f"{path}.signature")

    tbs.issuer = need("issuer")
    parse_name(tbs.issuer, ctx, f"{path}.issuer", role="issuer")

    validity_node = need("validity")
    what = "validity must be a SEQUENCE"
    if ctx.expect(_MISMATCH, validity_node, TAG_SEQUENCE, f"{path}.validity", what):
        _parse_validity(validity_node, ctx)

    tbs.subject = need("subject")
    tbs.subject_empty = parse_name(tbs.subject, ctx, f"{path}.subject", role="subject")

    spki_node = need("subjectPublicKeyInfo")
    tbs.key_family = parse_spki(spki_node, ctx, f"{path}.subjectPublicKeyInfo")

    for tag, label in ((0x81, "issuerUniqueID"), (0x82, "subjectUniqueID")):
        if idx < len(kids) and kids[idx].tag in (tag, tag | 0x20):  # [1] or [2], either form
            uid = kids[idx]
            idx += 1
            tbs.has_unique_id = True
            sub = f"{path}.{label}"
            if uid.tag != tag:
                ctx.add(_MISMATCH, uid, sub, f"{label} must be primitive")
                continue
            ctx.decode(decode_bit_string, uid, sub)

    if idx < len(kids) and kids[idx].tag in (0x83, 0xA3):  # [3], either form
        wrapper = kids[idx]
        idx += 1
        tbs.extensions_present = True
        if wrapper.tag == 0x83:
            ctx.add(_MISMATCH, wrapper, f"{path}.extensions", "extensions wrapper must be constructed")
        else:
            tbs.extensions = parse_extensions(wrapper, ctx)

    if idx < len(kids):
        extra = kids[idx]
        ctx.add(_MISMATCH, extra, path, f"unexpected field {extra.describe_tag()} after position {idx}")

    return tbs


# --- whole certificates ------------------------------------------------------


def parse_certificate(data: bytes | bytearray | memoryview, registry: Registry | None = None) -> ParsedCertificate:
    """Recognize one DER certificate, collecting every diagnostic found.

    Accepts bytes-like data.  The result's accepted flag is derived from
    the diagnostics alone.
    """
    # bytes(): Registry.by_der is keyed by node content, which a bytearray's slices would leave unhashable.
    try:
        node = parse_tlv_tree(bytes(data))
    except RecognitionError as err:
        # Refused by the scan: one diagnostic, and no walk to set up.
        return ParsedCertificate(diagnostics=[Diagnostic(err.code, err.offset, "certificate", err.message)])

    ctx = WalkContext(registry if registry is not None else default_registry())
    result = ParsedCertificate(diagnostics=ctx.diags)

    what = "certificate must be a SEQUENCE"
    if not ctx.expect(_MISMATCH, node, TAG_SEQUENCE, "certificate", what):
        return result
    if len(node.children) != 3:
        ctx.add(
            _MISMATCH, node, "certificate", f"certificate with {len(node.children)} fields, expected 3"
        )
        return result

    tbs_node, alg_node, sig_node = node.children
    try:
        result.tbs = _parse_tbs(tbs_node, ctx)
    except _Abort:
        pass
    result.outer_algorithm = parse_algorithm_identifier(alg_node, "signature", ctx, "signatureAlgorithm")
    parse_signature_value(sig_node, result.outer_algorithm, ctx)

    if result.tbs is not None:
        _post_checks(result, ctx)
    return result


def _post_checks(result: ParsedCertificate, ctx: WalkContext) -> None:
    tbs = result.tbs

    if tbs.extensions_present and tbs.version in (0, 1):
        ctx.add(
            Code.EXTENSIONS_REQUIRE_V3,
            None,
            "tbsCertificate.extensions",
            f"extensions present in a version {tbs.version + 1} certificate",
        )
    if tbs.has_unique_id and tbs.version == 0:
        ctx.add(
            Code.UNIQUE_ID_REQUIRES_V2_PLUS,
            None,
            "tbsCertificate",
            "unique identifiers present in a version 1 certificate",
        )

    extset = tbs.extensions
    if tbs.subject_empty:
        san = extset.get(OID_SUBJECT_ALT_NAME) if extset else None
        if san is None or not san.critical:
            ctx.add(
                Code.EMPTY_SUBJECT_DN, None, "tbsCertificate.subject", "empty subject without a critical subjectAltName"
            )

    if extset is not None:
        check_key_usage_rules(extset, tbs.key_family, ctx)

    if all(part is not None for part in (tbs.inner_algorithm, result.outer_algorithm, tbs.subject, tbs.issuer)):
        run_cross_checks(tbs, result.outer_algorithm, ctx)
