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

from dataclasses import dataclass, field

from .der import TlvNode, parse_tlv_tree
from .diagnostics import Code, Diagnostic, RecognitionError
from .extensions import (
    OID_AUTHORITY_KEY_IDENTIFIER,
    OID_SUBJECT_ALT_NAME,
    AkiValue,
    ExtensionEntry,
    WalkContext,
    check_key_usage_rules,
    parse_extensions,
)
from .matchers import CsCheckInput, run_cross_checks
from .names import NameInfo, parse_name
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
    validate_time,
)

# Unused here (WalkContext.oid reads OIDs); perfbench's traced run wraps these names.
from .values import decode_oid, dotted  # noqa: F401

# The codes an accepted walk passes, bound once: a Code.X read costs over ten global reads (EnumType.__getattr__).
_MISMATCH, _WRONG_ALGORITHM = Code.STRUCTURAL_MISMATCH, Code.WRONG_ALGORITHM
_MALFORMED_PARAMS, _MALFORMED_KEY, _MALFORMED_SIG = (
    Code.MALFORMED_PARAMETERS, Code.MALFORMED_PUBLIC_KEY, Code.MALFORMED_SIGNATURE_STRUCTURE
)


@dataclass
class AlgorithmId:
    node: TlvNode
    oid: str | None = None
    grammar: str | None = None
    curve_oid: str | None = None


@dataclass
class SpkiInfo:
    algorithm: AlgorithmId | None = None
    key_family: str | None = None


@dataclass
class ParsedTbs:
    version: int = 0
    inner_algorithm: AlgorithmId | None = None
    issuer: NameInfo | None = None
    subject: NameInfo | None = None
    spki: SpkiInfo | None = None
    has_unique_id: bool = False
    extensions: dict[str, ExtensionEntry] | None = None
    extensions_present: bool = False


@dataclass
class ParsedCertificate:
    tbs: ParsedTbs | None = None
    outer_algorithm: AlgorithmId | None = None
    diagnostics: list[Diagnostic] = field(default_factory=list)

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
    what = "AlgorithmIdentifier must be a SEQUENCE"
    if not ctx.expect(_MISMATCH, node, TAG_SEQUENCE, True, path, what):
        return None
    out = AlgorithmId(node)
    kids = node.children
    if not 1 <= len(kids) <= 2:
        ctx.add(_MISMATCH, node, path, f"AlgorithmIdentifier with {len(kids)} fields")
        return out

    if not ctx.expect(_WRONG_ALGORITHM, kids[0], TAG_OID, False, f"{path}.algorithm", "algorithm must be an OID"):
        return out
    out.oid = ctx.oid(kids[0], f"{path}.algorithm", wrong_oid=_WRONG_ALGORITHM)
    if out.oid is None:
        return out

    out.grammar = ctx.reg.lookup(role, out.oid)
    if out.grammar is None:
        ctx.add(_WRONG_ALGORITHM, kids[0], f"{path}.algorithm", f"{out.oid} is not a registered {role} algorithm")
        return out

    params = kids[1] if len(kids) == 2 else None
    _check_parameters(out, params, node, ctx, f"{path}.parameters")
    return out


def _check_parameters(
    alg: AlgorithmId,
    params: TlvNode | None,
    holder: TlvNode,
    ctx: WalkContext,
    path: str,
) -> None:
    grammar = alg.grammar

    if grammar == "absent":
        if params is None:
            return
        if params.is_universal(TAG_NULL, False):
            ctx.add(Code.UNEXPECTED_NULL_IN_ALGORITHM_P, params, path, f"{alg.oid} takes no parameters, NULL present")
        else:
            ctx.add(_MALFORMED_PARAMS, params, path, f"{alg.oid} takes no parameters, found {params.describe_tag()}")
        return

    if grammar == "null":
        need = f"{alg.oid} requires NULL parameters"
        if params is None:
            ctx.add(Code.MISSING_PARAMETERS, holder, path, need)
        elif ctx.expect(_MALFORMED_PARAMS, params, TAG_NULL, False, path, need) and params.content_length != 0:
            ctx.add(_MALFORMED_PARAMS, params, path, "NULL with content octets")
        return

    if grammar == "named-curve":
        if params is None:
            ctx.add(Code.MISSING_PARAMETERS, holder, path, f"{alg.oid} requires a named curve")
            return
        if not ctx.expect(_MALFORMED_PARAMS, params, TAG_OID, False, path, "named curve must be an OID"):
            return
        curve = ctx.oid(params, path, wrong_oid=_MALFORMED_PARAMS)
        if curve is None:
            return
        if ctx.reg.lookup("curve", curve) is None:
            ctx.add(_WRONG_ALGORITHM, params, path, f"{curve} is not a registered curve")
            return
        alg.curve_oid = curve
        return

    if params is None:
        ctx.add(Code.MISSING_PARAMETERS, holder, path, f"{alg.oid} requires parameters")
        return

    if grammar == "dss-params":
        if not params.is_universal(TAG_SEQUENCE, True) or len(params.children) != 3:
            ctx.add(_MALFORMED_PARAMS, params, path, "domain parameters must be a SEQUENCE of three INTEGERs")
            return
        for part in params.children:
            if not ctx.expect(_MALFORMED_PARAMS, part, TAG_INTEGER, False, path, "domain parameter must be an INTEGER"):
                return
            ctx.decode(decode_integer, part, path)
        return

    if grammar == "dh-params":
        _check_dh_params(params, ctx, path)
        return

    if grammar == "kea-params":
        what = "domain identifier must be an OCTET STRING"
        if ctx.expect(_MALFORMED_PARAMS, params, TAG_OCTET_STRING, False, path, what) and params.content_length == 0:
            ctx.add(Code.EMPTY_VALUE_FIELD, params, path, "empty domain identifier")
        return

    if grammar == "gost-params":
        if not params.is_universal(TAG_SEQUENCE, True) or not 2 <= len(params.children) <= 3:
            ctx.add(_MALFORMED_PARAMS, params, path, "parameters must be a SEQUENCE of two or three OIDs")
            return
        for part in params.children:
            if not ctx.expect(_MALFORMED_PARAMS, part, TAG_OID, False, path, "parameter must be an OID"):
                return
            ctx.oid(part, path, wrong_oid=_MALFORMED_PARAMS)
        return

    if grammar == "rsa-pss-params":
        _check_pss_params(params, ctx, path)
        return

    raise AssertionError(f"unhandled parameter grammar {grammar!r}")


def _check_dh_params(params: TlvNode, ctx: WalkContext, path: str) -> None:
    if not params.is_universal(TAG_SEQUENCE, True):
        ctx.add(_MALFORMED_PARAMS, params, path, "domain parameters must be a SEQUENCE")
        return
    kids = list(params.children)
    if len(kids) < 3:
        ctx.add(_MALFORMED_PARAMS, params, path, "domain parameters need prime, base and subprime")
        return
    for part in kids[:3]:
        if not ctx.expect(_MALFORMED_PARAMS, part, TAG_INTEGER, False, path, "domain parameter must be an INTEGER"):
            return
        ctx.decode(decode_integer, part, path)
    rest = kids[3:]
    if rest and rest[0].is_universal(TAG_INTEGER, False):
        ctx.decode(decode_integer, rest[0], path)
        rest = rest[1:]
    if rest:
        vp = rest.pop(0)
        if not vp.is_universal(TAG_SEQUENCE, True) or len(vp.children) != 2:
            ctx.add(_MALFORMED_PARAMS, vp, path, "validation parameters must be (seed, pgenCounter)")
        else:
            seed, counter = vp.children
            if not seed.is_universal(TAG_BIT_STRING, False):
                ctx.add(_MALFORMED_PARAMS, seed, path, "seed must be a BIT STRING")
            else:
                ctx.decode(decode_bit_string, seed, path)
            if not counter.is_universal(TAG_INTEGER, False):
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
    if not params.is_universal(TAG_SEQUENCE, True):
        ctx.add(_MALFORMED_PARAMS, params, path, "PSS parameters must be a SEQUENCE")
        return
    last = -1
    for child in params.children:
        if child.tag_class != "context" or child.tag_number > 3 or not child.constructed or len(child.children) != 1:
            ctx.add(_MALFORMED_PARAMS, child, path, f"unexpected field {child.describe_tag()} in PSS parameters")
            return
        if child.tag_number <= last:
            ctx.add(_MALFORMED_PARAMS, child, path, "PSS parameter fields out of order or repeated")
            return
        last = child.tag_number
        inner = child.children[0]
        if child.tag_number in (0, 1):
            algorithm = inner.is_universal(TAG_SEQUENCE, True) and 1 <= len(inner.children) <= 2
            if not algorithm or not inner.children[0].is_universal(TAG_OID, False):
                ctx.add(_MALFORMED_PARAMS, inner, path, "PSS algorithm slot must hold an AlgorithmIdentifier")
                return
            ctx.oid(inner.children[0], path, wrong_oid=_MALFORMED_PARAMS)
        else:
            if not inner.is_universal(TAG_INTEGER, False):
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
) -> SpkiInfo | None:
    what = "subjectPublicKeyInfo must be a SEQUENCE"
    if not ctx.expect(_MISMATCH, node, TAG_SEQUENCE, True, path, what):
        return None
    out = SpkiInfo()
    if len(node.children) != 2:
        ctx.add(_MISMATCH, node, path, f"subjectPublicKeyInfo with {len(node.children)} fields")
        return out
    alg_node, key_node = node.children
    out.algorithm = parse_algorithm_identifier(alg_node, "spki", ctx, f"{path}.algorithm")
    if out.algorithm is not None and out.algorithm.oid is not None:
        out.key_family = ctx.reg.lookup("keyfamily", out.algorithm.oid)

    key_path = f"{path}.subjectPublicKey"
    bits = _bit_string_octets(key_node, ctx, key_path, "subjectPublicKey", "key", "public key")
    if bits is None or out.algorithm is None or out.algorithm.oid is None:
        return out
    keybits_grammar = ctx.reg.lookup("keybits", out.algorithm.oid)
    if keybits_grammar is None:
        return out
    _check_key_bits(keybits_grammar, key_node, bits, out, ctx, key_path)
    return out


def _bit_string_octets(node: TlvNode, ctx: WalkContext, path: str, slot: str, noun: str, empty: str) -> bytes | None:
    """The octets a primitive BIT STRING slot carries, or None after recording why it carries none.

    slot names the field in the tag message, noun its bits, and empty what
    an empty one lacks.  Unused bits are recorded, and the octets still
    returned.
    """
    what = f"{slot} must be a primitive BIT STRING"
    if not ctx.expect(_MISMATCH, node, TAG_BIT_STRING, False, path, what):
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
    if not ctx.expect(code, node, TAG_INTEGER, False, path, f"{what} must be an INTEGER"):
        return
    value = ctx.decode(decode_integer, node, path)
    if value is not None and value <= 0:
        ctx.add(code, node, path, f"non-positive {what}")


def _check_key_bits(
    grammar: str,
    key_node: TlvNode,
    bits: bytes,
    out: SpkiInfo,
    ctx: WalkContext,
    path: str,
) -> None:
    if grammar == "ec-point":
        # The point starts after the BIT STRING's unused-bits octet.
        point_offset = key_node.content_offset + 1
        first = bits[0]
        width = ctx.reg.curve_width(out.algorithm.curve_oid) if out.algorithm and out.algorithm.curve_oid else None
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
        if not root.is_universal(TAG_SEQUENCE, True) or len(root.children) != 2:
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
        if ctx.expect(_MALFORMED_KEY, root, TAG_OCTET_STRING, False, path, what) and root.content_length == 0:
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
    if not root.is_universal(TAG_SEQUENCE, True) or len(root.children) != 2:
        ctx.add(_MALFORMED_SIG, root, path, "signature must be a SEQUENCE of two INTEGERs")
        return
    for what, part in zip(("r", "s"), root.children):
        _positive_integer(part, what, _MALFORMED_SIG, ctx, path)


# --- tbsCertificate ----------------------------------------------------------


def _parse_version(node: TlvNode, tbs: ParsedTbs, ctx: WalkContext) -> None:
    path = "tbsCertificate.version"
    if not node.constructed or len(node.children) != 1:
        ctx.add(_MISMATCH, node, path, "version wrapper must hold one INTEGER")
        return
    inner = node.children[0]
    if not ctx.expect(_MISMATCH, inner, TAG_INTEGER, False, path, "version must be an INTEGER"):
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
        sub = f"{path}.{label}"
        if not (child.is_universal(TAG_UTC_TIME, False) or child.is_universal(TAG_GENERALIZED_TIME, False)):
            ctx.add(_MISMATCH, child, sub, f"{label} must be a time, found {child.describe_tag()}")
            continue
        ctx.decode(validate_time, child, sub)


def _parse_tbs(node: TlvNode, ctx: WalkContext) -> ParsedTbs:
    path = "tbsCertificate"
    tbs = ParsedTbs()
    if not ctx.expect(_MISMATCH, node, TAG_SEQUENCE, True, path, "tbsCertificate must be a SEQUENCE"):
        raise _Abort
    kids = node.children
    idx = 0

    if idx < len(kids) and kids[idx].is_context(0):
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
    if ctx.expect(_MISMATCH, serial_node, TAG_INTEGER, False, sub, "serialNumber must be an INTEGER"):
        serial = ctx.decode(decode_integer, serial_node, sub)
        if serial is not None and serial <= 0:
            ctx.add(Code.NON_POSITIVE_SERIAL, serial_node, sub, f"serial number {serial}")

    alg_node = need("signature")
    tbs.inner_algorithm = parse_algorithm_identifier(alg_node, "signature", ctx, f"{path}.signature")

    issuer_node = need("issuer")
    tbs.issuer = parse_name(issuer_node, ctx, f"{path}.issuer", role="issuer")

    validity_node = need("validity")
    what = "validity must be a SEQUENCE"
    if ctx.expect(_MISMATCH, validity_node, TAG_SEQUENCE, True, f"{path}.validity", what):
        _parse_validity(validity_node, ctx)

    subject_node = need("subject")
    tbs.subject = parse_name(subject_node, ctx, f"{path}.subject", role="subject")

    spki_node = need("subjectPublicKeyInfo")
    tbs.spki = parse_spki(spki_node, ctx, f"{path}.subjectPublicKeyInfo")

    for tag_number, label in ((1, "issuerUniqueID"), (2, "subjectUniqueID")):
        if idx < len(kids) and kids[idx].is_context(tag_number):
            uid = kids[idx]
            idx += 1
            tbs.has_unique_id = True
            sub = f"{path}.{label}"
            if uid.constructed:
                ctx.add(_MISMATCH, uid, sub, f"{label} must be primitive")
                continue
            ctx.decode(decode_bit_string, uid, sub)

    if idx < len(kids) and kids[idx].is_context(3):
        wrapper = kids[idx]
        idx += 1
        tbs.extensions_present = True
        if not wrapper.constructed:
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
    ctx = WalkContext(registry if registry is not None else default_registry())
    result = ParsedCertificate(diagnostics=ctx.diags)

    # bytes(): Registry.by_der is keyed by node content, which a bytearray's slices would leave unhashable.
    try:
        node = parse_tlv_tree(bytes(data))
    except RecognitionError as err:
        ctx.add(err.code, err.offset, "certificate", err.message)
        return result

    what = "certificate must be a SEQUENCE"
    if not ctx.expect(_MISMATCH, node, TAG_SEQUENCE, True, "certificate", what):
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
    if tbs.subject is not None and tbs.subject.empty:
        san = extset.get(OID_SUBJECT_ALT_NAME) if extset else None
        if san is None or not san.critical:
            ctx.add(
                Code.EMPTY_SUBJECT_DN, None, "tbsCertificate.subject", "empty subject without a critical subjectAltName"
            )

    if extset is not None:
        key_family = tbs.spki.key_family if tbs.spki else None
        check_key_usage_rules(extset, key_family, ctx)

    parts = (tbs.inner_algorithm, result.outer_algorithm, tbs.subject, tbs.issuer)
    if all(part is not None for part in parts):
        aki = extset.get(OID_AUTHORITY_KEY_IDENTIFIER) if extset else None
        aki_key = aki is not None and isinstance(aki.body, AkiValue) and aki.body.key_id is not None
        run_cross_checks(
            CsCheckInput(
                inner_alg_raw=tbs.inner_algorithm.node.raw,
                outer_alg_raw=result.outer_algorithm.node.raw,
                subject_raw=tbs.subject.node.raw,
                issuer_raw=tbs.issuer.node.raw,
                has_aki=aki is not None,
                aki_has_key_id=aki_key,
                inner_alg_offset=tbs.inner_algorithm.node.header_offset,
                aki_offset=aki.node.header_offset if aki else None,
            ),
            ctx.diags,
        )
