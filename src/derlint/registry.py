"""Registry of object identifiers the certificate grammar recognizes.

The registry is a line-oriented data file, one record per line:

    dotted-OID ; role ; grammar-name

'#' starts a comment, blank lines are skipped, whitespace around fields is
ignored.  Roles used by the recognizer:

    signature   parameter grammar for a signature AlgorithmIdentifier
    sigvalue    inner grammar of the signatureValue BIT STRING payload
    spki        parameter grammar for a subject public key AlgorithmIdentifier
    keybits     inner grammar of the subjectPublicKey BIT STRING payload
    keyfamily   key algorithm family, for key usage compatibility rules
    curve       named curve; grammar-name "point-N" gives the coordinate width
    extension   certificate extension body grammar
    attribute   naming attribute; grammar-name is the allowed string kind

An OID may appear under several roles (a public key algorithm has spki,
keybits and keyfamily lines).  Duplicate (OID, role) pairs are an error.
The bundled file covers exactly the algorithm identifiers the certificate
profile standards spell out in full, plus the standard extension and
naming attribute OIDs; deployments can point DERLINT_REGISTRY or
--registry at an extended copy.

by_der maps the DER content octets of each registered OID to its dotted
form, so the walk names registered OIDs without decoding them.  It holds
only OIDs whose encoding decodes back to exactly the registered text; no
decoded OID can equal any other entry.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from importlib import resources

from .der import TlvNode
from .diagnostics import RecognitionError
from .values import TAG_OID, decode_oid, dotted

ENV_REGISTRY = "DERLINT_REGISTRY"

_VALID_GRAMMARS = {
    "signature": {"null", "absent", "rsa-pss-params"},
    "sigvalue": {"opaque", "dss-sig"},
    "spki": {"null", "named-curve", "dss-params", "dh-params", "kea-params", "gost-params"},
    "keybits": {"rsa-key", "ec-point", "integer-key", "octet-key"},
    "keyfamily": {"rsa", "dsa", "dh", "kea", "ec", "gost"},
    "extension": {
        "authority-key-identifier",
        "subject-key-identifier",
        "key-usage",
        "certificate-policies",
        "policy-mappings",
        "subject-alt-name",
        "issuer-alt-name",
        "subject-directory-attributes",
        "basic-constraints",
        "name-constraints",
        "policy-constraints",
        "extended-key-usage",
        "crl-distribution-points",
        "inhibit-any-policy",
        "freshest-crl",
        "authority-info-access",
        "subject-info-access",
    },
    "attribute": {"dir-string", "printable", "ia5"},
    # Curve grammars are point-N where N is the coordinate width in
    # octets; the shape is validated instead of enumerating a set.
    "curve": set(),
}


@dataclass
class Registry:
    """Parsed registry, one mapping per role."""

    by_role: dict[str, dict[str, str]] = field(default_factory=dict)
    source: str = "<builtin>"
    by_der: dict[bytes, str] = field(default_factory=dict)

    def lookup(self, role: str, oid: str) -> str | None:
        return self.by_role.get(role, {}).get(oid)

    def curve_width(self, oid: str) -> int | None:
        name = self.lookup("curve", oid)
        if name is None:
            return None
        return int(name.split("-", 1)[1])


def parse_registry(text: str, source: str = "<string>") -> Registry:
    reg = Registry(source=source)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(";")]
        if len(parts) != 3:
            raise ValueError(f"{source}:{lineno}: expected 'oid ; role ; grammar'")
        oid, role, grammar = parts
        if role not in _VALID_GRAMMARS:
            raise ValueError(f"{source}:{lineno}: unknown role {role!r}")
        known = _VALID_GRAMMARS[role]
        if role == "curve":
            if not grammar.startswith("point-") or not grammar[6:].isdigit():
                raise ValueError(f"{source}:{lineno}: curve grammar must be point-N")
        elif grammar not in known:
            raise ValueError(f"{source}:{lineno}: unknown grammar {grammar!r} for role {role}")
        bucket = reg.by_role.setdefault(role, {})
        if oid in bucket:
            raise ValueError(f"{source}:{lineno}: duplicate entry for ({oid}, {role})")
        bucket[oid] = grammar
    for oid in {oid for bucket in reg.by_role.values() for oid in bucket}:
        content = _oid_content(oid)
        if content is not None:
            reg.by_der[content] = oid
    return reg


def _oid_content(oid: str) -> bytes | None:
    """The DER content octets of a dotted OID, or None if none decode back to exactly oid."""
    try:
        arcs = [int(arc) for arc in oid.split(".")]
        values = (40 * arcs[0] + arcs[1], *arcs[2:])
    except (ValueError, IndexError):
        return None
    content = bytearray()
    for value in values:
        septets = [value & 0x7F]
        while value > 0x7F:
            value >>= 7
            septets.append(0x80 | (value & 0x7F))
        content += bytes(reversed(septets))
    node = TlvNode("universal", False, TAG_OID, 0, 0, len(content), bytes(content))
    try:
        decoded = dotted(decode_oid(node))
    except RecognitionError:
        return None
    return node.buffer if decoded == oid else None


def load_registry(path: str | None = None) -> Registry:
    """Load the registry from path, DERLINT_REGISTRY, or the bundled file."""
    if path is None:
        path = os.environ.get(ENV_REGISTRY) or None
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_registry(fh.read(), source=path)
    text = resources.files("derlint.data").joinpath("registry.txt").read_text()
    return parse_registry(text, source="<builtin>")


_DEFAULT: Registry | None = None


def default_registry() -> Registry:
    """The bundled registry (or the env-var override), loaded once."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = load_registry()
    return _DEFAULT
