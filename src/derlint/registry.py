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
keybits and keyfamily lines).  Duplicate (OID, role) pairs are an error, and
so is an OID not spelled as the walk spells one (decimal arcs, no leading zero)
or one the walk never decodes: a first arc above 2, a second arc above 39 under
arc 0 or 1, or an arc above 2**32-1.
The bundled file covers exactly the algorithm identifiers the certificate
profile standards spell out in full, plus the standard extension and
naming attribute OIDs; deployments pass an extended copy explicitly
(--registry, or load_registry(path)).  Nothing else selects the
registry, so a verdict depends only on the input octets and the
registry the caller passes.

by_der starts empty.  The walk adds the DER content octets of an OID it
has named, keyed to the dotted form, when that form is in oids, so a
registered OID is decoded once per registry and the table never holds
more than the registry file names.  Any other OID is decoded in full.

silent_extensions starts empty too.  The extension walk adds the whole
encoding of a short extension entry it walked without a diagnostic,
keyed to what that walk gave (extnID, critical flag, body value), so a
repeated entry is not walked again; extensions.py bounds it.
"""

from __future__ import annotations

import functools
import re
from importlib import resources

from .values import ARC_MAX

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
    # Curve grammars are point-N where N, ASCII digits with no leading zero, is the
    # coordinate width in octets; the shape is validated instead of enumerating a set.
    "curve": set(),
}

# Dotted OID text as the walk spells a decoded OID: two or more ASCII decimal arcs, none with a leading zero.
_DOTTED_OID = re.compile(r"(?:0|[1-9][0-9]*)(?:\.(?:0|[1-9][0-9]*))+")


class Registry:
    """Parsed registry, one mapping per role; every role has one, so by_role[role].get(oid) is lookup(role, oid).

    Registry() is empty: parse_registry fills by_role and oids, and the walks fill by_der and silent_extensions.
    Equality and repr read what the file gave, by_role and oids; by_der and silent_extensions are left out, so
    linting with a registry does not change what it equals.
    """

    __slots__ = ("by_role", "oids", "by_der", "silent_extensions")

    def __init__(self):
        self.by_role: dict[str, dict[str, str]] = {role: {} for role in _VALID_GRAMMARS}
        self.oids: set[str] = set()
        self.by_der: dict[bytes, str] = {}
        self.silent_extensions: dict[bytes, tuple[str, bool, object]] = {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.by_role, self.oids) == (other.by_role, other.oids)

    def __repr__(self) -> str:
        return f"<Registry by_role={self.by_role!r} oids={self.oids!r}>"

    def lookup(self, role: str, oid: str) -> str | None:
        return self.by_role[role].get(oid)


def parse_registry(text: str, source: str = "<string>") -> Registry:
    reg = Registry()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(";")]
        if len(parts) != 3:
            raise ValueError(f"{source}:{lineno}: expected 'oid ; role ; grammar'")
        oid, role, grammar = parts
        if not _DOTTED_OID.fullmatch(oid):
            raise ValueError(f"{source}:{lineno}: {oid!r} is not a dotted OID")
        # An arc of 11 digits is past the cap already, and int() refuses a str of over 4,300.
        arcs = [int(arc) if len(arc) <= 10 else ARC_MAX + 1 for arc in oid.split(".")]
        if arcs[0] > 2 or (arcs[0] < 2 and arcs[1] > 39) or max(arcs) > ARC_MAX:
            raise ValueError(f"{source}:{lineno}: no DER OID decodes to {oid!r}")
        if role not in _VALID_GRAMMARS:
            raise ValueError(f"{source}:{lineno}: unknown role {role!r}")
        if role == "curve":
            if not re.fullmatch("point-[1-9][0-9]*", grammar):
                raise ValueError(f"{source}:{lineno}: curve grammar must be point-N")
        elif grammar not in _VALID_GRAMMARS[role]:
            raise ValueError(f"{source}:{lineno}: unknown grammar {grammar!r} for role {role}")
        bucket = reg.by_role[role]
        if oid in bucket:
            raise ValueError(f"{source}:{lineno}: duplicate entry for ({oid}, {role})")
        bucket[oid] = grammar
        reg.oids.add(oid)
    return reg


def load_registry(path: str | None = None) -> Registry:
    """Load the registry from path, or the bundled file when path is None."""
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_registry(fh.read(), source=path)
    text = resources.files("derlint.data").joinpath("registry.txt").read_text()
    return parse_registry(text, source="<builtin>")


@functools.cache
def default_registry() -> Registry:
    """The bundled registry, loaded once."""
    return load_registry()
