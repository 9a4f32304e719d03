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
naming attribute OIDs; deployments pass an extended copy explicitly
(--registry, or load_registry(path)).  Nothing else selects the
registry, so a verdict depends only on the input octets and the
registry the caller passes.

by_der starts empty.  The walk adds the DER content octets of an OID it
has named, keyed to the dotted form, when that form is in oids, so a
registered OID is decoded once per registry and the table never holds
more than the registry file names.  An OID not in the table whose
octets are all ASCII (one whole sub-identifier each, as in the OCSP,
caIssuers, CPS, serverAuth and clientAuth OIDs) is named from its octets
without the decoder's arc loop; any other is decoded in full.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from importlib import resources

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
    oids: set[str] = field(default_factory=set)
    by_der: dict[bytes, str] = field(default_factory=dict)

    def lookup(self, role: str, oid: str) -> str | None:
        table = self.by_role.get(role)
        return None if table is None else table.get(oid)

    def curve_width(self, oid: str) -> int | None:
        name = self.lookup("curve", oid)
        if name is None:
            return None
        return int(name.split("-", 1)[1])


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
