"""Cross-field agreement checks.

These checks compare raw encodings between distant parts of one
certificate: the two algorithm identifier copies, and the subject
against the issuer.  Agreement is byte equality of the full encodings,
which is strictly finer than value equality and needs no further
decoding.  They read the walk's own records and nodes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .der import TlvNode
from .diagnostics import Code
from .extensions import OID_AUTHORITY_KEY_IDENTIFIER, AkiValue, WalkContext

if TYPE_CHECKING:
    from .grammar import AlgorithmId, ParsedTbs


def check_aid_match(inner: bytes, outer: bytes, at: TlvNode | int | None, ctx: WalkContext) -> bool:
    """The tbsCertificate.signature field must repeat the outer algorithm."""
    if inner == outer:
        return True
    message = "inner and outer signature algorithm encodings differ"
    ctx.add(Code.SIGNATURE_ALGORITHM_MISMATCH, at, "tbsCertificate.signature", message)
    return False


def run_cross_checks(tbs: ParsedTbs, outer: AlgorithmId, ctx: WalkContext) -> None:
    """Both agreement rules, on a walk whose algorithms, subject and issuer were all found.

    A certificate should name its issuer's key.  A missing key identifier
    is reported either way, but only the non-self-issued case is a
    rejection: a self-issued certificate's issuer key is its own and
    nothing is left ambiguous.
    """
    inner = tbs.inner_algorithm.node
    check_aid_match(inner.raw, outer.node.raw, inner, ctx)
    aki = tbs.extensions.get(OID_AUTHORITY_KEY_IDENTIFIER) if tbs.extensions else None
    if aki is not None and isinstance(aki.body, AkiValue) and aki.body.key_id is not None:
        return
    if tbs.subject.raw == tbs.issuer.raw:
        code, detail = Code.MISSING_KEY_IDENTIFIER_SELF_ISSUED, "self-issued"
    else:
        code, detail = Code.MISSING_KEY_IDENTIFIER_NOT_SELF_ISSUED, "not self-issued"
    message = f"no authority key identifier ({detail} certificate)"
    ctx.add(code, aki.node if aki else None, "tbsCertificate.extensions", message)
