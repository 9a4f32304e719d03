"""Error taxonomy for the certificate recognizer.

Every way a certificate can fail recognition is named by a stable machine
code.  A code carries a severity class (is the flaw usable as an attack
building block, or merely sloppy encoding), a rejection class (does its
presence make the overall outcome "rejected", or is it a recorded note),
and a human-readable label.  Each Code member holds all three itself, so
no code can exist without them.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class Severity(enum.Enum):
    SECURITY_CRITICAL = "security-critical"
    NON_CRITICAL = "non-critical"


_CRIT = Severity.SECURITY_CRITICAL
_NON = Severity.NON_CRITICAL


class Code(enum.Enum):
    """Stable machine identifiers for every recognizable defect.

    Each member's value is its identifier string; the member also carries
    its severity class, whether it rejects, and its label.
    """

    def __new__(cls, value: str, severity: Severity, rejects: bool, label: str):
        member = object.__new__(cls)
        member._value_ = value
        member.severity = severity
        member.rejects = rejects
        member.label = label
        return member

    # Structural (TLV / length layer).  Anything here means the input is
    # not even a well-formed DER element tree.
    LEXING_ERROR = "LEXING_ERROR", _CRIT, True, "Lexing Error"
    LENGTH_BYTE_FORBIDDEN = "LENGTH_BYTE_FORBIDDEN", _CRIT, True, "Forbidden length octet"
    LENGTH_TOO_LARGE = "LENGTH_TOO_LARGE", _CRIT, True, "Declared length too large"
    NON_MINIMAL_LENGTH = "NON_MINIMAL_LENGTH", _CRIT, True, "Non-minimal length encoding"
    CHILD_OVERFLOW = "CHILD_OVERFLOW", _CRIT, True, "Nested element overflows its parent"
    TRAILING_BYTES = "TRAILING_BYTES", _CRIT, True, "Trailing bytes after element"
    TRUNCATED_INPUT = "TRUNCATED_INPUT", _CRIT, True, "Truncated input"
    NESTING_TOO_DEEP = "NESTING_TOO_DEEP", _CRIT, True, "Nesting depth cap exceeded"

    # Primitive value decoding.
    NON_MINIMAL_INTEGER = "NON_MINIMAL_INTEGER", _CRIT, True, "Non-minimal INTEGER encoding"
    NON_CANONICAL_BOOLEAN = "NON_CANONICAL_BOOLEAN", _CRIT, True, "Non-canonical BOOLEAN encoding"
    BAD_BIT_STRING_ENCODING = "BAD_BIT_STRING_ENCODING", _NON, True, "Bad BIT STRING encoding"
    EMPTY_VALUE_FIELD = "EMPTY_VALUE_FIELD", _NON, True, "Empty value field"
    OID_ARC_OVERFLOW = "OID_ARC_OVERFLOW", _CRIT, True, "OID arc overflow"
    OID_TRUNCATED = "OID_TRUNCATED", _CRIT, True, "Truncated OID arc"
    INVALID_DATE = "INVALID_DATE", _CRIT, True, "Invalid date"
    MALFORMED_TIME = "MALFORMED_TIME", _CRIT, True, "Malformed time value"
    CHAR_SET_VIOLATION = "CHAR_SET_VIOLATION", _CRIT, True, "Character set violation"
    WRONG_STRING_TYPE = "WRONG_STRING_TYPE", _CRIT, True, "Wrong string type"

    # Certificate grammar.
    STRUCTURAL_MISMATCH = "STRUCTURAL_MISMATCH", _CRIT, True, "Certificate grammar mismatch"
    WRONG_ALGORITHM = "WRONG_ALGORITHM", _CRIT, True, "Wrong algorithm"
    UNEXPECTED_NULL_IN_ALGORITHM_P = (
        "UNEXPECTED_NULL_IN_ALGORITHM_P", _CRIT, True, "Unexpected NULL in algorithm parameters"
    )
    MISSING_PARAMETERS = "MISSING_PARAMETERS", _CRIT, True, "Missing algorithm parameters"
    MALFORMED_PARAMETERS = "MALFORMED_PARAMETERS", _CRIT, True, "Malformed algorithm parameters"
    EMPTY_ISSUER_DN = "EMPTY_ISSUER_DN", _CRIT, True, "Empty issuer distinguished name"
    EMPTY_SUBJECT_DN = "EMPTY_SUBJECT_DN", _CRIT, True, "Empty subject without critical subjectAltName"
    INVALID_DN = "INVALID_DN", _NON, True, "Invalid distinguished name"
    WRONG_OID_IN_DN = "WRONG_OID_IN_DN", _NON, True, "Wrong OID in distinguished name"
    EMPTY_STRING = "EMPTY_STRING", _NON, True, "Empty string"
    EXTENSIONS_REQUIRE_V3 = "EXTENSIONS_REQUIRE_V3", _CRIT, True, "Extension found but version is not 3"
    UNIQUE_ID_REQUIRES_V2_PLUS = "UNIQUE_ID_REQUIRES_V2_PLUS", _CRIT, True, "Unique identifier found but version is 1"
    DEFAULT_VALUE_ENCODED = "DEFAULT_VALUE_ENCODED", _NON, True, "DEFAULT value explicitly encoded"
    MALFORMED_PUBLIC_KEY = "MALFORMED_PUBLIC_KEY", _CRIT, True, "Malformed public key"
    REDUNDANT_TRAILING_BYTES = "REDUNDANT_TRAILING_BYTES", _NON, True, "Redundant trailing bytes"
    MALFORMED_SIGNATURE_STRUCTURE = "MALFORMED_SIGNATURE_STRUCTURE", _CRIT, True, "Malformed signature structure"
    NON_POSITIVE_SERIAL = "NON_POSITIVE_SERIAL", _NON, False, "Non-positive serial number"

    # Extension block.
    DUPLICATED_EXTENSION = "DUPLICATED_EXTENSION", _CRIT, True, "Duplicated extension"
    EMPTY_EXTENSION_SEQUENCE = "EMPTY_EXTENSION_SEQUENCE", _NON, True, "Empty extension sequence"
    WRONG_EXTN_ID = "WRONG_EXTN_ID", _NON, True, "Wrong extension identifier"
    MALFORMED_EXTENSION_BODY = "MALFORMED_EXTENSION_BODY", _CRIT, True, "Malformed extension body"
    PATH_LEN_IN_NON_CRITICAL_BC = (
        "PATH_LEN_IN_NON_CRITICAL_BC", _NON, True, "pathLenConstraint in non-critical basicConstraints"
    )
    PATH_LEN_IN_LEAF = "PATH_LEN_IN_LEAF", _NON, True, "pathLenConstraint in leaf certificate"
    NEGATIVE_PATH_LEN = "NEGATIVE_PATH_LEN", _CRIT, True, "Negative pathLenConstraint"
    WRONG_KEY_CERT_SIGN_ENCODING = "WRONG_KEY_CERT_SIGN_ENCODING", _NON, True, "keyCertSign encoding"
    EMPTY_KEY_USAGE = "EMPTY_KEY_USAGE", _NON, True, "Empty keyUsage"
    KEY_CERT_SIGN_WITHOUT_BASIC_CONSTRAINTS = (
        "KEY_CERT_SIGN_WITHOUT_BASIC_CONSTRAINTS", _CRIT, True, "keyCertSign without basicConstraints"
    )
    KEY_CERT_SIGN_IN_LEAF = "KEY_CERT_SIGN_IN_LEAF", _CRIT, True, "keyCertSign in leaf certificate"
    KEY_USAGE_VIOLATION_ON_PK_ALGORITHM = (
        "KEY_USAGE_VIOLATION_ON_PK_ALGORITHM", _CRIT, True, "keyUsage violation on public key algorithm"
    )
    BAD_DNS_URI_EMAIL_FORMAT = "BAD_DNS_URI_EMAIL_FORMAT", _CRIT, True, "Bad DNS/URI/email format"
    EMPTY_GENERAL_NAMES = "EMPTY_GENERAL_NAMES", _NON, True, "Empty generalNames"
    MISSING_SUBJECT_KEY_ID = "MISSING_SUBJECT_KEY_ID", _NON, True, "Missing subjectKeyIdentifier"
    NOT_CRITICAL_BASIC_CONSTRAINTS = "NOT_CRITICAL_BASIC_CONSTRAINTS", _NON, True, "Non-critical basicConstraints"
    WRONG_OID = "WRONG_OID", _NON, True, "Wrong OID"
    EMPTY_SEQUENCE_IN_INFO_ACCESS = "EMPTY_SEQUENCE_IN_INFO_ACCESS", _NON, True, "Empty sequence in information access"

    # Cross-field consistency.
    SIGNATURE_ALGORITHM_MISMATCH = "SIGNATURE_ALGORITHM_MISMATCH", _CRIT, True, "Signature algorithm mismatch"
    MISSING_KEY_IDENTIFIER_NOT_SELF_ISSUED = (
        "MISSING_KEY_IDENTIFIER_NOT_SELF_ISSUED", _NON, True, "Missing keyIdentifier in non-self-issued certificate"
    )
    MISSING_KEY_IDENTIFIER_SELF_ISSUED = (
        "MISSING_KEY_IDENTIFIER_SELF_ISSUED", _NON, False, "Missing keyIdentifier in self-issued certificate"
    )

    # Input container.
    BAD_PEM_ARMOR = "BAD_PEM_ARMOR", _NON, True, "Bad PEM armor"
    BAD_BASE64 = "BAD_BASE64", _NON, True, "Bad base64 payload"
    UNRECOGNIZED_FORMAT = "UNRECOGNIZED_FORMAT", _NON, True, "Unrecognized input format"


class Diagnostic(NamedTuple):
    """One recognized defect, anchored to an input location.

    grammar_path is a dotted walk from the certificate root, for example
    "tbsCertificate.validity.notAfter".  byte_offset is the offset of the
    offending octet in the input document, or None when the defect is a
    whole-document property.
    """

    code: Code
    byte_offset: int | None = None
    grammar_path: str = ""
    message: str = ""

    @property
    def severity(self) -> Severity:
        """The severity class of the code; a diagnostic stores no severity of its own."""
        return self.code.severity

    def to_json_dict(self) -> dict:
        return {
            "code": self.code.value,
            "severity": self.severity.value,
            "byte_offset": self.byte_offset,
            "path": self.grammar_path,
            "message": self.message,
        }


def diag(
    code: Code,
    *,
    path: str = "",
    offset: int | None = None,
    message: str = "",
) -> Diagnostic:
    """Build a Diagnostic whose message defaults to the code's label."""
    return Diagnostic(code, offset, path, message or code.label)


class RecognitionError(Exception):
    """Typed failure used by the structural layers.

    Carries the taxonomy code and the offset of the offending octet so that
    callers can turn it into a Diagnostic without re-deriving context.
    """

    def __init__(self, code: Code, offset: int | None = None, message: str = ""):
        self.code = code
        self.offset = offset
        self.message = message or code.label

    def __str__(self) -> str:
        return f"{self.code.value} at offset {self.offset}: {self.message}"


class Histogram:
    """Counts of diagnostics across a batch."""

    __slots__ = ("total", "accepted", "rejected", "counts")

    def __init__(self):
        self.total = 0
        self.accepted = 0
        self.rejected = 0
        self.counts: dict[Code, int] = {}

    def add(self, diagnostics: list[Diagnostic]) -> None:
        self.total += 1
        if any(d.code.rejects for d in diagnostics):
            self.rejected += 1
        else:
            self.accepted += 1
        for d in diagnostics:
            self.counts[d.code] = self.counts.get(d.code, 0) + 1

    def merge(self, other: Histogram) -> None:
        self.total += other.total
        self.accepted += other.accepted
        self.rejected += other.rejected
        for code, n in other.counts.items():
            self.counts[code] = self.counts.get(code, 0) + n

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "counts": {c.value: n for c, n in sorted(self.counts.items(), key=lambda kv: kv[0].value)},
        }
