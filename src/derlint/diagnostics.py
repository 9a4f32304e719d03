"""Error taxonomy for the certificate recognizer.

Every way a certificate can fail recognition is named by a stable machine
code.  A code carries a severity class (is the flaw usable as an attack
building block, or merely sloppy encoding), a rejection class (does its
presence make the overall outcome "rejected", or is it a recorded note),
and a human-readable label.  The registry is closed: emitting a code that
is not registered is a programming error, checked at import time.

The module also knows how to classify the outcome strings of a handful of
widely deployed validators into coarse categories (syntactic, validation,
generic), driven by a bundled data file so the table can be extended
without touching code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from importlib import resources


class Severity(enum.Enum):
    SECURITY_CRITICAL = "security-critical"
    NON_CRITICAL = "non-critical"


class Category(enum.Enum):
    """Coarse classification of a rejection message."""

    SYNTACTIC = "syntactic"
    VALIDATION = "validation"
    GENERIC = "generic"


class Code(enum.Enum):
    """Stable machine identifiers for every recognizable defect."""

    # Structural (TLV / length layer).  Anything here means the input is
    # not even a well-formed DER element tree.
    LEXING_ERROR = "LEXING_ERROR"
    LENGTH_BYTE_FORBIDDEN = "LENGTH_BYTE_FORBIDDEN"
    LENGTH_TOO_LARGE = "LENGTH_TOO_LARGE"
    NON_MINIMAL_LENGTH = "NON_MINIMAL_LENGTH"
    CHILD_OVERFLOW = "CHILD_OVERFLOW"
    TRAILING_BYTES = "TRAILING_BYTES"
    TRUNCATED_INPUT = "TRUNCATED_INPUT"
    NESTING_TOO_DEEP = "NESTING_TOO_DEEP"

    # Primitive value decoding.
    NON_MINIMAL_INTEGER = "NON_MINIMAL_INTEGER"
    NON_CANONICAL_BOOLEAN = "NON_CANONICAL_BOOLEAN"
    BAD_BIT_STRING_ENCODING = "BAD_BIT_STRING_ENCODING"
    EMPTY_VALUE_FIELD = "EMPTY_VALUE_FIELD"
    OID_ARC_OVERFLOW = "OID_ARC_OVERFLOW"
    OID_TRUNCATED = "OID_TRUNCATED"
    INVALID_DATE = "INVALID_DATE"
    MALFORMED_TIME = "MALFORMED_TIME"
    CHAR_SET_VIOLATION = "CHAR_SET_VIOLATION"
    WRONG_STRING_TYPE = "WRONG_STRING_TYPE"

    # Certificate grammar.
    STRUCTURAL_MISMATCH = "STRUCTURAL_MISMATCH"
    WRONG_ALGORITHM = "WRONG_ALGORITHM"
    UNEXPECTED_NULL_IN_ALGORITHM_P = "UNEXPECTED_NULL_IN_ALGORITHM_P"
    MISSING_PARAMETERS = "MISSING_PARAMETERS"
    MALFORMED_PARAMETERS = "MALFORMED_PARAMETERS"
    EMPTY_ISSUER_DN = "EMPTY_ISSUER_DN"
    EMPTY_SUBJECT_DN = "EMPTY_SUBJECT_DN"
    INVALID_DN = "INVALID_DN"
    WRONG_OID_IN_DN = "WRONG_OID_IN_DN"
    EMPTY_STRING = "EMPTY_STRING"
    EXTENSIONS_REQUIRE_V3 = "EXTENSIONS_REQUIRE_V3"
    UNIQUE_ID_REQUIRES_V2_PLUS = "UNIQUE_ID_REQUIRES_V2_PLUS"
    DEFAULT_VALUE_ENCODED = "DEFAULT_VALUE_ENCODED"
    MALFORMED_PUBLIC_KEY = "MALFORMED_PUBLIC_KEY"
    REDUNDANT_TRAILING_BYTES = "REDUNDANT_TRAILING_BYTES"
    MALFORMED_SIGNATURE_STRUCTURE = "MALFORMED_SIGNATURE_STRUCTURE"
    NON_POSITIVE_SERIAL = "NON_POSITIVE_SERIAL"

    # Extension block.
    DUPLICATED_EXTENSION = "DUPLICATED_EXTENSION"
    EMPTY_EXTENSION_SEQUENCE = "EMPTY_EXTENSION_SEQUENCE"
    WRONG_EXTN_ID = "WRONG_EXTN_ID"
    MALFORMED_EXTENSION_BODY = "MALFORMED_EXTENSION_BODY"
    PATH_LEN_IN_NON_CRITICAL_BC = "PATH_LEN_IN_NON_CRITICAL_BC"
    PATH_LEN_IN_LEAF = "PATH_LEN_IN_LEAF"
    NEGATIVE_PATH_LEN = "NEGATIVE_PATH_LEN"
    WRONG_KEY_CERT_SIGN_ENCODING = "WRONG_KEY_CERT_SIGN_ENCODING"
    EMPTY_KEY_USAGE = "EMPTY_KEY_USAGE"
    KEY_CERT_SIGN_WITHOUT_BASIC_CONSTRAINTS = "KEY_CERT_SIGN_WITHOUT_BASIC_CONSTRAINTS"
    KEY_CERT_SIGN_IN_LEAF = "KEY_CERT_SIGN_IN_LEAF"
    KEY_USAGE_VIOLATION_ON_PK_ALGORITHM = "KEY_USAGE_VIOLATION_ON_PK_ALGORITHM"
    BAD_DNS_URI_EMAIL_FORMAT = "BAD_DNS_URI_EMAIL_FORMAT"
    EMPTY_GENERAL_NAMES = "EMPTY_GENERAL_NAMES"
    MISSING_SUBJECT_KEY_ID = "MISSING_SUBJECT_KEY_ID"
    NOT_CRITICAL_BASIC_CONSTRAINTS = "NOT_CRITICAL_BASIC_CONSTRAINTS"
    WRONG_OID = "WRONG_OID"
    EMPTY_SEQUENCE_IN_INFO_ACCESS = "EMPTY_SEQUENCE_IN_INFO_ACCESS"

    # Cross-field consistency.
    SIGNATURE_ALGORITHM_MISMATCH = "SIGNATURE_ALGORITHM_MISMATCH"
    MISSING_KEY_IDENTIFIER_NOT_SELF_ISSUED = "MISSING_KEY_IDENTIFIER_NOT_SELF_ISSUED"
    MISSING_KEY_IDENTIFIER_SELF_ISSUED = "MISSING_KEY_IDENTIFIER_SELF_ISSUED"

    # Input container.
    BAD_PEM_ARMOR = "BAD_PEM_ARMOR"
    BAD_BASE64 = "BAD_BASE64"
    UNRECOGNIZED_FORMAT = "UNRECOGNIZED_FORMAT"

    # Catch-all for records that fit no better class.  Never raised by the
    # recognizer itself; kept so externally sourced reports can be folded
    # into the same histogram.
    GENERIC_ERROR = "GENERIC_ERROR"


@dataclass(frozen=True)
class CodeInfo:
    severity: Severity
    rejects: bool
    label: str


_CRIT = Severity.SECURITY_CRITICAL
_NON = Severity.NON_CRITICAL

REGISTRY: dict[Code, CodeInfo] = {
    Code.LEXING_ERROR: CodeInfo(_CRIT, True, "Lexing Error"),
    Code.LENGTH_BYTE_FORBIDDEN: CodeInfo(_CRIT, True, "Forbidden length octet"),
    Code.LENGTH_TOO_LARGE: CodeInfo(_CRIT, True, "Declared length too large"),
    Code.NON_MINIMAL_LENGTH: CodeInfo(_CRIT, True, "Non-minimal length encoding"),
    Code.CHILD_OVERFLOW: CodeInfo(_CRIT, True, "Nested element overflows its parent"),
    Code.TRAILING_BYTES: CodeInfo(_CRIT, True, "Trailing bytes after element"),
    Code.TRUNCATED_INPUT: CodeInfo(_CRIT, True, "Truncated input"),
    Code.NESTING_TOO_DEEP: CodeInfo(_CRIT, True, "Nesting depth cap exceeded"),
    Code.NON_MINIMAL_INTEGER: CodeInfo(_CRIT, True, "Non-minimal INTEGER encoding"),
    Code.NON_CANONICAL_BOOLEAN: CodeInfo(_CRIT, True, "Non-canonical BOOLEAN encoding"),
    Code.BAD_BIT_STRING_ENCODING: CodeInfo(_NON, True, "Bad BIT STRING encoding"),
    Code.EMPTY_VALUE_FIELD: CodeInfo(_NON, True, "Empty value field"),
    Code.OID_ARC_OVERFLOW: CodeInfo(_CRIT, True, "OID arc overflow"),
    Code.OID_TRUNCATED: CodeInfo(_CRIT, True, "Truncated OID arc"),
    Code.INVALID_DATE: CodeInfo(_CRIT, True, "Invalid date"),
    Code.MALFORMED_TIME: CodeInfo(_CRIT, True, "Malformed time value"),
    Code.CHAR_SET_VIOLATION: CodeInfo(_CRIT, True, "Character set violation"),
    Code.WRONG_STRING_TYPE: CodeInfo(_CRIT, True, "Wrong string type"),
    Code.STRUCTURAL_MISMATCH: CodeInfo(_CRIT, True, "Certificate grammar mismatch"),
    Code.WRONG_ALGORITHM: CodeInfo(_CRIT, True, "Wrong algorithm"),
    Code.UNEXPECTED_NULL_IN_ALGORITHM_P: CodeInfo(
        _CRIT, True, "Unexpected NULL in algorithm parameters"
    ),
    Code.MISSING_PARAMETERS: CodeInfo(_CRIT, True, "Missing algorithm parameters"),
    Code.MALFORMED_PARAMETERS: CodeInfo(_CRIT, True, "Malformed algorithm parameters"),
    Code.EMPTY_ISSUER_DN: CodeInfo(_CRIT, True, "Empty issuer distinguished name"),
    Code.EMPTY_SUBJECT_DN: CodeInfo(
        _CRIT, True, "Empty subject without critical subjectAltName"
    ),
    Code.INVALID_DN: CodeInfo(_NON, True, "Invalid distinguished name"),
    Code.WRONG_OID_IN_DN: CodeInfo(_NON, True, "Wrong OID in distinguished name"),
    Code.EMPTY_STRING: CodeInfo(_NON, True, "Empty string"),
    Code.EXTENSIONS_REQUIRE_V3: CodeInfo(
        _CRIT, True, "Extension found but version is not 3"
    ),
    Code.UNIQUE_ID_REQUIRES_V2_PLUS: CodeInfo(
        _CRIT, True, "Unique identifier found but version is 1"
    ),
    Code.DEFAULT_VALUE_ENCODED: CodeInfo(_NON, True, "DEFAULT value explicitly encoded"),
    Code.MALFORMED_PUBLIC_KEY: CodeInfo(_CRIT, True, "Malformed public key"),
    Code.REDUNDANT_TRAILING_BYTES: CodeInfo(_NON, True, "Redundant trailing bytes"),
    Code.MALFORMED_SIGNATURE_STRUCTURE: CodeInfo(
        _CRIT, True, "Malformed signature structure"
    ),
    Code.NON_POSITIVE_SERIAL: CodeInfo(_NON, False, "Non-positive serial number"),
    Code.DUPLICATED_EXTENSION: CodeInfo(_CRIT, True, "Duplicated extension"),
    Code.EMPTY_EXTENSION_SEQUENCE: CodeInfo(_NON, True, "Empty extension sequence"),
    Code.WRONG_EXTN_ID: CodeInfo(_NON, True, "Wrong extension identifier"),
    Code.MALFORMED_EXTENSION_BODY: CodeInfo(_CRIT, True, "Malformed extension body"),
    Code.PATH_LEN_IN_NON_CRITICAL_BC: CodeInfo(
        _NON, True, "pathLenConstraint in non-critical basicConstraints"
    ),
    Code.PATH_LEN_IN_LEAF: CodeInfo(_NON, True, "pathLenConstraint in leaf certificate"),
    Code.NEGATIVE_PATH_LEN: CodeInfo(_CRIT, True, "Negative pathLenConstraint"),
    Code.WRONG_KEY_CERT_SIGN_ENCODING: CodeInfo(_NON, True, "keyCertSign encoding"),
    Code.EMPTY_KEY_USAGE: CodeInfo(_NON, True, "Empty keyUsage"),
    Code.KEY_CERT_SIGN_WITHOUT_BASIC_CONSTRAINTS: CodeInfo(
        _CRIT, True, "keyCertSign without basicConstraints"
    ),
    Code.KEY_CERT_SIGN_IN_LEAF: CodeInfo(_CRIT, True, "keyCertSign in leaf certificate"),
    Code.KEY_USAGE_VIOLATION_ON_PK_ALGORITHM: CodeInfo(
        _CRIT, True, "keyUsage violation on public key algorithm"
    ),
    Code.BAD_DNS_URI_EMAIL_FORMAT: CodeInfo(_CRIT, True, "Bad DNS/URI/email format"),
    Code.EMPTY_GENERAL_NAMES: CodeInfo(_NON, True, "Empty generalNames"),
    Code.MISSING_SUBJECT_KEY_ID: CodeInfo(_NON, True, "Missing subjectKeyIdentifier"),
    Code.NOT_CRITICAL_BASIC_CONSTRAINTS: CodeInfo(
        _NON, True, "Non-critical basicConstraints"
    ),
    Code.WRONG_OID: CodeInfo(_NON, True, "Wrong OID"),
    Code.EMPTY_SEQUENCE_IN_INFO_ACCESS: CodeInfo(
        _NON, True, "Empty sequence in information access"
    ),
    Code.SIGNATURE_ALGORITHM_MISMATCH: CodeInfo(
        _CRIT, True, "Signature algorithm mismatch"
    ),
    Code.MISSING_KEY_IDENTIFIER_NOT_SELF_ISSUED: CodeInfo(
        _NON, True, "Missing keyIdentifier in non-self-issued certificate"
    ),
    Code.MISSING_KEY_IDENTIFIER_SELF_ISSUED: CodeInfo(
        _NON, False, "Missing keyIdentifier in self-issued certificate"
    ),
    Code.BAD_PEM_ARMOR: CodeInfo(_NON, True, "Bad PEM armor"),
    Code.BAD_BASE64: CodeInfo(_NON, True, "Bad base64 payload"),
    Code.UNRECOGNIZED_FORMAT: CodeInfo(_NON, True, "Unrecognized input format"),
    Code.GENERIC_ERROR: CodeInfo(_NON, True, "Generic error"),
}

# Registry closure: every code has exactly one entry.  A missing entry
# would otherwise only surface when that code is first emitted.
assert set(REGISTRY) == set(Code), "diagnostic registry out of sync with Code enum"


class UnknownCode(KeyError):
    """Raised when severity or rejection class is asked for an unregistered code."""


def _info(code: Code) -> CodeInfo:
    try:
        return REGISTRY[code]
    except KeyError:
        raise UnknownCode(code) from None


def severity_of(code: Code) -> Severity:
    return _info(code).severity


def rejects(code: Code) -> bool:
    """True when the presence of this code makes the certificate rejected."""
    return _info(code).rejects


def label_of(code: Code) -> str:
    return _info(code).label


@dataclass
class Diagnostic:
    """One recognized defect, anchored to an input location.

    grammar_path is a dotted walk from the certificate root, for example
    "tbsCertificate.validity.notAfter".  byte_offset is the offset of the
    offending octet in the input document, or None when the defect is a
    whole-document property.
    """

    code: Code
    severity: Severity
    byte_offset: int | None = None
    grammar_path: str = ""
    message: str = ""

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
    """Build a Diagnostic with severity filled in from the registry."""
    return Diagnostic(
        code=code,
        severity=severity_of(code),
        byte_offset=offset,
        grammar_path=path,
        message=message or label_of(code),
    )


class RecognitionError(Exception):
    """Typed failure used by the structural layers.

    Carries the taxonomy code and the offset of the offending octet so that
    callers can turn it into a Diagnostic without re-deriving context.
    """

    def __init__(self, code: Code, offset: int | None = None, message: str = ""):
        self.code = code
        self.offset = offset
        self.message = message or label_of(code)
        super().__init__(f"{code.value} at offset {offset}: {self.message}")

    def to_diagnostic(self, path: str = "") -> Diagnostic:
        d = diag(self.code, path=path, offset=self.offset, message=self.message)
        return d


@dataclass
class Histogram:
    """Counts of diagnostics across a batch, mergeable across workers."""

    total: int = 0
    accepted: int = 0
    rejected: int = 0
    counts: dict[Code, int] = field(default_factory=dict)

    def add(self, diagnostics: list[Diagnostic]) -> None:
        self.total += 1
        if any(rejects(d.code) for d in diagnostics):
            self.rejected += 1
        else:
            self.accepted += 1
        for d in diagnostics:
            self.counts[d.code] = self.counts.get(d.code, 0) + 1

    def merge(self, other: "Histogram") -> "Histogram":
        out = Histogram(
            total=self.total + other.total,
            accepted=self.accepted + other.accepted,
            rejected=self.rejected + other.rejected,
            counts=dict(self.counts),
        )
        for code, n in other.counts.items():
            out.counts[code] = out.counts.get(code, 0) + n
        return out

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "counts": {c.value: n for c, n in sorted(self.counts.items(), key=lambda kv: kv[0].value)},
        }


def aggregate(results) -> Histogram:
    """Fold an iterable of per-certificate diagnostic lists into a Histogram."""
    h = Histogram()
    for diagnostics in results:
        h.add(diagnostics)
    return h


@dataclass(frozen=True)
class UnmappedMessage:
    """Returned by classify_external_message for strings missing from the table."""

    validator: str
    message: str


_MESSAGE_TABLE: dict[tuple[str, str], Category] | None = None


def _load_message_table() -> dict[tuple[str, str], Category]:
    global _MESSAGE_TABLE
    if _MESSAGE_TABLE is None:
        table: dict[tuple[str, str], Category] = {}
        text = resources.files("derlint.data").joinpath("library_messages.txt").read_text()
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(";")]
            if len(parts) != 3:
                raise ValueError(f"library_messages.txt:{lineno}: expected 3 fields")
            validator, message, category = parts
            table[(validator.lower(), message)] = Category(category)
        _MESSAGE_TABLE = table
    return _MESSAGE_TABLE


def classify_external_message(validator: str, message: str) -> Category | UnmappedMessage:
    """Map a validator's outcome string to a coarse category.

    Matching is exact on the message text and case-insensitive on the
    validator id.  Unknown pairs are returned as UnmappedMessage rather
    than raised, so batch classification can record them for triage.
    """
    table = _load_message_table()
    got = table.get((validator.lower(), message))
    if got is None:
        return UnmappedMessage(validator=validator, message=message)
    return got
