"""Strict recognizer for DER encoded certificates.

The package checks that an input is exactly a well formed certificate:
every length agrees with its content, every field matches the grammar
for its position, and the certificate-specific side conditions (unique
extensions, version gating, usage rules) hold.  Every deviation is
reported as a typed diagnostic with a severity class, and acceptance is
simply the absence of rejecting diagnostics.
"""

from .der import (
    CONTENT_MAX,
    MAX_DEPTH,
    TlvNode,
    decode_length,
    delta_length,
    parse_tlv_tree,
    recognize_toy,
    toy_delta,
)
from .diagnostics import (
    Category,
    Code,
    Diagnostic,
    Histogram,
    RecognitionError,
    Severity,
    UnmappedMessage,
    classify_external_message,
    diag,
)
from .differential import (
    AnalysisResult,
    ChainOutcomeRecord,
    ChainVerdict,
    CrossTab,
    MissingCaRecord,
    UnjoinedRecord,
    analyze,
    classify_differential,
    cross_tabulate,
    parent_chain_id,
    read_records,
)
from .extensions import WalkContext
from .grammar import (
    AlgorithmId,
    ParsedCertificate,
    ParsedTbs,
    SpkiInfo,
    parse_algorithm_identifier,
    parse_certificate,
)
from .ingest import (
    CertificateReport,
    InputDocument,
    LintOptions,
    lint,
    lint_bytes,
    load_documents,
    load_input,
    run_batch,
)
from .registry import Registry, default_registry, load_registry, parse_registry

__version__ = "0.1.0"

__all__ = [
    "AlgorithmId",
    "AnalysisResult",
    "Category",
    "CertificateReport",
    "ChainOutcomeRecord",
    "ChainVerdict",
    "Code",
    "CONTENT_MAX",
    "CrossTab",
    "Diagnostic",
    "Histogram",
    "InputDocument",
    "LintOptions",
    "MAX_DEPTH",
    "MissingCaRecord",
    "ParsedCertificate",
    "ParsedTbs",
    "RecognitionError",
    "Registry",
    "Severity",
    "SpkiInfo",
    "TlvNode",
    "UnjoinedRecord",
    "UnmappedMessage",
    "WalkContext",
    "analyze",
    "classify_differential",
    "classify_external_message",
    "cross_tabulate",
    "decode_length",
    "default_registry",
    "delta_length",
    "diag",
    "lint",
    "lint_bytes",
    "load_documents",
    "load_input",
    "load_registry",
    "parent_chain_id",
    "parse_algorithm_identifier",
    "parse_certificate",
    "parse_registry",
    "parse_tlv_tree",
    "read_records",
    "recognize_toy",
    "run_batch",
    "toy_delta",
]
