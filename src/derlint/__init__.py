"""Strict recognizer for DER encoded certificates.

The package checks that an input is exactly a well formed certificate:
every length agrees with its content, every field matches the grammar
for its position, and the certificate-specific side conditions (unique
extensions, version gating, usage rules) hold.  Every deviation is
reported as a typed diagnostic with a severity class, and acceptance is
simply the absence of rejecting diagnostics.
"""

from importlib import import_module

__version__ = "0.1.0"

# The export list: each exported name, by the module it lives in.  A name is
# imported on first access (PEP 562), so `derlint diff` loads the analyzer
# without the lint stack.
_EXPORTS = {
    "der": "CONTENT_MAX MAX_DEPTH TlvNode delta_length parse_tlv_tree recognize_toy toy_delta",
    "diagnostics": "Code Diagnostic Histogram RecognitionError Severity diag",
    "differential": "AnalysisResult ChainOutcomeRecord ChainVerdict CrossTab MissingCaRecord UnjoinedRecord analyze "
    "classify_differential cross_tabulate parent_chain_id read_records",
    "extensions": "WalkContext",
    "grammar": "AlgorithmId ParsedCertificate ParsedTbs parse_algorithm_identifier parse_certificate",
    "ingest": "CertificateReport InputDocument LintOptions lint lint_bytes load_documents load_input run_batch",
    "registry": "Registry default_registry load_registry parse_registry",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
