"""Input handling and the linting pipeline.

Container handling is as strict as the certificate grammar itself: the
armored text form is recognized exactly (fixed labels, canonical base64,
64-column body lines), and anything else must already be the raw binary
form.  Container problems are ordinary diagnostics, so a batch over a
mixed directory never aborts on one bad file.
"""

from __future__ import annotations

import base64
import hashlib
import os
import time
from collections.abc import Iterator

from .der import CONTENT_MAX
from .diagnostics import Code, Diagnostic, diag
from .grammar import parse_certificate
from .registry import Registry

_BEGIN = "-----BEGIN CERTIFICATE-----"
_END = "-----END CERTIFICATE-----"
_BEGIN_PREFIX = "-----BEGIN "
_MAX_LINE = 64


class LintOptions:
    __slots__ = ("fmt", "max_size", "registry", "timing")

    def __init__(
        self, fmt: str = "auto", max_size: int = CONTENT_MAX, registry: Registry | None = None, timing: bool = True
    ):
        self.fmt = fmt  # pem | der | auto
        self.max_size = max_size
        self.registry = registry
        self.timing = timing


class InputDocument:
    """One certificate candidate extracted from a file.

    data holds the binary certificate when the container was sound;
    otherwise container_error carries the diagnostic and data is empty.
    """

    __slots__ = ("doc_id", "data", "container_error")

    def __init__(self, doc_id: str, data: bytes = b"", container_error: Diagnostic | None = None):
        self.doc_id = doc_id
        self.data = data
        self.container_error = container_error


class CertificateReport:
    __slots__ = ("doc_id", "sha256", "outcome", "size_bytes", "parse_time_micros", "diagnostics")

    def __init__(
        self, doc_id: str, sha256: str, outcome: str, size_bytes: int, parse_time_micros: int | None,
        diagnostics: list[Diagnostic] | None = None,
    ):
        self.doc_id = doc_id
        self.sha256 = sha256
        self.outcome = outcome
        self.size_bytes = size_bytes
        self.parse_time_micros = parse_time_micros
        self.diagnostics = [] if diagnostics is None else diagnostics

    def to_json_dict(self) -> dict:
        out = {
            "id": self.doc_id,
            "sha256": self.sha256,
            "outcome": self.outcome,
            "size_bytes": self.size_bytes,
            "diagnostics": [d.to_json_dict() for d in self.diagnostics],
        }
        if self.parse_time_micros is not None:
            out["parse_time_micros"] = self.parse_time_micros
        return out


def _armor_error(code: Code, message: str, line: int | None = None) -> Diagnostic:
    where = f"line {line}" if line is not None else ""
    return diag(code, path="container", message=f"{message} ({where})" if where else message)


def _decode_block(body: list[str]) -> bytes | Diagnostic:
    """The bytes of one armored block's body lines, or the BAD_BASE64 diagnostic."""
    joined = "".join(body)
    try:
        decoded = base64.b64decode(joined, validate=True)
    except ValueError:  # binascii.Error, whose wording differs between Python versions
        if len(joined) % 4:
            reason = f"{len(joined)} characters, not a multiple of 4"
        else:
            reason = "a character outside the base64 alphabet, or a misplaced '='"
        return _armor_error(Code.BAD_BASE64, f"base64 body rejected: {reason}")
    if base64.b64encode(decoded).decode("ascii") != joined:
        return _armor_error(Code.BAD_BASE64, "base64 body is not canonical")
    return decoded


def _split_pem(text: str) -> list[bytes | Diagnostic]:
    """Split armored text into decoded blocks, in order of appearance.

    Each element is either the decoded bytes of one block or the
    diagnostic that block (or the surrounding layout) produced.  A layout
    error ends the list.
    """
    out: list[bytes | Diagnostic] = []
    body: list[str] | None = None  # the open block's lines; None outside a block
    # A final newline ends the last line; it does not open a blank one.
    for number, line in enumerate(text.removesuffix("\n").split("\n"), 1):
        line = line.rstrip("\r")
        if body is None:
            if line == _BEGIN:
                body = []
            elif line.startswith(_BEGIN_PREFIX):
                return [*out, _armor_error(Code.UNRECOGNIZED_FORMAT, f"unsupported armor label {line!r}", number)]
            elif line.strip():
                return [*out, _armor_error(Code.BAD_PEM_ARMOR, f"text outside an armored block: {line[:40]!r}", number)]
        elif line == _END:
            out.append(_decode_block(body))
            body = None
        elif line.startswith("-----"):
            return [*out, _armor_error(Code.BAD_PEM_ARMOR, f"unexpected armor line {line!r}", number)]
        elif not line.strip():
            return [*out, _armor_error(Code.BAD_PEM_ARMOR, "blank line inside an armored block", number)]
        elif len(line) > _MAX_LINE:
            return [*out, _armor_error(Code.BAD_PEM_ARMOR, f"body line of {len(line)} columns", number)]
        else:
            body.append(line)
    if body is not None:
        out.append(_armor_error(Code.BAD_PEM_ARMOR, "armored block never closed"))
    return out


def load_documents(raw: bytes, doc_id: str, fmt: str = "auto") -> list[InputDocument]:
    """Turn one file's bytes into certificate candidates.

    Armored files may carry several certificates; ids then gain a #k
    suffix in order of appearance.  Binary input is always one document.
    """
    if fmt not in ("auto", "pem", "der"):
        raise ValueError(f"unknown input format {fmt!r}")

    if fmt == "auto":
        head = raw.lstrip(b" \t\r\n")
        if head.startswith(b"-----BEGIN"):
            fmt = "pem"
        elif head[:1] == b"\x30":
            fmt = "der"
        else:
            error = _armor_error(Code.UNRECOGNIZED_FORMAT, "input is neither armored text nor a DER SEQUENCE")
            return [InputDocument(doc_id=doc_id, container_error=error)]

    if fmt == "der":
        return [InputDocument(doc_id=doc_id, data=raw)]

    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError:
        error = _armor_error(Code.BAD_PEM_ARMOR, "armored input must be ASCII")
        return [InputDocument(doc_id=doc_id, container_error=error)]
    blocks = _split_pem(text)
    if not blocks:
        error = _armor_error(Code.BAD_PEM_ARMOR, "no armored block found")
        return [InputDocument(doc_id=doc_id, container_error=error)]
    many = len(blocks) > 1
    docs = []
    for k, block in enumerate(blocks, 1):
        sub_id = f"{doc_id}#{k}" if many else doc_id
        if isinstance(block, Diagnostic):
            docs.append(InputDocument(doc_id=sub_id, container_error=block))
        else:
            docs.append(InputDocument(doc_id=sub_id, data=block))
    return docs


def load_input(raw: bytes, doc_id: str, fmt: str = "auto") -> InputDocument:
    """Single-document variant of load_documents."""
    docs = load_documents(raw, doc_id, fmt)
    if len(docs) != 1:
        raise ValueError(f"{doc_id}: expected one certificate, found {len(docs)}")
    return docs[0]


def lint(doc: InputDocument, options: LintOptions | None = None) -> CertificateReport:
    """Run the recognizer over one document and build its report."""
    options = options or LintOptions()
    digest = hashlib.sha256(doc.data).hexdigest()
    started = time.perf_counter_ns()
    if doc.container_error is not None:
        diagnostics = [doc.container_error]
    elif len(doc.data) > options.max_size:
        message = f"input of {len(doc.data)} bytes exceeds the {options.max_size} byte bound"
        diagnostics = [diag(Code.LENGTH_TOO_LARGE, path="certificate", offset=options.max_size, message=message)]
    else:
        diagnostics = parse_certificate(doc.data, options.registry).diagnostics
    elapsed_micros = (time.perf_counter_ns() - started) // 1000

    return CertificateReport(
        doc_id=doc.doc_id,
        sha256=digest,
        outcome="rejected" if any(d.code.rejects for d in diagnostics) else "accepted",
        size_bytes=len(doc.data),
        parse_time_micros=elapsed_micros if options.timing else None,
        diagnostics=diagnostics,
    )


def lint_bytes(data: bytes, doc_id: str = "<input>", options: LintOptions | None = None) -> CertificateReport:
    options = options or LintOptions()
    return lint(load_input(data, doc_id, options.fmt), options)


def _collect_paths(inputs: list[str]) -> list[tuple[str, str | None]]:
    """Every file under the inputs with None, and every directory that cannot be listed with its error, by path."""
    found: list[tuple[str, str | None]] = []

    def unlistable(err: OSError) -> None:
        found.append((err.filename, str(err)))

    for item in inputs:
        if os.path.isdir(item):
            for dirpath, _, filenames in os.walk(item, onerror=unlistable):
                found.extend((os.path.join(dirpath, name), None) for name in filenames)
        else:
            found.append((item, None))
    return sorted(found, key=lambda entry: entry[0])


def run_batch(inputs: list[str], options: LintOptions | None = None) -> Iterator[CertificateReport | tuple[str, str]]:
    """Lint every file under the given paths, one file at a time.

    Yields reports in path order, and the documents of a multi-block PEM
    file in block order.  A file that is missing or cannot be read, or a
    directory that cannot be listed, yields (path, message) in its place;
    it never aborts the batch.
    """
    options = options or LintOptions()
    for path, error in _collect_paths(inputs):
        if error is not None:
            yield path, error
            continue
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            yield path, "no such file or directory"
            continue
        except OSError as exc:
            yield path, str(exc)
            continue
        for doc in load_documents(raw, path, options.fmt):
            yield lint(doc, options)
