"""Differential analysis of chain validation outcomes.

External validators report one outcome label per (chain, validator)
pair.  A chain is named by its certificate ids joined with '>', so the
chain for a leaf's issuing CA is the same id with the last segment
dropped.  Comparing a chain's outcome with its parent chain's outcome
tells whether the leaf certificate itself caused an error: an error
label that already appears on the parent chain is shadowed by the CA
and says nothing about the leaf.

The cross tabulation then joins those per-validator leaf verdicts
against this package's own reports, counting the certificates we
reject that a given validator still considers fine.
"""

from __future__ import annotations

import csv
import json
import re
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

from .diagnostics import Code

CSV_COLUMNS = ("chain_id", "leaf_cert_id", "validator_id", "outcome_label")

RULE_LEAF_VALID = "leaf-valid"
RULE_CA_SHADOWED = "ca-shadowed"
RULE_DISTINCT_ERROR = "distinct-error"

_VALID_LABEL = "valid"

# The lines io.StringIO(text) would give, without its copy of the text at four bytes a character.
_LINE = re.compile(r"[^\n]*\n|[^\n]+")

# Records per out.write in a json report: the report is never held whole, and each write is large.
_CHUNK = 2048


class ChainOutcomeRecord(NamedTuple):
    chain_id: str
    leaf_cert_id: str
    validator_id: str
    outcome_label: str


class ChainVerdict(NamedTuple):
    chain_id: str
    leaf_cert_id: str
    validator_id: str
    verdict: str
    rule_applied: str
    leaf_label: str
    parent_label: str | None = None


class MissingCaRecord(NamedTuple):
    """A multi-segment chain whose parent chain was never measured."""

    chain_id: str
    validator_id: str
    parent_chain_id: str


class UnjoinedRecord(NamedTuple):
    """A verdict whose leaf certificate has no report on our side."""

    chain_id: str
    validator_id: str
    leaf_cert_id: str


def is_valid_label(label: str) -> bool:
    return label.strip().lower() == _VALID_LABEL


def parent_chain_id(chain_id: str) -> str | None:
    """The chain id with the leaf segment removed, or None for roots."""
    if ">" not in chain_id:
        return None
    return chain_id.rsplit(">", 1)[0]


def classify_differential(leaf_label: str, parent_label: str | None) -> tuple[str, str]:
    """Decide what a chain outcome says about the leaf certificate.

    A validated chain vouches for the leaf.  An error label is pinned on
    the leaf only when the parent chain does not show the identical
    label; the same error on both means the CA alone triggers it.
    """
    if is_valid_label(leaf_label):
        return ("valid", RULE_LEAF_VALID)
    if parent_label is not None and not is_valid_label(parent_label):
        if parent_label.strip() == leaf_label.strip():
            return ("valid", RULE_CA_SHADOWED)
    return ("invalid", RULE_DISTINCT_ERROR)


def _check_chain_id(chain_id: str, row: int | None = None) -> None:
    """Refuse an empty id or one with an empty segment."""
    if not chain_id or chain_id[0] == ">" or chain_id[-1] == ">" or ">>" in chain_id:
        where = "" if row is None else f"row {row}: "
        raise ValueError(f"{where}malformed chain id {chain_id!r}")


def read_records(source: str | TextIO) -> Iterator[ChainOutcomeRecord]:
    """Parse the outcome table from CSV with a fixed header, from a string or an open text file.

    The header is checked at the call; each row is checked as the returned iterator reaches it.  A NUL
    refuses its row on every interpreter (csv itself refuses one before CPython 3.11 only); a string is
    searched for one once, and only a string that holds one, or a file, has each line searched.
    """
    if not isinstance(source, str):
        lines = _refuse_nul(source)
    elif "\0" in source:
        lines = _refuse_nul(m[0] for m in _LINE.finditer(source))
    else:
        lines = (m[0] for m in _LINE.finditer(source))
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty outcome table") from None
    except csv.Error as exc:
        raise ValueError(f"row 1: {_csv_reason(exc)}") from None
    if tuple(h.strip() for h in header) != CSV_COLUMNS:
        raise ValueError(f"outcome table header must be {','.join(CSV_COLUMNS)}")
    return _read_rows(reader)


def _read_rows(reader: Iterator[list[str]]) -> Iterator[ChainOutcomeRecord]:
    new, strip, columns = tuple.__new__, str.strip, len(CSV_COLUMNS)
    i = 1
    try:
        for i, row in enumerate(reader, start=2):
            if len(row) != columns:
                if not row:
                    continue
                raise ValueError(f"row {i}: expected {columns} columns, found {len(row)}")
            record = new(ChainOutcomeRecord, map(strip, row))
            chain_id, _, validator_id, outcome_label = record
            if not chain_id or chain_id[0] == ">" or chain_id[-1] == ">" or ">>" in chain_id:
                _check_chain_id(chain_id, i)
            if not validator_id or not outcome_label:
                raise ValueError(f"row {i}: validator and outcome must be non-empty")
            yield record
    except csv.Error as exc:  # raised while reading the row after row i
        raise ValueError(f"row {i + 1}: {_csv_reason(exc)}") from None


def _refuse_nul(lines: Iterable[str]) -> Iterator[str]:
    """Yield lines until one holds a NUL, then raise the csv.Error that csv itself raises for it before 3.11."""
    for line in lines:
        try:
            if "\0" in line:
                raise csv.Error("line contains NUL")
        except TypeError:  # not a string: csv refuses the row itself
            pass
        yield line


def _csv_reason(exc: csv.Error) -> str:
    """The reason for a csv.Error in derlint's words: csv's own text differs between CPython versions."""
    text = str(exc)
    if text.startswith("line contains NUL"):
        return "NUL in field"
    if text.startswith("field larger"):
        return f"field larger than field limit ({csv.field_size_limit()})"
    if text.startswith("new-line"):
        return "line break inside an unquoted field"
    return "malformed CSV row"


class AnalysisResult:
    __slots__ = ("verdicts", "missing")

    def __init__(self, verdicts: list[ChainVerdict] | None = None, missing: list[MissingCaRecord] | None = None):
        self.verdicts = [] if verdicts is None else verdicts
        self.missing = [] if missing is None else missing

    def to_json_dict(self) -> dict:
        return {
            "verdicts": [v._asdict() for v in self.verdicts],
            "missing_parent_chains": [m._asdict() for m in self.missing],
        }


def analyze(records: Iterable[ChainOutcomeRecord]) -> AnalysisResult:
    """Classify every measured chain against its parent chain.

    Duplicate (chain, validator) measurements are contradictory input
    and raise.  An errored chain whose parent chain was not measured
    cannot be classified and is reported as missing instead.
    """
    # One dict per validator, keyed by chain id: sorting validators, then
    # chain ids, lists verdicts and missing chains in output order.
    by_validator: dict[str, dict[str, tuple[str, str]]] = {}
    for chain_id, leaf_cert_id, validator_id, outcome_label in records:
        if not chain_id or chain_id[0] == ">" or chain_id[-1] == ">" or ">>" in chain_id:
            _check_chain_id(chain_id)
        chains = by_validator.get(validator_id)
        if chains is None:
            chains = by_validator[validator_id] = {}
        if chain_id in chains:
            raise ValueError(f"duplicate outcome for chain {chain_id!r} under {validator_id!r}")
        chains[chain_id] = (leaf_cert_id, outcome_label.strip())

    # classify_differential and parent_chain_id inlined; TestEquivalence holds this copy to them.
    result = AnalysisResult()
    verdicts, missing, new = result.verdicts, result.missing, tuple.__new__
    for validator_id, chains in sorted(by_validator.items()):
        for chain_id, (leaf_cert_id, leaf_label) in sorted(chains.items()):
            parent_id, is_child, _ = chain_id.rpartition(">")
            parent = chains.get(parent_id)  # a root's parent_id is "", never a chain id
            parent_label = None if parent is None else parent[1]
            if leaf_label.lower() == _VALID_LABEL:
                verdict, rule = "valid", RULE_LEAF_VALID
            elif parent is None and is_child:
                missing.append(new(MissingCaRecord, (chain_id, validator_id, parent_id)))
                continue
            elif parent_label == leaf_label:  # the same error on the parent chain: the CA triggers it
                verdict, rule = "valid", RULE_CA_SHADOWED
            else:
                verdict, rule = "invalid", RULE_DISTINCT_ERROR
            verdicts.append(
                new(ChainVerdict, (chain_id, leaf_cert_id, validator_id, verdict, rule, leaf_label, parent_label))
            )
    return result


class CrossTab:
    """Disagreement counts: certificates we reject, others accept."""

    __slots__ = ("disagreements", "by_code", "agreements", "accepted_here_rejected_there", "unjoined")

    def __init__(
        self, disagreements: dict[str, int] | None = None, by_code: dict[str, dict[str, int]] | None = None,
        agreements: int = 0, accepted_here_rejected_there: int = 0, unjoined: list[UnjoinedRecord] | None = None,
    ):
        self.disagreements = {} if disagreements is None else disagreements
        self.by_code = {} if by_code is None else by_code
        self.agreements = agreements
        self.accepted_here_rejected_there = accepted_here_rejected_there
        self.unjoined = [] if unjoined is None else unjoined

    def _counts_json_dict(self) -> dict:
        """to_json_dict without the unjoined records."""
        return {
            "disagreements": dict(sorted(self.disagreements.items())),
            "by_code": {
                v: dict(sorted(codes.items())) for v, codes in sorted(self.by_code.items())
            },
            "agreements": self.agreements,
            "accepted_here_rejected_there": self.accepted_here_rejected_there,
        }

    def to_json_dict(self) -> dict:
        return {**self._counts_json_dict(), "unjoined": [u._asdict() for u in self.unjoined]}


def cross_tabulate(
    verdicts: Iterable[ChainVerdict],
    rejecting_codes_by_leaf: Mapping[str, Sequence[str]],
) -> CrossTab:
    """Join validator verdicts against our reports.

    rejecting_codes_by_leaf maps a leaf certificate id to the rejecting
    code names our recognizer found (empty means we accept it).  For
    every verdict that calls a leaf valid while we reject it, one
    disagreement is counted for the validator under each code.
    """
    out = CrossTab()
    for verdict in verdicts:
        ours = rejecting_codes_by_leaf.get(verdict.leaf_cert_id)
        if ours is None:
            out.unjoined.append(UnjoinedRecord(verdict.chain_id, verdict.validator_id, verdict.leaf_cert_id))
            continue
        we_reject = len(ours) > 0
        they_accept = verdict.verdict == "valid"
        if they_accept and we_reject:
            out.disagreements[verdict.validator_id] = out.disagreements.get(verdict.validator_id, 0) + 1
            per_code = out.by_code.setdefault(verdict.validator_id, {})
            for code in ours:
                per_code[code] = per_code.get(code, 0) + 1
        elif we_reject != they_accept:
            # Same answer on both sides: rejected there and here, or
            # accepted there and here.
            out.agreements += 1
        else:
            out.accepted_here_rejected_there += 1
    out.unjoined.sort(key=lambda u: (u.validator_id, u.chain_id))
    return out


def write_report(out: TextIO, analysis: AnalysisResult, crosstab: CrossTab | None = None, style: str = "json") -> None:
    """Write the diff report a line, or for json a chunk of records, at a time.

    The json style writes the bytes of json.dumps(analysis.to_json_dict()), with crosstab.to_json_dict() added
    under "crosstab", and a newline; the text style one line per verdict and missing chain, then the counts.
    """
    if style == "text":
        out.writelines(_text_lines(analysis, crosstab))
        return
    out.write('{"verdicts": [')
    _write_json_records(out, analysis.verdicts, ChainVerdict)
    out.write('], "missing_parent_chains": [')
    _write_json_records(out, analysis.missing, MissingCaRecord)
    if crosstab is None:
        out.write("]}\n")
        return
    out.write(f'], "crosstab": {json.dumps(crosstab._counts_json_dict())[:-1]}, "unjoined": [')
    _write_json_records(out, crosstab.unjoined, UnjoinedRecord)
    out.write("]}}\n")


def _write_json_records(out: TextIO, records: Sequence[tuple], record_type: type) -> None:
    """Write records as json.dumps writes a list of their _asdict(), without the brackets.

    Every field is a str, which json.dumps encodes with encode_basestring_ascii, or None.
    """
    encode = encode_basestring_ascii
    template = "{" + ", ".join(f"{encode(name)}: %s" for name in record_type._fields) + "}"
    for start in range(0, len(records), _CHUNK):
        chunk = records[start : start + _CHUNK]
        if start:
            out.write(", ")
        out.write(", ".join([template % tuple(["null" if v is None else encode(v) for v in r]) for r in chunk]))


def _text_lines(analysis: AnalysisResult, crosstab: CrossTab | None) -> Iterator[str]:
    for v in analysis.verdicts:
        parent = "-" if v.parent_label is None else v.parent_label
        yield f"{v.validator_id} {v.chain_id}: {v.verdict} [{v.rule_applied}] leaf={v.leaf_label} parent={parent}\n"
    for m in analysis.missing:
        yield f"{m.validator_id} {m.chain_id}: unresolved, parent chain {m.parent_chain_id} not measured\n"
    if crosstab is not None:
        for validator, count in sorted(crosstab.disagreements.items()):
            yield f"{validator}: accepts {count} certificate(s) we reject\n"
            for code, n in sorted(crosstab.by_code.get(validator, {}).items()):
                yield f"    {code}: {n}\n"
        yield (
            f"agreements: {crosstab.agreements}, "
            f"accepted here but rejected there: {crosstab.accepted_here_rejected_there}, "
            f"unjoined: {len(crosstab.unjoined)}\n"
        )


def load_report_lines(source: str | TextIO) -> dict[str, list[str]]:
    """Read our own JSON Lines lint output into the cross_tabulate shape.

    source is the text or an open text file.  Returns a map from document
    id to the rejecting code names of that report.  Lines that are not
    report objects (the trailing summary line) are skipped.
    """
    # Each file line is split again, so lines break where str.splitlines breaks them.
    chunks = [source] if isinstance(source, str) else source
    out: dict[str, list[str]] = {}
    for line_number, line in enumerate((line for chunk in chunks for line in chunk.splitlines()), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {line_number}: not JSON: {exc}") from None
        if not isinstance(obj, dict) or "id" not in obj:
            continue
        if not isinstance(obj["id"], str):
            raise ValueError(f"line {line_number}: report id must be a string, found {obj['id']!r}")
        entries = obj.get("diagnostics", [])
        if not isinstance(entries, list) or not all(isinstance(entry, dict) for entry in entries):
            raise ValueError(f"line {line_number}: diagnostics must be a list of objects")
        codes = []
        for entry in entries:
            name = entry.get("code", "")
            try:
                code = Code(name)
            except ValueError:
                raise ValueError(f"line {line_number}: unknown code {name!r}") from None
            if code.rejects:
                codes.append(code.value)
        if obj["id"] in out:
            raise ValueError(f"line {line_number}: duplicate report id {obj['id']!r}")
        out[obj["id"]] = codes
    return out
