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
import io
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

from .diagnostics import Code

CSV_COLUMNS = ("chain_id", "leaf_cert_id", "validator_id", "outcome_label")

RULE_LEAF_VALID = "leaf-valid"
RULE_CA_SHADOWED = "ca-shadowed"
RULE_DISTINCT_ERROR = "distinct-error"

_VALID_LABEL = "valid"


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

    def to_json_dict(self) -> dict:
        return self._asdict()


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


def read_records(text: str) -> list[ChainOutcomeRecord]:
    """Parse the outcome table from CSV with a fixed header."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty outcome table") from None
    if tuple(h.strip() for h in header) != CSV_COLUMNS:
        raise ValueError(f"outcome table header must be {','.join(CSV_COLUMNS)}")
    records = []
    for i, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            raise ValueError(f"row {i}: expected {len(CSV_COLUMNS)} columns, found {len(row)}")
        chain_id, leaf_cert_id, validator_id, outcome_label = map(str.strip, row)
        _check_chain_id(chain_id, i)
        if not validator_id or not outcome_label:
            raise ValueError(f"row {i}: validator and outcome must be non-empty")
        records.append(ChainOutcomeRecord(chain_id, leaf_cert_id, validator_id, outcome_label))
    return records


@dataclass
class AnalysisResult:
    verdicts: list[ChainVerdict] = field(default_factory=list)
    missing: list[MissingCaRecord] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "verdicts": [v.to_json_dict() for v in self.verdicts],
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
        _check_chain_id(chain_id)
        chains = by_validator.get(validator_id)
        if chains is None:
            chains = by_validator[validator_id] = {}
        if chain_id in chains:
            raise ValueError(f"duplicate outcome for chain {chain_id!r} under {validator_id!r}")
        chains[chain_id] = (leaf_cert_id, outcome_label.strip())

    result = AnalysisResult()
    for validator_id, chains in sorted(by_validator.items()):
        for chain_id, (leaf_cert_id, leaf_label) in sorted(chains.items()):
            parent_id = parent_chain_id(chain_id)
            parent = None if parent_id is None else chains.get(parent_id)
            if parent is not None:
                parent_label = parent[1]
            elif parent_id is not None and not is_valid_label(leaf_label):
                result.missing.append(MissingCaRecord(chain_id, validator_id, parent_id))
                continue
            else:
                parent_label = None
            verdict, rule = classify_differential(leaf_label, parent_label)
            result.verdicts.append(
                ChainVerdict(chain_id, leaf_cert_id, validator_id, verdict, rule, leaf_label, parent_label)
            )
    return result


@dataclass
class CrossTab:
    """Disagreement counts: certificates we reject, others accept."""

    disagreements: dict[str, int] = field(default_factory=dict)
    by_code: dict[str, dict[str, int]] = field(default_factory=dict)
    agreements: int = 0
    accepted_here_rejected_there: int = 0
    unjoined: list[UnjoinedRecord] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "disagreements": dict(sorted(self.disagreements.items())),
            "by_code": {
                v: dict(sorted(codes.items())) for v, codes in sorted(self.by_code.items())
            },
            "agreements": self.agreements,
            "accepted_here_rejected_there": self.accepted_here_rejected_there,
            "unjoined": [u._asdict() for u in self.unjoined],
        }


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


def load_report_lines(text: str) -> dict[str, list[str]]:
    """Read our own JSON Lines lint output into the cross_tabulate shape.

    Returns a map from document id to the rejecting code names of that
    report.  Lines that are not report objects (the trailing summary
    line) are skipped.
    """
    out: dict[str, list[str]] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
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
