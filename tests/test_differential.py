"""Tests for chain outcome records and the differential classifier."""

import collections
import csv
import io
import itertools
import json
import os
import random
import tracemalloc
import types

import pytest

from derlint.differential import (
    CSV_COLUMNS,
    RULE_CA_SHADOWED,
    RULE_DISTINCT_ERROR,
    RULE_LEAF_VALID,
    ChainOutcomeRecord,
    ChainVerdict,
    MissingCaRecord,
    UnjoinedRecord,
    _CHUNK,
    _check_chain_id,
    _csv_reason,
    analyze,
    classify_differential,
    cross_tabulate,
    is_valid_label,
    load_report_lines,
    parent_chain_id,
    read_records,
    write_report,
)


LABELS = ("VALID", "Ex", "Ey", "Ez")


def expected_classification(leaf: str, parent: str) -> tuple[str, str]:
    """Reference rule written out by hand for the four-label alphabet."""
    if leaf == "VALID":
        return ("valid", RULE_LEAF_VALID)
    if parent == leaf:
        return ("valid", RULE_CA_SHADOWED)
    return ("invalid", RULE_DISTINCT_ERROR)


class TestClassify:
    @pytest.mark.parametrize("leaf", LABELS)
    @pytest.mark.parametrize("parent", LABELS)
    def test_full_truth_table(self, leaf, parent):
        assert classify_differential(leaf, parent) == expected_classification(leaf, parent)

    def test_truth_table_census(self):
        outcomes = [classify_differential(l, p) for l in LABELS for p in LABELS]
        assert outcomes.count(("valid", RULE_LEAF_VALID)) == 4
        assert outcomes.count(("valid", RULE_CA_SHADOWED)) == 3
        assert outcomes.count(("invalid", RULE_DISTINCT_ERROR)) == 9

    def test_no_parent_chain(self):
        assert classify_differential("VALID", None) == ("valid", RULE_LEAF_VALID)
        assert classify_differential("Ex", None) == ("invalid", RULE_DISTINCT_ERROR)

    def test_valid_label_is_case_insensitive(self):
        assert classify_differential("valid", None) == ("valid", RULE_LEAF_VALID)
        assert classify_differential(" Valid ", None) == ("valid", RULE_LEAF_VALID)

    def test_shadowing_requires_exact_error_label(self):
        # Error labels are opaque strings; only a byte-for-byte match
        # (after trimming) means the CA triggers the same complaint.
        assert classify_differential("Ex", " Ex ") == ("valid", RULE_CA_SHADOWED)
        assert classify_differential("Ex", "ex") == ("invalid", RULE_DISTINCT_ERROR)

    def test_valid_parent_never_shadows(self):
        assert classify_differential("Ex", "VALID") == ("invalid", RULE_DISTINCT_ERROR)


class TestLabelHelpers:
    def test_is_valid_label(self):
        assert is_valid_label("valid")
        assert is_valid_label("VALID")
        assert is_valid_label("  valid\t")
        assert not is_valid_label("Ex")
        assert not is_valid_label("")
        assert not is_valid_label("validated")

    def test_parent_chain_id(self):
        assert parent_chain_id("root") is None
        assert parent_chain_id("root>leaf") == "root"
        assert parent_chain_id("root>ica>leaf") == "root>ica"


CSV_HEADER = ",".join(CSV_COLUMNS)


class TestReadRecords:
    def test_round_trip(self):
        text = CSV_HEADER + "\nroot>leaf,leaf,openssl,VALID\nroot,root,openssl,Ex\n"
        records = list(read_records(text))
        assert records == [
            ChainOutcomeRecord("root>leaf", "leaf", "openssl", "VALID"),
            ChainOutcomeRecord("root", "root", "openssl", "Ex"),
        ]

    def test_cells_are_trimmed(self):
        text = CSV_HEADER + "\n root>leaf , leaf , openssl , VALID \n"
        (record,) = read_records(text)
        assert record.chain_id == "root>leaf"
        assert record.outcome_label == "VALID"

    def test_blank_rows_are_skipped(self):
        text = CSV_HEADER + "\n\nroot,root,gnutls,VALID\n\n"
        assert len(list(read_records(text))) == 1

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty outcome table"):
            read_records("")

    def test_wrong_header(self):
        with pytest.raises(ValueError, match="header"):
            read_records("chain,leaf,validator,outcome\nroot,root,openssl,VALID\n")

    def test_wrong_column_count(self):
        text = CSV_HEADER + "\nroot,root,openssl\n"
        with pytest.raises(ValueError, match="row 2"):
            list(read_records(text))

    def test_empty_validator(self):
        text = CSV_HEADER + "\nroot,root,,VALID\n"
        with pytest.raises(ValueError, match="row 2"):
            list(read_records(text))

    def test_empty_outcome(self):
        text = CSV_HEADER + "\nroot,root,openssl,\n"
        with pytest.raises(ValueError, match="row 2"):
            list(read_records(text))

    @pytest.mark.parametrize("chain_id", ["", ">leaf", "root>", "root>>leaf"])
    def test_malformed_chain_id(self, chain_id):
        text = CSV_HEADER + f'\nroot,root,openssl,VALID\n"{chain_id}",leaf,openssl,VALID\n'
        with pytest.raises(ValueError) as info:
            list(read_records(text))
        assert str(info.value) == f"row 3: malformed chain id {chain_id!r}"

    @pytest.mark.parametrize(
        "body",
        [
            "root,root,openssl,VALID",  # no final newline
            'root,root,openssl,VALID\n"root>le\naf",leaf,openssl,Ex\n\n',
            "root,root,openssl,VALID\r\nroot>x,x,openssl,Ex\r\n",
            "root,root,openssl,VA\x0cLID\x85\u2028\n",
            "root,root,openssl,VALID\rroot>x,x,openssl,Ex\n",
            'root,root,openssl,"VALID\n',
        ],
    )
    def test_text_reads_as_a_string_io(self, body):
        # The reference is csv reading io.StringIO(text), which splits a string only after each "\n".
        text = CSV_HEADER + "\n" + body

        def outcome(source):
            try:
                return list(read_records(source))
            except ValueError as exc:
                return str(exc)

        assert outcome(text) == outcome(io.StringIO(text))

    def test_open_file_reads_as_its_text(self, tmp_path):
        # CRLF rows, a quoted cell spanning two lines and a blank row: the same records and row numbers.
        rows = [CSV_HEADER, "root,root,openssl,VALID", '"root>le\naf",leaf,openssl,Ex', "", "root>x,x,openssl,Ey"]
        path = tmp_path / "records.csv"
        path.write_bytes("\r\n".join(rows).encode())
        with open(path, encoding="utf-8") as fh:
            assert list(read_records(fh)) == list(read_records(path.read_text(encoding="utf-8")))
        path.write_bytes("\r\n".join(rows + ["root>y,y,openssl"]).encode())
        with open(path, encoding="utf-8") as fh, pytest.raises(ValueError) as info:
            list(read_records(fh))
        assert str(info.value) == "row 6: expected 4 columns, found 3"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x" * (csv.field_size_limit() + 1), "row 1: field larger than field limit (131072)"),
            (
                CSV_HEADER + "\nroot,root,openssl,VALID\rroot>x,x,openssl,Ex\n",
                "row 2: line break inside an unquoted field",
            ),
            (
                CSV_HEADER + "\nroot,root,openssl,VALID\n\nroot>x,x,openssl," + "x" * (csv.field_size_limit() + 1),
                "row 4: field larger than field limit (131072)",
            ),
            (CSV_HEADER + "\x00\nroot,root,openssl,VALID\n", "row 1: NUL in field"),
            (CSV_HEADER + "\nroot,root,openssl,VALID\nroot>x,x,openssl,E\x00x\n", "row 3: NUL in field"),
            # A NUL on a quoted field's second line names the row the field starts in.
            (CSV_HEADER + '\nroot,root,openssl,VALID\nroot>x,x,openssl,"E\n\x00"\n', "row 3: NUL in field"),
        ],
    )
    def test_csv_errors_name_their_row(self, text, message, tmp_path):
        with pytest.raises(ValueError) as info:
            list(read_records(text))
        assert str(info.value) == message
        # An open file gives the same message as the string; newline="\n" is how derlint diff opens one.
        path = tmp_path / "records.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with open(path, encoding="utf-8", newline="\n") as fh, pytest.raises(ValueError) as info:
            list(read_records(fh))
        assert str(info.value) == message

    def test_nul_reason_is_the_same_as_csv_gives_before_3_11(self):
        # CPython 3.10's csv refuses a NUL with this text; 3.11 and later accept the NUL.
        assert _csv_reason(csv.Error("line contains NUL")) == "NUL in field"

    def test_other_csv_errors_get_a_generic_reason(self):
        # csv refuses a bytes row with its own text; derlint gives its own reason.
        with pytest.raises(ValueError) as info:
            list(read_records(iter([CSV_HEADER.encode()])))
        assert str(info.value) == "row 1: malformed CSV row"

    @pytest.mark.parametrize(
        "bad_row",
        [
            "root>x,x,openssl",
            "root>x,x,,VALID",
            "root>x,x,openssl, ",
            "root>>x,x,openssl,VALID",
            "root>x,x,openssl," + "x" * (csv.field_size_limit() + 1),
        ],
    )
    def test_rows_are_read_as_iteration_reaches_them(self, bad_row):
        lines = [CSV_HEADER + "\n", "root,root,openssl,VALID\n", bad_row + "\n", "root>y,y,openssl,VALID\n"]
        pulled = []

        def source():
            for line in lines:
                pulled.append(line)
                yield line

        with pytest.raises(ValueError) as whole:
            list(read_records("".join(lines)))
        rows = read_records(source())
        assert pulled == lines[:1]
        assert next(rows) == ChainOutcomeRecord("root", "root", "openssl", "VALID")
        assert pulled == lines[:2]
        with pytest.raises(ValueError) as info:
            next(rows)
        assert str(info.value) == str(whole.value) and str(info.value).startswith("row 3: ")
        assert pulled == lines[:3]


@pytest.mark.parametrize("length", range(7))
def test_check_chain_id_exhaustive(length):
    for chars in itertools.product("a>", repeat=length):
        chain_id = "".join(chars)
        refused = "" in chain_id.split(">")
        try:
            _check_chain_id(chain_id)
        except ValueError as exc:
            assert refused, chain_id
            assert str(exc) == f"malformed chain id {chain_id!r}"
        else:
            assert not refused, chain_id


def record(chain_id, label, validator="openssl"):
    leaf = chain_id.rsplit(">", 1)[-1]
    return ChainOutcomeRecord(chain_id, leaf, validator, label)


class TestAnalyze:
    def test_error_pinned_on_leaf(self):
        result = analyze([record("root", "VALID"), record("root>leaf", "Ex")])
        assert result.missing == []
        by_chain = {v.chain_id: v for v in result.verdicts}
        assert by_chain["root"].verdict == "valid"
        assert by_chain["root"].rule_applied == RULE_LEAF_VALID
        leaf = by_chain["root>leaf"]
        assert (leaf.verdict, leaf.rule_applied) == ("invalid", RULE_DISTINCT_ERROR)
        assert leaf.leaf_label == "Ex"
        assert leaf.parent_label == "VALID"
        assert leaf.leaf_cert_id == "leaf"

    def test_error_shadowed_by_parent(self):
        result = analyze([record("root", "Ex"), record("root>leaf", "Ex")])
        by_chain = {v.chain_id: v for v in result.verdicts}
        assert by_chain["root>leaf"].verdict == "valid"
        assert by_chain["root>leaf"].rule_applied == RULE_CA_SHADOWED
        # The root chain itself still carries its own error verdict.
        assert by_chain["root"].verdict == "invalid"

    def test_duplicate_measurement_rejected(self):
        rows = [record("root", "VALID"), record("root", "Ex")]
        with pytest.raises(ValueError, match="duplicate outcome"):
            analyze(rows)

    def test_same_chain_under_two_validators_is_fine(self):
        result = analyze(
            [record("root", "VALID", "openssl"), record("root", "Ex", "gnutls")]
        )
        assert len(result.verdicts) == 2

    def test_error_with_unmeasured_parent_goes_missing(self):
        result = analyze([record("root>leaf", "Ex")])
        assert result.verdicts == []
        assert result.missing == [
            MissingCaRecord(chain_id="root>leaf", validator_id="openssl", parent_chain_id="root")
        ]

    def test_parent_measured_by_other_validator_does_not_count(self):
        # Parent outcomes only join within the same validator.
        result = analyze(
            [record("root", "Ex", "gnutls"), record("root>leaf", "Ex", "openssl")]
        )
        assert result.verdicts[0].chain_id == "root"
        assert [m.chain_id for m in result.missing] == ["root>leaf"]

    def test_valid_chain_with_unmeasured_parent_still_classified(self):
        result = analyze([record("root>leaf", "VALID")])
        assert result.missing == []
        (verdict,) = result.verdicts
        assert verdict.verdict == "valid"
        assert verdict.parent_label is None

    def test_labels_are_trimmed_in_verdicts(self):
        result = analyze([record("root", " Ex ")])
        assert result.verdicts[0].leaf_label == "Ex"

    def test_sorted_by_validator_then_chain(self):
        result = analyze(
            [
                record("b", "VALID", "zlint"),
                record("a", "VALID", "zlint"),
                record("b", "VALID", "axtls"),
            ]
        )
        keys = [(v.validator_id, v.chain_id) for v in result.verdicts]
        assert keys == [("axtls", "b"), ("zlint", "a"), ("zlint", "b")]

    def test_json_shape(self):
        result = analyze([record("root", "VALID"), record("root>leaf", "Ex", "gnutls")])
        doc = result.to_json_dict()
        assert set(doc) == {"verdicts", "missing_parent_chains"}
        assert doc["verdicts"][0]["rule_applied"] == RULE_LEAF_VALID
        assert doc["missing_parent_chains"] == [
            {"chain_id": "root>leaf", "validator_id": "gnutls", "parent_chain_id": "root"}
        ]


def verdict(leaf_cert_id, verdict_label, validator="openssl", chain_id=None):
    return ChainVerdict(
        chain_id=chain_id or f"root>{leaf_cert_id}",
        leaf_cert_id=leaf_cert_id,
        validator_id=validator,
        verdict=verdict_label,
        rule_applied=RULE_LEAF_VALID if verdict_label == "valid" else RULE_DISTINCT_ERROR,
        leaf_label="VALID" if verdict_label == "valid" else "Ex",
    )


class TestCrossTabulate:
    def test_they_accept_we_reject(self):
        ours = {"leaf": ["NON_MINIMAL_LENGTH", "TRAILING_BYTES"]}
        tab = cross_tabulate([verdict("leaf", "valid")], ours)
        assert tab.disagreements == {"openssl": 1}
        assert tab.by_code == {
            "openssl": {"NON_MINIMAL_LENGTH": 1, "TRAILING_BYTES": 1}
        }
        assert tab.agreements == 0
        assert tab.unjoined == []

    def test_both_accept(self):
        tab = cross_tabulate([verdict("leaf", "valid")], {"leaf": []})
        assert tab.agreements == 1
        assert tab.disagreements == {}

    def test_both_reject(self):
        tab = cross_tabulate([verdict("leaf", "invalid")], {"leaf": ["TRAILING_BYTES"]})
        assert tab.agreements == 1
        assert tab.disagreements == {}

    def test_we_accept_they_reject(self):
        tab = cross_tabulate([verdict("leaf", "invalid")], {"leaf": []})
        assert tab.accepted_here_rejected_there == 1
        assert tab.agreements == 0

    def test_unjoined_leaf(self):
        tab = cross_tabulate([verdict("mystery", "valid")], {})
        assert tab.unjoined == [
            UnjoinedRecord(chain_id="root>mystery", validator_id="openssl", leaf_cert_id="mystery")
        ]
        assert tab.agreements == 0
        assert tab.disagreements == {}

    def test_counts_accumulate_per_validator(self):
        ours = {"a": ["TRAILING_BYTES"], "b": ["TRAILING_BYTES", "EMPTY_STRING"]}
        verdicts = [
            verdict("a", "valid", "openssl"),
            verdict("b", "valid", "openssl"),
            verdict("a", "valid", "gnutls"),
        ]
        tab = cross_tabulate(verdicts, ours)
        assert tab.disagreements == {"openssl": 2, "gnutls": 1}
        assert tab.by_code["openssl"] == {"TRAILING_BYTES": 2, "EMPTY_STRING": 1}
        assert tab.by_code["gnutls"] == {"TRAILING_BYTES": 1}

    def test_json_shape_sorted(self):
        ours = {"a": ["TRAILING_BYTES"]}
        verdicts = [verdict("a", "valid", "zlint"), verdict("a", "valid", "axtls")]
        doc = cross_tabulate(verdicts, ours).to_json_dict()
        assert list(doc["disagreements"]) == ["axtls", "zlint"]
        assert doc["unjoined"] == []


class TestLoadReportLines:
    def test_reports_and_summary(self):
        text = "\n".join(
            [
                '{"id": "a.der", "accepted": false, "diagnostics":'
                ' [{"code": "TRAILING_BYTES"}, {"code": "NON_POSITIVE_SERIAL"}]}',
                '{"id": "b.der", "accepted": true, "diagnostics": []}',
                '{"summary": {"total": 2}}',
                "",
            ]
        )
        out = load_report_lines(text)
        # NON_POSITIVE_SERIAL never rejects, so it is not counted.
        assert out == {"a.der": ["TRAILING_BYTES"], "b.der": []}

    def test_non_dict_lines_skipped(self):
        assert load_report_lines('[1, 2]\n{"id": "x", "diagnostics": []}\n') == {"x": []}

    def test_not_json(self):
        with pytest.raises(ValueError, match="not JSON"):
            load_report_lines("{broken\n")

    def test_unknown_code(self):
        with pytest.raises(ValueError, match="unknown code"):
            load_report_lines('{"id": "x", "diagnostics": [{"code": "NO_SUCH_CODE"}]}\n')

    def test_duplicate_id(self):
        text = '{"id": "x", "diagnostics": []}\n{"id": "x", "diagnostics": []}\n'
        with pytest.raises(ValueError, match="duplicate report id"):
            load_report_lines(text)

    @pytest.mark.parametrize("brk", ["\x0c", "\x1e", "\x85", "\u2028"])
    def test_open_file_splits_lines_as_its_text(self, tmp_path, brk):
        # str.splitlines also breaks at these, inside a JSON string too; a file read line by line must as well.
        lines = ['{"id": "a", "diagnostics": []}', '{"id": "b' + brk + '", "diagnostics": []}', '{"summary": {}}']
        path = tmp_path / "reports.jsonl"
        path.write_bytes("\r\n".join(lines).encode())
        with pytest.raises(ValueError) as from_text:
            load_report_lines(path.read_text(encoding="utf-8"))
        with open(path, encoding="utf-8") as fh, pytest.raises(ValueError) as from_file:
            load_report_lines(fh)
        assert str(from_file.value) == str(from_text.value)
        assert str(from_file.value).startswith("line 2: not JSON: ")
        path.write_bytes(f"\r\n{lines[0]}{brk}\n{lines[2]}\r\n".encode())
        with open(path, encoding="utf-8") as fh:
            assert load_report_lines(fh) == load_report_lines(path.read_text(encoding="utf-8")) == {"a": []}


# --- equivalence with the record-by-record implementation ------------------------
#
# reference_analyze and reference_cross_tabulate are analyze and
# cross_tabulate as they stood when each record was a frozen dataclass: one
# dict keyed by (chain, validator) in input order, every label stripped
# where it is read, and the outputs sorted by key afterwards.  Records are
# plain dicts here, in the field order the JSON output has.


def reference_check_chain_id(chain_id):
    if not chain_id or any(not seg for seg in chain_id.split(">")):
        raise ValueError(f"malformed chain id {chain_id!r}")


def reference_analyze(records):
    by_key = {}
    for record in records:
        reference_check_chain_id(record.chain_id)
        key = (record.chain_id, record.validator_id)
        if key in by_key:
            raise ValueError(f"duplicate outcome for chain {record.chain_id!r} under {record.validator_id!r}")
        by_key[key] = record
    verdicts, missing = [], []
    for record in by_key.values():
        parent_id = parent_chain_id(record.chain_id)
        parent_label = None
        if parent_id is not None:
            parent = by_key.get((parent_id, record.validator_id))
            if parent is None:
                if not is_valid_label(record.outcome_label):
                    missing.append(
                        {"chain_id": record.chain_id, "validator_id": record.validator_id, "parent_chain_id": parent_id}
                    )
                    continue
            else:
                parent_label = parent.outcome_label
        verdict_label, rule = classify_differential(record.outcome_label, parent_label)
        verdicts.append(
            {
                "chain_id": record.chain_id,
                "leaf_cert_id": record.leaf_cert_id,
                "validator_id": record.validator_id,
                "verdict": verdict_label,
                "rule_applied": rule,
                "leaf_label": record.outcome_label.strip(),
                "parent_label": None if parent_label is None else parent_label.strip(),
            }
        )
    verdicts.sort(key=lambda v: (v["validator_id"], v["chain_id"]))
    missing.sort(key=lambda m: (m["validator_id"], m["chain_id"]))
    return {"verdicts": verdicts, "missing_parent_chains": missing}


def reference_cross_tabulate(verdicts, rejecting_codes_by_leaf):
    disagreements, by_code, unjoined = {}, {}, []
    agreements = accepted_here_rejected_there = 0
    for v in verdicts:
        ours = rejecting_codes_by_leaf.get(v["leaf_cert_id"])
        if ours is None:
            unjoined.append(
                {"chain_id": v["chain_id"], "validator_id": v["validator_id"], "leaf_cert_id": v["leaf_cert_id"]}
            )
            continue
        we_reject = len(ours) > 0
        they_accept = v["verdict"] == "valid"
        if they_accept and we_reject:
            disagreements[v["validator_id"]] = disagreements.get(v["validator_id"], 0) + 1
            per_code = by_code.setdefault(v["validator_id"], {})
            for code in ours:
                per_code[code] = per_code.get(code, 0) + 1
        elif we_reject != they_accept:
            agreements += 1
        else:
            accepted_here_rejected_there += 1
    unjoined.sort(key=lambda u: (u["validator_id"], u["chain_id"]))
    return {
        "disagreements": dict(sorted(disagreements.items())),
        "by_code": {v: dict(sorted(codes.items())) for v, codes in sorted(by_code.items())},
        "agreements": agreements,
        "accepted_here_rejected_there": accepted_here_rejected_there,
        "unjoined": unjoined,
    }


VALID_SPELLINGS = ("valid", "VALID", " Valid ", "vAlId\t", "  valid")
ERROR_LABELS = ("Ex", " Ex ", "ex", "Ey", "Ez  ", "bad CA")


def seeded_table(seed):
    """About 2,400 hand-built records over four validators, in shuffled order.

    Chains go up to four segments deep.  Some CA chains are left unmeasured
    under some validators, so their errored children are orphans; labels
    are padded and mixed in case; leaf ids with no report are unjoined.
    """
    rng = random.Random(seed)
    chains = [f"r{i}" for i in range(4)]
    for depth in range(3):
        chains += [f"{rng.choice(chains)}>n{depth}-{j}" for j in range(12 * (depth + 1))]
    chains += [f"{rng.choice(chains)}>leaf{j}" for j in range(520)]
    records = []
    for validator in ("openssl", "gnutls", "nss", "botan"):
        for chain in chains:
            if rng.random() < 0.08:
                continue
            label = rng.choice(VALID_SPELLINGS if rng.random() < 0.45 else ERROR_LABELS)
            leaf = chain.rsplit(">", 1)[-1]
            records.append(ChainOutcomeRecord(chain, leaf, validator, label))
    rng.shuffle(records)
    leaves = {r.leaf_cert_id for r in records}
    codes = ([], [], ["TRAILING_BYTES"], ["NON_MINIMAL_LENGTH", "TRAILING_BYTES"])
    reports = {leaf: rng.choice(codes) for leaf in sorted(leaves) if rng.random() < 0.9}
    return records, reports


def assert_same_json(got, expected):
    # Shows where the texts part: pytest's own diff of texts this long runs for minutes.
    got, expected = json.dumps(got), json.dumps(expected)
    if got != expected:
        at = len(os.path.commonprefix([got, expected]))
        pytest.fail(f"JSON differs at {at}: {got[at - 60:at + 60]!r} != {expected[at - 60:at + 60]!r}")


def first_error(fn, records):
    try:
        fn(records)
    except ValueError as exc:
        return str(exc)
    return None


class TestEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_hand_built_records(self, seed):
        records, reports = seeded_table(seed)
        assert len(records) >= 2000
        expected = reference_analyze(records)
        assert expected["missing_parent_chains"] and any(v["parent_label"] for v in expected["verdicts"])
        result = analyze(records)
        assert_same_json(result.to_json_dict(), expected)
        crosstab = reference_cross_tabulate(expected["verdicts"], reports)
        assert crosstab["unjoined"] and crosstab["disagreements"]
        assert_same_json(cross_tabulate(result.verdicts, reports).to_json_dict(), crosstab)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_read_from_csv(self, seed):
        records, reports = seeded_table(seed)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([CSV_COLUMNS, *records])
        read = list(read_records(buf.getvalue()))
        assert read == [ChainOutcomeRecord(*(cell.strip() for cell in r)) for r in records]
        expected = reference_analyze(read)
        result = analyze(read)
        assert_same_json(result.to_json_dict(), expected)
        crosstab = reference_cross_tabulate(expected["verdicts"], reports)
        assert_same_json(cross_tabulate(result.verdicts, reports).to_json_dict(), crosstab)

    @pytest.mark.parametrize("seed", range(6, 16))
    def test_same_first_error(self, seed):
        records, _ = seeded_table(seed)
        rng = random.Random(seed)
        bad = list(records)
        for _ in range(rng.randrange(1, 4)):
            at = rng.randrange(1, len(bad))
            if rng.random() < 0.5:
                twin = rng.choice(bad[:at])
                bad.insert(at, twin._replace(outcome_label="Ew"))
            else:
                bad.insert(at, ChainOutcomeRecord(rng.choice(["", ">x", "r0>", "r0>>x"]), "x", "openssl", "valid"))
        message = first_error(reference_analyze, bad)
        assert message is not None
        assert first_error(analyze, bad) == message


# --- the streamed report ------------------------------------------------------------
#
# write_report must give the bytes the report had when it was built whole:
# json.dumps of the to_json_dict payload, and for text the loop of print
# calls below.


def reference_json(analysis, crosstab):
    payload = analysis.to_json_dict()
    if crosstab is not None:
        payload["crosstab"] = crosstab.to_json_dict()
    return json.dumps(payload) + "\n"


def reference_text(analysis, crosstab):
    out = io.StringIO()
    for v in analysis.verdicts:
        parent = "-" if v.parent_label is None else v.parent_label
        line = f"{v.validator_id} {v.chain_id}: {v.verdict} [{v.rule_applied}] leaf={v.leaf_label} parent={parent}"
        print(line, file=out)
    for m in analysis.missing:
        print(f"{m.validator_id} {m.chain_id}: unresolved, parent chain {m.parent_chain_id} not measured", file=out)
    if crosstab is not None:
        for validator, count in sorted(crosstab.disagreements.items()):
            print(f"{validator}: accepts {count} certificate(s) we reject", file=out)
            for code, n in sorted(crosstab.by_code.get(validator, {}).items()):
                print(f"    {code}: {n}", file=out)
        print(
            f"agreements: {crosstab.agreements}, "
            f"accepted here but rejected there: {crosstab.accepted_here_rejected_there}, "
            f"unjoined: {len(crosstab.unjoined)}",
            file=out,
        )
    return out.getvalue()


def written(analysis, crosstab, style):
    out = io.StringIO()
    write_report(out, analysis, crosstab, style)
    return out.getvalue()


# Labels and ids json.dumps escapes (non-ASCII, astral, quote, backslash, control characters, NUL), and a "%",
# which the record template must not read.
ODD_TEXT = ("café", "\U0001f600 astral", 'say "no"', "back\\slash", "tab\tnew\nline\x01\x1f", "nul\x00byte", "50% off")


def sized_table(verdicts, orphans, seed):
    """Records giving exactly `verdicts` verdicts, half of them roots, and `orphans` missing chains."""
    rng = random.Random(seed)
    records, roots = [], []
    for i in range(verdicts):
        label = rng.choice(("VALID", "Ex") + ODD_TEXT)
        if i % 2 == 0:
            root = (f"r{i}-{rng.choice(ODD_TEXT)}", rng.choice(("openssl", "gnutls", "nïss")))
            roots.append(root)
            chain, validator = root
        else:
            parent, validator = rng.choice(roots)
            chain = f"{parent}>c{i}"
        records.append(ChainOutcomeRecord(chain, f"leaf-{i}-{rng.choice(ODD_TEXT)}", validator, label))
    records += [ChainOutcomeRecord(f"ghost>o{j}", f"o{j}", "openssl", rng.choice(ODD_TEXT)) for j in range(orphans)]
    return records


class TestWriteReport:
    @pytest.mark.parametrize("verdicts", [0, 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK])
    @pytest.mark.parametrize("orphans", [0, 3])
    @pytest.mark.parametrize("joined", [None, "all", "most"])
    def test_sized_tables(self, verdicts, orphans, joined):
        analysis = analyze(sized_table(verdicts, orphans, seed=verdicts + orphans))
        assert (len(analysis.verdicts), len(analysis.missing)) == (verdicts, orphans)
        assert any(v.parent_label is None for v in analysis.verdicts) == (verdicts > 0)
        crosstab = None
        if joined is not None:
            rng = random.Random(verdicts)
            codes = ([], ["TRAILING_BYTES"], ["NON_MINIMAL_LENGTH", "TRAILING_BYTES"])
            leaves = [v.leaf_cert_id for v in analysis.verdicts]
            reports = {leaf: rng.choice(codes) for leaf in leaves if joined == "all" or rng.random() < 0.9}
            crosstab = cross_tabulate(analysis.verdicts, reports)
            assert (crosstab.unjoined == []) == (joined == "all" or verdicts < 2)
        assert written(analysis, crosstab, "json") == reference_json(analysis, crosstab)
        assert written(analysis, crosstab, "text") == reference_text(analysis, crosstab)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_tables(self, seed):
        records, reports = seeded_table(seed)
        analysis = analyze(records)
        crosstab = cross_tabulate(analysis.verdicts, reports)
        for tab in (None, crosstab):
            assert written(analysis, tab, "json") == reference_json(analysis, tab)
            assert written(analysis, tab, "text") == reference_text(analysis, tab)

    @pytest.mark.parametrize("style", ["json", "text"])
    def test_memory_does_not_grow_with_the_table(self, style):
        # Peaks measured on CPython 3.11.7: json 1.03 and 1.06 MB, text 1,840 and 1,852 bytes, so the larger
        # table's peak is at most 1.03 times the smaller's; the bound of 2 leaves 1.9x headroom over that.
        # Building the json report whole peaks at 6.0 and 39.8 MB, a ratio of 6.6.
        n = 2 * _CHUNK
        peaks = []
        sink = types.SimpleNamespace(write=len, writelines=collections.deque(maxlen=0).extend)
        for verdicts in (n, 10 * n):
            records = sized_table(verdicts, verdicts // 10, seed=verdicts)
            analysis = analyze(records)
            reports = {r.leaf_cert_id: ["TRAILING_BYTES"] for r in records[: verdicts // 2]}
            crosstab = cross_tabulate(analysis.verdicts, reports)
            tracemalloc.start()
            try:
                write_report(sink, analysis, crosstab, style)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], peaks
