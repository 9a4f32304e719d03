"""End-to-end tests for the command line front end."""

import errno
import io
import json
import os
import types

import pytest

from derlint import cli
from support import certs


CSV_HEADER = "chain_id,leaf_cert_id,validator_id,outcome_label"


@pytest.fixture()
def good_file(tmp_path):
    path = tmp_path / "good.der"
    path.write_bytes(certs.base_cert())
    return path


@pytest.fixture()
def bad_file(tmp_path):
    path = tmp_path / "bad.der"
    path.write_bytes(certs.base_cert() + b"\x00")
    return path


def run(capsys, argv):
    status = cli.main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


class TestLint:
    def test_accepted_file(self, capsys, good_file):
        status, out, err = run(capsys, ["lint", str(good_file)])
        assert status == cli.EXIT_OK
        assert err == ""
        lines = json_lines(out)
        assert len(lines) == 2
        report, summary = lines
        assert report["id"] == str(good_file)
        assert report["outcome"] == "accepted"
        assert report["diagnostics"] == []
        assert "parse_time_micros" in report
        assert summary["summary"]["total"] == 1
        assert summary["summary"]["accepted"] == 1

    def test_rejected_file_exit_code(self, capsys, bad_file):
        status, out, _ = run(capsys, ["lint", str(bad_file)])
        assert status == cli.EXIT_REJECTED
        report = json_lines(out)[0]
        assert report["outcome"] == "rejected"
        codes = [d["code"] for d in report["diagnostics"]]
        assert "TRAILING_BYTES" in codes

    def test_mixed_batch(self, capsys, good_file, bad_file):
        status, out, _ = run(capsys, ["lint", str(good_file), str(bad_file)])
        assert status == cli.EXIT_REJECTED
        summary = json_lines(out)[-1]["summary"]
        assert summary["total"] == 2
        assert summary["accepted"] == 1
        assert summary["rejected"] == 1

    def test_directory_batch(self, capsys, tmp_path, good_file, bad_file):
        status, out, _ = run(capsys, ["lint", str(tmp_path)])
        assert status == cli.EXIT_REJECTED
        lines = json_lines(out)
        assert len(lines) == 3
        ids = [line["id"] for line in lines[:-1]]
        assert ids == sorted(ids)

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        missing = tmp_path / "absent.der"
        status, _, err = run(capsys, ["lint", str(missing)])
        assert status == cli.EXIT_ERROR
        assert str(missing) in err

    def test_io_error_outranks_rejection(self, capsys, tmp_path, bad_file):
        missing = tmp_path / "absent.der"
        status, out, err = run(capsys, ["lint", str(bad_file), str(missing)])
        assert status == cli.EXIT_ERROR
        assert "absent.der" in err
        # The readable file is still reported.
        assert json_lines(out)[0]["outcome"] == "rejected"

    def test_unopenable_file_is_io_error(self, capsys, tmp_path, good_file):
        # A symlink loop is listed but cannot be opened: an OSError other than FileNotFoundError.
        (tmp_path / "a").symlink_to(tmp_path / "b")
        (tmp_path / "b").symlink_to(tmp_path / "a")
        status, out, err = run(capsys, ["lint", str(tmp_path)])
        assert status == cli.EXIT_ERROR == 2
        loops = [tmp_path / "a", tmp_path / "b"]
        assert err.splitlines() == [
            f"derlint: {link}: {OSError(errno.ELOOP, os.strerror(errno.ELOOP), str(link))}" for link in loops
        ]
        report, summary = json_lines(out)
        assert report["id"] == str(good_file) and report["outcome"] == "accepted"
        assert summary["summary"]["total"] == 1

    def test_text_report(self, capsys, bad_file):
        status, out, _ = run(capsys, ["lint", "--report", "text", str(bad_file)])
        assert status == cli.EXIT_REJECTED
        lines = out.splitlines()
        assert lines[0].startswith(f"{bad_file}: rejected (")
        assert any(
            line.startswith("  [security-critical] TRAILING_BYTES at byte ")
            for line in lines
        )
        assert lines[-1] == "0 accepted, 1 rejected of 1"

    def test_no_timing(self, capsys, good_file):
        _, out, _ = run(capsys, ["lint", "--no-timing", str(good_file)])
        assert "parse_time_micros" not in json_lines(out)[0]

    def test_stdin(self, capsys, monkeypatch):
        fake = types.SimpleNamespace(buffer=io.BytesIO(certs.base_cert()))
        monkeypatch.setattr(cli.sys, "stdin", fake)
        status, out, _ = run(capsys, ["lint"])
        assert status == cli.EXIT_OK
        assert json_lines(out)[0]["id"] == "<stdin>"

    def test_stdin_pem(self, capsys, monkeypatch):
        import base64
        import textwrap

        b64 = textwrap.fill(base64.b64encode(certs.base_cert()).decode(), width=64)
        pem = f"-----BEGIN CERTIFICATE-----\n{b64}\n-----END CERTIFICATE-----\n"
        fake = types.SimpleNamespace(buffer=io.BytesIO(pem.encode()))
        monkeypatch.setattr(cli.sys, "stdin", fake)
        status, out, _ = run(capsys, ["lint", "--format", "pem"])
        assert status == cli.EXIT_OK
        assert json_lines(out)[0]["outcome"] == "accepted"

    def test_stdin_multi_block_pem(self, capsys, monkeypatch):
        import base64
        import textwrap

        pem = ""
        for der in (certs.base_cert(), certs.base_cert() + b"\x00"):
            b64 = textwrap.fill(base64.b64encode(der).decode(), width=64)
            pem += f"-----BEGIN CERTIFICATE-----\n{b64}\n-----END CERTIFICATE-----\n"
        fake = types.SimpleNamespace(buffer=io.BytesIO(pem.encode()))
        monkeypatch.setattr(cli.sys, "stdin", fake)
        status, out, err = run(capsys, ["lint"])
        assert status == cli.EXIT_REJECTED
        assert err == ""
        *reports, summary = json_lines(out)
        assert [(r["id"], r["outcome"]) for r in reports] == [("<stdin>#1", "accepted"), ("<stdin>#2", "rejected")]
        assert summary["summary"]["total"] == 2

    def test_max_size_must_be_positive(self, capsys, good_file):
        status, _, err = run(capsys, ["lint", "--max-size", "0", str(good_file)])
        assert status == cli.EXIT_ERROR
        assert "--max-size" in err

    def test_unreadable_registry(self, capsys, tmp_path, good_file):
        status, _, err = run(
            capsys, ["lint", "--registry", str(tmp_path / "nope.txt"), str(good_file)]
        )
        assert status == cli.EXIT_ERROR
        assert "registry" in err

    def test_malformed_registry(self, capsys, tmp_path, good_file, monkeypatch):
        (tmp_path / "bad.txt").write_text("1.2.3 ; signature ; null\n# again\n1.2.3 ; signature ; absent\n")
        monkeypatch.chdir(tmp_path)
        assert run(capsys, ["lint", "--registry", "bad.txt", str(good_file)]) == (
            cli.EXIT_ERROR,
            "",
            "derlint: registry: bad.txt:3: duplicate entry for (1.2.3, signature)\n",
        )

    def test_registry_override_is_used(self, capsys, tmp_path, good_file):
        from importlib import resources

        builtin = resources.files("derlint.data").joinpath("registry.txt").read_text()
        # Drop the signing algorithm the fixture certificate uses; the
        # certificate must then be rejected under the override registry.
        stripped = "\n".join(
            line for line in builtin.splitlines() if not line.startswith("1.2.840.113549.1.1.11 ")
        )
        reg = tmp_path / "reg.txt"
        reg.write_text(stripped + "\n")
        status, out, _ = run(capsys, ["lint", "--registry", str(reg), str(good_file)])
        assert status == cli.EXIT_REJECTED
        codes = {d["code"] for d in json_lines(out)[0]["diagnostics"]}
        assert "WRONG_ALGORITHM" in codes

    def test_jobs_option_is_gone(self, capsys, good_file):
        with pytest.raises(SystemExit):
            cli.main(["lint", "--jobs", "2", str(good_file)])

    def test_unknown_format_rejected_by_argparse(self, capsys, good_file):
        with pytest.raises(SystemExit):
            cli.main(["lint", "--format", "xml", str(good_file)])


class TestDiff:
    @pytest.fixture()
    def records_file(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(
            CSV_HEADER + "\n"
            "root,root,openssl,VALID\n"
            "root>leaf,leaf,openssl,Expired\n"
            "orphan>leaf2,leaf2,gnutls,Expired\n"
        )
        return path

    def test_json_output(self, capsys, records_file):
        status, out, err = run(capsys, ["diff", "--records", str(records_file)])
        assert status == cli.EXIT_OK
        assert err == ""
        payload = json.loads(out)
        verdicts = {v["chain_id"]: v for v in payload["verdicts"]}
        assert verdicts["root"]["verdict"] == "valid"
        assert verdicts["root>leaf"]["verdict"] == "invalid"
        assert payload["missing_parent_chains"] == [
            {"chain_id": "orphan>leaf2", "validator_id": "gnutls", "parent_chain_id": "orphan"}
        ]
        assert "crosstab" not in payload

    def test_text_output(self, capsys, records_file):
        status, out, _ = run(capsys, ["diff", "--report", "text", "--records", str(records_file)])
        assert status == cli.EXIT_OK
        lines = out.splitlines()
        assert "openssl root: valid [leaf-valid] leaf=VALID parent=-" in lines
        assert "openssl root>leaf: invalid [distinct-error] leaf=Expired parent=VALID" in lines
        assert "gnutls orphan>leaf2: unresolved, parent chain orphan not measured" in lines

    def test_missing_records_file(self, capsys, tmp_path):
        status, _, err = run(capsys, ["diff", "--records", str(tmp_path / "nope.csv")])
        assert status == cli.EXIT_ERROR
        assert "records" in err

    def test_malformed_records(self, capsys, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("who,what\n")
        status, _, err = run(capsys, ["diff", "--records", str(path)])
        assert status == cli.EXIT_ERROR
        assert "header" in err

    def test_duplicate_records(self, capsys, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(CSV_HEADER + "\nroot,root,openssl,VALID\nroot,root,openssl,Ex\n")
        status, _, err = run(capsys, ["diff", "--records", str(path)])
        assert status == cli.EXIT_ERROR
        assert "duplicate" in err

    def test_records_argument_required(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["diff"])

    def test_crosstab_against_lint_output(self, capsys, tmp_path, bad_file):
        # Lint a rejected certificate, then feed that very JSONL output
        # into diff as the local side of the cross tabulation.
        status, lint_out, _ = run(capsys, ["lint", str(bad_file)])
        assert status == cli.EXIT_REJECTED
        reports_path = tmp_path / "reports.jsonl"
        reports_path.write_text(lint_out)

        records_path = tmp_path / "records.csv"
        records_path.write_text(CSV_HEADER + f"\nroot>{bad_file},{bad_file},openssl,VALID\n")

        status, out, _ = run(
            capsys,
            ["diff", "--records", str(records_path), "--reports", str(reports_path)],
        )
        assert status == cli.EXIT_OK
        crosstab = json.loads(out)["crosstab"]
        assert crosstab["disagreements"] == {"openssl": 1}
        assert crosstab["by_code"]["openssl"].get("TRAILING_BYTES") == 1
        assert crosstab["unjoined"] == []

    def test_crosstab_text_summary(self, capsys, tmp_path, bad_file):
        _, lint_out, _ = run(capsys, ["lint", str(bad_file)])
        reports_path = tmp_path / "reports.jsonl"
        reports_path.write_text(lint_out)
        records_path = tmp_path / "records.csv"
        records_path.write_text(
            CSV_HEADER + f"\nroot>{bad_file},{bad_file},openssl,VALID\n"
            "root,root,openssl,VALID\n"
        )
        status, out, _ = run(
            capsys,
            [
                "diff",
                "--report",
                "text",
                "--records",
                str(records_path),
                "--reports",
                str(reports_path),
            ],
        )
        assert status == cli.EXIT_OK
        assert "openssl: accepts 1 certificate(s) we reject" in out
        assert "agreements: 0, accepted here but rejected there: 0, unjoined: 1" in out

    def test_bad_reports_file(self, capsys, tmp_path, records_file):
        reports_path = tmp_path / "reports.jsonl"
        bad_lines = [
            "not json",
            '{"id": "a", "diagnostics": [1]}',
            '{"id": "a", "diagnostics": 5}',
            '{"id": ["a"], "diagnostics": []}',
        ]
        for line in bad_lines:
            reports_path.write_text(line + "\n")
            status, _, err = run(
                capsys,
                ["diff", "--records", str(records_file), "--reports", str(reports_path)],
            )
            assert status == cli.EXIT_ERROR, line
            assert err.startswith("derlint: reports: line 1: "), err

    def test_json_output_bytes(self, capsys, tmp_path):
        # Compared as text, so a reordered key fails where a parsed comparison would not.
        records = tmp_path / "records.csv"
        records.write_text(
            CSV_HEADER + "\n"
            "root,root,openssl,VALID\n"
            "root>leaf,leaf,openssl,VALID\n"
            "root>leaf3,leaf3,openssl,Expired\n"
            "orphan>leaf2,leaf2,gnutls,Expired\n"
        )
        reports = tmp_path / "reports.jsonl"
        reports.write_text(
            '{"id": "leaf", "diagnostics": [{"code": "TRAILING_BYTES"}]}\n{"id": "leaf3", "diagnostics": []}\n'
        )
        argv = ["diff", "--records", str(records), "--reports", str(reports), "--report", "json"]
        assert run(capsys, argv) == (
            cli.EXIT_OK,
            '{"verdicts": ['
            '{"chain_id": "root", "leaf_cert_id": "root", "validator_id": "openssl", "verdict": "valid", '
            '"rule_applied": "leaf-valid", "leaf_label": "VALID", "parent_label": null}, '
            '{"chain_id": "root>leaf", "leaf_cert_id": "leaf", "validator_id": "openssl", "verdict": "valid", '
            '"rule_applied": "leaf-valid", "leaf_label": "VALID", "parent_label": "VALID"}, '
            '{"chain_id": "root>leaf3", "leaf_cert_id": "leaf3", "validator_id": "openssl", "verdict": "invalid", '
            '"rule_applied": "distinct-error", "leaf_label": "Expired", "parent_label": "VALID"}], '
            '"missing_parent_chains": [{"chain_id": "orphan>leaf2", "validator_id": "gnutls", '
            '"parent_chain_id": "orphan"}], '
            '"crosstab": {"disagreements": {"openssl": 1}, "by_code": {"openssl": {"TRAILING_BYTES": 1}}, '
            '"agreements": 0, "accepted_here_rejected_there": 1, '
            '"unjoined": [{"chain_id": "root", "validator_id": "openssl", "leaf_cert_id": "root"}]}}\n',
            "",
        )

    def test_text_output_bytes(self, capsys, tmp_path):
        # Rows out of order, a two-level chain, a padded label, two missing parents and an unjoined leaf.
        records = tmp_path / "records.csv"
        records.write_text(
            CSV_HEADER + "\n"
            "root,root,openssl,VALID\n"
            "root>leaf,leaf,openssl,VALID\n"
            "root>leaf3,leaf3,openssl,Expired\n"
            "root>ica,ica,gnutls,Bad CA\n"
            "root>ica>leaf,leaf,gnutls,Bad CA\n"
            "root>ica>leaf3,leaf3,gnutls, valid \n"
            "orphan>leaf2,leaf2,gnutls,Expired\n"
            "root>ghost,ghost,openssl,VALID\n"
        )
        reports = tmp_path / "reports.jsonl"
        reports.write_text(
            '{"id": "leaf", "diagnostics": [{"code": "TRAILING_BYTES"}, {"code": "NON_MINIMAL_LENGTH"}]}\n'
            '{"id": "leaf3", "diagnostics": []}\n'
            '{"id": "root", "diagnostics": []}\n'
            '{"id": "ica", "diagnostics": [{"code": "TRAILING_BYTES"}]}\n'
            '{"summary": {"total": 4}}\n'
        )
        argv = ["diff", "--report", "text", "--records", str(records), "--reports", str(reports)]
        assert run(capsys, argv) == (
            cli.EXIT_OK,
            "gnutls root>ica>leaf: valid [ca-shadowed] leaf=Bad CA parent=Bad CA\n"
            "gnutls root>ica>leaf3: valid [leaf-valid] leaf=valid parent=Bad CA\n"
            "openssl root: valid [leaf-valid] leaf=VALID parent=-\n"
            "openssl root>ghost: valid [leaf-valid] leaf=VALID parent=VALID\n"
            "openssl root>leaf: valid [leaf-valid] leaf=VALID parent=VALID\n"
            "openssl root>leaf3: invalid [distinct-error] leaf=Expired parent=VALID\n"
            "gnutls orphan>leaf2: unresolved, parent chain orphan not measured\n"
            "gnutls root>ica: unresolved, parent chain root not measured\n"
            "gnutls: accepts 1 certificate(s) we reject\n"
            "    NON_MINIMAL_LENGTH: 1\n"
            "    TRAILING_BYTES: 1\n"
            "openssl: accepts 1 certificate(s) we reject\n"
            "    NON_MINIMAL_LENGTH: 1\n"
            "    TRAILING_BYTES: 1\n"
            "agreements: 2, accepted here but rejected there: 1, unjoined: 1\n",
            "",
        )

    def test_malformed_chain_id_names_its_row(self, capsys, tmp_path):
        records = tmp_path / "records.csv"
        records.write_text(CSV_HEADER + "\nroot,root,openssl,VALID\n\nroot>>leaf,leaf,openssl,VALID\n")
        status, out, err = run(capsys, ["diff", "--records", str(records)])
        assert (status, out, err) == (cli.EXIT_ERROR, "", "derlint: records: row 4: malformed chain id 'root>>leaf'\n")


class TestParser:
    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])
