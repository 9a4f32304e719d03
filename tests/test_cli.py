"""End-to-end tests for the command line front end."""

import contextlib
import errno
import io
import json
import os
import signal
import subprocess
import sys
import types
from pathlib import Path

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


def _pem(*ders: bytes) -> bytes:
    import base64
    import textwrap

    blocks = (textwrap.fill(base64.b64encode(der).decode(), width=64) for der in ders)
    return "".join(f"-----BEGIN CERTIFICATE-----\n{b64}\n-----END CERTIFICATE-----\n" for b64 in blocks).encode()


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

    def test_unlistable_directory_is_io_error(self, capsys, tmp_path, good_file, monkeypatch):
        # The tests run as root, so chmod cannot make a directory unlistable; os.walk lists through os.scandir.
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "hidden.der").write_bytes(certs.base_cert())
        denied = PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(sub))
        real_scandir = os.scandir

        def scandir(path="."):
            if os.fspath(path) == str(sub):
                raise denied
            return real_scandir(path)

        monkeypatch.setattr(os, "scandir", scandir)
        status, out, err = run(capsys, ["lint", str(tmp_path)])
        assert status == cli.EXIT_ERROR
        assert err == f"derlint: {sub}: {denied}\n"
        report, summary = json_lines(out)
        assert report["id"] == str(good_file) and summary["summary"]["total"] == 1

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
        fake = types.SimpleNamespace(buffer=io.BytesIO(_pem(certs.base_cert())))
        monkeypatch.setattr(cli.sys, "stdin", fake)
        status, out, _ = run(capsys, ["lint", "--format", "pem"])
        assert status == cli.EXIT_OK
        assert json_lines(out)[0]["outcome"] == "accepted"

    def test_stdin_multi_block_pem(self, capsys, monkeypatch):
        fake = types.SimpleNamespace(buffer=io.BytesIO(_pem(certs.base_cert(), certs.base_cert() + b"\x00")))
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

    def test_max_size_bounds_each_document(self, capsys, good_file):
        size = good_file.stat().st_size
        unbounded = run(capsys, ["lint", "--no-timing", str(good_file)])
        assert run(capsys, ["lint", "--no-timing", "--max-size", str(size), str(good_file)]) == unbounded
        assert unbounded[0] == cli.EXIT_OK
        status, out, err = run(capsys, ["lint", "--no-timing", "--max-size", str(size - 1), str(good_file)])
        assert (status, err) == (cli.EXIT_REJECTED, "")
        report = json_lines(out)[0]
        assert [(d["code"], d["byte_offset"]) for d in report["diagnostics"]] == [("LENGTH_TOO_LARGE", size - 1)]

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

    def test_registry_entry_the_walk_cannot_use(self, capsys, tmp_path, good_file, monkeypatch):
        # Superscript digits are str.isdigit but not int(): loaded, the entry would make a walk raise mid-document.
        registry = "1.2.3 ; signature ; null\n1.2.3 ; curve ; point-\u00b3\u00b2\n"
        (tmp_path / "bad.txt").write_text(registry, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert run(capsys, ["lint", "--registry", "bad.txt", str(good_file)]) == (
            cli.EXIT_ERROR,
            "",
            "derlint: registry: bad.txt:2: curve grammar must be point-N\n",
        )

    def test_registry_oid_no_der_oid_decodes_to(self, capsys, tmp_path, good_file, monkeypatch):
        # 1.50.3 encodes as 2.10.3: loaded, the entry would match nothing and the file would look in force.
        (tmp_path / "bad.txt").write_text("1.2.3 ; signature ; null\n1.50.3 ; signature ; null\n")
        monkeypatch.chdir(tmp_path)
        assert run(capsys, ["lint", "--registry", "bad.txt", str(good_file)]) == (
            cli.EXIT_ERROR,
            "",
            "derlint: registry: bad.txt:2: no DER OID decodes to '1.50.3'\n",
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


class TestForkedBatch:
    """A batch of more than one chunk on more than one CPU is linted by forked workers, with the inline output."""

    @pytest.fixture()
    def tree(self, tmp_path, monkeypatch):
        good, bad = certs.base_cert(), certs.base_cert() + b"\x00"
        root = tmp_path / "tree"
        root.mkdir()
        files = {"a.der": good, "b.der": bad, "c.pem": _pem(good), "d.pem": _pem(good, bad, good), "e.txt": b"hello"}
        for name, data in files.items():
            (root / name).write_bytes(data)
        (root / "f").symlink_to(root / "g")  # a loop: listed, but cannot be opened
        (root / "g").symlink_to(root / "f")
        (root / "h.pem").write_bytes(_pem(bad))
        monkeypatch.setattr(cli, "CHUNK_FILES", 2)  # 5 chunks with the missing file below
        monkeypatch.setattr(cli, "FORK_CHUNKS", 2)
        return root

    @staticmethod
    def lint(capsys, monkeypatch, cpus: int, argv: list[str]):
        forks = []
        real_fork = os.fork

        def fork():
            forks.append(None)
            assert len(forks) <= 2
            return real_fork()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(os, "fork", fork)
        result = run(capsys, argv)
        with pytest.raises(ChildProcessError):  # every worker has been reaped
            os.waitpid(-1, os.WNOHANG)
        return result, len(forks)

    @pytest.mark.parametrize("report", ["json", "text"])
    def test_output_matches_the_inline_run(self, capsys, monkeypatch, tree, report):
        argv = ["lint", "--no-timing", "--report", report, str(tree), str(tree / "absent.der")]
        inline, inline_forks = self.lint(capsys, monkeypatch, 1, argv)
        forked, forks = self.lint(capsys, monkeypatch, 2, argv)
        assert (inline_forks, forks) == (0, 2)
        assert forked == inline
        status, out, err = forked
        assert status == cli.EXIT_ERROR
        assert err.splitlines() == [
            f"derlint: {tree / 'absent.der'}: no such file or directory",
            f"derlint: {tree / 'f'}: {OSError(errno.ELOOP, os.strerror(errno.ELOOP), str(tree / 'f'))}",
            f"derlint: {tree / 'g'}: {OSError(errno.ELOOP, os.strerror(errno.ELOOP), str(tree / 'g'))}",
        ]
        if report == "json":
            *reports, summary = json_lines(out)
            ids = ["a.der", "b.der", "c.pem", "d.pem#1", "d.pem#2", "d.pem#3", "e.txt", "h.pem"]
            assert [r["id"] for r in reports] == [str(tree / name) for name in ids]
            assert summary["summary"]["total"] == 8 and summary["summary"]["rejected"] == 4
        else:
            assert out.splitlines()[-1] == "4 accepted, 4 rejected of 8"

    def test_one_cpu_or_too_few_chunks_runs_inline(self, capsys, monkeypatch, tree):
        _, forks = self.lint(capsys, monkeypatch, 1, ["lint", str(tree)])
        assert forks == 0
        monkeypatch.setattr(cli, "FORK_CHUNKS", 5)  # the tree has 4 chunks
        _, forks = self.lint(capsys, monkeypatch, 2, ["lint", str(tree)])
        assert forks == 0
        monkeypatch.setattr(cli, "FORK_CHUNKS", 4)
        _, forks = self.lint(capsys, monkeypatch, 2, ["lint", str(tree)])
        assert forks == 2

    def test_a_worker_that_raises_is_an_error_without_a_summary(self, capsys, monkeypatch, tree):
        from derlint import ingest

        real_lint = ingest.lint

        def lint(doc, options=None):
            if doc.doc_id.endswith("e.txt"):
                raise RuntimeError("a bug in the walk")
            return real_lint(doc, options)

        monkeypatch.setattr(ingest, "lint", lint)
        (status, out, err), forks = self.lint(capsys, monkeypatch, 2, ["lint", "--no-timing", str(tree)])
        assert (status, forks) == (cli.EXIT_ERROR, 2)
        assert err.splitlines()[-1] == "derlint: a lint worker failed; the reports after these are missing"
        assert "summary" not in out
        ids = ["a.der", "b.der", "c.pem", "d.pem#1", "d.pem#2", "d.pem#3"]  # the chunks before e.txt's
        assert [r["id"] for r in json_lines(out)] == [str(tree / name) for name in ids]

    def test_a_worker_that_dies_while_sending_is_an_error_without_a_summary(self, capsys, monkeypatch, tree):
        import pickle

        real_dump = pickle.dump

        def dump(obj, file):
            if "c.pem" not in obj[0]:
                return real_dump(obj, file)
            data = pickle.dumps(obj)
            file.write(data[: len(data) // 2])
            file.flush()
            os._exit(1)  # killed halfway through the chunk's reports

        monkeypatch.setattr(pickle, "dump", dump)
        (status, out, err), forks = self.lint(capsys, monkeypatch, 2, ["lint", "--no-timing", str(tree)])
        assert (status, forks) == (cli.EXIT_ERROR, 2)
        assert err == "derlint: a lint worker failed; the reports after these are missing\n"
        assert [r["id"] for r in json_lines(out)] == [str(tree / "a.der"), str(tree / "b.der")]

    def test_a_fork_that_fails_lints_inline(self, capsys, monkeypatch, tree):
        argv = ["lint", "--no-timing", str(tree)]
        inline, _ = self.lint(capsys, monkeypatch, 1, argv)
        real_fork = os.fork
        forks = []

        def fork():  # the first worker starts, the second is refused, as under a process limit
            forks.append(None)
            if len(forks) > 1:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return real_fork()

        fds = len(os.listdir("/dev/fd"))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", fork)
        assert run(capsys, argv) == inline
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):  # the worker that started has been reaped
            os.waitpid(-1, os.WNOHANG)
        assert len(os.listdir("/dev/fd")) == fds  # and both pipes are closed


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

    def test_bad_row_far_into_the_table(self, capsys, tmp_path):
        # The bad row sits well past the first read of the file: no report is half written.
        rows = [f"root>leaf{i},leaf{i},openssl,VALID" for i in range(3000)]
        records = tmp_path / "records.csv"
        records.write_text("\n".join([CSV_HEADER, "root,root,openssl,VALID", *rows, "root>x,x,openssl", *rows[:5]]))
        assert run(capsys, ["diff", "--records", str(records)]) == (
            cli.EXIT_ERROR,
            "",
            "derlint: records: row 3003: expected 4 columns, found 3\n",
        )

    def test_csv_error_is_bad_input(self, capsys, tmp_path):
        records = tmp_path / "records.csv"
        records.write_text(CSV_HEADER + "\nroot,root,openssl,VALID\nroot>x,x,openssl," + "x" * 131073 + "\n")
        assert run(capsys, ["diff", "--records", str(records)]) == (
            cli.EXIT_ERROR,
            "",
            "derlint: records: row 3: field larger than field limit (131072)\n",
        )

    def test_lone_carriage_return_in_a_file_is_refused_as_in_a_string(self, capsys, tmp_path):
        # csv gets the file's lines as they are written, so a CR that ends no line is csv's to judge.
        records = tmp_path / "records.csv"
        records.write_bytes(CSV_HEADER.encode() + b"\nroot,root,openssl,VALID\rroot>x,x,openssl,Ex\n")
        assert run(capsys, ["diff", "--records", str(records)]) == (
            cli.EXIT_ERROR,
            "",
            "derlint: records: row 2: line break inside an unquoted field\n",
        )

    def test_duplicate_before_malformed_row_is_reported(self, capsys, tmp_path):
        # Rows reach analyze as they are read, so the first bad row in file order decides the message.
        records = tmp_path / "records.csv"
        records.write_text(CSV_HEADER + "\nroot,root,openssl,VALID\nroot,root,openssl,Ex\nroot>>x,x,openssl,VALID\n")
        assert run(capsys, ["diff", "--records", str(records)]) == (
            cli.EXIT_ERROR,
            "",
            "derlint: records: duplicate outcome for chain 'root' under 'openssl'\n",
        )

    def test_byte_order_mark_is_not_part_of_the_first_line(self, capsys, tmp_path, bad_file, records_file):
        # Spreadsheets export CSV with a UTF-8 byte-order mark first.
        _, lint_out, _ = run(capsys, ["lint", "--no-timing", str(bad_file)])
        reports = tmp_path / "reports.jsonl"
        reports.write_text(lint_out)
        argv = ["diff", "--records", str(records_file), "--reports", str(reports)]
        plain = run(capsys, argv)
        assert plain[0] == cli.EXIT_OK
        for path in (records_file, reports):
            path.write_text(path.read_text(), encoding="utf-8-sig")
        assert records_file.read_bytes().startswith(b"\xef\xbb\xbf" + CSV_HEADER.encode())
        assert run(capsys, argv) == plain

    def test_bad_report_line_far_into_the_file(self, capsys, tmp_path, records_file):
        lines = [f'{{"id": "leaf{i}", "diagnostics": []}}' for i in range(3000)]
        reports = tmp_path / "reports.jsonl"
        reports.write_text("\n".join([*lines, "{broken", *lines[:5]]) + "\n")
        status, out, err = run(capsys, ["diff", "--records", str(records_file), "--reports", str(reports)])
        assert (status, out) == (cli.EXIT_ERROR, "")
        assert err.startswith("derlint: reports: line 3001: not JSON: ") and err.count("\n") == 1, err


def _bad_docs(tmp_path) -> Path:
    # More output than the pipe and stdout's buffer hold, so a write fails or waits while the command runs.
    docs = tmp_path / "docs"
    docs.mkdir()
    for i in range(1000):
        (docs / f"bad{i:04d}.der").write_bytes(certs.base_cert() + b"\x00")
    return docs


def _start_cli(argv: list[str]) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.Popen(
        [sys.executable, "-m", "derlint.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        start_new_session=True,
    )


class TestClosedStdout:
    @pytest.mark.parametrize("command", ["lint", "lint-text", "diff-text"])
    def test_reader_closing_early_ends_quietly(self, tmp_path, command):
        docs = _bad_docs(tmp_path)
        records = tmp_path / "records.csv"
        records.write_text(CSV_HEADER + "\n" + "".join(f"root>l{i},l{i},openssl,Expired\n" for i in range(3000)))
        argv = {
            "lint": ["lint", str(docs)],
            "lint-text": ["lint", "--report", "text", str(docs)],
            "diff-text": ["diff", "--report", "text", "--records", str(records)],
        }[command]
        proc = _start_cli(argv)
        try:
            with proc:
                assert len(proc.stdout.read(100)) == 100
                proc.stdout.close()  # what `| head -c 100` does
                # A worker left running would hold stderr open, so the wait has a bound.
                err = proc.communicate(timeout=120)[1].decode()
                assert proc.returncode == cli.EXIT_ERROR
            assert err == "", err  # no Traceback, and no "Exception ignored" from the final flush
            with pytest.raises(ProcessLookupError):  # lint's forked workers have gone with it
                os.killpg(proc.pid, 0)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)  # nothing is left behind when a check fails

    def test_workers_end_when_the_parent_is_killed(self, tmp_path):
        # SIGTERM's default action runs no cleanup, so the parent neither kills nor reaps its workers.
        proc = _start_cli(["lint", str(_bad_docs(tmp_path))])
        try:
            with proc:
                assert len(proc.stdout.read(100)) == 100  # the workers are running, or blocked on a full pipe
                os.kill(proc.pid, signal.SIGTERM)  # the parent alone
                # stdout and stderr reach their end only once no worker holds them: each ends on a broken pipe.
                err = proc.communicate(timeout=60)[1].decode()
                assert proc.returncode == -signal.SIGTERM
            assert err == "", err  # quietly, with no traceback from any worker
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)


class TestParser:
    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])
