"""Input handling: armored text, format detection, batch runs."""

import base64
import errno
import os
import textwrap

import pytest

from derlint.diagnostics import Code, Histogram
from derlint.ingest import (
    CertificateReport,
    LintOptions,
    load_documents,
    load_input,
    lint,
    lint_bytes,
    run_batch,
)

from support import certs

BEGIN = "-----BEGIN CERTIFICATE-----"
END = "-----END CERTIFICATE-----"


def pem_of(data: bytes, width: int = 64) -> str:
    body = textwrap.fill(base64.b64encode(data).decode("ascii"), width)
    return f"{BEGIN}\n{body}\n{END}\n"


def container_codes(docs):
    return [d.container_error.code if d.container_error else None for d in docs]


class TestPem:
    def test_single_block(self):
        raw = pem_of(certs.base_cert()).encode("ascii")
        docs = load_documents(raw, "leaf.pem")
        assert len(docs) == 1
        assert docs[0].doc_id == "leaf.pem"
        assert docs[0].container_error is None
        assert docs[0].data == certs.base_cert()

    def test_multiple_blocks_get_numbered_ids(self):
        raw = (pem_of(certs.base_cert()) + pem_of(certs.ca_cert_accepted())).encode()
        docs = load_documents(raw, "bundle.pem")
        assert [d.doc_id for d in docs] == ["bundle.pem#1", "bundle.pem#2"]
        assert docs[0].data == certs.base_cert()
        assert docs[1].data == certs.ca_cert_accepted()

    def test_comments_between_blocks_allowed_blank_only(self):
        raw = (pem_of(certs.base_cert()) + "\n\n" + pem_of(certs.base_cert())).encode()
        docs = load_documents(raw, "x.pem")
        assert len(docs) == 2

    def test_free_text_outside_block_rejected(self):
        # Forced pem mode applies the strict armor rules to the whole file;
        # auto mode cannot even detect such input as armored.
        raw = ("subject=CN=Leaf\n" + pem_of(certs.base_cert())).encode()
        docs = load_documents(raw, "x.pem", fmt="pem")
        assert container_codes(docs) == [Code.BAD_PEM_ARMOR]
        docs = load_documents(raw, "x.pem")
        assert container_codes(docs) == [Code.UNRECOGNIZED_FORMAT]

    def test_trailing_text_after_block_rejected(self):
        raw = (pem_of(certs.base_cert()) + "-- mail signature --\n").encode()
        docs = load_documents(raw, "x.pem")
        assert Code.BAD_PEM_ARMOR in [c for c in container_codes(docs) if c]

    def test_wrong_begin_label(self):
        raw = pem_of(certs.base_cert()).replace("CERTIFICATE", "PRIVATE KEY").encode()
        docs = load_documents(raw, "x.pem", fmt="pem")
        assert container_codes(docs) == [Code.UNRECOGNIZED_FORMAT]

    def test_unclosed_block(self):
        # The newline that ends the last line is not a blank line inside the block.
        for raw in (BEGIN + "\nAAAA", BEGIN + "\nAAAA\n", BEGIN + "\r\nAAAA\r\n"):
            docs = load_documents(raw.encode(), "x.pem", fmt="pem")
            assert container_codes(docs) == [Code.BAD_PEM_ARMOR]
            assert docs[0].container_error.message == "armored block never closed"

    def test_blank_line_inside_block(self):
        body = pem_of(certs.base_cert()).splitlines()
        body.insert(2, "")
        docs = load_documents("\n".join(body).encode(), "x.pem")
        assert Code.BAD_PEM_ARMOR in [c for c in container_codes(docs) if c]

    def test_blank_line_before_end_of_unclosed_block(self):
        docs = load_documents((BEGIN + "\nAAAA\n\n").encode(), "x.pem", fmt="pem")
        assert container_codes(docs) == [Code.BAD_PEM_ARMOR]
        assert docs[0].container_error.message == "blank line inside an armored block (line 3)"

    def test_begin_line_inside_block(self):
        docs = load_documents((BEGIN + "\nAAAA\n" + BEGIN + "\n").encode(), "x.pem", fmt="pem")
        assert container_codes(docs) == [Code.BAD_PEM_ARMOR]
        assert docs[0].container_error.message == f"unexpected armor line {BEGIN!r} (line 3)"

    def test_non_canonical_base64_body(self):
        # QUJDRB== decodes to ABCD, but the canonical encoding of ABCD is QUJDRA==.
        docs = load_documents((BEGIN + "\nQUJDRB==\n" + END + "\n").encode(), "x.pem")
        assert container_codes(docs) == [Code.BAD_BASE64]
        assert docs[0].container_error.message == "base64 body is not canonical"

    def test_blank_only_input_in_pem_mode(self):
        docs = load_documents(b"\n \r\n\n", "x.pem", fmt="pem")
        assert container_codes(docs) == [Code.BAD_PEM_ARMOR]
        assert docs[0].container_error.message == "no armored block found"

    def test_overlong_line(self):
        raw = pem_of(certs.base_cert(), width=70).encode()
        docs = load_documents(raw, "x.pem")
        assert container_codes(docs) == [Code.BAD_PEM_ARMOR]

    def test_bad_base64_characters(self):
        raw = (BEGIN + "\nnot*valid*base64\n" + END + "\n").encode()
        docs = load_documents(raw, "x.pem")
        assert container_codes(docs) == [Code.BAD_BASE64]

    def test_base64_with_wrong_padding(self):
        raw = (BEGIN + "\nQUJD0\n" + END + "\n").encode()
        docs = load_documents(raw, "x.pem")
        assert container_codes(docs) == [Code.BAD_BASE64]
        assert docs[0].container_error.message == "base64 body rejected: 5 characters, not a multiple of 4"

    def test_base64_reason_is_not_the_decoders_text(self, monkeypatch):
        # binascii's wording differs between Python versions, so the message must not carry it.
        def b64decode(*args, **kwargs):
            raise ValueError("sentinel")

        monkeypatch.setattr(base64, "b64decode", b64decode)
        docs = load_documents((BEGIN + "\nQUJDRA==\n" + END + "\n").encode(), "x.pem")
        assert container_codes(docs) == [Code.BAD_BASE64]
        assert docs[0].container_error.message.startswith("base64 body rejected: ")
        assert "sentinel" not in docs[0].container_error.message

    def test_non_ascii_input_in_pem_mode(self):
        docs = load_documents("café".encode("utf-8"), "x.pem", fmt="pem")
        assert container_codes(docs) == [Code.BAD_PEM_ARMOR]


class TestFormatDetection:
    def test_auto_detects_der(self):
        docs = load_documents(certs.base_cert(), "x.der")
        assert docs[0].data == certs.base_cert()

    def test_auto_detects_pem_with_leading_whitespace(self):
        raw = ("\n  \n" + pem_of(certs.base_cert())).encode()
        docs = load_documents(raw, "x.pem")
        assert docs[0].container_error is None

    def test_auto_unknown(self):
        docs = load_documents(b"\x7fELF...", "x.bin")
        assert container_codes(docs) == [Code.UNRECOGNIZED_FORMAT]

    def test_empty_input(self):
        docs = load_documents(b"", "x")
        assert container_codes(docs) == [Code.UNRECOGNIZED_FORMAT]

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError, match="^unknown input format 'xml'$"):
            load_documents(certs.base_cert(), "x", fmt="xml")

    def test_der_mode_forces_der(self):
        raw = pem_of(certs.base_cert()).encode()
        docs = load_documents(raw, "x", fmt="der")
        assert docs[0].container_error is None
        assert docs[0].data == raw

    def test_load_input_requires_single_document(self):
        raw = (pem_of(certs.base_cert()) * 2).encode()
        with pytest.raises(ValueError):
            load_input(raw, "x.pem")


class TestLint:
    def test_accepted_report(self):
        report = lint_bytes(certs.base_cert(), "ok.der")
        assert report.outcome == "accepted"
        assert report.diagnostics == []
        assert report.size_bytes == len(certs.base_cert())
        assert report.parse_time_micros is not None
        assert len(report.sha256) == 64

    def test_rejected_report(self):
        report = lint_bytes(certs.base_cert() + b"\x00", "bad.der")
        assert report.outcome == "rejected"
        assert [d.code for d in report.diagnostics] == [Code.TRAILING_BYTES]

    def test_timing_disabled(self):
        report = lint_bytes(certs.base_cert(), options=LintOptions(timing=False))
        assert report.parse_time_micros is None
        assert "parse_time_micros" not in report.to_json_dict()

    def test_container_error_report(self):
        doc = load_documents(b"junk", "j")[0]
        report = lint(doc)
        assert report.outcome == "rejected"
        assert report.diagnostics[0].code is Code.UNRECOGNIZED_FORMAT

    def test_max_size_bound(self):
        report = lint_bytes(certs.base_cert(), options=LintOptions(max_size=64))
        assert report.outcome == "rejected"
        assert report.diagnostics[0].code is Code.LENGTH_TOO_LARGE

    def test_json_shape(self):
        payload = lint_bytes(certs.base_cert() + b"\x00", "x").to_json_dict()
        assert set(payload) >= {"id", "sha256", "outcome", "size_bytes", "diagnostics"}
        assert payload["diagnostics"][0]["code"] == "TRAILING_BYTES"


class TestBatch:
    def write_tree(self, tmp_path):
        (tmp_path / "good.der").write_bytes(certs.base_cert())
        (tmp_path / "bad.der").write_bytes(certs.base_cert()[:-5])
        nested = tmp_path / "sub"
        nested.mkdir()
        (nested / "bundle.pem").write_text(pem_of(certs.base_cert()) + pem_of(certs.ca_cert_accepted()))
        return tmp_path

    def test_run_batch_over_tree(self, tmp_path):
        root = self.write_tree(tmp_path)
        reports = list(run_batch([str(root)]))
        assert all(isinstance(r, CertificateReport) for r in reports)
        histogram = Histogram()
        for report in reports:
            histogram.add(report.diagnostics)
        assert (histogram.total, histogram.accepted, histogram.rejected) == (4, 3, 1)
        assert [r.outcome for r in reports].count("rejected") == 1
        assert [r.doc_id for r in reports] == sorted(r.doc_id for r in reports)

    def test_multi_block_reports_in_block_order(self, tmp_path):
        # Sorting ids as strings would put f.pem#10 before f.pem#2.
        path = tmp_path / "f.pem"
        path.write_text("".join(pem_of(certs.base_cert()) for _ in range(12)))
        (tmp_path / "e.der").write_bytes(certs.base_cert())
        reports = list(run_batch([str(path), str(tmp_path / "e.der")]))
        assert [r.doc_id for r in reports] == [str(tmp_path / "e.der")] + [f"{path}#{k}" for k in range(1, 13)]

    def test_missing_path_recorded_not_raised(self, tmp_path):
        (tmp_path / "a.der").write_bytes(certs.base_cert())
        (tmp_path / "c.der").write_bytes(certs.base_cert())
        paths = [str(tmp_path / name) for name in ("c.der", "b.der", "a.der")]
        results = list(run_batch(paths))
        assert results[1] == (paths[1], "no such file or directory")
        assert [r.doc_id for r in (results[0], results[2])] == [paths[2], paths[0]]

    def test_reports_stream_one_file_at_a_time(self, tmp_path):
        a, b = tmp_path / "a.der", tmp_path / "b.der"
        a.write_bytes(certs.base_cert())
        b.write_bytes(certs.base_cert())
        results = run_batch([str(a), str(b)])
        first = next(results)
        assert first.doc_id == str(a) and first.outcome == "accepted"
        # b is opened only when its report is asked for.
        b.unlink()
        assert list(results) == [(str(b), "no such file or directory")]

    def test_unlistable_directory_recorded_in_path_order(self, tmp_path, monkeypatch):
        # The tests run as root, so chmod cannot make a directory unlistable; os.walk lists through os.scandir.
        root = self.write_tree(tmp_path)
        (root / "z.der").write_bytes(certs.base_cert())
        unlistable = set()
        real_scandir = os.scandir

        def scandir(path="."):
            if os.fspath(path) in unlistable:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(path))
            return real_scandir(path)

        monkeypatch.setattr(os, "scandir", scandir)
        denied = f"[Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: "
        sub = str(root / "sub")
        unlistable.add(sub)
        results = [r if isinstance(r, tuple) else r.doc_id for r in run_batch([str(root)])]
        assert results == [str(root / "bad.der"), str(root / "good.der"), (sub, f"{denied}{sub!r}"), str(root / "z.der")]
        # The top directory itself.
        unlistable.clear()
        unlistable.add(str(root))
        assert list(run_batch([str(root)])) == [(str(root), f"{denied}{str(root)!r}")]
