"""One output on every interpreter: the golden lock and the CLI's error cases under each CPython >= 3.10.

For each CPython 3.10 or later that pyenv has installed ($PYENV_ROOT/versions, or ~/.pyenv/versions), this
script runs two checks, one process at a time:

* golden_corpus.render() against tests/data/golden_lint.jsonl;
* `derlint lint` and `derlint diff` on the error cases of tests/test_cli.py, a byte-order mark and a NUL in an
  outcome label, and `derlint lint` on a directory of 400 files, which a host with two or more CPUs lints in
  forked workers; each compares stdout, stderr and exit status with the reference interpreter's (3.11.7, or
  the oldest found when it is not installed).

Each case runs as `python -m derlint.cli ...` in a fresh directory holding its input files under relative names,
so no message carries a temporary path.  Two kinds of test_cli case are left out: the unlistable directory needs
a patched os.scandir, and the closed-stdout cases a reader that closes its pipe.  An interpreter that is not
installed is skipped; nothing is installed or downloaded.  Run from the repository root:

    python3 experiments/interpreters.py

It prints one line per interpreter and each case that differs, and exits 1 when anything differs.
"""

from __future__ import annotations

import base64
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = "3.11.7"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from support import certs  # noqa: E402

HEADER = "chain_id,leaf_cert_id,validator_id,outcome_label"
GOOD = certs.base_cert()
BAD = GOOD + b"\x00"
ROWS = [f"root>l{i},l{i},openssl,Expired" for i in range(3000)]
REPORT_LINES = [f'{{"id": "leaf{i}", "diagnostics": []}}' for i in range(3000)]
RECORDS = f"{HEADER}\nroot,root,openssl,VALID\nroot>leaf,leaf,openssl,Expired\norphan>leaf2,leaf2,gnutls,Expired\n"


def _text(value: str) -> bytes:
    return value.encode("utf-8")


def _pem(*ders: bytes) -> bytes:
    blocks = (textwrap.fill(base64.b64encode(der).decode("ascii"), width=64) for der in ders)
    return "".join(f"-----BEGIN CERTIFICATE-----\n{b64}\n-----END CERTIFICATE-----\n" for b64 in blocks).encode()


# Enough files for `derlint lint` to fork (cli.FORK_CHUNKS chunks of cli.CHUNK_FILES) on a host with two or more
# CPUs: DER, PEM and multi-block PEM files, accepted and rejected.
BATCH = {f"batch/{i:03d}.{('der', 'der', 'pem', 'pem')[i % 4]}": (GOOD, BAD, _pem(GOOD), _pem(GOOD, BAD))[i % 4]
         for i in range(400)}


# name -> (arguments, files).  A file's value is its content, or a str naming the target of a symbolic link.
CASES: dict[str, tuple[list[str], dict[str, bytes | str]]] = {
    "lint-rejected-file": (["lint", "--no-timing", "bad.der"], {"bad.der": BAD}),
    "lint-missing-file": (["lint", "absent.der"], {}),
    "lint-io-error-outranks-rejection": (["lint", "--no-timing", "bad.der", "absent.der"], {"bad.der": BAD}),
    "lint-symlink-loop": (["lint", "--no-timing", "tree"], {"tree/good.der": GOOD, "tree/a": "b", "tree/b": "a"}),
    "lint-max-size-zero": (["lint", "--max-size", "0", "good.der"], {"good.der": GOOD}),
    "lint-unreadable-registry": (["lint", "--registry", "nope.txt", "good.der"], {"good.der": GOOD}),
    "lint-malformed-registry": (
        ["lint", "--registry", "bad.txt", "good.der"],
        {"good.der": GOOD, "bad.txt": b"1.2.3 ; signature ; null\n# again\n1.2.3 ; signature ; absent\n"},
    ),
    "lint-registry-curve-width": (
        ["lint", "--registry", "bad.txt", "good.der"],
        {"good.der": GOOD, "bad.txt": _text("1.2.3 ; signature ; null\n1.2.3 ; curve ; point-\u00b3\u00b2\n")},
    ),
    "lint-registry-oid-text": (
        ["lint", "--registry", "bad.txt", "good.der"],
        {"good.der": GOOD, "bad.txt": b"1.2.840.10045.4.3.02 ; signature ; null\n"},
    ),
    "lint-registry-oid-round-trip": (
        ["lint", "--registry", "bad.txt", "good.der"],
        {"good.der": GOOD, "bad.txt": b"1.2.3 ; signature ; null\n1.50.3 ; signature ; null\n"},
    ),
    "lint-jobs-option": (["lint", "--jobs", "2", "good.der"], {"good.der": GOOD}),
    "lint-forked-batch-json": (["lint", "--no-timing", "batch"], BATCH),
    "lint-forked-batch-text": (["lint", "--no-timing", "--report", "text", "batch"], BATCH),
    "lint-unknown-format": (["lint", "--format", "xml", "good.der"], {"good.der": GOOD}),
    "diff-missing-records": (["diff", "--records", "nope.csv"], {}),
    "diff-records-required": (["diff"], {}),
    "diff-malformed-header": (["diff", "--records", "r.csv"], {"r.csv": b"who,what\n"}),
    "diff-duplicate": (["diff", "--records", "r.csv"], {"r.csv": _text(f"{HEADER}\nroot,root,openssl,VALID\n" * 2)}),
    "diff-malformed-chain-id": (
        ["diff", "--records", "r.csv"],
        {"r.csv": _text(f"{HEADER}\nroot,root,openssl,VALID\n\nroot>>leaf,leaf,openssl,VALID\n")},
    ),
    "diff-bad-row-far-into-the-table": (
        ["diff", "--records", "r.csv"],
        {"r.csv": _text("\n".join([HEADER, "root,root,openssl,VALID", *ROWS, "root>x,x,openssl", *ROWS[:5]]))},
    ),
    "diff-field-limit": (
        ["diff", "--records", "r.csv"],
        {"r.csv": _text(f"{HEADER}\nroot,root,openssl,VALID\nroot>x,x,openssl,{'x' * 131073}\n")},
    ),
    "diff-nul-in-label": (["diff", "--records", "r.csv"], {"r.csv": _text(f"{HEADER}\nroot,root,openssl,VA\x00LID\n")}),
    "diff-lone-carriage-return": (
        ["diff", "--records", "r.csv"],
        {"r.csv": _text(f"{HEADER}\nroot,root,openssl,VALID\rroot>x,x,openssl,Ex\n")},
    ),
    "diff-duplicate-before-malformed-row": (
        ["diff", "--records", "r.csv"],
        {"r.csv": _text(f"{HEADER}\nroot,root,openssl,VALID\nroot,root,openssl,Ex\nroot>>x,x,openssl,VALID\n")},
    ),
    "diff-bad-report-line-far-into-the-file": (
        ["diff", "--records", "r.csv", "--reports", "l.jsonl"],
        {"r.csv": _text(RECORDS), "l.jsonl": _text("\n".join([*REPORT_LINES, "{broken", *REPORT_LINES[:5]]) + "\n")},
    ),
    "diff-byte-order-mark": (
        ["diff", "--records", "r.csv"],
        {"r.csv": RECORDS.encode("utf-8-sig")},
    ),
}
for n, line in enumerate(['not json', '{"id": "a", "diagnostics": [1]}', '{"id": "a", "diagnostics": 5}',
                          '{"id": ["a"], "diagnostics": []}']):
    CASES[f"diff-bad-reports-{n}"] = (
        ["diff", "--records", "r.csv", "--reports", "l.jsonl"], {"r.csv": _text(RECORDS), "l.jsonl": _text(line + "\n")}
    )

GOLDEN_CHECK = """
import golden_corpus
got, want = golden_corpus.render().splitlines(), golden_corpus.GOLDEN_PATH.read_text().splitlines()
first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
print("same" if got == want else f"differs at line {first + 1 if first is not None else min(len(got), len(want)) + 1}")
"""


def interpreters() -> dict[str, Path]:
    """version -> python3 of each pyenv CPython 3.10 or later, in version order."""
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")).expanduser() / "versions"
    found = {}
    for path in versions.glob("3.*"):
        match = re.fullmatch(r"3\.(\d+)\.(\d+)", path.name)
        if match and int(match[1]) >= 10 and (path / "bin" / "python3").exists():
            found[path.name] = path / "bin" / "python3"
    return dict(sorted(found.items(), key=lambda item: tuple(map(int, item[0].split(".")))))


def _environment(*paths: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    return {**env, "PYTHONPATH": os.pathsep.join(map(str, paths)), "PYTHONDONTWRITEBYTECODE": "1"}


def run_case(python: Path, argv: list[str], files: dict[str, bytes | str]) -> tuple[bytes, bytes, int]:
    with tempfile.TemporaryDirectory() as work:
        for name, content in files.items():
            path = Path(work, name)
            path.parent.mkdir(parents=True, exist_ok=True)
            if isinstance(content, str):
                path.symlink_to(content)
            else:
                path.write_bytes(content)
        proc = subprocess.run(
            [str(python), "-m", "derlint.cli", *argv],
            cwd=work, env=_environment(ROOT / "src"), capture_output=True, timeout=600,
        )
    return proc.stdout, proc.stderr, proc.returncode


def golden(python: Path) -> str:
    proc = subprocess.run(
        [str(python), "-c", GOLDEN_CHECK], cwd=ROOT, env=_environment(ROOT / "src", ROOT / "tests"),
        capture_output=True, text=True, timeout=600,
    )
    return proc.stdout.strip() if proc.returncode == 0 else f"failed: {proc.stderr.strip().splitlines()[-1]}"


def main() -> int:
    found = interpreters()
    reference = REFERENCE if REFERENCE in found else next(iter(found), None)
    if reference is None:
        print("no pyenv CPython 3.10 or later found", file=sys.stderr)
        return 2
    expected = {name: run_case(found[reference], *case) for name, case in CASES.items()}
    differs = False
    for version, python in found.items():
        result = golden(python)
        wrong = []
        for name, case in CASES.items():
            got = run_case(python, *case)
            pairs = zip(("stdout", "stderr", "exit status"), got, expected[name])
            streams = [stream for stream, here, there in pairs if here != there]
            if streams:
                wrong.append(f"  {name}: {', '.join(streams)} differ; stderr here {got[1][-200:]!r}")
        same = len(CASES) - len(wrong)
        print(f"{version}: golden {result}; cli {same} of {len(CASES)} cases as on {reference}")
        for line in wrong:
            print(line)
        differs = differs or result != "same" or bool(wrong)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
