"""The package loads only what a caller uses.

`derlint diff` must not import the lint stack, and neither `lint_bytes`
nor `derlint lint` may import the differential analyzer.  Each check runs in a fresh interpreter,
since this test process has long since imported every module.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import derlint
from support import certs

SRC = str(Path(derlint.__file__).resolve().parent.parent)
LINT_STACK = ("der", "ingest", "grammar", "extensions", "names", "values", "matchers", "registry")


def run_fresh(code: str, *args: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded(stdout: str) -> set[str]:
    return set(stdout.split())


def test_diff_leaves_the_lint_stack_unloaded(tmp_path):
    records = tmp_path / "records.csv"
    records.write_text("chain_id,leaf_cert_id,validator_id,outcome_label\nroot,root,openssl,VALID\n")
    reports = tmp_path / "reports.jsonl"
    reports.write_text('{"id": "root", "diagnostics": [{"code": "TRAILING_BYTES"}]}\n')
    code = (
        "import io, sys, contextlib, derlint.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = derlint.cli.main(['diff', '--records', sys.argv[1], '--reports', sys.argv[2]])\n"
        "assert status == 0, status\n"
        "print(*sys.modules)\n"
    )
    modules = loaded(run_fresh(code, str(records), str(reports)))
    assert "derlint.differential" in modules
    assert {f"derlint.{name}" for name in LINT_STACK} & modules == set()


def test_lint_bytes_leaves_the_analyzer_unloaded(tmp_path):
    cert = tmp_path / "cert.der"
    cert.write_bytes(certs.base_cert())
    code = (
        "import sys, derlint\n"
        "with open(sys.argv[1], 'rb') as fh:\n"
        "    assert derlint.lint_bytes(fh.read()).outcome == 'accepted'\n"
        "print(*sys.modules)\n"
    )
    modules = loaded(run_fresh(code, str(cert)))
    assert "derlint.grammar" in modules
    assert "derlint.differential" not in modules


def test_lint_command_leaves_the_analyzer_unloaded(tmp_path):
    cert = tmp_path / "cert.der"
    cert.write_bytes(certs.base_cert())
    code = (
        "import io, sys, contextlib, derlint.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = derlint.cli.main(['lint', sys.argv[1]])\n"
        "assert status == 0, status\n"
        "print(*sys.modules)\n"
    )
    modules = loaded(run_fresh(code, str(cert)))
    assert "derlint.grammar" in modules
    assert {"derlint.differential", "csv"} & modules == set()


def test_star_import_binds_each_name_to_its_home_module():
    code = (
        "import importlib, derlint\n"
        "from derlint import *\n"
        "names = dict(globals())\n"
        "for name in derlint.__all__:\n"
        "    home = importlib.import_module('derlint.' + derlint._HOME[name])\n"
        "    assert names[name] is getattr(home, name) is getattr(derlint, name), name\n"
        "print('ok')\n"
    )
    assert run_fresh(code) == "ok\n"


def test_dir_lists_every_exported_name():
    names = run_fresh("import derlint\nprint(*dir(derlint))\n").split()
    assert set(derlint.__all__) <= set(names)
    assert "__version__" in names and names == sorted(names)


@pytest.mark.parametrize("module", ["derlint", "derlint.cli"])
def test_unknown_attribute_raises_the_usual_error(module):
    code = (
        f"import {module} as m\n"
        "try:\n"
        "    m.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert run_fresh(code) == f"module '{module}' has no attribute 'no_such_name'\n"


def test_cli_resolves_the_analyzer_names_on_first_access():
    code = (
        "import sys, derlint.cli\n"
        "assert 'derlint.differential' not in sys.modules\n"
        "import derlint.differential as differential\n"
        "for name in ('analyze', 'cross_tabulate', 'load_report_lines', 'read_records', 'write_report'):\n"
        "    assert getattr(derlint.cli, name) is getattr(differential, name) is vars(derlint.cli)[name], name\n"
        "print('ok')\n"
    )
    assert run_fresh(code) == "ok\n"


def test_cli_resolves_the_ingest_names_on_first_access():
    code = (
        "import sys, derlint.cli\n"
        "assert 'derlint.ingest' not in sys.modules\n"
        "import derlint.ingest as ingest\n"
        "for name in ('lint', 'load_input', 'run_batch'):\n"
        "    assert getattr(derlint.cli, name) is getattr(ingest, name) is vars(derlint.cli)[name], name\n"
        "print('ok')\n"
    )
    assert run_fresh(code) == "ok\n"
