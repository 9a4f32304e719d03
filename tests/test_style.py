"""Source guards: every line of the package fits in 120 columns, the
export list holds only names the package has, and no module reads the
environment or rebinds a module global.

Line counts are how refactors of src/derlint are compared, so a count must
not be lowered by joining lines past the width the code is wrapped at.
A verdict must be a function of the input octets and the registry passed
in; an environment read or a global set at run time would add a hidden input.
"""

import ast
from pathlib import Path

import derlint

MAX_COLUMNS = 120
ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def test_no_source_line_is_wider_than_120_columns():
    package = Path(derlint.__file__).parent
    wide = [
        f"{path.relative_to(package)}:{number} ({len(line)} columns)"
        for path in sorted(package.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_COLUMNS
    ]
    assert wide == []


def test_every_exported_name_resolves_once():
    missing = [name for name in derlint.__all__ if not hasattr(derlint, name)]
    assert missing == []
    listed = [name for names in derlint._EXPORTS.values() for name in names.split()]
    assert sorted(listed) == derlint.__all__


def test_no_module_reads_the_environment_or_rebinds_a_global():
    package = Path(derlint.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Global):
                found.append(f"{path.relative_to(package)}:{node.lineno} global")
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name in ENVIRONMENT_NAMES:
                found.append(f"{path.relative_to(package)}:{getattr(node, 'lineno', '?')} {name}")
    assert found == []
