"""Source guards: every line of the package fits in 120 columns, and the
export list holds only names the package has.

Line counts are how refactors of src/derlint are compared, so a count must
not be lowered by joining lines past the width the code is wrapped at.
"""

from pathlib import Path

import derlint

MAX_COLUMNS = 120


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
    assert len(derlint.__all__) == len(set(derlint.__all__))
