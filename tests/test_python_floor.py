"""Every source file parses under the oldest grammar the package supports.

``pyproject.toml`` declares ``requires-python >= 3.10``.  This checks
grammar only: ``ast.parse(..., feature_version=(3, 10))`` rejects syntax
that 3.10 lacks, such as ``except*``, but not a call to a library function
added later or behaviour that changed between versions.
"""

import ast
from pathlib import Path

import pytest

FLOOR = (3, 10)
ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py"))


def test_sources_are_found():
    names = {p.relative_to(ROOT).as_posix() for p in SOURCES}
    assert {"src/dtlab/closure.py", "tests/test_python_floor.py", "perfbench/run.py"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_source_parses_under_the_floor_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)


def test_newer_syntax_is_rejected_under_the_floor():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)
