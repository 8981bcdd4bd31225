import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def test_the_source_tree_is_found():
    assert ROOT / "src" / "deltachain" / "symbolic.py" in SOURCES
    assert Path(__file__).resolve() in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_every_source_file_parses_as_python_3_10(path):
    """Grammar only: the file parses with the Python 3.10 grammar, the
    oldest version pyproject.toml allows.  It is not imported or run, so
    a 3.11-only library call or a behaviour difference between versions is
    not caught here."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
