"""The sources parse as Python 3.10, the oldest version ``pyproject.toml``
declares.  This checks syntax only; standard-library use is not checked."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src", "tests", "bench")
                 for path in (ROOT / folder).rglob("*.py"))


def test_requires_python_is_three_ten():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^requires-python = ">=3\.10"$', text, re.M)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
