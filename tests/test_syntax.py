"""The sources parse as Python 3.10, the oldest version ``pyproject.toml``
declares, and compile on the running interpreter with every warning an
error, so a ``SyntaxWarning`` (an invalid escape such as ``"\\d"``) fails
here instead of only being printed.  Standard-library use is not checked,
except that no module of the package imports ``dataclasses``."""

import ast
import re
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src", "tests", "bench")
                 for path in (ROOT / folder).rglob("*.py"))
SOURCE_IDS = [str(path.relative_to(ROOT)) for path in SOURCES]


def test_requires_python_is_three_ten():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^requires-python = ">=3\.10"$', text, re.M)


@pytest.mark.parametrize("path", SOURCES, ids=SOURCE_IDS)
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=SOURCE_IDS)
def test_compiles_with_warnings_as_errors(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec", dont_inherit=True)


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_package_does_not_import_dataclasses(path):
    # a dataclass generates and execs its methods' source at import, and
    # dataclasses loads inspect, ast and dis: records here are tuples
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.add(node.module)
    assert "dataclasses" not in {name.partition(".")[0] for name in imported}


def test_every_private_name_of_the_package_is_used_in_the_package():
    # a private helper kept alive only by a test is dead code: every function,
    # class and module-level name with one leading underscore must be loaded
    # in src/younglat, as a name or as an attribute
    defined, loaded = set(), set()
    for path in (ROOT / "src" / "younglat").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t)
                               if isinstance(n, ast.Name))
    private = {name for name in defined if re.fullmatch(r"_[^_]\w*", name)}
    assert private and not private - loaded, sorted(private - loaded)
