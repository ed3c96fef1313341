"""The pytest settings of ``pyproject.toml`` report every test: a failing
property test is reported as a failure, and the tests after it still run.
The ``test`` extra names the tier-1 workflow's pinned toolchain."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_hides_no_later_test(tmp_path):
    # filterwarnings makes every warning an error, also one raised inside a
    # plugin's report hook: hypothesis reporting a failure touches
    # mypy_extensions.TypedDict, deprecated from mypy_extensions 1.1, and
    # that error once stopped the run with INTERNALERROR before test_passes
    (tmp_path / "test_two.py").write_text(TWO_TESTS, encoding="utf-8")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(ROOT / "pyproject.toml"), "test_two.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout


def test_the_test_extra_pins_what_tier1_installs():
    # read as text: tomllib is not in Python 3.10
    extra = re.search(r"^test = \[(.*)\]", (ROOT / "pyproject.toml").read_text(encoding="utf-8"),
                      re.M)
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    install = re.search(r"pip install (.*)$", workflow, re.M)
    assert extra and install
    assert sorted(re.findall(r'"([^"]*)"', extra.group(1))) == sorted(install.group(1).split())
