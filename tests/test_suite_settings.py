"""The suite's own pytest settings, checked in a child pytest session.

``pyproject.toml`` turns every warning into an error.  A failing
``hypothesis`` property must still be reported as one failure, with the
session going on to the next test, rather than abort the session with
``INTERNALERROR`` (exit 3): on failure, hypothesis's report hook imports
``libcst``, whose import of ``mypy_extensions`` raises a DeprecationWarning.
"""

import re
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROPERTY_MODULE = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None, deadline=None)
@given(st.integers())
def test_failing_property(x):
    assert x < 10


def test_after_the_property():
    pass
'''


def test_failing_property_is_reported_not_internal_error(tmp_path):
    (tmp_path / "test_property.py").write_text(PROPERTY_MODULE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert proc.returncode == 1, out
    assert re.search(r"\b1 failed, 1 passed\b", out), out
