"""The suite's warning settings: a failing property test is reported like any
other failure, and every other warning still fails the test that raises it."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_probe(tmp_path, source):
    """Summary and output of a fresh pytest under the suite's settings on one file."""
    (tmp_path / "test_probe.py").write_text(source)
    done = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-q", "-p", "no:cacheprovider",
                           "test_probe.py"], cwd=tmp_path, capture_output=True, text=True, timeout=300)
    return done.stdout + done.stderr


def test_failing_property_test_ends_no_session(tmp_path):
    # Hypothesis's failure report touches mypy_extensions.TypedDict where that
    # is installed; the session must go on to the passing test after it
    out = run_probe(tmp_path, (
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n"))
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out, out


def test_other_warnings_stay_errors(tmp_path):
    # the ignored warning is one message of one category; another deprecation,
    # or the same message as another category, still fails its test
    out = run_probe(tmp_path, (
        "import warnings\n\n\n"
        "def test_other_deprecation():\n"
        "    warnings.warn('typing.ByteString is deprecated', DeprecationWarning)\n\n\n"
        "def test_same_message_other_category():\n"
        "    warnings.warn('mypy_extensions.TypedDict is deprecated', UserWarning)\n\n\n"
        "def test_passes():\n"
        "    pass\n"))
    assert "INTERNALERROR" not in out
    assert "2 failed, 1 passed" in out, out
