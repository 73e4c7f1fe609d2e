"""The suite's warning settings: a failing property test is reported like any
other failure, and every other warning still fails the test that raises it."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = (
    "import warnings\n\n"
    "from hypothesis import given, strategies as st\n\n\n"
    "@given(st.integers())\n"
    "def test_fails(x):\n"
    "    assert x < 0\n\n\n"
    "def test_other_deprecation():\n"
    "    warnings.warn('typing.ByteString is deprecated', DeprecationWarning)\n\n\n"
    "def test_same_message_other_category():\n"
    "    warnings.warn('mypy_extensions.TypedDict is deprecated', UserWarning)\n\n\n"
    "def test_passes():\n"
    "    pass\n"
)


@pytest.fixture(scope="module")
def probe_output(tmp_path_factory):
    """Output of one fresh pytest under the suite's settings on PROBE; both tests read it."""
    cwd = tmp_path_factory.mktemp("probe")
    (cwd / "test_probe.py").write_text(PROBE)
    done = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-q", "-rA", "-p", "no:cacheprovider",
                           "test_probe.py"], cwd=cwd, capture_output=True, text=True, timeout=300)
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out
    assert "3 failed, 1 passed" in out, out
    return out


def assert_outcome(out, outcome, name):
    assert re.search(rf"^{outcome} \S+::{name}\b", out, re.MULTILINE), (name, out)


def test_failing_property_test_ends_no_session(probe_output):
    # Hypothesis's failure report touches mypy_extensions.TypedDict where that
    # is installed; the session must go on to the passing test after it
    assert_outcome(probe_output, "FAILED", "test_fails")
    assert_outcome(probe_output, "PASSED", "test_passes")


def test_other_warnings_stay_errors(probe_output):
    # the ignored warning is one message of one category; another deprecation,
    # or the same message as another category, still fails its test
    assert_outcome(probe_output, "FAILED", "test_other_deprecation")
    assert_outcome(probe_output, "FAILED", "test_same_message_other_category")
