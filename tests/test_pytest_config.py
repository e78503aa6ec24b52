"""The pytest settings in pyproject.toml: every warning is an error, yet a
failing hypothesis property is reported with its falsifying example."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _run_pytest(tmp_path, source):
    """Run pytest under the project's settings on one test file made of
    ``source``; return the exit code and the whole output."""
    (tmp_path / "test_probe.py").write_text(textwrap.dedent(source))
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return done.returncode, done.stdout + done.stderr


def test_a_failing_property_is_reported(tmp_path):
    code, out = _run_pytest(
        tmp_path,
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_below_five(n):
            assert n < 5
        """,
    )
    assert code == 1, out
    assert "Falsifying example: test_below_five(" in out
    assert "INTERNALERROR" not in out and "1 failed" in out


def test_a_deprecation_warning_still_fails_the_run(tmp_path):
    code, out = _run_pytest(
        tmp_path,
        """
        import warnings

        def test_warns():
            warnings.warn("old", DeprecationWarning)
        """,
    )
    assert code == 1, out
    assert "DeprecationWarning: old" in out and "1 failed" in out
