"""The pytest settings in pyproject.toml: every warning is an error, yet a
failing hypothesis property is reported with its falsifying example, and a
test that never returns ends the run with a failure."""

import subprocess
import sys
import textwrap
import time
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _run_pytest(tmp_path, source, *options):
    """Run pytest under the project's settings, with ``options`` added, on
    one test file made of ``source``; return the exit code and the whole
    output."""
    (tmp_path / "test_probe.py").write_text(textwrap.dedent(source))
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), *options,
            "test_probe.py",
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


def test_every_test_runs_under_a_time_limit(tmp_path):
    # well above the slowest test, which takes about 5 s
    code, out = _run_pytest(
        tmp_path,
        """
        def test_limit(pytestconfig):
            assert float(pytestconfig.getini("faulthandler_timeout")) >= 60
            assert pytestconfig.getini("faulthandler_exit_on_timeout") is True
        """,
    )
    assert code == 0, out


def test_a_test_that_never_returns_fails(tmp_path):
    # the project's limit, shortened so that the probe ends soon: the run
    # stops with a traceback of the looping test, and the tests after it
    # do not run
    start = time.monotonic()
    code, out = _run_pytest(
        tmp_path,
        """
        def test_never_returns():
            while True:
                pass

        def test_after():
            pass
        """,
        "-o", "faulthandler_timeout=1",
    )
    assert code == 1, out
    assert "Timeout (0:00:01)!" in out
    assert "in test_never_returns\n" in out
    assert "passed" not in out
    assert time.monotonic() - start < 60
