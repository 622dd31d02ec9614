"""The pytest configuration in ``pyproject.toml``: under ``filterwarnings =
error``, a failing property test must count as one failure, not abort the run."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_is_one_failure(tmp_path):
    # on a failure hypothesis' plugin imports libcst, whose import warns on
    # mypy_extensions.TypedDict; as an error that was an INTERNALERROR (exit
    # 3), and no later test file ran. Without libcst this passes either way
    test = tmp_path / "test_property.py"
    test.write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_negative(x):\n"
        "    assert x < 0\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         str(test)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "INTERNALERROR" not in output
