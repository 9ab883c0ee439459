"""Integration: every shipped example runs green and prints its recorded output.

Each example's stdout is committed under ``examples/expected/``.  After a
change that alters an example's output on purpose, regenerate it with
``PYTHONPATH=src python examples/<name>.py > examples/expected/<name>.txt``.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"
EXPECTED_DIR = EXAMPLES_DIR / "expected"

EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def test_examples_are_present():
    assert "quickstart.py" in EXAMPLES
    assert len(EXAMPLES) >= 4  # quickstart + >=3 domain scenarios


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_runs_clean(example):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / example)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, (
        f"{example} failed:\nstdout:\n{result.stdout}\nstderr:\n{result.stderr}"
    )
    expected = (EXPECTED_DIR / example).with_suffix(".txt").read_text()
    assert result.stdout == expected
