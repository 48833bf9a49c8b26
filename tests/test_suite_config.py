"""The suite's own pytest configuration (pyproject's filterwarnings), run
on small test files in a child pytest: a failing test fails alone, and a
socket a test leaves open fails that test."""

import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

HYPOTHESIS_FAILS = '''
from hypothesis import given, strategies as st

@given(st.integers(0, 100))
def test_fails(x):
    assert x < 10

def test_passes():
    pass
'''

SOCKET_LEAKS = '''
import gc
import socket

def test_leaks():
    a, b = socket.socketpair()
    del a, b
    gc.collect()

def test_passes():
    pass
'''


@pytest.mark.parametrize("source", [HYPOTHESIS_FAILS, SOCKET_LEAKS],
                         ids=["hypothesis-failure", "socket-leak"])
def test_one_failure_leaves_the_rest_of_the_run(tmp_path, source):
    # a failing @given test makes hypothesis import libcst to print a
    # patch, and libcst's DeprecationWarning must not stop the run with
    # an internal error; a leaked socket must fail its own test
    (tmp_path / "test_sample.py").write_text(source)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout[-2000:]
