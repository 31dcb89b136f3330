"""Shared helpers for the tests that start the command-line program or a fresh
interpreter as a child process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gradsens

# The directory the imported package lives in: ``src`` in a checkout run with
# PYTHONPATH=src or under an editable install, site-packages under a plain one.
# Absolute, so the child finds the same code from whatever directory it runs in.
PACKAGE_ROOT = str(Path(gradsens.__file__).resolve().parent.parent)

# A child run takes a few seconds; one that hangs fails its test instead of the suite.
CLI_TIMEOUT_S = 300


def _run_python(args, cwd, env=None):
    full = dict(os.environ)
    if env:
        full.update(env)
    inherited = full.get("PYTHONPATH")
    full["PYTHONPATH"] = PACKAGE_ROOT + (os.pathsep + inherited if inherited else "")
    try:
        return subprocess.run([sys.executable, *args],
                              capture_output=True, text=True, cwd=cwd, env=full,
                              timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        # TimeoutExpired holds the output captured so far as bytes, even with text=True.
        stderr = (exc.stderr or b"").decode(errors="replace")
        pytest.fail(f"python {' '.join(args)} did not finish in {CLI_TIMEOUT_S} s; "
                    f"stderr:\n{stderr}")


@pytest.fixture
def run_cli():
    """``run_cli(args, cwd, env=None)`` runs ``python -m gradsens *args`` in ``cwd``.

    ``env`` adds to or overrides the inherited environment.  Relative paths in
    ``args`` resolve against ``cwd``.  Returns the ``CompletedProcess`` with text
    stdout and stderr.
    """
    return lambda args, cwd, env=None: _run_python(["-m", "gradsens", *args], cwd, env)


@pytest.fixture
def run_python():
    """``run_python(args, cwd, env=None)`` runs a fresh ``python *args`` in ``cwd``,
    as ``run_cli`` does: the child imports nothing the test process has loaded."""
    return _run_python
