"""Shared fixtures for the latin3 tests."""

import os
from pathlib import Path

import pytest

import latin3


@pytest.fixture
def latin3_env():
    """Environment for a subprocess that must import the latin3 this test
    run imported, whether or not the package is installed."""
    env = dict(os.environ)
    src = str(Path(latin3.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
