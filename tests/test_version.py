"""The package reports the version its build metadata declares."""
from pathlib import Path

import pytest

import starclust


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        declared = tomllib.load(fh)["project"]["version"]
    assert starclust.__version__ == declared
