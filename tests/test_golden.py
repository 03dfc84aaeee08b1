"""Every command's files on the benchmark's tiny inputs against tests/data/golden/.

Ids, cluster codes, merge order, headers, counts, survivors and elimination
order must match exactly everywhere. Where numpy's version and the machine
are those recorded with the files, every file must match byte for byte;
elsewhere BLAS kernels may round differently, so float cells are held to
`REL_TOL`. `tests/_golden.py` says how to rewrite the files.
"""
import csv
import io
import json
import math

import pytest

import _golden
from _golden import ENVIRONMENT, GOLDEN

# A bound for rounding between environments. The files have been compared
# on one environment only, so it is a choice, not a measurement.
REL_TOL, ABS_TOL = 1e-9, 1e-12
SAME_ENVIRONMENT = (json.loads((GOLDEN / ENVIRONMENT).read_text(encoding="utf-8"))
                    == _golden.environment())
NAMES = sorted(path.name for path in GOLDEN.iterdir() if path.name != ENVIRONMENT)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    out = root / "out"
    _golden.run_all(_golden.tiny_inputs(root), GOLDEN / "plot_losses.csv", out)
    return out


def parse(name: str, data: bytes):
    """A JSON file's value, or a CSV file's rows with float cells as floats."""
    text = data.decode("utf-8")
    if name.endswith(".json"):
        return json.loads(text)
    return [[_cell(cell) for cell in row] for row in csv.reader(io.StringIO(text, newline=""))]


def _cell(text: str) -> str | float:
    """A cell written as `repr(float)`, else the text itself: an id, a code,
    a year or a count stays a string and is compared exactly."""
    if not any(c in text for c in ".en"):
        return text
    try:
        return float(text)
    except ValueError:
        return text


def assert_matches(got, want, where: str) -> None:
    """Equal structure and non-float values; floats within the bound."""
    if isinstance(want, float):
        assert isinstance(got, float) and (
            math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
            or math.isnan(got) and math.isnan(want)), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{where}: keys differ"
        for key, value in want.items():
            assert_matches(got[key], value, f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def test_every_command_writes_the_golden_files(outputs):
    assert sorted(path.name for path in outputs.iterdir()) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_file_matches_golden(outputs, name):
    got, want = (outputs / name).read_bytes(), (GOLDEN / name).read_bytes()
    assert_matches(parse(name, got), parse(name, want), name)
    if SAME_ENVIRONMENT:
        assert got == want


_JSON = '{"ids": ["a", "b"], "codes": [1, 2], "heights": [0.5]}'
_CSV = "country,cluster,value\r\nU1,1,0.25\r\n"


@pytest.mark.parametrize("name, want, got, matches", [
    ("f.json", _JSON, _JSON.replace("0.5", "0.5000000000001"), True),
    ("f.json", _JSON, _JSON.replace("0.5", "0.5001"), False),
    ("f.json", _JSON, _JSON.replace("[1, 2]", "[2, 1]"), False),
    ("f.json", _JSON, _JSON.replace('["a", "b"]', '["b", "a"]'), False),
    ("f.json", _JSON, _JSON.replace("[1, 2]", "[1.0, 2]"), False),
    ("f.csv", _CSV, _CSV.replace("0.25", "0.25000000000000006"), True),
    ("f.csv", _CSV, _CSV.replace("0.25", "0.26"), False),
    ("f.csv", _CSV, _CSV.replace("U1,1", "U1,2"), False),
    ("f.csv", _CSV, _CSV.replace("U1", "U2"), False),
    ("f.csv", _CSV, _CSV.replace("cluster", "code"), False),
], ids=["json-rounding", "json-float", "json-code", "json-id-order", "json-int-as-float",
        "csv-rounding", "csv-float", "csv-code", "csv-id", "csv-header"])
def test_bound_admits_rounding_only(name, want, got, matches):
    def check():
        assert_matches(parse(name, got.encode()), parse(name, want.encode()), name)
    if matches:
        check()
    else:
        with pytest.raises(AssertionError):
            check()
