"""Panel loading, validation, writing, adjacency, zones, and splitting."""
from __future__ import annotations

import csv
import gc
import io
import re
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starclust import (TemperaturePanel, ValidationError, attach_zones,
                       load_adjacency, load_panel, split_panel)
from starclust import panel as panel_module
from starclust.cli import _read_losses_csv, main

from _oracles import load_panel_rows
from conftest import make_panel, write_panel


def write_csv(path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_wide(panel: TemperaturePanel, path) -> str:
    """A panel's temperatures in the wide layout, one row per country and one
    column per year, which `load_panel` refuses."""
    lines = [",".join(["country", *map(str, panel.years)])]
    lines += [",".join([cid, *map(repr, row.tolist())])
              for cid, row in zip(panel.ids, panel.values)]
    return write_csv(path, "".join(line + "\n" for line in lines))


_NO_LONG_HEADER = "panel header must hold country, year and temperature columns"
# How both passes and the row-by-row reader refuse a wide file, whatever its
# rows hold: its header lacks the long columns.
_WIDE_REFUSED = f"ValidationError: {_NO_LONG_HEADER}"


def zones_file(tmp_path, text: str) -> str:
    return write_csv(tmp_path / "z.csv", text)


class TestCountryMeta:
    """Country metadata is read from the zones file and checked there; only
    zones are kept. A panel CSV holds temperatures only."""

    def test_rejects_unknown_zone(self, toy_panel, tmp_path):
        message = (r"^unknown zone 'Atlantis' for country 'C00'; expected one of "
                   r"\['Africa', 'Asia', .*'South America'\]$")
        with pytest.raises(ValidationError, match=message):
            attach_zones(toy_panel, zones_file(tmp_path, "country,zone\nC00,Atlantis\n"))

    def test_rejects_negative_area(self, toy_panel, tmp_path):
        with pytest.raises(ValidationError, match="^negative land area for country 'C01'$"):
            attach_zones(toy_panel, zones_file(tmp_path, "country,zone,area\n"
                                                         "C00,Asia,3\nC01,Asia,-1.0\n"))

    def test_rejects_non_numeric_area(self, toy_panel, tmp_path):
        for area in ("large", "nan", "inf"):
            path = zones_file(tmp_path, f"country,zone,area\nC00,Asia,{area}\n")
            with pytest.raises(ValidationError,
                               match=f"^non-numeric area '{area}' for country 'C00'$"):
                attach_zones(toy_panel, path)

    def test_rejects_blank_id(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "country,year,temperature\n"
                         " ,2000,1.0\n ,2001,1.5\nB,2000,1.0\nB,2001,1.5\n")
        with pytest.raises(ValidationError, match="^country id must be a non-empty string$"):
            load_panel(path)

    def test_faults_reported_in_id_order(self, toy_panel, tmp_path):
        # C01 is first in the file, but C00 is checked first. Within a country
        # the area is parsed, then the zone checked, then the area's sign.
        path = zones_file(tmp_path, "country,zone,area\nC01,Mars,1\nC00,Venus,x\n")
        with pytest.raises(ValidationError, match="^non-numeric area 'x' for country 'C00'$"):
            attach_zones(toy_panel, path)
        path = zones_file(tmp_path, "country,zone,area\nC01,Asia,x\nC00,Venus,-2\n")
        with pytest.raises(ValidationError, match="^unknown zone 'Venus' for country 'C00'"):
            attach_zones(toy_panel, path)

    def test_accepts_all_eight_zones(self, tmp_path):
        zones = ("Europe", "Asia", "Eurasia", "Africa", "North America",
                 "Central America", "South America", "Oceania")
        rows = [f"C{i:02d},{zone}\n" for i, zone in enumerate(zones)]
        panel = make_panel(np.ones((len(zones), 2)))
        assert attach_zones(panel, zones_file(tmp_path, "country,zone\n" + "".join(rows))
                            ).zones == zones


class TestCountryMetaColumns:
    """A panel holds temperatures only: a name, zone or area column, in any
    case, exits 2 before a tokenizer reads a data line. A wide file is refused
    for its missing long columns first."""

    @pytest.mark.parametrize("quote", ["", '"'], ids=["unquoted", "quoted"])
    @pytest.mark.parametrize("layout", ["long", "wide"])
    @pytest.mark.parametrize("column", ["name", "zone", "area", "NAME", "ZONE", "AREA"])
    def test_rejected_by_trends(self, tmp_path, capsys, column, layout, quote):
        cid = f"{quote}A{quote}"
        if layout == "long":
            text = (f"country,year,temperature,{column}\n"
                    f"{cid},2000,1.0,Asia\n{cid},2001,1.5,Asia\n")
            message = (f"panel column {column!r} is not read: a country's "
                       "name, zone and area belong in the zones file")
        else:
            text = f"country,{column},2000,2001\n{cid},Asia,1.0,1.5\n"
            message = _NO_LONG_HEADER
        out = tmp_path / "out"
        code = main(["trends", "--data", write_csv(tmp_path / "p.csv", text),
                     "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()


class TestPanelValidation:
    def test_non_consecutive_years_rejected(self):
        with pytest.raises(ValidationError, match="consecutive"):
            TemperaturePanel(ids=("A",), years=(2000, 2002), values=np.zeros((1, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="shape"):
            TemperaturePanel(ids=("A",), years=(2000, 2001), values=np.zeros((2, 2)))

    def test_nan_rejected_with_location(self):
        values = np.zeros((1, 3))
        values[0, 1] = np.nan
        with pytest.raises(ValidationError, match="'A', year 2001"):
            TemperaturePanel(ids=("A",), years=(2000, 2001, 2002), values=values)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate country ids"):
            TemperaturePanel(ids=("A", "A"), years=(2000,), values=np.zeros((2, 1)))

    def test_zone_column_length_checked(self):
        with pytest.raises(ValidationError, match="^1 zones for 2 countries$"):
            TemperaturePanel(ids=("A", "B"), years=(2000,), values=np.zeros((2, 1)),
                             zones=("Asia",))

    def test_zones_default_to_none(self):
        panel = TemperaturePanel(ids=("A", "B"), years=(2000,), values=np.zeros((2, 1)))
        assert panel.zones == (None, None)

    def test_values_are_read_only(self, toy_panel):
        with pytest.raises(ValueError):
            toy_panel.values[0, 0] = 1.0

    def test_ids_and_index_built_once(self, toy_panel):
        assert toy_panel.ids is toy_panel.ids
        assert toy_panel.id_index is toy_panel.id_index
        assert [toy_panel.id_index[cid] for cid in toy_panel.ids] == list(range(6))
        with pytest.raises(TypeError):
            toy_panel.id_index["C00"] = 3

    def test_year_outside_range(self, toy_panel):
        with pytest.raises(ValidationError, match="outside panel range"):
            toy_panel.year_index(1800)


class TestFormatDetection:
    """Only the long layout is read. A header without all of country, year
    and temperature, a wide file's included, is refused with one message by
    both passes and the row-by-row reader."""

    def test_long_header(self, tmp_path):
        # The long columns in any order and case.
        path = write_csv(tmp_path / "p.csv", "Temperature,YEAR,country\n1.5,1901,A\n")
        panel = load_panel(path)
        assert panel.ids == ("A",) and panel.years == (1901,)
        assert panel.values.tolist() == [[1.5]]

    def test_long_header_with_meta(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "country,year,temperature,zone\nA,1901,1.0,Asia\n")
        assert _refusal(path) == ("ValidationError: panel column 'zone' is not read: a "
                                  "country's name, zone and area belong in the zones file")

    def test_wide_header(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "country,1901,1902\nA,1.0,1.5\n")
        assert _refusal(path) == _WIDE_REFUSED

    def test_garbage_header(self, tmp_path):
        assert _refusal(write_csv(tmp_path / "p.csv", "foo,bar\n1,2\n")) == _WIDE_REFUSED

    @pytest.mark.parametrize("cell", ["--5", "\u00b2", "-"])
    def test_year_columns_are_decimal_integers(self, tmp_path, cell):
        # No header cell is taken for a year, beside a year column or not.
        for header in (f"country,{cell}", f"country,{cell},1901"):
            path = write_csv(tmp_path / "p.csv", f"{header}\nA,1.0,1.5\n")
            assert _refusal(path) == _WIDE_REFUSED

    def test_non_year_column_of_wide_panel_ignored(self, tmp_path):
        # The wide file is refused at its header, before its columns are read.
        path = write_csv(tmp_path / "p.csv", "country,1901,--5\nA,1.0,x\n")
        assert _refusal(path) == _WIDE_REFUSED

    @pytest.mark.parametrize("name", ["wide-header", "no-temperature-column",
                                      "garbage-header"])
    def test_refused_by_both_passes(self, tmp_path, monkeypatch, name):
        raised = []
        long_header = panel_module._long_header

        def recorded(path, rows):
            try:
                return long_header(path, rows)
            except ValidationError as exc:
                raised.append(str(exc))
                raise
        monkeypatch.setattr(panel_module, "_long_header", recorded)
        path = write_csv(tmp_path / "p.csv", _TOKENIZER_CASES[name])
        assert _outcome(path, load_panel) == f"ValidationError: {_NO_LONG_HEADER}"
        assert raised == [_NO_LONG_HEADER] * 2
        assert _outcome(path, load_panel_rows) == f"ValidationError: {_NO_LONG_HEADER}"


class TestReaderCollectorState:
    """The panel loader runs with the cyclic collector off and restores its state."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        try:
            yield request.param
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_state_kept_after_read(self, tmp_path, collector):
        load_panel(write_csv(tmp_path / "p.csv", "country,year,temperature\nA,2000,1.0\n"))
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("content", [
        b"country,year,temperature\nA,2000,\xff\n",
        b"country,year,temperature\nA,2000," + b"1" * 131_073 + b"\n",
    ], ids=["not-utf8", "over-long-field"])
    def test_state_kept_after_failed_read(self, tmp_path, collector, content):
        path = tmp_path / "p.csv"
        path.write_bytes(content)
        with pytest.raises(ValidationError, match=r"p\.csv:2: "):
            load_panel(path)
        assert gc.isenabled() is collector


class TestLoadLong:
    def test_round_trip_values(self, tmp_path):
        path = write_csv(tmp_path / "p.csv",
                         "country,year,temperature\n"
                         "B,2001,3.5\nB,2000,2.25\nA,2000,1.0\nA,2001,-4.75\n")
        panel = load_panel(path)
        assert panel.ids == ("A", "B")
        assert panel.years == (2000, 2001)
        assert panel.values.tolist() == [[1.0, -4.75], [2.25, 3.5]]

    def test_missing_observation_reported_with_id_and_year(self, tmp_path):
        path = write_csv(tmp_path / "p.csv",
                         "country,year,temperature\n"
                         "A,2000,1.0\nA,2001,1.0\nB,2000,2.0\n")
        with pytest.raises(ValidationError, match=r"missing observations: B/2001"):
            load_panel(path)

    def test_duplicate_cell_rejected(self, tmp_path):
        path = write_csv(tmp_path / "p.csv",
                         "country,year,temperature\nA,2000,1.0\nA,2000,2.0\n")
        with pytest.raises(ValidationError, match="duplicate entry"):
            load_panel(path)

    def test_non_numeric_temperature(self, tmp_path):
        path = write_csv(tmp_path / "p.csv",
                         "country,year,temperature\nA,2000,warm\n")
        with pytest.raises(ValidationError, match="non-numeric temperature 'warm'"):
            load_panel(path)

    def test_blank_temperature_is_a_missing_observation(self, tmp_path):
        path = write_csv(tmp_path / "p.csv",
                         "country,year,temperature\nA,2000,1.0\nA,2001, \n")
        with pytest.raises(ValidationError,
                           match="^missing observation for country 'A', year 2001$"):
            load_panel(path)

    def test_non_integer_year(self, tmp_path):
        path = write_csv(tmp_path / "p.csv",
                         "country,year,temperature\nA,MMXX,1.0\n")
        with pytest.raises(ValidationError, match="non-integer year"):
            load_panel(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="file not found"):
            load_panel(tmp_path / "absent.csv")

    def test_mistyped_year_fails_fast(self, tmp_path, capsys):
        # One year typed with four extra digits makes the year span
        # 190 million long; the gap report must not walk that span.
        path = write_csv(tmp_path / "p.csv",
                         "country,year,temperature\nA,1901,1.0\nA,190100000,1.5\n")
        begin = time.perf_counter()
        code = main(["trends", "--data", path, "--out", str(tmp_path / "out")])
        elapsed = time.perf_counter() - begin
        assert code == 2
        err = capsys.readouterr().err
        assert "missing observations: A/1902, A/1903" in err
        assert f"(+{190100000 - 1901 - 1 - 10} more)" in err
        assert elapsed < 1.0

    def test_year_outside_int64_rejected(self, tmp_path):
        path = write_csv(tmp_path / "p.csv",
                         "country,year,temperature\nA,1901,1.0\n"
                         "A,99999999999999999999,1.5\n")
        with pytest.raises(ValidationError,
                           match="line 3: year '99999999999999999999' for country 'A' is out of range"):
            load_panel(path)


def _long_rows(rng: np.random.Generator, n: int, t: int) -> tuple[list[str], list[list[str]]]:
    """A valid long panel with shuffled columns and rows, padded cells and
    ids that need quoting."""
    ids = [f"C{i}" if rng.random() < 0.7 else f"C,{i}" for i in range(n)]
    header = ["country", "year", "temperature"]
    rng.shuffle(header)
    values = rng.normal(15.0, 8.0, (n, t))
    values[rng.random((n, t)) < 0.1] = -0.0
    formats = (repr, lambda v: f"{v:.4f}", lambda v: f"{v:.3e}", lambda v: f" {v!r} ")
    rows = []
    for i, cid in enumerate(ids):
        for j in range(t):
            cell = {"country": cid if rng.random() < 0.8 else f"  {cid}\t",
                    "year": str(1990 + j) if rng.random() < 0.8 else f" +{1990 + j} ",
                    "temperature": formats[rng.integers(len(formats))](float(values[i, j]))}
            rows.append([cell[h] for h in header])
    order = rng.permutation(len(rows))
    return header, [rows[k] for k in order]


def _write_rows(path, rng, header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_ALL if rng.random() < 0.3 else csv.QUOTE_MINIMAL)
    writer.writerow(header)
    for row in rows:
        if rng.random() < 0.1:
            buffer.write(["\n", " , ,\t\n", '"",""\n'][rng.integers(3)])
        writer.writerow(row)
    path.write_text(buffer.getvalue(), encoding="utf-8")
    return str(path)


def _mutate(rng: np.random.Generator, header: list[str], rows: list[list[str]]) -> None:
    """Apply one malformation to a random row, in place."""
    k = int(rng.integers(len(rows)))
    row = rows[k]
    if len(row) < len(header):
        return
    col = {name: header.index(name) for name in header}
    kind = rng.integers(8)
    if kind == 0:
        del row[int(rng.integers(1, len(row) + 1)) - 1:]
    elif kind == 1:
        row[col["year"]] = ["19x0", "1990.5", "", " ", "MMXX"][rng.integers(5)]
    elif kind == 2:
        row[col["temperature"]] = ["warm", "", "1,5", "0x1p3"][rng.integers(4)]
    elif kind == 3:
        row[col["temperature"]] = ["nan", "inf", "-Infinity", "1e999"][rng.integers(4)]
    elif kind == 4:
        rows.insert(int(rng.integers(len(rows) + 1)), list(row))
    elif kind == 5:
        del rows[k]
    elif kind == 6:
        row[col["year"]] = "2" + row[col["year"]].strip()
    else:
        row[col["country"]] = " "


def _wide_rows(rng: np.random.Generator, n: int, t: int) -> tuple[list[str], list[list[str]]]:
    """A wide panel: year columns shuffled after `country`, rows shuffled,
    padded cells and ids that need quoting."""
    columns = [str(1990 + j) for j in range(t)]
    rng.shuffle(columns)
    header = ["country", *columns]
    formats = (repr, lambda v: f"{v:.4f}", lambda v: f"{v:.3e}", lambda v: f" {v!r} ")
    rows = []
    for i in range(n):
        cell = {"country": f"C{i}" if rng.random() < 0.7 else f" C,{i}\t"}
        for j in range(t):
            cell[str(1990 + j)] = formats[rng.integers(len(formats))](rng.normal(15.0, 8.0))
        rows.append([cell[h] for h in header])
    rng.shuffle(rows)
    return header, rows


_WIDE_FAULTS = ("short row", "blank cell", "non-numeric cell", "non-finite cell",
                "duplicate row", "blank id")


def _mutate_wide(rng: np.random.Generator, fault: str, header: list[str],
                 rows: list[list[str]]) -> None:
    """Apply one malformation of the named kind to a random row, in place."""
    row = rows[int(rng.integers(len(rows)))]
    year_cols = [i for i, h in enumerate(header) if h.isdigit()]
    cell = year_cols[int(rng.integers(len(year_cols)))]
    if fault == "short row":
        del row[int(rng.integers(1, len(row))):]
    elif fault == "blank cell":
        row[cell] = ["", " ", "\t"][rng.integers(3)]
    elif fault == "non-numeric cell":
        row[cell] = ["warm", "1,5", "0x1p3", "--1"][rng.integers(4)]
    elif fault == "non-finite cell":
        row[cell] = ["nan", "inf", "-Infinity", "1e999"][rng.integers(4)]
    elif fault == "duplicate row":
        rows.insert(int(rng.integers(len(rows) + 1)), list(row))
    else:
        row[0] = " "


def _outcome(path, loader):
    try:
        return loader(path)
    except ValidationError as exc:
        return f"ValidationError: {exc}"


def _refusal(path) -> str:
    """The message `load_panel` refuses `path` with, which the row-by-row
    reader gives too."""
    got = _outcome(path, load_panel)
    assert isinstance(got, str)
    assert got == _outcome(path, load_panel_rows)
    return got


class TestLoaderParity:
    """The column-wise loader against the row-by-row reference in _oracles."""

    @pytest.fixture
    def reads(self, monkeypatch) -> list:
        """The paths `load_panel` opened to read: once for a valid panel, and
        twice for a malformed one, whose fault only the whole-file reload
        reports. No other open looks up a line (see `TestLineNumbersOpenNoFile`)."""
        opened = []
        open_csv = panel_module._open_csv

        def counted(path):
            opened.append(path)
            return open_csv(path)
        monkeypatch.setattr(panel_module, "_open_csv", counted)
        return opened

    @staticmethod
    def assert_same_panel(got: TemperaturePanel, ref: TemperaturePanel) -> None:
        assert got.ids == ref.ids
        assert got.years == ref.years
        assert got.zones == ref.zones == (None,) * len(ref.ids)
        assert got.values.shape == ref.values.shape
        assert np.array_equal(got.values.view(np.int64), ref.values.view(np.int64))

    @pytest.mark.parametrize("seed", range(40))
    def test_valid_long_panels(self, tmp_path, seed, reads):
        rng = np.random.default_rng(seed)
        header, rows = _long_rows(rng, int(rng.integers(1, 7)), int(rng.integers(1, 9)))
        path = _write_rows(tmp_path / "p.csv", rng, header, rows)
        self.assert_same_panel(load_panel(path), load_panel_rows(path))
        assert len(reads) == 1

    @pytest.mark.parametrize("seed", range(200))
    def test_malformed_long_panels(self, tmp_path, seed, reads):
        rng = np.random.default_rng(1000 + seed)
        header, rows = _long_rows(rng, int(rng.integers(1, 6)), int(rng.integers(2, 8)))
        for _ in range(int(rng.integers(1, 4))):
            _mutate(rng, header, rows)
        path = _write_rows(tmp_path / "p.csv", rng, header, rows)
        got, ref = _outcome(path, load_panel), _outcome(path, load_panel_rows)
        if isinstance(ref, str):
            assert got == ref
            assert len(reads) == 2
        else:
            self.assert_same_panel(got, ref)
            assert len(reads) == 1

    # A wide file, valid or not, is refused at its header by both passes.
    @pytest.mark.parametrize("seed", range(10))
    def test_valid_wide_panels(self, tmp_path, seed, reads):
        rng = np.random.default_rng(seed)
        panel = make_panel(rng.normal(15.0, 8.0, (int(rng.integers(1, 7)),
                                                   int(rng.integers(1, 9)))))
        write_wide(panel, tmp_path / "w.csv")
        lines = (tmp_path / "w.csv").read_text(encoding="utf-8").splitlines()
        lines.insert(1 + int(rng.integers(len(lines))), " ,\t, ")
        path = write_csv(tmp_path / "w.csv", "\n".join(lines) + "\n")
        assert _refusal(path) == _WIDE_REFUSED
        assert len(reads) == 2

    @pytest.mark.parametrize("seed", range(200))
    def test_malformed_wide_panels(self, tmp_path, seed, reads):
        rng = np.random.default_rng(2000 + seed)
        fault = _WIDE_FAULTS[seed % len(_WIDE_FAULTS)]
        header, rows = _wide_rows(rng, int(rng.integers(1, 6)), int(rng.integers(2, 8)))
        _mutate_wide(rng, fault, header, rows)
        path = _write_rows(tmp_path / "w.csv", rng, header, rows)
        assert _refusal(path) == _WIDE_REFUSED
        assert len(reads) == 2


class TestLoaderParityInSmallChunks(TestLoaderParity):
    """The same panels read 1, 2 and 5 rows at a time, so that ids, repeats
    and faults fall on both sides of chunk boundaries."""

    @pytest.fixture(autouse=True, params=[1, 2, 5], ids=lambda n: f"chunk{n}")
    def row_chunk(self, request, monkeypatch):
        monkeypatch.setattr(panel_module, "_ROW_CHUNK", request.param)


def _rows_text(n_countries: int, n_years: int, meta: str = "", **rows: str) -> str:
    """A long panel, header first: countries A0.. over years from 2000, each
    temperature a plain decimal, and `meta` appended to the header and every
    row. `rows` replaces data rows by index, e.g. `{"3": "A0,2003,warm"}`."""
    lines = ["country,year,temperature" + meta]
    lines += [f"A{i},{2000 + j},{i + j / 8}{meta and ',Asia'}"
              for i in range(n_countries) for j in range(n_years)]
    for index, line in rows.items():
        lines[1 + int(index)] = line
    return "".join(line + "\n" for line in lines)


def _wide_text(n_countries: int, n_years: int, **rows: str) -> str:
    """A wide panel, header first: countries A0.. over years from 2000, each
    temperature a plain decimal. `rows` replaces data rows by index."""
    lines = [",".join(["country", *(str(2000 + j) for j in range(n_years))])]
    lines += [",".join([f"A{i}", *(f"{i + j / 8}" for j in range(n_years))])
              for i in range(n_countries)]
    for index, line in rows.items():
        lines[1 + int(index)] = line
    return "".join(line + "\n" for line in lines)


_HEADER = "country,year,temperature\n"
_TWO = "A,2000,1.0\nA,2001,1.5\nB,2000,2.0\nB,2001,2.5\n"

# Files the csv module and np.loadtxt could split or convert differently.
_TOKENIZER_CASES = {
    "quoted-id": _HEADER + '"A",2000,1.0\nA,2001,1.5\n',
    "quote-after-first-chunk": _rows_text(9, 128, **{"1030": 'A8,2006,"1.75"'}),
    "cr-line-ends": _HEADER.replace("\n", "\r") + _TWO.replace("\n", "\r"),
    "crlf-line-ends": _HEADER.replace("\n", "\r\n") + _TWO.replace("\n", "\r\n"),
    "no-final-line-end": _HEADER + _TWO.rstrip("\n"),
    "whitespace-only-lines": _HEADER + " \t \n" + _TWO + "   \r\n",
    "comma-only-lines": _HEADER + ",,\n" + _TWO + " , ,\t\n,\n",
    "longer-rows": _HEADER + "A,2000,1.0,x\nA,2001,1.5,y,z\n",
    "all-rows-longer": _HEADER + "A,2000,1.0,x\nA,2001,1.5,y\n",
    "shorter-row": _HEADER + "A,2000,1.0\nA,2001\n",
    "shorter-than-header": "country,year,temperature,note\nA,2000,1.0\nA,2001,1.5\n",
    "year-underscore": _HEADER + "A,1_901,1.0\nA,1902,1.5\n",
    "year-fullwidth": _HEADER + "A,\uff11\uff19\uff10\uff11,1.0\nA,1902,1.5\n",
    "year-plus": _HEADER + "A,+1901,1.0\nA, 1902 ,1.5\n",
    "year-float": _HEADER + "A,1901.0,1.0\nA,1902,1.5\n",
    # A year far from the others leaves gaps by the billion; one past int64 is
    # out of range.
    "year-far-off": _HEADER + "A,2000,1.0\nA,99999999999,1.5\nB,2000,2.0\nB,2001,2.5\n",
    "year-past-int64": _HEADER + "A,2000,1.0\nA,99999999999999999999,1.5\nB,2000,2.0\n",
    # Wide files, refused at their header whatever their rows hold.
    "wide-year-past-int64": "country,99999999999999999999\nA,1.0\nB,2.0\n",
    "wide-superscript-column": "country,2000,2001,\u00b2\nA,1.0,1.5,x\nB,2.0,2.5,y\n",
    "wide-short-row-in-third-chunk": _wide_text(100, 122, **{"59": "A59,1.0"}),
    "temperature-padded": _HEADER + "A,2000, 5.25 \nA,2001,\t1.5\n",
    "temperature-inf": _HEADER + "A,2000,inf\nA,2001,1.5\n",
    "temperature-nan": _HEADER + "A,2000,nan\nA,2001,1.5\n",
    "temperature-underscore": _HEADER + "A,2000,1_0.5\nA,2001,1.5\n",
    "zones-conflict-across-chunks": _rows_text(9, 128, ",zone", **{"1100": "A8,2076,1.0,Europe"}),
    "bad-row-after-1024": _rows_text(9, 128, **{"1100": "A8,2076,warm"}),
    "missing-row-after-1024": _rows_text(9, 128, **{"1100": ""}),
    "exactly-1024-rows": _rows_text(8, 128),
    "blank-lines-fill-a-chunk": _rows_text(8, 128) + "\n" * 1024 + "\r\n" * 3,
    "comma-lines-fill-a-chunk": _rows_text(8, 128) + ",,\n" * 1100,
    "empty-file": "",
    "header-then-blank-lines": _HEADER + "\n \r\n\n",
    # Headers without the long columns: refused before any data line is read.
    "wide-header": "country,1901,1902\nA,1.0,1.5\nB,2.0,2.5\n",
    "no-temperature-column": "country,year,temp\nA,2000,1.0\nA,2001,1.5\n",
    "garbage-header": "foo,bar\n1,2\n",
    # Either column could be meant, so both are refused.
    "repeated-used-column": "country,year,temperature,Temperature\nA,2000,1.0,2.0\n",
}


class TestTokenizerParity:
    """np.loadtxt reads a long file's lines in the first pass; the csv module
    reads everything else. Each file gives the row-by-row reader's panel or
    message, and the outcome of a load that never calls np.loadtxt."""

    reads = TestLoaderParity.reads

    @pytest.fixture
    def csv_only(self, monkeypatch):
        """`load_panel` with every data line read by the csv module: np.loadtxt
        fails on every chunk."""
        def refuse(*args, **kwargs):
            raise ValueError("refused")

        def load(path):
            with monkeypatch.context() as patch:
                patch.setattr(np, "loadtxt", refuse)
                return _outcome(path, load_panel)
        return load

    @staticmethod
    def assert_same_outcome(got, want):
        if isinstance(want, str):
            assert got == want
        else:
            TestLoaderParity.assert_same_panel(got, want)

    @pytest.mark.parametrize("name", _TOKENIZER_CASES)
    def test_file(self, tmp_path, name, reads, csv_only):
        path = tmp_path / "p.csv"
        path.write_bytes(_TOKENIZER_CASES[name].encode())
        got, ref = _outcome(path, load_panel), _outcome(path, load_panel_rows)
        self.assert_same_outcome(got, ref)
        assert len(reads) == (2 if isinstance(ref, str) else 1)
        self.assert_same_outcome(csv_only(path), ref)

    @pytest.mark.parametrize("cell", ["7\x1c", "\x1f7", "7\x00"])
    def test_characters_only_loadtxt_takes_for_whitespace(self, tmp_path, cell, csv_only):
        # np.loadtxt reads "7\x1c" as 7.0, where float() and int() refuse it.
        for line in (f"C,2000,{cell}", f"C,{cell},1.0", f"C{cell},2000,1.0"):
            path = tmp_path / "p.csv"
            path.write_text(_HEADER + line + "\nC,2001,1.0\n" + _TWO, encoding="utf-8")
            self.assert_same_outcome(_outcome(path, load_panel), csv_only(path))

    def test_field_over_the_csv_limit(self, tmp_path, csv_only):
        path = tmp_path / "p.csv"
        path.write_text(_HEADER + "A" * 131_073 + ",2000,1.0\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=r"p\.csv:2: field larger than field limit"):
            load_panel(path)
        assert csv_only(path) == _outcome(path, load_panel)

    @pytest.mark.parametrize("lenient", [False, True], ids=["installed", "warns-and-truncates"])
    def test_year_with_a_fraction_at_the_default_warning_filter(self, tmp_path, monkeypatch,
                                                                lenient):
        # numpy 1.23-1.26 read "1901.5" into an int column as 1901 and only
        # warned; Python hides that DeprecationWarning outside tests.
        if lenient:
            loadtxt = np.loadtxt

            def truncating(lines, **kwargs):
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning, stacklevel=2)
                return loadtxt([line.replace("1901.5", "1901") for line in lines], **kwargs)
            monkeypatch.setattr(np, "loadtxt", truncating)
        path = tmp_path / "p.csv"
        path.write_text(_HEADER + "A,1901.5,1.0\nA,1902,1.5\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.resetwarnings()
            warnings.simplefilter("ignore", DeprecationWarning)
            got = _outcome(path, load_panel)
        assert got == "ValidationError: line 2: non-integer year '1901.5' for country 'A'"
        assert got == _outcome(path, load_panel_rows)

    def test_loadtxt_reads_a_plain_long_file(self, tmp_path, monkeypatch):
        calls = []
        loadtxt = np.loadtxt

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return loadtxt(*args, **kwargs)
        monkeypatch.setattr(np, "loadtxt", counted)
        path = write_csv(tmp_path / "p.csv", _rows_text(9, 128))
        assert load_panel(path).values.shape == (9, 128)
        assert calls == [1024, 128]


# Wide files with two faults in their rows: neither is reached.
_WIDE_TWO_FAULTS = {
    "blank-id-then-bad-cell": "country,2000,2001\n ,1.0,1.5\nB,warm,1.5\n",
    "bad-cell-then-short-row": "country,2000,2001\nA,warm,1.5\nB,1.0\n",
    "bad-cell-then-repeat": "country,2000,2001\nA,warm,1.5\nA,1.0,2.0\n",
}


class TestWideFaultOrder:
    """The loader, a load that never calls np.loadtxt and the row-by-row
    reader refuse a wide file at its header, before any of its row faults."""

    csv_only = TestTokenizerParity.csv_only

    @pytest.mark.parametrize("name", _WIDE_TWO_FAULTS)
    def test_file(self, tmp_path, name, csv_only):
        path = write_csv(tmp_path / "w.csv", _WIDE_TWO_FAULTS[name])
        assert _refusal(path) == _WIDE_REFUSED
        assert csv_only(path) == _WIDE_REFUSED


class TestChunkBoundaries:
    """Faults in different chunks are reported as a whole-file read reports them."""

    @pytest.fixture(autouse=True)
    def row_chunk(self, monkeypatch):
        monkeypatch.setattr(panel_module, "_ROW_CHUNK", 2)

    # Rows past the reader's first 8 KiB block are read only after the fault.
    @pytest.mark.parametrize("n_rows", [2, 10_000], ids=["near", "past-the-read-buffer"])
    @pytest.mark.parametrize("bad_row", ["A,2001,1.5", "A,2001,x", "A,2001"],
                             ids=["no-fault", "bad-cell", "short-row"])
    @pytest.mark.parametrize("last_row, message", [
        (b"C,2000,\xff\xfe", r"not valid UTF-8 \(byte 0xff\)"),
        (b"C,2000," + b"1" * 131_073, r"field larger than field limit \(131072\)"),
    ], ids=["not-utf8", "over-long-field"])
    def test_read_error_beats_an_earlier_row_fault(self, tmp_path, n_rows, bad_row,
                                                   last_row, message):
        lines = ["country,year,temperature", "A,2000,1.0", bad_row,
                 *(f"B,{2000 + i},1.0" for i in range(n_rows))]
        path = tmp_path / "p.csv"
        path.write_bytes(("\n".join(lines) + "\n").encode() + last_row + b"\n")
        with pytest.raises(ValidationError, match=rf"p\.csv:{len(lines) + 1}: {message}$"):
            load_panel(path)

    def test_repeated_cell_in_a_later_chunk(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "country,year,temperature\n"
                         "A,2000,1.0\nA,2001,1.5\nB,2000,2.0\nB,2001,2.5\nA,2000,1.0\n")
        with pytest.raises(ValidationError,
                           match="^duplicate entry for country 'A', year 2000$"):
            load_panel(path)

    def test_repeated_wide_row_before_an_earlier_bad_cell(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "country,2000,2001\n"
                         "A,1.0,1.5\nB,warm,2.5\nC,1.0,1.5\nA,1.0,1.5\n")
        assert _refusal(path) == _WIDE_REFUSED


class TestLoaderMemory:
    def test_peak_memory_is_bounded(self, tmp_path):
        # 97,600 long rows. Read whole, as lists of strings, the file peaked
        # at 30.3 MiB; read in chunks, at 4.7 MiB, most of it the arrays.
        rng = np.random.default_rng(0)
        path = tmp_path / "p.csv"
        write_panel(make_panel(rng.normal(15.0, 8.0, (800, 122)), first_year=1901), path)
        tracemalloc.start()
        try:
            panel = load_panel(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert panel.values.shape == (800, 122)
        assert peak < 8 * 2**20

    def test_wide_load_stays_near_its_long_twin(self, tmp_path):
        # The same 800 x 122 panel written wide is refused at its header. The
        # rest of the file is still read, for a malformed row that comes
        # first, but its rows are not kept: kept, they peaked 2.5 MiB above
        # the long load.
        rng = np.random.default_rng(0)
        panel = make_panel(rng.normal(15.0, 8.0, (800, 122)), first_year=1901)
        write_panel(panel, tmp_path / "long.csv")
        write_wide(panel, tmp_path / "wide.csv")
        peaks, loaded = {}, {}
        for fmt in ("long", "wide"):
            tracemalloc.start()
            try:
                loaded[fmt] = _outcome(tmp_path / f"{fmt}.csv", load_panel)
                _, peaks[fmt] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert loaded["long"].values.shape == (800, 122)
        assert loaded["wide"] == _WIDE_REFUSED
        assert peaks["wide"] < peaks["long"] + 2**20 / 2


class TestLoadWide:
    """A wide file is refused at its header, whatever its rows hold."""

    def test_basic(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "country,2000,2001\nB,2.0,2.5\nA,1.0,1.5\n")
        assert _refusal(path) == _WIDE_REFUSED

    def test_missing_cell(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "country,2000,2001\nA,1.0,\n")
        assert _refusal(path) == _WIDE_REFUSED

    def test_gap_in_year_columns(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "country,2000,2002\nA,1.0,2.0\n")
        assert _refusal(path) == _WIDE_REFUSED

    def test_duplicate_country_row(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "country,2000\nA,1.0\nA,2.0\n")
        assert _refusal(path) == _WIDE_REFUSED


class TestWideAsLong:
    """What a wide file's header or rows hold is never reached: its header
    lacks the long columns."""

    def test_header_only_file(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "country,2000,2001\n")
        assert _refusal(path) == _WIDE_REFUSED

    def test_year_column_outside_int64(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "country,9223372036854775807,9223372036854775808\n"
                                             "A,1.0,2.0\n")
        assert _refusal(path) == _WIDE_REFUSED

    def test_short_row_before_bad_cell(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "country,2000,2001\nA,warm,1.0\nB,1.0\n")
        assert _refusal(path) == _WIDE_REFUSED


class TestWriteRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(st.floats(min_value=-90, max_value=60,
                                     allow_nan=False, allow_infinity=False),
                           min_size=6, max_size=6))
    def test_long_round_trip_is_bit_exact(self, values, tmp_path_factory):
        # repr() emits full precision, so arbitrary doubles survive the trip
        panel = make_panel(np.array(values).reshape(2, 3))
        path = tmp_path_factory.mktemp("rt") / "p.csv"
        write_panel(panel, path)
        loaded = load_panel(path)
        assert loaded.ids == panel.ids
        assert loaded.years == panel.years
        assert np.array_equal(loaded.values, panel.values)


class TestAdjacency:
    def test_symmetry_enforced(self, toy_panel, tmp_path):
        # Each edge is listed once, in either direction, or twice.
        path = write_csv(tmp_path / "adj.csv",
                         "country_a,country_b\nC00,C01\nC03,C02\nC04,C05\nC05,C04\n")
        borders = load_adjacency(path, toy_panel)
        assert np.array_equal(borders, borders.T)
        assert borders.sum() == 6

    def test_self_edge_rejected(self, toy_panel, tmp_path):
        path = write_csv(tmp_path / "adj.csv", "country_a,country_b\nC00,C01\nC02,C02\n")
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(path)}:3: self-edge for country 'C02'$"):
            load_adjacency(path, toy_panel)

    def test_load_from_csv(self, toy_panel, tmp_path):
        path = write_csv(tmp_path / "adj.csv",
                         "country_a,country_b\nC00,C01\nC01,C02\n")
        borders = load_adjacency(path, toy_panel)
        assert borders.dtype == bool and borders.shape == (6, 6)
        assert borders[1].tolist() == [True, False, True, False, False, False]
        assert not borders[5].any()
        with pytest.raises(ValueError):
            borders[5, 4] = True

    def test_header_only_file_has_no_borders(self, toy_panel, tmp_path):
        path = write_csv(tmp_path / "adj.csv", "country_a,country_b\n")
        assert not load_adjacency(path, toy_panel).any()

    def test_short_row_rejected(self, toy_panel, tmp_path):
        path = write_csv(tmp_path / "adj.csv", "country_a,country_b\nC00\n")
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(path)}:2: adjacency row needs two country ids$"):
            load_adjacency(path, toy_panel)

    def test_unknown_id_rejected(self, toy_panel, tmp_path):
        path = write_csv(tmp_path / "adj.csv", "country_a,country_b\nC00,XX\n")
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(path)}:2: unknown country id 'XX' in adjacency$"):
            load_adjacency(path, toy_panel)

    def test_bad_header_rejected(self, toy_panel, tmp_path):
        path = write_csv(tmp_path / "adj.csv", "from,to\nC00,C01\n")
        with pytest.raises(ValidationError, match="country_a,country_b"):
            load_adjacency(path, toy_panel)


class TestZones:
    def test_attach_zones(self, toy_panel, tmp_path):
        lines = ["country,zone"] + [f"C{i:02d},Europe" for i in range(6)]
        path = write_csv(tmp_path / "z.csv", "\n".join(lines) + "\n")
        merged = attach_zones(toy_panel, path)
        assert merged.zones == ("Europe",) * 6
        assert toy_panel.zones == (None,) * 6
        assert merged.ids == toy_panel.ids
        assert np.array_equal(merged.values, toy_panel.values)

    def test_bad_zone_value_rejected(self, toy_panel, tmp_path):
        path = write_csv(tmp_path / "z.csv", "country,zone\nC00,Mars\n")
        with pytest.raises(ValidationError, match="unknown zone"):
            attach_zones(toy_panel, path)

    def test_missing_columns_rejected(self, toy_panel, tmp_path):
        path = write_csv(tmp_path / "z.csv", "country,region\nC00,Europe\n")
        with pytest.raises(ValidationError, match="`country` and `zone`"):
            attach_zones(toy_panel, path)

    def test_repeated_rows_must_agree(self, toy_panel, tmp_path):
        path = write_csv(tmp_path / "z.csv", "country,zone\nC00,Europe\nC00,Asia\n")
        with pytest.raises(ValidationError,
                           match="conflicting zone for country 'C00': 'Europe' vs 'Asia'"):
            attach_zones(toy_panel, path)

    def test_agreeing_repeats_and_blanks_merge(self, toy_panel, tmp_path):
        path = write_csv(tmp_path / "z.csv", "country,zone,name,area\n"
                                             "C00,Europe,,\nC00,Europe,Alpha,\nC00, ,,12.5\n")
        assert attach_zones(toy_panel, path).zones == ("Europe",) + (None,) * 5

    def test_file_zones_replace_the_panels_own(self, tmp_path):
        panel = make_panel(np.ones((3, 2)), ids=["A", "B", "C"],
                           zones=["Asia", "Africa", "Oceania"])
        path = write_csv(tmp_path / "z.csv", "country,zone\nA,\nB,Europe\n")
        merged = attach_zones(panel, path)
        assert merged.zones == (None, "Europe", None)
        assert panel.zones == ("Asia", "Africa", "Oceania")

    def test_conflicting_area_rejected(self, toy_panel, tmp_path):
        path = write_csv(tmp_path / "z.csv", "country,zone,area\nC00,Asia,1\nC00,Asia,2\n")
        with pytest.raises(ValidationError,
                           match="^conflicting area for country 'C00': '1' vs '2'$"):
            attach_zones(toy_panel, path)

    def test_unknown_id_rejected(self, toy_panel, tmp_path):
        path = write_csv(tmp_path / "z.csv", "country,zone\nC00,Asia\nZZ,Africa\n")
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(path)}:3: unknown country id 'ZZ' in zone file$"):
            attach_zones(toy_panel, path)


class TestPhysicalLineNumbers:
    """Row faults name the line `csv.reader` read, counting blank lines."""

    @pytest.mark.parametrize("text, message", [
        ("country,year,temperature\n\nA,MMXX,1.0\n",
         "line 3: non-integer year 'MMXX' for country 'A'"),
        ("\n\ncountry,year,temperature\nA,MMXX,1.0\n",
         "line 4: non-integer year 'MMXX' for country 'A'"),
        ("country,year,temperature\nA,2000,1.0\n \n,,\nA,2001\n",
         "line 5: expected 3 columns, got 2"),
        ("country,year,temperature\n\nA,99999999999999999999,1.0\n",
         "line 3: year '99999999999999999999' for country 'A' is out of range"),
        ('country,year,temperature,note\nA,2000,1.0,"two\nlines"\nA,MMXX,1.0,x\n',
         "line 4: non-integer year 'MMXX' for country 'A'"),
        ("\ufeffcountry,year,temperature\n\nA,MMXX,1.0\n",
         "line 3: non-integer year 'MMXX' for country 'A'"),
        # A wide file is refused at its header, before its short row.
        ("country,2000,2001\n\nA,1.0,2.0\n\nB,1.0\n", _NO_LONG_HEADER),
    ], ids=["long", "leading-blanks", "short-row", "year-range", "multiline-field",
            "byte-order-mark", "wide"])
    def test_panel(self, tmp_path, text, message):
        path = write_csv(tmp_path / "p.csv", text)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            load_panel(path)

    def test_adjacency(self, toy_panel, tmp_path):
        path = write_csv(tmp_path / "a.csv", "country_a,country_b\n\nC00,ZZ\n")
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(path)}:3: unknown country id 'ZZ' in adjacency$"):
            load_adjacency(path, toy_panel)

    def test_zones(self, toy_panel, tmp_path):
        path = write_csv(tmp_path / "z.csv", "country,zone\n\n\nZZ,Africa\n")
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(path)}:4: unknown country id 'ZZ' in zone file$"):
            attach_zones(toy_panel, path)


class TestLineNumbersOpenNoFile:
    """A message's line number comes from the read that met the fault: no
    input is opened again to look it up."""

    @pytest.fixture
    def opens(self, monkeypatch) -> list:
        """Every path opened through `Path.open`, except by `errors.undecodable`,
        which reads an undecodable file again to find its bad byte. A test
        clears it once it has written its input."""
        opened = []
        path_open = Path.open

        def counted(self, *args, **kwargs):
            opened.append(str(self))
            return path_open(self, *args, **kwargs)

        def uncounted(path, _undecodable=panel_module.undecodable):
            with monkeypatch.context() as patch:
                patch.setattr(Path, "open", path_open)
                return _undecodable(path)
        monkeypatch.setattr(Path, "open", counted)
        monkeypatch.setattr(panel_module, "undecodable", uncounted)
        return opened

    @pytest.mark.parametrize("content, read, message", [
        (b"country,zone\n\nZZ,Africa\n", attach_zones,
         "3: unknown country id 'ZZ' in zone file"),
        (b"country,zone\nC00,Africa\n\xff,Asia\n", attach_zones,
         "3: not valid UTF-8 (byte 0xff)"),
        (b"country_a,country_b\n\nC00,ZZ\n", lambda panel, path: load_adjacency(path, panel),
         "3: unknown country id 'ZZ' in adjacency"),
        (b"model,period,loss\n\na,1,oops\n", lambda panel, path: _read_losses_csv(path),
         "3: bad loss 'oops'"),
    ], ids=["zones", "zones-undecodable", "adjacency", "losses"])
    def test_fault_opens_its_file_once(self, toy_panel, tmp_path, opens, content, read,
                                       message):
        path = tmp_path / "input.csv"
        path.write_bytes(content)
        opens.clear()
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}:{message}')}$"):
            read(toy_panel, str(path))
        assert opens == [str(path)]

    def test_panel_fault_past_the_first_chunk_opens_it_twice(self, tmp_path, opens):
        # Once for the first pass, which only detects, and once to report.
        path = write_csv(tmp_path / "p.csv", _rows_text(9, 128, **{"1100": "A8,MMXX,1.0"}))
        opens.clear()
        with pytest.raises(ValidationError,
                           match="^line 1102: non-integer year 'MMXX' for country 'A8'$"):
            load_panel(path)
        assert opens == [path] * 2


class TestSplit:
    def test_split_year_boundaries(self, toy_panel):
        first, last = toy_panel.years[0], toy_panel.years[-1]
        train, test = split_panel(toy_panel, first + 4)
        assert train.years[-1] == first + 4
        assert test.years[0] == first + 5
        assert train.n_years + test.n_years == toy_panel.n_years
        joined = np.hstack([train.values, test.values])
        assert np.array_equal(joined, toy_panel.values)

    @pytest.mark.parametrize("offset", [0, 100, -5])
    def test_split_outside_range_rejected(self, toy_panel, offset):
        bad = toy_panel.years[-1] + offset if offset >= 0 else toy_panel.years[0] + offset
        with pytest.raises(ValidationError, match="strictly inside"):
            split_panel(toy_panel, bad)
