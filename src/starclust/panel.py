"""Country-by-year temperature panel: loading, validation, splitting, adjacency,
and the one CSV reader and result-file writers of the package.

The panel is a dense N x T matrix of annual mean temperatures (degrees C)
plus each country's geographical zone; borders are a boolean N x N matrix in
the same country order. A panel CSV holds temperatures only: zones, with a
country's optional name and area, come from a zones file (`attach_zones`).
Validation is strict: gaps, duplicates, and non-numeric cells are hard
errors, never imputed. A panel file is long: one `country,year,temperature`
row per observation, read a chunk at a time so that loading memory does not
grow with panel length (see `load_panel`). Every CSV input is read through
`_rows`, which numbers each row with its physical line for the messages, and
may start with a UTF-8 byte-order mark.

Every result file is written by `write_csv` or `write_json`, which fix the
output format: UTF-8; CSV in the csv module's default dialect (comma,
minimal quoting, `\\r\\n` line ends) with floats as `repr(float(v))`; JSON with
sorted keys, a 2-space indent and one final newline.
"""
from __future__ import annotations

import csv
import gc
import json
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, NoReturn, TextIO

import numpy as np

from .errors import ValidationError, undecodable

# Closed set of geographical zones, in the order cross-tabulations list them.
ZONES = ("Europe", "Asia", "Eurasia", "Africa",
         "North America", "Central America", "South America", "Oceania")

_LONG_HEADER = ("country", "year", "temperature")
# Years are parsed as 64-bit integers.
_YEAR_MIN, _YEAR_MAX = -2**63, 2**63 - 1
_META_COLUMNS = ("name", "zone", "area")
# Panel rows read and parsed at once.
_ROW_CHUNK = 1024
# A quote, NUL, and what np.loadtxt strips from a number as whitespace and
# float() and int() refuse: the csv module reads from a chunk holding one on.
_CSV_ONLY = '"\0\x1c\x1d\x1e\x1f'


@dataclass(frozen=True, eq=False)
class TemperaturePanel:
    """Validated N x T panel of temperatures with a stable country ordering.

    Immutable after construction; the same country order is shared by every
    downstream matrix (distances, weights, model equations). `zones[i]` is
    country i's zone, or None; an empty `zones` means no zone is known. A
    loaded panel knows none: its zones come only from a zones file, and
    `attach_zones` replaces whatever zones a panel built in code holds.
    `id_index` is computed once, on first use.
    """

    ids: tuple[str, ...]
    years: tuple[int, ...]
    values: np.ndarray
    zones: tuple[str | None, ...] = ()

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "years", tuple(int(y) for y in self.years))
        n, t = len(self.ids), len(self.years)
        object.__setattr__(self, "zones", tuple(self.zones) or (None,) * n)
        if n == 0 or t == 0:
            raise ValidationError("panel must have at least one country and one year")
        if values.shape != (n, t):
            raise ValidationError(
                f"values shape {values.shape} does not match {n} countries x {t} years"
            )
        if len(self.zones) != n:
            raise ValidationError(f"{len(self.zones)} zones for {n} countries")
        if not np.all(np.isfinite(values)):
            i, j = np.argwhere(~np.isfinite(values))[0]
            raise ValidationError(
                f"non-finite temperature for country {self.ids[i]!r}, "
                f"year {self.years[j]}"
            )
        for prev, cur in zip(self.years, self.years[1:]):
            if cur != prev + 1:
                raise ValidationError(
                    f"years must be consecutive and increasing; got {prev} then {cur}"
                )
        if len(self.id_index) != n:
            ids = self.ids
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValidationError(f"duplicate country ids: {dupes}")
        values.setflags(write=False)

    @cached_property
    def id_index(self) -> Mapping[str, int]:
        """Row of each country id, read-only."""
        return MappingProxyType({cid: i for i, cid in enumerate(self.ids)})

    @property
    def n_countries(self) -> int:
        return len(self.ids)

    @property
    def n_years(self) -> int:
        return len(self.years)

    def year_index(self, year: int) -> int:
        if year not in self.years:
            raise ValidationError(f"year {year} outside panel range {self.years[0]}..{self.years[-1]}")
        return self.years.index(year)


def _parse_temperature(text: str, country: str, year: int) -> float:
    if not text:
        raise ValidationError(f"missing observation for country {country!r}, year {year}")
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(
            f"non-numeric temperature {text!r} for country {country!r}, year {year}"
        ) from None
    if not np.isfinite(value):
        raise ValidationError(
            f"non-finite temperature {text!r} for country {country!r}, year {year}"
        )
    return value


class _Columns(NamedTuple):
    """A chunk of a long panel's rows by column: country cells, unstripped,
    years and temperatures."""
    countries: list[str]
    years: np.ndarray
    values: np.ndarray


def _open_csv(path: Path) -> TextIO:
    """Open a CSV input as the csv module reads it: line ends kept, and a
    byte-order mark dropped."""
    if not path.exists():
        raise ValidationError(f"file not found: {path}")
    return path.open(newline="", encoding="utf-8-sig")


def _rows(path: Path, lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """The non-blank rows the csv module reads from `lines`, each after its
    physical line, as `csv.reader`'s `line_num` gives it.

    A row is blank when all its cells are empty or whitespace. An undecodable
    byte or a malformed row raises ValidationError once the reader reaches it.
    The reader reads no line past the row it yields.
    """
    reader = csv.reader(lines)
    try:
        for row in reader:
            if "".join(row).strip():
                yield reader.line_num, row
    except UnicodeDecodeError:
        raise undecodable(path) from None
    except csv.Error as exc:
        raise ValidationError(f"{path}:{reader.line_num}: {exc}") from None


def _read_rows(path: Path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header, stripped and lower-cased, and the numbered data rows."""
    with _open_csv(path) as fh:
        rows = list(_rows(path, fh))
    if not rows:
        raise ValidationError(f"empty file: {path}")
    return [cell.strip().lower() for cell in rows[0][1]], rows[1:]


def write_csv(path: str | Path, header: Iterable, rows: Iterable[Iterable]) -> None:
    """Write a result CSV: a float cell, numpy float64 included, as
    `repr(float(v))`, None as an empty cell, any other cell as `str` gives it.
    A file that cannot be written is a ValidationError naming it."""
    try:
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row]
                             for row in rows)
    except OSError as exc:
        raise _unwritable(path, exc) from None


def write_json(path: str | Path, payload: Mapping) -> None:
    """Write a result JSON: sorted keys, a 2-space indent, one final newline.
    A file that cannot be written is a ValidationError naming it."""
    try:
        Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                              encoding="utf-8")
    except OSError as exc:
        raise _unwritable(path, exc) from None


def _unwritable(path: str | Path, exc: OSError) -> ValidationError:
    return ValidationError(f"cannot write output file {path}: {exc.strerror}")


def _column_index(header: list[str], names: Iterable[str], source: str) -> dict[str, int]:
    """The column of each of `names` that the header holds. A name it holds
    twice is a ValidationError naming the column: either could be meant."""
    index = {}
    for name in names:
        if header.count(name) > 1:
            raise ValidationError(f"{source} header repeats column {name!r}")
        if name in header:
            index[name] = header.index(name)
    return index


def _long_header(path: Path, rows: Iterator[tuple[int, list[str]]]
                 ) -> tuple[list[str], dict[str, int]]:
    """Take the header off `rows`, a panel file's numbered rows, and return
    it, stripped, with the column of each of `_LONG_HEADER`.

    A header without all three is a ValidationError, a wide file's
    (`country,<year>,...`) included. So is a `name`, `zone` or `area`
    column: the panel holds temperatures only, and zones come from
    `attach_zones`.
    """
    header = [cell.strip() for cell in next(rows, (0, []))[1]]
    if not header:
        raise ValidationError(f"empty file: {path}")
    lowered = [name.lower() for name in header]
    if not set(_LONG_HEADER) <= set(lowered):
        raise ValidationError("panel header must hold country, year and temperature columns")
    for name in header:
        if name.lower() in _META_COLUMNS:
            raise ValidationError(f"panel column {name!r} is not read: a country's "
                                  "name, zone and area belong in the zones file")
    return header, _column_index(lowered, _LONG_HEADER, "panel")


def load_panel(path: str | Path) -> TemperaturePanel:
    """Load and validate a temperature panel from a long CSV file: a header
    holding `country`, `year` and `temperature`, in any order and case, then
    one row per observation. Other columns are ignored, except that `name`,
    `zone` and `area` are refused (see `_long_header`).

    The file is parsed a chunk at a time, and that pass only detects, since
    in a whole-file read an undecodable byte further on comes before a bad
    cell. So a file that fails a check is read again whole, and its rows are
    checked in file order before the panel is assembled. Only that pass
    reports.

    `_rows` reads the header, and every row of the reporting pass with the
    physical line its message names. In the first pass np.loadtxt tokenizes
    and converts the data lines up to the first chunk it cannot read as the
    csv module does, and `_rows` reads the rest (see `_line_columns`): the
    benchmark's 97,600-row file loads in 47 ms instead of 96 (fastest of 9
    loads, 2-vCPU VM). Both tokenizers give the same panel or message.

    The cyclic garbage collector is off while loading. The csv module makes
    one new list of strings per row. The lists hold no reference cycle, but
    the collector tracks each one, and the allocations set off its passes,
    some over every object the imports left: 5-17 ms, or 8-18%, of a
    97,600-row load in a fresh interpreter. Its state is restored however
    the load ends.
    """
    path = Path(path)
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            with _open_csv(path) as fh:
                header, col = _long_header(path, _rows(path, fh))
                return _load_long(_line_columns(path, fh, header, col))
        except ValidationError:
            pass
        with _open_csv(path) as fh:
            rows = _rows(path, fh)
            try:
                header, col = _long_header(path, rows)
            except ValidationError:
                for _ in rows:  # a malformed row further on comes first
                    pass
                raise
            rows = list(rows)
        _check_long_rows(header, rows, col)
        return _load_long(_row_columns(header, iter(rows), col))
    finally:
        if collecting:
            gc.enable()


def _load_long(chunks: Iterator[_Columns]) -> TemperaturePanel:
    """Check and assemble a long panel column-wise; any row-level fault
    raises `_unreported()`.

    On valid input every check is an array operation, and between chunks only
    arrays and ids are kept.
    """
    code_of: dict[str, int] = {}  # country id -> code, in the order ids first appear
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for chunk in chunks:
        if not np.isfinite(chunk.values).all():
            _unreported()
        code = {}  # country cell -> code
        for raw in set(chunk.countries):
            cid = raw.strip()
            if cid not in code_of:
                code_of[_detached(cid)] = len(code_of)
            code[raw] = code_of[cid]
        parts.append((np.fromiter(map(code.__getitem__, chunk.countries), dtype=np.int64,
                                  count=len(chunk.countries)), chunk.years, chunk.values))
    if not parts:
        raise ValidationError("long panel has a header but no observations")

    codes, years, values = map(np.concatenate, zip(*parts))
    del parts
    ids = sorted(code_of)
    rank = np.empty(len(ids), dtype=np.int64)
    rank[list(map(code_of.__getitem__, ids))] = np.arange(len(ids))
    codes = rank[codes]
    order = np.lexsort((years, codes))
    codes, years = codes[order], years[order]
    if ((codes[1:] == codes[:-1]) & (years[1:] == years[:-1])).any():
        _unreported()
    first, last = int(years.min()), int(years.max())
    span = last - first + 1
    if len(ids) * span != len(codes):
        raise ValidationError(_gap_message(ids, codes, years, first, last,
                                           len(ids) * span - len(codes)))
    if not ids[0]:  # ids are stripped and sorted, so a blank one comes first
        raise ValidationError("country id must be a non-empty string")
    # Without duplicates or gaps, (country, year) order is the grid's row-major order.
    return TemperaturePanel(ids=ids, years=tuple(range(first, last + 1)),
                            values=values[order].reshape(len(ids), span))


def _row_columns(header: list[str], rows: Iterator[tuple[int, list[str]]],
                 col: dict[str, int]) -> Iterator[_Columns]:
    """Numbered csv rows, `_ROW_CHUNK` at a time, by column. A row shorter
    than the header, or a year or temperature that does not convert, raises
    `_unreported()`."""
    while chunk := list(islice(rows, _ROW_CHUNK)):
        _, cells = zip(*chunk)
        if min(map(len, cells)) < len(header):
            _unreported()

        def column(idx: int) -> list[str]:
            return list(map(itemgetter(idx), cells))
        try:
            years = np.array(column(col["year"]), dtype=np.int64)
            values = np.array(column(col["temperature"]), dtype=float)
        except (ValueError, OverflowError):
            _unreported()
        yield _Columns(column(col["country"]), years, values)


def _line_columns(path: Path, fh: Iterator[str], header: list[str],
                  col: dict[str, int]) -> Iterator[_Columns]:
    """The rest of an open long file, `_ROW_CHUNK` lines at a time, by column.

    np.loadtxt reads a chunk's non-blank lines, the header's last column
    included, so that a row shorter than the header fails it. This is
    `load_panel`'s first pass: a fault raises `_unreported()`. From the first
    chunk np.loadtxt cannot take, `_rows` reads that chunk and the rest of
    the file, and `_row_columns` converts them: a chunk np.loadtxt could read
    otherwise than the csv module (a `_CSV_ONLY` character, a line past the
    csv field size limit), one with no non-blank line (np.loadtxt warns on no
    lines at all), and one it fails or warns on (an older numpy reads a year
    "1901.5" as 1901 with a DeprecationWarning). Their line numbers count
    from that chunk, but this pass reports no fault.
    """
    usecols = sorted({*col.values(), len(header) - 1})
    kinds = {col["year"]: np.int64, col["temperature"]: np.float64}
    dtype = [(str(i), kinds.get(i, object)) for i in usecols]
    limit = csv.field_size_limit()
    while True:
        try:
            lines = list(islice(fh, _ROW_CHUNK))
        except UnicodeDecodeError:
            raise undecodable(path) from None
        if not lines:
            return
        text = "".join(lines)
        nonblank = list(filter(str.strip, lines))
        plain = nonblank and not (any(map(text.__contains__, _CSV_ONLY))
                                  or len(text) > limit and max(map(len, lines)) > limit)
        cells = _loadtxt(nonblank, usecols, dtype) if plain else None
        if cells is None:
            yield from _row_columns(header, _rows(path, chain(lines, fh)), col)
            return
        # Copies, so that the kept arrays do not hold the ids alive.
        yield _Columns(cells[col["country"]].tolist(), cells[col["year"]].copy(),
                       cells[col["temperature"]].copy())


def _unreported() -> NoReturn:
    """A first-pass fault: the whole-file pass finds and reports it."""
    raise ValidationError("long panel rows failed a check but no row is at fault")


def _loadtxt(lines: list[str], usecols: list[int], dtype: list[tuple[str, type]]
             ) -> dict[int, np.ndarray] | None:
    """np.loadtxt's columns of comma-separated `lines` by index; None when it
    fails or warns."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return dict(zip(usecols, np.loadtxt(lines, delimiter=",", comments=None, dtype=dtype,
                                                usecols=usecols, unpack=True, ndmin=1)))
    except (ValueError, Warning):
        return None


def _detached(text: str) -> str:
    """A copy of a CSV cell that shares no memory with the parsed rows.

    A string kept after loading pins the allocator arena it sits in. Ids
    taken straight from the parsed rows would keep the memory of the chunks
    they came from resident for the rest of the run: a country's first row
    may fall in any chunk of 1,024 rows, so any chunk may hold ids.
    """
    return text.encode().decode()


def _gap_message(ids: list[str], codes: np.ndarray, years: np.ndarray,
                 first: int, last: int, n_missing: int) -> str:
    """List the first 10 missing (country, year) cells, country-major.

    `codes` and `years` are sorted by (country, year) and hold no duplicate,
    so walking each country's years finds its gaps without materialising the
    ids x years grid, which a single mistyped year would make huge.
    """
    shown: list[str] = []
    starts = np.searchsorted(codes, np.arange(len(ids) + 1))
    for code, cid in enumerate(ids):
        expected = first
        for year in years[starts[code]:starts[code + 1]].tolist() + [last + 1]:
            while expected < year and len(shown) < 10:
                shown.append(f"{cid}/{expected}")
                expected += 1
            expected = year + 1
        if len(shown) == 10:
            break
    more = "" if n_missing <= 10 else f" (+{n_missing - 10} more)"
    return f"missing observations: {', '.join(shown)}{more}"


def _check_long_rows(header: list[str], rows: list[tuple[int, list[str]]],
                     col: dict[str, int]) -> None:
    """Raise a long panel's first row-level fault, row by row in file order;
    return when there is none. A year that is an integer but does not fit in
    64 bits is raised only once every row has passed."""
    seen: set[tuple[str, int]] = set()
    out_of_range: str | None = None
    for line, row in rows:
        if len(row) < len(header):
            raise ValidationError(f"line {line}: expected {len(header)} columns, got {len(row)}")
        country = row[col["country"]].strip()
        year_text = row[col["year"]].strip()
        try:
            year = int(year_text)
        except ValueError:
            raise ValidationError(
                f"line {line}: non-integer year {year_text!r} for country {country!r}"
            ) from None
        if out_of_range is None and not _YEAR_MIN <= year <= _YEAR_MAX:
            out_of_range = f"line {line}: year {year_text!r} for country {country!r} is out of range"
        _parse_temperature(row[col["temperature"]].strip(), country, year)
        if (country, year) in seen:
            raise ValidationError(f"duplicate entry for country {country!r}, year {year}")
        seen.add((country, year))
    if out_of_range:
        raise ValidationError(out_of_range)


def attach_zones(panel: TemperaturePanel, path: str | Path) -> TemperaturePanel:
    """Return a copy of the panel whose zones are those of a zones file.

    The file is a CSV with header `country,zone` plus optional `name`, `area`.
    Row by row, in file order: each row is as wide as the header, its id is in
    the panel, and its non-blank values agree with the country's earlier ones.
    Then country by country, in panel order: the area is a finite number, the
    zone one of ZONES and the area not negative. `name` and `area` are not
    kept. The copy holds exactly the file's zones, None where the file gives
    none: any zones the panel held are replaced.
    """
    path = Path(path)
    header, rows = _read_rows(path)
    if "country" not in header or "zone" not in header:
        raise ValidationError("zone file header must contain `country` and `zone`")
    cols = _column_index(header, ["country", *_META_COLUMNS], "zone file")
    id_col = cols.pop("country")
    table: dict[str, dict[str, str]] = {}
    for line, row in rows:
        if len(row) < len(header):
            raise ValidationError(f"{path}:{line}: expected {len(header)} columns, got {len(row)}")
        country = row[id_col].strip()
        if country not in panel.id_index:
            raise ValidationError(f"{path}:{line}: unknown country id {country!r} in zone file")
        entry = table.setdefault(country, {})
        for name, idx in cols.items():
            text = row[idx].strip()
            if text and entry.setdefault(name, text) != text:
                raise ValidationError(f"conflicting {name} for country {country!r}: "
                                      f"{entry[name]!r} vs {text!r}")
    zones = []
    for cid in panel.ids:
        entry = table.get(cid, {})
        try:
            area = float(entry.get("area", 0))
        except ValueError:
            area = np.nan
        if not np.isfinite(area):
            raise ValidationError(f"non-numeric area {entry['area']!r} for country {cid!r}")
        zone = entry.get("zone")
        if zone is not None and zone not in ZONES:
            raise ValidationError(f"unknown zone {zone!r} for country {cid!r}; "
                                  f"expected one of {sorted(ZONES)}")
        if area < 0:
            raise ValidationError(f"negative land area for country {cid!r}")
        zones.append(zone)
    # Sharing panel.values instead raised wide-k800 cluster peak RSS 42.6 -> 43.2 MiB.
    return TemperaturePanel(ids=panel.ids, years=panel.years, values=panel.values.copy(),
                            zones=zones)


def load_adjacency(path: str | Path, panel: TemperaturePanel) -> np.ndarray:
    """Load an undirected edge list CSV (`country_a,country_b`) for the panel.

    Returns the read-only, symmetric boolean N x N border matrix in panel
    order; a country absent from the file has an all-False row. Unknown ids
    and self-edges are hard errors, and a repeated edge is one border.
    """
    path = Path(path)
    header, rows = _read_rows(path)
    if header[:2] != ["country_a", "country_b"]:
        raise ValidationError("adjacency header must be `country_a,country_b`")
    _column_index(header, ["country_a", "country_b"], "adjacency")
    index = panel.id_index
    edges = []
    for line, row in rows:
        if len(row) < 2:
            raise ValidationError(f"{path}:{line}: adjacency row needs two country ids")
        a, b = row[0].strip(), row[1].strip()
        for cid in (a, b):
            if cid not in index:
                raise ValidationError(f"{path}:{line}: unknown country id {cid!r} in adjacency")
        if a == b:
            raise ValidationError(f"{path}:{line}: self-edge for country {a!r}")
        edges.append((index[a], index[b]))
    a, b = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    borders = np.zeros((panel.n_countries, panel.n_countries), dtype=bool)
    borders[a, b] = borders[b, a] = True
    borders.setflags(write=False)
    return borders


def split_panel(panel: TemperaturePanel, last_train_year: int) -> tuple[TemperaturePanel, TemperaturePanel]:
    """Split by year into train (start..last_train_year) and test (the rest).

    `last_train_year` must lie strictly inside the panel's year range so both
    halves are non-empty and train keeps at least two years.
    """
    first, last = panel.years[0], panel.years[-1]
    if not (first < last_train_year < last):
        raise ValidationError(
            f"last_train_year {last_train_year} must be strictly inside {first}..{last}"
        )
    cut = panel.year_index(last_train_year) + 1
    train = TemperaturePanel(ids=panel.ids, years=panel.years[:cut],
                             values=panel.values[:, :cut].copy(), zones=panel.zones)
    test = TemperaturePanel(ids=panel.ids, years=panel.years[cut:],
                            values=panel.values[:, cut:].copy(), zones=panel.zones)
    return train, test
