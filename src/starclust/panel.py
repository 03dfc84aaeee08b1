"""Country-by-year temperature panel: loading, validation, splitting, adjacency,
and the one CSV reader and result-file writers of the package.

The panel is a dense N x T matrix of annual mean temperatures (degrees C)
plus each country's geographical zone; borders are a boolean N x N matrix in
the same country order. A panel CSV holds temperatures only: zones, with a
country's optional name and area, come from a zones file (`attach_zones`).
Validation is strict: gaps, duplicates, and non-numeric cells are hard
errors, never imputed. One loader validates both CSV layouts: a wide file is
checked for its layout, then its cells are read as the rows of a long file.
Panels are read a chunk of rows at a time, so loading memory does not grow
with panel length; np.loadtxt tokenizes a long file's lines up to the first
chunk it cannot read as the csv module does (see `load_panel`). CSV inputs
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
from functools import cached_property, partial
from itertools import chain, compress, islice, tee
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, NoReturn, TextIO

import numpy as np

from .errors import ValidationError, undecodable

# Closed set of geographical zones, in the order cross-tabulations list them.
ZONES = ("Europe", "Asia", "Eurasia", "Africa",
         "North America", "Central America", "South America", "Oceania")

_LONG_HEADER = ("country", "year", "temperature")
# Years are parsed as 64-bit integers.
_YEAR_MIN, _YEAR_MAX = -2**63, 2**63 - 1
_META_COLUMNS = ("name", "zone", "area")
# Long-format rows read and parsed at once; a wider file's chunks hold about
# as many cells, _ROW_CHUNK * len(_LONG_HEADER), in fewer rows.
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


def _row_reader(path: Path, lines: Iterable[str]) -> Callable[[int | None], list[list[str]]]:
    """`take(n)`: the next n non-blank rows the csv module reads from `lines`,
    or all of them when n is None.

    A row is blank when all its cells are empty or whitespace. An undecodable
    byte or a malformed row raises ValidationError once the reader reaches it.
    The reader reads no line past the rows it returns.
    """
    reader = csv.reader(lines)
    rows, texts = tee(reader)
    rows = compress(rows, map(str.strip, map("".join, texts)))

    def take(n: int | None) -> list[list[str]]:
        try:
            return list(islice(rows, n))
        except UnicodeDecodeError:
            raise undecodable(path) from None
        except csv.Error as exc:
            raise ValidationError(f"{path}:{reader.line_num}: {exc}") from None
    return take


def _csv_rows(path: Path) -> list[list[str]]:
    """A CSV file's non-blank rows, header first."""
    with _open_csv(path) as fh:
        return _row_reader(path, fh)(None)


def _csv_chunks(path: Path, fh: Iterator[str]) -> Iterator[list[list[str]]]:
    """The non-blank rows of `fh`, an open CSV file, about a chunk of cells at
    a time: the header alone, then the data rows.

    A chunk holds `_ROW_CHUNK` rows as wide as the long header, and fewer of
    a wider header's rows: a wide panel row holds a cell per year. An
    undecodable byte or a malformed row raises ValidationError once the
    reader reaches it, after the chunks before it were yielded. No line past
    the header is read before the data rows are asked for.
    """
    take = _row_reader(path, fh)
    chunk = take(1)
    if not chunk:
        return
    width = max(len(chunk[0]), len(_LONG_HEADER))
    yield chunk
    yield from iter(partial(take, max(1, _ROW_CHUNK * len(_LONG_HEADER) // width)), [])


def _data_line(path: Path, i: int) -> int:
    """Data row i's physical line, as `csv.reader`'s `line_num` gave it.

    Only error messages need line numbers, so the file is read again, up to
    row i only: a mid-stream fault is looked up before the reader has reached
    an undecodable byte or malformed row further on, which must not fail here.
    """
    with path.open(newline="", encoding="utf-8-sig", errors="replace") as fh:
        reader = csv.reader(fh)
        lines = (reader.line_num for row in reader if "".join(row).strip())
        return next(islice(lines, i + 1, None))


def _read_rows(path: str | Path) -> tuple[list[str], list[list[str]], Callable[[int], str]]:
    """The header, stripped and lower-cased, the non-blank data rows, and `where(i)`:
    `<file>:<line>` for data row i's physical line, the prefix of a message about it."""
    path = Path(path)
    rows = _csv_rows(path)
    if not rows:
        raise ValidationError(f"empty file: {path}")
    return ([cell.strip().lower() for cell in rows[0]], rows[1:],
            lambda i: f"{path}:{_data_line(path, i)}")


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


def detect_format(header: list[str]) -> str:
    """Classify a CSV header as 'long' or 'wide'."""
    lowered = [h.lower() for h in header]
    if all(col in lowered for col in _LONG_HEADER):
        return "long"
    year_like = [h for h in lowered if h.removeprefix("-").isdecimal()]
    if lowered and lowered[0] == "country" and year_like:
        return "wide"
    raise ValidationError(
        "cannot detect panel format: expected long header "
        "(country,year,temperature) or wide header (country,<year>,<year>,...)"
    )


def load_panel(path: str | Path) -> TemperaturePanel:
    """Load and validate a temperature panel from CSV.

    Accepts the long layout (`country,year,temperature`) or the wide layout
    (one row per country with year columns), told apart by `detect_format`.
    A wide file is checked for its layout only, then validated as the long
    rows it holds. A `name`, `zone` or `area` column is a ValidationError:
    the panel holds temperatures only, and zones come from `attach_zones`.

    The file is parsed a chunk at a time, and that pass only detects, since
    in a whole-file read an undecodable byte further on, or a wide file's
    repeated country row, comes before a bad cell. So a file that fails a
    check is read again whole, and its rows are checked in file order before
    the panel is assembled. Only that pass reports.

    The csv module reads every header, every wide file, and the whole of the
    reporting pass. In the first pass np.loadtxt tokenizes and converts a
    long file's data lines up to the first chunk it cannot read as the csv
    module does, and the csv module reads the rest (see `_line_columns`):
    the benchmark's 97,600-row file loads in 47 ms instead of 96 (fastest of
    9 loads, 2-vCPU VM). Both tokenizers give the same panel or message.

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
                return _parse_panel(path, _csv_chunks(path, fh), fh)
        except ValidationError:
            pass
        return _parse_panel(path, iter([_csv_rows(path)]))
    finally:
        if collecting:
            gc.enable()


def _parse_panel(path: Path, chunks: Iterator[list[list[str]]],
                 lines: Iterator[str] | None = None) -> TemperaturePanel:
    """Parse a panel from chunks of a CSV file's non-blank rows, header first.

    With `lines`, the open file the chunks come from (the first pass), a long
    file's data is read from its lines by `_line_columns`, and a row fault
    raises `_unreported()`. Without, the rows are one chunk, checked by
    `_check_long_rows` before assembly, and a message gives `line` a row's
    data-row number."""
    first = next(chunks, [])
    if not first:
        raise ValidationError(f"empty file: {path}")
    header = [cell.strip() for cell in first.pop(0)]
    rows = chain([first], chunks)
    line = partial(_data_line, path) if lines is None else None
    wide = detect_format(header) == "wide"
    for name in header:
        if name.lower() in _META_COLUMNS:
            raise ValidationError(f"panel column {name!r} is not read: a country's "
                                  "name, zone and area belong in the zones file")
    if wide:
        header, rows = _wide_as_long(header, rows, line)
    # The header holds all of `_LONG_HEADER`, as `detect_format` found it or
    # `_wide_as_long` wrote it.
    col = _column_index([h.lower() for h in header], _LONG_HEADER, "panel")
    if lines is None:
        rows = list(rows)
        for chunk in rows:
            _check_long_rows(header, chunk, col, line)
    elif not wide:
        return _load_long(_line_columns(path, lines, header, col))
    return _load_long(_row_columns(header, rows, col))


def _wide_as_long(header: list[str], chunks: Iterator[list[list[str]]],
                  line: Callable[[int], int] | None
                  ) -> tuple[list[str], Iterator[list[list[str]]]]:
    """Check the wide layout and recast it as one long row per cell.

    Checked here: year columns named once, consecutive once sorted and
    within 64 bits, rows as long as the header, no country row repeated.
    Cells are left to `_row_columns` and `_load_long`, which see
    `country,year,temperature` rows in file order.
    """
    lowered = [h.lower() for h in header]
    _column_index(lowered, ["country"], "panel")
    year_cols = sorted((int(h), i) for i, h in enumerate(lowered)
                       if h.removeprefix("-").isdecimal())
    years = [year for year, _ in year_cols]
    for (prev, _), (cur, i) in zip(year_cols, year_cols[1:]):
        if cur == prev:
            raise ValidationError(f"panel header repeats column {lowered[i]!r}")
        if cur != prev + 1:
            raise ValidationError(f"wide panel year columns not consecutive: {prev} then {cur}")
    for year in (years[0], years[-1]):
        if not _YEAR_MIN <= year <= _YEAR_MAX:
            raise ValidationError(f"wide panel year column {year} is out of range")
    cells = [(str(year), i) for year, i in year_cols]
    return list(_LONG_HEADER), _wide_rows_as_long(len(header), chunks, cells, line)


def _wide_rows_as_long(width: int, chunks: Iterator[list[list[str]]],
                       cells: list[tuple[str, int]],
                       line: Callable[[int], int] | None) -> Iterator[list[list[str]]]:
    """Recast each chunk of wide rows as long rows; the repeat check spans chunks.

    A chunk's rows all pass the wide checks before any is recast. A chunk
    holds about as many cells as a long file's chunk, so its long rows take
    about as much memory as a long chunk's rows. Without `line`, in the first
    pass, a short or repeated row raises `_unreported()`.
    """
    seen: set[str] = set()
    for rows in chunks:
        for n, row in enumerate(rows):
            country = row[0].strip()
            if line is None and (len(row) < width or country in seen):
                _unreported()
            if len(row) < width:
                raise ValidationError(f"line {line(n)}: expected {width} columns, got {len(row)}")
            if country in seen:
                raise ValidationError(f"duplicate country row for {country!r}")
            seen.add(country)
        yield [[row[0], year, row[i]] for row in rows for year, i in cells]
    if not seen:
        raise ValidationError("panel must have at least one country and one year")


def _load_long(chunks: Iterator[_Columns]) -> TemperaturePanel:
    """Check and assemble a long panel column-wise; any row-level fault
    raises `_unreported()`.

    On valid input every check is an array operation, and between chunks only
    arrays and ids are kept. A wide file's rows can fail only on cells, whose
    messages name the country and year, not a line.
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


def _row_columns(header: list[str], chunks: Iterable[list[list[str]]],
                 col: dict[str, int]) -> Iterator[_Columns]:
    """Chunks of csv rows by column. A row shorter than the header, or a year
    or temperature that does not convert, raises `_unreported()`."""
    for rows in chunks:
        if not rows:
            continue
        if min(map(len, rows)) < len(header):
            _unreported()

        def column(idx: int) -> list[str]:
            return list(map(itemgetter(idx), rows))
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
    chunk np.loadtxt cannot take, `_row_columns` reads the rest of the file:
    a chunk it could read otherwise than the csv module (a `_CSV_ONLY`
    character, a line past the csv field size limit), one with no non-blank
    line (np.loadtxt warns on no lines at all), and one it fails or warns on
    (an older numpy reads a year "1901.5" as 1901 with a DeprecationWarning).
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
            rest = iter(partial(_row_reader(path, chain(lines, fh)), _ROW_CHUNK), [])
            yield from _row_columns(header, rest, col)
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
    they came from resident for the rest of the run: chunks are sized in
    cells, so a wide file of 800 countries over 122 years is read about 24
    rows at a time, and every chunk holds ids.
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


def _check_long_rows(header: list[str], rows: list[list[str]], col: dict[str, int],
                     line: Callable[[int], int]) -> None:
    """Raise a long panel's first row-level fault, row by row in file order;
    return when there is none. A year that is an integer but does not fit in
    64 bits is raised only once every row has passed."""
    seen: set[tuple[str, int]] = set()
    out_of_range: str | None = None
    for i, row in enumerate(rows):
        if len(row) < len(header):
            raise ValidationError(f"line {line(i)}: expected {len(header)} columns, got {len(row)}")
        country = row[col["country"]].strip()
        year_text = row[col["year"]].strip()
        try:
            year = int(year_text)
        except ValueError:
            raise ValidationError(
                f"line {line(i)}: non-integer year {year_text!r} for country {country!r}"
            ) from None
        if out_of_range is None and not _YEAR_MIN <= year <= _YEAR_MAX:
            out_of_range = f"line {line(i)}: year {year_text!r} for country {country!r} is out of range"
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
    header, rows, where = _read_rows(path)
    if "country" not in header or "zone" not in header:
        raise ValidationError("zone file header must contain `country` and `zone`")
    cols = _column_index(header, ["country", *_META_COLUMNS], "zone file")
    id_col = cols.pop("country")
    table: dict[str, dict[str, str]] = {}
    for i, row in enumerate(rows):
        if len(row) < len(header):
            raise ValidationError(f"{where(i)}: expected {len(header)} columns, got {len(row)}")
        country = row[id_col].strip()
        if country not in panel.id_index:
            raise ValidationError(f"{where(i)}: unknown country id {country!r} in zone file")
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
    header, rows, where = _read_rows(path)
    if header[:2] != ["country_a", "country_b"]:
        raise ValidationError("adjacency header must be `country_a,country_b`")
    _column_index(header, ["country_a", "country_b"], "adjacency")
    index = panel.id_index
    edges = []
    for i, row in enumerate(rows):
        if len(row) < 2:
            raise ValidationError(f"{where(i)}: adjacency row needs two country ids")
        a, b = row[0].strip(), row[1].strip()
        for cid in (a, b):
            if cid not in index:
                raise ValidationError(f"{where(i)}: unknown country id {cid!r} in adjacency")
        if a == b:
            raise ValidationError(f"{where(i)}: self-edge for country {a!r}")
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
