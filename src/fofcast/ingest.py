"""Best-track ingestion: parsing, filtering, windowing, matrix assembly.

Storms come either from RSMC Tokyo fixed-width best-track files or from a
portable CSV interchange format, and are held as columns. Downstream
modeling only consumes the lat/lon series; the remaining best-track
variables are parsed and kept but never enter the models. Checked at
ingest: latitudes lie in [-90, 90]; longitudes in [0, 360), into which CSV
longitudes in [-180, 0) are wrapped; times strictly increase per storm.
The models assume 6-hourly steps, which ``fofcast ingest`` counts, not checks.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import LengthError, ParseError, SchemaError, ShapeError, ValidationError

TIME_FORMAT = "%Y-%m-%d %H:%M:%S"
# columns [start, stop) of the optional fields (grade, pressure, wind, four
# radii) in an RSMC data line; the landfall mark '#' is column 71, the last read
RSMC_OPTIONAL = ((13, 14), (24, 28), (33, 36), (42, 46), (47, 51), (53, 57), (58, 62))
RSMC_WIDTH = 72
# bytes that leave an optional field blank: NUL pads a short line
BLANK = np.isin(np.arange(256), list(b"\x00\t "))


@dataclass(frozen=True)
class StormRecord:
    """One 6-hourly best-track observation: a row of a StormRecordSet."""

    time: datetime
    grade: int | None
    lat: float
    lon: float
    central_pressure: float | None = None
    max_wind: float | None = None
    # (dir of longest 50kt radius, longest 50kt, shortest 50kt is folded in
    # below) -- four optional radii fields in nautical miles
    radius_long_50kt: float | None = None
    radius_short_50kt: float | None = None
    radius_long_30kt: float | None = None
    radius_short_30kt: float | None = None
    landfall: bool = False


@dataclass(frozen=True, eq=False)
class StormRecordSet:
    """All observations of one storm in time order, as columns: int64 ``times`` (s
    since 1970), lat, lon, StormRecord's optional fields (NaN if absent), landfall."""

    storm_id: str
    name: str
    times: np.ndarray
    lats: np.ndarray
    lons: np.ndarray
    optional: np.ndarray
    landfall: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    @classmethod
    def from_records(cls, storm_id: str, name: str,
                     records: Sequence[StormRecord]) -> StormRecordSet:
        """The storm of ``records``, whose times must strictly increase."""
        times = np.array([r.time for r in records], "datetime64[s]").astype(np.int64)
        if not records or np.any(np.diff(times) <= 0):
            raise ValidationError(f"storm {storm_id}: no records or times not increasing")
        # the fields after time: grade, lat, lon, six optional floats, landfall
        table = np.array([list(vars(r).values())[1:] for r in records], dtype=float)
        return cls(storm_id, name, times, table[:, 1], table[:, 2],
                   table[:, [0, 3, 4, 5, 6, 7, 8]], table[:, 9] == 1)

    @property
    def records(self) -> tuple[StormRecord, ...]:
        """The observations as rows, built on each call."""
        rows = zip(self.times.astype("datetime64[s]").tolist(), self.lats.tolist(),
                   self.lons.tolist(), self.optional.tolist(), self.landfall.tolist())
        return tuple(StormRecord(t, None if math.isnan(g) else int(g), lat, lon,
                                 *(None if math.isnan(v) else v for v in rest), landfall=mark)
                     for t, lat, lon, (g, *rest), mark in rows)


@dataclass(frozen=True)
class DatasetMatrix:
    """p x n value matrix: rows are time points, columns are storms."""

    values: np.ndarray
    time_grid: np.ndarray
    storm_ids: tuple[str, ...]

    def __post_init__(self):
        p, n = self.values.shape
        if n != len(self.storm_ids):
            raise ShapeError("column count does not match storm id count")
        if p != len(self.time_grid):
            raise ShapeError("row count does not match time grid length")
        if np.any(np.diff(self.time_grid) <= 0):
            raise ShapeError("time grid must be strictly increasing")

    @property
    def n_storms(self) -> int:
        return self.values.shape[1]


def _rsmc_header(line: str, line_no: int) -> tuple[str, int, str]:
    """(storm id, declared data line count, name) of an RSMC header line."""
    tokens = line.split()
    if not line.startswith("66666") or len(tokens) < 3:
        raise ParseError(f"expected header '66666 <id> <count>', got {line!r}", line_no)
    try:
        n_lines = int(tokens[2])
    except ValueError as exc:
        raise ParseError(f"non-numeric record count {tokens[2]!r}", line_no) from exc
    if n_lines < 1:
        raise ParseError(f"storm {tokens[1]}: header declares {n_lines} data lines", line_no)
    return tokens[1], n_lines, line[30:50].strip()


def _columns(lines: list[str], offsets: list[int]) -> tuple[np.ndarray, ...]:
    """times, lat, lon, optional fields and landfall marks of the RSMC data lines of
    storms that start at ``offsets``, or ValueError; NumPy converts each field of
    all lines at once as Python's int() and float() would."""
    cells = np.array(lines, f"S{RSMC_WIDTH}").view(np.uint8).reshape(len(lines), RSMC_WIDTH)

    def number(start, stop, dtype=np.int64, rows=slice(None)):
        field = np.ascontiguousarray(cells[rows, start:stop])
        return field.view(f"S{stop - start}").ravel().astype(dtype)

    yy, month, day, hour = (number(a, a + 2) for a in (0, 2, 4, 6))
    # the archive spans 1951-2023
    months = ((yy + np.where(yy >= 51, 1900, 2000) - 1970) * 12
              + np.clip(month, 1, 12) - 1).astype("datetime64[M]")
    days = months.astype("datetime64[D]") + (day - 1)   # in another month if no such day
    if np.any((month < 1) | (month > 12) | (days.astype("datetime64[M]") != months)
              | (hour < 0) | (hour > 23)):
        raise ValueError("no such date")
    times = days.astype(np.int64) * 86400 + hour * 3600
    opens = np.zeros(len(lines) + 1, bool)
    opens[offsets] = True
    if np.any(~opens[1:-1] & (np.diff(times) <= 0)):
        raise ValueError("times not strictly increasing")
    lat, lon = number(15, 18) / 10.0, number(19, 23) / 10.0
    if not np.all((np.abs(lat) <= 90.0) & (lon >= 0.0) & (lon < 360.0)):
        raise ValueError("latitude outside [-90, 90] or longitude outside [0, 360)")
    # str.strip() drops a unit separator from an optional field; float() refuses it
    cells[cells == 0x1f] = ord(" ")
    optional = np.full((len(lines), len(RSMC_OPTIONAL)), np.nan)
    for j, (a, b) in enumerate(RSMC_OPTIONAL):
        present = ~BLANK[cells[:, a:b]].all(axis=1)
        values = number(a, b, np.float64, present)
        if j:   # RSMC writes 0 for "no analysis"; a grade of 0 is a grade
            values[values == 0] = np.nan
        optional[present, j] = values
    return times, lat, lon, optional, cells[:, RSMC_WIDTH - 1] == ord("#")


def _first_fault(data: list[str], offsets: list[int], blocks: list[tuple],
                 pending: ParseError | None) -> ParseError:
    """parse_rsmc's error path: the first fault in file order, storm by storm,
    then line by line; ``pending`` is a fault that follows all ``blocks``."""
    for (start, storm_id, n_lines, _), a, b in zip(blocks, offsets, offsets[1:]):
        block = data[a:b]
        try:
            if len(block) == n_lines:
                _columns(block, [0])
                continue
        except ValueError:
            pass
        # a storm cut short ends as if a header followed
        for j, line in enumerate(block + ["66666"] * (len(block) < n_lines)):
            if line.startswith("66666"):
                return ParseError(f"storm {storm_id}: header declares {n_lines} "
                                  f"data lines, found {j}", start)
            try:
                _columns([line], [0])
            except ValueError as exc:
                return ParseError(f"unparsable data line {line.rstrip()!r} ({exc})",
                                  start + j + 1)
        return ParseError(f"storm {storm_id}: timestamps not strictly increasing", start)
    return pending


def parse_rsmc(stream: TextIO | str) -> list[StormRecordSet]:
    """Parse an RSMC Tokyo best-track file into storm record sets.

    Header lines begin with indicator 66666 and declare how many data lines
    follow; data lines are fixed-width (yymmddhh, indicator, grade, lat*10,
    lon*10, pressure, wind, radii, landfall marker). The headers are read
    one by one, the data lines of all storms at once. The first fault in
    file order raises ParseError with its line number.
    """
    text = stream if isinstance(stream, str) else stream.read()
    # split in place: a StringIO copy of the text takes 4 bytes a character
    lines = text.splitlines()
    if "\x00" in text:   # NumPy reads NUL as padding; \x01 fails where NUL fails
        lines = [s if s.startswith("66666") else s.replace("\x00", "\x01") for s in lines]
    blocks: list[tuple[int, str, int, str]] = []  # (first data line index, id, count, name)
    offsets, data = [0], []                       # rows of each block in ``data``
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        try:
            storm_id, n_lines, name = _rsmc_header(lines[i], i + 1)
        except ParseError as exc:
            raise _first_fault(data, offsets, blocks, exc) from None
        blocks.append((i + 1, storm_id, n_lines, name))
        data += lines[i + 1:i + 1 + n_lines]
        offsets.append(len(data))
        i += 1 + n_lines
    try:
        if i > len(lines):
            raise ValueError("the last storm is cut short")
        columns = _columns(data, offsets[:-1])
    except ValueError:
        raise _first_fault(data, offsets, blocks, None) from None
    for column in columns:
        column.flags.writeable = False
    return [StormRecordSet(storm_id, name, *(column[a:b] for column in columns))
            for (_, storm_id, _, name), a, b in zip(blocks, offsets, offsets[1:])]


CSV_REQUIRED = ("storm_id", "time", "lat", "lon")
CSV_OPTIONAL = ("grade", "pressure", "wind")


def parse_csv(stream: TextIO | str) -> list[StormRecordSet]:
    """Parse the CSV interchange format (storm_id,time,lat,lon[,extras]);
    longitudes in [-180, 0) are wrapped into [0, 360)."""
    if isinstance(stream, str):
        stream = io.StringIO(stream, newline="")   # csv reads the line ends itself
    reader = csv.DictReader(stream)
    if reader.fieldnames is None:
        return []
    missing = [c for c in CSV_REQUIRED if c not in reader.fieldnames]
    if missing:
        raise SchemaError(f"missing required columns: {', '.join(missing)}", line_no=1)

    by_storm: dict[str, list[tuple[StormRecord, int]]] = {}
    names: dict[str, str] = {}
    for row in reader:
        sid = row["storm_id"]
        try:
            # a short row leaves its last fields None
            absent = [c for c in CSV_REQUIRED if row[c] is None]
            if absent:
                raise ValidationError(f"missing fields: {', '.join(absent)}")
            lat, lon = float(row["lat"]), float(row["lon"])
            if not (-90.0 <= lat <= 90.0 and -180.0 <= lon < 360.0):
                raise ValidationError(f"latitude {lat} outside [-90, 90] or "
                                      f"longitude {lon} outside [-180, 360)")
            rec = StormRecord(
                time=datetime.strptime(row["time"], TIME_FORMAT),
                grade=int(row["grade"]) if row.get("grade") else None,
                lat=lat,
                lon=lon % 360.0,
                central_pressure=float(row["pressure"]) if row.get("pressure") else None,
                max_wind=float(row["wind"]) if row.get("wind") else None,
            )
        except (ValueError, ValidationError) as exc:
            raise ValidationError(f"storm {sid}: {exc}", line_no=reader.line_num) from exc
        by_storm.setdefault(sid, []).append((rec, reader.line_num))
        names.setdefault(sid, row.get("name", "") or "")

    storms = []
    for sid, rows in by_storm.items():
        ordered = sorted(rows, key=lambda row: row[0].time)
        for (a, _), (b, line_no) in zip(ordered, ordered[1:]):
            if a.time == b.time:
                raise ValidationError(f"storm {sid}: duplicate timestamps",
                                      line_no=line_no)
        if ordered != rows:
            warnings.warn(f"storm {sid}: rows out of time order, sorting",
                          stacklevel=2)
        storms.append(StormRecordSet.from_records(sid, names[sid],
                                                  [rec for rec, _ in ordered]))
    return storms


def write_csv(storms: Iterable[StormRecordSet], stream: TextIO) -> None:
    """Write storms in the CSV interchange format (round-trips with parse_csv)."""
    writer = csv.writer(stream)
    writer.writerow(list(CSV_REQUIRED) + list(CSV_OPTIONAL))
    for storm in storms:
        for r in storm.records:
            writer.writerow([
                storm.storm_id,
                r.time.strftime(TIME_FORMAT),
                repr(r.lat),
                repr(r.lon),
                "" if r.grade is None else r.grade,
                "" if r.central_pressure is None else repr(r.central_pressure),
                "" if r.max_wind is None else repr(r.max_wind),
            ])


def filter_min_length(storms: Sequence[StormRecordSet],
                      min_len: int) -> list[StormRecordSet]:
    """Keep storms with at least ``min_len`` records, preserving order."""
    if min_len < 1:
        raise ValueError("min_len must be >= 1")
    return [s for s in storms if len(s) >= min_len]


def extract_tail(storm: StormRecordSet, total_len: int,
                 predictor_len: int) -> StormRecordSet:
    """The last ``total_len`` observations of a storm, as read-only views, for
    a window of ``predictor_len`` predictor and the rest response points."""
    if not 0 < predictor_len < total_len:
        raise ShapeError(f"predictor length {predictor_len} must lie strictly "
                         f"inside (0, {total_len})")
    if len(storm) < total_len:
        raise LengthError(
            f"storm {storm.storm_id} has {len(storm)} records, "
            f"needs {total_len}")
    columns = [getattr(storm, f)[-total_len:]
               for f in ("times", "lats", "lons", "optional", "landfall")]
    for column in columns:
        column.flags.writeable = False
    return StormRecordSet(storm.storm_id, storm.name, *columns)


def time_grid(total_len: int) -> np.ndarray:
    """Observation indices 1..L mapped affinely onto [0, 1]."""
    return np.linspace(0.0, 1.0, total_len)


def build_matrices(windows: Sequence[StormRecordSet]
                   ) -> tuple[DatasetMatrix, DatasetMatrix]:
    """Assemble (lat, lon) p x n matrices, one column per window of equal length."""
    if not windows:
        raise ShapeError("no windows to assemble")
    L = len(windows[0])
    for w in windows:
        if len(w) != L:
            raise ShapeError(f"window {w.storm_id} has {len(w)} records, expected {L}")
    grid = time_grid(L)
    # copies, because the parsed ids lie among the freed parse objects and
    # would keep the memory pages of all of them mapped
    ids = tuple(w.storm_id.encode().decode() for w in windows)
    lat = np.column_stack([w.lats for w in windows])
    lon = np.column_stack([w.lons for w in windows])
    return (DatasetMatrix(values=lat, time_grid=grid, storm_ids=ids),
            DatasetMatrix(values=lon, time_grid=grid, storm_ids=ids))


def train_test_split(n: int, ratio: float,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded disjoint index partition; train size is floor(ratio * n), and
    neither part may be empty."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be in (0, 1)")
    n_train = int(np.floor(ratio * n))
    if not 0 < n_train < n:
        raise ValueError(f"ratio {ratio} of {n} storms leaves {n_train} training "
                         f"and {n - n_train} test storms; need at least one of each")
    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])
