"""Best-track ingestion: parsing, filtering, windowing, matrix assembly.

Storms come either from RSMC Tokyo fixed-width best-track files or from a
portable CSV interchange format, and are held as columns. A storm is its
track: only each record's time, lat and lon are read. Checked at ingest:
latitudes lie in [-90, 90]; longitudes in [0, 360), into which CSV
longitudes in [-180, 0) are wrapped; times strictly increase per storm.
The models assume 6-hourly steps, which ``fofcast ingest`` counts, not checks.
An RSMC file is read from the open file a piece at a time, and the fields
of each piece's complete storms are read at once, so the whole text is
never held; a CSV text is read whole.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import LengthError, ParseError, SchemaError, ShapeError, ValidationError

TIME_FORMAT = "%Y-%m-%d %H:%M:%S"
# an RSMC data line is read up to the end of its lon field, columns 19-22
RSMC_WIDTH = 23
# characters of RSMC text read, and held as line strings, at a time
RSMC_PIECE = 1 << 18


@dataclass(frozen=True, eq=False)
class StormRecordSet:
    """All observations of one storm in time order, as columns: int64 ``times`` (s
    since 1970), lat and lon."""

    storm_id: str
    name: str
    times: np.ndarray
    lats: np.ndarray
    lons: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class DatasetMatrix:
    """p x n value matrix: rows are the points of ``time_grid(p)``, columns
    are storms."""

    values: np.ndarray
    storm_ids: tuple[str, ...]

    def __post_init__(self):
        if self.values.shape[1] != len(self.storm_ids):
            raise ShapeError("column count does not match storm id count")

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


def _lines(text: str) -> list[str]:
    """The lines of ``text``, NUL in a data line read as \x01: NumPy reads NUL
    as padding, and \x01 fails where NUL fails."""
    lines = text.splitlines()
    if "\x00" in text:
        lines = [s if s.startswith("66666") else s.replace("\x00", "\x01") for s in lines]
    return lines


def _pieces(source: TextIO | str) -> Iterator[str]:
    """``source`` cut right after a newline: a str about every RSMC_PIECE
    characters, a stream after the last newline of each read of RSMC_PIECE
    characters, whose rest is carried into the next. A cut there is a line
    boundary of str.splitlines, "\r\n" included."""
    if isinstance(source, str):
        start = 0
        while start < len(source):
            stop = source.find("\n", start + RSMC_PIECE) + 1 or len(source)
            yield source[start:stop]
            start = stop
        return
    held: list[str] = []   # the reads since the last newline, joined once
    while chunk := source.read(RSMC_PIECE):
        stop = chunk.rfind("\n") + 1
        if stop:
            yield "".join(held + [chunk[:stop]])
            held = []
        held.append(chunk[stop:])
    if rest := "".join(held):
        yield rest


def _cells(lines: list[str]) -> np.ndarray:
    """len(lines) x RSMC_WIDTH bytes: columns 0-22 of each line, NUL-padded,
    or ValueError if one of them is not ASCII."""
    try:   # the sliced copies below cost a fifth of the parse and 6 MB at peak
        cells = np.array(lines, f"S{RSMC_WIDTH}")
    except UnicodeEncodeError:   # NumPy encodes a whole line before it cuts it
        cells = np.array([line[:RSMC_WIDTH] for line in lines], f"S{RSMC_WIDTH}")
    return cells.view(np.uint8).reshape(len(lines), RSMC_WIDTH)


def _columns(cells: np.ndarray, offsets: list[int]) -> tuple[np.ndarray, ...]:
    """times, lat and lon of the RSMC data line ``cells`` of storms that start
    at ``offsets``, or ValueError; each field of all lines is read at once as
    Python's int() would read it."""
    n = len(cells)

    def number(start, stop):
        digits = cells[:, start:stop] - np.uint8(ord("0"))   # a non-digit wraps to >= 10
        values = np.zeros(n, np.int64)
        for c in range(stop - start):
            values *= 10
            values += digits[:, c]
        # signs, blanks and NUL padding: NumPy converts these rows as int() would
        other = np.flatnonzero((digits >= 10).any(axis=1))
        field = np.ascontiguousarray(cells[other, start:stop])
        values[other] = field.view(f"S{stop - start}").ravel().astype(np.int64)
        return values

    yy, month, day, hour = (number(a, a + 2) for a in (0, 2, 4, 6))
    # the archive spans 1951-2023
    months = ((yy + np.where(yy >= 51, 1900, 2000) - 1970) * 12
              + np.clip(month, 1, 12) - 1).astype("datetime64[M]")
    days = months.astype("datetime64[D]") + (day - 1)   # in another month if no such day
    if np.any((month < 1) | (month > 12) | (days.astype("datetime64[M]") != months)
              | (hour < 0) | (hour > 23)):
        raise ValueError("no such date")
    times = days.astype(np.int64) * 86400 + hour * 3600
    opens = np.zeros(n + 1, bool)
    opens[offsets] = True
    if np.any(~opens[1:-1] & (np.diff(times) <= 0)):
        raise ValueError("times not strictly increasing")
    lat, lon = number(15, 18) / 10.0, number(19, 23) / 10.0
    if not np.all((np.abs(lat) <= 90.0) & (lon >= 0.0) & (lon < 360.0)):
        raise ValueError("latitude outside [-90, 90] or longitude outside [0, 360)")
    return times, lat, lon


def _first_fault(text: str, blocks: list[tuple], pending: ParseError | None) -> ParseError:
    """parse_rsmc's error path: the first fault in file order, storm by storm,
    then line by line; ``pending`` is a fault that follows all ``blocks``."""
    lines = _lines(text)
    for start, storm_id, n_lines, _ in blocks:
        block = lines[start:start + n_lines]
        try:
            if len(block) == n_lines:
                _columns(_cells(block), [0])
                continue
        except ValueError:
            pass
        # a storm cut short ends as if a header followed
        for j, line in enumerate(block + ["66666"] * (len(block) < n_lines)):
            if line.startswith("66666"):
                return ParseError(f"storm {storm_id}: header declares {n_lines} "
                                  f"data lines, found {j}", start)
            try:
                _columns(_cells([line]), [0])
            except ValueError as exc:
                return ParseError(f"unparsable data line {line.rstrip()!r} ({exc})",
                                  start + j + 1)
        return ParseError(f"storm {storm_id}: timestamps not strictly increasing", start)
    return pending


def parse_rsmc(stream: TextIO | str) -> list[StormRecordSet]:
    """Parse an RSMC Tokyo best-track file into storm record sets.

    Header lines begin with indicator 66666 and declare how many data lines
    follow. Of the fixed-width data lines only yymmddhh (columns 0-7), lat*10
    (15-17) and lon*10 (19-22) are read, and columns 0-22 must be ASCII; the
    rest (grade, pressure, wind, radii, '#' mark) is not checked. ``stream``
    is a str or an open text file, which is read a piece at a time. Only one
    piece is held as line strings at a time: its headers are read one by one,
    columns 0-22 of its data lines are kept as bytes, and the fields of its
    complete storms are read at once; a storm the piece cuts waits for the
    next. The first fault in file order raises ParseError with its line
    number: that path reads the whole text again, from where a stream stood
    if it can seek; a stream that cannot is read whole first.
    """
    if not isinstance(stream, str) and not stream.seekable():
        stream = stream.read()
    origin = None if isinstance(stream, str) else stream.tell()
    blocks: list[tuple[int, str, int, str]] = []  # (first data line index, id, count, name)
    offsets = [0]       # rows of each block among all data lines
    columns = []        # times, lat and lon of the complete storms of each piece
    carry = np.empty((0, RSMC_WIDTH), np.uint8)   # cells of the storm a piece cut
    done = 0            # storms whose fields are read
    first = 0           # lines of the text before the piece
    owed = 0            # data lines of the last storm in the pieces to come

    def fault(pending: ParseError | None = None) -> ParseError:
        if origin is None:
            return _first_fault(stream, blocks, pending)
        stream.seek(origin)
        return _first_fault(stream.read(), blocks, pending)

    for piece in _pieces(stream):
        lines = _lines(piece)
        data, i = lines[:owed], owed
        while i < len(lines):
            if not lines[i].strip():
                i += 1
                continue
            try:
                storm_id, n_lines, name = _rsmc_header(lines[i], first + i + 1)
            except ParseError as exc:
                raise fault(exc) from None
            blocks.append((first + i + 1, storm_id, n_lines, name))
            offsets.append(offsets[-1] + n_lines)
            data += lines[i + 1:i + 1 + n_lines]
            i += 1 + n_lines
        first, owed = first + len(lines), i - len(lines)
        complete = len(blocks) - (owed > 0)
        rows = offsets[complete] - offsets[done]
        try:
            cells = np.concatenate([carry, _cells(data)])
            columns.append(_columns(cells[:rows], [o - offsets[done]
                                                   for o in offsets[done:complete]]))
        except ValueError:
            raise fault() from None
        carry, done = cells[rows:], complete
        del lines, data   # before the next piece is split
    if owed:   # the last storm is cut short
        raise fault()
    columns = [np.concatenate(column) for column in zip(*columns)]
    for column in columns:
        column.flags.writeable = False
    return [StormRecordSet(storm_id, name, *(column[a:b] for column in columns))
            for (_, storm_id, _, name), a, b in zip(blocks, offsets, offsets[1:])]


CSV_REQUIRED = ("storm_id", "time", "lat", "lon")


def parse_csv(stream: TextIO | str) -> list[StormRecordSet]:
    """Parse the CSV interchange format (storm_id,time,lat,lon[,name], other
    columns ignored); longitudes in [-180, 0) are wrapped into [0, 360). Each
    storm's rows are put in time order; a storm's first row gives its name."""
    if isinstance(stream, str):
        stream = io.StringIO(stream, newline="")   # csv reads the line ends itself
    reader = csv.DictReader(stream)
    # storm id -> rows of (line number, time, lat, lon)
    by_storm: dict[str, list[tuple]] = {}
    names: dict[str, str] = {}
    try:
        if reader.fieldnames is None:
            return []
        missing = [c for c in CSV_REQUIRED if c not in reader.fieldnames]
        if missing:
            raise SchemaError(f"missing required columns: {', '.join(missing)}", line_no=1)
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
                # a tiny negative longitude wraps to 360.0 by rounding; the
                # second % takes that to 0.0
                values = (reader.line_num, datetime.strptime(row["time"], TIME_FORMAT),
                          lat, lon % 360.0 % 360.0)
            except (ValueError, OverflowError, ValidationError) as exc:
                raise ValidationError(f"storm {sid}: {exc}", line_no=reader.line_num) from exc
            by_storm.setdefault(sid, []).append(values)
            names.setdefault(sid, row.get("name") or "")
    except csv.Error as exc:   # the reader counts the lines of whole records only
        raise ParseError(str(exc), line_no=reader.line_num + 1) from exc

    storms = []
    for sid, rows in by_storm.items():
        line_nos, times, lats, lons = zip(*rows)
        times = np.array(times, "datetime64[s]").astype(np.int64)
        order = np.argsort(times, kind="stable")
        duplicates = np.flatnonzero(np.diff(times[order]) == 0)
        if duplicates.size:
            raise ValidationError(f"storm {sid}: duplicate timestamps",
                                  line_no=line_nos[order[duplicates[0] + 1]])
        if np.any(order != np.arange(len(rows))):
            warnings.warn(f"storm {sid}: rows out of time order, sorting",
                          stacklevel=2)
        lats, lons = np.array([lats, lons])[:, order]
        storms.append(StormRecordSet(sid, names[sid], times[order], lats, lons))
    return storms


def write_csv(storms: Iterable[StormRecordSet], stream: TextIO) -> None:
    """Write storms in the CSV interchange format, which parse_csv reads back bit for bit."""
    writer = csv.writer(stream)
    writer.writerow(CSV_REQUIRED + ("name",))
    for storm in storms:
        for time, lat, lon in zip(storm.times.astype("datetime64[s]").tolist(),
                                  storm.lats.tolist(), storm.lons.tolist()):
            writer.writerow([storm.storm_id, time.isoformat(" "), repr(lat), repr(lon),
                             storm.name])


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
    columns = [getattr(storm, f)[-total_len:] for f in ("times", "lats", "lons")]
    for column in columns:
        column.flags.writeable = False
    return StormRecordSet(storm.storm_id, storm.name, *columns)


def time_grid(total_len: int) -> np.ndarray:
    """Observation indices 1..L mapped affinely onto [0, 1]."""
    return np.linspace(0.0, 1.0, total_len)


def build_matrices(windows: Sequence[StormRecordSet]
                   ) -> tuple[DatasetMatrix, DatasetMatrix]:
    """Assemble (lat, lon) p x n matrices, one column per window of equal length;
    a window's longitudes may leave [0, 360) where its track crosses 0/360."""
    if not windows:
        raise ShapeError("no windows to assemble")
    L = len(windows[0])
    for w in windows:
        if len(w) != L:
            raise ShapeError(f"window {w.storm_id} has {len(w)} records, expected {L}")
    # copies, because the parsed ids lie among the freed parse objects and
    # would keep the memory pages of all of them mapped
    ids = tuple(w.storm_id.encode().decode() for w in windows)
    lat = np.column_stack([w.lats for w in windows])
    lon = np.unwrap(np.column_stack([w.lons for w in windows]), period=360.0, axis=0)
    return (DatasetMatrix(values=lat, storm_ids=ids),
            DatasetMatrix(values=lon, storm_ids=ids))


def train_count(n: int, ratio: float) -> int:
    """floor(ratio * n), the training storms of a split of ``n``; ValueError
    unless both parts hold a storm."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be in (0, 1)")
    n_train = int(np.floor(ratio * n))
    if not 0 < n_train < n:
        raise ValueError(f"ratio {ratio} of {n} storms leaves {n_train} training "
                         f"and {n - n_train} test storms; need at least one of each")
    return n_train


def train_test_split(n: int, ratio: float,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded disjoint index partition; train size is ``train_count(n, ratio)``."""
    n_train = train_count(n, ratio)
    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])
