"""Best-track ingestion: parsing, filtering, windowing, matrix assembly.

Storms come either from RSMC Tokyo fixed-width best-track files or from a
portable CSV interchange format. Downstream modeling only consumes the
lat/lon series; the remaining best-track variables are parsed and kept but
never enter the models.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, field
from datetime import datetime
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import LengthError, ParseError, SchemaError, ShapeError, ValidationError

TIME_FORMAT = "%Y-%m-%d %H:%M:%S"


@dataclass(frozen=True)
class StormRecord:
    """One 6-hourly best-track observation."""

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

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValidationError(f"latitude {self.lat} outside [-90, 90]")
        if not 0.0 <= self.lon < 360.0:
            raise ValidationError(f"longitude {self.lon} outside [0, 360)")


@dataclass(frozen=True)
class StormRecordSet:
    """All observations of one storm, ordered by time."""

    storm_id: str
    name: str
    records: tuple[StormRecord, ...]

    def __post_init__(self):
        if not self.records:
            raise ValidationError(f"storm {self.storm_id}: no records")
        times = [r.time for r in self.records]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError(
                f"storm {self.storm_id}: timestamps not strictly increasing"
            )

    def __len__(self) -> int:
        return len(self.records)

    @property
    def lats(self) -> np.ndarray:
        return np.array([r.lat for r in self.records])

    @property
    def lons(self) -> np.ndarray:
        return np.array([r.lon for r in self.records])


@dataclass(frozen=True)
class TrajectoryWindow:
    """Fixed-length tail of a storm, split into predictor and response parts."""

    storm_id: str
    lat_series: np.ndarray
    lon_series: np.ndarray
    total_length: int
    predictor_length: int

    def __post_init__(self):
        if not 0 < self.predictor_length < self.total_length:
            raise ShapeError(
                f"predictor length {self.predictor_length} must lie strictly "
                f"inside (0, {self.total_length})"
            )
        if len(self.lat_series) != self.total_length:
            raise ShapeError("lat series length does not match total_length")
        if len(self.lon_series) != self.total_length:
            raise ShapeError("lon series length does not match total_length")


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


def _optional_float(token: str) -> float | None:
    token = token.strip()
    if not token:
        return None
    value = float(token)
    # RSMC writes 0 for "no analysis"; treat as absent rather than a value
    return value if value != 0 else None


def _parse_two_digit_year(yy: int) -> int:
    # archive spans 1951-2023
    return 1900 + yy if yy >= 51 else 2000 + yy


def parse_rsmc(stream: TextIO | str) -> list[StormRecordSet]:
    """Parse an RSMC Tokyo best-track file into storm record sets.

    Header lines begin with indicator 66666 and declare how many data lines
    follow; data lines are fixed-width (yymmddhh, indicator, grade, lat*10,
    lon*10, pressure, wind, radii, landfall marker).
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)

    storms: list[StormRecordSet] = []
    lines = stream.readlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if not line.strip():
            i += 1
            continue
        if not line.startswith("66666"):
            raise ParseError(f"expected header line starting with 66666, got {line!r}",
                             line_no=i + 1)
        tokens = line.split()
        if len(tokens) < 3:
            raise ParseError("header too short", line_no=i + 1)
        storm_id = tokens[1]
        try:
            n_lines = int(tokens[2])
        except ValueError as exc:
            raise ParseError(f"non-numeric record count {tokens[2]!r}",
                             line_no=i + 1) from exc
        name = line[30:50].strip() if len(line) > 30 else ""
        records = []
        for j in range(n_lines):
            idx = i + 1 + j
            if idx >= len(lines) or lines[idx].startswith("66666"):
                raise ParseError(
                    f"storm {storm_id}: header declares {n_lines} data lines, "
                    f"found {j}", line_no=i + 1)
            records.append(_parse_rsmc_data_line(lines[idx], idx + 1))
        if not records:
            raise ParseError(f"storm {storm_id}: header declares 0 data lines",
                             line_no=i + 1)
        try:
            storms.append(StormRecordSet(storm_id=storm_id, name=name,
                                         records=tuple(records)))
        except ValidationError as exc:
            raise ParseError(str(exc), line_no=i + 1) from exc
        i += 1 + n_lines
    return storms


def _parse_rsmc_data_line(line: str, line_no: int) -> StormRecord:
    try:
        yy = int(line[0:2])
        time = datetime(
            _parse_two_digit_year(yy),
            int(line[2:4]), int(line[4:6]), int(line[6:8]),
        )
        grade_str = line[13:14].strip()
        grade = int(grade_str) if grade_str else None
        lat = int(line[15:18]) / 10.0
        lon = int(line[19:23]) / 10.0
        pressure = _optional_float(line[24:28]) if len(line) > 24 else None
        wind = _optional_float(line[33:36]) if len(line) > 33 else None
        r50_long = _optional_float(line[42:46]) if len(line) > 42 else None
        r50_short = _optional_float(line[47:51]) if len(line) > 47 else None
        r30_long = _optional_float(line[53:57]) if len(line) > 53 else None
        r30_short = _optional_float(line[58:62]) if len(line) > 58 else None
    except (ValueError, IndexError) as exc:
        raise ParseError(f"unparsable data line {line.rstrip()!r}",
                         line_no=line_no) from exc
    landfall = len(line) > 71 and line[71] == "#"
    try:
        return StormRecord(
            time=time, grade=grade, lat=lat, lon=lon,
            central_pressure=pressure, max_wind=wind,
            radius_long_50kt=r50_long, radius_short_50kt=r50_short,
            radius_long_30kt=r30_long, radius_short_30kt=r30_short,
            landfall=landfall,
        )
    except ValidationError as exc:
        raise ParseError(str(exc), line_no=line_no) from exc


CSV_REQUIRED = ("storm_id", "time", "lat", "lon")
CSV_OPTIONAL = ("grade", "pressure", "wind")


def parse_csv(stream: TextIO | str) -> list[StormRecordSet]:
    """Parse the CSV interchange format (storm_id,time,lat,lon[,extras])."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.DictReader(stream)
    if reader.fieldnames is None:
        return []
    missing = [c for c in CSV_REQUIRED if c not in reader.fieldnames]
    if missing:
        raise SchemaError(f"missing required columns: {', '.join(missing)}")

    by_storm: dict[str, list[StormRecord]] = {}
    names: dict[str, str] = {}
    for row in reader:
        sid = row["storm_id"]
        try:
            rec = StormRecord(
                time=datetime.strptime(row["time"], TIME_FORMAT),
                grade=int(row["grade"]) if row.get("grade") else None,
                lat=float(row["lat"]),
                lon=float(row["lon"]),
                central_pressure=float(row["pressure"]) if row.get("pressure") else None,
                max_wind=float(row["wind"]) if row.get("wind") else None,
            )
        except (ValueError, ValidationError) as exc:
            raise ValidationError(f"storm {sid}: {exc}") from exc
        by_storm.setdefault(sid, []).append(rec)
        names.setdefault(sid, row.get("name", "") or "")

    storms = []
    for sid, records in by_storm.items():
        times = [r.time for r in records]
        if any(b <= a for a, b in zip(times, times[1:])):
            if len(set(times)) != len(times):
                raise ValidationError(f"storm {sid}: duplicate timestamps")
            warnings.warn(f"storm {sid}: rows out of time order, sorting",
                          stacklevel=2)
            records = sorted(records, key=lambda r: r.time)
        storms.append(StormRecordSet(storm_id=sid, name=names[sid],
                                     records=tuple(records)))
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
                 predictor_len: int) -> TrajectoryWindow:
    """Take the last ``total_len`` observations as a trajectory window."""
    if len(storm) < total_len:
        raise LengthError(
            f"storm {storm.storm_id} has {len(storm)} records, "
            f"needs {total_len}")
    tail = storm.records[-total_len:]
    return TrajectoryWindow(
        storm_id=storm.storm_id,
        lat_series=np.array([r.lat for r in tail]),
        lon_series=np.array([r.lon for r in tail]),
        total_length=total_len,
        predictor_length=predictor_len,
    )


def time_grid(total_len: int) -> np.ndarray:
    """Observation indices 1..L mapped affinely onto [0, 1]."""
    return np.linspace(0.0, 1.0, total_len)


def build_matrices(windows: Sequence[TrajectoryWindow]
                   ) -> tuple[DatasetMatrix, DatasetMatrix]:
    """Assemble (lat, lon) p x n matrices, one column per window."""
    if not windows:
        raise ShapeError("no windows to assemble")
    L = windows[0].total_length
    P = windows[0].predictor_length
    for w in windows:
        if w.total_length != L or w.predictor_length != P:
            raise ShapeError(
                f"window {w.storm_id} has length {w.total_length}/{w.predictor_length}, "
                f"expected {L}/{P}")
    grid = time_grid(L)
    ids = tuple(w.storm_id for w in windows)
    lat = np.column_stack([w.lat_series for w in windows])
    lon = np.column_stack([w.lon_series for w in windows])
    return (DatasetMatrix(values=lat, time_grid=grid, storm_ids=ids),
            DatasetMatrix(values=lon, time_grid=grid, storm_ids=ids))


def train_test_split(n: int, ratio: float,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded disjoint index partition; train size is floor(ratio * n)."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be in (0, 1)")
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(np.floor(ratio * n))
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])
