"""Shared fixtures: synthetic best-track builders and archive discovery."""

from __future__ import annotations

import os
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from fofcast import DatasetMatrix, StormRecordSet, time_grid

ARCHIVE_ENV = "FOFCAST_RSMC_ARCHIVE"


def archive_path() -> Path | None:
    """Location of the full RSMC best-track archive, if available."""
    candidates = [Path(os.environ[ARCHIVE_ENV])] if ARCHIVE_ENV in os.environ else []
    candidates += [Path(__file__).parent.parent / "data" / "bst_all.txt"]
    for p in candidates:
        if p.exists():
            return p
    return None


requires_archive = pytest.mark.skipif(
    archive_path() is None,
    reason=f"RSMC best-track archive not available (set {ARCHIVE_ENV})")


def make_storm(storm_id: str, lats, lons, hours=None,
               start: datetime = datetime(2005, 7, 1), name: str = "T") -> StormRecordSet:
    """A storm observed at ``hours`` after ``start`` (6-hourly by default)."""
    hours = 6 * np.arange(len(lats)) if hours is None else np.asarray(hours)
    times = np.datetime64(start, "s").astype(np.int64) + 3600 * hours
    return StormRecordSet(storm_id, name, times, np.array(lats, float),
                          np.array(lons, float))


def rsmc_header(storm_id: str, n_lines: int, name: str = "TEST") -> str:
    head = f"66666 {storm_id} {n_lines:3d} {storm_id} {storm_id} 0"
    return head.ljust(30) + name.ljust(20) + "20240101"


def rsmc_data_line(dt: datetime, lat: float, lon: float, grade: int | None = 5,
                   pressure: int = 990, wind: int = 35, radii=None,
                   mark: bool = False) -> str:
    """One data line; ``grade=None`` leaves the grade blank, ``radii`` adds the
    (long, short) 50 kt and 30 kt radii and ``mark`` the '#' of column 71."""
    line = (f"{dt:%y%m%d%H} 002 {' ' if grade is None else grade} "
            f"{int(round(lat * 10)):3d} {int(round(lon * 10)):4d} {pressure:4d}     {wind:3d}")
    if radii is not None:
        # each pair of radii follows a one-digit direction code
        line += "     1{:4d} {:4d} 1{:4d} {:4d}".format(*radii)
    return line.ljust(71) + "#" if mark else line


def make_rsmc_storm(storm_id: str, lats, lons,
                    start: datetime = datetime(2005, 7, 1),
                    name: str = "TEST") -> str:
    lines = [rsmc_header(storm_id, len(lats), name)]
    for i, (lat, lon) in enumerate(zip(lats, lons)):
        lines.append(rsmc_data_line(start + timedelta(hours=6 * i), lat, lon))
    return "\n".join(lines) + "\n"


def mixed_rsmc_text() -> str:
    """Three storms whose data lines vary every column past the lon field, which
    the parser skips: lines cut short there, blank grades, absent (0) pressure
    and wind, radii and '#' marks. The tracks cross the equator, a leap day and
    the pivot of the two-digit years."""
    starts = (datetime(1951, 7, 1), datetime(2000, 2, 27, 6), datetime(1999, 12, 30, 18))
    cuts = (None, 23, 26, None, 30, 36, 44, 60, None, 65)
    lines = []
    for s, (start, n) in enumerate(zip(starts, (9, 12, 8))):
        lines.append(rsmc_header(f"{s + 1:04d}", n, name=f"MIXED {s}"))
        for i in range(n):
            line = rsmc_data_line(
                start + timedelta(hours=6 * i), -3.0 + 1.7 * i + s,
                (355.0 - 37.1 * i - 80 * s) % 350 + 5,
                grade=None if i % 4 == 1 else (i + s) % 8,
                pressure=0 if i % 5 == 2 else 1012 - 9 * i,
                wind=0 if i % 3 == 0 else 15 + 7 * i,
                radii=(30 * i, 20 * i, 60 + 5 * i, 40 + i) if i % 2 else None,
                mark=i % 3 == 2)
            lines.append(line[:cuts[(i + s) % len(cuts)]])
    return "\n".join(lines) + "\n"


def synthetic_tracks(n: int, L: int = 32, seed: int = 0,
                     noise: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Smooth bow-shaped tracks: (L x n lat, L x n lon) degree arrays."""
    rng = np.random.default_rng(seed)
    grid = time_grid(L)
    lats, lons = [], []
    for _ in range(n):
        lat0 = rng.uniform(8, 18)
        climb = rng.uniform(8, 20)
        curve = rng.uniform(-3, 3)
        lat = lat0 + climb * grid + curve * np.sin(np.pi * grid)
        lon0 = rng.uniform(130, 150)
        dip = rng.uniform(5, 20)
        lon = lon0 - dip * grid + (dip + rng.uniform(0, 10)) * grid**2
        if noise:
            lat = lat + rng.normal(0, noise, L)
            lon = lon + rng.normal(0, noise, L)
        lats.append(lat)
        lons.append(lon)
    return np.array(lats).T, np.array(lons).T


def synthetic_matrices(n: int, L: int = 32, seed: int = 0,
                       noise: float = 0.0) -> tuple[DatasetMatrix, DatasetMatrix]:
    lat_v, lon_v = synthetic_tracks(n, L, seed, noise)
    ids = tuple(f"S{i:04d}" for i in range(n))
    return (DatasetMatrix(values=lat_v, storm_ids=ids),
            DatasetMatrix(values=lon_v, storm_ids=ids))


def two_regime_matrices(n: int = 100, L: int = 32, seed: int = 7
                        ) -> tuple[DatasetMatrix, DatasetMatrix]:
    """Two linear generators that a single affine model cannot fit jointly.

    Regime membership is visible in the predictor level (well separated for
    k-means), and the response offset differs between regimes.
    """
    rng = np.random.default_rng(seed)
    ids = tuple(f"R{i:04d}" for i in range(n))
    lat_cols, lon_cols = [], []
    for i in range(n):
        regime = i % 2
        u = rng.uniform(0, 8) if regime == 0 else rng.uniform(40, 48)
        lat = np.full(L, 10.0 + u / 4.0)
        lat[24:] += 0.0 if regime == 0 else 15.0
        lon = np.full(L, 120.0 + u)
        lon[24:] += -10.0 if regime == 0 else 25.0
        lat_cols.append(lat)
        lon_cols.append(lon)
    return (DatasetMatrix(values=np.array(lat_cols).T, storm_ids=ids),
            DatasetMatrix(values=np.array(lon_cols).T, storm_ids=ids))


def geojson_document(storm_ids, lat, lon, lat_hat, lon_hat, include_truth=True) -> dict:
    """The FeatureCollection of ``forecasts_to_geojson``'s features as dicts and
    lists, for json.dumps to write: the reference its text is checked against."""
    from fofcast.experiment import track_errors

    n = len(storm_ids)
    P = lat.shape[0] - lat_hat.shape[0]
    errors = [{}] * n
    if include_truth:
        errors = [{"avg_dist_km": e} for e in
                  track_errors(lat_hat, lon_hat, lat[P:], lon[P:]).tolist()]

    def positions(seg_lon, seg_lat) -> list:
        turns = np.where(np.abs(seg_lon) > 180.0, np.floor((seg_lon + 180.0) / 360.0), 0.0)
        return np.stack([seg_lon - 360.0 * turns, seg_lat], axis=-1).transpose(1, 0, 2).tolist()

    segments = [("observed_predictor", positions(lon[:P], lat[:P]), [{}] * n)]
    if include_truth:
        segments.append(("observed_response", positions(lon[P:], lat[P:]), [{}] * n))
    segments.append(("predicted_response", positions(lon_hat, lat_hat), errors))
    features = [
        {"type": "Feature",
         "geometry": {"type": "LineString", "coordinates": coordinates[j]},
         "properties": {"storm_id": sid, "segment": segment, **extra[j]}}
        for j, sid in enumerate(storm_ids) for segment, coordinates, extra in segments]
    return {"type": "FeatureCollection", "features": features}


def assert_same_text(got: str, expected: str) -> None:
    """got == expected; else fail naming the first offset where they differ and
    the text around it, which stays quick for documents of a megabyte on one line."""
    if got != expected:
        at = len(os.path.commonprefix([got, expected]))
        pytest.fail(f"texts of {len(got)} and {len(expected)} characters differ from "
                    f"offset {at}: {got[max(0, at - 40):at + 40]!r} against "
                    f"{expected[max(0, at - 40):at + 40]!r}", pytrace=False)
