"""Deterministic, archive-shaped RSMC best-track text for the benchmark.

The real RSMC Tokyo archive is not distributed with the repository, so the
benchmark writes a synthetic one with the archive's shape: 1894 storms and
71088 records, of which 1107 storms have at least 32 records, 709 at least
40 and 425 at least 48 (the golden counts of acceptance criterion 1).

Tracks are integrated 6-hourly through a steering flow whose direction
flips at a per-storm ridge latitude: south of the ridge storms drift west,
north of it they recurve and accelerate east. Three families start at
different distances from the ridge, so that straight westward tracks,
recurving bow-shaped tracks and north-then-east tracks all occur. Whether a
storm recurves inside the response segment depends on how close its
predictor segment ran to the ridge, which no single affine model captures
but a latitude cluster does. Positional noise and a persistent velocity
perturbation keep the tracks from being exactly predictable.

Only valid numeric fields are written, in the fixed-width layout of the
repository's ``tests/conftest.py::rsmc_data_line``. The module imports
nothing from ``fofcast``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

N_STORMS = 1894
N_RECORDS = 71088
# storms per band of record counts; the bands are inclusive ranges
BAND_COUNTS = (787, 398, 284, 425)
BAND_RANGES = ((8, 31), (32, 39), (40, 47), (48, 96))
FAMILIES = ("westward", "recurving", "north_east")
FAMILY_WEIGHTS = (0.35, 0.40, 0.25)
N_PARAMS = 5
FIRST_YEAR, LAST_YEAR = 1951, 2023


@dataclass
class Archive:
    """Generated text plus what the generator knows about it."""

    text: str
    storm_ids: list[str]
    lengths: np.ndarray                     # records per storm, file order
    families: list[str]
    lat10: list[np.ndarray] = field(repr=False)   # written values, tenths of a degree
    lon10: list[np.ndarray] = field(repr=False)

    @property
    def n_records(self) -> int:
        return int(self.lengths.sum())

    def count_at_least(self, n: int) -> int:
        return int((self.lengths >= n).sum())

    def windows(self, min_records: int, total_len: int
                ) -> tuple[list[str], np.ndarray, np.ndarray]:
        """Ids and (total_len x m) lat/lon degrees of the last ``total_len``
        records of every storm with at least ``min_records`` records, in
        file order."""
        keep = [i for i, n in enumerate(self.lengths) if n >= min_records]
        lat = np.column_stack([self.lat10[i][-total_len:] / 10.0 for i in keep])
        lon = np.column_stack([self.lon10[i][-total_len:] / 10.0 for i in keep])
        return [self.storm_ids[i] for i in keep], lat, lon

    def summary(self) -> dict:
        hist, edges = np.histogram(self.lengths, bins=[8, 16, 24, 32, 40, 48, 64, 80, 97])
        return {
            "storms": len(self.storm_ids),
            "records": self.n_records,
            "at_least_32": self.count_at_least(32),
            "at_least_40": self.count_at_least(40),
            "at_least_48": self.count_at_least(48),
            "families": {f: self.families.count(f) for f in FAMILIES},
            "length_histogram": {f"{int(a)}-{int(b) - 1}": int(c)
                                 for a, b, c in zip(edges, edges[1:], hist)},
        }


def _stratified(rng: np.random.Generator, m: int, k: int) -> np.ndarray:
    """m x k Latin-hypercube sample of [0, 1): every column falls once in
    each of the m strata, so that two seeds draw nearly the same population."""
    return (np.argsort(rng.random((m, k)), axis=0) + rng.random((m, k))) / m


def _population(rng: np.random.Generator
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Record count, family index and track parameters of every storm.

    Each length band holds its families in fixed proportions, and each
    (band, family) group draws its parameters by Latin hypercube, so the
    seed changes the storms but hardly the mix the model sees.
    """
    lengths, families, params = [], [], []
    for (lo, hi), m in zip(BAND_RANGES, BAND_COUNTS):
        lengths.append(lo + (_stratified(rng, m, 1)[:, 0] * (hi - lo + 1)).astype(int))
        share = np.array(FAMILY_WEIGHTS) * m
        counts = np.floor(share).astype(int)
        counts[np.argsort(counts - share)[: m - counts.sum()]] += 1
        family = np.repeat(np.arange(len(FAMILIES)), counts)
        rng.shuffle(family)
        u = np.empty((m, N_PARAMS))
        for f in range(len(FAMILIES)):
            u[family == f] = _stratified(rng, int(counts[f]), N_PARAMS)
        families.append(family)
        params.append(u)
    lengths = np.concatenate(lengths)
    # long storms absorb the difference to N_RECORDS, staying inside their band
    lo, hi = BAND_RANGES[-1]
    longest = np.flatnonzero(lengths >= lo)
    diff = N_RECORDS - int(lengths.sum())
    while diff:
        j = longest[int(rng.integers(len(longest)))]
        step = 1 if diff > 0 else -1
        if lo <= lengths[j] + step <= hi:
            lengths[j] += step
            diff -= step
    order = rng.permutation(N_STORMS)
    return lengths[order], np.concatenate(families)[order], np.vstack(params)[order]


def _track(rng: np.random.Generator, family: str, n: int, u: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """n 6-hourly (lat, lon) positions in degrees; u holds N_PARAMS
    uniforms in [0, 1) that place the storm inside its family's ranges."""
    ridge = 25.0 + 2.0 * u[0]
    speed = 0.55 + 0.40 * u[1]                 # degrees per 6 h
    if family == "westward":
        lat, lon = 8.0 + 6.0 * u[2], 150.0 + 34.0 * u[3]
        poleward = 0.02 + 0.08 * u[4]
    elif family == "recurving":
        # reach the ridge a few steps before the track ends, as real
        # recurving storms are declared dissipated soon after recurvature
        lat, lon = 12.0 + 6.0 * u[2], 135.0 + 35.0 * u[3]
        crossing = max(n - 1 - int(14 * u[4]), 2)
        poleward = min(max((ridge - lat) / crossing, 0.08), 1.0)
    else:
        lat, lon = 18.0 + 5.0 * u[2], 122.0 + 18.0 * u[3]
        poleward = 0.40 + 0.20 * u[4]
    lats, lons = np.empty(n), np.empty(n)
    du = dv = 0.0
    for i in range(n):
        lats[i], lons[i] = lat, lon
        if lat < ridge:
            east, north = -speed, poleward
        else:
            east, north = min(speed * (1.3 + 0.2 * (lat - ridge)), 2.0), 0.6 * speed
        if lon < 112.0 or lat > 38.0:          # over land or extratropical: decay
            east, north = 0.25 * east, 0.25 * north
        du = 0.85 * du + rng.normal(0.0, 0.10)
        dv = 0.85 * dv + rng.normal(0.0, 0.04)
        lon += east + du
        lat += north + dv
    lats += rng.normal(0.0, 0.08, n)
    lons += rng.normal(0.0, 0.08, n)
    return np.clip(lats, 1.0, 60.0), np.clip(lons, 95.0, 260.0)


def _header(storm_id: str, n_lines: int, name: str) -> str:
    head = f"66666 {storm_id} {n_lines:3d} {storm_id} {storm_id} 0"
    return head.ljust(30) + name.ljust(20) + "20240101"


def _data_line(dt: datetime, lat10: int, lon10: int, grade: int,
               pressure: int, wind: int) -> str:
    return (f"{dt:%y%m%d%H} 002 {grade} {lat10:3d} {lon10:4d} {pressure:4d}"
            f"     {wind:3d}")


def generate(seed: int) -> Archive:
    """The archive for ``seed``; the same seed gives the same text."""
    rng = np.random.default_rng(seed)
    lengths, family_index, params = _population(rng)
    families = [FAMILIES[f] for f in family_index]
    years = np.linspace(FIRST_YEAR, LAST_YEAR + 1, N_STORMS, endpoint=False).astype(int)
    lines: list[str] = []
    ids: list[str] = []
    lat10s: list[np.ndarray] = []
    lon10s: list[np.ndarray] = []
    per_year: dict[int, int] = {}
    for i, (n, family, u, year) in enumerate(zip(lengths, families, params, years)):
        number = per_year.get(year, 0) + 1
        per_year[year] = number
        storm_id = f"{year % 100:02d}{number:02d}"
        lat, lon = _track(rng, family, int(n), u)
        lat10 = np.rint(lat * 10).astype(int)
        lon10 = np.rint(lon * 10).astype(int)
        start = datetime(int(year), 5, 1) + timedelta(
            days=int(rng.integers(0, 180)), hours=6 * int(rng.integers(0, 4)))
        # a deepening-then-filling pressure curve, wind from pressure
        depth = rng.uniform(20.0, 90.0)
        phase = np.sin(np.pi * np.arange(n) / max(n - 1, 1))
        pressure = np.rint(1008.0 - depth * phase).astype(int)
        wind = np.rint(np.clip(35.0 + 1.1 * (1008 - pressure), 35.0, 140.0)).astype(int)
        grade = np.where(wind >= 64, 5, np.where(wind >= 48, 4, 3))
        lines.append(_header(storm_id, int(n), f"BENCH{i:04d}"))
        for j in range(int(n)):
            lines.append(_data_line(start + timedelta(hours=6 * j), int(lat10[j]),
                                    int(lon10[j]), int(grade[j]),
                                    int(pressure[j]), int(wind[j])))
        ids.append(storm_id)
        lat10s.append(lat10)
        lon10s.append(lon10)
    return Archive(text="\n".join(lines) + "\n", storm_ids=ids,
                   lengths=lengths, families=families, lat10=lat10s, lon10=lon10s)
