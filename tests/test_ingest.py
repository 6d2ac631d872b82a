import io
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fofcast import (build_matrices, extract_tail, filter_min_length,
                     parse_csv, parse_rsmc, train_test_split, write_csv)
from fofcast.errors import LengthError, ParseError, SchemaError, ShapeError, ValidationError
from fofcast.ingest import StormRecord, StormRecordSet

from conftest import make_rsmc_storm, rsmc_data_line, rsmc_header


def _records(n, start=datetime(2005, 7, 1)):
    return tuple(
        StormRecord(time=start + timedelta(hours=6 * i), grade=5,
                    lat=15.0 + 0.3 * i, lon=140.0 - 0.1 * i)
        for i in range(n))


def _storm(storm_id, n):
    return StormRecordSet(storm_id=storm_id, name="T", records=_records(n))


class TestParseRsmc:
    def test_two_storms(self):
        text = (make_rsmc_storm("0501", [15.0, 15.5, 16.2], [140.0, 139.5, 139.1])
                + make_rsmc_storm("0502", [10.0, 10.4], [150.0, 149.0]))
        storms = parse_rsmc(text)
        assert [s.storm_id for s in storms] == ["0501", "0502"]
        assert [len(s) for s in storms] == [3, 2]
        np.testing.assert_allclose(storms[0].lats, [15.0, 15.5, 16.2])
        np.testing.assert_allclose(storms[1].lons, [150.0, 149.0])
        assert storms[0].name == "TEST"

    def test_year_pivot(self):
        old = make_rsmc_storm("5101", [15.0, 15.5], [140.0, 139.0],
                              start=datetime(1951, 7, 1))
        new = make_rsmc_storm("2301", [15.0, 15.5], [140.0, 139.0],
                              start=datetime(2023, 7, 1))
        storms = parse_rsmc(old + new)
        assert storms[0].records[0].time.year == 1951
        assert storms[1].records[0].time.year == 2023

    def test_absent_fields(self):
        line = rsmc_data_line(datetime(2005, 7, 1), 15.0, 140.0,
                              pressure=990, wind=0)
        text = rsmc_header("0501", 2) + "\n" + line + "\n" + rsmc_data_line(
            datetime(2005, 7, 1, 6), 15.2, 139.8) + "\n"
        storm = parse_rsmc(text)[0]
        assert storm.records[0].max_wind is None
        assert storm.records[0].central_pressure == 990
        assert storm.records[0].radius_long_50kt is None

    def test_empty_stream(self):
        assert parse_rsmc("") == []

    def test_zero_data_lines(self):
        with pytest.raises(ParseError, match="0 data lines"):
            parse_rsmc(rsmc_header("0501", 0) + "\n")

    def test_truncated_storm(self):
        text = (rsmc_header("0501", 3) + "\n"
                + rsmc_data_line(datetime(2005, 7, 1), 15.0, 140.0) + "\n")
        with pytest.raises(ParseError, match="declares 3 data lines"):
            parse_rsmc(text)

    def test_non_numeric_count(self):
        with pytest.raises(ParseError, match="non-numeric record count"):
            parse_rsmc("66666 0501 abc 0501 0501 0\n")

    def test_bad_latitude_reports_line(self):
        text = (rsmc_header("0501", 1) + "\n"
                + "0507010X 002 5 xxx 1400  990      35\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_rsmc(text)

    def test_bad_pressure_reports_line(self):
        line = rsmc_data_line(datetime(2005, 7, 1, 6), 15.5, 139.5)
        bad = line[:24] + "ab12" + line[28:]
        text = (rsmc_header("0501", 2) + "\n"
                + rsmc_data_line(datetime(2005, 7, 1), 15.0, 140.0) + "\n"
                + bad + "\n")
        with pytest.raises(ParseError, match="line 3") as info:
            parse_rsmc(text)
        assert info.value.line_no == 3

    def test_record_count_matches_header(self):
        text = "".join(
            make_rsmc_storm(f"05{i:02d}", [15.0 + j * 0.1 for j in range(i + 2)],
                            [140.0 - j * 0.1 for j in range(i + 2)])
            for i in range(1, 5))
        for i, storm in enumerate(parse_rsmc(text), start=1):
            assert len(storm) == i + 2


class TestParseCsv:
    def test_round_trip(self):
        storms = [_storm("A", 5), _storm("B", 3)]
        buf = io.StringIO()
        write_csv(storms, buf)
        reparsed = parse_csv(buf.getvalue())
        assert len(reparsed) == 2
        for orig, back in zip(storms, reparsed):
            assert back.storm_id == orig.storm_id
            np.testing.assert_array_equal(back.lats, orig.lats)
            np.testing.assert_array_equal(back.lons, orig.lons)
            assert [r.time for r in back.records] == [r.time for r in orig.records]

    def test_missing_column(self):
        with pytest.raises(SchemaError, match="lon"):
            parse_csv("storm_id,time,lat\nA,2005-07-01 00:00:00,15.0\n")

    def test_header_only(self):
        assert parse_csv("storm_id,time,lat,lon\n") == []

    def test_out_of_order_rows_sorted(self):
        sorted_storm = _storm("A", 4)
        buf = io.StringIO()
        write_csv([sorted_storm], buf)
        lines = buf.getvalue().splitlines()
        shuffled = "\n".join([lines[0], lines[3], lines[1], lines[4], lines[2]])
        with pytest.warns(UserWarning, match="out of time order"):
            storms = parse_csv(shuffled)
        np.testing.assert_array_equal(storms[0].lats, sorted_storm.lats)

    def test_duplicate_timestamps_rejected(self):
        text = ("storm_id,time,lat,lon\n"
                "A,2005-07-01 00:00:00,15.0,140.0\n"
                "A,2005-07-01 00:00:00,15.5,139.0\n")
        with pytest.raises(ValidationError, match="duplicate"):
            parse_csv(text)


class TestFilterAndWindow:
    def test_filter_counts(self):
        storms = [_storm("A", 10), _storm("B", 32), _storm("C", 40)]
        assert [s.storm_id for s in filter_min_length(storms, 32)] == ["B", "C"]
        assert filter_min_length(storms, 1) == storms

    @given(st.lists(st.integers(min_value=1, max_value=60), max_size=12),
           st.integers(min_value=1, max_value=50),
           st.integers(min_value=1, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_filter_composition(self, lengths, a, b):
        storms = [_storm(f"S{i}", n) for i, n in enumerate(lengths)]
        twice = filter_min_length(filter_min_length(storms, a), b)
        assert twice == filter_min_length(storms, max(a, b))

    def test_tail_semantics(self):
        storm = _storm("A", 50)
        window = extract_tail(storm, 32, 24)
        np.testing.assert_array_equal(window.lat_series, storm.lats[18:])
        np.testing.assert_array_equal(window.lon_series, storm.lons[18:])

    def test_tail_exact_length(self):
        storm = _storm("A", 32)
        window = extract_tail(storm, 32, 24)
        np.testing.assert_array_equal(window.lat_series, storm.lats)

    def test_tail_too_short(self):
        with pytest.raises(LengthError):
            extract_tail(_storm("A", 30), 32, 24)

    def test_build_matrices(self):
        windows = [extract_tail(_storm(f"S{i}", 40), 32, 24) for i in range(5)]
        lat, lon = build_matrices(windows)
        assert lat.values.shape == (32, 5)
        assert lon.storm_ids == tuple(f"S{i}" for i in range(5))
        assert lat.time_grid[0] == 0.0 and lat.time_grid[-1] == 1.0

    def test_build_single_window(self):
        lat, _ = build_matrices([extract_tail(_storm("A", 32), 32, 24)])
        assert lat.values.shape == (32, 1)

    def test_build_mixed_lengths(self):
        windows = [extract_tail(_storm("A", 40), 32, 24),
                   extract_tail(_storm("B", 40), 40, 32)]
        with pytest.raises(ShapeError):
            build_matrices(windows)


class TestSplit:
    def test_archive_scale_sizes(self):
        train, test = train_test_split(1107, 0.8, seed=0)
        assert len(train) == 885 and len(test) == 222

    def test_floor(self):
        train, test = train_test_split(5, 0.8, seed=0)
        assert len(train) == 4 and len(test) == 1

    def test_determinism(self):
        a = train_test_split(10, 0.8, seed=3)
        b = train_test_split(10, 0.8, seed=3)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    @given(st.integers(min_value=2, max_value=300),
           st.floats(min_value=0.05, max_value=0.95),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_partition(self, n, ratio, seed):
        train, test = train_test_split(n, ratio, seed)
        assert len(train) == int(np.floor(ratio * n))
        combined = np.concatenate([train, test])
        np.testing.assert_array_equal(np.sort(combined), np.arange(n))
