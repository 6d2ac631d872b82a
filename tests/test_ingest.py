import io
import warnings
from dataclasses import astuple
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fofcast import (build_matrices, extract_tail, filter_min_length,
                     parse_csv, parse_rsmc, train_test_split, write_csv)
from fofcast.errors import LengthError, ParseError, SchemaError, ShapeError, ValidationError
from fofcast.ingest import StormRecord, StormRecordSet

from conftest import make_rsmc_storm, mixed_rsmc_text, rsmc_data_line, rsmc_header


def _records(n, start=datetime(2005, 7, 1)):
    return tuple(
        StormRecord(time=start + timedelta(hours=6 * i), grade=5,
                    lat=15.0 + 0.3 * i, lon=140.0 - 0.1 * i)
        for i in range(n))


def _storm(storm_id, n):
    return StormRecordSet.from_records(storm_id=storm_id, name="T",
                                       records=_records(n))


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


def reference_data_line(line: str) -> tuple:
    """The StormRecord fields of one RSMC data line, read field by field with
    Python's int() and float(): the per-line reference for the columnar parse.
    ValueError or IndexError on a malformed line."""
    def optional(token: str) -> float | None:
        token = token.strip()
        if not token:
            return None
        value = float(token)
        # RSMC writes 0 for "no analysis"
        return value if value != 0 else None

    yy = int(line[0:2])
    time = datetime(1900 + yy if yy >= 51 else 2000 + yy,
                    int(line[2:4]), int(line[4:6]), int(line[6:8]))
    grade = line[13:14].strip()
    lat, lon = int(line[15:18]) / 10.0, int(line[19:23]) / 10.0
    if not (-90.0 <= lat <= 90.0 and 0.0 <= lon < 360.0):
        raise ValueError("position out of range")
    return (time, int(grade) if grade else None, lat, lon,
            *(optional(line[a:b]) if len(line) > a else None
              for a, b in ((24, 28), (33, 36), (42, 46), (47, 51), (53, 57), (58, 62))),
            len(line) > 71 and line[71] == "#")


def reference_parse(text: str) -> list[tuple[str, str, list[tuple]]]:
    """(storm id, name, record fields) per storm, or the ParseError at the
    line where a line-by-line reading of ``text`` meets its first fault."""
    lines, storms, i = text.splitlines(), [], 0
    while i < len(lines):
        line = lines[i]
        if not line.strip():
            i += 1
            continue
        tokens = line.split()
        if not line.startswith("66666") or len(tokens) < 3:
            raise ParseError("not a header", i + 1)
        try:
            n_lines = int(tokens[2])
        except ValueError:
            raise ParseError("count", i + 1) from None
        rows = []
        for j in range(n_lines):
            if i + 1 + j >= len(lines) or lines[i + 1 + j].startswith("66666"):
                raise ParseError("storm cut short", i + 1)
            try:
                rows.append(reference_data_line(lines[i + 1 + j]))
            except (ValueError, IndexError):
                raise ParseError("data line", i + 2 + j) from None
        if not rows or any(b[0] <= a[0] for a, b in zip(rows, rows[1:])):
            raise ParseError("no rows or times out of order", i + 1)
        storms.append((tokens[1], line[30:50].strip(), rows))
        i += 1 + n_lines
    return storms


def outcome(parse, text: str):
    """What ``parse`` makes of ``text``: each storm's id, name and record
    fields (as repr, so floats compare bit for bit), or the error's type and
    line number."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # out-of-order CSV rows are sorted
            storms = parse(text)
    except (ParseError, SchemaError, ValidationError) as exc:
        return type(exc), exc.line_no
    if parse is reference_parse:
        return repr(storms)
    return repr([(s.storm_id, s.name, [astuple(r) for r in s.records]) for s in storms])


def mutants(text: str):
    """A strategy of texts one character, one dropped or one repeated line away."""
    lines = text.splitlines(keepends=True)
    char = st.one_of(st.characters(max_codepoint=127), st.characters())
    replaced = st.tuples(st.integers(0, len(text) - 1), char).map(
        lambda kc: text[:kc[0]] + kc[1] + text[kc[0] + 1:])
    dropped = st.integers(0, len(lines) - 1).map(
        lambda k: "".join(lines[:k] + lines[k + 1:]))
    repeated = st.integers(0, len(lines) - 1).map(
        lambda k: "".join(lines[:k + 1] + lines[k:]))
    return st.one_of(replaced, dropped, repeated)


THREE_STORMS = (make_rsmc_storm("0501", [15.0, 15.5, 16.2], [140.0, 139.5, 139.1])
                + make_rsmc_storm("0502", [10.0, 10.4], [150.0, 149.0])
                + make_rsmc_storm("0503", [20.0, 21.0, 22.5, 24.1], [130.0, 131.0, 133.2, 136.0],
                                  start=datetime(2005, 8, 30, 12)))


class TestColumnarRsmc:
    def test_every_column_matches_the_line_by_line_reference(self):
        text = mixed_rsmc_text()
        storms = parse_rsmc(text)
        reference = reference_parse(text)
        assert [(s.storm_id, s.name) for s in storms] == [r[:2] for r in reference]
        for storm, (_, _, rows) in zip(storms, reference):
            assert repr([astuple(r) for r in storm.records]) == repr(rows)
        # the mix reaches every optional part of the layout
        fields = [f for s in storms for r in s.records for f in astuple(r)]
        assert None in fields and True in fields and 0 in fields
        assert storms[0].lats.flags.writeable is False

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_damaged_text_parses_or_names_its_line(self, data):
        text = data.draw(mutants(THREE_STORMS))
        got = outcome(parse_rsmc, text)
        if isinstance(got, tuple):
            assert got[0] is ParseError and got[1] is not None
        if text.isascii():   # a non-ASCII data line is a fault the reference may accept
            assert got == outcome(reference_parse, text)

    @pytest.mark.parametrize("edits, line_no", [
        # {line: new text, or None to drop it} on THREE_STORMS: the lines of
        # storms 0501/0502/0503 are 2-4/6-7/9-12 under headers 1/5/8
        ({3: "0507010X 002 5 150 1400", 5: "77777"}, 3),
        ({3: "05070100 002 5 155 1395", 6: "05070100 002 5 xxx 1500"}, 1),
        ({10: "05083018 002 5 210 3600", 12: None}, 10),
        ({7: "05070100 002 5 104 1490", 8: "66666 0503"}, 5),
        ({4: None, 6: "0507010"}, 1),
        ({9: "05083012 002 5 950 1300", 11: "05083012 002 5 225 1332"}, 9),
    ])
    def test_first_fault_in_file_order(self, edits, line_no):
        lines = THREE_STORMS.splitlines()
        for k in sorted(edits, reverse=True):
            lines[k - 1:k] = [] if edits[k] is None else [edits[k]]
        text = "\n".join(lines) + "\n"
        assert outcome(parse_rsmc, text) == outcome(reference_parse, text) == (ParseError, line_no)

    def test_nul_and_non_ascii_lines(self):
        line = rsmc_data_line(datetime(2005, 7, 1, 6), 15.5, 139.5)
        for bad in (line[:27] + "\x00", line[:26] + "٣" + line[27:], line + " é"):
            text = (rsmc_header("0501", 2) + "\n"
                    + rsmc_data_line(datetime(2005, 7, 1), 15.0, 140.0) + "\n" + bad + "\n")
            with pytest.raises(ParseError) as info:
                parse_rsmc(text)
            assert info.value.line_no == 3


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

    @pytest.mark.parametrize("row, error", [
        ("A,2005-07-01 00:00:00,15.0,140.0\nA,2005-07-01 0600,15.5,139.0", ValidationError),
        ("A,2005-07-01 00:00:00,15.0,140.0\nA,2005-07-01 06:00:00,95.5,139.0", ValidationError),
        ("A,2005-07-01 00:00:00,15.0,140.0\nA,2005-07-01 06:00:00,15.5", ValidationError),
        ("A,2005-07-01 00:00:00,15.0,140.0\nA,2005-07-01 06:00:00,15.5,360.0", ValidationError),
        ("A,2005-07-01 00:00:00,15.0,140.0\nA,2005-07-01 00:00:00,15.5,139.0", ValidationError),
    ])
    def test_row_errors_carry_line_no(self, row, error):
        with pytest.raises(error) as info:
            parse_csv("storm_id,time,lat,lon\n" + row + "\n")
        assert info.value.line_no == 3
        assert str(info.value).startswith("line 3: ")

    def test_missing_column_is_line_1(self):
        with pytest.raises(SchemaError) as info:
            parse_csv("storm_id,time,lat\nA,2005-07-01 00:00:00,15.0\n")
        assert info.value.line_no == 1

    def test_west_longitudes_wrap_into_0_360(self):
        storms = parse_csv("storm_id,time,lat,lon\n"
                           "A,2005-07-01 00:00:00,15.0,-170.0\n"
                           "A,2005-07-01 06:00:00,15.5,-180.0\n"
                           "A,2005-07-01 12:00:00,16.0,179.5\n")
        np.testing.assert_array_equal(storms[0].lons, [190.0, 180.0, 179.5])
        buf = io.StringIO()
        write_csv(storms, buf)
        assert ",190.0," in buf.getvalue()
        np.testing.assert_array_equal(parse_csv(buf.getvalue())[0].lons, storms[0].lons)
        with pytest.raises(ValidationError, match="longitude -180.5"):
            parse_csv("storm_id,time,lat,lon\nA,2005-07-01 00:00:00,15.0,-180.5\n")

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_damaged_text_parses_or_names_its_line(self, data):
        buf = io.StringIO()
        write_csv([_storm("A", 3), _storm("B", 2), _storm("C", 4)], buf)
        got = outcome(parse_csv, data.draw(mutants(buf.getvalue())))
        if isinstance(got, tuple):
            assert got[0] in (ParseError, SchemaError, ValidationError)
            assert got[1] is not None


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
        assert window.storm_id == "A" and len(window) == 32
        for field in ("times", "lats", "lons", "optional", "landfall"):
            column = getattr(window, field)
            np.testing.assert_array_equal(column, getattr(storm, field)[18:])
            assert not column.flags.writeable
            assert np.shares_memory(column, getattr(storm, field))
        # the views are read-only, the storm's own columns are not touched
        assert storm.lats.flags.writeable

    def test_tail_exact_length(self):
        storm = _storm("A", 32)
        window = extract_tail(storm, 32, 24)
        np.testing.assert_array_equal(window.lats, storm.lats)

    @pytest.mark.parametrize("predictor_len", [0, 32, 40, -1])
    def test_tail_predictor_outside_window(self, predictor_len):
        with pytest.raises(ShapeError, match="predictor length"):
            extract_tail(_storm("A", 40), 32, predictor_len)

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
        with pytest.raises(ShapeError, match="window B has 40 records, expected 32"):
            build_matrices(windows)


class TestSplit:
    def test_archive_scale_sizes(self):
        train, test = train_test_split(1107, 0.8, seed=0)
        assert len(train) == 885 and len(test) == 222

    def test_floor(self):
        train, test = train_test_split(5, 0.8, seed=0)
        assert len(train) == 4 and len(test) == 1

    @pytest.mark.parametrize("n, ratio", [(120, 0.005), (1, 0.8), (0, 0.5)])
    def test_no_training_storm_refused(self, n, ratio):
        with pytest.raises(ValueError, match=f"ratio {ratio} of {n} storms leaves 0 training"):
            train_test_split(n, ratio, seed=0)

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
        n_train = int(np.floor(ratio * n))
        if n_train == 0:
            with pytest.raises(ValueError, match="leaves 0 training"):
                train_test_split(n, ratio, seed)
            return
        train, test = train_test_split(n, ratio, seed)
        assert len(train) == n_train
        combined = np.concatenate([train, test])
        np.testing.assert_array_equal(np.sort(combined), np.arange(n))
