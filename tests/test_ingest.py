import csv
import io
import os
import tracemalloc
import warnings
from datetime import datetime
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fofcast import (build_matrices, extract_tail, filter_min_length,
                     parse_csv, parse_rsmc, train_test_split, write_csv)
from fofcast import cli, ingest
from fofcast.errors import LengthError, ParseError, SchemaError, ShapeError, ValidationError
from fofcast.ingest import RSMC_WIDTH, TIME_FORMAT

from conftest import (make_rsmc_storm, make_storm, mixed_rsmc_text, rsmc_data_line,
                      rsmc_header)


def _storm(storm_id, n, name="T"):
    i = np.arange(n)
    return make_storm(storm_id, 15.0 + 0.3 * i, 140.0 - 0.1 * i, name=name)


def _varied_storms():
    """Three storms, one with a name that the CSV format must quote; storm C is
    longer than the 16 rows NumPy's unstable sorts order by insertion, which
    is stable."""
    return [_storm("A", 3), _storm("B", 2, name='KAI, "TAK"'), _storm("C", 20, name="")]


def record_rows(storm) -> list[tuple]:
    """A storm's columns as rows of Python values: time, lat and lon."""
    return list(zip(storm.times.astype("datetime64[s]").tolist(), storm.lats.tolist(),
                    storm.lons.tolist()))


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
        assert storms[0].times.astype("datetime64[s]")[0] == np.datetime64("1951-07-01")
        assert storms[1].times.astype("datetime64[s]")[0] == np.datetime64("2023-07-01")

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

    def test_bad_pressure_parses_bad_position_reports_line(self):
        line = rsmc_data_line(datetime(2005, 7, 1, 6), 15.5, 139.5)
        head = (rsmc_header("0501", 2) + "\n"
                + rsmc_data_line(datetime(2005, 7, 1), 15.0, 140.0) + "\n")
        # the pressure columns 24-27 are not read
        storms = parse_rsmc(head + line[:24] + "ab12" + line[28:] + "\n")
        np.testing.assert_array_equal(storms[0].lats, [15.0, 15.5])
        # the same bytes over the lat field (and the blank before it), then the lon field
        for a in (14, 19):
            with pytest.raises(ParseError, match="line 3") as info:
                parse_rsmc(head + line[:a] + "ab12" + line[a + 4:] + "\n")
            assert info.value.line_no == 3

    def test_record_count_matches_header(self):
        text = "".join(
            make_rsmc_storm(f"05{i:02d}", [15.0 + j * 0.1 for j in range(i + 2)],
                            [140.0 - j * 0.1 for j in range(i + 2)])
            for i in range(1, 5))
        for i, storm in enumerate(parse_rsmc(text), start=1):
            assert len(storm) == i + 2


def reference_data_line(line: str) -> tuple:
    """The ``record_rows`` fields of one RSMC data line, read field by field with
    Python's int(): the per-line reference for the columnar parse. ValueError
    on a malformed line."""
    yy = int(line[0:2])
    time = datetime(1900 + yy if yy >= 51 else 2000 + yy,
                    int(line[2:4]), int(line[4:6]), int(line[6:8]))
    lat, lon = int(line[15:18]) / 10.0, int(line[19:23]) / 10.0
    if not (-90.0 <= lat <= 90.0 and 0.0 <= lon < 360.0):
        raise ValueError("position out of range")
    return time, lat, lon


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
            except ValueError:
                raise ParseError("data line", i + 2 + j) from None
        if not rows or any(b[0] <= a[0] for a, b in zip(rows, rows[1:])):
            raise ParseError("no rows or times out of order", i + 1)
        storms.append((tokens[1], line[30:50].strip(), rows))
        i += 1 + n_lines
    return storms


def reference_parse_csv(text: str) -> list[tuple[str, str, list[tuple]]]:
    """(storm id, name, record fields) per storm of the CSV interchange format,
    read row by row and each storm's rows sorted by time, or the error at the
    line of the first fault: the per-row reference for the columnar parse."""
    reader = csv.DictReader(io.StringIO(text, newline=""))
    try:
        if reader.fieldnames is None:
            return []
        if any(c not in reader.fieldnames for c in ("storm_id", "time", "lat", "lon")):
            raise SchemaError("missing required columns", line_no=1)
        by_storm, names = {}, {}
        for row in reader:
            sid = row["storm_id"]
            try:
                if any(row[c] is None for c in ("storm_id", "time", "lat", "lon")):
                    raise ValidationError("missing fields")
                lat, lon = float(row["lat"]), float(row["lon"])
                if not (-90.0 <= lat <= 90.0 and -180.0 <= lon < 360.0):
                    raise ValidationError("position out of range")
                rec = (datetime.strptime(row["time"], TIME_FORMAT), lat,
                       lon % 360.0 if lon % 360.0 < 360.0 else 0.0)
            except (ValueError, ValidationError) as exc:
                raise ValidationError(f"storm {sid}: {exc}", line_no=reader.line_num) from exc
            by_storm.setdefault(sid, []).append((rec, reader.line_num))
            names.setdefault(sid, row.get("name", "") or "")
    except csv.Error as exc:
        raise ParseError(str(exc), line_no=reader.line_num + 1) from exc
    storms = []
    for sid, rows in by_storm.items():
        ordered = sorted(rows, key=lambda row: row[0][0])
        for (a, _), (b, line_no) in zip(ordered, ordered[1:]):
            if a[0] == b[0]:
                raise ValidationError(f"storm {sid}: duplicate timestamps", line_no=line_no)
        if ordered != rows:
            warnings.warn(f"storm {sid}: rows out of time order, sorting")
        storms.append((sid, names[sid], [rec for rec, _ in ordered]))
    return storms


def outcome(parse, text: str):
    """What ``parse`` makes of ``text``: each storm's id, name and record
    fields (as repr, so floats compare bit for bit) and the warnings, or the
    error's type and line number."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            storms = parse(text)
    except (ParseError, SchemaError, ValidationError) as exc:
        return type(exc), exc.line_no
    if parse not in (reference_parse, reference_parse_csv):
        storms = [(s.storm_id, s.name, record_rows(s)) for s in storms]
    return repr(storms), [str(w.message) for w in caught]


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


def with_old_columns(text: str, pressure=lambda k: f"{990 - k}.5") -> str:
    """A write_csv ``text`` as the format once written, with grade, pressure
    (``pressure(k)`` on data row k) and wind columns between lon and name."""
    header, *rows = csv.reader(io.StringIO(text, newline=""))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header[:4] + ["grade", "pressure", "wind"] + header[4:])
    for k, row in enumerate(rows):
        writer.writerow(row[:4] + ["" if k % 4 == 1 else k % 8, pressure(k), 35 + k]
                        + row[4:])
    return buf.getvalue()


def _csv_texts() -> tuple[str, ...]:
    """write_csv's text of ``_varied_storms``; the same with two mid-track rows
    of storm C swapped; with all rows shuffled, so that the storms interleave
    and their rows are out of time order; and the first with the columns that
    the format once had and parse_csv ignores."""
    buf = io.StringIO()
    write_csv(_varied_storms(), buf)
    header, *rows = buf.getvalue().splitlines(keepends=True)
    swapped = rows[:10] + rows[11:12] + rows[10:11] + rows[12:]
    shuffled = np.random.default_rng(0).permutation(len(rows))
    return (buf.getvalue(), header + "".join(swapped),
            header + "".join(rows[k] for k in shuffled), with_old_columns(buf.getvalue()))


CSV_TEXTS = _csv_texts()

# the (start, stop) columns of a data line's yy, mm, dd, hh, lat and lon fields
RSMC_FIELDS = ((0, 2), (2, 4), (4, 6), (6, 8), (15, 18), (19, 23))


def signed_fields(text: str):
    """A strategy of ``text`` with some date, lat or lon fields of its data
    lines redrawn from digits, blanks and signs, which int() may accept."""
    lines = text.splitlines()
    rows = [k for k, line in enumerate(lines) if not line.startswith("66666")]
    field = st.sampled_from(RSMC_FIELDS).flatmap(lambda f: st.tuples(
        st.just(f), st.text("0123456789 +-", min_size=f[1] - f[0], max_size=f[1] - f[0])))

    def edit(edits):
        out = list(lines)
        for k, ((a, b), value) in edits:
            out[k] = out[k][:a] + value + out[k][b:]
        return "\n".join(out) + "\n"
    return st.lists(st.tuples(st.sampled_from(rows), field), min_size=1, max_size=6).map(edit)


class TestColumnarRsmc:
    def test_every_column_matches_the_line_by_line_reference(self):
        text = mixed_rsmc_text()
        storms = parse_rsmc(text)
        reference = reference_parse(text)
        assert [(s.storm_id, s.name) for s in storms] == [r[:2] for r in reference]
        for storm, (_, _, rows) in zip(storms, reference):
            assert repr(record_rows(storm)) == repr(rows)
        assert storms[0].lats.flags.writeable is False

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_damaged_text_parses_or_names_its_line(self, data):
        text = data.draw(mutants(THREE_STORMS))
        got = outcome(parse_rsmc, text)
        if isinstance(got[0], type):
            assert got[0] is ParseError and got[1] is not None
        # int() reads other scripts' digits, so a non-ASCII character in the
        # columns read is a fault the reference may accept; past them, neither reads it
        if all(line[:RSMC_WIDTH].isascii() for line in text.splitlines()):
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

    def test_signed_and_blank_fields_read_as_int_reads_them(self):
        """Fields that are not all digits take the fallback; they and the
        plain-digit fields of the same storms read as the line-by-line int()."""
        def line(date, lat, lon):
            return f"{date} 002 5 {lat} {lon} 990     35"
        signed = [line("05070100", "150", "1400"), line("05070106", " 95", "1405"),
                  line("05070112", "+95", " 950"), line("05070118", "-05", "+950"),
                  line(" 5070200", "-50", "1395"), line("05+70206", "  5", "   5"),
                  line("0507 212", "095", "0950"), line("0507031 ", "-0 ", "1   ")]
        text = (make_rsmc_storm("0501", [15.0, 15.5], [140.0, 139.5])
                + rsmc_header("0502", len(signed)) + "\n" + "\n".join(signed) + "\n"
                + make_rsmc_storm("0503", [20.0, 21.0, 22.5], [130.0, 131.0, 133.2]))
        got = outcome(parse_rsmc, text)
        assert got == outcome(reference_parse, text)
        np.testing.assert_array_equal(
            parse_rsmc(text)[1].lats, [15.0, 9.5, 9.5, -0.5, -5.0, 0.5, 9.5, 0.0])

    @given(signed_fields(THREE_STORMS))
    @settings(max_examples=300, deadline=None)
    def test_signed_and_blank_fields_parse_or_name_their_line(self, text):
        assert outcome(parse_rsmc, text) == outcome(reference_parse, text)

    def test_nul_and_non_ascii_lines(self):
        line = rsmc_data_line(datetime(2005, 7, 1, 6), 15.5, 139.5)
        head = (rsmc_header("0501", 2) + "\n"
                + rsmc_data_line(datetime(2005, 7, 1), 15.0, 140.0) + "\n")
        # a NUL in a field read fails, as does a non-ASCII character in columns 0-22,
        # the grade at column 13 included
        for bad in (line[:16] + "\x00" + line[17:], line[:16] + "٣" + line[17:],
                    line[:13] + "é" + line[14:], line[:22] + "é" + line[23:]):
            with pytest.raises(ParseError) as info:
                parse_rsmc(head + bad + "\n")
            assert info.value.line_no == 3
        # past the lon field, which ends at column 22, neither is read
        for past in (line[:27] + "\x00", line[:26] + "٣" + line[27:], line + " é"):
            storms = parse_rsmc(head + past + "\n")
            np.testing.assert_array_equal(storms[0].lons, [140.0, 139.5])


def parse_outcome(source, piece: int | None = None):
    """parse_rsmc's storms as ``outcome`` gives them, or its error's type,
    message and line number, with ``source``, a str or an open file, read in
    pieces of about ``piece`` characters (the default size if None)."""
    piece = ingest.RSMC_PIECE if piece is None else piece
    with mock.patch.object(ingest, "RSMC_PIECE", piece):
        try:
            storms = parse_rsmc(source)
        except ParseError as exc:
            return ParseError, str(exc), exc.line_no
    return repr([(s.storm_id, s.name, record_rows(s)) for s in storms])


def _lines_joined(text: str, seps) -> str:
    """``text`` with its k-th newline replaced by ``seps[k % len(seps)]``."""
    parts = text.split("\n")
    return "".join(p + seps[k % len(seps)] for k, p in enumerate(parts[:-1])) + parts[-1]


BLANK_LINES = (make_rsmc_storm("0501", [15.0, 15.5, 16.2], [140.0, 139.5, 139.1])
               + "\n   \n\t\n"
               + make_rsmc_storm("0502", [10.0, 10.4], [150.0, 149.0]) + "\n")


class TestRsmcPieces:
    """parse_rsmc reads its text a piece at a time; every cut gives the outcome
    of one piece, storms, error message and line number alike."""

    @given(st.text(st.sampled_from("ab 6\r\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
                   max_size=40), st.integers(0, 8))
    @settings(max_examples=300, deadline=None)
    def test_pieces_end_on_line_boundaries(self, text, piece):
        with mock.patch.object(ingest, "RSMC_PIECE", piece):
            pieces = list(ingest._pieces(text))
        assert "".join(pieces) == text
        assert all(p for p in pieces) and all(p.endswith("\n") for p in pieces[:-1])
        assert [line for p in pieces for line in p.splitlines()] == text.splitlines()

    def test_default_piece_size_cuts_a_long_text(self):
        text = "".join(make_rsmc_storm(f"{k:04d}", 15.0 + 0.1 * np.arange(40),
                                       140.0 - 0.1 * np.arange(40)) for k in range(200))
        assert len(list(ingest._pieces(text))) == -(-len(text) // ingest.RSMC_PIECE) > 1
        assert parse_outcome(text) == parse_outcome(text, 0)

    @pytest.mark.parametrize("text", [
        THREE_STORMS,
        THREE_STORMS.replace("\n", "\r\n"),
        _lines_joined(THREE_STORMS, ["\n", "\r", "\n", "\n"]),
        THREE_STORMS.replace("\n", "\r"),
        _lines_joined(THREE_STORMS, ["\n", "\x0b", "\u2028", "\r\n"]),
        THREE_STORMS.replace(" 990 ", " 99\x00 ", 2),
        THREE_STORMS.replace(" 1395 ", " 1\x0095 ", 1),
        THREE_STORMS[:-1],
        BLANK_LINES,
        BLANK_LINES.replace("66666 0501   3", "66666 0501   4"),
        THREE_STORMS[:THREE_STORMS.rindex("\n", 0, -1) + 1],
        "",
    ], ids=["lf", "crlf", "lone-cr", "cr-only", "vt-and-line-separator", "nul-past-lon",
            "nul-in-lon", "no-final-newline", "blank-lines-between-storms",
            "storm-cut-short-by-blank-lines", "last-storm-cut-short", "empty"])
    def test_every_cut_gives_the_outcome_of_one_piece(self, text):
        whole = parse_outcome(text, len(text) + 1)
        assert all(parse_outcome(text, piece) == whole for piece in range(len(text) + 1))
        assert parse_outcome(text) == whole
        assert outcome(parse_rsmc, text) == outcome(reference_parse, text)

    def test_every_column_matches_in_pieces(self):
        text = mixed_rsmc_text()
        assert parse_outcome(text, 0) == parse_outcome(text, 100) == parse_outcome(text)

    @given(st.data(), st.integers(0, 200))
    @settings(max_examples=300, deadline=None)
    def test_damaged_text_in_pieces(self, data, piece):
        text = data.draw(mutants(THREE_STORMS))
        assert parse_outcome(text, piece) == parse_outcome(text)

    @given(signed_fields(THREE_STORMS), st.integers(0, 200))
    @settings(max_examples=200, deadline=None)
    def test_signed_fields_in_pieces(self, text, piece):
        assert parse_outcome(text, piece) == parse_outcome(text)


def stream_outcome(path, text: str, piece: int, newline: str | None = None):
    """parse_outcome of ``text`` written to ``path`` and parsed from the file
    opened as ``_load_storms`` opens it (``newline=""`` leaves line ends as
    written), read ``piece`` characters at a time."""
    path.write_text(text, encoding="utf-8", newline="")
    with path.open(encoding="utf-8", newline=newline) as fh:
        return parse_outcome(fh, piece)


def pipe_outcome(text: str, piece: int):
    """parse_outcome of ``text`` read through a pipe, a stream that cannot seek."""
    r, w = os.pipe()
    with open(w, "w", encoding="utf-8") as fh:   # within the pipe's buffer
        fh.write(text)
    with open(r, encoding="utf-8") as fh:
        assert not fh.seekable()
        return parse_outcome(fh, piece)


def _storms_text(n_storms: int, n_records: int) -> str:
    j = np.arange(n_records)
    return "".join(make_rsmc_storm(f"{k:04d}", 15.0 + 0.2 * j, 140.0 - 0.3 * j)
                   for k in range(n_storms))


MIXED = mixed_rsmc_text()
# the stream tests rewrite one file per example
ONE_FILE = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestRsmcStream:
    """parse_rsmc on an open file reads it a piece at a time and gives the
    outcome of the str path: storms, error message and line number alike."""

    @given(st.integers(1, 2 * len(MIXED)))
    @ONE_FILE
    def test_mixed_text(self, tmp_path, piece):
        assert stream_outcome(tmp_path / "bst.txt", MIXED, piece) == parse_outcome(MIXED)

    @given(st.data(), st.integers(1, 200))
    @ONE_FILE
    def test_damaged_text(self, tmp_path, data, piece):
        text = data.draw(mutants(THREE_STORMS))
        assert stream_outcome(tmp_path / "bst.txt", text, piece) == parse_outcome(text)

    @given(signed_fields(THREE_STORMS), st.integers(1, 200))
    @ONE_FILE
    def test_signed_fields(self, tmp_path, text, piece):
        assert stream_outcome(tmp_path / "bst.txt", text, piece) == parse_outcome(text)

    def test_crlf_across_a_read_boundary(self, tmp_path):
        text = _lines_joined(THREE_STORMS, ["\r\n", "\r\n", "\r", "\n"])
        whole = parse_outcome(text)
        assert "ParseError" not in whole
        # the first read ends between "\r" and "\n"
        cut = text.index("\r\n") + 1
        (tmp_path / "bst.txt").write_text(text, encoding="utf-8", newline="")
        with (tmp_path / "bst.txt").open(encoding="utf-8", newline="") as fh, \
                mock.patch.object(ingest, "RSMC_PIECE", cut):
            pieces = list(ingest._pieces(fh))
        assert "".join(pieces) == text and pieces[0].endswith("\r\n")
        for newline in (None, ""):   # as read_text() translates them, and as written
            assert all(stream_outcome(tmp_path / "bst.txt", text, piece, newline) == whole
                       for piece in range(1, len(text) + 2))
        assert parse_outcome((tmp_path / "bst.txt").read_text()) == whole

    def test_a_storm_across_three_pieces(self, tmp_path):
        long = make_rsmc_storm("0502", 10.0 + 0.1 * np.arange(40), 150.0 - 0.2 * np.arange(40))
        head = make_rsmc_storm("0501", [15.0, 15.5], [140.0, 139.5])
        text = head + long + make_rsmc_storm("0503", [20.0, 21.0], [130.0, 131.0])
        piece = 400
        with io.StringIO(text) as fh, mock.patch.object(ingest, "RSMC_PIECE", piece):
            ends = np.cumsum([len(p) for p in ingest._pieces(fh)])
        # pieces that hold a character of storm 0502
        spans = np.searchsorted(ends, [len(head), len(head) + len(long) - 1], "right")
        assert spans[1] - spans[0] + 1 >= 3
        assert "ParseError" not in parse_outcome(text)
        assert stream_outcome(tmp_path / "bst.txt", text, piece) == parse_outcome(text)

    @pytest.mark.parametrize("text", [THREE_STORMS, THREE_STORMS[:-1],
                                      THREE_STORMS.splitlines()[0]],
                             ids=["storms", "no-final-newline", "one-line-no-newline"])
    def test_a_read_that_holds_no_newline(self, tmp_path, text):
        # every read of 5 characters inside a line of 36 or more holds no newline
        assert min(map(len, text.splitlines())) > 5
        for piece in (1, 5, 35):
            assert stream_outcome(tmp_path / "bst.txt", text, piece) == parse_outcome(text)

    @pytest.mark.parametrize("line, edit", [(262, "05070100 002 5 xxx 1400"),
                                            (265, "66666 0025   x")],
                             ids=["data-fault", "header-fault"])
    def test_a_fault_in_a_later_piece(self, tmp_path, line, edit):
        lines = _storms_text(30, 10).splitlines()   # headers on lines 1, 12, 23, ...
        lines[line - 1] = edit
        text = "\n".join(lines) + "\n"
        piece = 500
        assert len("\n".join(lines[:line])) > 10 * piece
        got = stream_outcome(tmp_path / "bst.txt", text, piece)
        assert got == parse_outcome(text) == parse_outcome(text, piece)
        assert got[0] is ParseError and got[2] == line

    @pytest.mark.parametrize("text, line_no", [(THREE_STORMS, None),
                                               (THREE_STORMS.replace("1332", "13x2"), 11)],
                             ids=["storms", "data-fault-in-the-last-storm"])
    def test_a_stream_that_cannot_seek(self, text, line_no):
        got = pipe_outcome(text, 50)
        assert got == parse_outcome(text)
        assert got[2] == line_no if line_no else "ParseError" not in got


class OnceReader(io.StringIO):
    """A text file that counts the characters read from it and cannot seek."""

    def __init__(self, text: str):
        super().__init__(text)
        self.chars = 0

    def read(self, size=-1):
        chunk = super().read(size)
        self.chars += len(chunk)
        return chunk

    def seek(self, *args):
        raise AssertionError("seek")


def _last_storm_fault() -> tuple[str, int]:
    """200 storms of 40 records, the lat field of the last storm's 20th data
    line set to 'xxx', and that line's number."""
    lines = _storms_text(200, 40).splitlines()
    line = len(lines) - 20
    lines[line - 1] = lines[line - 1][:15] + "xxx" + lines[line - 1][18:]
    return "\n".join(lines) + "\n", line


class TestRsmcReadOnce:
    """parse_rsmc reads its input once, faults included, and names the first
    fault from the lines in hand."""

    def test_a_fault_in_the_last_storm(self):
        text, line = _last_storm_fault()
        piece = len(text) // 10
        whole = parse_outcome(text)
        assert whole[0] is ParseError and whole[2] == line and "xxx" in whole[1]
        with mock.patch.object(ingest, "RSMC_PIECE", piece):
            assert len(list(ingest._pieces(io.StringIO(text)))) >= 8
        reader = OnceReader(text)
        assert parse_outcome(reader, piece) == whole
        assert reader.chars == len(text)

    def test_the_fault_path_holds_a_piece(self, tmp_path, monkeypatch):
        """The traced peak of loading the faulty file of ten pieces stays below
        twice its length."""
        text, line = _last_storm_fault()
        path = tmp_path / "bst.txt"
        path.write_text(text)
        monkeypatch.setattr(ingest, "RSMC_PIECE", len(text) // 10)
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as exc:
                cli._load_storms(path, "rsmc")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.line_no == line
        assert peak < 2 * len(text)

    @pytest.mark.parametrize("storm", [20, 29], ids=["a-later-storm", "the-last-storm"])
    def test_a_header_that_declares_more_lines_than_the_file_holds(self, storm):
        lines = _storms_text(30, 10).splitlines()   # headers on lines 1, 12, 23, ...
        lines[11 * storm] = rsmc_header(f"{storm:04d}", 999)
        text = "\n".join(lines) + "\n"
        piece = 500
        assert len("\n".join(lines[:11 * storm])) > 10 * piece
        whole = parse_outcome(text)
        line = 11 * storm + 1
        assert whole == (ParseError, f"line {line}: storm {storm:04d}: header declares "
                                     f"999 data lines, found 10", line)
        reader = OnceReader(text)
        assert parse_outcome(reader, piece) == parse_outcome(text, piece) == whole
        assert reader.chars == len(text)


class TestParseCsv:
    def test_round_trip(self):
        # a year below 1000 is written with four digits
        storms = _varied_storms() + [make_storm("D", [15.0, 15.5], [140.0, 139.5],
                                                start=datetime(999, 7, 1))]
        buf = io.StringIO()
        write_csv(storms, buf)
        reparsed = parse_csv(buf.getvalue())
        assert [(s.storm_id, s.name) for s in reparsed] == [(s.storm_id, s.name)
                                                            for s in storms]
        for orig, back in zip(storms, reparsed):
            for field in ("times", "lats", "lons"):
                a, b = getattr(orig, field), getattr(back, field)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field

    def test_old_columns_are_ignored(self):
        # files written with grade, pressure and wind columns still load, whatever
        # those columns hold
        damaged = with_old_columns(CSV_TEXTS[0], pressure=lambda k: "ab12" if k % 2 else "")
        assert "ab12" in damaged
        assert outcome(parse_csv, damaged) == outcome(parse_csv, CSV_TEXTS[0])

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
        pytest.param("A,2005-07-01 00:00:00,15.0,140.0\nA,2005-07-01 06:00:00,"
                     + "9" * 400 + ",139.0", ValidationError, id="lat-beyond-any-float"),
        pytest.param("A,2005-07-01 00:00:00,15.0,140.0\nA,2005-07-01 06:00:00,15.5,139.0,"
                     + "x" * 140_000, ParseError, id="field-past-the-csv-limit"),
    ])
    def test_row_errors_carry_line_no(self, row, error):
        with pytest.raises(error) as info:
            parse_csv("storm_id,time,lat,lon,grade\n" + row + "\n")
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
                           "A,2005-07-01 12:00:00,16.0,179.5\n"
                           "A,2005-07-01 18:00:00,16.5,-1e-20\n"
                           "A,2005-07-02 00:00:00,17.0,-1e-15\n"
                           "A,2005-07-02 06:00:00,17.5,-0.0\n")
        # a tiny negative longitude wraps to 0.0, not to the rounded 360.0
        np.testing.assert_array_equal(storms[0].lons, [190.0, 180.0, 179.5, 0.0, 0.0, 0.0])
        assert not np.signbit(storms[0].lons).any()
        buf = io.StringIO()
        write_csv(storms, buf)
        assert ",190.0," in buf.getvalue()
        np.testing.assert_array_equal(parse_csv(buf.getvalue())[0].lons, storms[0].lons)
        with pytest.raises(ValidationError, match="longitude -180.5"):
            parse_csv("storm_id,time,lat,lon\nA,2005-07-01 00:00:00,15.0,-180.5\n")

    def test_overlong_header_field_is_line_1(self):
        # past the csv module's field limit
        with pytest.raises(ParseError, match="field limit") as info:
            parse_csv("storm_id,time,lat,lon," + "x" * 140_000 + "\n")
        assert info.value.line_no == 1

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_damaged_text_parses_or_names_its_line(self, data):
        text = data.draw(st.sampled_from(CSV_TEXTS).flatmap(mutants))
        got = outcome(parse_csv, text)
        assert got == outcome(reference_parse_csv, text)
        if isinstance(got[0], type):
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
        for field in ("times", "lats", "lons"):
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
