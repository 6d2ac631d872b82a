"""Command-line front end: ingest, fit, predict, grid, length-study, export.

Exit codes: 0 success, 2 input/validation error, 3 numerical error,
4 lookup error. Every command writes a manifest sufficient to replay it.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import sys
import time
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (FofcastError, ParseError, SchemaError, ShapeError, SingularityError,
                     StormLookupError, ValidationError)
from .experiment import (ExperimentConfig, SplitRunner, forecasts_to_geojson,
                         length_study, make_bases, repeated_simulation,
                         split_workers)
from .ingest import (DatasetMatrix, build_matrices, extract_tail,
                     filter_min_length, parse_csv, parse_rsmc, time_grid,
                     train_test_split)
from .regression import predict_trajectory

# storms whose GeoJSON features are built and written at a time
GEOJSON_CHUNK = 256


def _write_manifest(out_dir: Path, command: str, args: argparse.Namespace,
                    timings: dict[str, float], **fields) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "arguments": {k: str(v) if isinstance(v, Path) else v
                      for k, v in vars(args).items() if k != "func"},
        "timings_s": timings,
        **fields,
    }
    (out_dir / f"{command}_manifest.json").write_text(
        json.dumps(manifest, indent=2))


def _undecodable(path: Path, fmt: str, encoding: str) -> ParseError:
    """The first byte of ``path`` that ``encoding`` cannot decode, on its line
    as ``fmt`` counts lines: str.splitlines for RSMC, "\n", "\r\n" and "\r"
    for CSV."""
    data = path.read_bytes()
    try:
        data.decode(encoding)
        return ParseError(f"{path}: changed while it was read")
    except UnicodeDecodeError as exc:
        head = data[:exc.start].decode(encoding) + "x"   # a line for the byte
        lines = head.splitlines() if fmt == "rsmc" else io.StringIO(head, newline="")
        return ParseError(f"'{encoding}' codec can't decode byte 0x{data[exc.start]:02x}: "
                          f"{exc.reason}", len(list(lines)))


def _load_storms(path: Path, fmt: str):
    """The storms of a CSV file, or of an RSMC file read a piece at a time."""
    try:
        if fmt == "csv":
            return parse_csv(path.read_text())
        with path.open() as fh:
            return parse_rsmc(fh)
    except UnicodeDecodeError as exc:   # its position counts from a read, not the file
        raise _undecodable(path, fmt, exc.encoding) from None


def _write_matrix_csv(path: Path, matrix: DatasetMatrix) -> None:
    """The storm-id header as csv.writer quotes it, then one row of float
    reprs per window point, ended as csv.writer ends its rows (CRLF)."""
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(matrix.storm_ids)
        fh.writelines(",".join(map(repr, row.tolist())) + "\r\n" for row in matrix.values)


def _repeated(ids) -> str:
    """The ids that occur more than once in ``ids``, comma-separated."""
    return ", ".join(sid for sid, n in Counter(ids).items() if n > 1)


def _read_matrix_csv(path: Path, total_len: int) -> DatasetMatrix:
    """The matrix under the storm-id header of ``path``, read a row at a time,
    or a SchemaError naming it."""
    try:
        with path.open() as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise ValueError("no header of storm ids")
            ids = tuple(header)
            if repeated := _repeated(ids):
                raise ValueError(f"storm ids repeated in the header: {repeated}")
            values = np.empty((total_len, len(ids)))
            n_rows = 0
            # the body's rows as str.splitlines cuts it
            for row in (row for line in fh for row in line.splitlines()):
                if n_rows < total_len:
                    cells = row.split(",")
                    if len(cells) != len(ids):
                        raise ValueError(f"row {n_rows + 1} holds {len(cells)} values "
                                         f"for {len(ids)} storm ids")
                    values[n_rows] = list(map(float, cells))
                n_rows += 1
        if n_rows != total_len:
            raise ValueError(f"{n_rows} rows of values for a window of {total_len}")
        if not np.isfinite(values).all():
            raise ValueError("a value is not finite")
        return DatasetMatrix(values=values, storm_ids=ids)
    except (csv.Error, ValueError, ShapeError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _read_json(path: Path, parse):
    """``parse`` of the JSON object in ``path``; a missing or ill-shaped
    field is a SchemaError that names the file."""
    try:
        return parse(json.loads(path.read_text()))
    except (KeyError, TypeError, ValueError, ShapeError) as exc:
        raise SchemaError(f"{path}: missing or ill-shaped field: {exc}") from exc


def _int(d: dict, key: str) -> int:
    """The JSON integer under ``key``; a float, a string or a boolean is refused."""
    if type(d[key]) is not int:
        raise ValueError(f"{key} must be an integer, got {d[key]!r}")
    return d[key]


def _window(d: dict) -> dict:
    """The window shape a dataset was cut, or a model fitted, with."""
    shape = {key: _int(d, key) for key in ("total_len", "predictor_len")}
    if not 0 < shape["predictor_len"] < shape["total_len"]:
        raise ValueError(f"need 0 < predictor_len < total_len, got {shape}")
    return shape


def _model(d: dict) -> tuple:
    """The window shape, test storm ids, bases (from the window and K_t, K_s)
    and lat and lon (coefficients, center) models of a model.json."""
    ids = d["test_ids"]
    if not isinstance(ids, list) or not all(isinstance(sid, str) for sid in ids):
        raise ValueError("test_ids must be a list of storm ids")
    window = _window(d)
    K_t, K_s = _int(d, "K_t"), _int(d, "K_s")
    bases = make_bases(ExperimentConfig(**window, K_t=K_t, K_s=K_s))
    models = []
    for coord in ("lat", "lon"):
        coefficients, center = (np.array(d[coord][key], dtype=float)
                                for key in ("coefficients", "center"))
        if not (np.isfinite(coefficients).all() and np.isfinite(center).all()):
            raise ValueError(f"a {coord} coefficient or centre value is not finite")
        if coefficients.shape != (K_s, 1 + K_t) or center.shape != (K_t,):
            raise ShapeError(f"{coord} coefficients or centre do not match "
                             f"K_t={K_t}, K_s={K_s}")
        models.append((coefficients, center))
    return window, ids, bases, *models


def _load_dataset(data_dir: Path) -> tuple[DatasetMatrix, DatasetMatrix, dict, int | None]:
    """lat, lon, the window shape and the irregular window count, if recorded."""
    meta, irregular = _read_json(data_dir / "dataset.json",
                                 lambda d: (_window(d), d.get("irregular_windows")))
    lat = _read_matrix_csv(data_dir / "lat.csv", meta["total_len"])
    lon = _read_matrix_csv(data_dir / "lon.csv", meta["total_len"])
    if lon.storm_ids != lat.storm_ids:
        raise SchemaError(f"{data_dir / 'lon.csv'}: storm ids differ from those "
                          f"of {data_dir / 'lat.csv'} or are in another order")
    # the positions build_matrices writes: a longitude column starts in [0, 360)
    # and steps less than 180 degrees, which np.unwrap leaves as it is
    if not (np.abs(lat.values) <= 90.0).all():
        raise SchemaError(f"{data_dir / 'lat.csv'}: a latitude is outside [-90, 90]")
    if not (((lon.values[0] >= 0.0) & (lon.values[0] < 360.0)).all() and np.array_equal(
            np.unwrap(lon.values, period=360.0, axis=0), lon.values)):
        raise SchemaError(f"{data_dir / 'lon.csv'}: a longitude column starts outside "
                          f"[0, 360) or steps by more than 180 degrees")
    return lat, lon, meta, irregular


def _config(args: argparse.Namespace, meta: dict) -> ExperimentConfig:
    """The config of window ``meta`` and the settings among ``args``; others at defaults."""
    names = {f.name for f in fields(ExperimentConfig)}
    return ExperimentConfig(**meta, **{k: v for k, v in vars(args).items() if k in names})


def cmd_ingest(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    if args.predictor_len >= args.total_len:
        print("error: --predictor-len must be smaller than --total-len",
              file=sys.stderr)
        return 2
    storms = _load_storms(args.input, args.format)
    t_parse = time.perf_counter()
    kept = [s for s in filter_min_length(storms, args.min_len) if len(s) >= args.total_len]
    windows = [extract_tail(s, args.total_len, args.predictor_len) for s in kept]
    if repeated := _repeated(w.storm_id for w in windows):
        raise ValidationError(f"{args.input}: storm ids repeated among the windows: {repeated}")
    lat, lon = build_matrices(windows)
    # the time grid assumes 6-hourly steps; count, not refuse, the others
    irregular = int(np.any(np.diff([w.times for w in windows], axis=1) != 6 * 3600,
                           axis=1).sum())
    t_window = time.perf_counter()
    args.out.mkdir(parents=True, exist_ok=True)
    _write_matrix_csv(args.out / "lat.csv", lat)
    _write_matrix_csv(args.out / "lon.csv", lon)
    (args.out / "dataset.json").write_text(json.dumps({
        "total_len": args.total_len, "predictor_len": args.predictor_len,
        "min_len": args.min_len, "n_storms": lat.n_storms,
        "source_format": args.format, "source_path": str(args.input),
        "irregular_windows": irregular,
    }, indent=2))
    t_write = time.perf_counter()
    _write_manifest(args.out, "ingest", args,
                    {"parse": t_parse - t0, "window": t_window - t_parse,
                     "write": t_write - t_window, "total": t_write - t0},
                    counts={"storms": len(storms), "records": sum(map(len, storms)),
                            "windows": len(windows), "irregular_windows": irregular})
    print(f"ingested {lat.n_storms} storms "
          f"(L={args.total_len}, P={args.predictor_len}) -> {args.out}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    lat, lon, meta, _ = _load_dataset(args.data)
    config = _config(args, meta)
    t_load = time.perf_counter()
    train_idx, test_idx = train_test_split(lat.n_storms, config.ratio, config.seed)
    runner = SplitRunner(lat, lon, train_idx, test_idx, config)
    saved = {**meta, "K_t": config.K_t, "K_s": config.K_s,
             "seed": config.seed, "ratio": config.ratio,
             "train_ids": [lat.storm_ids[i] for i in train_idx],
             "test_ids": [lat.storm_ids[i] for i in test_idx]}
    for coord in ("lat", "lon"):
        coefficients, center = runner.fit_coordinate(coord)
        saved[coord] = {"coefficients": coefficients.tolist(), "center": center.tolist()}
    t_fit = time.perf_counter()
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "model.json").write_text(json.dumps(saved))
    t_write = time.perf_counter()
    _write_manifest(args.out, "fit", args,
                    {"load": t_load - t0, "fit": t_fit - t_load,
                     "write": t_write - t_fit, "total": t_write - t0})
    print(f"fitted global lat/lon models on {len(train_idx)} training storms "
          f"-> {args.out}")
    return 0


def _write_geojson(path: Path, storm_ids, *arrays, include_truth: bool) -> float:
    """Write the bytes of ``json.dumps(forecasts_to_geojson(storm_ids, *arrays,
    include_truth=include_truth))``, building the features of near GEOJSON_CHUNK
    storms at a time; the seconds spent building them. A chunk of two or more
    storms scores each storm bit for bit as the whole batch does; one alone may not."""
    built, start = 0.0, 0
    n_chunks = max(1, -(-len(storm_ids) // GEOJSON_CHUNK))
    with path.open("w") as fh:
        fh.write('{"type": "FeatureCollection", "features": [')
        for chunk in zip(*(np.array_split(a, n_chunks, axis=1) for a in arrays)):
            stop = start + chunk[0].shape[1]
            t0 = time.perf_counter()
            geojson = forecasts_to_geojson(storm_ids[start:stop], *chunk,
                                           include_truth=include_truth)
            built += time.perf_counter() - t0
            fh.write((", " if start else "") + json.dumps(geojson["features"])[1:-1])
            start = stop
        fh.write("]}")
    return built


def _write_forecasts(args: argparse.Namespace, command: str, select,
                     include_truth: bool) -> int:
    """Forecast the storms whose ids ``select`` takes from the split's test
    ids and the dataset's ids; write GeoJSON."""
    t0 = time.perf_counter()
    lat, lon, meta, _ = _load_dataset(args.data)
    window, test_ids, bases, *models = _read_json(args.models / "model.json", _model)
    if window != meta:
        raise SchemaError(f"{args.models / 'model.json'}: models fitted on windows "
                          f"{window}, {args.data / 'dataset.json'} holds {meta}")
    t_load = time.perf_counter()
    ids = select(test_ids, lat.storm_ids)
    index = {sid: j for j, sid in enumerate(lat.storm_ids)}
    if unknown := [sid for sid in ids if sid not in index]:
        raise StormLookupError(f"unknown storm ids: {', '.join(unknown)}\n"
                               f"available: {', '.join(sorted(index))}")
    if repeated := _repeated(ids):
        raise ValidationError(f"storm ids repeated: {repeated}")
    cols = [index[sid] for sid in ids]
    lat_obs, lon_obs = lat.values[:, cols], lon.values[:, cols]
    P = meta["predictor_len"]
    # the segments indexed as SplitRunner indexes them, so export scores grid's bits
    lat_hat, lon_hat = predict_trajectory(*bases, *models, lat.values[:P, cols],
                                          lon.values[:P, cols], time_grid(meta["total_len"]))
    t_forecast = time.perf_counter()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    built = _write_geojson(args.out, ids, lat_obs, lon_obs, lat_hat, lon_hat,
                           include_truth=include_truth)
    t_write = time.perf_counter()
    _write_manifest(args.out.parent, command, args,
                    {"load": t_load - t0, "forecast": t_forecast - t_load,
                     "geojson": built, "write": t_write - t_forecast - built,
                     "total": t_write - t0})
    print(f"wrote {len(ids)} forecasts -> {args.out}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    return _write_forecasts(args, "predict",
                            lambda test_ids, ids: args.storm_ids or ids,
                            include_truth=not args.no_truth)


def cmd_grid(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    lat, lon, meta, irregular = _load_dataset(args.data)
    config = _config(args, meta)
    t_load = time.perf_counter()
    report = repeated_simulation(lat, lon, config)
    t_splits = time.perf_counter()
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "grid.csv").write_text(report.to_csv())
    (args.out / "report.json").write_text(report.to_json())
    t_write = time.perf_counter()
    _write_manifest(args.out, "grid", args,
                    {"load": t_load - t0, "splits": t_splits - t_load,
                     "write": t_write - t_splits, "total": t_write - t0},
                    workers=split_workers(config.n_repetitions),
                    counts={"irregular_windows": irregular})
    k_lat, k_lon = report.best_pair
    print(f"global mean error: {report.global_mean:.2f} km")
    print(f"best pair: k_lat={k_lat}, k_lon={k_lon} "
          f"with {report.best_error:.2f} km over {config.n_repetitions} repetitions")
    return 0


def cmd_length_study(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    storms = _load_storms(args.input, args.format)
    t_load = time.perf_counter()
    L = args.lengths[0]
    config = _config(args, {"total_len": L, "predictor_len": L - args.response_len})
    entries = length_study(storms, config, lengths=args.lengths,
                           response_len=args.response_len)
    t_splits = time.perf_counter()
    args.out.mkdir(parents=True, exist_ok=True)
    summary = []
    for e in entries:
        name = f"length_{e.total_len}_minrec_{e.min_records}"
        (args.out / f"{name}.json").write_text(e.report.to_json())
        (args.out / f"{name}.csv").write_text(e.report.to_csv())
        summary.append({
            "min_records": e.min_records, "data_size": e.data_size,
            "total_len": e.total_len, "best_error": e.report.best_error,
            "best_pair": list(e.report.best_pair),
            "global_mean": e.report.global_mean,
        })
        print(f"size {e.data_size:5d} L={e.total_len}: "
              f"best {e.report.best_error:.2f} km at k_lat={e.report.best_pair[0]}, "
              f"k_lon={e.report.best_pair[1]}")
    (args.out / "length_study.json").write_text(json.dumps(summary, indent=2))
    t_write = time.perf_counter()
    _write_manifest(args.out, "length-study", args,
                    {"load": t_load - t0, "splits": t_splits - t_load,
                     "write": t_write - t_splits, "total": t_write - t0},
                    workers=split_workers(len(entries) * config.n_repetitions))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    return _write_forecasts(args, "export", lambda test_ids, ids: test_ids,
                            include_truth=True)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ratio", type=float, default=ExperimentConfig.ratio,
                   help="train fraction of the split (default %(default)s)")
    p.add_argument("--seed", type=int, default=ExperimentConfig.seed, help="base random seed")
    p.add_argument("--k-t", dest="K_t", type=int, default=ExperimentConfig.K_t,
                   help="predictor basis dimension (default %(default)s)")
    p.add_argument("--k-s", dest="K_s", type=int, default=ExperimentConfig.K_s,
                   help="response basis dimension (default %(default)s)")
    p.add_argument("--ridge", type=float, default=ExperimentConfig.ridge,
                   help="ridge on the coefficient surface (default %(default)s)")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k-lat", dest="k_lat_max", type=int, default=ExperimentConfig.k_lat_max,
                   help="largest latitude cluster count (default %(default)s)")
    p.add_argument("--k-lon", dest="k_lon_max", type=int, default=ExperimentConfig.k_lon_max,
                   help="largest longitude cluster count (default %(default)s)")
    p.add_argument("--reps", dest="n_repetitions", type=int,
                   default=ExperimentConfig.n_repetitions,
                   help="number of repeated simulations (default %(default)s)")
    p.add_argument("--min-cluster-size", type=int, default=ExperimentConfig.min_cluster_size,
                   help="smallest pair size fitted locally (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fofcast",
        description="Cyclone track forecasting with function-on-function "
                    "regression and functional clustering.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse best-track data into matrices")
    p.add_argument("--format", choices=("rsmc", "csv"), default="rsmc")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--min-len", type=int, default=ExperimentConfig.total_len,
                   help="minimum record count per storm (default %(default)s)")
    p.add_argument("--total-len", type=int, default=ExperimentConfig.total_len,
                   help="trajectory window length (default %(default)s)")
    p.add_argument("--predictor-len", type=int, default=ExperimentConfig.predictor_len,
                   help="predictor segment length (default %(default)s)")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("fit", help="fit global lat/lon regression models")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_model_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="forecast storms and write GeoJSON")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--models", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--no-truth", action="store_true",
                   help="omit observed response segments and error properties")
    p.add_argument("storm_ids", nargs="*",
                   help="storm ids to forecast (default: all)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("grid", help="cluster-pair grid search with repetitions")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_model_flags(p)
    _add_grid_flags(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("length-study",
                       help="window length vs data size trade-off study")
    p.add_argument("--format", choices=("rsmc", "csv"), default="rsmc")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    study = inspect.signature(length_study).parameters
    p.add_argument("--lengths", type=int, nargs="+", default=list(study["lengths"].default),
                   help="window lengths, each also a record threshold (default %(default)s)")
    p.add_argument("--response-len", type=int, default=study["response_len"].default,
                   help="fixed response segment length (default %(default)s)")
    _add_model_flags(p)
    _add_grid_flags(p)
    p.set_defaults(func=cmd_length_study)

    p = sub.add_parser("export", help="export all test-set forecasts as GeoJSON")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--models", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SingularityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except StormLookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (FofcastError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
