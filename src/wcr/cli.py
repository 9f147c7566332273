"""Command-line front end.

Subcommands cover the whole pipeline: `ingest` turns counter and telemetry
CSVs into profile/vector JSON, `reduce` clusters workloads and picks
representatives, `classify` labels behavior CSVs, `simulate` sweeps a
cache over a trace, `footprint` reads the knee off a curve, and `report`
aggregates everything into tables. A command fills its outputs in memory;
only once it has succeeded does `_publish` create `--out` and write them,
the manifest last. The manifest records the effective configuration, the
seed, and digests of all inputs and outputs, so identical inputs reproduce
identical output trees, and a failed run leaves `--out` as it was. The
inputs are the files a command reads, a `--schema` (or config `schema_path`)
file among them whenever it is read; a `vectors.json` carries its own
schema, so a command given one reads no schema file.

Exit codes: 1 usage error, 2 data validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import logging
import math
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import __version__
from .errors import DataError, ParseError
from .model import (
    BehaviorLabels,
    Codec,
    MetricSchema,
    MetricVector,
    RawProfile,
    default_schema,
    finite_number,
    read_csv,
    read_json,
    write_json,
)
from . import cachesim, classification, ingest, reduction, report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3


@dataclass
class RunConfig(Codec):
    """Defaults shared by all subcommands; a JSON config file may override
    them and command-line flags override the file."""

    schema_path: str | None = None
    warmup_s: float = 30.0
    variance_target: float = 0.85
    k: int | str = "auto"
    k_min: int = 1
    k_max: int | None = None
    seed: int = 42
    restarts: int = 8
    sizes: tuple[int, ...] = cachesim.DEFAULT_SIZE_GRID
    knee_ratio: float = cachesim.DEFAULT_KNEE_RATIO
    line_bytes: int = 64
    associativity: int | None = 8

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        config = cls.from_dict(read_json(path))
        if config.schema_path is not None:
            _check_schema_file("schema_path", config.schema_path)
        return config


def _check_schema_file(name: str, path: str) -> None:
    # Path("").exists() is true: it names the working directory
    if not Path(path).is_file():
        raise DataError(f"{name} {path!r} is not a file")


@dataclass(frozen=True)
class VectorsFile(Codec):
    """`vectors.json`: derived metric vectors with the schema they follow."""

    schema: MetricSchema
    vectors: tuple[MetricVector, ...]


@dataclass(frozen=True)
class ProfilesFile(Codec):
    """`profiles.json`: the raw counter profiles of one ingest run."""

    profiles: tuple[RawProfile, ...]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract wants 1
    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


class _Outputs(dict):
    """A run's output files, by name relative to `--out`, as text held in memory."""

    def open(self, name: str) -> io.StringIO:
        stream = self[name] = io.StringIO()
        stream.name = name  # for `write_json`'s error message
        return stream


def _publish(out_dir: Path, command: str, config: RunConfig, inputs: Sequence[Path],
             outputs: _Outputs) -> None:
    """Write a succeeded run's outputs and its manifest into `out_dir`, all or nothing.

    Every file is first written under a temporary name beside its target;
    only when all are written are they renamed into place, the manifest
    last. If a write fails, the temporaries and the directories this call
    made are removed and the error propagates, so `out_dir` is left as it
    was. This is the only place the package creates a directory or writes
    a file.
    """
    files = {name: stream.getvalue().encode("utf-8") for name, stream in outputs.items()}
    # inputs are recorded by name and digest (not absolute path) so that
    # identical runs into different directories stay byte-identical
    manifest = {
        "tool": "wcr",
        "version": __version__,
        "command": command,
        "config": config.to_dict(),
        "seed": config.seed,
        "inputs": sorted(
            ({"file": p.name, "sha256": _sha256(p)} for p in inputs),
            key=lambda entry: (entry["file"], entry["sha256"]),
        ),
        "outputs": {name: "sha256:" + hashlib.sha256(data).hexdigest()
                    for name, data in files.items()},
    }
    write_json(outputs.open("manifest.json"), manifest)
    files["manifest.json"] = outputs["manifest.json"].getvalue().encode("utf-8")
    made: list[Path] = []  # directories this call creates, parents first
    staged: dict[Path, Path] = {}  # temporary file -> its target, the manifest last
    try:
        for directory in sorted({(out_dir / name).parent for name in files}):
            for d in reversed((directory, *directory.parents)):
                if not d.is_dir():
                    d.mkdir()
                    made.append(d)
        for name, data in files.items():
            target = out_dir / name
            temporary = target.with_name(f".{target.name}.{os.getpid()}.tmp")
            staged[temporary] = target
            temporary.write_bytes(data)
        for temporary, target in staged.items():
            os.replace(temporary, target)
    except BaseException:
        for temporary in staged:
            temporary.unlink(missing_ok=True)
        for directory in reversed(made):
            shutil.rmtree(directory, ignore_errors=True)
        raise


# what a command hands back: the inputs it read, and the lines to print after `_publish`
_Result = tuple[list[Path], list[str]]


def _load_schema(config: RunConfig, inputs: list[Path]) -> MetricSchema:
    """The configured schema; a schema file it reads is added to `inputs`."""
    if config.schema_path is None:
        return default_schema()
    inputs.append(Path(config.schema_path))
    return MetricSchema.from_dict(read_json(config.schema_path))


# --- subcommands -----------------------------------------------------------


def _cmd_ingest(args: argparse.Namespace, config: RunConfig, outputs: _Outputs) -> _Result:
    inputs = [Path(args.counters)]
    schema = _load_schema(config, inputs)

    with open(args.counters, "r", encoding="utf-8", newline="") as fh:
        profiles = ingest.parse_counter_csv(fh)
    vectors = [ingest.derive_microarch_metrics(p, schema) for p in profiles]
    if args.telemetry:
        inputs.append(Path(args.telemetry))
        with open(args.telemetry, "r", encoding="utf-8", newline="") as fh:
            telemetry = ingest.parse_telemetry_csv(fh)
        wall_times = {p.workload_id: p.wall_time_s for p in profiles}
        system_metrics = {}
        for workload in sorted(telemetry):
            steady = ingest.trim_ramp_up(telemetry[workload], config.warmup_s)
            runtime = wall_times.get(workload, telemetry[workload].samples[-1].t_s)
            system_metrics[workload] = ingest.aggregate_telemetry(steady, runtime).to_dict()
        write_json(outputs.open("system_metrics.json"), {"system_metrics": system_metrics})
    write_json(outputs.open("profiles.json"), ProfilesFile(tuple(profiles)).to_dict())
    write_json(outputs.open("vectors.json"), VectorsFile(schema, tuple(vectors)).to_dict())
    return inputs, [f"ingested {len(profiles)} workloads -> {Path(args.out)}"]


def _load_vectors(path: Path, config: RunConfig, inputs: list[Path]
                  ) -> tuple[MetricSchema, list[MetricVector]]:
    payload = read_json(path)
    if isinstance(payload, dict) and "vectors" in payload:
        stored = VectorsFile.from_dict(payload)
        schema = stored.schema
        stale = {v.schema_version for v in stored.vectors} - {schema.version}
        if stale:
            raise DataError(f"vector schema_version {min(stale)!r} does not match "
                            f"schema {schema.version!r}")
        return schema, [MetricVector.from_values(v.workload_id, v.values, schema)
                        for v in stored.vectors]
    if isinstance(payload, dict) and "profiles" in payload:
        schema = _load_schema(config, inputs)
        profiles = ProfilesFile.from_dict(payload).profiles
        return schema, [ingest.derive_microarch_metrics(p, schema) for p in profiles]
    raise DataError(f"{path} holds neither 'vectors' nor 'profiles'")


def _cmd_reduce(args: argparse.Namespace, config: RunConfig, outputs: _Outputs) -> _Result:
    input_path = Path(args.input)
    inputs = [input_path]
    schema, vectors = _load_vectors(input_path, config, inputs)

    k = config.k
    reduction_config = reduction.ReductionConfig(
        variance_target=config.variance_target,
        k=None if k == "auto" else _parse_int("k", k),
        k_min=config.k_min,
        k_max=config.k_max,
        seed=config.seed,
        restarts=config.restarts,
    )
    result = reduction.reduce_vectors(vectors, schema, reduction_config)

    write_json(outputs.open("reduction.json"), result.to_dict())
    result.normalized.write_csv(outputs.open("normalized.csv"))
    return inputs, [
        f"reduced {len(vectors)} workloads to {result.clustering.k} representatives "
        f"-> {Path(args.out)}",
        *(f"  {workload}" for workload in result.representatives),
    ]


def _cmd_classify(args: argparse.Namespace, config: RunConfig, outputs: _Outputs) -> _Result:
    input_path = Path(args.input)
    with open(input_path, "r", encoding="utf-8", newline="") as src:
        rows = classification.label_csv(src, outputs.open("labels.csv"))
    return [input_path], [f"labeled {rows} workloads -> {Path(args.out) / 'labels.csv'}"]


_KIND_CHOICES = {
    "all": cachesim.ALL_KINDS,
    "ifetch": frozenset({cachesim.AccessKind.IFETCH}),
    "load": frozenset({cachesim.AccessKind.LOAD}),
    "store": frozenset({cachesim.AccessKind.STORE}),
    "data": frozenset({cachesim.AccessKind.LOAD, cachesim.AccessKind.STORE}),
}


def _parse_kinds(token: str) -> frozenset:
    parts = [p.strip().lower() for p in token.split(",") if p.strip()]
    kinds: frozenset = frozenset()
    for part in parts:
        if part not in _KIND_CHOICES:
            raise DataError(f"unknown access kind {part!r} (use ifetch/load/store/data/all)")
        kinds |= _KIND_CHOICES[part]
    return kinds or cachesim.ALL_KINDS


def _load_trace(args: argparse.Namespace) -> tuple[cachesim.AccessTrace, list[Path]]:
    trace_path = Path(args.trace)
    inputs = [trace_path]
    if trace_path.suffix == ".bin":
        sidecar = Path(args.segments) if args.segments else None
        if sidecar is not None:
            inputs.append(sidecar)
        trace = cachesim.read_binary_trace(trace_path, sidecar)
    elif args.segments:
        # a text trace is a single segment, which a sidecar cannot split
        raise _UsageError(f"--segments applies only to a .bin trace, not {trace_path.name}")
    else:
        trace = cachesim.read_text_trace(trace_path)
    if args.skip:
        trace = cachesim.skip_accesses(trace, args.skip)
    return trace, inputs


def _cmd_simulate(args: argparse.Namespace, config: RunConfig, outputs: _Outputs) -> _Result:
    if args.workload in ("", ".", "..") or set("/\\") & set(args.workload or ""):
        raise DataError(f"--workload {args.workload!r} is not a plain file name")
    if not config.sizes:
        raise DataError("sizes is empty; give at least one cache capacity")
    trace, inputs = _load_trace(args)
    kinds = _parse_kinds(args.kinds)
    template = cachesim.CacheConfig(
        capacity_bytes=config.sizes[0],
        line_bytes=config.line_bytes,
        associativity=config.associativity,
    )
    curve = cachesim.sweep_capacities(trace, config.sizes, template, kinds)

    # `report` reads the kind back from the name's suffix; a unified curve keeps `curve.csv`
    if args.workload is None and curve.kind is cachesim.CurveKind.UNIFIED:
        name = "curve.csv"
    else:
        name = f"{args.workload or 'curve'}_{curve.kind.value}.csv"
    cachesim.write_curve_csv(curve, outputs.open(name))
    return inputs, [f"swept {len(curve.points)} capacities -> {Path(args.out) / name}"]


def _cmd_footprint(args: argparse.Namespace, config: RunConfig, outputs: _Outputs) -> _Result:
    curve_path = Path(args.curve)
    curve = cachesim.read_curve_csv(curve_path)
    capacity = cachesim.estimate_footprint(curve, config.knee_ratio)

    write_json(
        outputs.open("footprint.json"),
        {"capacity_bytes": capacity, "knee_ratio": config.knee_ratio, "curve": curve_path.name},
    )
    return [curve_path], ["not_reached" if capacity is None else str(capacity)]


def _read_labels_csv(path: Path) -> dict[str, tuple[BehaviorLabels, str | None, str | None]]:
    """workload -> (labels, suite, stack), the trailing fields of its `WorkloadRecord`;
    suite and stack are optional columns."""
    labels = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header, rows = read_csv(
            fh, ("workload", "category", "system", "data_out", "data_intermediate"), extra=True)
        for lineno, row in rows:
            cells = dict(zip(header, row))
            if cells["workload"] in labels:
                raise ParseError(f"duplicate row for workload {cells['workload']!r}", lineno, path)
            fields = {k: cells[k] for k in ("system", "data_out", "data_intermediate")}
            try:
                fields["category"] = classification.parse_category(cells["category"])
                labels[cells["workload"]] = (BehaviorLabels.from_dict(fields),
                                             cells.get("suite") or None, cells.get("stack") or None)
            except DataError as exc:
                raise ParseError(str(exc), lineno, path)
    return labels


def _cmd_report(args: argparse.Namespace, config: RunConfig, outputs: _Outputs) -> _Result:
    if bool(args.vectors) != bool(args.labels):
        raise _UsageError("give --vectors and --labels together, or neither")
    inputs: list[Path] = []
    notes: list[str] = []

    summaries: list[report.GroupSummary] = []
    if args.vectors and args.labels:
        vectors_path, labels_path = Path(args.vectors), Path(args.labels)
        inputs += [vectors_path, labels_path]
        schema, vectors = _load_vectors(vectors_path, config, inputs)
        label_rows = _read_labels_csv(labels_path)
        records = []
        for vector in vectors:
            if vector.workload_id not in label_rows:
                raise DataError(f"workload '{vector.workload_id}' missing from {labels_path}")
            records.append(report.WorkloadRecord(
                vector.workload_id, dict(zip(schema.names, vector.values)),
                *label_rows[vector.workload_id],
            ))
        metric_names = list(args.metrics.split(",")) if args.metrics else list(schema.names)
        groupings = [report.Grouping.APPLICATION_CATEGORY, report.Grouping.SYSTEM_BEHAVIOR]
        if all(r.suite is not None for r in records):
            groupings.append(report.Grouping.SUITE)
        if all(r.stack is not None for r in records):
            groupings.append(report.Grouping.STACK)
        for grouping in groupings:
            summaries.append(report.group_summary(records, grouping, metric_names))

    stack_table = None
    if args.stack_table:
        stack_path = Path(args.stack_table)
        inputs.append(stack_path)
        stack_table = report.stack_impact_table(_read_stack_table(stack_path))

    curves: list[tuple[str, cachesim.MissRatioCurve]] = []
    if args.curves:
        curves_dir = Path(args.curves)
        if not curves_dir.is_dir():
            raise DataError(f"--curves {args.curves!r} is not a directory")
        for path in sorted(curves_dir.glob("*.csv")):
            inputs.append(path)
            workload, _, kind = path.stem.rpartition("_")
            if not workload or kind not in {k.value for k in cachesim.CurveKind}:
                workload, kind = path.stem, cachesim.CurveKind.UNIFIED
            curves.append((workload, cachesim.read_curve_csv(path, cachesim.CurveKind(kind))))

    if not summaries and stack_table is None and not curves:
        notes.append("no inputs supplied; empty report")

    bundle = report.ReportBundle(
        summaries=tuple(summaries),
        stack_impact=stack_table,
        curves=tuple(curves),
        notes=tuple(notes),
    )
    report.emit(bundle, outputs.open)
    return inputs, [f"wrote {len(outputs)} report files -> {Path(args.out)}"]


def _read_stack_table(path: Path) -> list[report.StackMetricRecord]:
    # long format: algorithm,stack,metric,value
    grouped: dict[tuple[str, str], dict[str, float]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header, rows = read_csv(fh, ("algorithm", "stack", "metric", "value"), extra=True)
        for lineno, row in rows:
            cells = dict(zip(header, row))
            metrics = grouped.setdefault((cells["algorithm"], cells["stack"]), {})
            if cells["metric"] in metrics:
                raise ParseError(f"duplicate row for algorithm {cells['algorithm']!r}, stack "
                                 f"{cells['stack']!r}, metric {cells['metric']!r}", lineno, path)
            metrics[cells["metric"]] = finite_number("value", cells["value"], lineno, path)
    return [
        report.StackMetricRecord(algorithm=a, stack=s, metrics=m)
        for (a, s), m in sorted(grouped.items())
    ]


# --- argument parsing ---------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, top_level: bool) -> None:
    # registered on the top-level parser and again on every subparser with
    # SUPPRESS defaults, so the flags work on either side of the subcommand
    default = None if top_level else argparse.SUPPRESS
    p.add_argument("--config", default=default, help="JSON run-configuration file")
    p.add_argument("--seed", type=int, default=default, help="random seed (default 42)")
    p.add_argument(
        "--schema", default=default,
        help="metric schema JSON (default: built-in 45-metric schema)",
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="wcr", description="Workload characterization and reduction toolkit")
    _add_common(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)

    p = sub.add_parser("ingest", help="counter/telemetry CSVs -> profile and vector JSON")
    _add_common(p, top_level=False)
    p.add_argument("counters", help="counter CSV (workload,node,event,count,wall_time_s)")
    p.add_argument("--telemetry", help="telemetry CSV")
    p.add_argument("--warmup", type=float, help="warm-up seconds to trim (default 30)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("reduce", help="profiles/vectors JSON -> clustering and representatives")
    _add_common(p, top_level=False)
    p.add_argument("input", help="profiles.json or vectors.json")
    p.add_argument("--k", help="fixed cluster count, or 'auto'")
    p.add_argument(
        "--k-range", help="k_min,k_max for auto selection (default: 1 to half the workloads)"
    )
    p.add_argument("--variance-target", type=float, help="PCA variance retention (default 0.85)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("classify", help="behavior CSV -> labeled CSV")
    _add_common(p, top_level=False)
    p.add_argument("input", help="behavior CSV")
    p.add_argument("--out", required=True)

    p = sub.add_parser("simulate", help="access trace -> miss-ratio curve")
    _add_common(p, top_level=False)
    p.add_argument("trace", help="trace file (.bin packed records, otherwise text)")
    p.add_argument("--segments", help="JSON sidecar with segment boundaries and weights")
    p.add_argument("--kinds", default="all", help="access kinds: ifetch, load, store, data, all")
    p.add_argument("--sizes", help="comma-separated capacities in bytes (suffix K/M allowed)")
    p.add_argument("--line", type=int, help="line size in bytes (default 64)")
    p.add_argument("--assoc", help="associativity, or 'full'")
    p.add_argument("--skip", type=int, default=0, help="skip the first N accesses")
    p.add_argument("--workload", help="workload name used in the curve filename (default: "
                   "curve.csv, or curve_<kind>.csv for an instruction or data curve)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("footprint", help="miss-ratio curve CSV -> footprint estimate")
    _add_common(p, top_level=False)
    p.add_argument("curve", help="curve CSV from simulate")
    p.add_argument("--knee", type=float, help="knee miss-ratio threshold (default 0.01)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="vectors + labels (+ curves, stack table) -> report files")
    _add_common(p, top_level=False)
    p.add_argument("--vectors", help="vectors.json or profiles.json")
    p.add_argument("--labels", help="labeled CSV from classify (may add suite/stack columns)")
    p.add_argument("--stack-table", help="CSV algorithm,stack,metric,value")
    p.add_argument("--curves", help="directory of curve CSVs")
    p.add_argument("--metrics", help="comma-separated metric names to summarize (default: all)")
    p.add_argument("--out", required=True)
    return parser


def _parse_int(name: str, token: str | int) -> int:
    try:
        return int(token)
    except ValueError:
        raise DataError(f"bad {name} {token!r}, expected an integer")


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise DataError(f"bad {name} {value!r}, expected a finite number")
    return value


def _parse_size(token: str) -> int:
    token = token.strip().upper()
    factor = 1
    if token.endswith("K"):
        factor, token = 1024, token[:-1]
    elif token.endswith("M"):
        factor, token = 1024 * 1024, token[:-1]
    try:
        return int(token) * factor
    except ValueError:
        raise DataError(f"bad size {token!r}")


def _apply_overrides(args: argparse.Namespace, config: RunConfig) -> RunConfig:
    if args.seed is not None:
        config.seed = args.seed
    if args.schema is not None:
        _check_schema_file("--schema", args.schema)
        config.schema_path = args.schema
    if getattr(args, "warmup", None) is not None:
        config.warmup_s = _finite("--warmup", args.warmup)
    if getattr(args, "variance_target", None) is not None:
        config.variance_target = _finite("--variance-target", args.variance_target)
    if getattr(args, "k", None) is not None:
        config.k = args.k if args.k == "auto" else _parse_int("--k", args.k)
    if getattr(args, "k_range", None) is not None:
        try:
            k_min, k_max = (int(v) for v in args.k_range.split(","))
        except ValueError:
            raise DataError(f"bad --k-range {args.k_range!r}, expected 'min,max'")
        config.k, config.k_min, config.k_max = "auto", k_min, k_max
    if getattr(args, "sizes", None) is not None:
        config.sizes = tuple(_parse_size(t) for t in args.sizes.split(","))
    if getattr(args, "line", None) is not None:
        config.line_bytes = args.line
    if getattr(args, "assoc", None) is not None:
        config.associativity = None if args.assoc == "full" else _parse_int("--assoc", args.assoc)
    if getattr(args, "knee", None) is not None:
        config.knee_ratio = _finite("--knee", args.knee)
    return config


_HANDLERS = {
    "ingest": _cmd_ingest,
    "reduce": _cmd_reduce,
    "classify": _cmd_classify,
    "simulate": _cmd_simulate,
    "footprint": _cmd_footprint,
    "report": _cmd_report,
}


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("WCR_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("wcr: a subcommand is required", file=sys.stderr)
            return EXIT_USAGE
        config = RunConfig.load(args.config) if args.config else RunConfig()
        config = _apply_overrides(args, config)
        outputs = _Outputs()
        inputs, lines = _HANDLERS[args.command](args, config, outputs)
        _publish(Path(args.out), args.command, config, inputs, outputs)
        for line in lines:
            print(line)
        return EXIT_OK
    except _UsageError as exc:
        print(f"wcr: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"wcr: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"wcr: {exc.filename or ''}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
