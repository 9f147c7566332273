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
schema, so a command given one reads no schema file. A command opens each
input once, through `_Inputs.open`, by the path as the user typed it: an
input's digest is that of the bytes its parser read, taken as they were
read, and `model.open_binary` names that path in a `DataError` raised
while it is open. This module only opens inputs, dispatches to the
stages, and publishes.

A run's settings are `RunConfig`'s built-in defaults, then the values of a
`--config` JSON file, then the flags given, each overriding the one before.

Exit codes: 1 usage error, 2 data validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import io
import logging
import math
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import __version__
from .errors import DataError
from .model import (
    Codec,
    MetricSchema,
    MetricVector,
    RawProfile,
    default_schema,
    open_binary,
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
    """The settings of a run, by the subcommand that reads each, with the flag that sets it.

    - ingest: `schema_path` (`--schema`); `warmup_s` (`--warmup`), given `--telemetry`
    - reduce: `variance_target` (`--variance-target`); `k` (`--k`, or "auto" by
      `--k-range`); `k_min`, `k_max` (`--k-range`); `seed` (`--seed`); `restarts`
      (config file only); `schema_path` (`--schema`), given a profiles.json
    - report: `schema_path` (`--schema`), given a profiles.json
    - simulate: `sizes` (`--sizes`), `line_bytes` (`--line`), `associativity`
      (`--assoc`, where `full` is None)
    - footprint: `knee_ratio` (`--knee`)

    The reduction defaults are `ReductionConfig`'s, the cache geometry's `CacheConfig`'s.
    """

    schema_path: str | None = None
    warmup_s: float = 30.0
    variance_target: float = reduction.ReductionConfig.variance_target
    k: int | str = "auto"
    k_min: int = reduction.ReductionConfig.k_min
    k_max: int | None = reduction.ReductionConfig.k_max
    seed: int = reduction.ReductionConfig.seed
    restarts: int = reduction.ReductionConfig.restarts
    sizes: tuple[int, ...] = cachesim.DEFAULT_SIZE_GRID
    knee_ratio: float = 0.01
    line_bytes: int = cachesim.CacheConfig.line_bytes
    associativity: int | None = cachesim.CacheConfig.associativity

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        with open_binary(path) as fh:
            config = cls.from_dict(read_json(fh))
            if config.schema_path is not None:
                _check_file("schema_path", config.schema_path)
        return config


def _check_file(name: str, path: str) -> str:
    # Path("").exists() is true: it names the working directory
    if not Path(path).is_file():
        raise DataError(f"{name} {path!r} is not a file")
    return path


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


class _InputStream(io.RawIOBase):
    """An input file opened once, in binary mode, that hashes every byte read
    through it."""

    def __init__(self, file: io.FileIO):
        self._file = file
        self.name = file.name
        self._digest = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def fileno(self) -> int:
        return self._file.fileno()

    def readinto(self, buffer) -> int:
        count = self._file.readinto(buffer)
        self._digest.update(memoryview(buffer).cast("B")[:count])
        return count

    def entry(self) -> tuple[str, str]:
        """The file's name and the sha256 digest of all its bytes, the unread ones read now."""
        while self.read(1 << 16):
            pass
        return Path(self.name).name, "sha256:" + self._digest.hexdigest()

    def close(self) -> None:
        self._file.close()
        super().close()


class _Inputs(list):
    """A run's input files, as (name, digest) entries recorded as each is read."""

    @contextlib.contextmanager
    def open(self, path: str | Path) -> Iterator[_InputStream]:
        """`path` as an `_InputStream`, whose entry is recorded once the code
        reading it has succeeded: a failed read records nothing and reads no further."""
        with _InputStream(open(path, "rb", buffering=0)) as stream, open_binary(stream):
            yield stream
            self.append(stream.entry())


class _Outputs(dict):
    """A run's output files, by name relative to `--out`, as text held in memory."""

    def open(self, name: str) -> io.StringIO:
        stream = self[name] = io.StringIO()
        stream.name = name  # for `write_json`'s error message
        return stream


def _publish(out_dir: Path, command: str, config: RunConfig, inputs: Sequence[tuple[str, str]],
             outputs: _Outputs) -> None:
    """Write a succeeded run's outputs and its manifest into `out_dir`, all or nothing.

    `inputs` are the (file name, digest) entries `_Inputs` recorded, each
    digest that of the bytes the command parsed.

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
        "inputs": [{"file": name, "sha256": digest} for name, digest in sorted(inputs)],
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


def _load_schema(config: RunConfig, inputs: _Inputs) -> MetricSchema:
    """The configured schema, read from its file when one is configured."""
    if config.schema_path is None:
        return default_schema()
    with inputs.open(config.schema_path) as fh:
        return MetricSchema.from_dict(read_json(fh))


# --- subcommands: each reads its inputs through `inputs`, fills `outputs`, and
# returns the lines to print after `_publish`


def _cmd_ingest(args: argparse.Namespace, config: RunConfig, inputs: _Inputs,
                outputs: _Outputs) -> list[str]:
    schema = _load_schema(config, inputs)
    with inputs.open(args.counters) as fh:
        # in workload-id order, so the outputs do not follow the row order
        profiles = sorted(ingest.parse_counter_csv(fh), key=lambda p: p.workload_id)
        vectors = [ingest.derive_microarch_metrics(p, schema) for p in profiles]
    if args.telemetry:
        with inputs.open(args.telemetry) as fh:
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
    return [f"ingested {len(profiles)} workloads -> {args.out}"]


def _load_vectors(path: str, config: RunConfig, inputs: _Inputs
                  ) -> tuple[MetricSchema, list[MetricVector]]:
    with inputs.open(path) as fh:
        payload = read_json(fh)
        if isinstance(payload, dict) and "vectors" in payload:
            stored = VectorsFile.from_dict(payload)
            schema = stored.schema
            stale = {v.schema_version for v in stored.vectors} - {schema.version}
            if stale:
                raise DataError(f"vector schema_version {min(stale)!r} does not match "
                                f"schema {schema.version!r}")
            for vector in stored.vectors:
                schema.check_values(vector.workload_id, vector.values)
            return schema, list(stored.vectors)
        if not (isinstance(payload, dict) and "profiles" in payload):
            raise DataError("holds neither 'vectors' nor 'profiles'")
        profiles = ProfilesFile.from_dict(payload).profiles
        # derived while the profiles are open, so that an error names their file
        schema = _load_schema(config, inputs)
        return schema, [ingest.derive_microarch_metrics(p, schema) for p in profiles]


def _cmd_reduce(args: argparse.Namespace, config: RunConfig, inputs: _Inputs,
                outputs: _Outputs) -> list[str]:
    schema, vectors = _load_vectors(args.input, config, inputs)

    reduction_config = reduction.ReductionConfig(
        k=None if config.k == "auto" else _parse_int("k", config.k),
        **{f.name: getattr(config, f.name) for f in dataclasses.fields(reduction.ReductionConfig)
           if f.name != "k"})
    result = reduction.reduce_vectors(vectors, schema, reduction_config)

    write_json(outputs.open("reduction.json"), result.to_dict())
    result.normalized.write_csv(outputs.open("normalized.csv"))
    return [
        f"reduced {len(vectors)} workloads to {result.clustering.k} representatives "
        f"-> {args.out}",
        *(f"  {workload}" for workload in result.representatives),
    ]


def _cmd_classify(args: argparse.Namespace, config: RunConfig, inputs: _Inputs,
                  outputs: _Outputs) -> list[str]:
    with inputs.open(args.input) as fh:
        rows = classification.label_csv(fh, outputs.open("labels.csv"))
    return [f"labeled {rows} workloads -> {os.path.join(args.out, 'labels.csv')}"]


_KIND_CHOICES = {
    "all": cachesim.ALL_KINDS,
    "ifetch": frozenset({cachesim.AccessKind.IFETCH}),
    "load": frozenset({cachesim.AccessKind.LOAD}),
    "store": frozenset({cachesim.AccessKind.STORE}),
    "data": frozenset({cachesim.AccessKind.LOAD, cachesim.AccessKind.STORE}),
}


def _split_items(flag: str, token: str) -> list[str]:
    """The comma-separated items of a list flag; an empty one is a `DataError`."""
    items = token.split(",")
    if not all(item.strip() for item in items):
        raise DataError(f"{flag} {token!r} has an empty item")
    return items


def _parse_kinds(token: str) -> frozenset:
    kinds: frozenset = frozenset()
    for part in _split_items("--kinds", token):
        part = part.strip().lower()
        if part not in _KIND_CHOICES:
            raise DataError(f"unknown access kind {part!r} (use ifetch/load/store/data/all)")
        kinds |= _KIND_CHOICES[part]
    return kinds


def _load_trace(args: argparse.Namespace, inputs: _Inputs) -> cachesim.AccessTrace:
    if Path(args.trace).suffix == ".bin":
        # the sidecar is opened after the trace, and only when given
        with inputs.open(args.trace) as fh, (
                inputs.open(args.segments) if args.segments else contextlib.nullcontext()
        ) as segments:
            trace = cachesim.read_binary_trace(fh, segments)
    elif args.segments:
        # a text trace is a single segment, which a sidecar cannot split
        raise _UsageError(f"--segments applies only to a .bin trace, not {args.trace}")
    else:
        with inputs.open(args.trace) as fh:
            trace = cachesim.read_text_trace(fh)
    if args.skip:
        trace = cachesim.skip_accesses(trace, args.skip)
    return trace


def _cmd_simulate(args: argparse.Namespace, config: RunConfig, inputs: _Inputs,
                  outputs: _Outputs) -> list[str]:
    if args.workload in ("", ".", "..") or set("/\\") & set(args.workload or ""):
        raise DataError(f"--workload {args.workload!r} is not a plain file name")
    if not config.sizes:
        raise DataError("sizes is empty; give at least one cache capacity")
    trace = _load_trace(args, inputs)
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
    return [f"swept {len(curve.points)} capacities -> {os.path.join(args.out, name)}"]


def _cmd_footprint(args: argparse.Namespace, config: RunConfig, inputs: _Inputs,
                   outputs: _Outputs) -> list[str]:
    with inputs.open(args.curve) as fh:
        curve = cachesim.read_curve_csv(fh)
    capacity = cachesim.estimate_footprint(curve, config.knee_ratio)

    write_json(
        outputs.open("footprint.json"),
        {"capacity_bytes": capacity, "knee_ratio": config.knee_ratio,
         "curve": Path(args.curve).name},
    )
    return ["not_reached" if capacity is None else str(capacity)]


def _cmd_report(args: argparse.Namespace, config: RunConfig, inputs: _Inputs,
                outputs: _Outputs) -> list[str]:
    if bool(args.vectors) != bool(args.labels):
        raise _UsageError("give --vectors and --labels together, or neither")
    if args.metrics is not None and not args.vectors:
        raise _UsageError("--metrics names metrics to summarize; give --vectors and --labels too")
    metric_names = None if args.metrics is None else _split_items("--metrics", args.metrics)
    notes: list[str] = []

    summaries: list[report.GroupSummary] = []
    if args.vectors and args.labels:
        schema, vectors = _load_vectors(args.vectors, config, inputs)
        with inputs.open(args.labels) as fh:
            label_rows = classification.read_labels_csv(fh)
            records = []
            for vector in vectors:
                if vector.workload_id not in label_rows:
                    raise DataError(f"workload '{vector.workload_id}' has no row")
                records.append(report.WorkloadRecord(
                    vector.workload_id, dict(zip(schema.names, vector.values)),
                    *label_rows[vector.workload_id],
                ))
        if metric_names is None:
            metric_names = list(schema.names)
        groupings = [report.Grouping.APPLICATION_CATEGORY, report.Grouping.SYSTEM_BEHAVIOR]
        if all(r.suite is not None for r in records):
            groupings.append(report.Grouping.SUITE)
        if all(r.stack is not None for r in records):
            groupings.append(report.Grouping.STACK)
        for grouping in groupings:
            summaries.append(report.group_summary(records, grouping, metric_names))

    stack_table = None
    if args.stack_table:
        with inputs.open(args.stack_table) as fh:
            stack_table = report.stack_impact_table(report.read_stack_table(fh))

    curves: dict[str, cachesim.MissRatioCurve] = {}
    if args.curves:
        curves_dir = Path(args.curves)
        if not curves_dir.is_dir():
            raise DataError(f"--curves {args.curves!r} is not a directory")
        read_from: dict[str, str] = {}
        for found in sorted(curves_dir.glob("*.csv")):
            workload, _, kind = found.stem.rpartition("_")
            if not workload or kind not in {k.value for k in cachesim.CurveKind}:
                workload, kind = found.stem, cachesim.CurveKind.UNIFIED
            path = os.path.join(args.curves, found.name)
            with inputs.open(path) as fh:
                curve = cachesim.read_curve_csv(fh, cachesim.CurveKind(kind))
            name = f"{workload}_{curve.kind.value}"
            if name in read_from:
                raise DataError(f"{read_from[name]} and {path} both name the curve '{name}'")
            read_from[name] = path
            curves[name] = curve

    if not summaries and stack_table is None and not curves:
        notes.append("no inputs supplied; empty report")

    bundle = report.ReportBundle(
        summaries=tuple(summaries),
        stack_impact=stack_table,
        curves=curves,
        notes=tuple(notes),
    )
    report.emit(bundle, outputs.open)
    return [f"wrote {len(outputs)} report files -> {args.out}"]


# --- argument parsing ---------------------------------------------------------


def _parse_int(name: str, token: str | int) -> int:
    try:
        return int(token)
    except ValueError:
        raise DataError(f"bad {name} {token!r}, expected an integer")


def _finite(flag: str) -> Callable[[str], float]:
    def convert(token: str) -> float:
        value = float(token)
        if not math.isfinite(value):
            raise DataError(f"bad {flag} {value!r}, expected a finite number")
        return value
    convert.__name__ = "float"  # argparse's message for a non-number names the type
    return convert


def _parse_size(token: str) -> int:
    given = token.strip()
    factor = {"K": 1024, "M": 1024 * 1024}.get(given[-1:].upper(), 1)
    try:
        return int(given[:-1] if factor > 1 else given) * factor
    except ValueError:
        raise DataError(f"bad size {given!r}")


def _parse_k_range(token: str) -> tuple[str, int, int]:
    try:
        k_min, k_max = (int(v) for v in token.split(","))
    except ValueError:
        raise DataError(f"bad --k-range {token!r}, expected 'min,max'")
    return "auto", k_min, k_max


# every flag that sets a `RunConfig` field: the flag, the subcommands that take it
# (() for all of them and the top level), the fields it sets, its converter, its help
_FLAGS = (
    ("--seed", (), ("seed",), int, f"random seed (default {RunConfig.seed})"),
    ("--schema", (), ("schema_path",), lambda t: _check_file("--schema", t),
     "metric schema JSON (default: built-in 45-metric schema)"),
    ("--warmup", ("ingest",), ("warmup_s",), _finite("--warmup"),
     f"warm-up seconds to trim (default {RunConfig.warmup_s:g})"),
    ("--k", ("reduce",), ("k",), lambda t: t if t == "auto" else _parse_int("--k", t),
     f"fixed cluster count, or 'auto' (default {RunConfig.k})"),
    ("--k-range", ("reduce",), ("k", "k_min", "k_max"), _parse_k_range,
     f"k_min,k_max for auto selection, which bisects for the smallest k whose BIC reaches "
     f"{reduction.BIC_THRESHOLD:g} of the way from the lower to the higher end score "
     f"(default: {RunConfig.k_min} to half the workloads)"),
    ("--variance-target", ("reduce",), ("variance_target",), _finite("--variance-target"),
     f"PCA variance retention (default {RunConfig.variance_target})"),
    ("--sizes", ("simulate",), ("sizes",), lambda t: tuple(map(_parse_size, t.split(","))),
     "comma-separated capacities in bytes (suffix K/M allowed)"),
    ("--line", ("simulate",), ("line_bytes",), int,
     f"line size in bytes (default {RunConfig.line_bytes})"),
    ("--assoc", ("simulate",), ("associativity",),
     lambda t: None if t == "full" else _parse_int("--assoc", t),
     f"associativity, or 'full' (default {RunConfig.associativity})"),
    ("--knee", ("footprint",), ("knee_ratio",), _finite("--knee"),
     f"knee miss-ratio threshold (default {RunConfig.knee_ratio})"),
)

# subcommand -> (handler, help)
_COMMANDS = {
    "ingest": (_cmd_ingest, "counter/telemetry CSVs -> profile and vector JSON"),
    "reduce": (_cmd_reduce, "profiles/vectors JSON -> clustering and representatives"),
    "classify": (_cmd_classify, "behavior CSV -> labeled CSV"),
    "simulate": (_cmd_simulate, "access trace -> miss-ratio curve"),
    "footprint": (_cmd_footprint, "miss-ratio curve CSV -> footprint estimate"),
    "report": (_cmd_report, "vectors + labels (+ curves, stack table) -> report files"),
}


@functools.cache  # one parser per process: parse_args keeps no state between calls
def _build_parser() -> _Parser:
    parser = _Parser(prog="wcr", description="Workload characterization and reduction toolkit")
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)
    commands = {name: sub.add_parser(name, help=help) for name, (_, help) in _COMMANDS.items()}

    p = commands["ingest"]
    p.add_argument("counters", help="counter CSV (workload,node,event,count,wall_time_s)")
    p.add_argument("--telemetry", help="telemetry CSV")

    commands["reduce"].add_argument("input", help="profiles.json or vectors.json")
    commands["classify"].add_argument("input", help="behavior CSV")

    p = commands["simulate"]
    p.add_argument("trace", help="trace file (.bin packed records, otherwise text)")
    p.add_argument("--segments", help="JSON sidecar with segment boundaries and weights")
    p.add_argument("--kinds", default="all", help="access kinds: ifetch, load, store, data, all")
    p.add_argument("--skip", type=int, default=0, help="skip the first N accesses")
    p.add_argument("--workload", help="workload name used in the curve filename (default: "
                   "curve.csv, or curve_<kind>.csv for an instruction or data curve)")

    commands["footprint"].add_argument("curve", help="curve CSV from simulate")

    p = commands["report"]
    p.add_argument("--vectors", help="vectors.json or profiles.json")
    p.add_argument("--labels", help="labeled CSV from classify (may add suite/stack columns)")
    p.add_argument("--stack-table", help="CSV algorithm,stack,metric,value")
    p.add_argument("--curves", help="directory of curve CSVs")
    p.add_argument("--metrics", help="comma-separated metric names to summarize (default: all)")

    # every subparser takes --config, its command's settings flags and --out; the
    # common flags go on the top-level parser too, so they work on either side of
    # the subcommand. Under a SUPPRESS default a flag not given sets nothing, and
    # one given after the subcommand wins.
    k_flags = commands["reduce"].add_mutually_exclusive_group()  # --k-range sets k too
    for name, p in [("", parser), *commands.items()]:
        p.add_argument("--config", type=lambda t: _check_file("--config", t),
                       default=None if p is parser else argparse.SUPPRESS,
                       help="JSON run-configuration file")
        for flag, takers, fields, convert, text in _FLAGS:
            if name in takers or not takers:
                (k_flags if "k" in fields else p).add_argument(
                    flag, type=convert, default=argparse.SUPPRESS, help=text)
    for p in commands.values():
        p.add_argument("--out", required=True, help="output directory")
    return parser


def _apply_overrides(args: argparse.Namespace, config: RunConfig) -> RunConfig:
    """Set the fields of every settings flag given; its converter has checked the value."""
    given = vars(args)
    for flag, _, fields, _, _ in _FLAGS:
        dest = flag[2:].replace("-", "_")
        if dest in given:
            # --k-range sets three fields, and converts to a value for each
            values = given[dest] if len(fields) > 1 else (given[dest],)
            for field, value in zip(fields, values):
                setattr(config, field, value)
    return config


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        level = os.environ.get("WCR_LOG", "WARNING")
        if not isinstance(logging.getLevelName(level.upper()), int):
            raise _UsageError(f"WCR_LOG {level!r} is not a logging level")
        logging.basicConfig(level=level.upper(), format="%(levelname)s %(name)s: %(message)s")
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("wcr: a subcommand is required", file=sys.stderr)
            return EXIT_USAGE
        config = RunConfig() if args.config is None else RunConfig.load(args.config)
        config = _apply_overrides(args, config)
        inputs, outputs = _Inputs(), _Outputs()
        lines = _COMMANDS[args.command][0](args, config, inputs, outputs)
        _publish(Path(args.out), args.command, config, inputs, outputs)
        try:
            for line in lines:
                print(line, flush=True)
        except OSError as exc:  # stdout's rest goes to devnull, or its flush at exit fails too
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise OSError(exc.errno, exc.strerror, "stdout") from exc
        return EXIT_OK
    except _UsageError as exc:
        print(f"wcr: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"wcr: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"wcr: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
