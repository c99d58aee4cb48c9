"""Command-line front end: sweep orchestration and data-file emission.

Usage:
    lambdajc <command> [--config FILE] [--out DIR] [--workers N] [--strict]

Commands:
    static-phase      ground-state phase diagram of the undriven model
    driven-phase      phase diagram of the drive-renormalized model
    effective-params  effective frequencies/couplings along one drive axis
    echo              overlap of two Hamiltonian branches over time

Every run writes a CSV data file plus manifest.json into the output
directory.  Runs are cached: the same command on an unchanged
configuration with a complete manifest is not recomputed.  The three sweep
commands share one runner: a sweep is a list of chunks (grid rows, or
256-point slices of the effective-params axis) and a picklable function
from a chunk to a dict of column arrays.  One function turns a chunk into
its record (row count, cells failing each validity audit, CSV text with
text fields quoted per RFC 4180), a line of the cells.jsonl ledger from
which an interrupted sweep resumes.  The CSV is the records' text in index
order, streamed into its temp file as the records land, so the parent
holds only the texts that land ahead of an earlier chunk; the deviations
come from their summed counts.

Under --workers a pool task is a contiguous batch of chunks, about
BATCHES_PER_WORKER per worker, and the pool has no more workers than
batches; a sequential run makes the same records in the parent, and a
resumed record is written verbatim, so the bytes do not depend on the
worker count or the batching.  A batch reaches the ledger as a whole, as
soon as it finishes, so an interrupt may recompute up to one batch per
worker.

One rule decides what a run may reuse: a readable manifest of this
config hash, command and OUTPUT_VERSION.  Under it, a cache hit also needs
the CSV's digest to match, and a ledger entry is resumed only with the
current version, the config hash and a record that fits its chunk
(_Sweep.fits); without it, the ledger is deleted before any work.

Before anything is written, every sweep axis endpoint is checked by
building the SystemParams or DriveParams it implies, an echo's dt_max
against the sampling bound of both branches, and the worker count, from
--workers or the config, by config.worker_count.  A manifest.json that
is not a JSON object, or whose cell counts or deviations have the wrong JSON
type, counts as no manifest.

Exit codes: 0 success, 1 configuration error, 2 runtime or validity
failure (validity failures only fail the run under --strict, and a pool
worker that dies is a runtime failure).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .config import (
    AxisConfig,
    ConfigError,
    RunConfig,
    config_hash,
    parse_config,
    worker_count,
)
from .dynamics import (
    ECHO_PAIRS,
    HamiltonianSpec,
    TruncationError,
    assemble_terms,
    build_space,
    coherent_state,
    loschmidt_echo,
    step_limit,
)
from .effective import effective_table
from .params import (
    DRIVE_AXES,
    MODEL_FIELDS,
    DriveParams,
    SystemParams,
    from_sweep_values,
    sweep_values,
)
from .specfun import MAX_ARGUMENT
from .spectrum import (
    AUDITS,
    AxisSpec,
    audit_counts,
    category_values,
    compute_grid_row,
    deviation_lines,
)

COMMANDS = ("static-phase", "driven-phase", "effective-params", "echo")
OUTPUT_ENV_VAR = "LAMBDAJC_OUT"
ECHO_ALPHA = 0.01
EFFECTIVE_CHUNK = 256
#: Pool tasks per worker: a pool task is a contiguous batch of chunks, so
#: a worker is sent a few tasks, not one per chunk, and the last batches
#: still even out the workers' load.
BATCHES_PER_WORKER = 4

#: Version of the output format and numbers.  Raise it with every change
#: that alters any output byte: a manifest or ledger entry of another
#: version is never served or resumed.
OUTPUT_VERSION = 3

GRID_CSV_COLUMNS = ("axis1_name", "axis1_value", "axis2_name", "axis2_value",
                    "energy", "n_label", "m_label", "category", "gap",
                    "window_capped", "rwa_ok", "hierarchy_ok")
ECHO_CSV_COLUMNS = ("t", "fidelity", "norm_a", "norm_b", "leakage")
#: The effective-params CSV columns, which _effective_columns returns.
EFFECTIVE_CSV_COLUMNS = ("omega_D", "theta", "n0", "m0", "Delta_n0", "Delta_m0",
                         "Omega1_eff", "Omega2_eff", "omega1_eff", "omega2_eff",
                         "gr1", "gr2", "gc1", "gc2", "rwa_ok")

_MANIFEST = "manifest.json"
_LEDGER = "cells.jsonl"
_CSV_NAME = {
    "static-phase": "grid.csv",
    "driven-phase": "grid.csv",
    "effective-params": "effective_params.csv",
    "echo": "echo.csv",
}


def _quote(text: str) -> str:
    """text as one CSV field (RFC 4180): enclosed in double quotes, with
    inner quotes doubled, when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _format_column(values: np.ndarray) -> list[str]:
    """The CSV text of each value of a 1-D column, by dtype: round-trip
    exact floats, plain integers, true/false booleans, quoted text."""
    kind = values.dtype.kind
    if kind == "b":
        return np.where(values, "true", "false").tolist()
    if kind == "f":
        return list(map("{:.17g}".format, values.tolist()))
    text = list(map(str, values.tolist()))
    if kind in "UO" and any(_quote(t) != t for t in set(text)):
        text = list(map(_quote, text))
    return text


def _replace_atomically(path: Path, write):
    """Run write(fh) on a temp file beside path, then rename it onto path.

    A failure part way leaves the previous file whole and no temp file
    behind, so a cache check never sees a torn output.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _chunk_text(chunk) -> str:
    """The CSV lines of one chunk: a sequence of values aligned with the
    columns, 1-D arrays of one length or scalars repeated down the chunk,
    formatted a column at a time."""
    text = [_format_column(np.atleast_1d(v)) for v in chunk]
    rows = max(map(len, text))
    text = [t * rows if len(t) == 1 else t for t in text]
    return "\n".join(map(",".join, zip(*text))) + "\n"


def write_csv(path: Path, columns, texts):
    """Write a CSV with header columns from an iterable of chunk texts, as
    _chunk_text gives them.  Each text is written before the next is read."""
    def write(fh):
        fh.write(",".join(columns) + "\n")
        fh.writelines(texts)
    try:
        _replace_atomically(path, write)
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc


def _file_digest(path: Path) -> str | None:
    """blake2b hex digest of a file's bytes, None when it cannot be read.
    The file is read a megabyte at a time, so a large CSV is never held
    whole."""
    digest = hashlib.blake2b()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
    except OSError:
        return None
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# manifest and ledger


def _write_manifest(out_dir: Path, command: str, digest: str, cells_total: int,
                    cells_done: int, deviations: list[str],
                    csv_digest: str | None = None):
    doc = {
        "command": command,
        "config_hash": digest,
        "output_version": OUTPUT_VERSION,
        "version": __version__,
        "cells_total": cells_total,
        "cells_done": cells_done,
        "deviations": deviations,
        "csv_blake2b": csv_digest,
    }
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    _replace_atomically(out_dir / _MANIFEST, lambda fh: fh.write(text))


def _read_manifest(out_dir: Path) -> dict | None:
    path = out_dir / _MANIFEST
    if not path.exists():
        return None
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(doc, dict):
        return None
    deviations = doc.get("deviations")
    if (type(doc.get("cells_total")) is not int
            or type(doc.get("cells_done")) is not int
            or type(deviations) is not list
            or any(type(line) is not str for line in deviations)):
        return None
    return doc


def _load_ledger(out_dir: Path, digest: str) -> dict[int, dict]:
    """chunk index -> ledger entry of every chunk recorded for this config
    and OUTPUT_VERSION; a line that does not parse (a torn tail left by a
    kill) or whose chunk is not a JSON integer (true or 1.0 would key
    chunk 1) is skipped.  _run_sweep resumes only entries that fit."""
    done: dict[int, dict] = {}
    try:
        with open(out_dir / _LEDGER, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError:
        return done
    for line in lines:
        try:
            entry = json.loads(line)
            if (entry.get("config_hash") == digest
                    and entry.get("output_version") == OUTPUT_VERSION
                    and type(entry["chunk"]) is int):
                done[entry["chunk"]] = entry
        except (AttributeError, KeyError, TypeError, ValueError):
            continue
    return done


# ---------------------------------------------------------------------------
# the sweep runner


class _Sweep(NamedTuple):
    """compute(chunk) gives a chunk's columns as a dict of equal-length
    arrays, sizes[index] long; csv_chunk(index, columns) gives them aligned
    with csv_columns.  Both must pickle for pool workers.  unit and window
    word the deviations."""

    compute: Callable
    chunks: Sequence
    sizes: Sequence[int]
    csv_columns: tuple[str, ...]
    csv_chunk: Callable
    unit: str
    window: int | None = None

    @property
    def cells(self) -> int:
        return sum(self.sizes)

    def fits(self, index: int, entry: dict) -> bool:
        """Whether a ledger entry is a whole record of chunk index: rows
        its size, a count in [0, rows] per audit, and a text of rows
        newline-ended CSV records of len(csv_columns) fields each."""
        rows, counts, text = (entry.get(k) for k in ("rows", "counts", "text"))
        return (0 <= index < len(self.chunks)
                and type(rows) is int and rows == self.sizes[index]
                and type(counts) is list and len(counts) == len(AUDITS)
                and all(type(c) is int and 0 <= c <= rows for c in counts)
                and type(text) is str and text.endswith("\n")
                and [len(r) for r in csv.reader(io.StringIO(text, newline=""))]
                == [len(self.csv_columns)] * rows)


def _chunk_entry(compute, csv_chunk, digest: str, index: int, chunk) -> dict:
    """The ledger entry of chunk index: its row count, how many of its cells
    fail each audit, and its CSV text."""
    columns = compute(chunk)
    return {"config_hash": digest, "output_version": OUTPUT_VERSION,
            "chunk": index, "rows": len(next(iter(columns.values()))),
            "counts": audit_counts(columns),
            "text": _chunk_text(csv_chunk(index, columns))}


def _batch_entries(compute, csv_chunk, digest: str, items) -> list[dict]:
    """The ledger entry of each (index, chunk) item of a batch: the task a
    pool worker runs."""
    return [_chunk_entry(compute, csv_chunk, digest, index, chunk)
            for index, chunk in items]


def _run_chunks(sweep: _Sweep, digest: str, todo: dict, workers: int,
                abort_after: int | None):
    """Yield the ledger entry of each chunk of todo (index -> chunk) as it
    lands.

    A pool task is a contiguous batch of chunks, about BATCHES_PER_WORKER
    per worker, and the pool has no more workers than batches.  A batch is
    yielded as soon as it finishes, whatever its place, so an interrupt
    loses at most the batches in flight.  The abort hook (tests only) is
    honored on the sequential path.
    """
    if workers > 1 and len(todo) > 1:
        items = list(todo.items())
        size = -(-len(items) // (BATCHES_PER_WORKER * workers))
        batches = [items[k:k + size] for k in range(0, len(items), size)]
        task = partial(_batch_entries, sweep.compute, sweep.csv_chunk, digest)
        with ProcessPoolExecutor(max_workers=min(workers, len(batches))) as pool:
            for future in as_completed([pool.submit(task, b) for b in batches]):
                yield from future.result()
        return
    for count, (index, chunk) in enumerate(todo.items(), start=1):
        yield _chunk_entry(sweep.compute, sweep.csv_chunk, digest, index, chunk)
        if abort_after is not None and count >= abort_after:
            raise KeyboardInterrupt("aborted for resume test")


def _run_sweep(command: str, sweep: _Sweep, out_dir: Path, digest: str,
               workers: int, abort_after: int | None) -> list[str]:
    """Compute the chunks the resume ledger lacks and write the CSV as they
    land; returns the deviation lines.

    Each chunk's text goes to the CSV temp file as soon as every chunk
    before it is in, so only texts that land out of order (resumed, or
    from the pool) are held; done keeps each chunk's rows and counts.
    """
    done = {i: entry for i, entry in _load_ledger(out_dir, digest).items()
            if sweep.fits(i, entry)}
    held = {i: entry.pop("text") for i, entry in done.items()}

    def cells_done():
        return sum(entry["rows"] for entry in done.values())

    def texts():
        """The chunks' texts in index order, computing the missing ones."""
        written = 0

        def ready():
            nonlocal written
            while written in held:
                yield held.pop(written)
                written += 1

        yield from ready()
        todo = {i: chunk for i, chunk in enumerate(sweep.chunks) if i not in done}
        with open(out_dir / _LEDGER, "a", encoding="utf-8") as ledger:
            try:
                for entry in _run_chunks(sweep, digest, todo, workers, abort_after):
                    ledger.write(json.dumps(entry) + "\n")
                    ledger.flush()
                    held[entry["chunk"]] = entry.pop("text")
                    done[entry["chunk"]] = entry
                    yield from ready()
            except (KeyboardInterrupt, BrokenProcessPool):
                _write_manifest(out_dir, command, digest, sweep.cells, cells_done(),
                                ["interrupted"])
                raise

    # the manifest goes first, so a ledger line always sits beside its
    # run's manifest
    _write_manifest(out_dir, command, digest, sweep.cells, cells_done(), [])
    write_csv(out_dir / _CSV_NAME[command], sweep.csv_columns, texts())
    counts = [sum(c) for c in zip(*(entry["counts"] for entry in done.values()))]
    return deviation_lines(counts, sweep.cells, sweep.unit, sweep.window)


def _sweep(command: str, cfg: RunConfig, axes: list[AxisConfig]) -> _Sweep:
    """A phase grid by axis-1 rows, or the effective-params table by
    EFFECTIVE_CHUNK-point slices."""
    if command == "effective-params":
        values = axes[0].values()
        chunks = [values[k:k + EFFECTIVE_CHUNK]
                  for k in range(0, values.size, EFFECTIVE_CHUNK)]
        return _Sweep(partial(_effective_columns, cfg.model, cfg.drive_or_default(),
                              axes[0].parameter),
                      chunks, [c.size for c in chunks],
                      EFFECTIVE_CSV_COLUMNS, _effective_csv_chunk, "sweep points")
    driven = command == "driven-phase"
    drive = cfg.drive_or_default() if driven else None
    window = cfg.truncation.window_for(driven)
    ax1, ax2 = (AxisSpec(ax.name, ax.parameter, ax.values()) for ax in axes)
    return _Sweep(partial(compute_grid_row, cfg.model, drive, ax1, ax2, window),
                  range(ax1.values.size), [ax2.values.size] * ax1.values.size,
                  GRID_CSV_COLUMNS, partial(_grid_csv_chunk, ax1, ax2), "cells",
                  window)


def _grid_csv_chunk(ax1: AxisSpec, ax2: AxisSpec, i: int,
                    row: dict[str, np.ndarray]) -> tuple:
    """Grid row i's values aligned with GRID_CSV_COLUMNS."""
    return (ax1.name, ax1.values[i], ax2.name, ax2.values, row["energy"],
            row["n_label"], row["m_label"],
            category_values(row["n_label"], row["m_label"]), row["gap"],
            row["window_capped"], row["rwa_ok"], row["hierarchy_ok"])


def _effective_csv_chunk(i: int, columns: dict[str, np.ndarray]) -> list:
    """An effective-params chunk's columns aligned with EFFECTIVE_CSV_COLUMNS."""
    return [columns[k] for k in EFFECTIVE_CSV_COLUMNS]


def _effective_columns(model: SystemParams, drive: DriveParams, parameter: str,
                       values: np.ndarray) -> dict[str, np.ndarray]:
    """The effective-params CSV columns at values of parameter (omega_D or
    A_D), the other drive field fixed."""
    fields = sweep_values(model, drive)
    fields[parameter] = values
    table = effective_table(*(fields[k] for k in MODEL_FIELDS),
                            fields["A_D"], fields["omega_D"])
    table["omega_D"] = fields["omega_D"]
    return {k: np.broadcast_to(table[k], values.shape)
            for k in EFFECTIVE_CSV_COLUMNS}


# ---------------------------------------------------------------------------
# per-command default sweeps


def _default_axes(command: str, cfg: RunConfig) -> list[AxisConfig]:
    model = cfg.model
    if command == "static-phase":
        return [
            AxisConfig(name="g1", start=0.0, stop=4.5 * model.Omega1,
                       points=181, parameter="g1"),
            AxisConfig(name="g2", start=0.0, stop=4.5 * model.Omega2,
                       points=181, parameter="g2"),
        ]
    if command == "driven-phase":
        drive = cfg.drive_or_default()
        return [
            AxisConfig(name="A_D", start=0.0, stop=2.5 * drive.frequency,
                       points=121, parameter="A_D"),
            AxisConfig(name="Omega2", start=0.97 * model.Omega2,
                       stop=1.0 * model.Omega2, points=61, parameter="Omega2"),
        ]
    return [AxisConfig(name="omega_D", start=0.05, stop=6.0, points=1200,
                       parameter="omega_D")]


def _resolve_axes(command: str, cfg: RunConfig) -> list[AxisConfig]:
    """The command's validated sweep axes (none for echo).

    Each axis endpoint must make valid SystemParams and DriveParams.  Every
    command but static-phase also has its drive checked over the sweep: the
    largest Bessel argument 2 theta = 2 A_D / omega_D must be one specfun
    supports.  An echo's dt_max must be within the sampling bound of both
    branches of its pair."""
    axes = []
    if command != "echo":
        axes = cfg.sweep if cfg.sweep else _default_axes(command, cfg)
        need = 1 if command == "effective-params" else 2
        if len(axes) != need:
            raise ConfigError(
                f"{command} needs exactly {need} sweep axes, got {len(axes)}")
    if command == "effective-params" and axes[0].parameter not in DRIVE_AXES:
        raise ConfigError("effective-params sweeps omega_D or A_D")
    if command == "static-phase":
        if any(ax.parameter in DRIVE_AXES for ax in axes):
            raise ConfigError("static-phase cannot sweep drive parameters")
    drive = None if command == "static-phase" else cfg.drive_or_default()
    values = sweep_values(cfg.model, drive)
    for ax in axes:
        for end in (ax.start, ax.stop):
            try:
                from_sweep_values({**values, ax.parameter: end})
            except ValueError as exc:
                raise ConfigError(f"sweep axis {ax.name!r}: {exc}") from exc
    if drive is not None:
        span = {k: [values[k]] for k in DRIVE_AXES}
        span.update((ax.parameter, ax.values()) for ax in axes if ax.parameter in span)
        argument = 2.0 * max(span["A_D"]) / min(span["omega_D"])
        if argument > MAX_ARGUMENT:
            raise ConfigError(
                f"drive: Bessel argument 2*A_D/omega_D reaches {argument:g}, "
                f"above the supported {MAX_ARGUMENT:g}")
    if command == "echo" and cfg.dynamics.dt_max is not None:
        # the bound depends on the term phases only, not on the cutoffs
        space = build_space(1, 1)
        for variant in ECHO_PAIRS[cfg.dynamics.pair]:
            spec = HamiltonianSpec(variant=variant, sys=cfg.model, drive=drive)
            try:
                step_limit(assemble_terms(spec, space), cfg.dynamics.dt_max)
            except ValueError as exc:
                raise ConfigError(f"dynamics: {variant.value}: {exc}") from exc
    return axes


# ---------------------------------------------------------------------------
# commands


def _run_echo(cfg: RunConfig, out_dir: Path, digest: str) -> list[str]:
    drive = cfg.drive_or_default()
    trunc = cfg.truncation
    dyn = cfg.dynamics
    space = build_space(trunc.n_c1, trunc.n_c2)
    psi0 = coherent_state(space, ECHO_ALPHA, ECHO_ALPHA, dyn.initial_state)
    spec_a, spec_b = (HamiltonianSpec(variant=v, sys=cfg.model, drive=drive)
                      for v in ECHO_PAIRS[dyn.pair])
    _write_manifest(out_dir, "echo", digest, 1, 0, [])
    echo = loschmidt_echo(spec_a, spec_b, space, psi0, t_max=dyn.t_max,
                          samples=dyn.samples, dt_max=dyn.dt_max)
    write_csv(out_dir / _CSV_NAME["echo"], ECHO_CSV_COLUMNS,
              [_chunk_text((echo.times, echo.fidelity, echo.norm_a, echo.norm_b,
                            echo.leakage_series))])
    return list(echo.warnings)


def run_command(command: str, cfg: RunConfig, out_dir: str | Path | None = None,
                workers: int | None = None, strict: bool = False,
                _abort_after_chunks: int | None = None) -> int:
    """Execute one command; returns the process exit code.

    Output directory precedence: explicit out_dir argument, then the
    LAMBDAJC_OUT environment variable, then the config's output field.
    _abort_after_chunks is a test hook that simulates an interrupted sweep.
    """
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose from {COMMANDS}")
    axes = _resolve_axes(command, cfg)
    workers = worker_count(cfg.workers if workers is None else workers)
    if out_dir is None:
        out_dir = os.environ.get(OUTPUT_ENV_VAR) or cfg.output
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {out_dir}: {exc}",
              file=sys.stderr)
        return 2
    digest = config_hash(cfg)
    manifest = _read_manifest(out_dir)
    csv_path = out_dir / _CSV_NAME[command]
    same_run = (manifest is not None
                and manifest.get("config_hash") == digest
                and manifest.get("command") == command
                and manifest.get("output_version") == OUTPUT_VERSION)
    if not same_run:
        # no readable manifest, or another configuration, command or output
        # version: nothing here is this run's, so start clean
        (out_dir / _LEDGER).unlink(missing_ok=True)
    elif manifest.get("csv_blake2b") is not None:
        # only a finished run's manifest carries its CSV's digest
        if manifest["csv_blake2b"] == _file_digest(csv_path):
            print(f"cache hit: {csv_path} is up to date (config {digest})")
            return _finish(manifest["deviations"], strict)
        print(f"cache miss: {csv_path} is missing or differs from the manifest "
              "digest; recomputing")

    try:
        if command == "echo":
            cells = 1
            deviations = _run_echo(cfg, out_dir, digest)
        else:
            sweep = _sweep(command, cfg, axes)
            cells = sweep.cells
            deviations = _run_sweep(command, sweep, out_dir, digest, workers,
                                    _abort_after_chunks)
    except TruncationError as exc:
        # the configured cutoffs cannot represent the requested state
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (OSError, BrokenProcessPool) as exc:
        # a dead pool worker leaves the ledger for a rerun to resume
        print(f"error: {exc}", file=sys.stderr)
        return 2

    _write_manifest(out_dir, command, digest, cells, cells, deviations,
                    _file_digest(csv_path))
    (out_dir / _LEDGER).unlink(missing_ok=True)
    code = _finish(deviations, strict)
    if code == 0:
        print(f"wrote {csv_path} ({cells} cells, config {digest})")
    return code


def _finish(deviations: list[str], strict: bool) -> int:
    """Report a run's deviations; under --strict any of them fails it."""
    for line in deviations:
        print(f"deviation: {line}")
    if strict and deviations:
        print("error: validity deviations present and --strict is set",
              file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lambdajc",
        description="Phase diagrams, effective drive parameters and echo "
                    "traces for a three-level lambda atom in a two-mode cavity.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON run configuration (defaults apply "
                                         "when omitted)")
    parser.add_argument("--out", help=f"output directory (overrides "
                                      f"${OUTPUT_ENV_VAR} and the config)")
    parser.add_argument("--workers", type=int, help="parallel worker count")
    parser.add_argument("--strict", action="store_true",
                        help="fail (exit 2) on validity deviations")
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            try:
                text = Path(args.config).read_text(encoding="utf-8")
            except OSError as exc:
                print(f"error: cannot read config {args.config}: {exc}",
                      file=sys.stderr)
                return 1
            cfg = parse_config(text)
        else:
            cfg = parse_config({})
        return run_command(args.command, cfg, out_dir=args.out,
                           workers=args.workers, strict=args.strict)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
