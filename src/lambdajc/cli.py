"""Command-line front end: sweep orchestration and data-file emission.

Usage:
    lambdajc <command> [--config FILE] [--out DIR] [--workers N] [--strict]

Commands:
    static-phase      ground-state phase diagram of the undriven model
    driven-phase      phase diagram of the drive-renormalized model
    effective-params  effective frequencies/couplings along one drive axis
    echo              overlap of two Hamiltonian branches over time

Every run writes a CSV data file plus manifest.json into the output
directory.  Runs are cached: the same command on a configuration
unchanged in what it computes from, with a complete manifest, is not
recomputed.  The three sweep
commands share one runner: a sweep is its flattened cells, cut into
chunks by spectrum.chunk_slices as sweep_grid cuts a grid, and one
picklable function that gives every CSV column of a chunk by name.  One
function turns a chunk into its audit counts (cells failing each validity
audit) and its CSV text, one line per cell: no field holds a comma, a
double quote or a line break (config.AxisConfig refuses such axis names),
so no field is quoted.  The texts are one stream in index order, from map
or, under --workers, from this process and a pool, written and flushed one
by one into a partial file that is renamed onto the CSV when whole.  An
interrupted sweep resumes from the whole chunks that head its partial
CSV, a line per cell: their text is written again verbatim, and their
audit columns give their counts.

--workers N counts the processes that compute, this one included, so it
forks N - 1; _run_chunks says how they share the chunks.  Workers and a
sequential run make the same texts, so the bytes do not depend on the
worker count or the batching.

A run is its command and one picklable partial, its compute, whose
arguments are everything the run reads of the config: a sweep's model,
drive (None for static-phase), axes and resolved block window, or the
echo's model, drive, cutoffs and dynamics.  The run key (run_key) is the
config.canonical_digest of the command and those arguments, so a config
field the run does not compute from does not move it, and the key is
taken from the code's own inputs, not from a list of fields kept beside
them.  One rule decides what a run may reuse: a readable manifest of this
run key (its config_hash field), command and OUTPUT_VERSION.  Under it, a
cache hit also needs the CSV's digest to match (write_csv takes it from
the bytes as it writes them), and the partial CSV is resumed; without it,
the partial CSV is deleted before any work.

Before anything is written, the number of sweep axes is checked (two for
the grids, one for effective-params, none for echo), then the axes as a
whole by spectrum.check_sweep, the one sweep rule; then an echo's
initial state is built, so a cutoff that cannot represent it is a
configuration error; then the worker count and the output directory
(--out, else the config's output) are checked.  A manifest.json that is
not UTF-8, not a JSON object, or whose cell counts or deviations have the
wrong JSON type, counts as no manifest.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime or
validity failure (validity failures only fail the run under --strict; a
pool worker that dies and an echo the propagator cannot take are runtime
failures).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .config import (
    AxisConfig,
    ConfigError,
    DynamicsConfig,
    RunConfig,
    canonical_digest,
    parse_config,
)
from .dynamics import (
    ECHO_PAIRS,
    EchoResult,
    HamiltonianSpec,
    PropagationError,
    StateVector,
    TruncationError,
    build_space,
    coherent_state,
    loschmidt_echo,
)
from .effective import effective_table
from .params import DRIVE_AXES, MODEL_FIELDS, DriveParams, SystemParams, sweep_values
from .spectrum import (
    AUDITS,
    CATEGORIES,
    AxisSpec,
    audit_counts,
    block_window_for,
    category_index,
    check_sweep,
    chunk_slices,
    compute_grid_cells,
    deviation_lines,
)

ECHO_ALPHA = 0.01
#: Pool tasks per forked worker: a pool task is a contiguous batch of the
#: pool's chunks, so a worker is sent a few tasks, not one per chunk, and
#: the last batches still even out the workers' load.
BATCHES_PER_WORKER = 4

#: Version of the output format and numbers.  Raise it with every change
#: that alters any output byte: a run whose manifest has another version
#: is never served or resumed.
OUTPUT_VERSION = 8

GRID_CSV_COLUMNS = ("axis1_name", "axis1_value", "axis2_name", "axis2_value",
                    "energy", "n_label", "m_label", "category", "gap",
                    "window_capped", "rwa_ok", "hierarchy_ok")
ECHO_CSV_COLUMNS = ("t", "fidelity", "norm_a", "norm_b", "leakage")
#: The effective-params CSV columns, which _effective_columns returns.
EFFECTIVE_CSV_COLUMNS = ("omega_D", "theta", "n0", "m0", "Delta_n0", "Delta_m0",
                         "Omega1_eff", "Omega2_eff", "omega1_eff", "omega2_eff",
                         "gr1", "gr2", "gc1", "gc2", "rwa_ok", "hierarchy_ok")

_MANIFEST = "manifest.json"
_CSV_NAME = {
    "static-phase": "grid.csv",
    "driven-phase": "grid.csv",
    "effective-params": "effective_params.csv",
    "echo": "echo.csv",
}
COMMANDS = tuple(_CSV_NAME)


#: The CSV text of a false and a true flag, indexed by the flag.
_FLAG_TEXT = np.array(["false", "true"], dtype=object)


def _format_column(values: np.ndarray) -> list[str]:
    """The CSV text of each value of a 1-D column, by dtype: round-trip
    exact floats, plain integers, true/false booleans, text as it is.  A
    flag or integer column holds few distinct values, so each is formatted
    once and its text gathered down the column."""
    kind = values.dtype.kind
    if kind == "b":
        return _FLAG_TEXT[values.view(np.uint8)].tolist()
    if kind == "f":
        return list(map("{:.17g}".format, values.tolist()))
    if kind in "iu":
        distinct, index = np.unique(values, return_inverse=True)
        return np.array(list(map(str, distinct.tolist())), dtype=object)[index].tolist()
    return list(map(str, values.tolist()))


def _chunk_text(chunk) -> str:
    """The CSV lines of one chunk: a sequence of values aligned with the
    columns, 1-D arrays of one length or scalars repeated down the chunk,
    formatted a column at a time.  A list is a column's texts, already
    formatted (one text is repeated down the chunk)."""
    text = [v if type(v) is list else _format_column(np.atleast_1d(v)) for v in chunk]
    rows = max(map(len, text))
    text = [t * rows if len(t) == 1 else t for t in text]
    return "\n".join(map(",".join, zip(*text))) + "\n"


def _partial(path: Path) -> Path:
    """The file a CSV is written into until it is whole; not a .csv file."""
    return path.with_name(f".{path.name}.partial")


def write_csv(path: Path, columns, texts) -> str:
    """Write a CSV with header columns from an iterable of chunk texts, as
    _chunk_text gives them, into path's partial file, then rename it onto
    path; returns the blake2b hex digest of the file's bytes, taken from
    each text as it is written, so the CSV is not read again.  Each text is
    written and flushed before the next is read, so a failure part way
    leaves the previous CSV whole and the partial as far as it got: the
    record a sweep resumes from."""
    part = _partial(path)
    header = (",".join(columns) + "\n").encode("utf-8")
    digest = hashlib.blake2b(header)
    try:
        with open(part, "wb") as fh:
            fh.write(header)
            for text in texts:
                data = text.encode("utf-8")
                digest.update(data)
                fh.write(data)
                fh.flush()
        os.replace(part, path)
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc
    return digest.hexdigest()


def _file_digest(path: Path) -> str | None:
    """blake2b hex digest of a file's bytes, None when it cannot be read:
    the cache check of a finished run's CSV.  The file is read a megabyte
    at a time, so a large CSV is never kept whole."""
    digest = hashlib.blake2b()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
    except OSError:
        return None
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# the manifest


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
    # renamed onto the manifest when whole, so a failure part way leaves the
    # previous manifest whole and a cache check never sees a torn one
    tmp = out_dir / f".{_MANIFEST}.{os.getpid()}.tmp"
    try:
        tmp.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n",
                       encoding="utf-8", newline="\n")
        os.replace(tmp, out_dir / _MANIFEST)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_manifest(out_dir: Path) -> dict | None:
    path = out_dir / _MANIFEST
    if not path.exists():
        return None
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):   # unreadable, not UTF-8, or not JSON
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


# ---------------------------------------------------------------------------
# the sweep runner


class _Sweep(NamedTuple):
    """compute(start, stop) gives every CSV column of chunk (start, stop) by
    name: arrays of its cells, or scalars repeated down the chunk.  It must
    pickle for pool workers.  unit and window word the deviations."""

    compute: Callable
    cells: int
    csv_columns: tuple[str, ...]
    unit: str
    window: int | None = None

    @property
    def chunks(self) -> list[tuple[int, int]]:
        """(start, stop) of each chunk, in index order."""
        return chunk_slices(self.cells)


#: How a true flag reads in the CSV.
_TRUE = _format_column(np.array([True]))[0]
#: The CSV text of each phase category, in CATEGORIES order.
_CATEGORY_TEXT = np.array(CATEGORIES, dtype=object)


def _chunk_entry(compute, csv_columns, chunk) -> tuple[list[int], str]:
    """How many cells of a chunk (start, stop) fail each audit, and its CSV text."""
    columns = compute(*chunk)
    return audit_counts(columns), _chunk_text([columns[k] for k in csv_columns])


def _resume(path: Path, sweep: _Sweep) -> tuple[list[list[int]], str]:
    """The audit counts of each whole chunk that heads a sweep's partial
    CSV, in index order, and the text of those chunks.

    Under the header of csv_columns, chunk (start, stop) is whole when it
    holds stop - start lines, each ended by a line break, holding no CR and
    splitting into len(csv_columns) fields.  A record torn by a kill has no
    line break, so it is not a line.  A partial that cannot be read, or is
    not UTF-8, resumes nothing.
    """
    header = ",".join(sweep.csv_columns) + "\n"
    # (position, name) of each audit column: only these are parsed
    audited = [(sweep.csv_columns.index(k), k) for k, _, _ in AUDITS
               if k in sweep.csv_columns]
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except (OSError, ValueError):
        return [], ""
    if not text.startswith(header):
        return [], ""
    # split on line feeds alone: str.splitlines also splits on characters
    # an axis name may hold
    lines = text[len(header):].split("\n")[:-1]
    counts: list[list[int]] = []
    end = len(header)
    for start, stop in sweep.chunks:
        chunk = lines[start:stop]
        records = [line.split(",") for line in chunk]
        if (len(records) < stop - start or any("\r" in line for line in chunk)
                or any(len(r) != len(sweep.csv_columns) for r in records)):
            break
        counts.append(audit_counts({k: np.array([r[i] for r in records]) == _TRUE
                                    for i, k in audited}))
        end += sum(map(len, chunk)) + len(chunk)
    return counts, text[len(header):end]


def _pool_batch(entry, chunks) -> list[tuple[list[int], str]]:
    """The entry of each chunk of one pool batch, in order."""
    return list(map(entry, chunks))


#: Seconds between a pool worker's checks that its parent is alive.
PARENT_POLL_S = 0.25


def _exit_with_parent():
    """Pool worker initializer: a daemon thread ends this worker once its
    parent pid has changed, as it does when the parent dies.  A worker
    blocks on its call queue, so it would otherwise outlive a parent killed
    without closing the pool.  The parent is read here, in the worker, as
    the process that started it: the CLI process, or a fork server that
    exits with it."""
    parent = os.getppid()

    def watch():
        while os.getppid() == parent:
            time.sleep(PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


def _run_chunks(sweep: _Sweep, start: int, workers: int):
    """Yield the audit counts and CSV text of each chunk from index start
    on, in index order.

    workers counts the processes that compute, this one included.  Under
    workers N > 1, with more than one chunk left, this process computes
    its own share, the last ceil(chunks / N) chunks, while a pool of N - 1
    workers, or fewer when there are fewer batches, computes the chunks
    before them in contiguous batches, about BATCHES_PER_WORKER per worker.
    After each chunk of its own, this process yields the pool's finished
    batches that come next in order, so the partial CSV grows as the pool
    works; its own share waits in memory until the pool's last batch is
    yielded.  Leaving before the end, by an interrupt, a dead worker or
    closing the generator, discards that share, which a resumed run
    computes again, terminates the pool's workers with the batches they
    run or hold (no other child of this process), and returns once the
    pool has shut down.  A worker whose parent dies without closing the
    pool (a kill) exits within a poll of _exit_with_parent.

    On every path, sequential or pooled, this process and its workers keep
    the memory each chunk frees for the next chunk (see below).
    """
    # Freeing one 16 MiB block raises glibc's heap trim threshold (it
    # follows the largest freed mmapped block, up to 32 MiB), so this
    # process and the workers forked below keep the heap pages each chunk
    # frees rather than returning them and faulting them in again for the
    # next chunk.
    np.empty(1 << 24, dtype=np.uint8)
    entry = partial(_chunk_entry, sweep.compute, sweep.csv_columns)
    todo = sweep.chunks[start:]
    if workers > 1 and len(todo) > 1:
        share = -(-len(todo) // workers)
        pooled, own = todo[:-share], todo[-share:]
        size = -(-len(pooled) // (BATCHES_PER_WORKER * (workers - 1)))
        batches = [pooled[i:i + size] for i in range(0, len(pooled), size)]
        others = set(multiprocessing.active_children())
        pool = ProcessPoolExecutor(max_workers=min(workers - 1, len(batches)),
                                   initializer=_exit_with_parent)
        try:
            futures = [pool.submit(_pool_batch, entry, batch) for batch in batches]
            held = []
            for chunk in own:
                held.append(entry(chunk))
                while futures and futures[0].done():
                    yield from futures.pop(0).result()
            for future in futures:
                yield from future.result()
            yield from held
        except BaseException:
            # an interrupt, a closed generator or a dead worker: end the
            # pool's workers, not the other children of this process
            for worker in set(multiprocessing.active_children()) - others:
                worker.terminate()
            raise
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        yield from map(entry, todo)


def _run_sweep(command: str, sweep: _Sweep, out_dir: Path, digest: str,
               workers: int) -> tuple[list[str], str]:
    """Write the whole chunks that head the partial CSV verbatim as one
    text, then each chunk _run_chunks computes as it comes; returns the
    deviation lines and the CSV's digest.  counts keeps the audit counts of
    each chunk written; the stream of chunks is closed on every way out."""
    path = out_dir / _CSV_NAME[command]
    counts, head = _resume(_partial(path), sweep)
    if counts:
        print(f"resumed {len(counts)} of {len(sweep.chunks)} chunks "
              f"from {_partial(path).name}")

    def texts(stream):
        if head:
            yield head
        for chunk_counts, text in stream:
            yield text
            counts.append(chunk_counts)

    def cells_done():
        return sum(stop - start for start, stop in sweep.chunks[:len(counts)])

    # the manifest goes first, so a partial CSV always sits beside its
    # run's manifest
    _write_manifest(out_dir, command, digest, sweep.cells, cells_done(), [])
    try:
        with closing(_run_chunks(sweep, len(counts), workers)) as stream:
            csv_digest = write_csv(path, sweep.csv_columns, texts(stream))
    except (KeyboardInterrupt, BrokenProcessPool):
        _write_manifest(out_dir, command, digest, sweep.cells, cells_done(),
                        ["interrupted"])
        raise
    totals = [sum(c) for c in zip(*counts)]
    return deviation_lines(totals, sweep.cells, sweep.unit, sweep.window), csv_digest


def _sweep(command: str, cfg: RunConfig, axes: list[AxisSpec]) -> _Sweep:
    """A phase grid, or the effective-params table, as its flattened cells."""
    if command == "effective-params":
        values = axes[0].values
        return _Sweep(partial(_effective_columns, cfg.model, cfg.drive,
                              axes[0].parameter, values),
                      values.size, EFFECTIVE_CSV_COLUMNS, "sweep points")
    driven = command == "driven-phase"
    drive = cfg.drive if driven else None
    window = block_window_for(driven, cfg.truncation.block_window)
    ax1, ax2 = axes
    # each axis value is formatted once per sweep, not once per cell
    texts = [np.array(_format_column(ax.values), dtype=object) for ax in (ax1, ax2)]
    return _Sweep(partial(_grid_columns, cfg.model, drive, ax1, ax2, window, texts),
                  ax1.values.size * ax2.values.size, GRID_CSV_COLUMNS, "cells", window)


def _grid_columns(model: SystemParams, drive: DriveParams | None, ax1: AxisSpec,
                  ax2: AxisSpec, window: int, texts, start: int, stop: int) -> dict:
    """The GRID_CSV_COLUMNS of grid cells start to stop:
    compute_grid_cells's cells, the axes and each cell's phase category.
    texts holds the CSV text of each axis's values; the axis values and
    categories are given as texts."""
    cells = compute_grid_cells(model, drive, ax1, ax2, window, start, stop)
    i, j = np.divmod(np.arange(start, stop), ax2.values.size)
    index = category_index(cells["n_label"], cells["m_label"])
    cells.update(axis1_name=ax1.name, axis1_value=texts[0][i].tolist(),
                 axis2_name=ax2.name, axis2_value=texts[1][j].tolist(),
                 category=_CATEGORY_TEXT[index].tolist())
    return cells


def _effective_columns(model: SystemParams, drive: DriveParams, parameter: str,
                       values: np.ndarray, start: int, stop: int) -> dict:
    """The effective-params CSV columns at values[start:stop] of parameter
    (omega_D or A_D), the other drive field fixed."""
    fields = sweep_values(model, drive)
    fields[parameter] = values[start:stop]
    table = effective_table(*(fields[k] for k in MODEL_FIELDS),
                            fields["A_D"], fields["omega_D"])
    table["omega_D"] = fields["omega_D"]
    return {k: table[k] for k in EFFECTIVE_CSV_COLUMNS}


# ---------------------------------------------------------------------------
# per-command default sweeps


def _default_axes(command: str, cfg: RunConfig) -> list[AxisConfig]:
    """The command's stock axes, as many as it takes (none for echo)."""
    model, drive = cfg.model, cfg.drive
    stock = {
        "static-phase": [("g1", 0.0, 4.5 * model.Omega1, 181),
                         ("g2", 0.0, 4.5 * model.Omega2, 181)],
        "driven-phase": [("A_D", 0.0, 2.5 * drive.frequency, 121),
                         ("Omega2", 0.97 * model.Omega2, 1.0 * model.Omega2, 61)],
        "effective-params": [("omega_D", 0.05, 6.0, 1200)],
        "echo": [],
    }
    return [AxisConfig(start=start, stop=stop, points=points, parameter=parameter)
            for parameter, start, stop, points in stock[command]]


def _resolve_axes(command: str, cfg: RunConfig) -> list[AxisSpec]:
    """The command's validated sweep axes: as many as its stock sweep has,
    making a valid sweep (spectrum.check_sweep) of the model, and of the
    drive for every command but static-phase."""
    stock = _default_axes(command, cfg)
    axes = cfg.sweep or stock
    if len(axes) != len(stock):
        raise ConfigError(f"{command} takes {len(stock)} sweep axes, got {len(axes)}")
    if command == "effective-params" and axes[0].parameter not in DRIVE_AXES:
        raise ConfigError("effective-params sweeps omega_D or A_D")
    drive = None if command == "static-phase" else cfg.drive
    try:
        axes = [AxisSpec(ax.name, ax.parameter, ax.values()) for ax in axes]
        check_sweep(cfg.model, drive, axes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return axes


def _echo_state(n_c1: int, n_c2: int, initial_state: str) -> StateVector:
    """The echo's initial state, on the space of cutoffs n_c1, n_c2; a
    cutoff that cannot represent the state is a configuration error."""
    try:
        return coherent_state(build_space(n_c1, n_c2), ECHO_ALPHA, ECHO_ALPHA,
                              initial_state)
    except TruncationError as exc:
        raise ConfigError(str(exc)) from exc


def _echo(model: SystemParams, drive: DriveParams, n_c1: int, n_c2: int,
          dyn: DynamicsConfig) -> EchoResult:
    """The echo of dyn's pair from dyn's initial state on cutoffs n_c1, n_c2."""
    spec_a, spec_b = (HamiltonianSpec(variant=v, sys=model, drive=drive)
                      for v in ECHO_PAIRS[dyn.pair])
    return loschmidt_echo(spec_a, spec_b, _echo_state(n_c1, n_c2, dyn.initial_state),
                          t_max=dyn.t_max, samples=dyn.samples)


def _plan(command: str, cfg: RunConfig) -> tuple[partial, _Sweep | None]:
    """The run's compute, a partial of all it reads of cfg, and its sweep
    (None for echo).  Every configuration error is raised here: the sweep
    axes, and an echo cutoff that cannot represent the initial state."""
    axes = _resolve_axes(command, cfg)
    if command == "echo":
        trunc = cfg.truncation
        _echo_state(trunc.n_c1, trunc.n_c2, cfg.dynamics.initial_state)
        return partial(_echo, cfg.model, cfg.drive, trunc.n_c1, trunc.n_c2,
                       cfg.dynamics), None
    sweep = _sweep(command, cfg, axes)
    return sweep.compute, sweep


def run_key(command: str, compute: partial) -> str:
    """The cache key of a run: the canonical digest of its command and its
    compute's arguments."""
    return canonical_digest([command, compute.args])


# ---------------------------------------------------------------------------
# commands


def _run_echo(compute: partial, out_dir: Path, digest: str) -> tuple[list[str], str]:
    """Write the CSV of the echo compute gives; returns the branches'
    deviation lines and the CSV's digest."""
    _write_manifest(out_dir, "echo", digest, 1, 0, [])
    try:
        echo = compute()
        a, b = echo.a, echo.b
        leakage = np.maximum(a.leakage_series, b.leakage_series)
        csv_digest = write_csv(out_dir / _CSV_NAME["echo"], ECHO_CSV_COLUMNS,
                               [_chunk_text((a.times, echo.fidelity, a.norms,
                                             b.norms, leakage))])
    except KeyboardInterrupt:
        _write_manifest(out_dir, "echo", digest, 1, 0, ["interrupted"])
        raise
    return a.warnings + b.warnings, csv_digest


def run_command(command: str, cfg: RunConfig, out_dir: str | Path | None = None,
                workers: int | str = 1, strict: bool = False) -> int:
    """Execute one command into out_dir, else the config's output
    directory; returns the process exit code."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose from {COMMANDS}")
    compute, sweep = _plan(command, cfg)
    workers = worker_count(workers)
    if out_dir is not None:
        # RunConfig refuses "", which Path would take for the working directory
        cfg = dataclasses.replace(cfg, output=str(out_dir))
    out_dir = Path(cfg.output)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {out_dir}: {exc}",
              file=sys.stderr)
        return 2
    digest = run_key(command, compute)
    manifest = _read_manifest(out_dir)
    csv_path = out_dir / _CSV_NAME[command]
    same_run = (manifest is not None
                and manifest.get("config_hash") == digest
                and manifest.get("command") == command
                and manifest.get("output_version") == OUTPUT_VERSION)
    if not same_run:
        # no readable manifest, or another configuration, command or output
        # version: nothing here is this run's, so start clean
        _partial(csv_path).unlink(missing_ok=True)
    elif manifest.get("csv_blake2b") is not None:
        # only a finished run's manifest carries its CSV's digest
        if manifest["csv_blake2b"] == _file_digest(csv_path):
            print(f"cache hit: {csv_path} is up to date (run key {digest})")
            return _finish(manifest["deviations"], strict)
        print(f"cache miss: {csv_path} is missing or differs from the manifest "
              "digest; recomputing")

    try:
        if sweep is None:
            cells, rows = 1, f"{cfg.dynamics.samples} samples"
            deviations, csv_digest = _run_echo(compute, out_dir, digest)
        else:
            cells = sweep.cells
            rows = f"{cells} cells"
            deviations, csv_digest = _run_sweep(command, sweep, out_dir, digest,
                                                workers)
    except (OSError, BrokenProcessPool, PropagationError) as exc:
        # a dead pool worker leaves the partial CSV for a rerun to resume; an
        # echo the propagator cannot take leaves its manifest unfinished
        print(f"error: {exc}", file=sys.stderr)
        return 2

    _write_manifest(out_dir, command, digest, cells, cells, deviations, csv_digest)
    code = _finish(deviations, strict)
    if code == 0:
        print(f"wrote {csv_path} ({rows}, run key {digest})")
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


def worker_count(workers: int | str) -> int:
    """The number of processes a workers value asks to compute a sweep,
    this one included: a positive integer, or "auto" for one per CPU this
    process may run on (its affinity mask, which taskset and container
    limits narrow, where the platform reports one)."""
    if workers == "auto":
        try:
            return len(os.sched_getaffinity(0)) or 1
        except (AttributeError, OSError):
            return os.cpu_count() or 1
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ConfigError("workers must be a positive integer or 'auto'")
    return workers


def _workers_flag(text: str) -> int:
    """--workers takes a positive integer or "auto", resolved by
    worker_count."""
    try:
        value = int(text)
    except ValueError:
        value = text
    try:
        return worker_count(value)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lambdajc",
        description="Phase diagrams, effective drive parameters and echo "
                    "traces for a three-level lambda atom in a two-mode cavity.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON run configuration (defaults apply "
                                         "when omitted)")
    parser.add_argument("--out", help="output directory (overrides the config)")
    parser.add_argument("--workers", type=_workers_flag, default=1,
                        help="processes that compute a sweep, this one "
                             "included, or auto for one per CPU")
    parser.add_argument("--strict", action="store_true",
                        help="fail (exit 2) on validity deviations")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, a code this CLI keeps for
        # runtime failures; --help exits 0
        return 1 if exc.code else 0

    try:
        if args.config is not None:
            try:
                text = Path(args.config).read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
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
