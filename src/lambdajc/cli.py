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
configuration with a complete manifest is not recomputed, and an
interrupted sweep resumes from its completion ledger.  Outputs are
written in cell-index order so the bytes are identical for any worker
count.

Exit codes: 0 success, 1 configuration error, 2 runtime or validity
failure (validity failures only fail the run under --strict).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    AxisConfig,
    ConfigError,
    RunConfig,
    config_hash,
    parse_config,
)
from .dynamics import (
    HamiltonianSpec,
    TruncationError,
    Variant,
    build_space,
    coherent_state,
    loschmidt_echo,
)
from .effective import effective_table
from .params import DriveParams, SystemParams
from .spectrum import AxisSpec, assemble_grid, categorize, compute_grid_row

COMMANDS = ("static-phase", "driven-phase", "effective-params", "echo")
OUTPUT_ENV_VAR = "LAMBDAJC_OUT"
ECHO_ALPHA = 0.01

GRID_CSV_COLUMNS = ("axis1_name", "axis1_value", "axis2_name", "axis2_value",
                    "energy", "n_label", "m_label", "category", "gap",
                    "window_capped", "rwa_ok", "hierarchy_ok")
ECHO_CSV_COLUMNS = ("t", "fidelity", "norm_a", "norm_b", "leakage")
EFFECTIVE_CSV_COLUMNS = ("omega_D", "theta", "n0", "m0", "Delta_n0", "Delta_m0",
                         "Omega1_eff", "Omega2_eff", "omega1_eff", "omega2_eff",
                         "gr1", "gr2", "gc1", "gc2", "rwa_ok")

_CSV_NAME = {
    "static-phase": "grid.csv",
    "driven-phase": "grid.csv",
    "effective-params": "effective_params.csv",
    "echo": "echo.csv",
}

MAX_MANIFEST_DEVIATIONS = 100


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


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


def write_csv(path: Path, columns, rows):
    """Write rows (iterables aligned with columns) with round-trip exact
    floating point formatting."""
    def write(fh):
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    try:
        _replace_atomically(path, write)
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc


def _file_digest(path: Path) -> str | None:
    """blake2b hex digest of a file's bytes, None when it cannot be read."""
    try:
        return hashlib.blake2b(path.read_bytes()).hexdigest()
    except OSError:
        return None


def write_echo_csv(echo, path: Path):
    rows = zip(echo.times, echo.fidelity, echo.norm_a, echo.norm_b,
               echo.leakage_series)
    write_csv(path, ECHO_CSV_COLUMNS, rows)


# ---------------------------------------------------------------------------
# manifest and ledger


def _manifest_path(out_dir: Path) -> Path:
    return out_dir / "manifest.json"


def _ledger_path(out_dir: Path) -> Path:
    return out_dir / "cells.jsonl"


def _write_manifest(out_dir: Path, command: str, digest: str, cells_total: int,
                    cells_done: int, deviations: list[str],
                    csv_digest: str | None = None):
    shown = deviations[:MAX_MANIFEST_DEVIATIONS]
    if len(deviations) > MAX_MANIFEST_DEVIATIONS:
        shown.append(f"... {len(deviations) - MAX_MANIFEST_DEVIATIONS} more")
    doc = {
        "command": command,
        "config_hash": digest,
        "version": __version__,
        "cells_total": cells_total,
        "cells_done": cells_done,
        "deviations": shown,
        "csv_blake2b": csv_digest,
    }
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    _replace_atomically(_manifest_path(out_dir), lambda fh: fh.write(text))


def _read_manifest(out_dir: Path) -> dict | None:
    path = _manifest_path(out_dir)
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None


def _load_ledger(out_dir: Path, digest: str) -> dict[int, dict]:
    """chunk index -> payload for every completed chunk of this config;
    a line that does not parse (a torn tail left by a kill) is skipped."""
    path = _ledger_path(out_dir)
    done: dict[int, dict] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError:
        return done
    for line in lines:
        try:
            entry = json.loads(line)
            if entry.get("config_hash") == digest:
                done[int(entry["chunk"])] = entry["data"]
        except (AttributeError, KeyError, TypeError, ValueError):
            continue
    return done


def _append_ledger(out_dir: Path, digest: str, chunk: int, data):
    with open(_ledger_path(out_dir), "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"config_hash": digest, "chunk": chunk,
                             "data": data}) + "\n")
        fh.flush()


# ---------------------------------------------------------------------------
# worker payloads (module level so process pools can pickle them)


def _model_fields(sys: SystemParams) -> tuple:
    return (sys.omega1, sys.omega2, sys.Omega1, sys.Omega2, sys.g1, sys.g2)


def _grid_worker(payload):
    (i, model_fields, drive_fields, ax1, ax2, window) = payload
    sys_t = SystemParams(*model_fields)
    drive_t = DriveParams(*drive_fields) if drive_fields is not None else None
    axis1 = AxisSpec(ax1[0], ax1[1], np.array(ax1[2]))
    axis2 = AxisSpec(ax2[0], ax2[1], np.array(ax2[2]))
    row = compute_grid_row(sys_t, drive_t, axis1, axis2, window, i)
    return i, {k: v.tolist() for k, v in row.items()}


def _effective_worker(payload):
    (chunk, model_fields, drive_fields, parameter, values) = payload
    base = DriveParams(*drive_fields)
    values = np.array(values)
    amplitude, frequency = base.amplitude, base.frequency
    if parameter == "omega_D":
        frequency = values
    else:
        amplitude = values
    table = effective_table(*model_fields, amplitude, frequency)
    columns = [np.broadcast_to(c, values.shape).tolist() for c in (
        frequency, *(table[k] for k in EFFECTIVE_CSV_COLUMNS[1:]))]
    return chunk, [list(row) for row in zip(*columns)]


def _run_chunks(worker, payloads, workers: int, on_done,
                abort_after: int | None):
    """Run chunk payloads, invoking on_done(index, data) as results land.

    Results are keyed by chunk index, so completion order never affects the
    output.  The abort hook (tests only) is honored on the sequential path.
    """
    if workers > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for index, data in pool.map(worker, payloads):
                on_done(index, data)
        return
    for count, payload in enumerate(payloads, start=1):
        index, data = worker(payload)
        on_done(index, data)
        if abort_after is not None and count >= abort_after:
            raise KeyboardInterrupt("aborted for resume test")


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
    if command == "effective-params":
        return [AxisConfig(name="omega_D", start=0.05, stop=6.0, points=1200,
                           parameter="omega_D")]
    return []


_POSITIVE_AXIS_FIELDS = ("Omega1", "Omega2", "omega_D")
_NON_NEGATIVE_AXIS_FIELDS = ("g1", "g2", "A_D")


def _resolve_axes(command: str, cfg: RunConfig) -> list[AxisConfig]:
    axes = cfg.sweep if cfg.sweep else _default_axes(command, cfg)
    need = {"static-phase": 2, "driven-phase": 2, "effective-params": 1,
            "echo": 0}[command]
    if len(axes) != need:
        raise ConfigError(
            f"{command} needs exactly {need} sweep axes, got {len(axes)}")
    if command == "effective-params" and axes[0].parameter not in ("omega_D", "A_D"):
        raise ConfigError("effective-params sweeps omega_D or A_D")
    if command == "static-phase":
        for ax in axes:
            if ax.parameter in ("A_D", "omega_D"):
                raise ConfigError("static-phase cannot sweep drive parameters")
    for ax in axes:
        low = min(ax.start, ax.stop)
        if ax.parameter in _POSITIVE_AXIS_FIELDS and low <= 0:
            raise ConfigError(
                f"sweep axis {ax.name!r}: {ax.parameter} > 0 required, "
                f"range reaches {low}")
        if ax.parameter in _NON_NEGATIVE_AXIS_FIELDS and low < 0:
            raise ConfigError(
                f"sweep axis {ax.name!r}: {ax.parameter} >= 0 required, "
                f"range reaches {low}")
    return axes


# ---------------------------------------------------------------------------
# commands


def _run_grid(command: str, cfg: RunConfig, out_dir: Path, digest: str,
              workers: int, abort_after_chunks: int | None) -> tuple[list[str], int, int]:
    axes = _resolve_axes(command, cfg)
    driven = command == "driven-phase"
    drive = cfg.drive_or_default() if driven else None
    window = cfg.truncation.window_for(driven)
    ax1, ax2 = axes
    vals1, vals2 = ax1.values(), ax2.values()
    cells_total = vals1.size * vals2.size
    done = _load_ledger(out_dir, digest)
    _write_manifest(out_dir, command, digest, cells_total, vals2.size * len(done), [])

    ax1_t = (ax1.name, ax1.parameter, vals1.tolist())
    ax2_t = (ax2.name, ax2.parameter, vals2.tolist())
    drive_t = None
    if drive is not None:
        drive_t = (drive.amplitude, drive.frequency)
    payloads = [(i, _model_fields(cfg.model), drive_t, ax1_t, ax2_t, window)
                for i in range(vals1.size) if i not in done]

    def record(i, data):
        _append_ledger(out_dir, digest, i, data)
        done[i] = data

    try:
        _run_chunks(_grid_worker, payloads, workers, record, abort_after_chunks)
    except KeyboardInterrupt:
        _write_manifest(out_dir, command, digest, cells_total,
                        vals2.size * len(done), ["interrupted"])
        raise

    grid = assemble_grid(
        AxisSpec(ax1.name, ax1.parameter, vals1), AxisSpec(ax2.name, ax2.parameter, vals2),
        window, [{k: np.asarray(v) for k, v in done[i].items()} for i in range(vals1.size)])
    write_csv(out_dir / _CSV_NAME[command], GRID_CSV_COLUMNS, _grid_rows(grid))
    return grid.deviations, cells_total, cells_total


def _grid_rows(grid):
    """CSV rows of a PhaseGrid, axis1-major."""
    columns = [grid.energy, grid.n_label, grid.m_label, grid.gap,
               grid.window_capped, grid.rwa_ok, grid.hierarchy_ok]
    name1, name2 = grid.axis1.name, grid.axis2.name
    vals2 = grid.axis2.values.tolist()
    for v1, *row in zip(grid.axis1.values.tolist(), *(c.tolist() for c in columns)):
        for v2, energy, n, m, gap, capped, rwa, hier in zip(vals2, *row):
            yield (name1, v1, name2, v2, energy, n, m, categorize(n, m).value,
                   gap, capped, rwa, hier)


def _run_effective(cfg: RunConfig, out_dir: Path, digest: str, workers: int,
                   abort_after_chunks: int | None) -> tuple[list[str], int, int]:
    axis = _resolve_axes("effective-params", cfg)[0]
    drive = cfg.drive_or_default()
    values = axis.values()
    cells_total = values.size
    chunk_size = 256
    chunks = [values[k:k + chunk_size] for k in range(0, values.size, chunk_size)]
    done = _load_ledger(out_dir, digest)
    _write_manifest(out_dir, "effective-params", digest, cells_total,
                    sum(len(done[c]) for c in done), [])
    payloads = [(ci, _model_fields(cfg.model),
                 (drive.amplitude, drive.frequency), axis.parameter,
                 chunk.tolist())
                for ci, chunk in enumerate(chunks) if ci not in done]

    def record(ci, chunk_rows):
        _append_ledger(out_dir, digest, ci, chunk_rows)
        done[ci] = chunk_rows

    try:
        _run_chunks(_effective_worker, payloads, workers, record,
                    abort_after_chunks)
    except KeyboardInterrupt:
        _write_manifest(out_dir, "effective-params", digest, cells_total,
                        sum(len(v) for v in done.values()), ["interrupted"])
        raise
    rows = [row for ci in range(len(chunks)) for row in done[ci]]
    n_rwa = sum(1 for row in rows if not row[-1])
    deviations = []
    if n_rwa:
        deviations.append(f"{n_rwa}/{cells_total} sweep points fail the "
                          "counter-rotating validity rule")
    write_csv(out_dir / _CSV_NAME["effective-params"], EFFECTIVE_CSV_COLUMNS, rows)
    return deviations, cells_total, cells_total


def _run_echo(cfg: RunConfig, out_dir: Path, digest: str) -> tuple[list[str], int, int]:
    drive = cfg.drive_or_default()
    trunc = cfg.truncation
    dyn = cfg.dynamics
    space = build_space(trunc.n_c1, trunc.n_c2)
    psi0 = coherent_state(space, ECHO_ALPHA, ECHO_ALPHA, dyn.initial_state)
    if dyn.pair == "rotated":
        variants = (Variant.DRIVE_ROTATED, Variant.DOMINANT_SIDEBAND)
    else:
        variants = (Variant.EFFECTIVE_FULL, Variant.EFFECTIVE_JC)
    spec_a = HamiltonianSpec(variant=variants[0], sys=cfg.model, drive=drive)
    spec_b = HamiltonianSpec(variant=variants[1], sys=cfg.model, drive=drive)
    _write_manifest(out_dir, "echo", digest, 1, 0, [])
    echo = loschmidt_echo(spec_a, spec_b, space, psi0, t_max=dyn.t_max,
                          samples=dyn.samples, dt_max=dyn.dt_max)
    write_echo_csv(echo, out_dir / _CSV_NAME["echo"])
    return list(echo.warnings), 1, 1


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
    if out_dir is None:
        out_dir = os.environ.get(OUTPUT_ENV_VAR) or cfg.output
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {out_dir}: {exc}",
              file=sys.stderr)
        return 2
    if workers is None:
        if cfg.workers == "auto":
            workers = os.cpu_count() or 1
        else:
            workers = int(cfg.workers)

    digest = config_hash(cfg)
    manifest = _read_manifest(out_dir)
    csv_path = out_dir / _CSV_NAME[command]
    same_run = (manifest is not None
                and manifest.get("config_hash") == digest
                and manifest.get("command") == command)
    if (same_run
            and manifest.get("cells_total") == manifest.get("cells_done")
            and manifest.get("cells_total", 0) > 0):
        stored = manifest.get("csv_blake2b")
        if stored is not None and stored == _file_digest(csv_path):
            print(f"cache hit: {csv_path} is up to date (config {digest})")
            return _finish(manifest.get("deviations", []), strict)
        print(f"cache miss: {csv_path} is missing or differs from the manifest "
              "digest; recomputing")
    if manifest is not None and not same_run:
        # stale results from another configuration or command: start clean
        _ledger_path(out_dir).unlink(missing_ok=True)

    try:
        if command in ("static-phase", "driven-phase"):
            deviations, total, done = _run_grid(command, cfg, out_dir, digest,
                                                workers, _abort_after_chunks)
        elif command == "effective-params":
            deviations, total, done = _run_effective(cfg, out_dir, digest,
                                                     workers, _abort_after_chunks)
        else:
            deviations, total, done = _run_echo(cfg, out_dir, digest)
    except ConfigError:
        raise
    except KeyboardInterrupt:
        raise
    except TruncationError as exc:
        # the configured cutoffs cannot represent the requested state
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    _write_manifest(out_dir, command, digest, total, done, deviations,
                    _file_digest(csv_path))
    _ledger_path(out_dir).unlink(missing_ok=True)
    code = _finish(deviations, strict)
    if code == 0:
        print(f"wrote {csv_path} ({total} cells, config {digest})")
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
