"""Tests of the benchmark itself.

    python3 bench/selftest.py        (or: python3 -m pytest bench/selftest.py)

The oracle gate must reject a CSV with one energy nudged by 1e-6 and one
with two labels swapped, a tiny-size smoke run of every workload must pass
in both modes, and the runner must refuse to run without the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, cli_args, make_config  # noqa: E402


def _scratch() -> Path:
    (ROOT / ".bench_runs").mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_runs"))


def _cli_csv(workload: str, seed: int, where: Path) -> tuple[dict, Path]:
    from lambdajc import cli
    cfg = make_config(workload, seed, tiny=True)
    cfg_path = where / f"{workload}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = where / workload
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(cli_args(workload, str(cfg_path), str(out))) == 0
    return cfg, next(out.glob("*.csv"))


def _rewrite(src: Path, dst: Path, edit) -> Path:
    lines = src.read_text().split("\n")
    edit(lines)
    dst.write_text("\n".join(lines))
    return dst


def _fields(line: str) -> list[str]:
    return line.split(",")


def test_gate_rejects_nudged_energy_and_swapped_labels():
    where = _scratch()
    try:
        for workload, driven in (("static-grid", False), ("driven-grid", True)):
            cfg, csv = _cli_csv(workload, 3, where)
            assert oracle.check_grid(csv, cfg, driven, seed=3) == []

            def nudge(lines):
                f = _fields(lines[1])
                f[4] = repr(float(f[4]) + 1e-6)
                lines[1] = ",".join(f)
            bad = _rewrite(csv, where / "nudged.csv", nudge)
            assert oracle.check_grid(bad, cfg, driven, seed=3), workload

            def swap(lines):
                rows = [_fields(x) for x in lines[1:] if x]
                a = 0
                b = next(i for i, r in enumerate(rows) if r[5:7] != rows[a][5:7])
                rows[a][5:7], rows[b][5:7] = rows[b][5:7], rows[a][5:7]
                lines[1:] = [",".join(r) for r in rows] + [""]
            bad = _rewrite(csv, where / "swapped.csv", swap)
            assert oracle.check_grid(bad, cfg, driven, seed=3), workload
    finally:
        shutil.rmtree(where)


def test_gate_rejects_perturbed_echo():
    where = _scratch()
    try:
        cfg, csv = _cli_csv("echo-rotated", 3, where)
        reference = oracle.EchoReference(cfg).run()
        assert oracle.check_echo(csv, reference) == []

        def nudge(lines):
            f = _fields(lines[5])
            f[1] = repr(float(f[1]) - 1e-5)
            lines[5] = ",".join(f)
        assert oracle.check_echo(_rewrite(csv, where / "bad.csv", nudge), reference)
    finally:
        shutil.rmtree(where)


def test_benchmark_json_matches_the_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
    from run import END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_tiny_smoke_run_of_every_workload():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run("--workload", workload, "--seed", "5", "--seconds", "0",
                        "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0
            assert set(result["metrics"]) == {m["name"] for m in doc[section]}


def test_refuses_to_run_without_the_package():
    where = _scratch()
    try:
        shutil.copytree(BENCH, where / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", where)
        proc = _run("--workload", "static-grid", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=where)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(where)


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception as exc:  # report every test, then fail
                failures += 1
                print(f"FAIL {name}: {exc!r}")
    raise SystemExit(1 if failures else 0)
