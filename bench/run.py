"""Benchmark of the lambdajc CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Builds the workload's config from the seed, runs lambdajc.cli.main on it in
a fresh interpreter per run, checks every output with the oracle gate and
prints each metric with its unit and sample count.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones, from one untraced and one traced run.

Exit code 0 when every output passes the gate, 1 when one fails, 2 when
the benchmark cannot run at all (no package source next to it).  Run
records, with the generated config, the seed, the CSV digests and the
machine, go to .bench_runs/ at the checkout root.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import oracle
from spans import PER_LAYER, summarize
from workloads import WORKLOADS, make_config

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

SETUP_REPEATS = 9
#: Cache-hit re-invocations after each measured run (a correctness check)
#: and after the untraced run of a traced invocation (cli.cache_hit_ms).
CHECK_CALLS = 20
CACHE_CALLS = 200
#: Every child must end within this many seconds of the runner's start, so
#: that a hung program still ends the run within three minutes.
RUN_BUDGET_S = 165
_STARTED = time.monotonic()
RSS_POLL_S = 0.02

END_TO_END_UNITS = {"run_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
#: Printed beside them, not part of the result line: the two times run_rel
#: divides.
INFO_UNITS = {"run_s": "s", "reference_s": "s"}


# ---------------------------------------------------------------------------
# child processes


class TreeRss(threading.Thread):
    """Polls the resident memory of a process and its descendants and keeps
    the peak of their sum."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pids = {pid}
        self.peak_kb = 0
        self._done = threading.Event()
        self._page_kb = os.sysconf("SC_PAGE_SIZE") // 1024

    def _discover(self):
        for entry in os.listdir("/proc"):
            if not entry.isdigit() or int(entry) in self.pids:
                continue
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                    ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            if ppid in self.pids:
                self.pids.add(int(entry))

    def _rss_kb(self, pid: int) -> int:
        try:
            with open(f"/proc/{pid}/statm", encoding="ascii") as fh:
                return int(fh.read().split()[1]) * self._page_kb
        except (OSError, IndexError, ValueError):
            return 0

    def run(self):
        tick = 0
        while not self._done.wait(RSS_POLL_S):
            if tick % 5 == 0:
                self._discover()
            tick += 1
            self.peak_kb = max(self.peak_kb, sum(self._rss_kb(p) for p in list(self.pids)))

    def stop(self):
        self._done.set()
        self.join()


def child(*argv, watch_rss: bool = False) -> dict:
    """Run bench/child.py in a fresh interpreter; its JSON result, or
    {"error": ...} when it fails."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), *map(str, argv)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    watcher = TreeRss(proc.pid) if watch_rss else None
    if watcher:
        watcher.start()
    try:
        timeout = max(1.0, _STARTED + RUN_BUDGET_S - time.monotonic())
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"timed out: the run's {RUN_BUDGET_S} s budget is spent"}
    finally:
        if watcher:
            watcher.stop()
        try:
            # nothing of the run may outlive it, pool workers included
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {err.strip()[-2000:]}"}
    result = json.loads(out.strip().splitlines()[-1])
    if watcher:
        result["peak_kb"] = max(watcher.peak_kb, result["maxrss_kb"])
    return result


# ---------------------------------------------------------------------------
# machine record


def _blas() -> dict:
    import numpy as np
    info = {"threads_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ}}
    try:
        info["name"] = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        info["name"] = "unknown"
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    info["threads"] = getter()
                    if config is not None:
                        config.restype = ctypes.c_char_p
                        info["config"] = config().decode()
                    return info
    info["threads"] = "unknown"
    return info


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": _blas(), "commit": _commit()}


# ---------------------------------------------------------------------------
# the gate


class Gate:
    """Oracle checks for one workload's config; the echo reference is
    computed once, on first use, outside every timed region."""

    def __init__(self, workload: str, cfg: dict, seed: int):
        self.command = WORKLOADS[workload].command
        self.cfg = cfg
        self.seed = seed
        self._reference = None

    def check(self, result: dict) -> list[str]:
        if "error" in result:
            return [result["error"]]
        if "code" not in result:  # a set-up probe
            return []
        errors = []
        if not result["cache_ok"]:
            errors.append("a cache-hit re-invocation failed or rewrote the CSV")
        if result["code"] != 0:
            errors.append(f"cli exit {result['code']}")
        if result["csv"] is None:
            return errors + ["no CSV written"]
        if self.command == "echo":
            if self._reference is None:
                self._reference = oracle.EchoReference(self.cfg).run()
            errors += oracle.check_echo(result["csv"], self._reference)
        else:
            errors += oracle.check_grid(result["csv"], self.cfg,
                                        self.command == "driven-phase", self.seed)
        return errors


def digest(path) -> str:
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _verify(gate: Gate, results: list[dict], record: dict) -> int:
    """Gate every run and require byte-identical CSVs; returns failures."""
    failed = 0
    first = None
    record["runs"] = []
    for result in results:
        errors = gate.check(result)
        entry = {k: v for k, v in result.items() if k != "cache_s"}
        if result.get("csv") and os.path.exists(result["csv"]):
            entry["blake2b"] = digest(result["csv"])
            first = first or entry["blake2b"]
            if entry["blake2b"] != first:
                errors.append("CSV bytes differ between runs of one config")
        entry["errors"] = errors
        record["runs"].append(entry)
        failed += bool(errors)
    return failed


# ---------------------------------------------------------------------------
# runs


def _rel(result: dict) -> float:
    """A run's time over its reference time, as in run_rel: ratios of two
    runs made in different phases of the machine's speed stay comparable."""
    return result["run_s"] / result["reference_s"]


def measure(workload: str, seconds: float, cfg_path: Path, run_dir: Path,
            gate: Gate, record: dict):
    """Fresh CLI runs, with a set-up probe after every second one, until the
    next run would end past `seconds` (at least one run, and at least
    SETUP_REPEATS probes), so both kinds of sample are spread over the whole
    window."""
    deadline = time.monotonic() + seconds
    setup, results = [], []
    last = 0.0
    while not results or time.monotonic() + last < deadline:
        start = time.monotonic()
        out = run_dir / f"out{len(results)}"
        results.append(child("run", cfg_path, out, workload, CHECK_CALLS, watch_rss=True))
        if len(results) % 2:
            setup.append(child("setup", cfg_path))
        last = time.monotonic() - start
    while len(setup) < SETUP_REPEATS:
        setup.append(child("setup", cfg_path))
    failed = _verify(gate, results + setup, record)
    ok = [r for r in results if "error" not in r]
    samples = {
        "run_rel": [_rel(r) for r in ok],
        "setup_s": [s["setup_s"] for s in setup if "error" not in s],
        "peak_rss_mb": [r["peak_kb"] / 1024 for r in ok],
        "run_s": [r["run_s"] for r in ok],
        "reference_s": [r["reference_s"] for r in ok],
    }
    return samples, len(results) + len(setup), failed


def trace(workload: str, cfg_path: Path, run_dir: Path, gate: Gate, record: dict):
    layer = dict.fromkeys(PER_LAYER, 0.0)
    if WORKLOADS[workload].workers > 1:
        # Pool workers are not traced: this workload reports only how well
        # the pool scales against the sequential run of the same config.
        sequential = child("run", cfg_path, run_dir / "seq", "static-grid", CACHE_CALLS)
        pooled = child("run", cfg_path, run_dir / "pool", workload, 0)
        failed = _verify(gate, [sequential, pooled], record)
        if not failed:
            layer["cli.scaling_eff"] = sequential["run_s"] / (pooled["workers"] * pooled["run_s"])
            layer["cli.cache_hit_ms"] = statistics.median(sequential["cache_s"]) * 1e3
        return layer, 2, failed

    spans_path = run_dir / "spans.json"
    plain = child("run", cfg_path, run_dir / "plain", workload, CACHE_CALLS)
    traced = child("run", cfg_path, run_dir / "traced", workload, 0, spans_path)
    failed = _verify(gate, [plain, traced], record)
    if failed:
        return layer, 2, failed
    layer["cli.cache_hit_ms"] = statistics.median(plain["cache_s"]) * 1e3
    with open(spans_path, encoding="utf-8") as fh:
        spans = json.load(fh)
    record["trace_missing"] = spans["missing"]
    sizes = {}
    for path in {s[4] for s in spans["spans"] if s[0] == "cli.write_csv"}:
        with open(path, "rb") as fh:
            data = fh.read()
        sizes[path] = (data.count(b"\n") - 1, len(data))
    layer.update(summarize(spans, sizes))
    if WORKLOADS[workload].command == "echo":
        layer["dynamics.norm_drift"] = oracle.echo_norm_drift(traced["csv"])
    layer["trace.run_s"] = traced["run_s"]
    layer["trace.overhead"] = _rel(traced) / _rel(plain) - 1.0
    return layer, 2, failed


def _report(metrics: dict, samples: dict | None):
    for name, m in metrics.items():
        line = f"{name:40s} {m['value']:.6g} {m['unit']}"
        if samples is not None:
            values = sorted(samples[name])
            line += f"  (median of n={len(values)}"
            if len(values) >= 20:
                # highest percentile with at least ten samples above it
                pct = int(100 * (len(values) - 10) / len(values))
                line += f", p{pct} {values[int(len(values) * pct / 100)]:.6g}"
            line += ")"
        print(line)


def run_all(args) -> int:
    """Every workload in turn, each in its own runner process: their reports,
    then one table of every metric by workload.  Exit 1 if any output failed
    its gate."""
    table, attempted, failed = [], 0, 0
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv + (["--tiny"] if args.tiny else []),
                              capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            print(proc.stderr, file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        table += [(name, workload, m) for name, m in result["metrics"].items()]
    print()
    for name, workload, m in sorted(table, key=lambda row: row[0]):
        print(f"{name:40s} {workload:16s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':40s} {'all':16s} {failed / attempted:.6g} 1  (n={attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {f"{name}@{workload}": m for name, workload, m in table}}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes instead of the measured ones")
    args = parser.parse_args(argv)
    if not (SRC / "lambdajc" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'lambdajc'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    RUNS.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    cfg = make_config(args.workload, args.seed, tiny=args.tiny)
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "config": cfg,
              "machine": machine()}
    gate = Gate(args.workload, cfg, args.seed)
    try:
        if args.trace:
            layer, attempted, failed = trace(args.workload, cfg_path, run_dir,
                                             gate, record)
            metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layer.items()}
            samples = None
        else:
            samples, attempted, failed = measure(args.workload, args.seconds, cfg_path,
                                                 run_dir, gate, record)
            units = {**END_TO_END_UNITS, **INFO_UNITS}
            metrics = {k: {"value": statistics.median(v) if v else 0.0,
                           "unit": units[k]} for k, v in samples.items()}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    record["metrics"] = metrics
    record["samples"] = samples
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (RUNS / name).write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} commit {record['machine']['commit']}")
    print(f"machine {json.dumps(record['machine'])}")
    for entry in record["runs"]:
        if "blake2b" in entry or entry["errors"]:
            print(f"run csv blake2b {entry.get('blake2b')} errors {entry['errors'][:3]}")
    _report(metrics, samples)
    if args.trace and metrics["trace.run_s"]["value"]:
        shares = {layer: sum(metrics[f"{n}.self_s"]["value"] for n in names)
                  / metrics["trace.run_s"]["value"]
                  for layer, names in (("spectrum", ["spectrum"]),
                                       ("effective+specfun", ["effective", "specfun"]),
                                       ("dynamics", ["dynamics"]),
                                       ("cli.run_command self", ["cli"]))}
        print("share of the traced run: "
              + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    print(f"{'fail_frac':40s} {failed / attempted:.6g} 1  (n={attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: m for k, m in metrics.items() if k not in INFO_UNITS}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
