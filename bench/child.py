"""One fresh interpreter of the benchmark.

    python3 bench/child.py setup CONFIG
        time `import lambdajc.cli` (the import every CLI invocation pays)
        plus parse_config and config_hash of CONFIG
    python3 bench/child.py run CONFIG OUT WORKLOAD CACHE_CALLS [SPANS]
        time one lambdajc.cli.main call into the empty directory OUT, then
        the reference computation on as many CPUs as the run has workers
        (see parallel_reference()), then CACHE_CALLS re-invocations on the
        finished directory (cache hits); with SPANS, trace the layers and
        write the spans there at exit
    python3 bench/child.py reference
        a helper of parallel_reference: import, print "ready", wait for a
        line on stdin, print the reference time

The package is found through PYTHONPATH, which the runner points at the
checkout's src/.  The last line of stdout is one JSON object.
"""

import time

_START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402


def cache_hits(args: list[str], csv: str | None, calls: int) -> dict:
    """Time re-invocations on a finished directory; they must exit 0 and
    leave the CSV untouched."""
    from lambdajc import cli
    written = os.stat(csv).st_mtime_ns if csv else None
    times, codes = [], set()
    for _ in range(calls):
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            codes.add(cli.main(args))
            times.append(time.perf_counter() - start)
    rewritten = bool(calls) and csv is not None and os.stat(csv).st_mtime_ns != written
    return {"cache_s": times, "cache_ok": codes <= {0} and not rewritten}


def _csv(out_dir: str) -> str | None:
    names = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    return next((os.path.join(out_dir, f) for f in names if f.endswith(".csv")), None)


def reference() -> float:
    """Wall time of a fixed computation that shares no code with the package:
    interpreted float arithmetic, small symmetric eigenproblems and sparse
    complex matrix-vector products, the kinds of work the package does.
    Timed in the run's own process right after the run, it tracks the speed
    the machine gave that process at that moment; the runner divides the run
    by it.  It uses only modules the CLI has already imported and arrays far
    smaller than the run's, so it moves neither import costs nor peak memory."""
    import numpy as np
    import scipy.sparse as sp
    rng = np.random.default_rng(0)
    small = rng.standard_normal((9, 9))
    small = small + small.T
    rows, cols = rng.integers(0, 450, size=(2, 4000))
    sparse = sp.csr_matrix((rng.standard_normal(4000) * 0.1, (rows, cols)), shape=(450, 450))
    psi = np.ones(450, dtype=complex)
    start = time.perf_counter()
    acc = 0.0
    for i in range(600_000):
        acc += (i * 0.5) % 7.0
    for _ in range(6_000):
        np.linalg.eigvalsh(small)
    for _ in range(10_000):
        psi = psi + (sparse @ psi) * 1e-3j
    return time.perf_counter() - start


def parallel_reference(copies: int) -> float:
    """Mean wall time of `copies` references run at once, one in this process
    and the rest in fresh interpreters started beforehand and released
    together: a run that keeps several CPUs busy is compared with the speed
    of as many."""
    helpers = [subprocess.Popen([sys.executable, __file__, "reference"], text=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
               for _ in range(copies - 1)]
    try:
        for helper in helpers:
            helper.stdout.readline()  # imported and waiting
        for helper in helpers:
            helper.stdin.write("go\n")
            helper.stdin.flush()
        times = [reference()]
        times += [float(helper.stdout.readline()) for helper in helpers]
    finally:
        for helper in helpers:
            helper.kill()
            helper.wait()
    return sum(times) / len(times)


def setup(config_path: str) -> dict:
    import lambdajc
    import lambdajc.cli  # noqa: F401
    with open(config_path, encoding="utf-8") as fh:
        lambdajc.config_hash(lambdajc.parse_config(fh.read()))
    return {"setup_s": time.perf_counter() - _START}


def run(config_path: str, out_dir: str, workload: str, cache_calls: int,
        spans_path: str | None) -> dict:
    from lambdajc import cli
    from workloads import WORKLOADS, cli_args

    tracer = None
    if spans_path:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    args = cli_args(workload, config_path, out_dir)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        start = time.perf_counter()
        code = cli.main(args)
        run_s = time.perf_counter() - start
    if tracer is not None:
        tracer.dump(spans_path)
    reference_s = parallel_reference(WORKLOADS[workload].workers)
    csv = _csv(out_dir)
    return {
        **cache_hits(args, csv, cache_calls),
        "code": code,
        "run_s": run_s,
        "reference_s": reference_s,
        "csv": csv,
        "workers": WORKLOADS[workload].workers,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "printed": printed.getvalue()[-2000:],
    }


def main(argv: list[str]) -> int:
    if argv[0] == "reference":  # a helper of parallel_reference
        import numpy  # noqa: F401
        import scipy.sparse  # noqa: F401
        print("ready", flush=True)
        sys.stdin.readline()
        print(reference(), flush=True)
        return 0
    if argv[0] == "setup":
        result = setup(argv[1])
    else:
        result = run(argv[1], argv[2], argv[3], int(argv[4]),
                     argv[5] if len(argv) > 5 else None)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
