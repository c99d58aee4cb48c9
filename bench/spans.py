"""Span tracing of the package's layers from outside the package.

The package binds callee names at import (cli imports compute_grid_row,
spectrum imports the effective functions, effective and dynamics import the
specfun functions), so each callee is wrapped in the namespace that calls
it, not where it is defined.  Spans stay in memory and are written once,
when the traced run ends.  A target the package no longer has is skipped
and listed as missing, so a refactor degrades the split instead of
breaking the run.

A span is (name, start_ns, end_ns, parent index, extra), where extra is
the work count of a grid row or kernel table, the branch of an evolve, or
the path of a CSV write.  A layer's
self time is its spans' durations minus their direct children's.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


_EXTRA = {
    # span name -> what the span records beside its times, read off the
    # call's arguments: the work count of a grid row or kernel table, the
    # branch of an evolve, the path of a CSV write
    "spectrum.compute_grid_row": lambda a, kw: _arg(a, kw, 3, "axis2").values.size,
    "spectrum.ground_energy_table": lambda a, kw: (_arg(a, kw, 6, "block_window") + 1) ** 2,
    "dynamics.evolve": lambda a, kw: _arg(a, kw, 0, "spec").variant.value,
    "cli.write_csv": lambda a, kw: str(_arg(a, kw, 0, "path")),
}

#: (module, attribute, span name) for every layer entry point the CLI path
#: reaches.  Every span name starts with its layer.
TARGETS = (
    ("lambdajc.cli", "run_command", "cli.run_command"),
    ("lambdajc.cli", "write_csv", "cli.write_csv"),
    ("lambdajc.cli", "parse_config", "config.parse_config"),
    ("lambdajc.cli", "config_hash", "config.config_hash"),
    ("lambdajc.cli", "compute_grid_row", "spectrum.compute_grid_row"),
    ("lambdajc.spectrum", "ground_energy_table", "spectrum.ground_energy_table"),
    ("lambdajc.spectrum", "find_sidebands", "effective.find_sidebands"),
    ("lambdajc.spectrum", "effective_parameters", "effective.effective_parameters"),
    ("lambdajc.spectrum", "validity_report", "effective.validity_report"),
    ("lambdajc.effective", "bessel_j", "specfun.bessel_j"),
    ("lambdajc.effective", "bessel_j_any", "specfun.bessel_j_any"),
    ("lambdajc.dynamics", "bessel_j_row", "specfun.bessel_j_row"),
    ("lambdajc.dynamics", "sideband_cutoff", "specfun.sideband_cutoff"),
    ("lambdajc.dynamics", "evolve", "dynamics.evolve"),
    ("lambdajc.dynamics", "assemble_terms", "dynamics.assemble_terms"),
)
#: Per-layer metric -> unit, in report order.  Metrics a workload does not
#: exercise read 0.
PER_LAYER = {
    "spectrum.cells": "count",
    "spectrum.blocks": "count",
    "spectrum.kernel_ns_per_block": "ns",
    "spectrum.row_self_s": "s",
    "spectrum.self_s": "s",
    "effective.self_s": "s",
    "effective.us_per_cell": "us",
    "specfun.calls": "count",
    "specfun.self_s": "s",
    "specfun.us_per_call": "us",
    "dynamics.substeps": "count",
    "dynamics.us_per_substep": "us",
    "dynamics.evolve_s.drive-rotated": "s",
    "dynamics.evolve_s.dominant-sideband": "s",
    "dynamics.assemble_ms": "ms",
    "dynamics.self_s": "s",
    "dynamics.norm_drift": "ratio",
    "cli.csv_rows": "count",
    "cli.csv_bytes": "B",
    "cli.csv_ns_per_row": "ns",
    "cli.self_s": "s",
    "cli.scaling_eff": "ratio",
    "cli.cache_hit_ms": "ms",
    "config.parse_us": "us",
    "trace.run_s": "s",
    "trace.overhead": "ratio",
}

#: Counted, not spanned: one call per exponential, two per CF4 substep.
EXPONENTIAL = ("lambdajc.dynamics", "_expm_apply")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.exponentials = 0
        self.missing: list[str] = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self.stack
        describe = _EXTRA.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                extra = describe(args, kwargs) if describe else None
                spans[idx] = (name, start, end, parent, extra)
        return traced

    def install(self):
        for module, attr, name in TARGETS:
            mod = importlib.import_module(module)
            if not hasattr(mod, attr):
                self.missing.append(f"{module}.{attr}")
                continue
            setattr(mod, attr, self._wrap(getattr(mod, attr), name))
        mod = importlib.import_module(EXPONENTIAL[0])
        if hasattr(mod, EXPONENTIAL[1]):
            inner = getattr(mod, EXPONENTIAL[1])

            def counted(*args, **kwargs):
                self.exponentials += 1
                return inner(*args, **kwargs)
            setattr(mod, EXPONENTIAL[1], counted)
        else:
            self.missing.append(".".join(EXPONENTIAL))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [s for s in self.spans if s is not None],
                       "exponentials": self.exponentials,
                       "missing": self.missing}, fh)


def summarize(trace: dict, csv_sizes: dict[str, tuple[int, int]]) -> dict:
    """Per-layer metrics from a dumped trace.

    csv_sizes maps each written CSV path to (data rows, bytes), measured
    after the run so the wrapper does no I/O of its own.
    """
    spans = trace["spans"]
    total = defaultdict(int)
    count = defaultdict(int)
    work = defaultdict(int)
    self_ns = defaultdict(int)
    evolve = defaultdict(int)
    csv_rows = csv_bytes = 0
    children_ns = defaultdict(int)
    for idx, (name, start, end, parent, extra) in enumerate(spans):
        if parent >= 0:
            children_ns[parent] += end - start
    for idx, (name, start, end, parent, extra) in enumerate(spans):
        dur = end - start
        total[name] += dur
        count[name] += 1
        self_ns[name] += dur - children_ns[idx]
        if isinstance(extra, int):
            work[name] += extra
        if name == "dynamics.evolve":
            evolve[extra] += dur
        if name == "cli.write_csv" and extra in csv_sizes:
            rows, size = csv_sizes[extra]
            csv_rows += rows
            csv_bytes += size

    def layer_self(layer):
        return sum(v for k, v in self_ns.items() if k.startswith(layer + ".")) / 1e9

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    cells = work["spectrum.compute_grid_row"]
    blocks = work["spectrum.ground_energy_table"]
    specfun_calls = sum(v for k, v in count.items() if k.startswith("specfun."))
    substeps = trace["exponentials"] // 2
    return {
        "spectrum.cells": cells,
        "spectrum.blocks": blocks,
        "spectrum.kernel_ns_per_block": ratio(total["spectrum.ground_energy_table"], blocks),
        "spectrum.row_self_s": self_ns["spectrum.compute_grid_row"] / 1e9,
        "spectrum.self_s": layer_self("spectrum"),
        "effective.self_s": layer_self("effective"),
        "effective.us_per_cell": ratio(layer_self("effective"), cells, 1e6),
        "specfun.calls": specfun_calls,
        "specfun.self_s": layer_self("specfun"),
        "specfun.us_per_call": ratio(layer_self("specfun"), specfun_calls, 1e6),
        "dynamics.substeps": substeps,
        "dynamics.us_per_substep": ratio(total["dynamics.evolve"], substeps, 1e-3),
        "dynamics.evolve_s.drive-rotated": evolve["drive-rotated"] / 1e9,
        "dynamics.evolve_s.dominant-sideband": evolve["dominant-sideband"] / 1e9,
        "dynamics.assemble_ms": total["dynamics.assemble_terms"] / 1e6,
        "dynamics.self_s": layer_self("dynamics"),
        "cli.csv_rows": csv_rows,
        "cli.csv_bytes": csv_bytes,
        "cli.csv_ns_per_row": ratio(total["cli.write_csv"], csv_rows),
        "cli.self_s": self_ns["cli.run_command"] / 1e9,
        "config.parse_us": (total["config.parse_config"] + total["config.config_hash"]) / 1e3,
    }
