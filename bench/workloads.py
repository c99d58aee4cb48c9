"""Seeded workload generator.

Each workload is a CLI command plus a config document built from the seed.
The seed perturbs model parameters only within ranges that keep the amount
of work fixed: the cell count and block window of the grids, and for the
echo the drive (theta, omega_D) and the mode frequencies that set the
propagator's step, so the substep count never moves.  The shapes mirror the
sample configs shipped with the package, which the benchmark never reads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    workers: int


#: Why each one is here: BENCHMARK.json and NOTES.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("static-grid", "static-phase", 1),
        Workload("driven-grid", "driven-phase", 1),
        Workload("echo-rotated", "echo", 1),
        Workload("static-grid-w2", "static-phase", 2),
    )
}

#: Grid shapes and echo horizon and sample count of the measured runs, and of
#: the smoke runs the self-test makes.  A measured run takes about a second on
#: a 2-vCPU Xeon, so that a 30 s window holds 10-15 of them (NOTES.md,
#: "Steadiness"); the pooled grid is larger so that starting the pool is not
#: most of its run.
FULL = {"static": (61, 61), "static-w2": (101, 101), "driven": (75, 41), "echo": (50.0, 500)}
TINY = {"static": (9, 7), "static-w2": (9, 7), "driven": (7, 5), "echo": (2.0, 21)}


def _jitter(rng: random.Random, value: float, rel: float) -> float:
    return value * (1.0 + rng.uniform(-rel, rel))


def make_config(workload: str, seed: int, tiny: bool = False) -> dict:
    """The config document for one workload and seed."""
    sizes = TINY if tiny else FULL
    rng = random.Random(f"{workload}:{seed}")
    kind = WORKLOADS[workload].command
    if kind == "static-phase":
        n1, n2 = sizes["static-w2" if WORKLOADS[workload].workers > 1 else "static"]
        model = {"omega1": _jitter(rng, 0.5, 0.05), "omega2": _jitter(rng, 0.25, 0.05),
                 "Omega1": _jitter(rng, 1.25, 0.05), "Omega2": _jitter(rng, 1.0, 0.05)}
        return {
            "model": model,
            "truncation": {"block_window": 8},
            "sweep": [
                {"name": "g1", "start": 0.0, "points": n1, "parameter": "g1",
                 "stop": _jitter(rng, 4.5 * model["Omega1"], 0.05)},
                {"name": "g2", "start": 0.0, "points": n2, "parameter": "g2",
                 "stop": _jitter(rng, 4.5 * model["Omega2"], 0.05)},
            ],
            "output": "out",
        }
    if kind == "driven-phase":
        n1, n2 = sizes["driven"]
        # omega_D within 1% of 0.18 keeps the sideband orders n0 = -14 and
        # m0 = -11 over the whole grid, so the Bessel work does not move.
        return {
            "model": {"g1": _jitter(rng, 0.05, 0.1), "g2": _jitter(rng, 0.05, 0.1)},
            "drive": {"amplitude": 0.036, "frequency": _jitter(rng, 0.18, 0.01)},
            "truncation": {"block_window": 5},
            "sweep": [
                {"name": "A_D", "start": 0.0, "points": n1, "parameter": "A_D",
                 "stop": _jitter(rng, 0.45, 0.05)},
                {"name": "Omega2", "start": _jitter(rng, 0.985, 0.002),
                 "stop": 1.0, "points": n2, "parameter": "Omega2"},
            ],
            "output": "out",
        }
    t_max, samples = sizes["echo"]
    # Only the couplings move: the phases, hence the step and the sideband
    # count, depend on the frequencies and the drive, which stay fixed.
    return {
        "model": {"g1": _jitter(rng, 0.05, 0.05), "g2": _jitter(rng, 0.05, 0.05)},
        "drive": {"amplitude": 0.036, "frequency": 0.18},
        "truncation": {"n_c1": 6, "n_c2": 6},
        "dynamics": {"t_max": t_max, "samples": samples, "initial_state": "2",
                     "pair": "rotated"},
        "output": "out",
    }


def cli_args(workload: str, config_path: str, out_dir: str) -> list[str]:
    """Arguments for lambdajc.cli.main."""
    w = WORKLOADS[workload]
    return [w.command, "--config", config_path, "--out", out_dir,
            "--workers", str(w.workers)]
