import csv
import dataclasses
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from lambdajc import cli, spectrum
from lambdajc.cli import main, run_command, worker_count, write_csv
from lambdajc.config import (
    AxisConfig,
    ConfigError,
    DynamicsConfig,
    RunConfig,
    TruncationConfig,
    config_hash,
    parse_config,
)
from lambdajc.dynamics import ECHO_PAIRS, EchoResult, EvolutionResult
from lambdajc.params import DriveParams, SystemParams

TINY_STATIC = {
    "sweep": [
        {"name": "g1", "start": 0.0, "stop": 4.0, "points": 9, "parameter": "g1"},
        {"name": "g2", "start": 0.0, "stop": 3.0, "points": 7, "parameter": "g2"},
    ],
}

TINY_DRIVEN = {
    "drive": {"amplitude": 0.09, "frequency": 0.18},
    "sweep": [
        {"name": "A_D", "start": 0.01, "stop": 0.3, "points": 5, "parameter": "A_D"},
        {"name": "Omega2", "start": 0.985, "stop": 1.0, "points": 4,
         "parameter": "Omega2"},
    ],
}

TINY_EFFECTIVE = {
    "sweep": [{"name": "omega_D", "start": 0.1, "stop": 2.0, "points": 5,
               "parameter": "omega_D"}],
}

TINY_ECHO = {"truncation": {"n_c1": 3, "n_c2": 3},
             "dynamics": {"t_max": 10.0, "samples": 20}}

#: A drive and a coupling grid on which static and driven rows differ.
DRIVEN_G1G2 = {
    "drive": {"amplitude": 0.036, "frequency": 0.18},
    "sweep": [
        {"name": "g1", "start": 0.0, "stop": 0.5, "points": 5, "parameter": "g1"},
        {"name": "g2", "start": 0.0, "stop": 0.5, "points": 4, "parameter": "g2"},
    ],
}


def _interrupt(command, cfg, out_dir, after):
    """Run command into out_dir and interrupt it, as Ctrl-C would, once the
    runner has computed `after` chunks."""
    real = cli._chunk_entry
    made = 0

    def entry(*args):
        nonlocal made
        if made == after:
            raise KeyboardInterrupt
        made += 1
        return real(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_chunk_entry", entry)
        with pytest.raises(KeyboardInterrupt):
            run_command(command, cfg, out_dir=out_dir)


#: Points per chunk of the effective-params sweeps below, whose point counts
#: are written for chunks of this size.
EFFECTIVE_TEST_CHUNK = 256


def _chunk_by_rows(monkeypatch, doc):
    """Cut the grid sweep of doc into chunks of one axis-1 row each, by
    setting CHUNK_CELLS to its row length, and an effective-params sweep
    into chunks of EFFECTIVE_TEST_CHUNK points."""
    monkeypatch.setattr(spectrum, "CHUNK_CELLS", doc["sweep"][1]["points"]
                        if len(doc["sweep"]) == 2 else EFFECTIVE_TEST_CHUNK)


def _count_chunks(monkeypatch) -> list[int]:
    """The index of each grid chunk the runner computes, in call order."""
    chunks = []
    real = cli.compute_grid_cells

    def counted(*args):
        chunks.append(args[-2] // spectrum.CHUNK_CELLS)
        return real(*args)
    monkeypatch.setattr(cli, "compute_grid_cells", counted)
    return chunks


def _run_key(command, cfg) -> str:
    """The cache key of command's run of cfg, recomputed from its plan."""
    return cli.run_key(command, cli._plan(command, cfg)[0])


def _whole_chunks(command, cfg, out_dir) -> int:
    """How many whole chunks head the partial CSV in out_dir."""
    sweep = cli._sweep(command, cfg, cli._resolve_axes(command, cfg))
    counts, _ = cli._resume(out_dir / f".{cli._CSV_NAME[command]}.partial", sweep)
    return len(counts)


class TestParseConfig:
    def test_empty_document_gives_defaults(self):
        cfg = parse_config({})
        assert cfg.model == SystemParams(omega1=0.5, omega2=0.25,
                                         Omega1=1.25, Omega2=1.0,
                                         g1=0.05, g2=0.05)
        assert cfg.drive == DriveParams()
        assert cfg.truncation.n_c1 == 6 and cfg.truncation.n_c2 == 6
        assert spectrum.block_window_for(False, cfg.truncation.block_window) == 8
        assert spectrum.block_window_for(True, cfg.truncation.block_window) == 5
        assert cfg.dynamics.t_max == 200.0
        assert cfg.dynamics.samples == 2000

    def test_parses_json_text(self):
        cfg = parse_config('{"model": {"g1": 0.1}}')
        assert cfg.model.g1 == 0.1

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="omega3"):
            parse_config({"model": {"omega3": 1.0}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="modle"):
            parse_config({"modle": {}})

    def test_constraint_violation_names_field(self):
        with pytest.raises(ConfigError, match="Omega1 > 0"):
            parse_config({"model": {"Omega1": -1.0}})

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{not json")

    def test_bad_pair(self):
        with pytest.raises(ConfigError, match="pair") as info:
            parse_config({"dynamics": {"pair": "both"}})
        # the message names every pair the echo takes
        assert all(repr(pair) in str(info.value) for pair in ECHO_PAIRS)

    def test_bad_initial_state(self):
        with pytest.raises(ConfigError, match="initial_state"):
            parse_config({"dynamics": {"initial_state": "4"}})

    def test_explicit_block_window_respected(self):
        cfg = parse_config({"truncation": {"block_window": 11}})
        assert spectrum.block_window_for(True, cfg.truncation.block_window) == 11

    @pytest.mark.parametrize("doc, field", [
        ({"sweep": [{"start": 0, "stop": 1, "points": 0, "parameter": "g1"}]},
         "points must be >= 1"),
        ({"truncation": {"n_c1": 0}}, "n_c1"),
        ({"truncation": {"block_window": 0}}, "block_window must be >= 1"),
        ({"dynamics": {"t_max": 0}}, "t_max must be > 0"),
        ({"dynamics": {"samples": 1}}, "samples must be >= 2"),
        ({"output": ""}, "output must be a non-empty"),
        ({"model": {"g1": "0.1"}}, "model.g1 must be a number"),
        ({"model": {"g1": float("inf")}}, "model.g1 must be finite"),
        ({"truncation": {"n_c1": 1.5}}, "truncation.n_c1 must be an integer"),
        ({"dynamics": 3}, "dynamics must be an object"),
        ({"drive": None}, "drive must be an object"),
        ({"sweep": [{"start": 0, "stop": 1, "points": 2}]},
         "sweep.0. is missing required key 'parameter'"),
        ([], "config root must be an object, got list"),
        ({"sweep": 3}, "sweep must be a list of axis objects"),
        (b'{"model": {}}\xff', "config is not well-formed JSON: 'utf-8' codec"),
        # the integrator picks the echo's step, and --workers the pool size
        ({"dynamics": {"dt_max": 0.1}}, "unknown key 'dt_max' in dynamics"),
        ({"workers": 2}, "unknown key 'workers' in config"),
    ], ids=["points-0", "n_c1-0", "block_window-0", "t_max-0",
            "samples-1", "empty-output", "string-number",
            "inf-number", "fractional-int", "non-object-section", "null-drive",
            "axis-no-parameter",
            "list-root", "sweep-number", "non-utf8-bytes", "dt_max-unknown",
            "workers-unknown"])
    def test_rejection_names_the_field(self, doc, field):
        with pytest.raises(ConfigError, match=field):
            parse_config(doc)

    def test_null_where_the_field_allows_none(self):
        cfg = parse_config('{"truncation": {"block_window": null}, '
                           '"sweep": [{"start": 0, "stop": 1, "points": 2, '
                           '"parameter": "g1", "name": null}]}')
        assert cfg.truncation.block_window is None
        assert (spectrum.block_window_for(False, cfg.truncation.block_window)
                == spectrum.STATIC_BLOCK_WINDOW)
        assert cfg.sweep[0].name == "g1"

    def test_null_root_gives_defaults(self):
        assert parse_config(None) == parse_config("null") == parse_config({})

    def test_lone_axis_object_is_one_axis_list(self):
        axis = {"start": 0.0, "stop": 1.0, "points": 3, "parameter": "omega_D"}
        assert parse_config({"sweep": axis}).sweep == parse_config({"sweep": [axis]}).sweep
        assert len(parse_config({"sweep": axis}).sweep) == 1


class TestConfigHash:
    def test_identical_configs_identical_hash(self):
        assert config_hash(parse_config({})) == config_hash(parse_config({}))
        assert config_hash(parse_config(TINY_STATIC)) == config_hash(
            parse_config(json.loads(json.dumps(TINY_STATIC))))

    def test_numeric_normalization(self):
        a = parse_config({"model": {"g1": 1}})
        b = parse_config({"model": {"g1": 1.0}})
        assert config_hash(a) == config_hash(b)

    def test_missing_drive_is_the_default_drive(self):
        # one job, one cache key, however its default drive is spelled
        default = dataclasses.asdict(DriveParams())
        assert len({config_hash(parse_config(doc))
                    for doc in ({}, {"drive": {}}, {"drive": default})}) == 1

    def test_any_field_change_changes_hash(self):
        base = {
            "model": {"omega1": 0.5, "g1": 0.05},
            "drive": {"amplitude": 0.09, "frequency": 0.18},
            "truncation": {"n_c1": 6, "block_window": 5},
            "sweep": [{"name": "a", "start": 0.0, "stop": 1.0, "points": 4,
                       "parameter": "g1"}],
            "dynamics": {"t_max": 100.0, "samples": 500, "initial_state": "2",
                         "pair": "rotated"},
            "output": "runs",
        }
        h0 = config_hash(parse_config(base))
        mutations = [
            ("model", "omega1", 0.55),
            ("model", "g1", 0.06),
            ("drive", "amplitude", 0.1),
            ("drive", "frequency", 0.2),
            ("truncation", "n_c1", 7),
            ("truncation", "block_window", 6),
            ("dynamics", "t_max", 101.0),
            ("dynamics", "samples", 501),
            ("dynamics", "initial_state", "1-2"),
            ("dynamics", "pair", "effective"),
        ]
        for section, key, value in mutations:
            doc = json.loads(json.dumps(base))
            if key is None:
                doc[section] = value
            else:
                doc[section][key] = value
            assert config_hash(parse_config(doc)) != h0, (section, key)
        doc = json.loads(json.dumps(base))
        doc["sweep"][0]["points"] = 5
        assert config_hash(parse_config(doc)) != h0

    @pytest.mark.parametrize("doc, digest", [
        ({}, "43e2e0ec4b710ac6"),
        ({"model": {"g1": 0.05, "g2": 0.05},
          "drive": {"amplitude": 0.036, "frequency": 0.18},
          "truncation": {"block_window": 5},
          "sweep": [
              {"name": "A_D", "start": 0.0, "stop": 0.45, "points": 151,
               "parameter": "A_D"},
              {"name": "Omega2", "start": 0.985, "stop": 1.0, "points": 61,
               "parameter": "Omega2"}],
          "output": "runs/driven"}, "785730c846d5d4c9"),
        ({"model": {"g1": 0.05, "g2": 0.05},
          "drive": {"amplitude": 0.036, "frequency": 0.18},
          "truncation": {"n_c1": 6, "n_c2": 6},
          "dynamics": {"t_max": 200.0, "samples": 2000, "initial_state": "2",
                       "pair": "rotated"},
          "output": "runs/echo"}, "43e2e0ec4b710ac6"),
        ({"drive": {"amplitude": 0.036, "frequency": 0.18},
          "sweep": [{"name": "omega_D", "start": 0.05, "stop": 6.0,
                     "points": 2400, "parameter": "omega_D"}],
          "output": "runs/effective"}, "8dfaab12b0e46f7a"),
        ({"model": {"omega1": 0.5, "omega2": 0.25, "Omega1": 1.25, "Omega2": 1.0},
          "truncation": {"block_window": 8},
          "sweep": [
              {"name": "g1", "start": 0.0, "stop": 5.625, "points": 301,
               "parameter": "g1"},
              {"name": "g2", "start": 0.0, "stop": 4.5, "points": 301,
               "parameter": "g2"}],
          "output": "runs/static"}, "44db58eab4510442"),
    ], ids=["empty", "driven", "echo", "effective", "static"])
    def test_hash_is_pinned(self, doc, digest):
        # a cache key that drifts silently recomputes every stored run
        assert config_hash(parse_config(doc)) == digest


#: The unperturbed config of each command in the run-key soundness test:
#: a run of a few cells.
TINY_RUNS = {
    "static-phase": {"sweep": [
        {"name": "g1", "start": 0.0, "stop": 4.0, "points": 3, "parameter": "g1"},
        {"name": "g2", "start": 0.0, "stop": 3.0, "points": 2, "parameter": "g2"}]},
    "driven-phase": {"drive": {"amplitude": 0.09, "frequency": 0.18}, "sweep": [
        {"name": "A_D", "start": 0.01, "stop": 0.3, "points": 3, "parameter": "A_D"},
        {"name": "Omega2", "start": 0.985, "stop": 1.0, "points": 2,
         "parameter": "Omega2"}]},
    "effective-params": {"sweep": [
        {"name": "omega_D", "start": 0.1, "stop": 2.0, "points": 3,
         "parameter": "omega_D"}]},
    "echo": {"truncation": {"n_c1": 2, "n_c2": 2},
             "dynamics": {"t_max": 2.0, "samples": 3}},
}

#: Other values of each field of each object section: none is a TINY_RUNS
#: value, and block_window also takes the static (8) and driven (5)
#: defaults spelled out.
SECTION_CHANGES = {
    "model": {"omega1": [0.55], "omega2": [0.3], "Omega1": [1.3], "Omega2": [1.05],
              "g1": [0.06], "g2": [0.07]},
    "drive": {"amplitude": [0.04], "frequency": [0.2]},
    "truncation": {"n_c1": [3], "n_c2": [3], "block_window": [4, 5, 8]},
    "dynamics": {"t_max": [3.0], "samples": [4], "initial_state": ["1-2"],
                 "pair": ["effective"]},
}
#: Another valid parameter for each TINY_RUNS axis.
OTHER_PARAMETER = {"g1": "omega1", "g2": "omega2", "A_D": "g1", "Omega2": "Omega1",
                   "omega_D": "A_D"}
#: Another value of each field of a sweep axis, from the axis.
AXIS_CHANGES = {
    "start": lambda ax: ax["start"] + (ax["stop"] - ax["start"]) / 4,
    "stop": lambda ax: ax["stop"] - (ax["stop"] - ax["start"]) / 4,
    "points": lambda ax: ax["points"] + 1,
    "parameter": lambda ax: OTHER_PARAMETER[ax["parameter"]],
    "name": lambda ax: "renamed",
}
#: The config sections each command computes from.
SECTIONS_READ = {
    "static-phase": {"model", "truncation", "sweep"},
    "driven-phase": {"model", "drive", "truncation", "sweep"},
    "effective-params": {"model", "drive", "sweep"},
    "echo": {"model", "drive", "truncation", "dynamics"},
}


def _set(doc: dict, path: tuple, value):
    """doc with the field at path (keys and list indices) set to value."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for key in parents:
        target = target.setdefault(key, {}) if isinstance(target, dict) else target[key]
    target[last] = value
    return doc


def _perturbed(base: dict):
    """(section, label, config) for each leaf field of the config and each
    other value of it: base with that one field changed.  echo takes no
    sweep axis, so its config has no axis field."""
    for section, changes in SECTION_CHANGES.items():
        for key, values in changes.items():
            for value in values:
                yield section, f"{section}.{key}={value}", _set(base, (section, key), value)
    for i, axis in enumerate(base.get("sweep", [])):
        for key, change in AXIS_CHANGES.items():
            yield "sweep", f"sweep[{i}].{key}", _set(base, ("sweep", i, key), change(axis))
    yield "output", "output", _set(base, ("output",), "elsewhere")


class TestRunKey:
    """The cache key of a run is the digest of what it computes from."""

    def test_every_leaf_field_is_perturbed(self):
        # a new config field fails here until the soundness test covers it
        sections = {"model": SystemParams, "drive": DriveParams,
                    "truncation": TruncationConfig, "dynamics": DynamicsConfig}
        for section, cls in sections.items():
            assert set(SECTION_CHANGES[section]) == {f.name for f in dataclasses.fields(cls)}
        assert set(AXIS_CHANGES) == {f.name for f in dataclasses.fields(AxisConfig)}
        assert ({f.name for f in dataclasses.fields(RunConfig)}
                == set(sections) | {"sweep", "output"})

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_key_moves_or_the_bytes_stay(self, tmp_path, command):
        """A config with one leaf field changed gets another run key, or
        writes the CSV and manifest of the unchanged config byte for byte;
        and some field of each section the command reads moves the key."""
        names = (cli._CSV_NAME[command], "manifest.json")

        def run(doc, out_dir):
            assert run_command(command, parse_config(doc), out_dir=out_dir) == 0
            return [(out_dir / name).read_bytes() for name in names]

        base = run(TINY_RUNS[command], tmp_path / "base")
        key = json.loads(base[1])["config_hash"]
        moved = set()
        for n, (section, label, doc) in enumerate(_perturbed(TINY_RUNS[command])):
            written = run(doc, tmp_path / str(n))
            if json.loads(written[1])["config_hash"] != key:
                moved.add(section)
            else:
                assert written == base, label
        assert moved == SECTIONS_READ[command]

    @pytest.mark.parametrize("command, config, key", [
        ("static-phase", "static_phase.json", "1b6cace7ec80ab56"),
        ("driven-phase", "driven_phase.json", "b21a637f9ad27b29"),
        ("effective-params", "effective_params.json", "391277d6248d88ce"),
        ("echo", "echo.json", "c6c4f314b9322122"),
    ])
    def test_sample_run_keys_are_pinned(self, command, config, key):
        # a run key that drifts silently recomputes every stored run
        assert _run_key(command, parse_config((SAMPLES / config).read_text())) == key

    def test_key_does_not_depend_on_the_hash_seed(self):
        script = ("import json, sys; from lambdajc import cli, config\n"
                  "docs = json.loads(sys.argv[1])\n"
                  "print(json.dumps({c: cli.run_key(c, cli._plan(c, config.parse_config(d))[0])"
                  " for c, d in docs.items()}))")
        docs = json.dumps(TINY_RUNS)
        keys = []
        for seed in ("0", "4242"):
            proc = subprocess.run(
                [sys.executable, "-c", script, docs], capture_output=True, text=True,
                timeout=120, env={**os.environ, "PYTHONHASHSEED": seed,
                                  "PYTHONPATH": str(Path(__file__).parent.parent / "src")})
            assert proc.returncode == 0, proc.stderr
            keys.append(json.loads(proc.stdout))
        assert keys[0] == keys[1] == {c: _run_key(c, parse_config(d))
                                      for c, d in TINY_RUNS.items()}
        assert len(set(keys[0].values())) == len(cli.COMMANDS)


class TestWriters:
    def test_grid_csv_shape(self, tmp_path):
        cfg = parse_config({
            "truncation": {"block_window": 4},
            "sweep": [
                {"name": "g1", "start": 0.0, "stop": 1.0, "points": 2, "parameter": "g1"},
                {"name": "g2", "start": 0.0, "stop": 1.0, "points": 2, "parameter": "g2"},
            ],
        })
        assert run_command("static-phase", cfg, out_dir=tmp_path) == 0
        lines = (tmp_path / "grid.csv").read_text().splitlines()
        assert len(lines) == 5
        assert lines[0].split(",")[0] == "axis1_name"
        categories = {line.split(",")[7] for line in lines[1:]}
        assert categories <= {"normal", "y1", "y2", "mixed"}

    def test_echo_csv_shape(self, tmp_path, monkeypatch):
        branch = EvolutionResult(
            times=np.array([0.0, 1.0, 2.0]), states=np.zeros((3, 1)),
            norms=np.ones(3), leakage_series=np.zeros(3), norm_drift=0.0,
            leakage=0.0)
        echo = EchoResult(fidelity=np.array([1.0, 0.999, 0.998]),
                          a=branch, b=branch)
        monkeypatch.setattr(cli, "loschmidt_echo", lambda *args, **kwargs: echo)
        cfg = parse_config({"truncation": {"n_c1": 2, "n_c2": 2}})
        assert run_command("echo", cfg, out_dir=tmp_path) == 0
        path = tmp_path / "echo.csv"
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == "t,fidelity,norm_a,norm_b,leakage"
        times = [float(line.split(",")[0]) for line in lines[1:]]
        assert times == sorted(times) and len(set(times)) == 3

    def test_float_round_trip(self, tmp_path):
        value = 0.1 + 0.2 / 7.0
        path = tmp_path / "x.csv"
        write_csv(path, ("v",), [cli._chunk_text((value,))])
        back = float(path.read_text().splitlines()[1])
        assert back == value


class TestRunCommand:
    def test_static_phase_writes_outputs(self, tmp_path, capsys):
        cfg = parse_config(TINY_STATIC)
        code = run_command("static-phase", cfg, out_dir=tmp_path)
        assert code == 0
        grid = (tmp_path / "grid.csv").read_text().splitlines()
        assert len(grid) == 1 + 9 * 7
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["cells_total"] == manifest["cells_done"] == 63
        assert manifest["config_hash"] == _run_key("static-phase", cfg)
        assert {p.name for p in tmp_path.iterdir()} == {"grid.csv", "manifest.json"}
        capsys.readouterr()
        assert run_command("static-phase", cfg, out_dir=tmp_path) == 0
        assert "cache hit" in capsys.readouterr().out

    @pytest.mark.parametrize("scale, g1, g2", [
        # the static sample's model written in a unit 2^100 times as large
        (2.0**-100, (4.7e-120, 9.4e-120, 3), (3.57e-75, 7.1e-75, 3)),
        # couplings whose h12^2 + h13^2 is subnormal
        (1.0, (3.5556433873827877e-162, 3.6e-162, 2), (0.0, 1.6e-162, 3)),
    ], ids=["unit-2^-100", "subnormal-coupling-norm"])
    def test_tiny_couplings_keep_the_gap(self, tmp_path, scale, g1, g2):
        model = {"omega1": 0.5, "omega2": 0.25, "Omega1": 1.25, "Omega2": 1.0}
        doc = {"model": {k: v * scale for k, v in model.items()},
               "truncation": {"block_window": 8},
               "sweep": [{"name": name, "parameter": name, "start": start * scale,
                          "stop": stop * scale, "points": points}
                         for name, (start, stop, points) in (("g1", g1), ("g2", g2))]}
        assert run_command("static-phase", parse_config(doc), out_dir=tmp_path) == 0
        with open(tmp_path / "grid.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == g1[2] * g2[2]
        # the gap from block (0, 0) at -0.25 to (0, 1) at 0.75, in the unit
        assert [float(row["gap"]) for row in rows] == [scale] * len(rows)

    def test_cache_hit_and_byte_identical(self, tmp_path, capsys):
        cfg = parse_config(TINY_STATIC)
        assert run_command("static-phase", cfg, out_dir=tmp_path) == 0
        first = (tmp_path / "grid.csv").read_bytes()
        mtime = (tmp_path / "grid.csv").stat().st_mtime_ns
        capsys.readouterr()
        assert run_command("static-phase", cfg, out_dir=tmp_path) == 0
        out = capsys.readouterr().out
        assert "cache hit" in out
        assert (tmp_path / "grid.csv").read_bytes() == first
        assert (tmp_path / "grid.csv").stat().st_mtime_ns == mtime

    def test_missing_drive_section_is_a_cache_hit(self, tmp_path, capsys):
        doc = json.loads((SAMPLES / "effective_params.json").read_text())
        assert run_command("effective-params", parse_config(doc), out_dir=tmp_path) == 0
        del doc["drive"]
        capsys.readouterr()
        assert run_command("effective-params", parse_config(doc), out_dir=tmp_path) == 0
        assert "cache hit" in capsys.readouterr().out

    def test_truncated_csv_is_recomputed(self, tmp_path, capsys):
        cfg = parse_config(TINY_STATIC)
        assert run_command("static-phase", cfg, out_dir=tmp_path) == 0
        path = tmp_path / "grid.csv"
        full = path.read_bytes()
        path.write_bytes(b"".join(full.splitlines(keepends=True)[:4]))
        capsys.readouterr()
        assert run_command("static-phase", cfg, out_dir=tmp_path) == 0
        assert "cache hit" not in capsys.readouterr().out
        assert len(path.read_text().splitlines()) == 1 + 9 * 7
        assert path.read_bytes() == full
        # the restored file is a cache hit again
        assert run_command("static-phase", cfg, out_dir=tmp_path) == 0
        assert "cache hit" in capsys.readouterr().out

    def test_failed_write_keeps_previous_csv(self, tmp_path, monkeypatch):
        _chunk_by_rows(monkeypatch, TINY_STATIC)
        cfg = parse_config(TINY_STATIC)
        assert run_command("static-phase", cfg, out_dir=tmp_path) == 0
        previous = (tmp_path / "grid.csv").read_bytes()
        real_write = cli.write_csv

        def failing_write(path, columns, texts):
            def five_then_failure():
                # a grid row per text: fail in the sixth row
                for count, text in enumerate(texts):
                    if count == 5:
                        raise RuntimeError("disk gone")
                    yield text
            return real_write(path, columns, five_then_failure())

        monkeypatch.setattr(cli, "write_csv", failing_write)
        doc = json.loads(json.dumps(TINY_STATIC))
        doc["model"] = {"g1": 0.06}
        with pytest.raises(RuntimeError, match="disk gone"):
            run_command("static-phase", parse_config(doc), out_dir=tmp_path)
        assert (tmp_path / "grid.csv").read_bytes() == previous
        assert {p.name for p in tmp_path.iterdir()} <= {
            "grid.csv", "manifest.json", ".grid.csv.partial"}

    # each changes a field the run does not compute from
    @pytest.mark.parametrize("command, doc, path, value", [
        ("static-phase", TINY_STATIC, ("output",), "elsewhere"),
        ("static-phase", TINY_STATIC, ("drive", "amplitude"), 0.04),
        ("static-phase", TINY_STATIC, ("dynamics", "t_max"), 100.0),
        ("static-phase", TINY_STATIC, ("truncation", "n_c1"), 7),
        ("driven-phase", TINY_DRIVEN, ("truncation", "n_c1"), 7),
        # null is the driven default window, 5
        ("driven-phase", TINY_DRIVEN, ("truncation", "block_window"), 5),
        ("effective-params", TINY_EFFECTIVE, ("truncation", "block_window"), 6),
        ("effective-params", TINY_EFFECTIVE, ("sweep", 0, "name"), "wD"),
        ("echo", TINY_ECHO, ("truncation", "block_window"), 6),
    ], ids=["static-output", "static-drive.amplitude", "static-dynamics.t_max",
            "static-truncation.n_c1", "driven-truncation.n_c1",
            "driven-truncation.block_window",
            "effective-truncation.block_window", "effective-sweep.name",
            "echo-truncation.block_window"])
    def test_inert_field_change_is_cache_hit(self, tmp_path, capsys, command, doc,
                                             path, value):
        csv_path = tmp_path / cli._CSV_NAME[command]
        assert run_command(command, parse_config(doc), out_dir=tmp_path) == 0
        first = csv_path.read_bytes()
        mtime = csv_path.stat().st_mtime_ns
        capsys.readouterr()
        assert run_command(command, parse_config(_set(doc, path, value)),
                           out_dir=tmp_path) == 0
        assert "cache hit" in capsys.readouterr().out
        assert csv_path.read_bytes() == first
        assert csv_path.stat().st_mtime_ns == mtime

    @pytest.mark.parametrize("text", ["[]", '"done"', "3"])
    def test_non_object_manifest_is_recomputed(self, tmp_path, capsys, text):
        cfg = parse_config(TINY_STATIC)
        (tmp_path / "manifest.json").write_text(text)
        assert run_command("static-phase", cfg, out_dir=tmp_path) == 0
        assert "cache hit" not in capsys.readouterr().out
        assert len((tmp_path / "grid.csv").read_text().splitlines()) == 1 + 9 * 7
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_hash"] == _run_key("static-phase", cfg)
        capsys.readouterr()
        assert run_command("static-phase", cfg, out_dir=tmp_path) == 0
        assert "cache hit" in capsys.readouterr().out

    def test_malformed_manifest_is_recomputed(self, tmp_path, capsys):
        cfg = parse_config(TINY_STATIC)
        assert run_command("static-phase", cfg, out_dir=tmp_path) == 0
        full = (tmp_path / "grid.csv").read_bytes()
        manifest = (tmp_path / "manifest.json").read_bytes()
        (tmp_path / "manifest.json").write_text('{"command": "static-phase",')
        capsys.readouterr()
        assert run_command("static-phase", cfg, out_dir=tmp_path) == 0
        assert "cache hit" not in capsys.readouterr().out
        assert (tmp_path / "grid.csv").read_bytes() == full
        assert (tmp_path / "manifest.json").read_bytes() == manifest

    def test_non_utf8_manifest_is_recomputed(self, tmp_path, capsys):
        cfg = parse_config(TINY_STATIC)
        assert run_command("static-phase", cfg, out_dir=tmp_path) == 0
        full = (tmp_path / "grid.csv").read_bytes()
        manifest = (tmp_path / "manifest.json").read_bytes()
        (tmp_path / "manifest.json").write_bytes(manifest.replace(b"{", b"{\xff", 1))
        # no readable manifest: the partial CSV is not this run's
        (tmp_path / ".grid.csv.partial").write_text("junk\n")
        capsys.readouterr()
        assert run_command("static-phase", cfg, out_dir=tmp_path) == 0
        out = capsys.readouterr().out
        assert "cache hit" not in out and "resumed" not in out
        assert (tmp_path / "grid.csv").read_bytes() == full
        assert (tmp_path / "manifest.json").read_bytes() == manifest
        assert not (tmp_path / ".grid.csv.partial").exists()

    def test_failed_rename_exits_2(self, tmp_path, capsys):
        # a directory in the CSV's place makes the final rename fail
        (tmp_path / "grid.csv").mkdir()
        assert run_command("static-phase", parse_config(TINY_STATIC), out_dir=tmp_path) == 2
        assert f"error: failed writing {tmp_path / 'grid.csv'}: " in capsys.readouterr().err
        assert (tmp_path / "grid.csv").is_dir()

    def test_deleted_csv_of_finished_run_is_recomputed(self, tmp_path, capsys):
        cfg = parse_config(TINY_STATIC)
        assert run_command("static-phase", cfg, out_dir=tmp_path) == 0
        full = (tmp_path / "grid.csv").read_bytes()
        (tmp_path / "grid.csv").unlink()
        capsys.readouterr()
        assert run_command("static-phase", cfg, out_dir=tmp_path) == 0
        assert "cache miss" in capsys.readouterr().out
        assert (tmp_path / "grid.csv").read_bytes() == full

    def test_unknown_command_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown command 'bogus'"):
            run_command("bogus", parse_config({}), out_dir=tmp_path)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("fields", [
        {"cells_total": "63", "cells_done": "63"},
        {"cells_total": None, "cells_done": None},
        {"deviations": "oops"},
        {"deviations": ["fine", 3]},
    ], ids=["text_cells", "null_cells", "text_deviations", "number_deviation"])
    def test_mistyped_manifest_is_recomputed(self, tmp_path, capsys, fields):
        cfg = parse_config(TINY_STATIC)
        assert run_command("static-phase", cfg, out_dir=tmp_path) == 0
        full = (tmp_path / "grid.csv").read_bytes()
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        path.write_text(json.dumps({**manifest, **fields}))
        capsys.readouterr()
        assert run_command("static-phase", cfg, out_dir=tmp_path, strict=True) == 0
        assert "cache hit" not in capsys.readouterr().out
        assert (tmp_path / "grid.csv").read_bytes() == full
        assert json.loads(path.read_text()) == manifest

    def test_config_change_invalidates_cache(self, tmp_path, capsys):
        cfg = parse_config(TINY_STATIC)
        run_command("static-phase", cfg, out_dir=tmp_path)
        doc = json.loads(json.dumps(TINY_STATIC))
        doc["model"] = {"g1": 0.06}
        cfg2 = parse_config(doc)
        capsys.readouterr()
        assert run_command("static-phase", cfg2, out_dir=tmp_path) == 0
        assert "cache hit" not in capsys.readouterr().out

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        cfg = parse_config(TINY_STATIC)
        run_command("static-phase", cfg, out_dir=tmp_path / "w1", workers=1)
        run_command("static-phase", cfg, out_dir=tmp_path / "w2", workers=2)
        assert ((tmp_path / "w1" / "grid.csv").read_bytes()
                == (tmp_path / "w2" / "grid.csv").read_bytes())

    def test_resume_after_interrupt(self, tmp_path, monkeypatch):
        _chunk_by_rows(monkeypatch, TINY_STATIC)
        cfg = parse_config(TINY_STATIC)
        run_command("static-phase", cfg, out_dir=tmp_path / "full")
        _interrupt("static-phase", cfg, tmp_path / "part", 3)
        assert _whole_chunks("static-phase", cfg, tmp_path / "part") == 3
        assert run_command("static-phase", cfg, out_dir=tmp_path / "part") == 0
        assert ((tmp_path / "part" / "grid.csv").read_bytes()
                == (tmp_path / "full" / "grid.csv").read_bytes())

    def test_interrupted_run_leaves_no_csv_and_no_temp_file(self, tmp_path,
                                                           monkeypatch):
        _chunk_by_rows(monkeypatch, TINY_STATIC)
        cfg = parse_config(TINY_STATIC)
        _interrupt("static-phase", cfg, tmp_path, 3)
        # the partial CSV is no .csv file: what the rerun resumes from
        assert {p.name for p in tmp_path.iterdir()} == {"manifest.json",
                                                        ".grid.csv.partial"}

    def test_interrupted_echo_says_so(self, tmp_path, monkeypatch):
        # as an interrupted sweep's, the manifest reads "interrupted" and
        # names no CSV digest, and no echo CSV, whole or partial, is left
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "loschmidt_echo", interrupt)
        cfg = parse_config({"truncation": {"n_c1": 2, "n_c2": 2}})
        with pytest.raises(KeyboardInterrupt):
            run_command("echo", cfg, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["deviations"] == ["interrupted"]
        assert manifest["csv_blake2b"] is None
        assert {p.name for p in tmp_path.iterdir()} == {"manifest.json"}

    def test_rows_stream_into_the_csv_as_they_land(self, tmp_path, monkeypatch):
        # a resumed run: rows 0-2 come from the partial CSV as one text, the
        # rest are computed
        _chunk_by_rows(monkeypatch, TINY_STATIC)
        cfg = parse_config(TINY_STATIC)
        _interrupt("static-phase", cfg, tmp_path / "part", 3)
        events = []
        real_cells, real_write = cli.compute_grid_cells, cli.write_csv

        def counted(*args):
            events.append(f"row {args[-2] // spectrum.CHUNK_CELLS}")
            return real_cells(*args)

        def watched(path, columns, texts):
            def each():
                for text in texts:
                    events.append("text")
                    yield text
            return real_write(path, columns, each())

        monkeypatch.setattr(cli, "compute_grid_cells", counted)
        monkeypatch.setattr(cli, "write_csv", watched)
        assert run_command("static-phase", cfg, out_dir=tmp_path / "part") == 0
        # each row's text is written before the next row is computed
        assert events == ["text"] + [e for i in range(3, 9)
                                     for e in (f"row {i}", "text")]
        monkeypatch.undo()
        assert run_command("static-phase", cfg, out_dir=tmp_path / "full") == 0
        assert ((tmp_path / "part" / "grid.csv").read_bytes()
                == (tmp_path / "full" / "grid.csv").read_bytes())

    def test_driven_resume_after_interrupt(self, tmp_path, monkeypatch):
        _chunk_by_rows(monkeypatch, TINY_DRIVEN)
        cfg = parse_config(TINY_DRIVEN)
        run_command("driven-phase", cfg, out_dir=tmp_path / "full")
        _interrupt("driven-phase", cfg, tmp_path / "part", 2)
        manifest = json.loads((tmp_path / "part" / "manifest.json").read_text())
        assert manifest["deviations"] == ["interrupted"]
        assert manifest["cells_done"] == 2 * 4
        assert _whole_chunks("driven-phase", cfg, tmp_path / "part") == 2
        assert run_command("driven-phase", cfg, out_dir=tmp_path / "part") == 0
        for name in ("grid.csv", "manifest.json"):
            assert ((tmp_path / "part" / name).read_bytes()
                    == (tmp_path / "full" / name).read_bytes())

    def test_command_change_invalidates_cache(self, tmp_path, capsys):
        cfg = parse_config(TINY_STATIC)
        assert run_command("driven-phase", cfg, out_dir=tmp_path / "fresh") == 0
        assert run_command("static-phase", cfg, out_dir=tmp_path / "out") == 0
        static = (tmp_path / "out" / "grid.csv").read_bytes()
        capsys.readouterr()
        assert run_command("driven-phase", cfg, out_dir=tmp_path / "out") == 0
        assert "cache hit" not in capsys.readouterr().out
        driven = (tmp_path / "out" / "grid.csv").read_bytes()
        assert driven == (tmp_path / "fresh" / "grid.csv").read_bytes()
        assert driven != static
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["command"] == "driven-phase"

    def test_interrupted_partial_not_resumed_by_other_command(self, tmp_path,
                                                             monkeypatch):
        _chunk_by_rows(monkeypatch, TINY_STATIC)
        cfg = parse_config(TINY_STATIC)
        run_command("driven-phase", cfg, out_dir=tmp_path / "fresh")
        _interrupt("static-phase", cfg, tmp_path / "part", 3)
        assert run_command("driven-phase", cfg, out_dir=tmp_path / "part") == 0
        assert ((tmp_path / "part" / "grid.csv").read_bytes()
                == (tmp_path / "fresh" / "grid.csv").read_bytes())

    @pytest.mark.parametrize("manifest", ["removed", "not_an_object"])
    def test_foreign_ledger_without_manifest_is_not_resumed(self, tmp_path,
                                                            monkeypatch, manifest):
        # neither the config hash nor the partial CSV holds the command, so
        # only the manifest tells a static-phase partial from a driven-phase one
        _chunk_by_rows(monkeypatch, DRIVEN_G1G2)
        cfg = parse_config(DRIVEN_G1G2)
        assert run_command("driven-phase", cfg, out_dir=tmp_path / "fresh") == 0
        _interrupt("static-phase", cfg, tmp_path / "part", 2)
        path = tmp_path / "part" / "manifest.json"
        if manifest == "removed":
            path.unlink()
        else:
            path.write_text("[]")
        assert run_command("driven-phase", cfg, out_dir=tmp_path / "part") == 0
        for name in ("grid.csv", "manifest.json"):
            assert ((tmp_path / "part" / name).read_bytes()
                    == (tmp_path / "fresh" / name).read_bytes())

    def test_torn_partial_tail_keeps_complete_lines(self, tmp_path, monkeypatch):
        _chunk_by_rows(monkeypatch, TINY_STATIC)
        cfg = parse_config(TINY_STATIC)
        run_command("static-phase", cfg, out_dir=tmp_path / "full")
        _interrupt("static-phase", cfg, tmp_path / "part", 3)
        # a record torn by the kill, "torn,5" without its line break, is no
        # line, so it ends the resumed part
        with open(tmp_path / "part" / ".grid.csv.partial", "a") as fh:
            fh.write("torn,5")
        assert _whole_chunks("static-phase", cfg, tmp_path / "part") == 3
        assert run_command("static-phase", cfg, out_dir=tmp_path / "part") == 0
        assert ((tmp_path / "part" / "grid.csv").read_bytes()
                == (tmp_path / "full" / "grid.csv").read_bytes())

    def test_driven_phase_records_deviations(self, tmp_path):
        cfg = parse_config(TINY_DRIVEN)
        assert run_command("driven-phase", cfg, out_dir=tmp_path) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        # the slow drive caps the ground label on the window edge
        assert any("window-capped" in d for d in manifest["deviations"])

    def test_driven_sample_shows_phase_structure(self, tmp_path):
        sample = Path(__file__).parent.parent / "configs" / "driven_phase.json"
        cfg = parse_config(sample.read_text())
        assert run_command("driven-phase", cfg, out_dir=tmp_path) == 0
        rows = [line.split(",") for line in
                (tmp_path / "grid.csv").read_text().splitlines()[1:]]
        assert {"y1", "y2"} <= {row[7] for row in rows}
        assert sum(row[9] == "true" for row in rows) < len(rows)

    def test_strict_mode_fails_on_deviations(self, tmp_path, capsys):
        cfg = parse_config(TINY_DRIVEN)
        assert run_command("driven-phase", cfg, out_dir=tmp_path,
                           strict=True) == 2
        # a cache hit fails on the deviations stored in the manifest
        capsys.readouterr()
        assert run_command("driven-phase", cfg, out_dir=tmp_path,
                           strict=True) == 2
        captured = capsys.readouterr()
        assert "cache hit" in captured.out
        assert "window-capped" in captured.out
        assert "--strict" in captured.err
        assert run_command("driven-phase", cfg, out_dir=tmp_path) == 0

    def test_effective_params_reports_hierarchy_failures(self, tmp_path, capsys):
        # the effective-params sample fails both audits in part: each is a
        # deviation line and a column, and each fails a --strict run
        cfg = parse_config((SAMPLES / "effective_params.json").read_text())
        assert run_command("effective-params", cfg, out_dir=tmp_path) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["deviations"] == [
            "911/2400 sweep points fail the counter-rotating validity rule",
            "1418/2400 sweep points fail the drive-hierarchy validity rule"]
        with open(tmp_path / "effective_params.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert sum(row["hierarchy_ok"] == "false" for row in rows) == 1418
        capsys.readouterr()
        assert run_command("effective-params", cfg, out_dir=tmp_path / "strict",
                           strict=True) == 2
        assert "1418/2400 sweep points fail the drive-hierarchy" in capsys.readouterr().out

    def test_effective_params_csv(self, tmp_path):
        cfg = parse_config({
            "drive": {"amplitude": 0.09, "frequency": 0.18},
            "sweep": [{"name": "omega_D", "start": 0.1, "stop": 1.0,
                       "points": 40, "parameter": "omega_D"}],
        })
        assert run_command("effective-params", cfg, out_dir=tmp_path) == 0
        lines = (tmp_path / "effective_params.csv").read_text().splitlines()
        assert lines[0].startswith("omega_D,theta,n0,m0,")
        assert len(lines) == 41
        first = lines[1].split(",")
        assert first[-1] in ("true", "false")

    def test_effective_params_worker_count_does_not_change_bytes(self, tmp_path,
                                                                 monkeypatch):
        doc = {
            "drive": {"amplitude": 0.09, "frequency": 0.18},
            "sweep": [{"name": "omega_D", "start": 0.1, "stop": 2.0,
                       "points": 600, "parameter": "omega_D"}],
        }
        _chunk_by_rows(monkeypatch, doc)
        cfg = parse_config(doc)
        assert 600 > 2 * spectrum.CHUNK_CELLS
        run_command("effective-params", cfg, out_dir=tmp_path / "w1", workers=1)
        run_command("effective-params", cfg, out_dir=tmp_path / "w2", workers=2)
        for name in ("effective_params.csv", "manifest.json"):
            assert ((tmp_path / "w1" / name).read_bytes()
                    == (tmp_path / "w2" / name).read_bytes())

    def test_echo_smoke(self, tmp_path):
        cfg = parse_config({
            "drive": {"amplitude": 0.036, "frequency": 0.18},
            "truncation": {"n_c1": 4, "n_c2": 4},
            "dynamics": {"t_max": 20.0, "samples": 60},
        })
        assert run_command("echo", cfg, out_dir=tmp_path) == 0
        lines = (tmp_path / "echo.csv").read_text().splitlines()
        assert len(lines) == 61
        fidelities = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(0.0 <= f <= 1.0 + 1e-12 for f in fidelities)
        assert fidelities[0] == pytest.approx(1.0, abs=1e-12)

    def test_effective_params_resume(self, tmp_path, monkeypatch):
        doc = {
            "drive": {"amplitude": 0.09, "frequency": 0.18},
            "sweep": [{"name": "omega_D", "start": 0.1, "stop": 2.0,
                       "points": 700, "parameter": "omega_D"}],
        }
        _chunk_by_rows(monkeypatch, doc)
        cfg = parse_config(doc)
        run_command("effective-params", cfg, out_dir=tmp_path / "full")
        _interrupt("effective-params", cfg, tmp_path / "part", 1)
        assert run_command("effective-params", cfg,
                           out_dir=tmp_path / "part") == 0
        assert ((tmp_path / "part" / "effective_params.csv").read_bytes()
                == (tmp_path / "full" / "effective_params.csv").read_bytes())

    def test_echo_cache_hit(self, tmp_path, capsys):
        cfg = parse_config({
            "drive": {"amplitude": 0.036, "frequency": 0.18},
            "truncation": {"n_c1": 3, "n_c2": 3},
            "dynamics": {"t_max": 10.0, "samples": 20},
        })
        assert run_command("echo", cfg, out_dir=tmp_path) == 0
        first = (tmp_path / "echo.csv").read_bytes()
        capsys.readouterr()
        assert run_command("echo", cfg, out_dir=tmp_path) == 0
        assert "cache hit" in capsys.readouterr().out
        assert (tmp_path / "echo.csv").read_bytes() == first

    def test_strict_echo_fails_on_truncation_leakage(self, tmp_path):
        cfg = parse_config({
            "model": {"g1": 0.5, "g2": 0.5},
            "drive": {"amplitude": 0.036, "frequency": 0.18},
            "truncation": {"n_c1": 2, "n_c2": 2},
            "dynamics": {"t_max": 40.0, "samples": 50, "initial_state": "2+3",
                         "pair": "effective"},
        })
        assert run_command("echo", cfg, out_dir=tmp_path / "lenient") == 0
        assert run_command("echo", cfg, out_dir=tmp_path / "strict",
                           strict=True) == 2

    def test_unrepresentable_cutoff_is_config_error(self, tmp_path, capsys):
        # the coherent factors leak 5e-9 past a single-photon cutoff, above
        # the 1e-12 representation rule: refused before anything is written
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"truncation": {"n_c1": 1, "n_c2": 1},
                                        "dynamics": {"t_max": 5.0, "samples": 10}}))
        out = tmp_path / "out"
        assert main(["echo", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error: ")
        assert "cutoff" in err[0]
        assert not out.exists()

    def test_echo_dt_max_past_sampling_bound_is_config_error(self, tmp_path,
                                                             capsys):
        # the integrator picks the echo's step, so dt_max is no config key
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"dynamics": {"t_max": 5.0, "samples": 11, "dt_max": 5.0}}))
        out = tmp_path / "out"
        assert main(["echo", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "unknown key 'dt_max' in dynamics" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("g1", [300.0, 1e150])
    def test_propagator_failure_is_runtime_error(self, tmp_path, capsys, g1):
        # a valid config whose coupling no Taylor degree can take in one
        # substep: one error line and exit 2, and nothing cached
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "model": {"g1": g1}, "truncation": {"n_c1": 2, "n_c2": 2},
            "dynamics": {"t_max": 1.0, "samples": 3}}))
        out = tmp_path / "out"
        assert main(["echo", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: propagator")
        assert json.loads((out / "manifest.json").read_text())["csv_blake2b"] is None
        assert not (out / "echo.csv").exists()

    def test_framed_propagator_failure_is_runtime_error(self, tmp_path):
        # a coupling near the float limit once aborted the interpreter inside
        # the eigensolver of the framed path, so the CLI runs in its own process
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "model": {"g1": 1e305}, "truncation": {"n_c1": 2, "n_c2": 2},
            "dynamics": {"t_max": 1.0, "samples": 3, "pair": "effective"}}))
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "lambdajc.cli", "echo",
             "--config", str(cfg_path), "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")})
        assert proc.returncode == 2, proc.stderr
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: propagator")
        assert json.loads((out / "manifest.json").read_text())["csv_blake2b"] is None
        assert not (out / "echo.csv").exists()

    def test_axis_count_validation(self, tmp_path):
        cfg = parse_config({"sweep": [{"name": "g1", "start": 0.0, "stop": 1.0,
                                       "points": 3, "parameter": "g1"}]})
        with pytest.raises(ConfigError, match="axes"):
            run_command("static-phase", cfg, out_dir=tmp_path)

    @pytest.mark.parametrize("command, parameter", [("static-phase", "g1"),
                                                    ("driven-phase", "A_D")])
    def test_axes_of_one_parameter_exit_1(self, tmp_path, capsys, command,
                                          parameter):
        # axis 2 would set the parameter of every cell, under axis 1's labels
        doc = {"sweep": [
            {"name": "a", "start": 0.0, "stop": 0.4, "points": 3, "parameter": parameter},
            {"name": "b", "start": 0.0, "stop": 0.1, "points": 2, "parameter": parameter},
        ]}
        with pytest.raises(ConfigError, match=f"{parameter}.*twice"):
            run_command(command, parse_config(doc), out_dir=tmp_path / "lib")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "twice" in capsys.readouterr().err
        assert not (tmp_path / "lib").exists() and not out.exists()

    def test_static_rejects_drive_axis(self, tmp_path):
        cfg = parse_config({"sweep": [
            {"name": "a", "start": 0.0, "stop": 1.0, "points": 3, "parameter": "A_D"},
            {"name": "b", "start": 0.0, "stop": 1.0, "points": 3, "parameter": "g2"},
        ], "drive": {"amplitude": 0.01, "frequency": 0.2}})
        with pytest.raises(ConfigError, match="drive"):
            run_command("static-phase", cfg, out_dir=tmp_path)

    def test_axis_range_must_respect_field_constraints(self, tmp_path):
        cfg = parse_config({"sweep": [
            {"name": "a", "start": 0.0, "stop": 1.0, "points": 3, "parameter": "Omega1"},
            {"name": "b", "start": 0.0, "stop": 1.0, "points": 3, "parameter": "g2"},
        ]})
        with pytest.raises(ConfigError, match="Omega1 > 0"):
            run_command("static-phase", cfg, out_dir=tmp_path)
        cfg = parse_config({"sweep": [
            {"name": "a", "start": -0.5, "stop": 1.0, "points": 3, "parameter": "g1"},
            {"name": "b", "start": 0.0, "stop": 1.0, "points": 3, "parameter": "g2"},
        ]})
        with pytest.raises(ConfigError, match="g1 >= 0"):
            run_command("static-phase", cfg, out_dir=tmp_path)
        cfg = parse_config({"sweep": [
            {"name": "a", "start": -0.1, "stop": 0.3, "points": 3, "parameter": "A_D"},
            {"name": "b", "start": 0.985, "stop": 1.0, "points": 3, "parameter": "Omega2"},
        ]})
        with pytest.raises(ConfigError, match="amplitude >= 0"):
            run_command("driven-phase", cfg, out_dir=tmp_path)
        cfg = parse_config({"sweep": [
            {"name": "w", "start": 0.0, "stop": 1.0, "points": 3, "parameter": "omega_D"},
        ]})
        with pytest.raises(ConfigError, match="frequency > 0"):
            run_command("effective-params", cfg, out_dir=tmp_path)
        assert not any(tmp_path.iterdir())

    def test_driven_worker_count_does_not_change_bytes(self, tmp_path):
        cfg = parse_config(TINY_DRIVEN)
        run_command("driven-phase", cfg, out_dir=tmp_path / "w1", workers=1)
        run_command("driven-phase", cfg, out_dir=tmp_path / "w2", workers=2)
        assert ((tmp_path / "w1" / "grid.csv").read_bytes()
                == (tmp_path / "w2" / "grid.csv").read_bytes())


GRID_5X4 = {
    "sweep": [
        {"name": "g1", "start": 0.0, "stop": 4.0, "points": 5, "parameter": "g1"},
        {"name": "g2", "start": 0.0, "stop": 3.0, "points": 4, "parameter": "g2"},
    ],
}

#: A driven grid whose cells fail each audit in part or in whole: a one-shot
#: run reads 52/52 window-capped, 18/52 counter-rotating and 52/52
#: drive-hierarchy.
DRIVEN_AUDITS = {
    "model": {"g1": 0.2, "g2": 0.2},
    "drive": {"amplitude": 0.036, "frequency": 0.18},
    "truncation": {"block_window": 5},
    "sweep": [
        {"name": "A_D", "start": 0.0, "stop": 0.54, "points": 13, "parameter": "A_D"},
        {"name": "Omega2", "start": 0.97, "stop": 1.0, "points": 4,
         "parameter": "Omega2"},
    ],
}

#: A static grid of more than one chunk of CHUNK_CELLS cells.
GRID_41X41 = {"sweep": [{**GRID_5X4["sweep"][0], "points": 41},
                        {**GRID_5X4["sweep"][1], "points": 41}]}

#: A static grid of one-cell rows.
ONE_POINT_AXIS2 = {"sweep": [GRID_5X4["sweep"][0],
                             {**GRID_5X4["sweep"][1], "stop": 0.0, "points": 1}]}

SAMPLES = Path(__file__).parent.parent / "configs"


def _blake2b(path: Path) -> str:
    return hashlib.blake2b(path.read_bytes()).hexdigest()


def _chunks(path: Path, size: int) -> tuple[str, list[list[list[str]]]]:
    """The header of a partial CSV and its records in chunks of size."""
    header, *lines = path.read_text().splitlines()
    records = [line.split(",") for line in lines]
    return header, [records[k:k + size] for k in range(0, len(records), size)]


def _text(records: list[list[str]]) -> str:
    return "".join(",".join(record) + "\n" for record in records)


#: (command, CSV name, config) of four sweeps no sample covers: a static
#: model off resonance, where the prune bounds are not exact; static
#: couplings whose norms are subnormal; a driven grid of that detuned model
#: crossing three phase categories; and an effective-params sweep along A_D.
#: Echo stays unpinned: both echo pairs diagonalize through eigh, whose bits
#: depend on the LAPACK build.
DETUNED_MODEL = {"omega1": 0.9, "omega2": 0.1, "Omega1": 0.7, "Omega2": 1.6}
PINNED_GRIDS = {
    "detuned": ("static-phase", "grid.csv", {
        "model": DETUNED_MODEL,
        "truncation": {"block_window": 8},
        "sweep": [
            {"name": "g1", "start": 0.0, "stop": 4.0, "points": 21, "parameter": "g1"},
            {"name": "g2", "start": 0.0, "stop": 5.0, "points": 19, "parameter": "g2"}]}),
    "subnormal-couplings": ("static-phase", "grid.csv", {
        "model": {"omega1": 0.5, "omega2": 0.25, "Omega1": 1.25, "Omega2": 1.0},
        "truncation": {"block_window": 8},
        "sweep": [
            {"name": "g1", "start": 3.5556433873827877e-162, "stop": 3.6e-162,
             "points": 2, "parameter": "g1"},
            {"name": "g2", "start": 0.0, "stop": 1.6e-162, "points": 3,
             "parameter": "g2"}]}),
    "detuned-driven": ("driven-phase", "grid.csv", {
        "model": {**DETUNED_MODEL, "g1": 2.4, "g2": 5.0},
        "drive": {"amplitude": 0.1, "frequency": 8.0},
        "truncation": {"block_window": 5},
        "sweep": [
            {"name": "A_D", "start": 0.0, "stop": 9.6, "points": 21, "parameter": "A_D"},
            {"name": "Omega2", "start": 1.2, "stop": 2.0, "points": 17,
             "parameter": "Omega2"}]}),
    "amplitude-effective": ("effective-params", "effective_params.csv", {
        "model": {**DETUNED_MODEL, "g1": 0.05, "g2": 0.08},
        "drive": {"amplitude": 0.1, "frequency": 0.29},
        "sweep": [
            {"name": "A_D", "start": 0.0, "stop": 3.0, "points": 401, "parameter": "A_D"}]}),
}

#: The CSV blake2b of each PINNED_GRIDS sweep, by OUTPUT_VERSION.  A
#: change that moves a digest must raise OUTPUT_VERSION and pin the new
#: digests under it, so no cache of the old bytes is served.
PINNED_GRID_DIGESTS = {
    4: {"detuned": "0054d96dd87dfa41d759f82b0d2445f79d976c4f3d01d9bda29e08b647f4d07a"
                   "54edee4489597d65f23b2dfe47493c052a5c254ccee28c0df588e5af33360e8d",
        "subnormal-couplings": "916fd096549b77fbeac5c959b7164ca405a4c97a410484078ba376bb43b3a955"
                               "bc755e51cad4cbea47734cb1af5939fda846b0207c4307dd8c3377ba1b804a58",
        "detuned-driven": "6b8d6e005f3d2d3250503e7baa53389790c6de145062661a380a401539d83be4"
                          "4b5edcb4a14faa2d0974b32796b84265ad89c3b4340a3c0fecf24f1d9449113d",
        "amplitude-effective": "cd99977b15459158106412239cd7a11891ba8e728e131a6d68c020fb89c9ea1e"
                               "ebeec147986a6feef62a6d64995a1718140dfb555017857224916f27bb70da2d"},
}
# version 5 moved the drive-rotated echo bytes (Taylor degree from the
# run's error budget) and no grid byte
PINNED_GRID_DIGESTS[5] = PINNED_GRID_DIGESTS[4]
# version 6 moved both echo branches' bytes (one batched product for the
# framed branch, Taylor powers weighted by 1/k! for CF4) and added the
# effective-params hierarchy_ok column; no grid byte moved
PINNED_GRID_DIGESTS[6] = {
    **PINNED_GRID_DIGESTS[5],
    "amplitude-effective": "873478cf45279f9dbdb211cb81a169a3dd4ce049f40e90f1166006d568269532"
                           "a1e47e08351e830bb1b37b9ad14950a10de8db8dc714068a97f8ce587f8d3243"}
# version 7 moved both echo branches' bytes (each Taylor power one multiply
# and one ordered sum of the padded rows, the frame phases from a table per
# term of K) and no grid byte
PINNED_GRID_DIGESTS[7] = PINNED_GRID_DIGESTS[6]


class TestOutputVersion:
    @pytest.mark.parametrize("stored", ["missing", "previous"])
    @pytest.mark.parametrize("command, doc, csv_name", [
        ("static-phase", TINY_STATIC, "grid.csv"), ("echo", TINY_ECHO, "echo.csv")])
    def test_manifest_of_other_output_version_is_recomputed(
            self, tmp_path, capsys, stored, command, doc, csv_name):
        cfg = parse_config(doc)
        assert run_command(command, cfg, out_dir=tmp_path) == 0
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        assert manifest["csv_blake2b"] == _blake2b(tmp_path / csv_name)
        current = manifest.pop("output_version", None)
        if stored == "previous":
            manifest["output_version"] = current - 1
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_command(command, cfg, out_dir=tmp_path) == 0
        assert "cache hit" not in capsys.readouterr().out
        manifest = json.loads(path.read_text())
        assert manifest["output_version"] == cli.OUTPUT_VERSION
        assert manifest["csv_blake2b"] == _blake2b(tmp_path / csv_name)

    def test_output_of_older_program_is_recomputed(self, tmp_path, capsys):
        # output version 3 wrote gap = inf for 4 of the 6 cells of this
        # sweep, whose coupling norms are subnormal; its directory is whole
        # by every other rule: config hash, command and CSV digest
        cfg = parse_config({**json.loads((SAMPLES / "static_phase.json").read_text()),
                            "sweep": [
            {"name": "g1", "start": 3.5556433873827877e-162, "stop": 3.6e-162,
             "points": 2, "parameter": "g1"},
            {"name": "g2", "start": 0.0, "stop": 1.6e-162, "points": 3,
             "parameter": "g2"}]})
        assert run_command("static-phase", cfg, out_dir=tmp_path) == 0
        grid = tmp_path / "grid.csv"
        header, [records] = _chunks(grid, 6)
        for record in records[0:2] + records[3:5]:
            record[8] = "inf"
        grid.write_text(header + "\n" + _text(records))
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest.update(output_version=3, csv_blake2b=_blake2b(grid))
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_command("static-phase", cfg, out_dir=tmp_path) == 0
        assert "cache hit" not in capsys.readouterr().out
        with open(grid, newline="") as fh:
            assert [row["gap"] for row in csv.DictReader(fh)] == ["1"] * 6

    @pytest.mark.parametrize("name", sorted(PINNED_GRIDS))
    def test_grid_bytes_are_pinned_per_output_version(self, tmp_path, name):
        command, csv_name, doc = PINNED_GRIDS[name]
        assert run_command(command, parse_config(doc), out_dir=tmp_path) == 0
        assert _blake2b(tmp_path / csv_name) == PINNED_GRID_DIGESTS[cli.OUTPUT_VERSION][name]

    def test_partial_of_other_output_version_is_recomputed(self, tmp_path,
                                                           monkeypatch):
        _chunk_by_rows(monkeypatch, TINY_STATIC)
        cfg = parse_config(TINY_STATIC)
        run_command("static-phase", cfg, out_dir=tmp_path / "full")
        _interrupt("static-phase", cfg, tmp_path / "part", 3)
        # what an older program left: other numbers, beside a manifest of its
        # own output version
        partial = tmp_path / "part" / ".grid.csv.partial"
        header, chunks = _chunks(partial, 7)
        for record in (r for chunk in chunks for r in chunk):
            record[4] = "0"
        partial.write_text(header + "\n" + "".join(map(_text, chunks)))
        assert _whole_chunks("static-phase", cfg, tmp_path / "part") == 3
        path = tmp_path / "part" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["output_version"] -= 1
        path.write_text(json.dumps(manifest))
        assert run_command("static-phase", cfg, out_dir=tmp_path / "part") == 0
        assert ((tmp_path / "part" / "grid.csv").read_bytes()
                == (tmp_path / "full" / "grid.csv").read_bytes())


class TestLedgerShape:
    """A chunk at the head of the partial CSV is resumed only if it is
    whole: under the sweep's header, its size of records of one field per
    column, its text ending in a line break.  The first chunk that is not
    whole and every chunk after it are computed."""

    def test_short_chunk_is_recomputed(self, tmp_path, capsys, monkeypatch):
        _chunk_by_rows(monkeypatch, GRID_5X4)
        cfg = parse_config(GRID_5X4)
        run_command("static-phase", cfg, out_dir=tmp_path / "full")
        _interrupt("static-phase", cfg, tmp_path / "part", 1)
        partial = tmp_path / "part" / ".grid.csv.partial"
        header, [chunk] = _chunks(partial, 4)
        # two whole records, where the chunk has four
        partial.write_text(header + "\n" + _text(chunk[:2]))
        capsys.readouterr()
        assert run_command("static-phase", cfg, out_dir=tmp_path / "part") == 0
        out = capsys.readouterr().out
        assert "resumed" not in out and "20 cells" in out
        grid = tmp_path / "part" / "grid.csv"
        assert len(grid.read_text().splitlines()) == 1 + 20
        assert grid.read_bytes() == (tmp_path / "full" / "grid.csv").read_bytes()
        manifest = json.loads((tmp_path / "part" / "manifest.json").read_text())
        assert manifest["csv_blake2b"] == _blake2b(tmp_path / "full" / "grid.csv")

    @pytest.mark.parametrize("corrupt", [
        "missing_column", "extra_column", "text_label", "short_text", "blank_line",
        "unterminated_text", "torn_full_record", "other_header", "not_utf8", "crlf"])
    def test_malformed_entry_is_recomputed(self, tmp_path, monkeypatch, corrupt):
        _chunk_by_rows(monkeypatch, GRID_5X4)
        cfg = parse_config(GRID_5X4)
        run_command("static-phase", cfg, out_dir=tmp_path / "full")
        _interrupt("static-phase", cfg, tmp_path / "part", 2)
        partial = tmp_path / "part" / ".grid.csv.partial"
        header, [first, last] = _chunks(partial, 4)
        # the second chunk, or the whole partial, as a kill or another
        # writer could leave it
        for record in last:
            if corrupt == "missing_column":
                del record[8]
            elif corrupt == "extra_column":
                record.append(record[8])
            elif corrupt == "text_label":
                # an unquoted comma splits the field in two
                record[5] = "x,y"
        if corrupt == "short_text":
            del last[-1]
        elif corrupt == "blank_line":
            last.insert(-1, [])
        elif corrupt == "other_header":
            # of the same length, over records of the same shape
            header = header.replace("energy", "ENERGY")
        text = _text(last)
        if corrupt == "crlf":
            # line ends rewritten as CR LF, as a copy through another
            # platform's tools could leave them
            text = text.replace("\n", "\r\n")
        elif corrupt == "unterminated_text":
            text = text[:-1]
        elif corrupt == "torn_full_record":
            # torn inside the last field, true or false: the record still
            # has every field
            text = text[:-3]
        data = (header + "\n" + _text(first) + text).encode()
        if corrupt == "not_utf8":
            # a two-byte character torn after its first byte
            data += "\u00e9".encode()[:1]
        partial.write_bytes(data)
        rows = _count_chunks(monkeypatch)
        assert run_command("static-phase", cfg, out_dir=tmp_path / "part") == 0
        resumed = 0 if corrupt in ("other_header", "not_utf8") else 1
        assert rows == list(range(resumed, 5))
        assert {p.name for p in (tmp_path / "part").iterdir()} == {
            "grid.csv", "manifest.json"}
        for name in ("grid.csv", "manifest.json"):
            assert ((tmp_path / "part" / name).read_bytes()
                    == (tmp_path / "full" / name).read_bytes())

    @pytest.mark.parametrize("command, doc", [
        ("static-phase", GRID_5X4), ("driven-phase", TINY_DRIVEN),
        ("effective-params", {"sweep": [{"start": 0.1, "stop": 2.0, "points": 300,
                                         "parameter": "omega_D"}]}),
        # single-row chunks: one-cell grid rows, and a last slice of one point
        ("static-phase", ONE_POINT_AXIS2),
        ("effective-params", {"sweep": [{"start": 0.1, "stop": 2.0, "points": 257,
                                         "parameter": "omega_D"}]})])
    def test_ledger_entries_fit_their_sweep(self, tmp_path, monkeypatch, command, doc):
        # a whole-chunk rule that disagreed with the texts the runner writes
        # would recompute every resumed chunk
        _chunk_by_rows(monkeypatch, doc)
        cfg = parse_config(doc)
        sweep = cli._sweep(command, cfg, cli._resolve_axes(command, cfg))
        entries = list(cli._run_chunks(sweep, 0, 1))
        text = "".join(t for _, t in entries)
        path = tmp_path / "partial"
        path.write_text(",".join(sweep.csv_columns) + "\n" + text)
        assert cli._resume(path, sweep) == ([c for c, _ in entries], text)

    def test_valid_entries_are_reused(self, tmp_path, monkeypatch):
        _chunk_by_rows(monkeypatch, GRID_5X4)
        cfg = parse_config(GRID_5X4)
        _interrupt("static-phase", cfg, tmp_path, 3)
        rows = _count_chunks(monkeypatch)
        assert run_command("static-phase", cfg, out_dir=tmp_path) == 0
        assert rows == [3, 4]

    @pytest.mark.parametrize("command, doc, written, resumed, line", [
        ("static-phase", GRID_5X4, 4, 6, "resumed 1 of 4 chunks"),
        ("static-phase", GRID_5X4, 6, 4, "resumed 3 of 5 chunks"),
        ("driven-phase", DRIVEN_AUDITS, 5, 3, "resumed 3 of 18 chunks"),
        # a partial of 256-cell chunks, as output version 4 was first
        # written, that does not fill a chunk of the current size
        ("static-phase", GRID_41X41, 256, spectrum.CHUNK_CELLS, None)])
    def test_partial_of_other_chunk_size_resumes(self, tmp_path, monkeypatch, capsys,
                                                 command, doc, written, resumed, line):
        # records are cells, so a partial written in chunks of one size is
        # read back in whole chunks of another
        if line is None:
            # the two chunks interrupted below do not fill one resumed chunk
            assert 2 * written < resumed
        cfg = parse_config(doc)
        assert run_command(command, cfg, out_dir=tmp_path / "full") == 0
        monkeypatch.setattr(spectrum, "CHUNK_CELLS", written)
        _interrupt(command, cfg, tmp_path / "part", 2)
        monkeypatch.setattr(spectrum, "CHUNK_CELLS", resumed)
        capsys.readouterr()
        assert run_command(command, cfg, out_dir=tmp_path / "part") == 0
        out = capsys.readouterr().out
        assert line in out if line else "resumed" not in out
        for name in (cli._CSV_NAME[command], "manifest.json"):
            assert ((tmp_path / "part" / name).read_bytes()
                    == (tmp_path / "full" / name).read_bytes())


class TestCsvQuoting:
    """A CSV record is one line: no text field the CLI writes needs quoting,
    so an axis name that would is a configuration error."""

    @pytest.mark.parametrize("name", ["g1,x", 'say "g2"', "a\rb", "a\nb"])
    def test_axis_name_that_needs_quoting_rejected(self, name):
        doc = json.loads(json.dumps(TINY_STATIC))
        doc["sweep"][0]["name"] = name
        with pytest.raises(ConfigError, match=r"^sweep\[0\]: name must hold no comma"):
            parse_config(doc)

    @pytest.mark.parametrize("name", ["g1,x", 'say "g2"', "a\rb", "a\nb"])
    def test_axis_name_that_needs_quoting_exits_1(self, tmp_path, capsys, name):
        doc = json.loads(json.dumps(TINY_STATIC))
        doc["sweep"][0]["name"] = name
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["static-phase", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: sweep[0]: name must hold")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("name", [{"a": 1}, 3, ["g1"], True])
    def test_non_string_axis_name_rejected(self, name):
        doc = json.loads(json.dumps(TINY_STATIC))
        doc["sweep"][0]["name"] = name
        with pytest.raises(ConfigError, match="name must be a string"):
            parse_config(doc)

    @pytest.mark.parametrize("section, key", [
        ("dynamics", "initial_state"), ("dynamics", "pair")])
    def test_non_string_text_field_rejected(self, section, key):
        with pytest.raises(ConfigError, match=f"{key} must be a string"):
            parse_config({section: {key: 2}})

    @pytest.mark.parametrize("command, config, csv_name, digest", [
        ("static-phase", "static_phase.json", "grid.csv",
         "2ebf9534af83f771f48b6a92249cfbff543d046a6171163a9d19a408cfa83667"
         "b2140ca33a0727ab5faa28ac605bccfff1c45bc87422285cae7dcdd0dc069ab0"),
        ("driven-phase", "driven_phase.json", "grid.csv",
         "682e667ca4c155b02031b0c20608fa52025d592d8f0f74e2a308422daf7fd6b3"
         "2420769bbd91e213cc91cb5951dd14bb5ac66c569b3ed356c61ca37fb220df50"),
        ("effective-params", "effective_params.json", "effective_params.csv",
         "d80d4da6629e2acc9d34485d71fd8b369497218481710232e4eb83f79717979a"
         "6574b336bf278ec38fd2bb63e71bbfda187e13511541a44a9e69365b13e0b632"),
    ])
    def test_sample_configs_keep_csv_bytes(self, tmp_path, command, config,
                                           csv_name, digest):
        cfg = parse_config((SAMPLES / config).read_text())
        assert run_command(command, cfg, out_dir=tmp_path) == 0
        assert _blake2b(tmp_path / csv_name) == digest


class TestDriveValidation:
    """2 theta = 2 A_D / omega_D past specfun.MAX_ARGUMENT is a config
    error before anything is written, for every command that reads the
    drive."""

    @pytest.mark.parametrize("command, extra", [
        ("driven-phase", {"sweep": [
            {"name": "A_D", "start": 0.0, "stop": 60.0, "points": 3,
             "parameter": "A_D"},
            {"name": "Omega2", "start": 0.985, "stop": 1.0, "points": 2,
             "parameter": "Omega2"}]}),
        ("effective-params", {"sweep": [
            {"name": "omega_D", "start": 0.1, "stop": 1.0, "points": 3,
             "parameter": "omega_D"}]}),
        ("echo", {"truncation": {"n_c1": 2, "n_c2": 2},
                  "dynamics": {"t_max": 1.0, "samples": 4}}),
    ])
    def test_bessel_argument_out_of_range(self, tmp_path, capsys, command, extra):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"drive": {"amplitude": 60.0, "frequency": 0.1}, **extra}))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "2*A_D/omega_D reaches 1200" in capsys.readouterr().err
        assert not out.exists()

    def test_static_phase_ignores_drive(self, tmp_path):
        cfg = parse_config({"drive": {"amplitude": 60.0, "frequency": 0.1},
                            **TINY_STATIC})
        assert run_command("static-phase", cfg, out_dir=tmp_path) == 0


#: Invalid sweeps, each with the message the library and the CLI give it.
INVALID_SWEEPS = {
    "drive-axis-static": ("static-phase", {"sweep": [
        {"start": 0.0, "stop": 1.0, "points": 3, "parameter": "A_D"},
        {"start": 0.0, "stop": 1.0, "points": 3, "parameter": "g2"}]},
        "sweep parameter 'A_D' is not a field of the undriven model"),
    "endpoint": ("driven-phase", {"sweep": [
        {"start": -1.0, "stop": 0.3, "points": 3, "parameter": "A_D"},
        {"start": 0.985, "stop": 1.0, "points": 3, "parameter": "Omega2"}]},
        "sweep axis 'A_D': drive amplitude >= 0 required, got -1.0"),
    "swept-twice": ("static-phase", {"sweep": [
        {"start": 0.0, "stop": 1.0, "points": 3, "parameter": "g1"},
        {"start": 0.0, "stop": 2.0, "points": 3, "parameter": "g1"}]},
        "sweep parameter 'g1' is swept twice"),
    # the first of two chunks stays within the Bessel range
    "bessel": ("driven-phase", {"drive": {"amplitude": 0.036, "frequency": 0.4}, "sweep": [
        {"start": 0.0, "stop": 300.0, "points": 31, "parameter": "A_D"},
        {"start": 0.985, "stop": 1.0, "points": 64, "parameter": "Omega2"}]},
        "drive: Bessel argument 2*A_D/omega_D reaches 1500, above the supported 1000"),
    "collapsed-axis": ("static-phase", {"sweep": [
        {"start": 1.0, "stop": 1.0000000000000002, "points": 5, "parameter": "g1"},
        {"start": 0.0, "stop": 1.0, "points": 3, "parameter": "g2"}]},
        "axis 'g1' must be strictly increasing"),
    "unknown-parameter": ("static-phase", {"sweep": [
        {"start": 0.0, "stop": 1.0, "points": 3, "parameter": "g3"},
        {"start": 0.0, "stop": 1.0, "points": 3, "parameter": "g2"}]},
        "sweep parameter 'g3' is not a field of the undriven model"),
    "stop-at-start": ("static-phase", {"sweep": [
        {"start": 1.0, "stop": 1.0, "points": 2, "parameter": "g1"},
        {"start": 0.0, "stop": 1.0, "points": 3, "parameter": "g2"}]},
        "axis 'g1' must be strictly increasing"),
    "stop-before-start": ("static-phase", {"sweep": [
        {"start": 1.0, "stop": 0.5, "points": 3, "parameter": "g1"},
        {"start": 0.0, "stop": 1.0, "points": 3, "parameter": "g2"}]},
        "axis 'g1' must be strictly increasing"),
}

#: Sweeps with the wrong number of axes for their command, which the CLI
#: alone refuses: a library grid takes two axes by its signature.
WRONG_ARITY = {
    "three-axes": ("static-phase", {"sweep": [
        {"start": 0.0, "stop": 1.0, "points": 2, "parameter": p}
        for p in ("g1", "g2", "A_D")]},
        "static-phase takes 2 sweep axes, got 3"),
    "echo-sweep": ("echo", {"sweep": [
        {"start": 0.0, "stop": 1.0, "points": 2, "parameter": "g1"}]},
        "echo takes 0 sweep axes, got 1"),
}


class TestSweepRules:
    """spectrum.check_sweep is the one rule for a valid sweep: sweep_grid
    and the CLI refuse each invalid sweep with the same message, the
    library before any kernel call, the CLI before it writes anything."""

    @pytest.mark.parametrize("case", INVALID_SWEEPS)
    def test_library_refuses_before_any_kernel_call(self, monkeypatch, case):
        command, doc, message = INVALID_SWEEPS[case]
        calls = []
        kernel = spectrum._lowest_eig_sym3
        monkeypatch.setattr(spectrum, "_lowest_eig_sym3",
                            lambda *h: calls.append(1) or kernel(*h))
        drive = None if command == "static-phase" else DriveParams(**doc.get("drive", {}))
        with pytest.raises(ValueError) as info:
            axes = [spectrum.AxisSpec(ax["parameter"], ax["parameter"],
                                      np.linspace(ax["start"], ax["stop"], ax["points"]))
                    for ax in doc["sweep"]]
            spectrum.sweep_grid(SystemParams(), drive, *axes, 5)
        assert str(info.value) == message
        assert calls == []

    @pytest.mark.parametrize("case", {**INVALID_SWEEPS, **WRONG_ARITY})
    def test_cli_refuses_before_writing(self, tmp_path, capsys, case):
        command, doc, message = {**INVALID_SWEEPS, **WRONG_ARITY}[case]
        # the config checks an axis's schema alone, so it takes the sweep
        parse_config(doc)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not (out / "manifest.json").exists()
        assert not (out / ".grid.csv.partial").exists()
        assert not out.exists()

    @pytest.mark.parametrize("command, doc", [
        ("static-phase", {"sweep": [
            {"start": 0.3, "stop": 0.7, "points": 5, "parameter": "omega1"},
            {"start": 0.0, "stop": 3.0, "points": 4, "parameter": "g2"}]}),
        ("driven-phase", {"drive": {"amplitude": 0.09, "frequency": 0.18}, "sweep": [
            {"start": 0.01, "stop": 0.3, "points": 4, "parameter": "A_D"},
            {"start": 0.1, "stop": 0.4, "points": 5, "parameter": "omega2"}]}),
    ], ids=["static-omega1", "driven-omega2"])
    def test_cli_sweeps_what_the_library_sweeps(self, tmp_path, command, doc):
        # omega1 and omega2 are model fields, so the CLI sweeps them as
        # sweep_grid does, cell for cell
        cfg = parse_config(doc)
        assert run_command(command, cfg, out_dir=tmp_path) == 0
        with open(tmp_path / "grid.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        drive = cfg.drive if command == "driven-phase" else None
        axes = [spectrum.AxisSpec(ax.name, ax.parameter, ax.values()) for ax in cfg.sweep]
        grid = spectrum.sweep_grid(cfg.model, drive, *axes,
                                   spectrum.block_window_for(drive is not None, None))
        i, j = np.divmod(np.arange(len(rows)), axes[1].values.size)
        assert [(row["axis1_name"], row["axis2_name"]) for row in rows] == [
            (axes[0].name, axes[1].name)] * grid["energy"].size
        for key, values in (("axis1_value", axes[0].values[i]),
                            ("axis2_value", axes[1].values[j])):
            np.testing.assert_array_equal([float(row[key]) for row in rows], values)
        for key in ("energy", "n_label", "m_label", "gap"):
            np.testing.assert_array_equal([float(row[key]) for row in rows],
                                          grid[key].ravel())
        for key in ("window_capped", "rwa_ok", "hierarchy_ok"):
            assert [row[key] == "true" for row in rows] == grid[key].ravel().tolist()

    def test_collapsed_effective_params_axis_exits_1(self, tmp_path, capsys):
        # five identical omega_D values would be five identical rows
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sweep": [
            {"start": 1.0, "stop": 1.0000000000000002, "points": 5,
             "parameter": "omega_D"}]}))
        out = tmp_path / "out"
        assert main(["effective-params", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("configuration error: axis 'omega_D' "
                                           "must be strictly increasing\n")
        assert not out.exists()

    def test_ground_search_refuses_a_drive_past_the_bessel_range(self):
        with pytest.raises(ValueError, match="2\\*A_D/omega_D reaches 2000"):
            spectrum.ground_search(SystemParams(), DriveParams(amplitude=100.0,
                                                               frequency=0.1))


class TestStockSweeps:
    """Without --config each command sweeps its coded axes, scaled by the
    default model (Omega1 = 1.25, Omega2 = 1.0) and drive (omega_D = 0.18)."""

    @pytest.mark.parametrize("command, expected", [
        ("static-phase", [("g1", 0.0, 4.5 * 1.25, 181), ("g2", 0.0, 4.5, 181)]),
        ("driven-phase", [("A_D", 0.0, 2.5 * 0.18, 121),
                          ("Omega2", 0.97, 1.0, 61)]),
        ("effective-params", [("omega_D", 0.05, 6.0, 1200)]),
    ])
    def test_default_axes(self, command, expected):
        axes = cli._resolve_axes(command, parse_config({}))
        assert [(ax.name, ax.parameter, ax.values[0], ax.values[-1], ax.values.size)
                for ax in axes] == [
            (name, name, pytest.approx(start, rel=1e-15),
             pytest.approx(stop, rel=1e-15), points)
            for name, start, stop, points in expected]

    def test_effective_params_without_config(self, tmp_path):
        assert main(["effective-params", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "effective_params.csv").read_text().splitlines()
        assert rows[0] == ",".join(cli.EFFECTIVE_CSV_COLUMNS)
        assert len(rows) == 1 + 1200


#: One sweep of each command with 13 chunks, so that 10 are left after an
#: interrupt at 3.  Under --workers 2 the runner computes the last 5 and
#: its one-worker pool the 5 before them: more than BATCHES_PER_WORKER, so
#: the pool is sent batches of several chunks.
MANY_CHUNKS = {
    "static-phase": {"sweep": [
        {"name": "g1", "start": 0.0, "stop": 4.0, "points": 13, "parameter": "g1"},
        {"name": "g2", "start": 0.0, "stop": 3.0, "points": 4, "parameter": "g2"},
    ]},
    "driven-phase": {**TINY_DRIVEN, "sweep": [
        {"name": "A_D", "start": 0.01, "stop": 0.3, "points": 13, "parameter": "A_D"},
        {"name": "Omega2", "start": 0.985, "stop": 1.0, "points": 4,
         "parameter": "Omega2"},
    ]},
    "effective-params": {**TINY_DRIVEN, "sweep": [
        {"name": "omega_D", "start": 0.1, "stop": 2.0, "points": 12 * 256 + 100,
         "parameter": "omega_D"},
    ]},
}


#: Each MANY_CHUNKS sweep, by its command, and DRIVEN_AUDITS.
MIXED_RESUME = {**{command: (command, doc) for command, doc in MANY_CHUNKS.items()},
                "driven-phase-audits": ("driven-phase", DRIVEN_AUDITS)}


def _own(chunks: int, workers: int) -> int:
    """How many of `chunks` left the runner computes itself under
    --workers `workers`: the last ceil(chunks / workers)."""
    return -(-chunks // workers)


class TestPool:
    """Under --workers N the runner computes the last chunks itself while a
    pool of N - 1 workers computes the chunks before them, sent in
    contiguous batches; both make each chunk's audit counts and CSV text
    with the same function, and they reach the CSV in chunk order, the
    pool's batches as the runner goes.  Resumed chunks are written
    verbatim."""

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []

        class Recording(cli.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Recording)
        return sizes

    @pytest.mark.parametrize("case", sorted(MIXED_RESUME))
    def test_mixed_resume_matches_one_shot_run(self, tmp_path, monkeypatch, pool_sizes,
                                               case):
        command, doc = MIXED_RESUME[case]
        _chunk_by_rows(monkeypatch, doc)
        cfg = parse_config(doc)
        sweep = cli._sweep(command, cfg, cli._resolve_axes(command, cfg))
        left = len(sweep.chunks) - 3
        assert left - _own(left, 2) > cli.BATCHES_PER_WORKER
        assert run_command(command, cfg, out_dir=tmp_path / "full", workers=1) == 0
        _interrupt(command, cfg, tmp_path / "part", 3)
        assert run_command(command, cfg, out_dir=tmp_path / "part", workers=2) == 0
        # two computing processes: the runner and one forked worker
        assert pool_sizes == [1]
        for name in (cli._CSV_NAME[command], "manifest.json"):
            assert ((tmp_path / "part" / name).read_bytes()
                    == (tmp_path / "full" / name).read_bytes())
        if case == "driven-phase-audits":
            deviations = json.loads((tmp_path / "part" / "manifest.json")
                                    .read_text())["deviations"]
            assert [line.split()[0] for line in deviations] == [
                "52/52", "18/52", "52/52"]

    def test_resume_reports_the_chunks_it_resumed(self, tmp_path, capsys, monkeypatch):
        _chunk_by_rows(monkeypatch, MANY_CHUNKS["static-phase"])
        cfg = parse_config(MANY_CHUNKS["static-phase"])
        assert run_command("static-phase", cfg, out_dir=tmp_path / "full") == 0
        assert "resumed" not in capsys.readouterr().out
        _interrupt("static-phase", cfg, tmp_path / "part", 3)
        capsys.readouterr()
        assert run_command("static-phase", cfg, out_dir=tmp_path / "part") == 0
        assert ("resumed 3 of 13 chunks from .grid.csv.partial"
                in capsys.readouterr().out)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resumed_chunks_are_written_verbatim(self, tmp_path, monkeypatch,
                                                 workers):
        _chunk_by_rows(monkeypatch, MANY_CHUNKS["static-phase"])
        cfg = parse_config(MANY_CHUNKS["static-phase"])
        _interrupt("static-phase", cfg, tmp_path, 3)
        real_format = cli._format_column
        calls = []

        def counting_format(values):
            # pool workers count into their own copy of calls
            calls.append(values)
            return real_format(values)

        monkeypatch.setattr(cli, "_format_column", counting_format)
        assert run_command("static-phase", cfg, out_dir=tmp_path,
                           workers=workers) == 0
        # the parent formats each axis's values once per sweep, then the
        # chunks it computes itself (all ten left, or under two workers the
        # last five, the pool's worker formatting the others in its own
        # copy), none it resumes: each column but the three it is given as
        # texts (the axis values and the category)
        computed = _own(10, workers)
        assert len(calls) == 2 + computed * (len(cli.GRID_CSV_COLUMNS) - 3)

    # three workers cut the 13 chunks into batches of another size
    @pytest.mark.parametrize("command, workers", [
        pytest.param(command, workers, id=command if workers == 2 else f"{command}-3")
        for workers in (2, 3) for command in sorted(MANY_CHUNKS)])
    def test_pool_results_match_sequential(self, monkeypatch, command, workers):
        _chunk_by_rows(monkeypatch, MANY_CHUNKS[command])
        cfg = parse_config(MANY_CHUNKS[command])
        sweep = cli._sweep(command, cfg, cli._resolve_axes(command, cfg))

        def run(workers, start=0):
            return list(cli._run_chunks(sweep, start, workers))

        sequential, pooled = run(1), run(workers)
        assert len(sequential) == len(sweep.chunks)
        assert pooled == sequential
        # a resumed run starts at its first missing chunk
        assert run(workers, 3) == sequential[3:]
        for (start, stop), (counts, text) in zip(sweep.chunks, sequential):
            columns = sweep.compute(start, stop)
            assert text == cli._chunk_text([columns[k] for k in sweep.csv_columns])
            assert len(text.splitlines()) == stop - start
            assert counts == spectrum.audit_counts(columns)

    def test_pool_has_no_more_workers_than_batches(self, tmp_path, monkeypatch,
                                                   pool_sizes):
        three_rows = json.loads(json.dumps(GRID_5X4))
        three_rows["sweep"][0]["points"] = 3
        _chunk_by_rows(monkeypatch, three_rows)
        cfg = parse_config(three_rows)
        assert run_command("static-phase", cfg, out_dir=tmp_path / "w8",
                           workers=8) == 0
        # the runner computes the last chunk and the pool two batches of one
        assert pool_sizes == [2]
        assert run_command("static-phase", cfg, out_dir=tmp_path / "w1",
                           workers=1) == 0
        assert ((tmp_path / "w8" / "grid.csv").read_bytes()
                == (tmp_path / "w1" / "grid.csv").read_bytes())

    def test_resume_pool_has_no_more_workers_than_chunks_left(self, tmp_path,
                                                              monkeypatch, pool_sizes):
        _chunk_by_rows(monkeypatch, GRID_5X4)
        cfg = parse_config(GRID_5X4)
        _interrupt("static-phase", cfg, tmp_path, 3)
        assert run_command("static-phase", cfg, out_dir=tmp_path, workers=8) == 0
        # of the two chunks left, the runner computes one and the pool one
        assert pool_sizes == [1]

    def test_dead_worker_exits_2_and_keeps_finished_chunks(self, tmp_path,
                                                           monkeypatch, capsys):
        _chunk_by_rows(monkeypatch, MANY_CHUNKS["static-phase"])
        cfg = parse_config(MANY_CHUNKS["static-phase"])
        assert run_command("static-phase", cfg, out_dir=tmp_path / "full") == 0
        runner, real = os.getpid(), spectrum.compute_grid_cells

        def dying(*args):
            # chunk 5 is in the pool's share: the runner computes chunks 6-12
            # and its worker the batches 0-1, 2-3 and 4-5
            if args[-2] // spectrum.CHUNK_CELLS == 5:
                # an exit here would end the test process
                assert os.getpid() != runner, "chunk 5 is the runner's"
                os._exit(1)  # as a worker killed by the OOM killer
            return real(*args)

        # pickled by name, so forked workers look it up in the patched module
        dying.__module__, dying.__qualname__ = real.__module__, real.__qualname__
        monkeypatch.setattr(spectrum, "compute_grid_cells", dying)
        monkeypatch.setattr(cli, "compute_grid_cells", dying)
        out = tmp_path / "part"
        capsys.readouterr()
        assert run_command("static-phase", cfg, out_dir=out, workers=2) == 2
        assert "error: " in capsys.readouterr().err
        # the batches 0-1 and 2-3 the worker finished before it died are
        # written; the runner's chunks, which follow the pool's, are not
        whole = _whole_chunks("static-phase", cfg, out)
        assert whole == 4
        assert not multiprocessing.active_children()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["cells_done"] == 4 * whole
        assert manifest["csv_blake2b"] is None
        monkeypatch.undo()

        _chunk_by_rows(monkeypatch, MANY_CHUNKS["static-phase"])
        rows = _count_chunks(monkeypatch)
        assert run_command("static-phase", cfg, out_dir=out) == 0
        assert rows == list(range(whole, 13))
        for name in ("grid.csv", "manifest.json"):
            assert (out / name).read_bytes() == (tmp_path / "full" / name).read_bytes()

    @pytest.mark.parametrize("workers, rows, forked", [(2, 13, 1), (3, 13, 2), (4, 3, 2)])
    def test_workers_fork_all_but_the_runner(self, tmp_path, monkeypatch, pool_sizes,
                                             workers, rows, forked):
        # 13 chunks leave the pool more batches than workers; 3 chunks under
        # four workers leave it two batches
        doc = json.loads(json.dumps(MANY_CHUNKS["static-phase"]))
        doc["sweep"][0]["points"] = rows
        _chunk_by_rows(monkeypatch, doc)
        cfg = parse_config(doc)
        runner, real = os.getpid(), cli.compute_grid_cells
        alive = []

        def counting(*args):
            if os.getpid() == runner:
                alive.append(len(multiprocessing.active_children()))
            return real(*args)

        monkeypatch.setattr(cli, "compute_grid_cells", counting)
        assert run_command("static-phase", cfg, out_dir=tmp_path / "pool",
                           workers=workers) == 0
        assert pool_sizes == [forked]
        # the pool's processes run while the runner computes its share, and
        # none outlives the run
        assert alive and set(alive) == {forked}
        assert not multiprocessing.active_children()
        monkeypatch.setattr(cli, "compute_grid_cells", real)
        assert run_command("static-phase", cfg, out_dir=tmp_path / "seq") == 0
        assert ((tmp_path / "pool" / "grid.csv").read_bytes()
                == (tmp_path / "seq" / "grid.csv").read_bytes())

    def test_pool_batches_are_written_while_the_runner_computes(self, tmp_path,
                                                                monkeypatch):
        _chunk_by_rows(monkeypatch, MANY_CHUNKS["static-phase"])
        cfg = parse_config(MANY_CHUNKS["static-phase"])
        assert run_command("static-phase", cfg, out_dir=tmp_path / "full") == 0
        # the runner computes chunks 6-12 and its one worker the batches
        # 0-1, 2-3 and 4-5; the runner waits in chunk 11 until the worker
        # has computed chunk 5, then reads the partial CSV in chunk 12
        runner, real = os.getpid(), cli.compute_grid_cells
        marks, out = tmp_path / "marks", tmp_path / "pool"
        marks.mkdir()
        seen = []

        def watched(*args):
            chunk = args[-2] // spectrum.CHUNK_CELLS
            if os.getpid() != runner:
                cells = real(*args)
                (marks / str(chunk)).touch()
                return cells
            if chunk == 11:
                for _ in range(1000):
                    if (marks / "5").exists():
                        break
                    time.sleep(0.01)
                # time for the worker to send the batch and for the pool to
                # hand it over
                time.sleep(0.3)
            elif chunk == 12:
                seen.append((out / ".grid.csv.partial").read_text())
            return real(*args)

        monkeypatch.setattr(cli, "compute_grid_cells", watched)
        assert run_command("static-phase", cfg, out_dir=out, workers=2) == 0
        # before its last chunk, the runner has written all six of the
        # pool's, and none of its own
        full = (tmp_path / "full" / "grid.csv").read_text().split("\n")
        assert seen == ["\n".join(full[:1 + 6 * 4]) + "\n"]
        for name in ("grid.csv", "manifest.json"):
            assert (out / name).read_bytes() == (tmp_path / "full" / name).read_bytes()

    def test_interrupt_in_the_runners_share_cancels_the_queued_batches(
            self, tmp_path, monkeypatch):
        doc = json.loads(json.dumps(MANY_CHUNKS["static-phase"]))
        doc["sweep"][0]["points"] = 16
        _chunk_by_rows(monkeypatch, doc)
        cfg = parse_config(doc)
        assert run_command("static-phase", cfg, out_dir=tmp_path / "full") == 0
        # the runner computes chunks 8-15; its one worker is sent the batches
        # 0-1, 2-3, 4-5 and 6-7, each chunk slowed so that the interrupt, in
        # the runner's third chunk, comes while the worker runs its first
        # batch
        runner, real = os.getpid(), cli.compute_grid_cells
        marks = tmp_path / "marks"
        marks.mkdir()

        def slow_pool(*args):
            chunk = args[-2] // spectrum.CHUNK_CELLS
            if os.getpid() == runner:
                if chunk == 10:
                    raise KeyboardInterrupt
            else:
                (marks / str(chunk)).touch()
                time.sleep(0.1)
            return real(*args)

        monkeypatch.setattr(cli, "compute_grid_cells", slow_pool)
        out = tmp_path / "part"
        with pytest.raises(KeyboardInterrupt):
            run_command("static-phase", cfg, out_dir=out, workers=2)
        assert not multiprocessing.active_children()
        # the last batch was cancelled: the pool computed at most the batch
        # its worker ran and the two queued for it (a process pool queues
        # one task more than it has workers)
        assert {int(p.name) for p in marks.iterdir()} <= set(range(6))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["deviations"] == ["interrupted"]
        # no batch had finished, and the runner's two finished chunks are
        # discarded: the partial holds the header alone
        assert manifest["cells_done"] == 0
        full = (tmp_path / "full" / "grid.csv").read_text().split("\n")
        assert (out / ".grid.csv.partial").read_text() == full[0] + "\n"
        monkeypatch.setattr(cli, "compute_grid_cells", real)
        assert run_command("static-phase", cfg, out_dir=out, workers=2) == 0
        for name in ("grid.csv", "manifest.json"):
            assert (out / name).read_bytes() == (tmp_path / "full" / name).read_bytes()

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="reads process states from /proc")
    def test_worker_exits_when_the_runner_is_killed(self, tmp_path):
        # a --workers 2 run in its own process, each chunk one cell slowed
        # by 0.2 s: its worker computes batches of eight chunks
        config, marks = tmp_path / "cfg.json", tmp_path / "marks"
        config.write_text(json.dumps(TINY_STATIC))
        marks.mkdir()
        script = (
            "import os, sys, time\n"
            "from lambdajc import cli, spectrum\n"
            "spectrum.CHUNK_CELLS = 1\n"
            "runner, real = os.getpid(), cli.compute_grid_cells\n"
            "def slow(*args):\n"
            "    if os.getpid() != runner:\n"
            "        open(os.path.join(sys.argv[1], str(os.getpid())), 'w').close()\n"
            "    time.sleep(0.2)\n"
            "    return real(*args)\n"
            "cli.compute_grid_cells = slow\n"
            "sys.exit(cli.main(['static-phase', '--config', sys.argv[2],\n"
            "                   '--workers', '2', '--out', sys.argv[3]]))\n")

        def alive(pid):
            # a zombie has ended; it waits only for its new parent to reap it
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except OSError:
                return False
            return stat.rsplit(")", 1)[1].split()[0] != "Z"

        with open(tmp_path / "run.log", "w") as log:
            proc = subprocess.Popen(
                [sys.executable, "-c", script, str(marks), str(config),
                 str(tmp_path / "out")], stdout=log, stderr=subprocess.STDOUT,
                env={**os.environ,
                     "PYTHONPATH": str(Path(__file__).parent.parent / "src")})
        workers = []
        try:
            for _ in range(1000):
                workers = [int(p.name) for p in marks.iterdir()]
                if workers or proc.poll() is not None:
                    break
                time.sleep(0.01)
            assert workers, (tmp_path / "run.log").read_text()
            # the CLI process alone is killed, as the OOM killer would
            proc.kill()
            assert proc.wait(timeout=10) == -9
            deadline = time.monotonic() + 5.0
            while any(map(alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(alive, workers))
        finally:
            proc.kill()
            proc.wait(timeout=10)
            for pid in workers:
                if alive(pid):
                    os.kill(pid, 9)

    def test_auto_counts_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        assert worker_count("auto") == 2

    def test_auto_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        assert worker_count("auto") == 16


class TestFormatColumn:
    """Each distinct flag or integer of a column is formatted once; the
    texts read as str of each value and true/false, value by value."""

    @pytest.mark.parametrize("values", [
        pytest.param(np.array([-14, -11, 0, 3, -14, -11, 3]), id="negative"),
        pytest.param(np.tile(np.arange(9), 5)[::-1], id="labels-0-to-W"),
        pytest.param(np.array([0, 7, 2**62 + 1, 7, -(2**63)]), id="large"),
        pytest.param(np.array([], dtype=np.int64), id="empty"),
        pytest.param(np.array([3, -2, 3], dtype=np.int32), id="int32"),
        pytest.param(np.array([2**64 - 1, 0], dtype=np.uint64), id="uint64"),
    ])
    def test_integers_read_as_str(self, values):
        assert cli._format_column(values) == [str(v) for v in values.tolist()]

    @pytest.mark.parametrize("values", [
        pytest.param(np.array([True, False, False, True, True]), id="mixed"),
        pytest.param(np.ones(5, dtype=bool), id="all-true"),
        pytest.param(np.zeros(5, dtype=bool), id="all-false"),
        pytest.param(np.array([], dtype=bool), id="empty"),
        pytest.param(np.array([True, False, True, True, False, False])[::2],
                     id="strided"),
    ])
    def test_flags_read_as_true_false(self, values):
        assert cli._format_column(values) == [
            "true" if v else "false" for v in values.tolist()]


class TestCsvDigest:
    """write_csv returns the blake2b of the bytes it writes, the header and
    every text; the final manifest's csv_blake2b is that digest."""

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "x.csv"
        assert write_csv(path, ("a", "b"), []) == _blake2b(path)
        assert path.read_bytes() == b"a,b\n"

    @pytest.mark.parametrize("command, doc, workers", [
        pytest.param("static-phase", TINY_STATIC, 1, id="static-w1"),
        pytest.param("static-phase", TINY_STATIC, 2, id="static-w2"),
        pytest.param("effective-params", {**TINY_DRIVEN, "sweep": [
            {"parameter": "omega_D", "start": 0.1, "stop": 2.0, "points": 40}]},
            1, id="effective"),
        pytest.param("echo", TINY_ECHO, 1, id="echo"),
    ])
    def test_manifest_digest_is_the_csvs(self, tmp_path, monkeypatch, capsys,
                                         command, doc, workers):
        if command == "static-phase":
            _chunk_by_rows(monkeypatch, doc)
        cfg = parse_config(doc)
        assert run_command(command, cfg, out_dir=tmp_path, workers=workers) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["csv_blake2b"] == _blake2b(tmp_path / cli._CSV_NAME[command])
        capsys.readouterr()
        assert run_command(command, cfg, out_dir=tmp_path, workers=workers) == 0
        assert "cache hit" in capsys.readouterr().out

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resumed_run_digests_its_head(self, tmp_path, monkeypatch, workers):
        _chunk_by_rows(monkeypatch, MANY_CHUNKS["static-phase"])
        cfg = parse_config(MANY_CHUNKS["static-phase"])
        _interrupt("static-phase", cfg, tmp_path, 3)
        assert run_command("static-phase", cfg, out_dir=tmp_path,
                           workers=workers) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["csv_blake2b"] == _blake2b(tmp_path / "grid.csv")


class TestMainEntry:
    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_workers_flag_below_one_exits_1(self, tmp_path, capsys, workers):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(TINY_STATIC))
        out = tmp_path / "out"
        assert main(["static-phase", "--config", str(cfg_path), "--out", str(out),
                     "--workers", workers]) == 1
        assert "workers must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["bogus"],
        ["static-phase", "--nope"],
        ["static-phase", "--workers", "abc"],
    ])
    def test_usage_error_exits_1(self, tmp_path, capsys, argv):
        # exit 2 is kept for runtime failures
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: lambdajc") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: lambdajc")

    def test_workers_flag_takes_auto(self, monkeypatch):
        taken = []
        monkeypatch.setattr(cli, "run_command",
                            lambda *args, **kw: taken.append(kw["workers"]) or 0)
        assert main(["static-phase", "--workers", "auto"]) == 0
        assert taken == [worker_count("auto")]

    def test_one_point_axis_ignores_its_stop(self, tmp_path):
        # a one-point axis sweeps its start alone, so its stop goes unchecked
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sweep": [
            {"start": 1.0, "stop": -5.0, "points": 1, "parameter": "g1"},
            {"start": 0.0, "stop": 1.0, "points": 3, "parameter": "g2"}]}))
        out = tmp_path / "out"
        assert main(["static-phase", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = (out / "grid.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:4] for row in rows] == [
            ["g1", "1", "g2", value] for value in ("0", "0.5", "1")]

    def test_retired_sideband_eps_key_exits_1(self, tmp_path, capsys):
        # truncation.sideband_eps changed no output since the closed-form
        # sidebands and is no longer a config key
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**TINY_STATIC,
                                        "truncation": {"sideband_eps": 1e-9}}))
        out = tmp_path / "out"
        assert main(["static-phase", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "unknown key 'sideband_eps' in truncation" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_imports_no_scipy(self):
        # numpy is the only runtime dependency; scipy serves the tests alone
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, lambdajc.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_effective_params_of_model_axis_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sweep": [
            {"start": 0.0, "stop": 1.0, "points": 3, "parameter": "g1"}]}))
        out = tmp_path / "out"
        assert main(["effective-params", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "effective-params sweeps omega_D or A_D" in capsys.readouterr().err
        assert not out.exists()

    def test_out_below_a_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(TINY_STATIC))
        assert main(["static-phase", "--config", str(cfg_path),
                     "--out", str(tmp_path / "file" / "out")]) == 2
        assert "cannot create output directory" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["static-phase", "--config", str(tmp_path / "nope.json")]) == 1

    def test_bad_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"model": {"omega3": 1}}')
        assert main(["static-phase", "--config", str(path)]) == 1
        assert "omega3" in capsys.readouterr().err

    def test_non_utf8_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"model": {}}\xff')
        out = tmp_path / "out"
        assert main(["static-phase", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {path}: 'utf-8' codec")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("path, where", [
        (("sweep", 0, "name"), "sweep[0].name"), (("output",), "output")])
    def test_lone_surrogate_exits_1(self, tmp_path, capsys, monkeypatch, path, where):
        # JSON text may escape a lone surrogate, which UTF-8 cannot encode,
        # so no CSV field, manifest or path could hold it
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(_set(TINY_STATIC, path, "x\ud800")))
        assert main(["static-phase", "--config", "cfg.json"]) == 1
        err = capsys.readouterr().err
        assert err == (f"configuration error: {where} holds a lone surrogate, "
                       "which UTF-8 cannot encode: 'x\\ud800'\n")
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_lone_surrogate_key_rejected(self):
        with pytest.raises(ConfigError, match="^a key of model holds a lone surrogate"):
            parse_config({"model": {"g\ud800": 1.0}})

    def test_env_var_output_dir(self, tmp_path):
        # without --out, the config's output directory is used
        target = tmp_path / "from_config"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**TINY_STATIC, "output": str(target)}))
        assert main(["static-phase", "--config", str(cfg_path)]) == 0
        assert (target / "grid.csv").exists()

    def test_out_flag_beats_env(self, tmp_path):
        # --out wins over the config's output directory, which is not made
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**TINY_STATIC,
                                        "output": str(tmp_path / "config_dir")}))
        out = tmp_path / "flag_dir"
        assert main(["static-phase", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        assert (out / "grid.csv").exists()
        assert not (tmp_path / "config_dir").exists()

    def test_empty_out_flag_exits_1(self, tmp_path, capsys, monkeypatch):
        # as "output": "" is refused, so is --out "", which would be the
        # working directory
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(TINY_STATIC))
        assert main(["static-phase", "--config", str(cfg_path), "--out", ""]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["configuration error: output must be a non-empty directory path"]
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_console_script_runs(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(TINY_STATIC))
        proc = subprocess.run(
            [sys.executable, "-m", "lambdajc.cli", "static-phase",
             "--config", str(cfg_path), "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")})
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "grid.csv").exists()
