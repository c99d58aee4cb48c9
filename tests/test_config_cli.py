import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lambdajc import cli, spectrum
from lambdajc.cli import (
    OUTPUT_ENV_VAR,
    _load_ledger,
    main,
    run_command,
    write_csv,
)
from lambdajc.config import ConfigError, config_hash, parse_config, worker_count
from lambdajc.dynamics import EchoResult
from lambdajc.params import SystemParams

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
    runner has made the ledger entries of `after` chunks."""
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


class TestParseConfig:
    def test_empty_document_gives_defaults(self):
        cfg = parse_config({})
        assert cfg.model == SystemParams(omega1=0.5, omega2=0.25,
                                         Omega1=1.25, Omega2=1.0,
                                         g1=0.05, g2=0.05)
        assert cfg.drive is None
        assert cfg.truncation.n_c1 == 6 and cfg.truncation.n_c2 == 6
        assert cfg.truncation.window_for(driven=False) == 8
        assert cfg.truncation.window_for(driven=True) == 5
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

    def test_bad_axis_parameter(self):
        with pytest.raises(ConfigError, match="parameter"):
            parse_config({"sweep": [{"start": 0, "stop": 1, "points": 3,
                                     "parameter": "g3"}]})

    def test_bad_pair(self):
        with pytest.raises(ConfigError, match="pair"):
            parse_config({"dynamics": {"pair": "both"}})

    def test_bad_initial_state(self):
        with pytest.raises(ConfigError, match="initial_state"):
            parse_config({"dynamics": {"initial_state": "4"}})

    def test_explicit_block_window_respected(self):
        cfg = parse_config({"truncation": {"block_window": 11}})
        assert cfg.truncation.window_for(driven=True) == 11


class TestConfigHash:
    def test_identical_configs_identical_hash(self):
        assert config_hash(parse_config({})) == config_hash(parse_config({}))
        assert config_hash(parse_config(TINY_STATIC)) == config_hash(
            parse_config(json.loads(json.dumps(TINY_STATIC))))

    def test_numeric_normalization(self):
        a = parse_config({"model": {"g1": 1}})
        b = parse_config({"model": {"g1": 1.0}})
        assert config_hash(a) == config_hash(b)

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
            "workers": 2,
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
        ({}, "24c2ca7fff7381d3"),
        ({"model": {"g1": 0.05, "g2": 0.05},
          "drive": {"amplitude": 0.036, "frequency": 0.18},
          "truncation": {"block_window": 5},
          "sweep": [
              {"name": "A_D", "start": 0.0, "stop": 0.45, "points": 151,
               "parameter": "A_D"},
              {"name": "Omega2", "start": 0.985, "stop": 1.0, "points": 61,
               "parameter": "Omega2"}],
          "output": "runs/driven"}, "e883844714d2cdfd"),
        ({"model": {"g1": 0.05, "g2": 0.05},
          "drive": {"amplitude": 0.036, "frequency": 0.18},
          "truncation": {"n_c1": 6, "n_c2": 6},
          "dynamics": {"t_max": 200.0, "samples": 2000, "initial_state": "2",
                       "pair": "rotated"},
          "output": "runs/echo"}, "d40d00090bd02690"),
        ({"drive": {"amplitude": 0.036, "frequency": 0.18},
          "sweep": [{"name": "omega_D", "start": 0.05, "stop": 6.0,
                     "points": 2400, "parameter": "omega_D"}],
          "output": "runs/effective"}, "9f4ec3a8d0b7c136"),
        ({"model": {"omega1": 0.5, "omega2": 0.25, "Omega1": 1.25, "Omega2": 1.0},
          "truncation": {"block_window": 8},
          "sweep": [
              {"name": "g1", "start": 0.0, "stop": 5.625, "points": 301,
               "parameter": "g1"},
              {"name": "g2", "start": 0.0, "stop": 4.5, "points": 301,
               "parameter": "g2"}],
          "output": "runs/static"}, "d36f12cb2dae6281"),
    ], ids=["empty", "driven", "echo", "effective", "static"])
    def test_hash_is_pinned(self, doc, digest):
        # a cache key that drifts silently recomputes every stored run
        assert config_hash(parse_config(doc)) == digest


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
        echo = EchoResult(
            times=np.array([0.0, 1.0, 2.0]),
            fidelity=np.array([1.0, 0.999, 0.998]),
            norm_a=np.ones(3), norm_b=np.ones(3),
            leakage_series=np.zeros(3), norm_drift=0.0, leakage=0.0)
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
        assert manifest["config_hash"] == config_hash(cfg)
        assert not (tmp_path / "cells.jsonl").exists()

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
            "grid.csv", "manifest.json", "cells.jsonl"}

    @pytest.mark.parametrize("section, key, value", [
        ("workers", None, 2),
        ("output", None, "elsewhere"),
    ])
    def test_inert_field_change_is_cache_hit(self, tmp_path, capsys,
                                             section, key, value):
        cfg = parse_config(TINY_STATIC)
        assert run_command("static-phase", cfg, out_dir=tmp_path, workers=1) == 0
        first = (tmp_path / "grid.csv").read_bytes()
        mtime = (tmp_path / "grid.csv").stat().st_mtime_ns
        doc = json.loads(json.dumps(TINY_STATIC))
        if key is None:
            doc[section] = value
        else:
            doc[section] = {key: value}
        capsys.readouterr()
        assert run_command("static-phase", parse_config(doc), out_dir=tmp_path,
                           workers=1) == 0
        assert "cache hit" in capsys.readouterr().out
        assert (tmp_path / "grid.csv").read_bytes() == first
        assert (tmp_path / "grid.csv").stat().st_mtime_ns == mtime

    @pytest.mark.parametrize("text", ["[]", '"done"', "3"])
    def test_non_object_manifest_is_recomputed(self, tmp_path, capsys, text):
        cfg = parse_config(TINY_STATIC)
        (tmp_path / "manifest.json").write_text(text)
        assert run_command("static-phase", cfg, out_dir=tmp_path) == 0
        assert "cache hit" not in capsys.readouterr().out
        assert len((tmp_path / "grid.csv").read_text().splitlines()) == 1 + 9 * 7
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(cfg)

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

    def test_resume_after_interrupt(self, tmp_path):
        cfg = parse_config(TINY_STATIC)
        run_command("static-phase", cfg, out_dir=tmp_path / "full")
        _interrupt("static-phase", cfg, tmp_path / "part", 3)
        assert (tmp_path / "part" / "cells.jsonl").exists()
        assert run_command("static-phase", cfg, out_dir=tmp_path / "part") == 0
        assert ((tmp_path / "part" / "grid.csv").read_bytes()
                == (tmp_path / "full" / "grid.csv").read_bytes())

    def test_interrupted_run_leaves_no_csv_and_no_temp_file(self, tmp_path):
        cfg = parse_config(TINY_STATIC)
        _interrupt("static-phase", cfg, tmp_path, 3)
        assert {p.name for p in tmp_path.iterdir()} == {"manifest.json", "cells.jsonl"}

    def test_rows_stream_into_the_csv_as_they_land(self, tmp_path, monkeypatch):
        # a resumed run: rows 0-2 come from the ledger, the rest are computed
        cfg = parse_config(TINY_STATIC)
        _interrupt("static-phase", cfg, tmp_path / "part", 3)
        events = []
        real_row, real_write = cli.compute_grid_row, cli.write_csv

        def counted(*args):
            events.append(f"row {args[-1]}")
            return real_row(*args)

        def watched(path, columns, texts):
            def each():
                for text in texts:
                    events.append("text")
                    yield text
            return real_write(path, columns, each())

        monkeypatch.setattr(cli, "compute_grid_row", counted)
        monkeypatch.setattr(cli, "write_csv", watched)
        assert run_command("static-phase", cfg, out_dir=tmp_path / "part") == 0
        # each row's text is written before the next row is computed
        assert events == ["text"] * 3 + [e for i in range(3, 9)
                                         for e in (f"row {i}", "text")]
        monkeypatch.undo()
        assert run_command("static-phase", cfg, out_dir=tmp_path / "full") == 0
        assert ((tmp_path / "part" / "grid.csv").read_bytes()
                == (tmp_path / "full" / "grid.csv").read_bytes())

    def test_driven_resume_after_interrupt(self, tmp_path):
        cfg = parse_config(TINY_DRIVEN)
        run_command("driven-phase", cfg, out_dir=tmp_path / "full")
        _interrupt("driven-phase", cfg, tmp_path / "part", 2)
        manifest = json.loads((tmp_path / "part" / "manifest.json").read_text())
        assert manifest["deviations"] == ["interrupted"]
        assert manifest["cells_done"] == 2 * 4
        assert sorted(_load_ledger(tmp_path / "part", config_hash(cfg))) == [0, 1]
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

    def test_interrupted_ledger_not_resumed_by_other_command(self, tmp_path):
        cfg = parse_config(TINY_STATIC)
        run_command("driven-phase", cfg, out_dir=tmp_path / "fresh")
        _interrupt("static-phase", cfg, tmp_path / "part", 3)
        assert run_command("driven-phase", cfg, out_dir=tmp_path / "part") == 0
        assert ((tmp_path / "part" / "grid.csv").read_bytes()
                == (tmp_path / "fresh" / "grid.csv").read_bytes())

    @pytest.mark.parametrize("manifest", ["removed", "not_an_object"])
    def test_foreign_ledger_without_manifest_is_not_resumed(self, tmp_path,
                                                            manifest):
        # the command is not in the config hash, so only the manifest tells
        # a static-phase ledger from a driven-phase one
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

    def test_torn_ledger_tail_keeps_complete_lines(self, tmp_path):
        cfg = parse_config(TINY_STATIC)
        run_command("static-phase", cfg, out_dir=tmp_path / "full")
        _interrupt("static-phase", cfg, tmp_path / "part", 3)
        ledger = tmp_path / "part" / "cells.jsonl"
        with open(ledger, "a", encoding="utf-8") as fh:
            fh.write('{"config_hash": "' + config_hash(cfg) + '", "chunk": 3, "te')
        assert sorted(_load_ledger(tmp_path / "part", config_hash(cfg))) == [0, 1, 2]
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

    def test_effective_params_worker_count_does_not_change_bytes(self, tmp_path):
        cfg = parse_config({
            "drive": {"amplitude": 0.09, "frequency": 0.18},
            "sweep": [{"name": "omega_D", "start": 0.1, "stop": 2.0,
                       "points": 600, "parameter": "omega_D"}],
        })
        assert 600 > 2 * cli.EFFECTIVE_CHUNK
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

    def test_effective_params_resume(self, tmp_path):
        doc = {
            "drive": {"amplitude": 0.09, "frequency": 0.18},
            "sweep": [{"name": "omega_D", "start": 0.1, "stop": 2.0,
                       "points": 700, "parameter": "omega_D"}],
        }
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
        # the 1e-12 representation rule
        cfg = parse_config({"truncation": {"n_c1": 1, "n_c2": 1},
                            "dynamics": {"t_max": 5.0, "samples": 10}})
        assert run_command("echo", cfg, out_dir=tmp_path) == 1
        assert "cutoff" in capsys.readouterr().err

    def test_echo_dt_max_past_sampling_bound_is_config_error(self, tmp_path,
                                                             capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"dynamics": {"t_max": 5.0, "samples": 11, "dt_max": 5.0}}))
        out = tmp_path / "out"
        assert main(["echo", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "dt_max" in capsys.readouterr().err
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

    def test_effective_echo_takes_any_dt_max(self, tmp_path):
        # neither effective branch oscillates, so no dt_max is past a bound
        cfg = parse_config({"truncation": {"n_c1": 2, "n_c2": 2},
                            "dynamics": {"t_max": 5.0, "samples": 11,
                                         "dt_max": 5.0, "pair": "effective"}})
        assert run_command("echo", cfg, out_dir=tmp_path) == 0

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

#: A static grid of one-cell rows.
ONE_POINT_AXIS2 = {"sweep": [GRID_5X4["sweep"][0],
                             {**GRID_5X4["sweep"][1], "stop": 0.0, "points": 1}]}

SAMPLES = Path(__file__).parent.parent / "configs"


def _blake2b(path: Path) -> str:
    return hashlib.blake2b(path.read_bytes()).hexdigest()


def _rewrite_ledger(path: Path, change):
    """Apply change(entry) to every cells.jsonl entry in place."""
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    for entry in entries:
        change(entry)
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))


def _records(entry: dict) -> list[list[str]]:
    """The fields of each CSV record of a ledger entry's text, whose axis
    names hold no comma or quote."""
    return [line.split(",") for line in entry["text"].splitlines()]


def _text(records: list[list[str]]) -> str:
    return "".join(",".join(record) + "\n" for record in records)


TINY_ECHO = {"truncation": {"n_c1": 3, "n_c2": 3},
             "dynamics": {"t_max": 10.0, "samples": 20}}


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

    def test_ledger_entry_of_other_output_version_is_recomputed(self, tmp_path):
        cfg = parse_config(TINY_STATIC)
        run_command("static-phase", cfg, out_dir=tmp_path / "full")
        _interrupt("static-phase", cfg, tmp_path / "part", 3)
        ledger = tmp_path / "part" / "cells.jsonl"

        def stale(entry):
            # what an older program wrote: other numbers, no current version
            entry.pop("output_version", None)
            records = _records(entry)
            for record in records:
                record[4] = "0"
            entry["text"] = _text(records)
        _rewrite_ledger(ledger, stale)
        assert _load_ledger(tmp_path / "part", config_hash(cfg)) == {}
        assert run_command("static-phase", cfg, out_dir=tmp_path / "part") == 0
        assert ((tmp_path / "part" / "grid.csv").read_bytes()
                == (tmp_path / "full" / "grid.csv").read_bytes())


class TestLedgerShape:
    """A ledger entry is resumed only if it is a whole record of its chunk:
    its stated rows, one count in [0, rows] per audit, and a text of that
    many newline-ended CSV records of one field per column."""

    def test_short_chunk_is_recomputed(self, tmp_path, capsys):
        cfg = parse_config(GRID_5X4)
        run_command("static-phase", cfg, out_dir=tmp_path / "full")
        _interrupt("static-phase", cfg, tmp_path / "part", 1)
        ledger = tmp_path / "part" / "cells.jsonl"

        def short(entry):
            # a consistent record of two cells, where the chunk has four
            entry["text"] = _text(_records(entry)[:2])
            entry["rows"] = 2
            entry["counts"] = [min(c, 2) for c in entry["counts"]]
        _rewrite_ledger(ledger, short)
        capsys.readouterr()
        assert run_command("static-phase", cfg, out_dir=tmp_path / "part") == 0
        assert "20 cells" in capsys.readouterr().out
        grid = tmp_path / "part" / "grid.csv"
        assert len(grid.read_text().splitlines()) == 1 + 20
        assert grid.read_bytes() == (tmp_path / "full" / "grid.csv").read_bytes()
        manifest = json.loads((tmp_path / "part" / "manifest.json").read_text())
        assert manifest["csv_blake2b"] == _blake2b(tmp_path / "full" / "grid.csv")

    @pytest.mark.parametrize("corrupt", [
        "missing_column", "extra_column", "two_dimensional", "chunk_out_of_range",
        "negative_chunk", "bool_count", "text_label", "bool_chunk", "float_rows",
        "short_text", "blank_line", "unterminated_text", "text_not_string",
        "count_above_rows", "negative_count", "missing_count"])
    def test_malformed_entry_is_recomputed(self, tmp_path, corrupt):
        cfg = parse_config(GRID_5X4)
        run_command("static-phase", cfg, out_dir=tmp_path / "full")
        _interrupt("static-phase", cfg, tmp_path / "part", 2)
        ledger = tmp_path / "part" / "cells.jsonl"

        def change(entry):
            records = _records(entry)
            if corrupt == "missing_column":
                for record in records:
                    del record[8]
            elif corrupt == "extra_column":
                for record in records:
                    record.append(record[8])
            elif corrupt == "text_label":
                # an unquoted comma splits the field in two
                for record in records:
                    record[5] = "x,y"
            elif corrupt == "short_text":
                del records[-1]
            elif corrupt == "blank_line":
                records.append([])
            elif corrupt == "two_dimensional":
                entry["counts"] = [entry["counts"]]
            elif corrupt == "chunk_out_of_range":
                entry["chunk"] += 5
            elif corrupt == "negative_chunk":
                entry["chunk"] -= 2
            elif corrupt == "bool_count":
                # false equals 0, but is not a JSON integer
                entry["counts"] = [c == 0 for c in entry["counts"]]
            elif corrupt == "float_rows":
                entry["rows"] = float(entry["rows"])
            elif corrupt == "count_above_rows":
                entry["counts"][0] = entry["rows"] + 1
            elif corrupt == "negative_count":
                entry["counts"][1] = -1
            elif corrupt == "missing_count":
                del entry["counts"][-1]
            elif corrupt == "bool_chunk":
                # chunks 0 and 1 filed as true and false, which equal 1 and
                # 0, each other's index
                entry["chunk"] = entry["chunk"] == 0
            entry["text"] = _text(records)
            if corrupt == "unterminated_text":
                # the next chunk's first record would run on from this one
                entry["text"] = entry["text"][:-1]
            elif corrupt == "text_not_string":
                entry["text"] = entry["text"].splitlines(keepends=True)
        _rewrite_ledger(ledger, change)
        assert run_command("static-phase", cfg, out_dir=tmp_path / "part") == 0
        assert ((tmp_path / "part" / "grid.csv").read_bytes()
                == (tmp_path / "full" / "grid.csv").read_bytes())

    def test_old_format_entry_is_recomputed(self, tmp_path, monkeypatch):
        # earlier releases of this output version recorded a chunk's columns
        # under "data" and no text
        cfg = parse_config(GRID_5X4)
        run_command("static-phase", cfg, out_dir=tmp_path / "full")
        _interrupt("static-phase", cfg, tmp_path / "part", 2)
        sweep = cli._sweep("static-phase", cfg, cli._resolve_axes("static-phase", cfg))

        def old(entry):
            columns = sweep.compute(entry["chunk"])
            for key in ("rows", "counts", "text"):
                del entry[key]
            entry["data"] = {k: np.asarray(v).tolist() for k, v in columns.items()}
        _rewrite_ledger(tmp_path / "part" / "cells.jsonl", old)
        rows = []
        real = cli.compute_grid_row

        def counted(*args):
            rows.append(args[-1])
            return real(*args)
        monkeypatch.setattr(cli, "compute_grid_row", counted)
        assert run_command("static-phase", cfg, out_dir=tmp_path / "part") == 0
        assert rows == [0, 1, 2, 3, 4]
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
    def test_ledger_entries_fit_their_sweep(self, command, doc):
        # a fit rule that disagreed with the entries the runner writes
        # would recompute every resumed chunk
        cfg = parse_config(doc)
        sweep = cli._sweep(command, cfg, cli._resolve_axes(command, cfg))
        todo = dict(enumerate(sweep.chunks))
        # as the ledger stores and loads them
        entries = [json.loads(json.dumps(e))
                   for e in cli._run_chunks(sweep, "digest", todo, 1)]
        assert [e["chunk"] for e in entries] == list(todo)
        assert all(sweep.fits(e["chunk"], e) for e in entries)

    def test_valid_entries_are_reused(self, tmp_path, monkeypatch):
        cfg = parse_config(GRID_5X4)
        _interrupt("static-phase", cfg, tmp_path, 3)
        rows = []
        real = cli.compute_grid_row

        def counted(*args):
            rows.append(args[-1])
            return real(*args)
        monkeypatch.setattr(cli, "compute_grid_row", counted)
        assert run_command("static-phase", cfg, out_dir=tmp_path) == 0
        assert rows == [3, 4]


class TestCsvQuoting:
    def test_text_fields_round_trip_through_csv_reader(self, tmp_path):
        doc = json.loads(json.dumps(TINY_STATIC))
        doc["sweep"][0]["name"] = "g1,x"
        doc["sweep"][1]["name"] = 'say "g2"'
        assert run_command("static-phase", parse_config(doc), out_dir=tmp_path) == 0
        with open(tmp_path / "grid.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 9 * 7
        assert {len(row) for row in rows} == {12}
        assert {(row[0], row[2]) for row in rows[1:]} == {("g1,x", 'say "g2"')}

    def test_quoted_axis_names_resume(self, tmp_path, monkeypatch):
        # a quoted field holds a comma or a doubled quote, and is still one
        # field of the record a ledger entry must hold
        doc = json.loads(json.dumps(GRID_5X4))
        doc["sweep"][0]["name"] = "g1,x"
        doc["sweep"][1]["name"] = 'say "g2"'
        cfg = parse_config(doc)
        run_command("static-phase", cfg, out_dir=tmp_path / "full")
        _interrupt("static-phase", cfg, tmp_path / "part", 2)
        rows = []
        real = cli.compute_grid_row

        def counted(*args):
            rows.append(args[-1])
            return real(*args)
        monkeypatch.setattr(cli, "compute_grid_row", counted)
        assert run_command("static-phase", cfg, out_dir=tmp_path / "part") == 0
        assert rows == [2, 3, 4]
        for name in ("grid.csv", "manifest.json"):
            assert ((tmp_path / "part" / name).read_bytes()
                    == (tmp_path / "full" / name).read_bytes())

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
         "01b2d64420b46f043697ab55560448a14ed7635b649af36ad1653d2cbae1740a"
         "d18bbf2a1c40b4afdf87bef920aedc8d84aeb17327677d9bd66c7297acdaf0df"),
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
        assert not (out / "manifest.json").exists()
        assert not (out / "cells.jsonl").exists()

    def test_static_phase_ignores_drive(self, tmp_path):
        cfg = parse_config({"drive": {"amplitude": 60.0, "frequency": 0.1},
                            **TINY_STATIC})
        assert run_command("static-phase", cfg, out_dir=tmp_path) == 0


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
        assert [(ax.name, ax.parameter, ax.start, ax.stop, ax.points)
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
#: interrupt at 3: more than BATCHES_PER_WORKER per worker of a two-worker
#: pool, which then sends batches of several chunks.
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

#: Each MANY_CHUNKS sweep, by its command, and DRIVEN_AUDITS.
MIXED_RESUME = {**{command: (command, doc) for command, doc in MANY_CHUNKS.items()},
                "driven-phase-audits": ("driven-phase", DRIVEN_AUDITS)}


class TestPool:
    """The pool's map sends contiguous batches of chunks whose ledger
    entries, CSV text included, the workers make, and hands them back in
    chunk order; resumed entries are written verbatim."""

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
    def test_mixed_resume_matches_one_shot_run(self, tmp_path, pool_sizes, case):
        command, doc = MIXED_RESUME[case]
        cfg = parse_config(doc)
        sweep = cli._sweep(command, cfg, cli._resolve_axes(command, cfg))
        assert len(sweep.chunks) - 3 > cli.BATCHES_PER_WORKER * 2
        assert run_command(command, cfg, out_dir=tmp_path / "full", workers=1) == 0
        _interrupt(command, cfg, tmp_path / "part", 3)
        assert run_command(command, cfg, out_dir=tmp_path / "part", workers=2) == 0
        assert pool_sizes == [2]
        for name in (cli._CSV_NAME[command], "manifest.json"):
            assert ((tmp_path / "part" / name).read_bytes()
                    == (tmp_path / "full" / name).read_bytes())
        if case == "driven-phase-audits":
            deviations = json.loads((tmp_path / "part" / "manifest.json")
                                    .read_text())["deviations"]
            assert [line.split()[0] for line in deviations] == [
                "52/52", "18/52", "52/52"]

    def test_resume_reports_the_chunks_it_resumed(self, tmp_path, capsys):
        cfg = parse_config(MANY_CHUNKS["static-phase"])
        assert run_command("static-phase", cfg, out_dir=tmp_path / "full") == 0
        assert "resumed" not in capsys.readouterr().out
        _interrupt("static-phase", cfg, tmp_path / "part", 3)
        capsys.readouterr()
        assert run_command("static-phase", cfg, out_dir=tmp_path / "part") == 0
        assert "resumed 3 of 13 chunks from cells.jsonl" in capsys.readouterr().out

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resumed_chunks_are_written_verbatim(self, tmp_path, monkeypatch,
                                                 workers):
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
        # the parent formats the ten chunks it computes itself, none it resumes
        computed = 10 if workers == 1 else 0
        assert len(calls) == computed * len(cli.GRID_CSV_COLUMNS)

    # three workers cut the 13 chunks into batches of another size
    @pytest.mark.parametrize("command, workers", [
        pytest.param(command, workers, id=command if workers == 2 else f"{command}-3")
        for workers in (2, 3) for command in sorted(MANY_CHUNKS)])
    def test_pool_results_match_sequential(self, command, workers):
        cfg = parse_config(MANY_CHUNKS[command])
        sweep = cli._sweep(command, cfg, cli._resolve_axes(command, cfg))
        todo = dict(enumerate(sweep.chunks))

        def run(workers):
            return list(cli._run_chunks(sweep, "digest", todo, workers))

        sequential, pooled = run(1), run(workers)
        assert [e["chunk"] for e in sequential] == list(todo)
        assert pooled == sequential
        for entry in sequential:
            columns = sweep.compute(sweep.chunks[entry["chunk"]])
            assert entry["text"] == cli._chunk_text(
                [columns[k] for k in sweep.csv_columns])
            assert entry["rows"] == sweep.sizes[entry["chunk"]]

    def test_pool_has_no_more_workers_than_batches(self, tmp_path, pool_sizes):
        three_rows = json.loads(json.dumps(GRID_5X4))
        three_rows["sweep"][0]["points"] = 3
        cfg = parse_config(three_rows)
        assert run_command("static-phase", cfg, out_dir=tmp_path / "w8",
                           workers=8) == 0
        assert pool_sizes == [3]
        assert run_command("static-phase", cfg, out_dir=tmp_path / "w1",
                           workers=1) == 0
        assert ((tmp_path / "w8" / "grid.csv").read_bytes()
                == (tmp_path / "w1" / "grid.csv").read_bytes())

    def test_resume_pool_has_no_more_workers_than_chunks_left(self, tmp_path,
                                                              pool_sizes):
        cfg = parse_config(GRID_5X4)
        _interrupt("static-phase", cfg, tmp_path, 3)
        assert run_command("static-phase", cfg, out_dir=tmp_path, workers=8) == 0
        assert pool_sizes == [2]

    def test_dead_worker_exits_2_and_keeps_finished_chunks(self, tmp_path,
                                                           monkeypatch, capsys):
        cfg = parse_config(MANY_CHUNKS["static-phase"])
        assert run_command("static-phase", cfg, out_dir=tmp_path / "full") == 0
        real = spectrum.compute_grid_row

        def dying(*args):
            if args[-1] == 5:
                os._exit(1)  # as a worker killed by the OOM killer
            return real(*args)

        # pickled by name, so forked workers look it up in the patched module
        dying.__module__, dying.__qualname__ = real.__module__, real.__qualname__
        monkeypatch.setattr(spectrum, "compute_grid_row", dying)
        monkeypatch.setattr(cli, "compute_grid_row", dying)
        out = tmp_path / "part"
        capsys.readouterr()
        assert run_command("static-phase", cfg, out_dir=out, workers=2) == 2
        assert "error: " in capsys.readouterr().err
        # the worker that runs row 5 has finished an earlier batch
        recorded = sorted(_load_ledger(out, config_hash(cfg)))
        assert recorded and 5 not in recorded
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["cells_done"] == 4 * len(recorded)
        assert manifest["csv_blake2b"] is None
        monkeypatch.undo()

        rows = []

        def counted(*args):
            rows.append(args[-1])
            return real(*args)
        monkeypatch.setattr(cli, "compute_grid_row", counted)
        assert run_command("static-phase", cfg, out_dir=out) == 0
        assert rows == [i for i in range(13) if i not in recorded]
        for name in ("grid.csv", "manifest.json"):
            assert (out / name).read_bytes() == (tmp_path / "full" / name).read_bytes()

    def test_auto_counts_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        assert worker_count("auto") == 2

    def test_auto_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        assert worker_count("auto") == 16


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

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["static-phase", "--config", str(tmp_path / "nope.json")]) == 1

    def test_bad_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"model": {"omega3": 1}}')
        assert main(["static-phase", "--config", str(path)]) == 1
        assert "omega3" in capsys.readouterr().err

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(target))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(TINY_STATIC))
        assert main(["static-phase", "--config", str(cfg_path)]) == 0
        assert (target / "grid.csv").exists()

    def test_out_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path / "env_dir"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(TINY_STATIC))
        out = tmp_path / "flag_dir"
        assert main(["static-phase", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        assert (out / "grid.csv").exists()
        assert not (tmp_path / "env_dir").exists()

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
