"""In-process tests of the command-line interface."""

import json
import sys

import pytest

import reflectmimo.cli
import reflectmimo.config
import reflectmimo.output
from reflectmimo.cli import main

def _refuse_work(monkeypatch):
    """Make the experiment runner and the convergence study fail if called."""
    def never(*args, **kwargs):
        raise AssertionError("computed before the output path was checked")

    monkeypatch.setattr(reflectmimo.cli, "run_named", never)
    monkeypatch.setattr(reflectmimo.cli, "convergence_study", never)


def _unusable_out(tmp_path, below):
    """An existing empty file, or a path under it when ``below``."""
    existing = tmp_path / "some.json"
    existing.write_text("")
    return existing, (existing / "sub" / "dir" if below else existing)


SMALL_CONFIG = """\
# desk-scale run
d1_m = 1.0
range_m = 0.6
antennas = 2
materials = perfect_conductor
snr_grid_db = 0
"""


class TestRun:
    def test_run_fig2_csv(self, tmp_path, capsys):
        out = tmp_path / "a"
        assert main(["run", "fig2", "--out", str(out)]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert printed == [str(out / "fig2_eigenvalues.csv")]
        lines = (out / "fig2_eigenvalues.csv").read_text().splitlines()
        assert lines[0] == "material,spacing_rule,index,lambda,lambda_db"
        assert len(lines) == 1 + 40

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        for sub in ("a", "b"):
            assert main(["run", "fig2", "--out", str(tmp_path / sub)]) == 0
        capsys.readouterr()
        a = (tmp_path / "a" / "fig2_eigenvalues.csv").read_bytes()
        b = (tmp_path / "b" / "fig2_eigenvalues.csv").read_bytes()
        assert a == b

    def test_config_file_honored_and_echoed(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CONFIG)
        out = tmp_path / "out"
        code = main([
            "run", "fig2", "--config", str(cfg),
            "--out", str(out), "--format", "json",
        ])
        assert code == 0
        capsys.readouterr()
        payload = json.loads((out / "fig2.json").read_text())
        assert payload["provenance"]["config_text"] == SMALL_CONFIG
        rows = payload["tables"][0]["rows"]
        assert len(rows) == 2 * 2
        assert {row[0] for row in rows} == {"los", "perfect_conductor"}

    def test_json_round_trip_is_byte_identical(self, tmp_path, capsys):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(["run", "fig2", "--format", "json", "--out", str(first)]) == 0
        assert main([
            "run", "fig2", "--config", str(first / "fig2.json"),
            "--format", "json", "--out", str(second),
        ]) == 0
        capsys.readouterr()
        assert (first / "fig2.json").read_bytes() == (
            second / "fig2.json"
        ).read_bytes()

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("antennas = 0\n")
        assert main(["run", "fig2", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        assert "antennas" in err

    @pytest.mark.parametrize("kind", ["missing", "directory", "undecodable"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, kind):
        """A config path that names no text file is an invalid configuration
        naming the path, not a traceback."""
        cfg = {"missing": tmp_path / "absent.txt", "directory": tmp_path,
               "undecodable": tmp_path / "latin.txt"}[kind]
        if kind == "undecodable":
            cfg.write_bytes(b"antennas = 4\xff\n")
        assert main(["run", "fig2", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and repr(str(cfg)) in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("content", ['{"provenance": {"config_text": 5}}',
                                         '{"provenance": '], ids=["number", "malformed"])
    def test_unusable_json_config_exits_2(self, tmp_path, capsys, content):
        cfg = tmp_path / "a.json"
        cfg.write_text(content)
        assert main(["run", "fig2", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and repr(str(cfg)) in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    def test_config_parsed_and_emitted_once(self, tmp_path, capsys, monkeypatch):
        """A run calls the parser and the writer once each through names a
        wrapper can replace, as a profiler that rebinds every module's
        reference to a function does."""
        calls = {"parse_config": 0, "emit": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            for key, namespace in list(sys.modules.items()):
                if key.startswith("reflectmimo") and getattr(namespace, name, None) is original:
                    monkeypatch.setattr(namespace, name, wrapper)

        counted(reflectmimo.config, "parse_config")
        counted(reflectmimo.output, "emit")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CONFIG)
        assert main(["run", "fig2", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert calls == {"parse_config": 1, "emit": 1}

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "some.json"
        out.write_text("")
        assert main(["run", "fresnel_sweep", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out) in err and "Traceback" not in err
        assert out.read_text() == "" and list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("below", [False, True], ids=["file", "under-file"])
    def test_unusable_out_refused_before_computing(self, tmp_path, capsys, monkeypatch, below):
        existing, out = _unusable_out(tmp_path, below)
        _refuse_work(monkeypatch)
        assert main(["run", "fig5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{out}'" in err and "Traceback" not in err
        assert existing.read_text() == "" and list(tmp_path.iterdir()) == [existing]

    def test_repeated_material_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("materials = concrete,concrete\n")
        assert main(["run", "fig2", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and "materials" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("grid", ["3100", "0:inf:2", "-4000", "0:1e12:1e-6"])
    def test_unusable_snr_grid_exits_2(self, tmp_path, capsys, grid):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"snr_grid_db = {grid}\n")
        assert main(["run", "fig5", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and "snr_grid_db" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_unknown_experiment_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["run", "fig9"])


class TestMaterials:
    def test_list_contents(self, capsys):
        assert main(["materials", "list"]) == 0
        out = capsys.readouterr().out
        assert "perfect_conductor" in out
        assert "inf" in out
        assert "concrete" in out
        assert "3.0730" in out
        assert "2.3861" in out
        assert "1.8076" in out

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main(["materials"])


class TestConverge:
    def test_los_trace(self, tmp_path, capsys):
        code = main([
            "converge", "--dz", "0.3", "--lag", "0.05", "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "converged" in out
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        assert lines[0] == "n_alpha,re,im,delta"
        assert len(lines) >= 3
        assert lines[1].endswith(",")
        final_delta = float(lines[-1].rsplit(",", 1)[1])
        assert final_delta < 1e-8

    def test_reflection_trace(self, tmp_path, capsys):
        code = main([
            "converge", "--dz", "0.4", "--lag", "0.0",
            "--material", "perfect_conductor", "--component", "reflection",
            "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        final = lines[-1].split(",")
        assert abs(float(final[2])) + abs(float(final[3])) > 0.0

    @pytest.mark.parametrize(("args", "named"), [
        (["--dz", "-1", "--lag", "0"], "--dz"),
        (["--dz", "inf", "--lag", "0"], "--dz"),
        (["--dz", "nan", "--lag", "0"], "--dz"),
        (["--dz", "0.3", "--lag", "inf"], "--lag"),
        (["--dz", "0.3", "--lag", "nan"], "--lag"),
        (["--dz", "0.3", "--lag", "0", "--frequency-ghz", "inf"], "frequency"),
        (["--dz", "0.3", "--lag", "0", "--rel-tol", "nan"], "--rel-tol"),
    ], ids=["dz-negative", "dz-inf", "dz-nan", "lag-inf", "lag-nan", "frequency-inf", "rel-tol-nan"])
    def test_bad_span_exits_2(self, tmp_path, capsys, args, named):
        assert main(["converge", *args, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "some.json"
        out.write_text("")
        assert main(["converge", "--dz", "0.3", "--lag", "0.05", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out) in err and "Traceback" not in err
        assert out.read_text() == "" and list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("below", [False, True], ids=["file", "under-file"])
    def test_unusable_out_refused_before_computing(self, tmp_path, capsys, monkeypatch, below):
        existing, out = _unusable_out(tmp_path, below)
        _refuse_work(monkeypatch)
        assert main(["converge", "--dz", "0.3", "--lag", "0.05", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{out}'" in err and "Traceback" not in err
        assert existing.read_text() == "" and list(tmp_path.iterdir()) == [existing]

    def test_unknown_material_exits_2(self, capsys):
        code = main(["converge", "--dz", "0.3", "--lag", "0", "--material", "kryptonite"])
        assert code == 2
        assert "error" in capsys.readouterr().err
