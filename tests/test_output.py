"""Tests for deterministic CSV/JSON emission."""

import json

import pytest

from reflectmimo import (
    ArrayLayout,
    ConvergenceRow,
    ConvergenceStudy,
    FieldComponent,
    ResultTable,
    SceneConfig,
    build_channel_matrix,
    channel_matrix_to_json,
    emit,
    results_to_json,
    run_named,
    write_channel_matrix_csv,
    write_convergence_csv,
    write_table_csv,
)
from reflectmimo.config import ExperimentConfig

SMALL = ExperimentConfig(
    d1_m=1.0,
    range_m=0.6,
    antennas=2,
    materials=("perfect_conductor",),
    snr_grid_db=(0.0,),
)


@pytest.fixture(scope="module")
def tiny_channel(vacuum_medium):
    scene = SceneConfig(
        medium=vacuum_medium, surface_z=2.0, source_z=0.0, receiver_z=1.0
    )
    tx = ArrayLayout.along_x(2, 0.1, 0.0)
    rx = ArrayLayout.along_x(2, 0.1, 1.0)
    return build_channel_matrix(scene, tx, rx, FieldComponent.LOS_ONLY)


class TestTableCsv:
    def test_exact_layout(self, tmp_path):
        table = ResultTable(
            name="demo",
            columns=("label", "count", "value"),
            rows=(("a", 3, 0.5), ("b", -1, 1.25)),
        )
        path = write_table_csv(table, tmp_path / "demo.csv")
        assert path.read_text() == "label,count,value\na,3,0.5\nb,-1,1.25\n"

    def test_float_cells_round_trip(self, tmp_path):
        value = 0.1 + 0.2
        table = ResultTable(name="t", columns=("x",), rows=((value,),))
        path = write_table_csv(table, tmp_path / "t.csv")
        text = path.read_text().splitlines()[1]
        assert float(text) == value

    def test_bool_cells(self, tmp_path):
        table = ResultTable(name="t", columns=("flag",), rows=((True,), (False,)))
        path = write_table_csv(table, tmp_path / "t.csv")
        assert path.read_text() == "flag\ntrue\nfalse\n"

    def test_comma_in_cell_rejected(self, tmp_path):
        table = ResultTable(name="t", columns=("x",), rows=(("a,b",),))
        with pytest.raises(ValueError, match="CSV"):
            write_table_csv(table, tmp_path / "t.csv")


class TestResultEmission:
    def test_csv_emission_paths(self, tmp_path):
        results = run_named("impulse_validate", SMALL)
        paths = emit(results, "csv", tmp_path / "out")
        names = sorted(p.name for p in paths)
        assert names == [
            "impulse_validate_validation_image.csv",
            "impulse_validate_validation_los.csv",
        ]
        for path in paths:
            header = path.read_text().splitlines()[0]
            assert header == "dz_m,lag_m,rel_err"

    def test_json_emission(self, tmp_path):
        results = run_named("fresnel_sweep", SMALL)
        paths = emit(results, "json", tmp_path)
        assert [p.name for p in paths] == ["fresnel_sweep.json"]
        payload = json.loads(paths[0].read_text())
        assert payload["experiment"] == "fresnel_sweep"
        assert payload["provenance"]["library"] == "reflectmimo"
        assert payload["tables"][0]["name"] == "fresnel"
        assert len(payload["tables"][0]["rows"]) == 181

    def test_json_matches_results_to_json(self, tmp_path):
        results = run_named("fresnel_sweep", SMALL)
        paths = emit(results, "json", tmp_path)
        assert json.loads(paths[0].read_text()) == results_to_json(results)

    def test_unknown_format(self, tmp_path):
        results = run_named("fresnel_sweep", SMALL)
        with pytest.raises(ValueError, match="format"):
            emit(results, "parquet", tmp_path / "new")
        assert not (tmp_path / "new").exists()


class TestConvergenceCsv:
    def test_rows_and_blank_first_delta(self, tmp_path):
        study = ConvergenceStudy(rows=[ConvergenceRow(64, 0.1 + 2j, None),
                                       ConvergenceRow(128, -3.5 + 1e-20j, 0.25)],
                                 converged=True)
        path = write_convergence_csv(study, tmp_path / "c.csv")
        assert path.read_text() == (
            "n_alpha,re,im,delta\n64,0.1,2.0,\n128,-3.5,1e-20,0.25\n"
        )


class TestChannelSerialization:
    def test_matrix_csv(self, tmp_path, tiny_channel):
        path = write_channel_matrix_csv(tiny_channel, tmp_path / "h.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "row,col,re,im"
        assert len(lines) == 1 + 4
        first = lines[1].split(",")
        assert (first[0], first[1]) == ("0", "0")
        assert float(first[2]) == tiny_channel.entries[0, 0].real

    def test_matrix_csv_lists_every_entry_row_major(self, tmp_path, tiny_channel):
        path = write_channel_matrix_csv(tiny_channel, tmp_path / "h.csv")
        entries = tiny_channel.entries
        assert path.read_text().splitlines()[1:] == [
            f"{m},{n},{float(entries[m, n].real)!r},{float(entries[m, n].imag)!r}"
            for m in range(entries.shape[0]) for n in range(entries.shape[1])
        ]

    def test_matrix_json(self, tiny_channel):
        payload = channel_matrix_to_json(tiny_channel)
        assert payload["component"] == "LOS_ONLY"
        assert payload["scene"]["material"] == "vacuum"
        assert payload["tx"]["count"] == 2
        assert payload["quadrature"]["n_alpha"] == tiny_channel.spec.n_alpha
        assert payload["entries_re"][0][0] == tiny_channel.entries[0, 0].real
        assert payload["entries_im"][1][1] == tiny_channel.entries[1, 1].imag
        json.dumps(payload)
