"""Tests for the flat-text experiment configuration."""

import dataclasses
import json
import math

import numpy as np
import pytest

from reflectmimo import (
    ConfigError,
    ExperimentConfig,
    config_to_text,
    load_config,
    parse_config,
    run_named,
)
from reflectmimo.config import MAX_SNR_POINTS


class TestDefaults:
    def test_defaults_validate(self):
        config = ExperimentConfig()
        config.validate()
        assert config.frequency_hz == pytest.approx(57.5e9)
        assert config.equivalent_range_m == pytest.approx(20.0)
        assert config.antennas == 8
        assert config.materials == (
            "perfect_conductor",
            "concrete",
            "floor_board",
            "plaster_board",
        )
        assert config.snr_grid_db[0] == -10.0
        assert config.snr_grid_db[-1] == 40.0
        assert len(config.snr_grid_db) == 26
        assert config.quadrature is None

    def test_explicit_quadrature(self):
        config = ExperimentConfig(n_alpha=128)
        assert config.quadrature.n_alpha == 128


class TestRoundTrip:
    def test_default_round_trip(self):
        config = ExperimentConfig()
        assert parse_config(config_to_text(config)) == config

    def test_modified_round_trip(self):
        config = ExperimentConfig(
            frequency_ghz=60.0,
            d1_m=12.5,
            range_m=7.25,
            antennas=4,
            materials=("concrete", "vacuum"),
            snr_grid_db=(0.0, 5.5, 11.0),
            spacing_rule="rayleigh_De",
            normalization="SelfSum",
            n_alpha=4096,
        )
        assert parse_config(config_to_text(config)) == config

    def test_text_is_deterministic(self):
        config = ExperimentConfig()
        assert config_to_text(config) == config_to_text(config)

    def test_text_of_every_key(self):
        """The provenance echoes this text, so its key order and number
        forms are part of every emitted result."""
        config = ExperimentConfig(
            frequency_ghz=140.0, d1_m=2.5, range_m=0.1 + 0.2, antennas=16,
            materials=("concrete", "floor_board"), snr_grid_db=(-3.5, 0.0, 1e-7),
            spacing_rule="rayleigh_De", normalization="SelfSum", n_alpha=4096,
        )
        assert config_to_text(config) == (
            "frequency_ghz = 140.0\n"
            "d1_m = 2.5\n"
            "range_m = 0.30000000000000004\n"
            "antennas = 16\n"
            "materials = concrete,floor_board\n"
            "snr_grid_db = -3.5,0.0,1e-07\n"
            "spacing_rule = rayleigh_De\n"
            "normalization = SelfSum\n"
            "n_alpha = 4096\n"
        )


class TestParsing:
    def test_comments_and_blanks(self):
        text = """
        # geometry
        d1_m = 12.0   # surface plane

        range_m = 6.0
        """
        config = parse_config(text)
        assert config.d1_m == 12.0
        assert config.range_m == 6.0
        assert config.frequency_ghz == 57.5

    def test_snr_range_form(self):
        config = parse_config("snr_grid_db = 0:10:5\n")
        assert config.snr_grid_db == (0.0, 5.0, 10.0)

    def test_snr_list_form(self):
        config = parse_config("snr_grid_db = -3, 0, 12.5\n")
        assert config.snr_grid_db == (-3.0, 0.0, 12.5)

    def test_materials_list(self):
        config = parse_config("materials = concrete, plaster_board\n")
        assert config.materials == ("concrete", "plaster_board")

    def test_line_numbered_errors_accumulate(self):
        text = "bogus_key = 1\nantennas = many\nno equals sign\n"
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        violations = excinfo.value.violations
        assert len(violations) == 3
        assert violations[0].startswith("line 1:")
        assert violations[1].startswith("line 2:")
        assert violations[2].startswith("line 3:")

    def test_azimuth_node_key_rejected(self):
        """The azimuthal integral is an exact Bessel factor, so there is no
        azimuth node count to configure."""
        with pytest.raises(ConfigError, match="unknown key 'n_beta'"):
            parse_config("n_beta = 8\n")

    def test_bad_snr_range(self):
        with pytest.raises(ConfigError, match="step"):
            parse_config("snr_grid_db = 0:10:-2\n")

    @pytest.mark.parametrize("grid", [
        "3100", "-4000", "0, 3100", "0:inf:2", "nan:10:2", "0:10:inf", "0:1e12:1e-6",
        "-1e308:1e308:1", "0:2500:0.25", "10:0:1", "1e308",
    ])
    def test_unusable_snr_grid_names_the_key(self, grid):
        """Grids whose linear SNR overflows or underflows to 0, whose range
        bounds are not finite, or whose range is empty or past
        ``MAX_SNR_POINTS``, fail as a configuration error, counted before
        any point is built."""
        with pytest.raises(ConfigError, match="snr_grid_db"):
            parse_config(f"snr_grid_db = {grid}\n")

    def test_snr_range_up_to_the_point_limit(self):
        config = parse_config(f"snr_grid_db = 0:{(MAX_SNR_POINTS - 1) / 4}:0.25\n")
        assert len(config.snr_grid_db) == MAX_SNR_POINTS
        assert config.snr_grid_db[-1] == (MAX_SNR_POINTS - 1) / 4


class TestValidation:
    def test_violations_accumulate(self):
        config = ExperimentConfig(
            frequency_ghz=-1.0, antennas=0, normalization="loud"
        )
        with pytest.raises(ConfigError) as excinfo:
            config.validate()
        assert len(excinfo.value.violations) >= 3

    @pytest.mark.parametrize(("field", "value"), [
        ("n_alpha", math.nan), ("n_alpha", 3000.5), ("antennas", 2.5), ("antennas", True),
    ])
    def test_counts_must_be_integers(self, field, value):
        """A NaN ``n_alpha`` used to validate and run, and 2.5 antennas to
        validate, then raise ``TypeError``."""
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            ExperimentConfig(**{field: value}).validate()

    def test_numpy_integer_counts_run(self):
        config = ExperimentConfig(antennas=np.int64(2), n_alpha=np.int64(100_000))
        config.validate()
        provenance = run_named("fig2", config).provenance
        assert set(json.loads(json.dumps(provenance["node_counts"])).values()) == {100_000}

    def test_unknown_material(self):
        with pytest.raises(ConfigError, match="unknown material"):
            ExperimentConfig(materials=("granite",)).validate()

    @pytest.mark.parametrize("first, second", [
        ("concrete", "concrete"), ("Concrete", "concrete"), ("floor-board", "floor_board"),
    ])
    def test_repeated_material_names_both_spellings(self, first, second):
        """Two entries that name one catalog material would give one
        material two row groups, so the config is refused naming both."""
        with pytest.raises(ConfigError) as excinfo:
            parse_config(f"materials = {first}, plaster_board, {second}\n")
        (violation,) = excinfo.value.violations
        assert "materials" in violation
        assert repr(first) in violation and repr(second) in violation

    def test_range_beyond_surface(self):
        with pytest.raises(ConfigError, match="range_m"):
            ExperimentConfig(range_m=20.0, d1_m=15.0).validate()

    def test_surface_clearance_guard(self):
        config = ExperimentConfig(d1_m=0.01, range_m=0.005)
        with pytest.raises(ConfigError, match="wavelength"):
            config.validate()

    def test_bad_spacing_rule(self):
        with pytest.raises(ConfigError, match="spacing_rule"):
            ExperimentConfig(spacing_rule="tight").validate()

    def test_extreme_but_representable_snr_accepted(self):
        ExperimentConfig(snr_grid_db=(-3200.0, 3000.0)).validate()


class TestLoadConfig:
    def test_flat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("antennas = 4\nnormalization = SelfSum\n")
        config = load_config(path)
        assert config.antennas == 4
        assert config.normalization == "SelfSum"

    def test_json_results_file(self, tmp_path):
        original = ExperimentConfig(antennas=4)
        payload = {
            "provenance": {"config_text": config_to_text(original)},
            "tables": {},
        }
        path = tmp_path / "results.json"
        path.write_text(json.dumps(payload))
        assert load_config(path) == original

    def test_json_without_provenance(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text(json.dumps({"tables": {}}))
        with pytest.raises(ConfigError, match="provenance"):
            load_config(path)

    @pytest.mark.parametrize("content", [
        '{"provenance": {"config_text": 5}}',
        '{"provenance": {"config_text": null}}',
        '{"provenance": ["config_text"]}',
        '{"provenance": ',
    ], ids=["number", "null", "list", "malformed"])
    def test_unusable_json_names_the_path(self, tmp_path, content):
        path = tmp_path / "results.json"
        path.write_text(content)
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        (violation,) = excinfo.value.violations
        assert repr(str(path)) in violation

    def test_dataclass_is_frozen(self):
        config = ExperimentConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.antennas = 2
