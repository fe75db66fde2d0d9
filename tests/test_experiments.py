"""Tests for the named experiments and their result tables."""

import dataclasses
import math

import numpy as np
import pytest

from reflectmimo import (
    EXPERIMENT_NAMES,
    VACUUM,
    ArrayLayout,
    ConfigError,
    ExperimentConfig,
    FieldComponent,
    build_channel_matrices,
    build_channel_matrix,
    dof_bound,
    material_by_name,
    parse_config,
    run_named,
    spacing_snr,
)
from reflectmimo import capacity, experiments, quadrature

SMALL = ExperimentConfig(
    d1_m=1.0,
    range_m=0.6,
    antennas=2,
    materials=("perfect_conductor",),
    snr_grid_db=(0.0, 10.0),
)


@pytest.fixture(scope="module")
def fig2():
    return run_named("fig2")


@pytest.fixture(scope="module")
def fig4():
    return run_named("fig4")


@pytest.fixture(scope="module")
def fig5():
    return run_named("fig5")


def _groups(table):
    order = []
    for row in table.rows:
        if row[0] not in order:
            order.append(row[0])
    return order


class TestEigenExperiments:
    def test_fig2_shape_and_order(self, fig2):
        table = fig2.table("eigenvalues")
        assert table.columns == (
            "material", "spacing_rule", "index", "lambda", "lambda_db",
        )
        assert len(table.rows) == 5 * 8
        assert _groups(table) == [
            "los", "perfect_conductor", "concrete", "floor_board", "plaster_board",
        ]
        for row in table.rows:
            assert row[1] == "rayleigh_D"

    def test_fig2_rows_descending_with_consistent_db(self, fig2):
        table = fig2.table("eigenvalues")
        for group in _groups(table):
            rows = [row for row in table.rows if row[0] == group]
            assert [row[2] for row in rows] == list(range(1, 9))
            values = [row[3] for row in rows]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
            for row in rows:
                if row[3] > 1e-290:
                    assert row[4] == pytest.approx(10.0 * math.log10(row[3]))

    def test_fig4_uses_equivalent_range_for_reflections(self, fig4):
        table = fig4.table("eigenvalues")
        for row in table.rows:
            expected = "rayleigh_D" if row[0] == "los" else "rayleigh_De"
            assert row[1] == expected

    def test_conductor_spectrum_flattens_at_equivalent_range(self, fig2, fig4):
        def spread(results):
            rows = [
                row for row in results.table("eigenvalues").rows
                if row[0] == "perfect_conductor"
            ]
            dbs = [row[4] for row in rows]
            return max(dbs) - min(dbs)

        assert spread(fig4) < 0.5
        assert spread(fig2) > 10.0


class TestCapacityExperiments:
    def test_fig5_shape_and_rules(self, fig5):
        table = fig5.table("capacity")
        assert table.columns == ("material", "spacing_rule", "snr_db", "bits_per_s_hz")
        assert len(table.rows) == 6 * 26
        assert _groups(table) == [
            "los", "perfect_conductor", "concrete", "floor_board",
            "plaster_board", "upper_bound",
        ]
        for row in table.rows:
            if row[0] in ("los", "upper_bound"):
                assert row[1] == "snr_dependent_D"
            else:
                assert row[1] == "snr_dependent_De"

    def test_upper_bound_rows_match_formula(self, fig5):
        for row in fig5.table("capacity").rows:
            if row[0] == "upper_bound":
                snr = 10.0 ** (row[2] / 10.0)
                assert row[3] == pytest.approx(dof_bound(8, snr).bound, rel=1e-12)

    def test_capacity_below_bound_and_monotone(self, fig5):
        table = fig5.table("capacity")
        bounds = {row[2]: row[3] for row in table.rows if row[0] == "upper_bound"}
        for group in _groups(table):
            if group == "upper_bound":
                continue
            rows = [row for row in table.rows if row[0] == group]
            rates = [row[3] for row in rows]
            if group in ("los", "perfect_conductor"):
                # The spacing rule is matched to these channels, so the
                # curve rises strictly with SNR.
                assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))
            else:
                # Lossy surfaces can dip a few millibits where the
                # SNR-dependent spacing switches stream counts.
                assert all(b >= a - 0.01 for a, b in zip(rates, rates[1:]))
                assert rates[-1] > rates[0]
            for row in rows:
                assert row[3] <= bounds[row[2]] + 1e-9

    def test_fig3_keeps_direct_rule_for_materials(self):
        results = run_named("fig3", SMALL)
        for row in results.table("capacity").rows:
            assert row[1] == "snr_dependent_D"


class TestFresnelSweep:
    def test_sweep_shape_and_known_rows(self):
        results = run_named("fresnel_sweep", SMALL)
        table = results.table("fresnel")
        assert table.columns == ("material", "theta_deg", "R", "T", "reflectivity")
        assert len(table.rows) == 181
        assert table.rows[0][1] == 0.0
        assert table.rows[-1][1] == 90.0
        for row in table.rows:
            assert row[2] == pytest.approx(-1.0)
            assert row[3] == pytest.approx(0.0)
            assert row[4] == pytest.approx(1.0)

    def test_concrete_normal_incidence(self):
        config = ExperimentConfig(materials=("concrete",))
        results = run_named("fresnel_sweep", config)
        first = results.table("fresnel").rows[0]
        assert first[2] == pytest.approx(-0.43661972, abs=1e-8)
        assert first[3] == pytest.approx(1.0 + first[2], rel=1e-12)


class TestImpulseValidation:
    def test_synthesis_matches_closed_forms(self):
        results = run_named("impulse_validate", SMALL)
        for name in ("validation_los", "validation_image"):
            table = results.table(name)
            assert table.columns == ("dz_m", "lag_m", "rel_err")
            assert len(table.rows) == 20
            for row in table.rows:
                assert row[2] <= 1e-6


class TestConfigHandling:
    def test_self_sum_normalization_honored(self):
        config = ExperimentConfig(
            d1_m=1.0, range_m=0.6, antennas=2,
            materials=("perfect_conductor",), snr_grid_db=(0.0,),
            normalization="SelfSum",
        )
        results = run_named("fig2", config)
        rows = [
            row for row in results.table("eigenvalues").rows
            if row[0] == "perfect_conductor"
        ]
        assert sum(row[3] for row in rows) == pytest.approx(4.0, rel=1e-9)

    def test_spacing_rule_override_applies_to_reflections_only(self):
        config = ExperimentConfig(
            d1_m=1.0, range_m=0.6, antennas=2,
            materials=("perfect_conductor",), snr_grid_db=(0.0,),
            spacing_rule="rayleigh_De",
        )
        results = run_named("fig2", config)
        for row in results.table("eigenvalues").rows:
            expected = "rayleigh_D" if row[0] == "los" else "rayleigh_De"
            assert row[1] == expected

    def test_provenance_round_trip_reproduces_tables(self):
        first = run_named("fig2", SMALL)
        recovered = parse_config(first.provenance["config_text"])
        assert recovered == SMALL
        second = run_named("fig2", recovered)
        assert first.tables == second.tables

    def test_determinism(self):
        a = run_named("impulse_validate", SMALL)
        b = run_named("impulse_validate", SMALL)
        assert a.tables == b.tables
        assert a.provenance == b.provenance

    def test_provenance_contents(self, fig2):
        prov = fig2.provenance
        assert prov["library"] == "reflectmimo"
        assert prov["experiment"] == "fig2"
        assert prov["normalization"] == "RelativeToLOS"
        assert parse_config(prov["config_text"]) == ExperimentConfig()
        assert prov["node_counts"]
        keys = list(prov["node_counts"])
        assert keys == sorted(keys)

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_named("fig9")
        assert "fig9" not in EXPERIMENT_NAMES

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            run_named("fig2", ExperimentConfig(antennas=0))

    def test_missing_table_lookup(self, fig2):
        with pytest.raises(KeyError):
            fig2.table("capacity")


def test_one_bessel_matrix_per_spacing(monkeypatch):
    """Every reflecting material at one spacing shares one Bessel matrix:
    fig4 evaluates the same J0 arguments with four materials as with one."""
    sizes: list[int] = []
    bessel = quadrature.j0

    def counted(x):
        sizes.append(np.size(x))
        return bessel(x)

    monkeypatch.setattr(quadrature, "j0", counted)
    run_named("fig4", ExperimentConfig(materials=("concrete",)))
    one_material = list(sizes)
    sizes.clear()
    config = ExperimentConfig()
    run_named("fig4", config)
    assert len(config.materials) == 4
    assert sum(one_material) > 0
    assert sizes == one_material


@pytest.mark.parametrize("normalization", ["RelativeToLOS", "SelfSum"])
def test_one_eigensolve_per_channel(monkeypatch, normalization):
    """An SNR sweep revisits each channel at many grid points; each
    channel is eigensolved once per normalization."""
    calls: list[tuple[int, str]] = []
    channels = []  # held, so that no counted channel's address is reused
    solve = experiments.eigen_spectrum

    def counted(channel, normalization, **kwargs):
        channels.append(channel)
        calls.append((id(channel), normalization))
        return solve(channel, normalization, **kwargs)

    monkeypatch.setattr(experiments, "eigen_spectrum", counted)
    result = run_named("fig5", ExperimentConfig(normalization=normalization))
    assert len(result.table("capacity").rows) > len(calls) > 0
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("name", ["fig3", "fig5"])
def test_one_flat_spectrum_bound_per_snr(monkeypatch, name):
    """The SNR-matched spacings of both rules and the upper-bound rows
    share one bound per SNR: 26 calls on the default grid, not 78."""
    calls: list[tuple[int, float]] = []

    def counted(count, snr):
        calls.append((count, snr))
        return dof_bound(count, snr)

    monkeypatch.setattr(experiments, "dof_bound", counted)
    monkeypatch.setattr(capacity, "dof_bound", counted)
    config = ExperimentConfig()
    run_named(name, config)
    assert calls == [(config.antennas, 10.0 ** (db / 10.0)) for db in config.snr_grid_db]


@pytest.mark.parametrize("rule", ["snr_dependent_D", "snr_dependent_De"])
def test_snr_rules_give_the_spacings_of_spacing_snr(rule):
    """A table's SNR-matched spacing, taken from its bound, is the public
    ``spacing_snr`` to the bit."""
    config = ExperimentConfig()
    context = experiments._Context(config)
    distance = config.equivalent_range_m if rule.endswith("_De") else config.range_m
    for snr_db in config.snr_grid_db:
        snr = 10.0 ** (snr_db / 10.0)
        assert (experiments._spacing_of(context, rule, dof_bound(config.antennas, snr))
                == spacing_snr(context.wavelength, distance, config.antennas, snr))


@pytest.mark.parametrize("frequency_ghz", [57.5, 300.0])
def test_node_counts_are_each_labels_own_largest_need(frequency_ghz):
    """Shared syntheses leave the provenance node counts as one build per
    spacing gives them, also where the LOS and reflected rules share a
    spacing: each label records the largest count its channels need."""
    config = ExperimentConfig(frequency_ghz=frequency_ghz)
    context = experiments._Context(config)
    bounds = [experiments.dof_bound(config.antennas, 10.0 ** (snr_db / 10.0))
              for snr_db in config.snr_grid_db]
    los = [experiments._spacing_of(context, "snr_dependent_D", bound) for bound in bounds]
    reflected = [experiments._spacing_of(context, "snr_dependent_De", bound) for bound in bounds]
    assert set(los) & set(reflected)  # the case where the rules share a spacing
    n = config.antennas

    def layout(d):
        return (ArrayLayout.along_x(n, d, 0.0), ArrayLayout.along_x(n, d, config.range_m))

    expected = {"los@snr_dependent_D": max(
        build_channel_matrix(context.scene(VACUUM), *layout(d),
                             FieldComponent.LOS_ONLY).spec.n_alpha for d in set(los))}
    scenes = [context.scene(material_by_name(name)) for name in config.materials]
    reflected_need = max(
        build_channel_matrices(scenes, *layout(d), FieldComponent.REFLECTION_ONLY)[0].spec.n_alpha
        for d in set(reflected))
    expected.update({f"{name}@snr_dependent_De": reflected_need for name in config.materials})
    assert run_named("fig5", config).provenance["node_counts"] == expected


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5"])
def test_one_assembly_and_eigensolve_per_group_and_spacing(monkeypatch, name):
    """A table has two groups, the direct channel and the materials.  Each
    is built in one assembly over its distinct spacings, and each scene's
    channel at each distinct spacing is eigensolved once."""
    config = ExperimentConfig()
    bounds = [dof_bound(config.antennas, 10.0 ** (db / 10.0)) for db in config.snr_grid_db]
    rules = {"fig2": ("rayleigh_D", "rayleigh_D"), "fig3": ("snr_dependent_D",) * 2,
             "fig4": ("rayleigh_D", "rayleigh_De"),
             "fig5": ("snr_dependent_D", "snr_dependent_De")}[name]
    groups = experiments._walk(experiments._Context(config), *rules,
                               bounds if name in ("fig3", "fig5") else [None])
    expected = [(len(g.scenes), len({round(d / 1e-15) for d in g.spacings})) for g in groups]
    built, solves = [], []
    assemble, solve = experiments._assemble, experiments.eigen_spectrum

    def counted_assemble(scenes, layouts, *args):
        built.append((len(scenes), len(layouts)))
        return assemble(scenes, layouts, *args)

    def counted_solve(*args, **kwargs):
        solves.append(args[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(experiments, "_assemble", counted_assemble)
    monkeypatch.setattr(experiments, "eigen_spectrum", counted_solve)
    run_named(name, config)
    assert built == expected == [(1, expected[0][1]), (len(config.materials), expected[1][1])]
    assert len(solves) == sum(scenes * spacings for scenes, spacings in expected)


def _unbuilt(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a channel was built")

    monkeypatch.setattr(experiments, "_assemble", refuse)


@pytest.mark.parametrize("name", ["fig2", "fig4"])
@pytest.mark.parametrize("rule", ["snr_dependent_D", "snr_dependent_De"])
def test_snr_rule_on_spectrum_table_fails_before_any_build(monkeypatch, name, rule):
    _unbuilt(monkeypatch)
    with pytest.raises(ConfigError, match="SNR-dependent"):
        run_named(name, ExperimentConfig(spacing_rule=rule))


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5"])
def test_self_sum_of_a_surface_that_reflects_nothing_fails_before_any_build(
        monkeypatch, name):
    """Vacuum reflects nothing, so ``SelfSum`` has no sum to scale by."""
    _unbuilt(monkeypatch)
    config = ExperimentConfig(materials=("concrete", "vacuum"), normalization="SelfSum")
    with pytest.raises(ConfigError) as err:
        run_named(name, config)
    assert "'vacuum'" in str(err.value)
    assert "normalization" in str(err.value)


@pytest.mark.parametrize("name", ["fresnel_sweep", "impulse_validate"])
def test_self_sum_with_vacuum_still_runs_experiments_without_spectra(name):
    config = dataclasses.replace(SMALL, materials=("vacuum",), normalization="SelfSum")
    assert run_named(name, config).tables


def test_relative_scale_keeps_vacuum_at_zero():
    config = dataclasses.replace(SMALL, materials=("vacuum",))
    rows = run_named("fig2", config).table("eigenvalues").rows
    assert [row[3] for row in rows if row[0] == "vacuum"] == [0.0, 0.0]


@pytest.mark.parametrize("config", [
    ExperimentConfig(), ExperimentConfig(frequency_ghz=300.0), ExperimentConfig(antennas=64),
], ids=["default", "300ghz", "n64"])
def test_relative_scale_is_the_synthesized_direct_channels(config):
    """The closed-form relative scale at fig4's reflected spacing equals
    N^2 / ||H||_F^2 of the direct channel synthesized between the same
    arrays, for each material of the reflected group."""
    context = experiments._Context(config)
    _, group = experiments._walk(context, "rayleigh_D", "rayleigh_De", [None])
    (spacing,) = group.spacings
    assert spacing == experiments._spacing_of(context, "rayleigh_De", None)
    spectra = context.spectra(group)
    n = config.antennas
    los = build_channel_matrix(
        context.scene(VACUUM), ArrayLayout.along_x(n, spacing, 0.0),
        ArrayLayout.along_x(n, spacing, config.range_m), FieldComponent.LOS_ONLY,
    ).entries
    synthesized = los.size / np.vdot(los, los).real
    assert len(spectra) == len(config.materials)
    for (spectrum,) in spectra:
        assert abs(spectrum.scale - synthesized) <= 1e-12 * synthesized


@pytest.mark.parametrize("name, rule, spacings", [
    ("fig5", "snr_dependent_De", 7), ("fig4", "rayleigh_De", 1),
])
def test_one_los_power_per_reflected_spacing(monkeypatch, name, rule, spacings):
    """Every material at one spacing shares that spacing's relative scale:
    ||H_LOS||_F^2 is taken once per distinct reflected spacing, and each
    material's scale is N^2 / ||H_LOS||_F^2 between its own arrays."""
    config = ExperimentConfig()
    context = experiments._Context(config)
    bounds = ([experiments.dof_bound(config.antennas, 10.0 ** (snr_db / 10.0))
               for snr_db in config.snr_grid_db] if name == "fig5" else [None])
    assert len({experiments._spacing_of(context, rule, bound) for bound in bounds}) == spacings
    power, solve, calls, scaled = experiments.los_power, experiments.eigen_spectrum, [], []

    def counted(*args):
        calls.append(args)
        return power(*args)

    def solved(channel, normalization, **kwargs):
        spectrum = solve(channel, normalization, **kwargs)
        if channel.component is FieldComponent.REFLECTION_ONLY:
            scaled.append((channel, spectrum.scale))
        return spectrum

    monkeypatch.setattr(experiments, "los_power", counted)
    monkeypatch.setattr(experiments, "eigen_spectrum", solved)
    experiments._RUNNERS[name](context)
    assert len(calls) == spacings
    assert len(scaled) == spacings * len(config.materials)
    for channel, scale in scaled:
        assert scale == channel.entries.size / power(context.vacuum_medium, channel.tx, channel.rx)
