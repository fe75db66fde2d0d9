"""Tests for channel-matrix assembly and eigenvalue normalization."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectmimo import (
    CONCRETE,
    PERFECT_CONDUCTOR,
    RELATIVE,
    SELF_SUM,
    ArrayLayout,
    ExperimentConfig,
    FieldComponent,
    Medium,
    QuadratureSpec,
    SceneConfig,
    SpatialLag,
    UnderResolvedWarning,
    build_channel_matrices,
    build_channel_matrix,
    eigen_spectrum,
    estimate_nodes,
    material_by_name,
    oscillation_span,
    raw_eigenvalues,
    spacing_rayleigh,
    run_named,
    spacing_snr,
    synthesize_impulse,
)
from reflectmimo import experiments, mimo, quadrature
from reflectmimo.mimo import _assemble, _distinct_samples

RANGE = 2.0
SURFACE = 3.0
EQUIVALENT_RANGE = 2.0 * SURFACE - RANGE


@pytest.fixture(scope="module")
def pc_reflection_channel(conductor_medium):
    scene = SceneConfig(
        medium=conductor_medium, surface_z=SURFACE, source_z=0.0, receiver_z=RANGE
    )
    tx = ArrayLayout.along_x(4, 0.1, 0.0)
    rx = ArrayLayout.along_x(4, 0.1, RANGE)
    return build_channel_matrix(scene, tx, rx, FieldComponent.REFLECTION_ONLY)


@pytest.fixture(scope="module")
def vacuum_los_channel(vacuum_medium):
    scene = SceneConfig(
        medium=vacuum_medium,
        surface_z=EQUIVALENT_RANGE + 1.0,
        source_z=0.0,
        receiver_z=EQUIVALENT_RANGE,
    )
    tx = ArrayLayout.along_x(4, 0.1, 0.0)
    rx = ArrayLayout.along_x(4, 0.1, EQUIVALENT_RANGE)
    return build_channel_matrix(scene, tx, rx, FieldComponent.LOS_ONLY)


class TestArrayLayout:
    def test_positions_centered(self):
        layout = ArrayLayout.along_x(4, 0.5, 2.0)
        pos = layout.positions
        assert pos.shape == (4, 3)
        assert np.allclose(pos[:, 0], [-0.75, -0.25, 0.25, 0.75])
        assert np.all(pos[:, 1] == 0.0)
        assert np.all(pos[:, 2] == 2.0)

    def test_single_antenna_sits_at_center(self):
        layout = ArrayLayout(count=1, spacing=1.0, center=(0.3, -0.2, 5.0))
        assert np.allclose(layout.positions, [[0.3, -0.2, 5.0]])

    def test_custom_axis(self):
        layout = ArrayLayout(count=2, spacing=2.0, axis=(0.0, 1.0, 0.0))
        assert np.allclose(layout.positions, [[0.0, -1.0, 0.0], [0.0, 1.0, 0.0]])

    def test_validation(self):
        with pytest.raises(ValueError, match="count"):
            ArrayLayout(count=0, spacing=1.0)
        with pytest.raises(ValueError, match="spacing"):
            ArrayLayout(count=2, spacing=0.0)
        with pytest.raises(ValueError, match="axis"):
            ArrayLayout(count=2, spacing=1.0, axis=(1.0, 1.0, 0.0))

    @pytest.mark.parametrize(("field", "fields"), [
        ("spacing", {"spacing": np.inf}),
        ("spacing", {"spacing": np.nan}),
        ("axis", {"axis": (np.nan, 0.0, 0.0)}),
        ("axis", {"axis": (1.0, np.nan, 0.0)}),
        ("axis", {"axis": (np.inf, 0.0, 0.0)}),
        ("center", {"center": (np.nan, 0.0, 0.0)}),
        ("center", {"center": (0.0, 0.0, np.inf)}),
        ("center", {"center": (0.0, -np.inf, 1.0)}),
    ])
    def test_non_finite_geometry_names_its_field(self, field, fields):
        with pytest.raises(ValueError, match=field):
            ArrayLayout(**{"count": 2, "spacing": 1.0, **fields})

    @pytest.mark.parametrize("count", [2.5, np.nan, True])
    def test_count_must_be_an_integer(self, count):
        """2.5 antennas used to give 3 positions, then fail at the reshape
        of the channel matrix; a numpy integer is a count."""
        with pytest.raises(ValueError, match="count must be an integer"):
            ArrayLayout(count=count, spacing=1.0)
        assert ArrayLayout(count=np.int32(3), spacing=1.0).positions.shape == (3, 3)


class TestChannelAssembly:
    def test_parallel_arrays_give_toeplitz_entries(self, pc_reflection_channel):
        entries = pc_reflection_channel.entries
        n = entries.shape[0]
        for m in range(n - 1):
            for k in range(n - 1):
                assert entries[m, k] == entries[m + 1, k + 1]

    def test_distinct_evaluation_count(self, conductor_medium):
        scene = SceneConfig(
            medium=conductor_medium, surface_z=2.0, source_z=0.0, receiver_z=1.0
        )
        tx = ArrayLayout.along_x(8, 0.05, 0.0)
        rx = ArrayLayout.along_x(8, 0.05, 1.0)
        channel = build_channel_matrix(
            scene, tx, rx, FieldComponent.REFLECTION_ONLY
        )
        assert channel.entries.shape == (8, 8)
        assert channel.distinct_evaluations == 8
        assert not channel.under_resolved

    def test_conductor_reflection_mirrors_direct_channel(
        self, pc_reflection_channel, vacuum_los_channel
    ):
        reflected = pc_reflection_channel.entries
        direct = vacuum_los_channel.entries
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(reflected + direct)) <= 1e-8 * scale

    def test_vacuum_reflection_vanishes(self, vacuum_medium):
        scene = SceneConfig(
            medium=vacuum_medium, surface_z=2.0, source_z=0.0, receiver_z=1.0
        )
        tx = ArrayLayout.along_x(2, 0.1, 0.0)
        rx = ArrayLayout.along_x(2, 0.1, 1.0)
        channel = build_channel_matrix(scene, tx, rx, FieldComponent.REFLECTION_ONLY)
        assert np.all(channel.entries == 0.0)
        with pytest.raises(ValueError, match="zero channel"):
            eigen_spectrum(channel)

    def test_under_resolved_flag_and_warning(self, conductor_medium):
        scene = SceneConfig(
            medium=conductor_medium, surface_z=2.0, source_z=0.0, receiver_z=1.0
        )
        tx = ArrayLayout.along_x(2, 0.1, 0.0)
        rx = ArrayLayout.along_x(2, 0.1, 1.0)
        with pytest.warns(UnderResolvedWarning):
            channel = build_channel_matrix(
                scene, tx, rx, FieldComponent.REFLECTION_ONLY,
                QuadratureSpec(n_alpha=64),
            )
        assert channel.under_resolved


def _per_entry(channel):
    """Channel entries from one scalar synthesis per antenna pair."""
    tx_pos, rx_pos = channel.tx.positions, channel.rx.positions
    entries = np.empty(channel.entries.shape, dtype=complex)
    for m, r in enumerate(rx_pos):
        for n, t in enumerate(tx_pos):
            lag = SpatialLag(x=r[0] - t[0], y=r[1] - t[1],
                             receiver_z=r[2], source_z=t[2])
            entries[m, n] = synthesize_impulse(
                channel.scene, channel.component, lag, channel.spec,
            )
    return entries


class TestDistanceKeying:
    """Entries keyed on (planes, transverse distance) against one scalar
    synthesis per entry, on layouts where that keying could go wrong."""

    @pytest.fixture
    def scene(self, conductor_medium):
        return SceneConfig(
            medium=conductor_medium, surface_z=SURFACE, source_z=0.0, receiver_z=RANGE
        )

    @pytest.mark.parametrize("tx, rx", [
        (ArrayLayout(4, 0.07, center=(0.02, -0.05, 0.0), axis=(0.0, 1.0, 0.0)),
         ArrayLayout(4, 0.07, center=(-0.03, 0.11, RANGE), axis=(0.0, 1.0, 0.0))),
        (ArrayLayout(3, 0.05, center=(0.0, 0.0, 0.0)),
         ArrayLayout(5, 0.08, center=(0.01, 0.0, RANGE))),
        (ArrayLayout(4, 0.06, center=(0.0, 0.0, 0.0), axis=(0.6, 0.0, 0.8)),
         ArrayLayout(3, 0.09, center=(0.02, 0.0, RANGE), axis=(0.0, 0.8, -0.6))),
    ], ids=["y_axis_offset", "unequal_counts", "tilted_planes"])
    def test_matches_per_entry_synthesis(self, scene, tx, rx):
        channel = build_channel_matrix(scene, tx, rx, FieldComponent.REFLECTION_ONLY)
        expected = _per_entry(channel)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(channel.entries - expected)) <= 1e-12 * scale

    def test_tilted_arrays_span_several_plane_pairs(self, scene):
        tx = ArrayLayout(4, 0.06, axis=(0.6, 0.0, 0.8))
        rx = ArrayLayout(3, 0.09, center=(0.0, 0.0, RANGE), axis=(0.0, 0.8, -0.6))
        channel = build_channel_matrix(scene, tx, rx, FieldComponent.REFLECTION_ONLY)
        assert channel.distinct_evaluations == 12

    @pytest.mark.parametrize("dx, dy", [(0.37, 0.0), (-1.25, 0.8)])
    def test_common_transverse_shift_leaves_entries_unchanged(self, scene, dx, dy):
        """The surface is an infinite plane, so moving both arrays by the
        same transverse offset changes no entry."""
        tx = ArrayLayout(4, 0.07, center=(0.02, -0.05, 0.0), axis=(0.0, 1.0, 0.0))
        rx = ArrayLayout(5, 0.08, center=(-0.03, 0.11, RANGE), axis=(0.6, 0.8, 0.0))

        def shifted(layout):
            x, y, z = layout.center
            return dataclasses.replace(layout, center=(x + dx, y + dy, z))

        component = FieldComponent.REFLECTION_ONLY
        here = build_channel_matrix(scene, tx, rx, component)
        moved = build_channel_matrix(scene, shifted(tx), shifted(rx), component)
        scale = np.max(np.abs(here.entries))
        assert np.max(np.abs(moved.entries - here.entries)) <= 1e-12 * scale

    @pytest.mark.parametrize("seed", range(4))
    def test_grouped_keys_match_the_row_wise_unique(self, seed):
        """Grouping by pair of planes, then a 1-D unique of the distances,
        gives ``np.unique(keys, axis=0)``'s first occurrences, order and
        inverse, so the distinct lags reach the synthesis unchanged."""
        rng = np.random.default_rng(seed)
        n = 400
        keys = np.stack([rng.integers(-2, 3, n) * 7, rng.integers(0, 3, n) * 5,
                         rng.integers(0, 30, n)], axis=1).astype(np.int64)
        _, first, index_of = np.unique(keys, axis=0, return_index=True,
                                       return_inverse=True)
        grouped_first, grouped_index = _distinct_samples(keys)
        assert np.array_equal(grouped_first, first)
        assert np.array_equal(grouped_index, index_of.ravel())


_KEYED_SCENE = SceneConfig(medium=Medium(57.5e9, PERFECT_CONDUCTOR), surface_z=SURFACE,
                           source_z=0.0, receiver_z=RANGE)


def _axis(kind, azimuth, polar):
    if kind == "parallel":
        return (1.0, 0.0, 0.0)
    if kind == "in_plane":
        return (math.cos(azimuth), math.sin(azimuth), 0.0)
    return (math.cos(azimuth) * math.sin(polar), math.sin(azimuth) * math.sin(polar),
            math.cos(polar))


def _array(kind, counts, z):
    """ULAs at height ``z`` with axes of ``kind``, ``counts`` antennas."""
    return st.builds(
        lambda count, spacing, x, azimuth, polar: ArrayLayout(
            count, spacing, center=(x, 0.5 * x, z), axis=_axis(kind, azimuth, polar)),
        st.integers(*counts), st.floats(0.01, 0.1), st.floats(-0.05, 0.05),
        st.floats(0.0, 2.0 * math.pi), st.floats(0.3, 2.8))


def _lattice(tx, rx):
    """Every entry's (receiver_z, source_z, rho) sample and its key, row by
    row of the channel matrix."""
    samples = np.array([(r[2], t[2], np.hypot(r[0] - t[0], r[1] - t[1]))
                        for r in rx.positions for t in tx.positions])
    return samples, np.rint(samples / 1e-12).astype(np.int64)


def _row_wise_unique(keys, samples):
    """``np.unique`` of lattice keys by row: the first occurrences, each
    row's position among them, and each distinct key's smallest
    coordinates."""
    _, first, index_of = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    index_of = index_of.ravel()  # the inverse's shape differs across numpy 2.x
    smallest = samples[first]
    for column in range(samples.shape[1]):
        np.minimum.at(smallest[:, column], index_of, samples[:, column])
    return first, index_of, smallest


@pytest.mark.parametrize("tx_kind, rx_kind, counts", [
    ("parallel", "parallel", (2, 6)),
    ("in_plane", "parallel", (2, 6)),
    ("out_of_plane", "in_plane", (2, 6)),
    ("out_of_plane", "out_of_plane", (2, 6)),
    ("in_plane", "out_of_plane", (1, 1)),
])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_layout_samples_match_the_row_wise_unique(tx_kind, rx_kind, counts, data):
    """A layout's distinct rows and each entry's position among them are
    ``np.unique`` of its lattice keys, by row, each row holding its key's
    smallest coordinates: parallel, in-plane and out-of-plane axes (several
    pairs of planes), unequal counts and single antennas."""
    tx = data.draw(_array(tx_kind, counts, 0.0))
    rx = data.draw(_array(rx_kind, counts, RANGE))
    samples, keys = _lattice(tx, rx)
    _, index_of, smallest = _row_wise_unique(keys, samples)
    rows, positions = mimo._samples(tx, rx)
    assert np.array_equal(rows, smallest)
    assert np.array_equal(positions, index_of)


_ANY_ARRAY = st.sampled_from(["parallel", "in_plane", "out_of_plane"])


@settings(max_examples=10, deadline=None)
@given(st.lists(st.tuples(_ANY_ARRAY.flatmap(lambda kind: _array(kind, (1, 6), 0.0)),
                          _ANY_ARRAY.flatmap(lambda kind: _array(kind, (1, 6), RANGE))),
                min_size=1, max_size=4))
def test_union_on_one_pair_matches_the_row_wise_unique(layouts):
    """Layouts merge as ``np.unique`` of their lattice keys together, by
    row, on one pair of planes or on several, each row holding its key's
    smallest coordinates, and each layout's entries land on their own
    samples: the assembly hands the merged rows to its one synthesis, here
    one that returns each lag's position."""
    lattices = [_lattice(tx, rx) for tx, rx in layouts]
    samples = np.concatenate([samples for samples, _ in lattices])
    _, index_of, smallest = _row_wise_unique(np.concatenate([keys for _, keys in lattices]),
                                             samples)
    starts = np.cumsum([0] + [len(keys) for _, keys in lattices])
    synthesized = []

    def positions(scenes, component, lags, spec):
        synthesized.append([(lag.receiver_z, lag.source_z, lag.x) for lag in lags])
        return np.arange(len(lags), dtype=complex)[None, :]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mimo, "synthesize_impulse", positions)
        matrices = _assemble([_KEYED_SCENE], layouts, FieldComponent.REFLECTION_ONLY, None)
    assert np.array_equal(synthesized, [smallest])
    for at, end, (matrix,) in zip(starts, starts[1:], matrices):
        assert np.array_equal(matrix.entries.ravel(), index_of[at:end])


class TestMaterialBatch:
    """All materials of one geometry from a single synthesis, against one
    build per material."""

    @pytest.fixture
    def scenes(self, conductor_medium):
        return [
            SceneConfig(medium=Medium(conductor_medium.frequency, material_by_name(name)),
                        surface_z=SURFACE, source_z=0.0, receiver_z=RANGE)
            for name in ExperimentConfig().materials
        ]

    @pytest.mark.parametrize("tx, rx", [
        (ArrayLayout.along_x(8, 0.1, 0.0), ArrayLayout.along_x(8, 0.1, RANGE)),
        (ArrayLayout(4, 0.06, center=(0.0, 0.0, 0.0), axis=(0.6, 0.0, 0.8)),
         ArrayLayout(3, 0.09, center=(0.02, 0.0, RANGE), axis=(0.0, 0.8, -0.6))),
    ], ids=["parallel_ulas", "tilted_planes"])
    def test_batch_equals_one_build_per_material(self, scenes, tx, rx):
        component = FieldComponent.REFLECTION_ONLY
        batch = build_channel_matrices(scenes, tx, rx, component)
        assert len(batch) == len(scenes) == 4
        for scene, channel in zip(scenes, batch):
            single = build_channel_matrix(scene, tx, rx, component)
            assert channel.scene == scene
            assert channel.spec == single.spec
            assert channel.distinct_evaluations == single.distinct_evaluations
            assert not channel.under_resolved
            scale = np.max(np.abs(single.entries))
            assert np.max(np.abs(channel.entries - single.entries)) <= 1e-12 * scale

    def test_single_scene_is_build_channel_matrix(self, scenes):
        tx = ArrayLayout.along_x(5, 0.1, 0.0)
        rx = ArrayLayout.along_x(5, 0.1, RANGE)
        component = FieldComponent.REFLECTION_ONLY
        (batch,) = build_channel_matrices(scenes[1:2], tx, rx, component)
        single = build_channel_matrix(scenes[1], tx, rx, component)
        assert np.array_equal(batch.entries, single.entries)
        assert (batch.spec, batch.under_resolved, batch.distinct_evaluations) == (
            single.spec, single.under_resolved, single.distinct_evaluations)

    def test_under_resolved_batch_flags_every_matrix(self, scenes):
        tx = ArrayLayout.along_x(4, 0.1, 0.0)
        rx = ArrayLayout.along_x(4, 0.1, RANGE)
        with pytest.warns(UnderResolvedWarning):
            batch = build_channel_matrices(
                scenes, tx, rx, FieldComponent.REFLECTION_ONLY, QuadratureSpec(n_alpha=64),
            )
        assert all(channel.under_resolved for channel in batch)

    def test_geometry_mismatch_rejected(self, scenes):
        tx = ArrayLayout.along_x(4, 0.1, 0.0)
        rx = ArrayLayout.along_x(4, 0.1, RANGE)
        moved = dataclasses.replace(scenes[1], surface_z=SURFACE + 0.5)
        with pytest.raises(ValueError, match="differ only in their material"):
            build_channel_matrices([scenes[0], moved], tx, rx,
                                   FieldComponent.REFLECTION_ONLY)


def _count_syntheses(monkeypatch):
    """Count ``synthesize_impulse`` calls from matrix assembly and the real
    J0 work inside them: j0 elements plus ``_COMPLEX_BESSEL_COST`` per
    complex element of the bent leg's Bessel matrix, counted where it
    enters ``_leg_j0``, which takes it through ``jv`` or Hankel's series."""
    counts = {"calls": 0, "work": 0}
    synthesize, j0, leg_j0 = mimo.synthesize_impulse, quadrature.j0, quadrature._leg_j0

    def counted(*args):
        counts["calls"] += 1
        return synthesize(*args)

    def counted_j0(x):
        counts["work"] += np.size(x)
        return j0(x)

    def counted_leg_j0(rho, krho):
        counts["work"] += quadrature._COMPLEX_BESSEL_COST * rho.size * krho.size
        return leg_j0(rho, krho)

    monkeypatch.setattr(mimo, "synthesize_impulse", counted)
    monkeypatch.setattr(quadrature, "j0", counted_j0)
    monkeypatch.setattr(quadrature, "_leg_j0", counted_leg_j0)
    return counts


class TestLayoutBatch:
    """The spacings of an SNR sweep from shared syntheses, against one
    build per spacing."""

    @pytest.fixture(params=["los", "reflected"])
    def case(self, request, vacuum_medium):
        if request.param == "los":
            scene = SceneConfig(medium=vacuum_medium, surface_z=RANGE + 1.0, source_z=0.0,
                                receiver_z=RANGE)
            return [scene], FieldComponent.LOS_ONLY, RANGE
        scenes = [
            SceneConfig(medium=Medium(vacuum_medium.frequency, material_by_name(name)),
                        surface_z=SURFACE, source_z=0.0, receiver_z=RANGE)
            for name in ExperimentConfig().materials
        ]
        return scenes, FieldComponent.REFLECTION_ONLY, EQUIVALENT_RANGE

    @staticmethod
    def _layouts(wavelength, distance, count):
        spacings = dict.fromkeys(
            spacing_snr(wavelength, distance, count, 10.0 ** (snr_db / 10.0))
            for snr_db in ExperimentConfig().snr_grid_db)
        return [(ArrayLayout.along_x(count, d, 0.0), ArrayLayout.along_x(count, d, RANGE))
                for d in spacings]

    @pytest.mark.parametrize("count", [8, 16])
    def test_shared_syntheses_equal_one_build_per_layout(self, monkeypatch, case, count):
        scenes, component, distance = case
        layouts = self._layouts(scenes[0].medium.wavelength, distance, count)
        counts = _count_syntheses(monkeypatch)
        batch = _assemble(scenes, layouts, component, None)
        assert counts["calls"] < len(layouts)
        for (tx, rx), channels in zip(layouts, batch):
            singles = build_channel_matrices(scenes, tx, rx, component)
            for channel, single in zip(channels, singles):
                assert channel.scene == single.scene
                assert channel.distinct_evaluations == single.distinct_evaluations
                assert not channel.under_resolved
                scale = np.max(np.abs(single.entries))
                assert np.max(np.abs(channel.entries - single.entries)) <= 1e-12 * scale

    def test_layout_order_changes_no_entry(self, case):
        scenes, component, distance = case
        layouts = self._layouts(scenes[0].medium.wavelength, distance, 8)
        forward = _assemble(scenes, layouts, component, None)
        backward = _assemble(scenes, layouts[::-1], component, None)[::-1]
        for channels, reversed_channels in zip(forward, backward):
            for channel, other in zip(channels, reversed_channels):
                scale = np.max(np.abs(channel.entries))
                assert np.max(np.abs(channel.entries - other.entries)) <= 1e-13 * scale


@pytest.mark.parametrize("name, syntheses", [("fig5", 2), ("fig3", 2)])
def test_capacity_sweep_shares_syntheses(monkeypatch, name, syntheses):
    """The default sweeps build every spacing of a (component, spacing
    rule) in one synthesis: LOS at its own rule and the materials at the
    reflected rule.  The relative scale is closed form, so no LOS channel
    is built at the reflected rule."""
    counts = _count_syntheses(monkeypatch)
    run_named(name, ExperimentConfig())
    assert counts["calls"] == syntheses


def _sweep(count, rule, group):
    """The layouts of a fig3/fig5 SNR sweep's group under ``rule``, with
    the group's scenes and component."""
    config = ExperimentConfig(antennas=count)
    context = experiments._Context(config)
    bounds = [experiments.dof_bound(count, 10.0 ** (snr_db / 10.0))
              for snr_db in config.snr_grid_db]
    spacings = sorted({experiments._spacing_of(context, rule, bound) for bound in bounds})
    layouts = [(ArrayLayout.along_x(count, spacing, 0.0),
                ArrayLayout.along_x(count, spacing, config.range_m)) for spacing in spacings]
    if group == "los":
        return layouts, [context.scene(material_by_name("vacuum"))], FieldComponent.LOS_ONLY
    scenes = [context.scene(material_by_name(name)) for name in config.materials]
    return layouts, scenes, FieldComponent.REFLECTION_ONLY


def test_wide_sweep_keeps_the_real_j0_work(monkeypatch):
    """At N = 64 the spacings span lags so unalike that one path for all of
    them would put every small lag on the largest lag's path; the synthesis
    cuts the lags into runs instead, so fig5's two syntheses do no more
    real-J0 work than one build per spacing."""
    counts = _count_syntheses(monkeypatch)
    run_named("fig5", ExperimentConfig(antennas=64))
    shared = dict(counts)
    counts.update(calls=0, work=0)
    for rule, group in (("snr_dependent_D", "los"), ("snr_dependent_De", "materials")):
        layouts, scenes, component = _sweep(64, rule, group)
        for tx, rx in layouts:
            build_channel_matrices(scenes, tx, rx, component)
    assert shared["calls"] == 2 < counts["calls"]
    assert shared["work"] <= counts["work"]


def _counted_paths(monkeypatch):
    """The (scene count, part, largest lag) of every path choice."""
    planned = []
    path = quadrature._path

    def counted(scenes, part, spec, budget, rho, **kwargs):
        planned.append((len(scenes), part, float(rho.max())))
        return path(scenes, part, spec, budget, rho, **kwargs)

    monkeypatch.setattr(quadrature, "_path", counted)
    return planned


@pytest.mark.parametrize("count", [8, 16, 64])
@pytest.mark.parametrize("rule", ["snr_dependent_D", "snr_dependent_De"])
@pytest.mark.parametrize("group", ["los", "materials"])
def test_batches_price_unions_by_arithmetic(monkeypatch, count, rule, group):
    """The union of a fig3/fig5 sweep's layouts goes to one synthesis,
    which prices its runs by arithmetic on plans made once: a run's lags
    times the summed cost of its paths.  Each path choice is for a lag of
    its own, fewer lags are planned than the union holds, and the chosen
    runs synthesize on their pricing plans, planning nothing again."""
    layouts, scenes, component = _sweep(count, rule, group)
    sizes = []
    synthesize = mimo.synthesize_impulse

    def counted(scenes, component, union, spec):
        sizes.append(len(union))
        return synthesize(scenes, component, union, spec)

    monkeypatch.setattr(mimo, "synthesize_impulse", counted)
    planned = _counted_paths(monkeypatch)
    _assemble(scenes, layouts, component, None)
    (lags,) = sizes
    assert len(set(planned)) == len(planned) < lags


def test_sweep_plans_each_layout_and_synthesis_once(monkeypatch):
    """fig5 at N = 16 plans no layout: each synthesis plans each lag it
    prices once and runs each chosen run on its pricing plan.  Both of its
    components have a single part, so it takes no more than the 18 path
    choices of planning each of its 16 layouts and 2 syntheses once."""
    planned = _counted_paths(monkeypatch)
    run_named("fig5", ExperimentConfig(antennas=16))
    assert len(set(planned)) == len(planned) <= 18


_TILTED = [
    (ArrayLayout(3, 0.05, center=(0.01, 0.0, 0.0), axis=(0.6, 0.0, 0.8)),
     ArrayLayout(4, 0.04, center=(0.02, 0.03, RANGE))),
    (ArrayLayout(2, 0.07, center=(0.0, 0.0, 0.1), axis=(0.0, 0.6, 0.8)),
     ArrayLayout(3, 0.05, center=(0.3, 0.0, RANGE), axis=(0.8, 0.0, 0.6))),
]


@pytest.mark.parametrize("component", [FieldComponent.REFLECTION_ONLY,
                                       FieldComponent.LOS_PLUS_REFLECTION])
def test_tilted_layouts_record_the_largest_budget_of_their_entries(component):
    """A tilted or offset layout spans several pairs of planes.  Its matrix
    records as its spec the largest :func:`estimate_nodes` of its entries,
    each on its own planes, built alone or with other layouts."""
    expected = []
    for tx, rx in _TILTED:
        scenes = [dataclasses.replace(_KEYED_SCENE, receiver_z=r[2], source_z=t[2])
                  for r in rx.positions for t in tx.positions]
        lags = [math.hypot(r[0] - t[0], r[1] - t[1])
                for r in rx.positions for t in tx.positions]
        assert len({(scene.receiver_z, scene.source_z) for scene in scenes}) > 1
        expected.append(max(estimate_nodes(scene, lag, oscillation_span(scene, component)).n_alpha
                            for scene, lag in zip(scenes, lags)))
    alone = [build_channel_matrix(_KEYED_SCENE, tx, rx, component).spec for tx, rx in _TILTED]
    together = [matrix.spec for (matrix,) in _assemble([_KEYED_SCENE], _TILTED, component, None)]
    assert alone == together == [QuadratureSpec(need) for need in expected]


def test_far_samples_name_the_coordinate_their_key_cannot_hold():
    """A lag or plane beyond the ~9,223 km reach of the int64 picometre
    keys is refused by name, not merged or misordered."""
    medium = Medium(1e6, PERFECT_CONDUCTOR)
    scene = SceneConfig(medium=medium, surface_z=1e5, source_z=0.0, receiver_z=5e4)
    with pytest.raises(ValueError, match="lag 12000000.0 m"):
        build_channel_matrix(scene, ArrayLayout.along_x(3, 6e6, 0.0),
                             ArrayLayout.along_x(3, 6e6, 5e4), FieldComponent.REFLECTION_ONLY)
    scene = SceneConfig(medium=medium, surface_z=2e7, source_z=0.0, receiver_z=1e7)
    with pytest.raises(ValueError, match="receiver plane 10000000.0 m"):
        build_channel_matrix(scene, ArrayLayout.along_x(3, 1.0, 0.0),
                             ArrayLayout.along_x(3, 1.0, 1e7), FieldComponent.REFLECTION_ONLY)


class TestEigenSpectrum:
    def test_self_sum_total(self, pc_reflection_channel):
        spectrum = eigen_spectrum(pc_reflection_channel)
        assert spectrum.normalization == SELF_SUM
        size = pc_reflection_channel.entries.size
        assert float(spectrum.values.sum()) == pytest.approx(size, rel=1e-10)
        assert np.all(np.diff(spectrum.values) <= 1e-12)

    def test_rank_one_matrix(self):
        spectrum = eigen_spectrum(np.ones((4, 4), dtype=complex))
        assert spectrum.values[0] == pytest.approx(16.0, rel=1e-12)
        assert np.all(np.abs(spectrum.values[1:]) <= 1e-10)

    def test_phase_diagonal_invariance(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        left = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 5)))
        right = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 5)))
        base = eigen_spectrum(h).values
        rotated = eigen_spectrum(left @ h @ right).values
        assert np.max(np.abs(base - rotated)) <= 1e-12 * base[0]

    def test_raw_matches_reference_solver(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        raw = raw_eigenvalues(h)
        reference = np.sort(np.linalg.eigvals(h @ h.conj().T).real)[::-1]
        assert np.max(np.abs(raw - reference)) <= 1e-9 * reference[0]

    @pytest.mark.parametrize("shape", [(5, 5), (3, 7), (7, 3)],
                             ids=["square", "wide", "tall"])
    def test_raw_descending_nonnegative_and_sums_to_power(self, shape):
        rng = np.random.default_rng(17)
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        raw = raw_eigenvalues(h)
        assert raw.shape == (shape[0],)
        assert np.all(np.diff(raw) <= 0.0)
        assert np.all(raw >= 0.0)
        power = np.linalg.norm(h, "fro") ** 2
        assert float(raw.sum()) == pytest.approx(power, rel=1e-12)

    def test_raw_clamps_round_off_below_zero(self):
        h = np.outer([1.0, 1e-3, 2.0], [3.0, -1.0, 0.5]).astype(complex)
        raw = raw_eigenvalues(h)
        assert np.all(raw >= 0.0)
        # squared singular values of H; an eigensolve of this rank-one Gram
        # matrix returns about -1e-14 and 4e-15 for its two zero eigenvalues
        assert raw[-1] == 0.0
        assert raw[0] == pytest.approx(np.linalg.norm(h, "fro") ** 2, rel=1e-12)
        assert np.all(raw[1:] <= 1e-28 * raw[0])

    def test_raw_single_entry(self):
        assert raw_eigenvalues(np.array([[3.0 - 4.0j]])) == pytest.approx([25.0])

    def test_raw_real_symmetric_input(self):
        h = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(raw_eigenvalues(h), [9.0, 1.0], rtol=1e-14)

    def test_relative_mode_reuses_scale(self):
        rng = np.random.default_rng(21)
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        base = eigen_spectrum(h)
        relative = eigen_spectrum(0.5 * h, RELATIVE, reference_scale=base.scale)
        assert relative.normalization == RELATIVE
        assert np.allclose(relative.values, 0.25 * base.values)

    def test_relative_mode_needs_scale(self):
        h = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="reference_scale"):
            eigen_spectrum(h, RELATIVE)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="positive, finite reference_scale"):
                eigen_spectrum(h, RELATIVE, reference_scale=bad)

    def test_unknown_normalization(self):
        with pytest.raises(ValueError, match="normalization"):
            eigen_spectrum(np.eye(2, dtype=complex), "soft_max")

    def test_db_conversion(self):
        spectrum = eigen_spectrum(np.diag([2.0, 1.0]).astype(complex))
        assert spectrum.db[0] == pytest.approx(
            10.0 * np.log10(spectrum.values[0]), rel=1e-12
        )


class TestSpacingRules:
    def test_frozen_design_spacings(self, vacuum_medium):
        lam = vacuum_medium.wavelength
        assert spacing_rayleigh(lam, 10.0, 8) == pytest.approx(
            0.08073036172560993, rel=1e-14
        )
        assert spacing_rayleigh(lam, 20.0, 8) == pytest.approx(
            0.11416997244764339, rel=1e-14
        )

    def test_snr_spacing_recovers_full_rank_at_high_snr(self, vacuum_medium):
        lam = vacuum_medium.wavelength
        full = spacing_rayleigh(lam, 10.0, 8)
        assert spacing_snr(lam, 10.0, 8, 10.0) == pytest.approx(full, rel=1e-14)

    def test_snr_spacing_shrinks_at_low_snr(self, vacuum_medium):
        lam = vacuum_medium.wavelength
        full = spacing_rayleigh(lam, 10.0, 8)
        low = spacing_snr(lam, 10.0, 8, 1.0)
        assert low == pytest.approx(np.sqrt(4.0 / 8.0) * full, rel=1e-14)

    def test_snr_spacing_monotone(self, vacuum_medium):
        lam = vacuum_medium.wavelength
        grid = [10.0 ** (db / 10.0) for db in range(-10, 41, 2)]
        spacings = [spacing_snr(lam, 10.0, 8, s) for s in grid]
        assert all(b >= a for a, b in zip(spacings, spacings[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            spacing_rayleigh(0.0, 10.0, 8)
        with pytest.raises(ValueError):
            spacing_rayleigh(1.0, -1.0, 8)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                spacing_rayleigh(bad, 10.0, 8)
            with pytest.raises(ValueError):
                spacing_rayleigh(1e-3, bad, 8)
            with pytest.raises(ValueError, match="snr"):
                spacing_snr(1e-3, 10.0, 8, bad)


def _reciprocity_gap(material, source_z, receiver_z, gap, count, spacing, offset):
    """The upgoing channel against the transposed downgoing one, relative
    to its largest entry."""
    medium = Medium(57.5e9, material)
    surface_z = receiver_z + 11.0 * medium.wavelength + gap
    tx = ArrayLayout(count, spacing, center=(0.0, 0.0, source_z))
    rx = ArrayLayout(count + 1, 1.5 * spacing, center=(offset, 0.0, receiver_z))
    up = SceneConfig(medium=medium, surface_z=surface_z, source_z=source_z,
                     receiver_z=receiver_z)
    down = dataclasses.replace(up, source_z=receiver_z, receiver_z=source_z)
    forward = build_channel_matrix(up, tx, rx, FieldComponent.LOS_PLUS_REFLECTION)
    backward = build_channel_matrix(down, rx, tx, FieldComponent.DOWNGOING_LOS_PLUS_REFLECTION)
    scale = np.max(np.abs(forward.entries))
    return np.max(np.abs(forward.entries - backward.entries.T)) / scale


class TestReciprocity:
    """Swapping transmitter and receiver transposes the channel: the upgoing
    direct-plus-reflected field from the source plane to the receiver plane
    equals the downgoing one from the receiver plane back to the source
    plane, each synthesized as the sum of its own single-term parts."""

    @settings(max_examples=20, deadline=None)
    @given(
        material=st.sampled_from([PERFECT_CONDUCTOR, CONCRETE]),
        source_z=st.floats(-1.0, -0.05),
        receiver_z=st.floats(0.05, 1.0),
        gap=st.floats(0.0, 1.0),
        count=st.integers(1, 4),
        spacing=st.floats(0.005, 0.05),
        offset=st.floats(-0.1, 0.1),
    )
    def test_upgoing_is_the_transposed_downgoing(self, material, source_z, receiver_z,
                                                 gap, count, spacing, offset):
        assert _reciprocity_gap(material, source_z, receiver_z, gap, count, spacing,
                                offset) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        material=st.sampled_from([PERFECT_CONDUCTOR, CONCRETE]),
        source_z=st.floats(-1.0, -0.05),
        receiver_z=st.floats(0.05, 1.0),
        gap=st.floats(0.0, 1.0),
        rho=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=6),
        n_alpha=st.sampled_from([None, 64, 4096, 100_000]),
    )
    def test_swapped_planes_budget_and_plan_alike(self, material, source_z, receiver_z, gap,
                                                  rho, n_alpha):
        """The upgoing pair of planes and the swapped, downgoing one give
        every lag the same budget, and the same path to each part, the
        direct wave and the image: lag by lag, its own path included, and
        shared by all the lags."""
        medium = Medium(57.5e9, material)
        up = SceneConfig(medium=medium, surface_z=receiver_z + 11.0 * medium.wavelength + gap,
                         source_z=source_z, receiver_z=receiver_z)
        down = dataclasses.replace(up, source_z=receiver_z, receiver_z=source_z)
        pairs = [([up], FieldComponent.LOS_PLUS_REFLECTION),
                 ([down], FieldComponent.DOWNGOING_LOS_PLUS_REFLECTION)]
        rho = np.sort(np.array(rho))
        spec = None if n_alpha is None else QuadratureSpec(n_alpha)
        needs, swapped = (quadrature._budgets(scenes, component, rho)
                          for scenes, component in pairs)
        assert needs == swapped
        for lags, need, per_lag in [*((rho[i:i + 1], needs[i], True) for i in range(rho.size)),
                                    (rho, needs[-1], False)]:
            forward, backward = (quadrature._plan(scenes, component, lags, need, spec,
                                                  per_lag=per_lag) for scenes, component in pairs)
            assert [part for part, _ in forward] == [FieldComponent.LOS_ONLY,
                                                     FieldComponent.REFLECTION_ONLY]
            assert forward == backward

    def test_image_length_is_the_same_from_either_plane(self):
        """2 d1 - (r_z + s_z) rounds alike whichever plane is the source:
        formed as 2 d1 - r_z - s_z, this example's direct part took 576
        nodes one way and 577 the other, and differed by 6.6e-12."""
        assert _reciprocity_gap(PERFECT_CONDUCTOR, -0.427734375, 0.05, 0.0, 4, 0.005,
                                0.0) <= 1e-12

    def test_merged_lag_key_is_evaluated_at_its_smallest_member(self):
        """The lags 0.0625 -+ 3.8e-14 m share a picometre key.  Each
        direction lists them in its own order, and both evaluate the key at
        the smaller one: taken at its first occurrence, the two channels
        differed by 4.2e-12."""
        tx = ArrayLayout(2, 0.03125, center=(0.0, 0.0, -1.0))
        rx = ArrayLayout(3, 0.046875, center=(3.8e-14, 0.0, 1.0))
        (forward, _), (backward, _) = mimo._samples(tx, rx), mimo._samples(rx, tx)
        assert np.array_equal(forward[:, 2], backward[:, 2])
        assert _reciprocity_gap(PERFECT_CONDUCTOR, -1.0, 1.0, 0.0, 2, 0.03125,
                                3.8e-14) <= 1e-12
