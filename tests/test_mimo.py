"""Tests for channel-matrix assembly and eigenvalue normalization."""

import numpy as np
import pytest

from reflectmimo import (
    RELATIVE,
    SELF_SUM,
    ArrayLayout,
    FieldComponent,
    QuadratureSpec,
    SceneConfig,
    SpatialLag,
    UnderResolvedWarning,
    build_channel_matrix,
    eigen_spectrum,
    raw_eigenvalues,
    spacing_rayleigh,
    spacing_snr,
    synthesize_impulse,
)

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
        reference = np.linalg.svd(h, compute_uv=False) ** 2
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
        assert raw[-1] == 0.0  # LAPACK returns about -1e-14 for this rank-one Gram
        assert raw[0] == pytest.approx(np.linalg.norm(h, "fro") ** 2, rel=1e-12)
        assert np.all(raw[1:] <= 1e-12 * raw[0])

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
        with pytest.raises(ValueError, match="reference_scale"):
            eigen_spectrum(h, RELATIVE, reference_scale=0.0)

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
