"""Tests for the disk + branch-cut synthesis of the spatial impulse response."""

import warnings

import numpy as np
import pytest

from reflectmimo import (
    CONCRETE,
    FieldComponent,
    Medium,
    QuadratureSpec,
    SceneConfig,
    SceneError,
    SpatialLag,
    UnderResolvedWarning,
    convergence_study,
    estimate_nodes,
    fresnel_reflection,
    los_impulse,
    oscillation_span,
    synthesize_impulse,
)
from reflectmimo.quadrature import _required_nodes

FREQUENCY = 57.5e9


def _auto_spec(scene, component, lag):
    return estimate_nodes(scene, lag.transverse, oscillation_span(scene, component))


def _los_scene(medium, dz=1.0):
    return SceneConfig(
        medium=medium, surface_z=dz + 1.0, source_z=0.0, receiver_z=dz
    )


class TestSpecAndLag:
    def test_spec_bounds(self):
        QuadratureSpec(n_alpha=2, n_beta=4)
        with pytest.raises(ValueError, match="n_alpha"):
            QuadratureSpec(n_alpha=1)
        with pytest.raises(ValueError, match="n_beta"):
            QuadratureSpec(n_alpha=8, n_beta=3)

    def test_lag_transverse(self):
        assert SpatialLag(3.0, 4.0).transverse == pytest.approx(5.0)
        assert SpatialLag(0.25).transverse == 0.25


class TestEstimateNodes:
    def test_frozen_small_case(self, vacuum_medium):
        scene = _los_scene(vacuum_medium, dz=10.0 * vacuum_medium.wavelength)
        spec = estimate_nodes(scene, 0.0, 10.0 * vacuum_medium.wavelength)
        assert (spec.n_alpha, spec.n_beta) == (60, 4)

    def test_frozen_room_scale_case(self, vacuum_medium):
        scene = SceneConfig(
            medium=vacuum_medium, surface_z=21.0, source_z=0.0, receiver_z=20.0
        )
        spec = estimate_nodes(scene, 0.6, 20.6)
        assert (spec.n_alpha, spec.n_beta) == (24397, 883)

    def test_scales_linearly_in_span(self, vacuum_medium):
        scene = _los_scene(vacuum_medium)
        small = estimate_nodes(scene, 0.0, 1.0)
        large = estimate_nodes(scene, 0.0, 2.0)
        assert large.n_alpha == pytest.approx(2 * small.n_alpha, abs=1)

    def test_negative_arguments_rejected(self, vacuum_medium):
        scene = _los_scene(vacuum_medium)
        with pytest.raises(ValueError, match="max_lag"):
            estimate_nodes(scene, -0.1, 1.0)
        with pytest.raises(ValueError, match="dz_total"):
            estimate_nodes(scene, 0.0, -1.0)


class TestAgainstClosedForms:
    def test_los_on_axis(self, vacuum_medium):
        scene = _los_scene(vacuum_medium)
        lag = SpatialLag(0.0)
        spec = _auto_spec(scene, FieldComponent.LOS_ONLY, lag)
        value = synthesize_impulse(scene, FieldComponent.LOS_ONLY, lag, spec)
        expected = los_impulse(vacuum_medium, (0.0, 0.0, 1.0), (0.0, 0.0, 0.0))
        assert value == pytest.approx(expected, rel=1e-8)

    def test_los_off_axis(self, vacuum_medium):
        scene = _los_scene(vacuum_medium)
        lag = SpatialLag(0.35, 0.1)
        spec = _auto_spec(scene, FieldComponent.LOS_ONLY, lag)
        value = synthesize_impulse(scene, FieldComponent.LOS_ONLY, lag, spec)
        expected = los_impulse(vacuum_medium, (0.35, 0.1, 1.0), (0.0, 0.0, 0.0))
        assert value == pytest.approx(expected, rel=1e-8)

    def test_conductor_reflection_is_sign_flipped_mirror(self, conductor_medium):
        d1 = 1.5
        scene = SceneConfig(
            medium=conductor_medium, surface_z=d1, source_z=0.0, receiver_z=0.6
        )
        lag = SpatialLag(0.4)
        spec = _auto_spec(scene, FieldComponent.REFLECTION_ONLY, lag)
        value = synthesize_impulse(scene, FieldComponent.REFLECTION_ONLY, lag, spec)
        expected = -los_impulse(
            conductor_medium, (0.4, 0.0, 0.6), (0.0, 0.0, 2.0 * d1)
        )
        assert value == pytest.approx(expected, rel=1e-8)

    def test_downgoing_matches_two_term_closed_form(self, conductor_medium):
        d1 = 1.0
        scene = SceneConfig(
            medium=conductor_medium, surface_z=d1, source_z=0.0, receiver_z=-0.8
        )
        lag = SpatialLag(0.3)
        spec = _auto_spec(
            scene, FieldComponent.DOWNGOING_LOS_PLUS_REFLECTION, lag
        )
        value = synthesize_impulse(
            scene, FieldComponent.DOWNGOING_LOS_PLUS_REFLECTION, lag, spec
        )
        expected = los_impulse(
            conductor_medium, (0.3, 0.0, -0.8), (0.0, 0.0, 0.0)
        ) - los_impulse(conductor_medium, (0.3, 0.0, -0.8), (0.0, 0.0, 2.0 * d1))
        assert value == pytest.approx(expected, rel=1e-10)

    def test_vacuum_transmission_is_plain_propagation(self, vacuum_medium):
        scene = SceneConfig(
            medium=vacuum_medium, surface_z=0.6, source_z=0.0, receiver_z=1.4
        )
        lag = SpatialLag(0.2)
        spec = _auto_spec(scene, FieldComponent.TRANSMISSION, lag)
        value = synthesize_impulse(scene, FieldComponent.TRANSMISSION, lag, spec)
        expected = los_impulse(vacuum_medium, (0.2, 0.0, 1.4), (0.0, 0.0, 0.0))
        assert value == pytest.approx(expected, rel=1e-10)

    def test_combined_equals_sum_of_parts(self, conductor_medium):
        scene = SceneConfig(
            medium=conductor_medium, surface_z=1.2, source_z=0.0, receiver_z=0.7
        )
        lag = SpatialLag(0.15)
        spec = _auto_spec(scene, FieldComponent.LOS_PLUS_REFLECTION, lag)
        combined = synthesize_impulse(
            scene, FieldComponent.LOS_PLUS_REFLECTION, lag, spec
        )
        parts = synthesize_impulse(
            scene, FieldComponent.LOS_ONLY, lag, spec
        ) + synthesize_impulse(scene, FieldComponent.REFLECTION_ONLY, lag, spec)
        assert combined == pytest.approx(parts, rel=1e-12)

    def test_dielectric_on_axis_scales_like_normal_incidence(self):
        medium = Medium(frequency=FREQUENCY, material=CONCRETE)
        d1 = 1.0
        scene = SceneConfig(medium=medium, surface_z=d1, source_z=0.0, receiver_z=0.5)
        lag = SpatialLag(0.0)
        spec = _auto_spec(scene, FieldComponent.REFLECTION_ONLY, lag)
        value = synthesize_impulse(scene, FieldComponent.REFLECTION_ONLY, lag, spec)
        r_normal = complex(fresnel_reflection(medium, 0.0, 0.0)).real
        mirror_wave = los_impulse(medium, (0.0, 0.0, 0.5), (0.0, 0.0, 2.0 * d1))
        assert value == pytest.approx(r_normal * mirror_wave, rel=1e-3)


class TestMethodsAndTail:
    def test_generic_matches_bessel(self, conductor_medium):
        scene = SceneConfig(
            medium=conductor_medium, surface_z=1.2, source_z=0.0, receiver_z=0.6
        )
        lag = SpatialLag(0.21, 0.13)
        spec = _auto_spec(scene, FieldComponent.LOS_PLUS_REFLECTION, lag)
        fast = synthesize_impulse(
            scene, FieldComponent.LOS_PLUS_REFLECTION, lag, spec, method="bessel"
        )
        slow = synthesize_impulse(
            scene, FieldComponent.LOS_PLUS_REFLECTION, lag, spec, method="generic"
        )
        assert slow == pytest.approx(fast, rel=1e-12)

    def test_generic_rotation_invariance(self, vacuum_medium):
        scene = _los_scene(vacuum_medium)
        spec = _auto_spec(scene, FieldComponent.LOS_ONLY, SpatialLag(0.5))
        a = synthesize_impulse(
            scene, FieldComponent.LOS_ONLY, SpatialLag(0.3, 0.4), spec,
            method="generic",
        )
        b = synthesize_impulse(
            scene, FieldComponent.LOS_ONLY, SpatialLag(0.5, 0.0), spec,
            method="generic",
        )
        assert a == pytest.approx(b, rel=1e-12)

    def test_disk_only_route_misses_the_closed_form(self, vacuum_medium):
        scene = _los_scene(vacuum_medium)
        lag = SpatialLag(0.0)
        spec = _auto_spec(scene, FieldComponent.LOS_ONLY, lag)
        expected = los_impulse(vacuum_medium, (0.0, 0.0, 1.0), (0.0, 0.0, 0.0))
        disk_only = synthesize_impulse(
            scene, FieldComponent.LOS_ONLY, lag, spec,
            include_evanescent_tail=False,
        )
        completed = synthesize_impulse(scene, FieldComponent.LOS_ONLY, lag, spec)
        assert abs(disk_only - expected) / abs(expected) > 0.1
        assert abs(completed - expected) / abs(expected) < 1e-8
        assert disk_only != completed

    def test_invalid_method_rejected(self, vacuum_medium):
        scene = _los_scene(vacuum_medium)
        with pytest.raises(ValueError, match="method"):
            synthesize_impulse(
                scene, FieldComponent.LOS_ONLY, SpatialLag(0.0),
                QuadratureSpec(n_alpha=64), method="simpson",
            )


class TestLagBatches:
    @pytest.fixture
    def scene(self, conductor_medium):
        return SceneConfig(
            medium=conductor_medium, surface_z=1.2, source_z=0.0, receiver_z=0.6
        )

    def test_sequence_equals_scalar_calls(self, scene):
        lags = [
            SpatialLag(0.21, 0.13),
            SpatialLag(0.0),
            SpatialLag(-0.4, receiver_z=0.7),
            SpatialLag(0.05, -0.3, receiver_z=0.7, source_z=0.1),
            SpatialLag(0.21, 0.13),
        ]
        component = FieldComponent.LOS_PLUS_REFLECTION
        spec = _auto_spec(scene, component, SpatialLag(0.5))
        batch = synthesize_impulse(scene, component, lags, spec)
        assert isinstance(batch, np.ndarray) and batch.shape == (len(lags),)
        scalar = np.array([synthesize_impulse(scene, component, lag, spec) for lag in lags])
        assert np.max(np.abs(batch - scalar)) <= 1e-12 * np.max(np.abs(scalar))
        assert batch[0] == batch[-1]

    def test_required_nodes_is_the_largest_plane_budget(self, scene):
        component = FieldComponent.REFLECTION_ONLY
        lags = [SpatialLag(0.4), SpatialLag(0.1, receiver_z=0.2), SpatialLag(0.0)]
        lower = SceneConfig(medium=scene.medium, surface_z=1.2, source_z=0.0,
                            receiver_z=0.2)
        budgets = [_auto_spec(scene, component, SpatialLag(0.4)),
                   _auto_spec(lower, component, SpatialLag(0.1))]
        needed = _required_nodes(scene, component, lags)
        assert needed.n_alpha == max(b.n_alpha for b in budgets)
        assert needed.n_beta == max(b.n_beta for b in budgets)

    def test_single_lag_returns_a_complex(self, scene):
        lag = SpatialLag(0.1)
        spec = _auto_spec(scene, FieldComponent.REFLECTION_ONLY, lag)
        value = synthesize_impulse(scene, FieldComponent.REFLECTION_ONLY, lag, spec)
        assert type(value) is complex
        batch = synthesize_impulse(scene, FieldComponent.REFLECTION_ONLY, [lag], spec)
        assert batch.shape == (1,)

    def test_generic_sequence_equals_bessel(self, scene):
        lags = [SpatialLag(0.21, 0.13), SpatialLag(0.1, receiver_z=0.7)]
        component = FieldComponent.REFLECTION_ONLY
        spec = _auto_spec(scene, component, SpatialLag(0.25))
        fast = synthesize_impulse(scene, component, lags, spec)
        slow = synthesize_impulse(scene, component, lags, spec, method="generic")
        assert np.allclose(slow, fast, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("x", [0.07, 0.33])
    def test_mirror_and_swap_symmetry(self, scene, x):
        """h(x, 0) = h(-x, 0) = h(0, x): the response depends on the
        transverse distance only, which matrix assembly relies on.  The
        two-dimensional rule checks it without assuming the Bessel form."""
        component = FieldComponent.REFLECTION_ONLY
        spec = _auto_spec(scene, component, SpatialLag(x))
        lags = [SpatialLag(x, 0.0), SpatialLag(-x, 0.0), SpatialLag(0.0, x)]
        fast = synthesize_impulse(scene, component, lags, spec)
        assert fast[0] == fast[1] == fast[2]
        slow = synthesize_impulse(scene, component, lags, spec, method="generic")
        assert np.allclose(slow, fast[0], rtol=1e-12, atol=0.0)


class TestWarningsAndOverrides:
    def test_under_resolved_warning(self, vacuum_medium):
        scene = _los_scene(vacuum_medium, dz=2.0)
        with pytest.warns(UnderResolvedWarning):
            synthesize_impulse(
                scene, FieldComponent.LOS_ONLY, SpatialLag(0.0),
                QuadratureSpec(n_alpha=64),
            )

    def test_adequate_spec_is_silent(self, vacuum_medium):
        scene = _los_scene(vacuum_medium)
        lag = SpatialLag(0.1)
        spec = _auto_spec(scene, FieldComponent.LOS_ONLY, lag)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UnderResolvedWarning)
            synthesize_impulse(scene, FieldComponent.LOS_ONLY, lag, spec)

    def test_plane_override_changes_geometry(self, vacuum_medium):
        scene = _los_scene(vacuum_medium)
        spec = _auto_spec(scene, FieldComponent.LOS_ONLY, SpatialLag(0.0))
        moved = synthesize_impulse(
            scene, FieldComponent.LOS_ONLY, SpatialLag(0.0, receiver_z=0.8), spec
        )
        expected = los_impulse(vacuum_medium, (0.0, 0.0, 0.8), (0.0, 0.0, 0.0))
        assert moved == pytest.approx(expected, rel=1e-8)

    def test_plane_override_is_revalidated(self, vacuum_medium):
        scene = _los_scene(vacuum_medium)
        spec = QuadratureSpec(n_alpha=64)
        with pytest.raises(SceneError):
            synthesize_impulse(
                scene,
                FieldComponent.LOS_ONLY,
                SpatialLag(0.0, receiver_z=scene.surface_z + 0.5),
                spec,
            )


class TestConvergenceStudy:
    def test_converges_to_closed_form(self, vacuum_medium):
        scene = _los_scene(vacuum_medium)
        study = convergence_study(
            scene, FieldComponent.LOS_ONLY, SpatialLag(0.2), rel_tol=1e-9
        )
        assert study.converged
        assert study.rows[0].delta is None
        assert all(row.delta is not None for row in study.rows[1:])
        expected = los_impulse(vacuum_medium, (0.2, 0.0, 1.0), (0.0, 0.0, 0.0))
        assert study.value == pytest.approx(expected, rel=1e-7)
        assert study.rows[-1].delta < 1e-9

    def test_node_counts_double(self, vacuum_medium):
        scene = _los_scene(vacuum_medium)
        study = convergence_study(
            scene, FieldComponent.LOS_ONLY, SpatialLag(0.0), rel_tol=1e-10
        )
        counts = [row.n_alpha for row in study.rows]
        assert counts == sorted(counts)
        for before, after in zip(counts, counts[1:]):
            assert after == 2 * before

    def test_budget_cap_reported(self, vacuum_medium):
        scene = _los_scene(vacuum_medium)
        study = convergence_study(
            scene,
            FieldComponent.LOS_ONLY,
            SpatialLag(0.0),
            rel_tol=1e-30,
            max_nodes=700,
        )
        assert not study.converged
        assert len(study.rows) >= 2
        assert study.rows[-1].n_alpha <= 1400

    def test_tiny_cap_still_evaluates_once(self, vacuum_medium):
        scene = _los_scene(vacuum_medium)
        study = convergence_study(
            scene, FieldComponent.LOS_ONLY, SpatialLag(0.0), max_nodes=1
        )
        assert len(study.rows) == 1
        assert not study.converged
        assert study.rows[0].delta is None
