"""Scene validation and the piecewise wavenumber response."""

import numpy as np
import pytest

from reflectmimo import (
    CONCRETE,
    PERFECT_CONDUCTOR,
    VACUUM,
    FieldComponent,
    Medium,
    SceneConfig,
    SceneError,
    fresnel_reflection,
    fresnel_transmission,
    validate_component,
    wavenumber_response,
)
from reflectmimo.materials import FREE_SPACE_IMPEDANCE
from reflectmimo.spectrum import (
    decay_distance,
    oscillation_span,
    propagating_factor,
)

FREQUENCY = 57.5e9


def _scene(material=VACUUM, surface_z=1.0, source_z=0.0, receiver_z=0.5, radius=0.0):
    return SceneConfig(
        medium=Medium(FREQUENCY, material), surface_z=surface_z,
        source_z=source_z, receiver_z=receiver_z, source_radius=radius,
    )


class TestSceneConfig:
    def test_valid_scene(self):
        scene = _scene()
        assert scene.surface_z == 1.0

    def test_source_right_of_surface_rejected(self):
        with pytest.raises(SceneError) as err:
            _scene(surface_z=1.0, source_z=2.0)
        assert any("left of the surface" in v for v in err.value.violations)

    def test_clearance_guard(self, vacuum_medium):
        # Ten wavelengths is about 5.2 cm at this frequency.
        with pytest.raises(SceneError) as err:
            _scene(surface_z=0.04, source_z=0.0)
        assert any("wavelength guard" in v for v in err.value.violations)

    def test_negative_radius_rejected(self):
        with pytest.raises(SceneError):
            _scene(radius=-0.1)

    def test_radius_reaching_surface_rejected(self):
        with pytest.raises(SceneError):
            _scene(surface_z=1.0, radius=1.0)

    def test_receiver_unconstrained(self):
        _scene(receiver_z=5.0)
        _scene(receiver_z=-5.0)
        _scene(receiver_z=1.0)

    def test_violations_accumulate(self):
        with pytest.raises(SceneError) as err:
            _scene(surface_z=1.0, source_z=2.0, radius=-1.0)
        assert len(err.value.violations) == 2

    @pytest.mark.parametrize(("fields", "names"), [
        ({"surface_z": np.inf}, ["surface_z"]),
        ({"surface_z": np.inf, "source_z": -np.inf}, ["surface_z", "source_z"]),
        ({"receiver_z": np.nan}, ["receiver_z"]),
        ({"radius": np.inf}, ["source_radius"]),
        ({"surface_z": np.nan, "source_z": np.nan, "receiver_z": np.inf, "radius": np.nan},
         ["surface_z", "source_z", "receiver_z", "source_radius"]),
    ])
    def test_non_finite_fields_each_named(self, fields, names):
        with pytest.raises(SceneError) as err:
            _scene(**fields)
        assert [v.split()[0] for v in err.value.violations] == names
        assert all("finite" in v for v in err.value.violations)


class TestComponentValidation:
    def test_transmission_needs_far_side(self):
        validate_component(_scene(receiver_z=1.0), FieldComponent.TRANSMISSION)
        validate_component(_scene(receiver_z=2.0), FieldComponent.TRANSMISSION)
        with pytest.raises(ValueError):
            validate_component(_scene(receiver_z=0.5), FieldComponent.TRANSMISSION)

    def test_upgoing_window(self):
        for component in (FieldComponent.LOS_ONLY, FieldComponent.REFLECTION_ONLY,
                          FieldComponent.LOS_PLUS_REFLECTION):
            validate_component(_scene(receiver_z=0.5), component)
            validate_component(_scene(receiver_z=1.0), component)  # on the surface
            with pytest.raises(ValueError):
                validate_component(_scene(receiver_z=-0.5), component)
            with pytest.raises(ValueError):
                validate_component(_scene(receiver_z=1.5), component)

    def test_upgoing_respects_source_sphere(self):
        scene = _scene(receiver_z=0.05, radius=0.1)
        with pytest.raises(ValueError):
            validate_component(scene, FieldComponent.LOS_ONLY)

    def test_downgoing_window(self):
        validate_component(
            _scene(receiver_z=-0.5), FieldComponent.DOWNGOING_LOS_PLUS_REFLECTION,
        )
        with pytest.raises(ValueError):
            validate_component(
                _scene(receiver_z=0.5), FieldComponent.DOWNGOING_LOS_PLUS_REFLECTION,
            )
        with pytest.raises(ValueError):
            validate_component(
                _scene(receiver_z=-0.05, radius=0.1),
                FieldComponent.DOWNGOING_LOS_PLUS_REFLECTION,
            )


class TestPropagatingFactor:
    def test_los_phase(self):
        scene = _scene(receiver_z=0.5)
        k1z = scene.medium.kappa1 * np.cos(np.linspace(0.0, 1.5, 5))
        factor = propagating_factor(scene, FieldComponent.LOS_ONLY, k1z)
        assert np.allclose(factor, np.exp(1j * k1z * 0.5), rtol=0, atol=1e-15)

    def test_reflection_phase_and_coefficient(self):
        scene = _scene(material=CONCRETE, surface_z=1.0, receiver_z=0.5)
        medium = scene.medium
        k1z = medium.kappa1 * np.cos(np.linspace(0.1, 1.4, 5))
        rho = np.sqrt(medium.kappa1 ** 2 - k1z ** 2)
        r = fresnel_reflection(medium, rho, np.zeros_like(rho))
        factor = propagating_factor(scene, FieldComponent.REFLECTION_ONLY, k1z)
        expected = r * np.exp(-1j * k1z * (0.5 + 0.0 - 2.0))
        assert np.allclose(factor, expected, rtol=1e-13)

    def test_combined_is_sum(self):
        scene = _scene(material=CONCRETE, receiver_z=0.5)
        k1z = scene.medium.kappa1 * np.cos(np.linspace(0.0, 1.5, 7))
        los = propagating_factor(scene, FieldComponent.LOS_ONLY, k1z)
        refl = propagating_factor(scene, FieldComponent.REFLECTION_ONLY, k1z)
        both = propagating_factor(scene, FieldComponent.LOS_PLUS_REFLECTION, k1z)
        assert np.allclose(both, los + refl, rtol=1e-13)

    def test_transmission_continuous_at_surface(self):
        # 1 + R = T forces field continuity across the interface.
        scene = _scene(material=CONCRETE, surface_z=0.5, receiver_z=0.5)
        k1z = scene.medium.kappa1 * np.cos(np.linspace(0.0, 1.5, 9))
        left = propagating_factor(scene, FieldComponent.LOS_PLUS_REFLECTION, k1z)
        right = propagating_factor(scene, FieldComponent.TRANSMISSION, k1z)
        assert np.max(np.abs(left - right)) <= 1e-12

    def test_downgoing_direct_phase(self):
        scene = _scene(receiver_z=-0.5)
        k1z = scene.medium.kappa1 * np.cos(np.linspace(0.0, 1.5, 5))
        factor = propagating_factor(
            scene, FieldComponent.DOWNGOING_LOS_PLUS_REFLECTION, k1z,
        )
        # Vacuum surface: no reflected part, pure downgoing direct wave.
        assert np.allclose(factor, np.exp(-1j * k1z * (-0.5)), rtol=0, atol=1e-15)

    def test_conductor_reflection_sign(self):
        scene = _scene(material=PERFECT_CONDUCTOR, receiver_z=0.5)
        k1z = np.array([scene.medium.kappa1])
        refl = propagating_factor(scene, FieldComponent.REFLECTION_ONLY, k1z)
        assert refl[0] == pytest.approx(-np.exp(-1j * k1z[0] * (0.5 - 2.0)))


def evanescent_factor(scene, component, gamma):
    """The response continued to the branch cut k1z = i*gamma."""
    return propagating_factor(scene, component, 1j * np.asarray(gamma, dtype=float))


class TestEvanescentFactor:
    def test_los_decay(self):
        scene = _scene(receiver_z=0.5)
        gamma = np.array([1.0, 10.0, 100.0])
        factor = evanescent_factor(scene, FieldComponent.LOS_ONLY, gamma)
        assert np.allclose(factor, np.exp(-gamma * 0.5), rtol=1e-13)

    def test_reflection_decay_uses_image_distance(self):
        scene = _scene(material=PERFECT_CONDUCTOR, surface_z=1.0, receiver_z=0.5)
        gamma = np.array([2.0])
        factor = evanescent_factor(scene, FieldComponent.REFLECTION_ONLY, gamma)
        assert factor[0] == pytest.approx(-np.exp(-2.0 * 1.5))

    def test_factors_decay_to_zero(self):
        scene = _scene(material=CONCRETE, receiver_z=0.5)
        for component in (FieldComponent.LOS_ONLY, FieldComponent.REFLECTION_ONLY,
                          FieldComponent.LOS_PLUS_REFLECTION,
                          FieldComponent.TRANSMISSION):
            if component is FieldComponent.TRANSMISSION:
                scene_t = _scene(material=CONCRETE, surface_z=0.4, receiver_z=0.9)
                value = evanescent_factor(scene_t, component, np.array([200.0]))
            else:
                value = evanescent_factor(scene, component, np.array([200.0]))
            assert abs(value[0]) < 1e-30


class TestSpans:
    def test_oscillation_span(self):
        scene = _scene(surface_z=1.0, source_z=0.0, receiver_z=0.4)
        assert oscillation_span(scene, FieldComponent.LOS_ONLY) == pytest.approx(0.4)
        assert oscillation_span(scene, FieldComponent.REFLECTION_ONLY) == pytest.approx(1.6)
        assert oscillation_span(scene, FieldComponent.LOS_PLUS_REFLECTION) == pytest.approx(1.6)

    def test_transmission_span_scales_with_index(self):
        scene = _scene(material=CONCRETE, surface_z=0.4, receiver_z=1.0)
        expected = 0.4 + 2.55 * 0.6
        assert oscillation_span(scene, FieldComponent.TRANSMISSION) == pytest.approx(expected)

    def test_decay_distances(self):
        scene = _scene(surface_z=1.0, source_z=0.0, receiver_z=0.4)
        assert decay_distance(scene, FieldComponent.LOS_ONLY) == pytest.approx(0.4)
        assert decay_distance(scene, FieldComponent.REFLECTION_ONLY) == pytest.approx(1.6)
        assert decay_distance(scene, FieldComponent.LOS_PLUS_REFLECTION) == pytest.approx(0.4)

    def test_downgoing_spans(self):
        scene = _scene(surface_z=1.0, source_z=0.0, receiver_z=-0.3)
        component = FieldComponent.DOWNGOING_LOS_PLUS_REFLECTION
        assert oscillation_span(scene, component) == pytest.approx(2.3)
        assert decay_distance(scene, component) == pytest.approx(0.3)


class TestWavenumberResponse:
    def test_outside_disk_is_zero(self):
        scene = _scene(receiver_z=0.5)
        kappa = scene.medium.kappa1
        assert wavenumber_response(scene, FieldComponent.LOS_ONLY, 2.0 * kappa, 0.0) == 0.0

    def test_matches_prefactor_formula(self):
        scene = _scene(material=CONCRETE, receiver_z=0.5)
        medium = scene.medium
        kx, ky = 200.0, -350.0
        k1z = np.sqrt(medium.kappa1 ** 2 - kx * kx - ky * ky)
        response = wavenumber_response(scene, FieldComponent.LOS_PLUS_REFLECTION, kx, ky)
        r = fresnel_reflection(medium, kx, ky)
        expected = (medium.kappa1 * FREE_SPACE_IMPEDANCE / 2.0) / k1z * (
            np.exp(1j * k1z * 0.5) + r * np.exp(-1j * k1z * (0.5 - 2.0))
        )
        assert response == pytest.approx(expected, rel=1e-12)

    def test_transmission_response(self):
        scene = _scene(material=CONCRETE, surface_z=0.4, receiver_z=1.0)
        medium = scene.medium
        kx = 500.0
        k1z = np.sqrt(medium.kappa1 ** 2 - kx * kx)
        k2z = np.sqrt(medium.kappa2 ** 2 - kx * kx)
        t = fresnel_transmission(medium, kx, 0.0)
        expected = (medium.kappa1 * FREE_SPACE_IMPEDANCE / 2.0) / k1z * (
            t * np.exp(1j * k1z * 0.4) * np.exp(1j * k2z * 0.6)
        )
        response = wavenumber_response(scene, FieldComponent.TRANSMISSION, kx, 0.0)
        assert response == pytest.approx(expected, rel=1e-12)

    def test_rim_singularity_not_raised(self):
        scene = _scene(receiver_z=0.5)
        value = wavenumber_response(
            scene, FieldComponent.LOS_ONLY, scene.medium.kappa1, 0.0,
        )
        assert not np.isfinite(value.real) or not np.isfinite(value.imag) or value == 0.0
