"""Material catalog, media, and Fresnel surface coefficients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectmimo import (
    CONCRETE,
    FLOOR_BOARD,
    FREE_SPACE_IMPEDANCE,
    PERFECT_CONDUCTOR,
    PLASTER_BOARD,
    SPEED_OF_LIGHT,
    VACUUM,
    Material,
    Medium,
    fresnel_reflection,
    fresnel_transmission,
    longitudinal_wavenumbers,
    material_by_name,
    material_catalog,
    wavenumbers,
)
from reflectmimo.materials import far_side_kz, reflection_from_kz, transmission_from_kz

FREQUENCY = 57.5e9
# 2 pi f / c at 57.5 GHz with the pinned propagation speed 2.998e8 m/s.
KAPPA1 = 1205.0805709233696

DIELECTRICS = (CONCRETE, FLOOR_BOARD, PLASTER_BOARD)


def _reflection_continued(medium, gamma):
    """R continued to the branch cut kappa_1z = i*gamma."""
    k1z = 1j * np.asarray(gamma, dtype=float)
    return reflection_from_kz(medium.material, k1z, far_side_kz(medium, k1z))


def _transmission_continued(medium, gamma):
    """T continued to the branch cut kappa_1z = i*gamma."""
    k1z = 1j * np.asarray(gamma, dtype=float)
    return transmission_from_kz(medium.material, k1z, far_side_kz(medium, k1z))


class TestMaterial:
    def test_catalog_names(self):
        names = [m.name for m in material_catalog()]
        assert names == [
            "perfect_conductor", "concrete", "floor_board", "plaster_board", "vacuum",
        ]

    def test_lookup_normalizes(self):
        assert material_by_name("Concrete") is CONCRETE
        assert material_by_name("floor-board") is FLOOR_BOARD
        assert material_by_name(" PLASTER BOARD ") is PLASTER_BOARD

    def test_lookup_unknown(self):
        with pytest.raises(ValueError, match="unknown material"):
            material_by_name("adamantium")

    def test_lookup_extra_catalog(self):
        brick = Material("brick", 2.0)
        assert material_by_name("brick", extra=(brick,)) is brick

    def test_conductor_flags(self):
        assert PERFECT_CONDUCTOR.is_conductor
        assert not CONCRETE.is_conductor
        assert VACUUM.is_homogeneous
        assert not CONCRETE.is_homogeneous

    def test_refractive_index_below_one_rejected(self):
        with pytest.raises(ValueError):
            Material("thin_air", 0.9)

    def test_conductor_with_index_rejected(self):
        with pytest.raises(ValueError):
            Material("odd", 2.0, 0.0)

    def test_nonpositive_permeability_rejected(self):
        with pytest.raises(ValueError):
            Material("odd", 2.0, -1.0)

    @pytest.mark.parametrize("index", [math.inf, math.nan])
    def test_non_finite_refractive_index_rejected(self, index):
        with pytest.raises(ValueError, match="refractive index"):
            Material("odd", index)

    @pytest.mark.parametrize("ratio", [math.inf, math.nan])
    def test_non_finite_permeability_rejected(self, ratio):
        with pytest.raises(ValueError, match="permeability ratio"):
            Material("odd", 2.0, ratio)


class TestMedium:
    def test_kappa1(self, vacuum_medium):
        assert vacuum_medium.kappa1 == pytest.approx(KAPPA1, rel=1e-12)
        assert vacuum_medium.kappa1 == pytest.approx(
            2.0 * math.pi * FREQUENCY / SPEED_OF_LIGHT, rel=0, abs=0,
        )

    def test_wavelength(self, vacuum_medium):
        assert vacuum_medium.wavelength == pytest.approx(5.2139130e-3, rel=1e-6)

    def test_kappa2_scaling(self):
        medium = Medium(FREQUENCY, CONCRETE)
        assert medium.kappa2 == pytest.approx(2.55 * KAPPA1, rel=1e-12)

    def test_conductor_has_no_far_side(self, conductor_medium):
        assert conductor_medium.kappa2 is None

    def test_wavenumbers_table(self):
        # Far-side wavenumbers at 57.5 GHz, in Krad/m, from n * kappa1.
        expected = {CONCRETE: 3.0730, FLOOR_BOARD: 2.3861, PLASTER_BOARD: 1.8076}
        for material, target in expected.items():
            _, kappa2 = wavenumbers(FREQUENCY, material)
            assert kappa2 / 1e3 == pytest.approx(target, abs=5e-5)

    def test_nonpositive_frequency_rejected(self):
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="frequency"):
                Medium(bad, VACUUM)

    def test_longitudinal_pair(self):
        medium = Medium(FREQUENCY, CONCRETE)
        k1z, k2z = longitudinal_wavenumbers(medium, 0.0, 0.0)
        assert k1z == pytest.approx(medium.kappa1)
        assert k2z == pytest.approx(medium.kappa2)


def _disk_samples(medium, count, seed):
    rng = np.random.default_rng(seed)
    rho = medium.kappa1 * np.sqrt(rng.uniform(0.0, 1.0, count))
    phi = rng.uniform(0.0, 2.0 * math.pi, count)
    return rho * np.cos(phi), rho * np.sin(phi)


class TestFresnel:
    def test_normal_incidence_values(self):
        # (1 - n) / (1 + n) for each dielectric.
        targets = {CONCRETE: -0.43661972, FLOOR_BOARD: -0.32885906,
                   PLASTER_BOARD: -0.20000000}
        for material, target in targets.items():
            medium = Medium(FREQUENCY, material)
            assert fresnel_reflection(medium, 0.0, 0.0) == pytest.approx(target, abs=1e-8)

    def test_grazing_total_reflection(self):
        for material in DIELECTRICS:
            medium = Medium(FREQUENCY, material)
            assert fresnel_reflection(medium, medium.kappa1, 0.0) == pytest.approx(-1.0)
            assert fresnel_transmission(medium, medium.kappa1, 0.0) == pytest.approx(0.0)

    def test_conductor_is_total(self, conductor_medium):
        kx, ky = _disk_samples(conductor_medium, 32, seed=7)
        assert np.all(fresnel_reflection(conductor_medium, kx, ky) == -1.0)
        assert np.all(fresnel_transmission(conductor_medium, kx, ky) == 0.0)

    def test_vacuum_is_transparent(self, vacuum_medium):
        kx, ky = _disk_samples(vacuum_medium, 32, seed=8)
        assert np.all(fresnel_reflection(vacuum_medium, kx, ky) == 0.0)
        assert np.all(fresnel_transmission(vacuum_medium, kx, ky) == 1.0)
        # The rim would be 0/0 without the homogeneous special case.
        assert fresnel_reflection(vacuum_medium, vacuum_medium.kappa1, 0.0) == 0.0

    def test_outside_disk_rejected(self, vacuum_medium):
        with pytest.raises(ValueError, match="disk"):
            fresnel_reflection(vacuum_medium, 1.001 * vacuum_medium.kappa1, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(u=st.floats(0.0, 1.0), phi=st.floats(0.0, 2.0 * math.pi))
    def test_continuity_identity(self, u, phi):
        # 1 + R = T pointwise on the disk for every material.
        for material in DIELECTRICS:
            medium = Medium(FREQUENCY, material)
            kx = medium.kappa1 * math.sqrt(u) * math.cos(phi)
            ky = medium.kappa1 * math.sqrt(u) * math.sin(phi)
            r = fresnel_reflection(medium, kx, ky)
            t = fresnel_transmission(medium, kx, ky)
            assert abs(1.0 + r - t) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(u=st.floats(0.0, 1.0), phi=st.floats(0.0, 2.0 * math.pi))
    def test_energy_identity(self, u, phi):
        # R^2 + alpha T^2 = 1 with alpha the longitudinal flux ratio.
        for material in DIELECTRICS:
            medium = Medium(FREQUENCY, material)
            kx = medium.kappa1 * math.sqrt(u) * math.cos(phi)
            ky = medium.kappa1 * math.sqrt(u) * math.sin(phi)
            k1z, k2z = longitudinal_wavenumbers(medium, kx, ky)
            r = fresnel_reflection(medium, kx, ky)
            t = fresnel_transmission(medium, kx, ky)
            alpha = k2z / (material.permeability_ratio * k1z) if k1z > 0.0 else 0.0
            energy = r * r + alpha * t * t if k1z > 0.0 else r * r
            assert abs(energy - 1.0) <= 1e-12

    def test_reflection_bounded(self):
        for material in DIELECTRICS:
            medium = Medium(FREQUENCY, material)
            kx, ky = _disk_samples(medium, 512, seed=11)
            r = fresnel_reflection(medium, kx, ky)
            assert np.all(r <= 0.0) and np.all(r >= -1.0)

    def test_permeability_contrast_changes_sign(self):
        # mu2 > mu1 can make the reflection positive at normal incidence.
        magnetic = Material("magnetic", 1.5, 4.0)
        medium = Medium(FREQUENCY, magnetic)
        r = fresnel_reflection(medium, 0.0, 0.0)
        assert r == pytest.approx((4.0 - 1.5) / (4.0 + 1.5))
        t = fresnel_transmission(medium, 0.0, 0.0)
        assert abs(1.0 + r - t) <= 1e-12


class TestContinuation:
    def test_reflection_limit_is_grazing(self):
        # R(i gamma) -> -1 as gamma -> 0+, which cancels the disk rim term.
        for material in DIELECTRICS:
            medium = Medium(FREQUENCY, material)
            r = _reflection_continued(medium, np.array([1e-8]))[0]
            assert abs(r + 1.0) < 1e-6

    def test_continuation_matches_identity(self):
        medium = Medium(FREQUENCY, CONCRETE)
        gamma = np.geomspace(1e-3, 1e3, 7)
        r = _reflection_continued(medium, gamma)
        t = _transmission_continued(medium, gamma)
        assert np.max(np.abs(1.0 + r - t)) <= 1e-12

    def test_continued_magnitude_bounded(self):
        # |R| <= 1 on the branch cut: k2z is real there until gamma exceeds
        # sqrt(kappa2^2 - kappa1^2), then rotates into the upper half-plane.
        medium = Medium(FREQUENCY, CONCRETE)
        gamma = np.geomspace(1e-2, 1e4, 9)
        assert np.all(np.abs(_reflection_continued(medium, gamma)) <= 1.0 + 1e-12)

    def test_kz_formula_consistency(self):
        assert reflection_from_kz(CONCRETE, 1.0, 2.0) == pytest.approx(-1.0 / 3.0)
        assert transmission_from_kz(CONCRETE, 1.0, 2.0) == pytest.approx(2.0 / 3.0)


class TestFarSideKz:
    def test_real_samples_match_the_disk(self):
        medium = Medium(FREQUENCY, CONCRETE)
        kx = np.linspace(0.0, KAPPA1, 7)
        k1z, k2z = longitudinal_wavenumbers(medium, kx, 0.0 * kx)
        assert np.array_equal(far_side_kz(medium, k1z), k2z)

    def test_complex_samples_take_the_decaying_root(self):
        # Along a bent path a = a0 - i b, k1z leaves both axes; the root
        # stays on the sheet Im k2z >= 0, continuous with the disk's k2z > 0.
        medium = Medium(FREQUENCY, CONCRETE)
        k1z = KAPPA1 * np.cos(0.3 - 1j * np.linspace(0.0, 3.0, 13))
        k2z = far_side_kz(medium, k1z)
        assert np.all(k2z.imag >= 0.0) and np.all(k2z.real > 0.0)
        assert np.allclose(k2z ** 2, medium.kappa2 ** 2 - KAPPA1 ** 2 + k1z ** 2,
                           rtol=1e-13, atol=0.0)

    def test_continuous_along_the_rising_leg(self):
        # The per-lag path's H0^(1) leg a = 0.3 + i b has Im k2z^2 < 0: the
        # principal root continues the disk's k2z > 0 there, with
        # |dk2z| <= |dk1z| as |k1z / k2z| <= 1; a flip to Im k2z >= 0
        # would jump to -k2z at the first step off the real axis.
        medium = Medium(FREQUENCY, CONCRETE)
        k1z = KAPPA1 * np.cos(0.3 + 1j * np.linspace(0.0, 3.0, 3001))
        k2z = far_side_kz(medium, k1z)
        assert np.all(k2z.real > 0.0) and np.all(k2z.imag[1:] < 0.0)
        assert np.max(np.abs(np.diff(k2z))) <= np.max(np.abs(np.diff(k1z)))

    def test_homogeneous_far_side_is_the_near_side(self):
        medium = Medium(FREQUENCY, VACUUM)
        k1z = KAPPA1 * np.cos(0.3 - 1j * np.linspace(0.0, 3.0, 13))
        assert np.array_equal(far_side_kz(medium, k1z), k1z)
        assert np.all(reflection_from_kz(VACUUM, k1z, far_side_kz(medium, k1z)) == 0.0)

    def test_conductor_returns_none(self):
        assert far_side_kz(Medium(FREQUENCY, PERFECT_CONDUCTOR), 1j) is None
