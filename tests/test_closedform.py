"""Tests for the closed-form spherical-wave and mirror-image references."""

import cmath
import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectmimo import (
    CONCRETE,
    FREE_SPACE_IMPEDANCE,
    PLASTER_BOARD,
    VACUUM,
    ArrayLayout,
    Material,
    Medium,
    dielectric_image_impulse,
    image_impulse,
    los_impulse,
    spherical_wave,
)
from reflectmimo.closedform import _reflection_series, los_power


class TestSphericalWave:
    def test_unit_distance(self):
        value = spherical_wave(2.0, (0.0, 0.0, 1.0))
        assert value == pytest.approx(np.exp(2.0j), rel=1e-15)

    def test_inverse_distance_envelope(self):
        kappa = 5.0
        near = spherical_wave(kappa, (0.0, 0.0, 2.0))
        far = spherical_wave(kappa, (0.0, 0.0, 4.0))
        assert abs(near) == pytest.approx(2.0 * abs(far), rel=1e-14)

    def test_depends_only_on_radius(self):
        kappa = 7.0
        a = spherical_wave(kappa, (3.0, 0.0, 4.0))
        b = spherical_wave(kappa, (0.0, 5.0, 0.0))
        assert a == pytest.approx(b, rel=1e-14)

    def test_zero_displacement_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            spherical_wave(1.0, (0.0, 0.0, 0.0))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="3-vector"):
            spherical_wave(1.0, (1.0, 2.0))


_PI = decimal.Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def _reference_los(medium, receiver, source):
    """-i (kappa1 eta1 / 4 pi) e^{i kappa1 R} / R in 60-digit decimal
    arithmetic: the separation from the endpoints, and the phase reduced
    to one turn before it is rounded to a double."""
    with decimal.localcontext() as context:
        context.prec = 60
        separation = sum((decimal.Decimal(r) - decimal.Decimal(s)) ** 2
                         for r, s in zip(receiver, source)).sqrt()
        turns = decimal.Decimal(medium.kappa1) * separation / (2 * _PI)
        phase = float((turns - turns.to_integral_value()) * 2 * _PI)
    return (-1j * medium.kappa1 * FREE_SPACE_IMPEDANCE / (4.0 * math.pi)
            * cmath.exp(1j * phase) / float(separation))


class TestLosImpulse:
    def test_matches_expected_formula(self, vacuum_medium):
        receiver = (0.3, -0.2, 1.5)
        source = (0.0, 0.1, 0.0)
        expected = _reference_los(vacuum_medium, receiver, source)
        value = los_impulse(vacuum_medium, receiver, source)
        assert value == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize(("receiver", "source"), [
        ((0.0, 0.0, 20.0), (0.0, 0.0, 0.0)),
        ((1.3, -0.7, 19.9), (0.1, 0.2, 0.0)),
    ], ids=["on-axis", "off-axis"])
    def test_exact_phase_at_300ghz_over_20m(self, receiver, source):
        """kappa1 R ~ 1.3e5: a phase rounded to a double errs by up to
        kappa1 R 2^-53 ~ 1e-11, so the separation and the phase are
        carried past double precision."""
        medium = Medium(300e9, VACUUM)
        expected = _reference_los(medium, receiver, source)
        value = los_impulse(medium, receiver, source)
        assert abs(value - expected) <= 1e-14 * abs(expected)

    def test_symmetric_in_endpoints(self, vacuum_medium):
        a = (0.0, 0.0, 0.0)
        b = (0.4, 0.3, 1.0)
        assert los_impulse(vacuum_medium, b, a) == los_impulse(vacuum_medium, a, b)

    def test_separation_guard(self, vacuum_medium):
        limit = 10.0 * vacuum_medium.wavelength
        with pytest.raises(ValueError, match="ten-wavelength"):
            los_impulse(vacuum_medium, (0.0, 0.0, 0.9 * limit), (0.0, 0.0, 0.0))
        los_impulse(vacuum_medium, (0.0, 0.0, 1.01 * limit), (0.0, 0.0, 0.0))

    def test_material_does_not_matter(self, vacuum_medium, conductor_medium):
        receiver = (0.1, 0.0, 2.0)
        source = (0.0, 0.0, 0.0)
        assert los_impulse(vacuum_medium, receiver, source) == los_impulse(
            conductor_medium, receiver, source
        )


def _unit(polar: float, azimuth: float) -> tuple[float, float, float]:
    return (math.sin(polar) * math.cos(azimuth), math.sin(polar) * math.sin(azimuth),
            math.cos(polar))


_ARRAYS = st.tuples(
    st.integers(1, 8), st.floats(0.002, 0.05),
    st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(0.5, 5.0),
    st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi),
)


class TestLosPower:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([57.5e9, 140e9, 300e9]), st.integers(1, 8), st.floats(0.002, 0.05),
           _ARRAYS, st.booleans())
    def test_sums_the_closed_form_entries(self, frequency, n_tx, d_tx, rx_args, parallel):
        """Parallel, tilted and offset arrays of unequal counts, at least
        0.3 m (over ten wavelengths) apart: the power equals the sum of
        |los_impulse|^2 over every antenna pair."""
        medium = Medium(frequency, VACUUM)
        n_rx, d_rx, x, y, z, polar, azimuth = rx_args
        tx = ArrayLayout(n_tx, d_tx)
        rx = ArrayLayout(n_rx, d_rx, center=(x, y, z),
                         axis=(1.0, 0.0, 0.0) if parallel else _unit(polar, azimuth))
        expected = math.fsum(abs(los_impulse(medium, r, s)) ** 2
                             for r in rx.positions for s in tx.positions)
        assert los_power(medium, tx, rx) == pytest.approx(expected, rel=1e-13)


class TestImageImpulse:
    def test_direct_minus_mirrored(self, conductor_medium):
        receiver = (0.2, -0.1, 0.8)
        source = (0.0, 0.0, 0.0)
        surface = 1.0
        mirrored = (0.0, 0.0, 2.0 * surface)
        expected = los_impulse(conductor_medium, receiver, source) - los_impulse(
            conductor_medium, receiver, mirrored
        )
        value = image_impulse(conductor_medium, receiver, source, surface)
        assert value == expected

    def test_exact_null_on_surface(self, conductor_medium):
        surface = 1.3
        for x, y in [(0.0, 0.0), (0.5, 0.0), (-0.3, 0.7), (2.0, -1.5)]:
            value = image_impulse(
                conductor_medium, (x, y, surface), (0.0, 0.0, 0.0), surface
            )
            assert value == 0.0

    def test_near_null_for_offset_source(self, conductor_medium):
        surface = 1.3
        source = (0.0, 0.0, 0.1)
        direct = los_impulse(conductor_medium, (0.4, 0.0, surface), source)
        value = image_impulse(conductor_medium, (0.4, 0.0, surface), source, surface)
        assert abs(value) <= 1e-12 * abs(direct)

    def test_requires_conductor(self, vacuum_medium):
        with pytest.raises(ValueError, match="conductor"):
            image_impulse(vacuum_medium, (0.0, 0.0, 0.5), (0.0, 0.0, 0.0), 1.0)

    def test_source_must_be_left_of_surface(self, conductor_medium):
        with pytest.raises(ValueError, match="source"):
            image_impulse(conductor_medium, (0.0, 0.0, 0.5), (0.0, 0.0, 1.5), 1.0)

    def test_receiver_must_not_be_behind_surface(self, conductor_medium):
        with pytest.raises(ValueError, match="receiver"):
            image_impulse(conductor_medium, (0.0, 0.0, 1.5), (0.0, 0.0, 0.0), 1.0)


def _plane_wave_reflection(index, mu, theta):
    """V(theta) = (mu cos - sqrt(n^2 - sin^2)) / (mu cos + sqrt(n^2 - sin^2))."""
    root = math.sqrt(index * index - math.sin(theta) ** 2)
    return (mu * math.cos(theta) - root) / (mu * math.cos(theta) + root)


class TestDielectricImageImpulse:
    @pytest.mark.parametrize(("index", "mu"), [(2.55, 1.0), (1.5, 1.0), (1.3, 2.0), (1.01, 1.0)])
    @pytest.mark.parametrize("theta", [0.2, 0.7, 1.2])
    def test_series_matches_finite_differences(self, index, mu, theta):
        """V and N = (V'' + V' cot theta) / 2 against central differences of
        the plane-wave reflection coefficient, which err by ~h^2."""
        h = 1e-4
        below, at, above = (_plane_wave_reflection(index, mu, theta + d) for d in (-h, 0.0, h))
        first = (above - below) / (2.0 * h)
        second = (above - 2.0 * at + below) / (h * h)
        v, n = _reflection_series(index, mu, theta)
        assert v == pytest.approx(at, rel=1e-15, abs=1e-16)
        assert n == pytest.approx(0.5 * (second + first / math.tan(theta)), rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize(("index", "mu"), [(2.55, 1.0), (1.3, 2.0)])
    def test_correction_tends_to_v_second_at_normal_incidence(self, index, mu):
        """N(0) = V''(0) = 2 mu (1 - n^2) / (n (mu + n)^2), continuous in theta."""
        v, n = _reflection_series(index, mu, 0.0)
        expected = 2.0 * mu * (1.0 - index * index) / (index * (mu + index) ** 2)
        assert v == pytest.approx((mu - index) / (mu + index), rel=1e-15)
        assert n == pytest.approx(expected, rel=1e-14)
        assert _reflection_series(index, mu, 1e-6)[1] == pytest.approx(expected, rel=1e-10)

    def test_normal_incidence_formula(self):
        """On the normal: -i kappa1 eta / (4 pi) e^{i kappa1 L} / L [V(0) -
        i N(0) / (kappa1 L)], the phase exactly as for the mirrored wave."""
        medium = Medium(300e9, CONCRETE)
        receiver, source, surface = (0.0, 0.0, 10.0), (0.0, 0.0, 0.0), 15.0
        length = 2.0 * surface - receiver[2]
        v, n = _reflection_series(2.55, 1.0, 0.0)
        image = los_impulse(Medium(300e9, VACUUM), receiver, (0.0, 0.0, 2.0 * surface))
        expected = image * (v - 1j * n / (medium.kappa1 * length))
        value = dielectric_image_impulse(medium, receiver, source, surface)
        assert abs(value - expected) <= 1e-14 * abs(expected)

    def test_mirrored_distance_is_exact(self):
        """The mirrored source is formed in decimal arithmetic: at 300 GHz
        over a 20 m image path the phase matches a 60-digit reference, where
        mirroring z = 0.1 to 29.9 in doubles would miss by ~1e-11."""
        medium = Medium(300e9, PLASTER_BOARD)
        receiver, source, surface = (1.3, -0.7, 9.9), (0.1, 0.2, 0.1), 15.0
        with decimal.localcontext() as context:
            context.prec = 60
            mirrored_z = 2 * decimal.Decimal(surface) - decimal.Decimal(source[2])
            ends = (decimal.Decimal(source[0]), decimal.Decimal(source[1]), mirrored_z)
            separation = sum((decimal.Decimal(r) - e) ** 2 for r, e in zip(receiver, ends)).sqrt()
            turns = decimal.Decimal(medium.kappa1) * separation / (2 * _PI)
            phase = float((turns - turns.to_integral_value()) * 2 * _PI)
        theta = math.atan2(math.hypot(1.2, -0.9), 2.0 * surface - receiver[2] - source[2])
        v, n = _reflection_series(1.5, 1.0, theta)
        distance = float(separation)
        expected = (-1j * medium.kappa1 * FREE_SPACE_IMPEDANCE / (4.0 * math.pi)
                    * cmath.exp(1j * phase) / distance
                    * (v - 1j * n / (medium.kappa1 * distance)))
        value = dielectric_image_impulse(medium, receiver, source, surface)
        assert abs(value - expected) <= 1e-14 * abs(expected)

    def test_homogeneous_far_side_reflects_nothing(self, vacuum_medium):
        """n = mu = 1 gives V = N = 0 up to the round-off of cos against
        sqrt(1 - sin^2)."""
        receiver, source = (0.3, 0.0, 0.5), (0.0, 0.0, 0.0)
        image = los_impulse(vacuum_medium, receiver, (0.0, 0.0, 2.0))
        value = dielectric_image_impulse(vacuum_medium, receiver, source, 1.0)
        assert abs(value) <= 1e-15 * abs(image)

    def test_guards(self, conductor_medium):
        medium = Medium(57.5e9, Material("glass", 1.5))
        with pytest.raises(ValueError, match="refractive index"):
            dielectric_image_impulse(conductor_medium, (0.0, 0.0, 0.5), (0.0, 0.0, 0.0), 1.0)
        with pytest.raises(ValueError, match="source"):
            dielectric_image_impulse(medium, (0.0, 0.0, 0.5), (0.0, 0.0, 1.5), 1.0)
        with pytest.raises(ValueError, match="receiver"):
            dielectric_image_impulse(medium, (0.0, 0.0, 1.5), (0.0, 0.0, 0.0), 1.0)
        with pytest.raises(ValueError, match="ten-wavelength"):
            dielectric_image_impulse(medium, (0.0, 0.0, 0.0), (0.0, 0.0, -0.01), 0.0)
