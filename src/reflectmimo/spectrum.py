"""Wavenumber-domain response of a point link above a reflecting plane.

Geometry convention: the z axis points from the source half-space into the
surface at z = d1 > 0.  Sources live on the plane z = s_z < d1, receivers
on z = r_z.  Depending on where the receiver plane sits relative to the
source sphere (radius R0 around the origin) and the surface, the response
is a different combination of direct, reflected, and transmitted terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .materials import (
    FREE_SPACE_IMPEDANCE,
    Medium,
    far_side_kz,
    reflection_from_kz,
    transmission_from_kz,
)

MIN_CLEARANCE_WAVELENGTHS = 10.0
"""Required source-to-surface separation, in wavelengths."""


class SceneError(ValueError):
    """Scene parameters violating a validity guard; lists every violation."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


class FieldComponent(Enum):
    """Which additive part of the field a response evaluates.

    The case split follows the receiver plane: below the source sphere,
    between the sphere and the surface (where the direct and reflected
    terms may also be requested separately), or behind the surface.
    """

    DOWNGOING_LOS_PLUS_REFLECTION = "downgoing_los_plus_reflection"
    LOS_PLUS_REFLECTION = "los_plus_reflection"
    LOS_ONLY = "los_only"
    REFLECTION_ONLY = "reflection_only"
    TRANSMISSION = "transmission"


_LOS_AND_IMAGE = (FieldComponent.LOS_ONLY, FieldComponent.REFLECTION_ONLY)
_PARTS = {
    **{component: (component,) for component in FieldComponent},
    FieldComponent.DOWNGOING_LOS_PLUS_REFLECTION: _LOS_AND_IMAGE,
    FieldComponent.LOS_PLUS_REFLECTION: _LOS_AND_IMAGE,
}
"""The single-term components whose sum is each component: each part is one
exponential in k1z with one phase and decay distance.  The direct part runs
over |r_z - s_z|, upgoing or downgoing alike."""


@dataclass(frozen=True)
class SceneConfig:
    """Link geometry: medium, surface position, and the two link planes.

    Guards:
      * the planes and the radius must be finite;
      * the source plane must sit in the left half-space, at least
        ``MIN_CLEARANCE_WAVELENGTHS`` wavelengths clear of the surface so no
        evanescent source content survives the crossing;
      * the source-sphere radius ``source_radius`` must stay left of the
        surface.  Receivers may sit anywhere, including on the surface.
    """

    medium: Medium
    surface_z: float
    source_z: float
    receiver_z: float
    source_radius: float = 0.0

    def __post_init__(self) -> None:
        violations = [f"{name} must be finite, got {getattr(self, name)!r}"
                      for name in ("surface_z", "source_z", "receiver_z", "source_radius")
                      if not math.isfinite(getattr(self, name))]
        if violations:
            raise SceneError(violations)
        guard = MIN_CLEARANCE_WAVELENGTHS * self.medium.wavelength
        if not self.source_z < self.surface_z:
            violations.append(
                f"source plane s_z={self.source_z} must lie left of the "
                f"surface d1={self.surface_z}"
            )
        elif self.surface_z - self.source_z < guard:
            violations.append(
                f"source-to-surface separation {self.surface_z - self.source_z:.6g} m "
                f"is below the {MIN_CLEARANCE_WAVELENGTHS:.0f}-wavelength guard "
                f"({guard:.6g} m)"
            )
        if self.source_radius < 0.0:
            violations.append(f"source_radius must be >= 0, got {self.source_radius}")
        elif not self.source_radius < self.surface_z:
            violations.append(
                f"source_radius R0={self.source_radius} must stay left of the "
                f"surface d1={self.surface_z}"
            )
        if violations:
            raise SceneError(violations)


def validate_component(scene: SceneConfig, component: FieldComponent) -> None:
    """Reject component/geometry pairings outside the case split."""
    r_z = scene.receiver_z
    if component is FieldComponent.TRANSMISSION:
        if r_z < scene.surface_z:
            msg = f"transmission needs r_z >= d1, got r_z={r_z}, d1={scene.surface_z}"
            raise SceneError([msg])
        return
    if component is FieldComponent.DOWNGOING_LOS_PLUS_REFLECTION:
        if not (r_z < -scene.source_radius and r_z < scene.source_z):
            msg = (
                "downgoing response needs the receiver below the source sphere: "
                f"r_z={r_z}, R0={scene.source_radius}, s_z={scene.source_z}"
            )
            raise SceneError([msg])
        return
    # Upgoing components: receiver strictly above the source sphere and the
    # source plane, at or left of the surface.
    if not (r_z > scene.source_radius and r_z > scene.source_z):
        msg = (
            "upgoing response needs the receiver above the source sphere: "
            f"r_z={r_z}, R0={scene.source_radius}, s_z={scene.source_z}"
        )
        raise SceneError([msg])
    if not r_z <= scene.surface_z:
        msg = f"left-space response needs r_z <= d1, got r_z={r_z}, d1={scene.surface_z}"
        raise SceneError([msg])


def _split(x: float | np.ndarray) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Veltkamp split of a double, or of each in an array, into halves of at most 26 bits."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _two_product(a: float, b: float) -> tuple[float, float]:
    """The product a b exactly, as the Dekker two-product hi + lo."""
    hi = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _exact_hypot(*values: float) -> tuple[float, float]:
    """The Euclidean norm of ``values`` as hi + lo, to about 2^-100
    relative: each square is kept exactly, their sum as the running sum
    plus its Fast2Sum errors and the squares' low parts, and one Newton
    step corrects the rounded square root."""
    squares = [_two_product(value, value) for value in values]
    total = total_lo = 0.0
    for square, _ in squares:
        rounded = total + square
        total_lo += (total - rounded) + square if total >= square else (square - rounded) + total
        total = rounded
    for _, square_lo in squares:
        total_lo += square_lo
    hi = math.sqrt(total)
    square, square_lo = _two_product(hi, hi)
    return hi, (((total - square) - square_lo) + total_lo) / (2.0 * hi)


def _carrier_angle(kappa1: float, length: float) -> float:
    """The phase kappa1 * length reduced to (-pi, pi], with the product
    carried exactly as the Dekker two-product hi + lo: at large electrical
    length its rounding, about kappa1 length 2^-53 radians, would otherwise
    enter the phase."""
    hi, lo = _two_product(kappa1, length)
    return math.atan2(math.sin(hi), math.cos(hi)) + lo


def propagating_factor(scene: SceneConfig, component: FieldComponent, k1z, angle=None):
    """Phase/coefficient product of the response at k1z samples: the sum
    over the component's single-term parts, each one exponential in k1z
    (the direct and the reflected term of a compound component).

    This is the full wavenumber response divided by the common prefactor
    (kappa1 eta1 / 2) / k1z, which the quadrature cancels analytically.
    Real samples lie in the propagating disk.  Complex samples continue
    the response analytically, with the principal far-side root (see
    :func:`~reflectmimo.materials.far_side_kz`): on the branch cut
    k1z = i*gamma and on the bent synthesis path, where Im k2z >= 0, every
    term decays for valid geometry.

    With ``angle``, the (possibly complex) polar angles a of the samples,
    k1z = kappa1 cos(a), each term's phase k1z L is formed as kappa1 L -
    delta L: kappa1 L once per term, carried exactly and reduced to one
    turn, and delta = kappa1 - k1z = 2 kappa1 sin^2(a/2) from the angle
    rather than by subtraction.  Each sample then carries the round-off of
    delta L instead of that of k1z L, which matters where few nodes sample
    an electrically long term.
    """
    medium = scene.medium
    k1z = np.asarray(k1z)
    if angle is None:
        def phase(length: float):
            return k1z * length
    else:
        delta = 2.0 * medium.kappa1 * np.sin(0.5 * np.asarray(angle)) ** 2

        def phase(length: float):
            return _carrier_angle(medium.kappa1, length) - delta * length
    first, *rest = (_term(scene, part, k1z, phase) for part in _PARTS[component])
    return sum(rest, first)


def _term(scene: SceneConfig, part: FieldComponent, k1z: np.ndarray, phase):
    """One single-term part of :func:`propagating_factor`, with ``phase``
    mapping a path length L to the phase k1z L."""
    mat = scene.medium.material
    s_z, r_z, d1 = scene.source_z, scene.receiver_z, scene.surface_z
    if part is FieldComponent.LOS_ONLY:
        return np.exp(1j * phase(abs(r_z - s_z)))
    k2z = far_side_kz(scene.medium, k1z)
    if part is FieldComponent.TRANSMISSION:
        if mat.is_conductor:
            return np.zeros(k1z.shape, dtype=complex)
        t = transmission_from_kz(mat, k1z, k2z)
        return t * np.exp(1j * (phase(d1 - s_z) + k2z * (r_z - d1)))
    refl = reflection_from_kz(mat, k1z, k2z)
    return np.asarray(refl * np.exp(1j * phase(-(r_z + s_z - 2.0 * d1))), dtype=complex)


def part_coefficient(scene: SceneConfig, part: FieldComponent, k1z):
    """The coefficient of the direct or reflected part ``part`` at k1z: its
    term of :func:`propagating_factor` without the phase e^{i k1z L}, for a
    synthesis path that carries the phase itself.  It is 1 for the direct
    wave and the reflection coefficient for the image."""
    k1z = np.asarray(k1z)
    return _term(scene, part, k1z, lambda length: np.zeros(k1z.shape))


def _lengths(scene: SceneConfig, part: FieldComponent) -> tuple[float, float]:
    """Oscillation span and decay distance of one single-term part."""
    s_z, r_z, d1 = scene.source_z, scene.receiver_z, scene.surface_z
    if part is FieldComponent.LOS_ONLY:
        return abs(r_z - s_z), abs(r_z - s_z)
    if part is FieldComponent.TRANSMISSION:
        index = scene.medium.material.refractive_index
        beyond = 0.0 if index is None else index * (r_z - d1)
        return (d1 - s_z) + beyond, d1 - s_z
    image = 2.0 * d1 - (r_z + s_z)  # rounded as _term's phase, whichever plane is the source
    return image, image


def oscillation_span(scene: SceneConfig, component: FieldComponent) -> float:
    """Longitudinal path length governing the fastest phase oscillation:
    the longest over the component's single-term parts.

    Distances through the far side count scaled by its refractive index so
    the free-space oscillation budget still bounds the integrand.
    """
    return max(_lengths(scene, part)[0] for part in _PARTS[component])


def decay_distance(scene: SceneConfig, component: FieldComponent) -> float:
    """Slowest exponential decay scale z of the continued response, the
    shortest over the component's single-term parts: every term of
    :func:`propagating_factor` decays at least like e^{-z Im k1z}."""
    return min(_lengths(scene, part)[1] for part in _PARTS[component])


def wavenumber_response(scene: SceneConfig, component: FieldComponent, kx, ky):
    """Wavenumber response of the link at transverse samples (kx, ky).

    Returns exactly 0 outside the propagating disk (the support indicator);
    inside, the common prefactor (kappa1 eta1 / 2)/kappa_1z multiplies the
    component's phase/coefficient product.  The sample on the rim has a
    vanishing kappa_1z, so the response is unbounded there — integrable in
    the synthesis, where the polar Jacobian cancels it.
    """
    validate_component(scene, component)
    scalar = np.isscalar(kx) and np.isscalar(ky)
    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    kappa1 = scene.medium.kappa1
    rho_sq = kx * kx + ky * ky
    inside = rho_sq <= kappa1 * kappa1
    k1z = np.sqrt(np.maximum(kappa1 * kappa1 - rho_sq, 0.0))
    factor = propagating_factor(scene, component, k1z)
    with np.errstate(divide="ignore", invalid="ignore"):
        prefactor = (kappa1 * FREE_SPACE_IMPEDANCE / 2.0) / k1z
        out = np.where(inside, prefactor * factor, 0.0 + 0.0j)
    return complex(out) if scalar else out
