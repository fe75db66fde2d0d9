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
    _reflection_continued,
    _transmission_continued,
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


_UPGOING = (
    FieldComponent.LOS_PLUS_REFLECTION,
    FieldComponent.LOS_ONLY,
    FieldComponent.REFLECTION_ONLY,
)


@dataclass(frozen=True)
class SceneConfig:
    """Link geometry: medium, surface position, and the two link planes.

    Guards:
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
        violations: list[str] = []
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


def kappa_z(kappa: float, kx, ky):
    """Longitudinal wavenumber sqrt(kappa^2 - kx^2 - ky^2) for in-disk samples.

    Raises ValueError when the sample leaves the propagating disk of the
    given total wavenumber.
    """
    if not kappa > 0.0:
        msg = f"kappa must be positive, got {kappa!r}"
        raise ValueError(msg)
    scalar = np.isscalar(kx) and np.isscalar(ky)
    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    rho_sq = kx * kx + ky * ky
    if np.any(rho_sq > kappa * kappa * (1.0 + 1e-12)):
        msg = "sample outside the propagating disk (evanescent region unsupported)"
        raise ValueError(msg)
    out = np.sqrt(np.maximum(kappa * kappa - rho_sq, 0.0))
    return float(out) if scalar else out


def _kz_pair(scene: SceneConfig, k1z):
    """Far-side longitudinal wavenumber matching real in-disk k1z samples."""
    medium = scene.medium
    if medium.material.is_conductor:
        return None
    k2z_sq = medium.kappa2 ** 2 - medium.kappa1 ** 2 + np.asarray(k1z) ** 2
    return np.sqrt(np.maximum(k2z_sq, 0.0))


def propagating_factor(scene: SceneConfig, component: FieldComponent, k1z):
    """Phase/coefficient product of the response at real k1z samples.

    This is the full wavenumber response divided by the common prefactor
    (kappa1 eta1 / 2) / k1z, which the quadrature cancels analytically.
    """
    medium = scene.medium
    mat = medium.material
    s_z, r_z, d1 = scene.source_z, scene.receiver_z, scene.surface_z
    k1z = np.asarray(k1z)
    if component is FieldComponent.LOS_ONLY:
        return np.exp(1j * k1z * (r_z - s_z))
    if component is FieldComponent.TRANSMISSION:
        k2z = _kz_pair(scene, k1z)
        if mat.is_conductor:
            return np.zeros(k1z.shape, dtype=complex)
        t = transmission_from_kz(mat, k1z, k2z)
        return t * np.exp(1j * (k1z * (d1 - s_z) + k2z * (r_z - d1)))
    k2z = _kz_pair(scene, k1z)
    refl = reflection_from_kz(mat, k1z, k2z)
    reflected = refl * np.exp(-1j * k1z * (r_z + s_z - 2.0 * d1))
    if component is FieldComponent.REFLECTION_ONLY:
        return np.asarray(reflected, dtype=complex)
    if component is FieldComponent.LOS_PLUS_REFLECTION:
        return np.exp(1j * k1z * (r_z - s_z)) + reflected
    if component is FieldComponent.DOWNGOING_LOS_PLUS_REFLECTION:
        return np.exp(-1j * k1z * (r_z - s_z)) + reflected
    msg = f"unsupported component {component!r}"
    raise ValueError(msg)


def evanescent_factor(scene: SceneConfig, component: FieldComponent, gamma):
    """Analytic continuation of :func:`propagating_factor` to k1z = i*gamma.

    Every term decays exponentially in gamma for valid geometry, which is
    what makes the branch-cut completion of the synthesis integrable.
    """
    medium = scene.medium
    s_z, r_z, d1 = scene.source_z, scene.receiver_z, scene.surface_z
    gamma = np.asarray(gamma, dtype=float)
    if component is FieldComponent.LOS_ONLY:
        return np.exp(-gamma * (r_z - s_z)) + 0.0j
    if component is FieldComponent.TRANSMISSION:
        if medium.material.is_conductor:
            return np.zeros(gamma.shape, dtype=complex)
        t = _transmission_continued(medium, gamma)
        k2z_sq = medium.kappa2 ** 2 - medium.kappa1 ** 2 - gamma * gamma
        k2z = np.sqrt(k2z_sq.astype(complex))
        return t * np.exp(-gamma * (d1 - s_z)) * np.exp(1j * k2z * (r_z - d1))
    refl = _reflection_continued(medium, gamma)
    reflected = refl * np.exp(gamma * (r_z + s_z - 2.0 * d1))
    if component is FieldComponent.REFLECTION_ONLY:
        return reflected
    if component is FieldComponent.LOS_PLUS_REFLECTION:
        return np.exp(-gamma * (r_z - s_z)) + reflected
    if component is FieldComponent.DOWNGOING_LOS_PLUS_REFLECTION:
        return np.exp(gamma * (r_z - s_z)) + reflected
    msg = f"unsupported component {component!r}"
    raise ValueError(msg)


def oscillation_span(scene: SceneConfig, component: FieldComponent) -> float:
    """Longitudinal path length governing the fastest phase oscillation.

    Distances through the far side count scaled by its refractive index so
    the free-space oscillation budget still bounds the integrand.
    """
    s_z, r_z, d1 = scene.source_z, scene.receiver_z, scene.surface_z
    if component is FieldComponent.LOS_ONLY:
        return abs(r_z - s_z)
    if component is FieldComponent.TRANSMISSION:
        index = scene.medium.material.refractive_index
        if index is None:
            return d1 - s_z
        return (d1 - s_z) + index * (r_z - d1)
    span_reflected = 2.0 * d1 - r_z - s_z
    if component is FieldComponent.REFLECTION_ONLY:
        return span_reflected
    return max(abs(r_z - s_z), span_reflected)


def decay_distance(scene: SceneConfig, component: FieldComponent) -> float:
    """Slowest exponential decay scale of the branch-cut continuation."""
    s_z, r_z, d1 = scene.source_z, scene.receiver_z, scene.surface_z
    if component is FieldComponent.LOS_ONLY:
        return r_z - s_z
    if component is FieldComponent.DOWNGOING_LOS_PLUS_REFLECTION:
        return s_z - r_z
    if component is FieldComponent.TRANSMISSION:
        return d1 - s_z
    span_reflected = 2.0 * d1 - r_z - s_z
    if component is FieldComponent.REFLECTION_ONLY:
        return span_reflected
    return min(r_z - s_z, span_reflected)


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
