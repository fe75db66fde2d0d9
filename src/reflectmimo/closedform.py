"""Closed-form reference fields used to validate the spectral synthesis.

The free-space impulse between two points is an outgoing spherical wave,
and above a perfectly conducting plane the reflected part equals the field
of a mirrored source with flipped sign.  Both are exact, independent of
the quadrature path, and serve as oracles in the test-suite and in
``impulse_validate``.  The experiments take one more value from here: the
power of the direct channel between two arrays (:func:`los_power`), which
scales relative spectra.  Above a
dielectric half-space the reflected part is the mirrored source's wave
weighted by the plane-wave reflection coefficient at the specular angle,
plus its first correction in 1 / (kappa1 R): an asymptotic oracle whose
error falls like (kappa1 R)^-2 (Brekhovskikh, Waves in Layered Media, 2nd
ed., 1980; Chew, Waves and Fields in Inhomogeneous Media, 1990, ch. 2).
"""

from __future__ import annotations

import cmath
import decimal
import math

import numpy as np

from .materials import FREE_SPACE_IMPEDANCE, Medium


def _as_point(p) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.shape != (3,):
        msg = f"expected a 3-vector, got shape {arr.shape}"
        raise ValueError(msg)
    return arr


def _exact_distance(receiver: np.ndarray, source: np.ndarray,
                    mirror_z: float | None = None) -> decimal.Decimal:
    """|receiver - source| from the endpoints in 40-digit decimal
    arithmetic, so neither the displacement nor the distance is rounded to
    a double first.  With ``mirror_z`` the source is first mirrored through
    the plane z = ``mirror_z``, also in decimal arithmetic."""
    with decimal.localcontext() as context:
        context.prec = 40
        ends = [decimal.Decimal(float(v)) for v in source]
        if mirror_z is not None:
            ends[2] = 2 * decimal.Decimal(mirror_z) - ends[2]
        return sum((decimal.Decimal(float(r)) - s) ** 2
                   for r, s in zip(receiver, ends)).sqrt()


def _wave(kappa: float, distance: decimal.Decimal) -> complex:
    """e^{i kappa R} / R with the phase kappa R carried as hi + lo: at
    kappa R ~ 1e5, a phase rounded to a double would err by kappa R 2^-53."""
    with decimal.localcontext() as context:
        context.prec = 40
        phase = decimal.Decimal(kappa) * distance
        hi = float(phase)
        lo = float(phase - decimal.Decimal(hi))
    return cmath.exp(1j * hi) * cmath.exp(1j * lo) / float(distance)


def spherical_wave(kappa: float, offset) -> complex:
    """Outgoing spherical wave e^{i kappa |r|} / |r| at displacement ``offset``."""
    r = _exact_distance(_as_point(offset), np.zeros(3))
    if r <= 0:
        msg = "spherical wave is singular at zero displacement"
        raise ValueError(msg)
    return _wave(kappa, r)


def _check_ten_wavelengths(medium: Medium, separation: decimal.Decimal) -> None:
    if float(separation) < 10.0 * medium.wavelength:
        msg = (
            f"separation {float(separation):.6g} m below the ten-wavelength guard "
            f"({10.0 * medium.wavelength:.6g} m)"
        )
        raise ValueError(msg)


def _scale(medium: Medium) -> complex:
    return -1j * medium.kappa1 * FREE_SPACE_IMPEDANCE / (4.0 * math.pi)


def los_impulse(medium: Medium, receiver, source) -> complex:
    """Exact free-space impulse between two points.

    Equals -i (kappa1 eta1 / 4 pi) e^{i kappa1 R} / R with R the
    separation; this is the full field including the part the propagating
    disk alone cannot represent.  Points closer than ten wavelengths are
    rejected: the synthesis is not meant to be compared there.
    """
    separation = _exact_distance(_as_point(receiver), _as_point(source))
    _check_ten_wavelengths(medium, separation)
    return _scale(medium) * _wave(medium.kappa1, separation)


def los_power(medium: Medium, tx, rx) -> float:
    """||H_LOS||_F^2 of the free-space channel from array ``tx`` to array
    ``rx`` (anything with an (n, 3) ``positions``): the sum over antenna
    pairs of |los_impulse|^2 = (kappa1 eta1 / 4 pi)^2 / R^2.  The phase
    drops out, so plain float arithmetic is exact to round-off."""
    delta = rx.positions[:, None, :] - tx.positions[None, :, :]
    return abs(_scale(medium)) ** 2 * float(np.sum(1.0 / np.sum(delta * delta, axis=-1)))


def _above_surface(receiver, source, surface_z: float) -> tuple[np.ndarray, np.ndarray]:
    r = _as_point(receiver)
    s = _as_point(source)
    if s[2] >= surface_z:
        msg = f"source z={s[2]} must lie left of the surface z={surface_z}"
        raise ValueError(msg)
    if r[2] > surface_z:
        msg = f"receiver z={r[2]} must not lie behind the surface z={surface_z}"
        raise ValueError(msg)
    return r, s


def image_impulse(medium: Medium, receiver, source, surface_z: float) -> complex:
    """Impulse above a perfectly conducting plane at z = ``surface_z``.

    Direct wave plus the sign-flipped wave of the source mirrored through
    the plane; identically zero for receivers on the plane.  Only defined
    for the conductor variant.
    """
    if not medium.material.is_conductor:
        msg = "image construction requires the perfect-conductor variant"
        raise ValueError(msg)
    r, s = _above_surface(receiver, source, surface_z)
    mirrored = np.array([s[0], s[1], 2.0 * surface_z - s[2]])
    return los_impulse(medium, r, s) - los_impulse(medium, r, mirrored)


def _reflection_series(index: float, mu: float, theta: float) -> tuple[float, float]:
    """V(theta) and N(theta) = (V'' + V' cot theta) / 2 of the reflected
    spherical wave, with V = (mu cos - w) / (mu cos + w), w = sqrt(n^2 -
    sin^2), the plane-wave reflection coefficient.  With T = mu cos + w,
    V' = 2 mu (1 - n^2) sin / (w T^2) and V'' = 2 mu (1 - n^2) [n^2 cos /
    (w^3 T^2) + 2 sin^2 (mu + cos / w) / (w T^3)], so V' cot theta =
    2 mu (1 - n^2) cos / (w T^2), which tends to V'' as theta -> 0."""
    c, s = math.cos(theta), math.sin(theta)
    w = math.sqrt(index * index - s * s)
    total = mu * c + w
    v = (mu * c - w) / total
    lead = 2.0 * mu * (1.0 - index * index) / (w * total * total)
    v2 = lead * (index * index * c / (w * w) + 2.0 * s * s * (mu + c / w) / total)
    return v, 0.5 * (v2 + lead * c)


def dielectric_image_impulse(medium: Medium, receiver, source, surface_z: float) -> complex:
    """Reflected impulse above a dielectric half-space at z = ``surface_z``,
    to first order in 1 / (kappa1 R).

    -i (kappa1 eta1 / 4 pi) e^{i kappa1 R} / R [V(theta) - i N(theta) /
    (kappa1 R)], with R the distance from the receiver to the source
    mirrored through the plane, theta = atan(rho / L) the specular angle
    of that path (L its normal, rho its transverse extent), V the
    plane-wave reflection coefficient and N its first correction (see
    :func:`_reflection_series`).  The neglected terms are of relative size
    (kappa1 R)^-2.  R and the phase kappa1 R are carried exactly, as in
    :func:`los_impulse`.  Only the reflected part is returned, and only
    for a dielectric; images closer than ten wavelengths are rejected.
    """
    material = medium.material
    if material.is_conductor:
        msg = "the dielectric image needs a refractive index; see image_impulse"
        raise ValueError(msg)
    r, s = _above_surface(receiver, source, surface_z)
    distance = _exact_distance(r, s, mirror_z=surface_z)
    _check_ten_wavelengths(medium, distance)
    theta = math.atan2(math.hypot(r[0] - s[0], r[1] - s[1]), 2.0 * surface_z - r[2] - s[2])
    v, n = _reflection_series(material.refractive_index, material.permeability_ratio, theta)
    correction = v - 1j * n / (medium.kappa1 * float(distance))
    return _scale(medium) * _wave(medium.kappa1, distance) * correction
