"""Closed-form reference fields used to validate the spectral synthesis.

The free-space impulse between two points is an outgoing spherical wave,
and above a perfectly conducting plane the reflected part equals the field
of a mirrored source with flipped sign.  Both are exact, independent of
the quadrature path, and serve as oracles in the test-suite.
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


def _exact_distance(receiver: np.ndarray, source: np.ndarray) -> decimal.Decimal:
    """|receiver - source| from the endpoints in 40-digit decimal
    arithmetic, so neither the displacement nor the distance is rounded to
    a double first."""
    with decimal.localcontext() as context:
        context.prec = 40
        return sum((decimal.Decimal(float(r)) - decimal.Decimal(float(s))) ** 2
                   for r, s in zip(receiver, source)).sqrt()


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


def los_impulse(medium: Medium, receiver, source) -> complex:
    """Exact free-space impulse between two points.

    Equals -i (kappa1 eta1 / 4 pi) e^{i kappa1 R} / R with R the
    separation; this is the full field including the part the propagating
    disk alone cannot represent.  Points closer than ten wavelengths are
    rejected: the synthesis is not meant to be compared there.
    """
    separation = _exact_distance(_as_point(receiver), _as_point(source))
    if float(separation) < 10.0 * medium.wavelength:
        msg = (
            f"separation {float(separation):.6g} m below the ten-wavelength guard "
            f"({10.0 * medium.wavelength:.6g} m)"
        )
        raise ValueError(msg)
    scale = -1j * medium.kappa1 * FREE_SPACE_IMPEDANCE / (4.0 * math.pi)
    return scale * _wave(medium.kappa1, separation)


def image_impulse(medium: Medium, receiver, source, surface_z: float) -> complex:
    """Impulse above a perfectly conducting plane at z = ``surface_z``.

    Direct wave plus the sign-flipped wave of the source mirrored through
    the plane; identically zero for receivers on the plane.  Only defined
    for the conductor variant.
    """
    if not medium.material.is_conductor:
        msg = "image construction requires the perfect-conductor variant"
        raise ValueError(msg)
    r = _as_point(receiver)
    s = _as_point(source)
    if s[2] >= surface_z:
        msg = f"source z={s[2]} must lie left of the surface z={surface_z}"
        raise ValueError(msg)
    if r[2] > surface_z:
        msg = f"receiver z={r[2]} must not lie behind the surface z={surface_z}"
        raise ValueError(msg)
    mirrored = np.array([s[0], s[1], 2.0 * surface_z - s[2]])
    return los_impulse(medium, r, s) - los_impulse(medium, r, mirrored)
