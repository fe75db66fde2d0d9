"""Half-space materials, wavenumbers, and scalar Fresnel coefficients.

The link volume is split by an infinite plane: free space on the source
side, a lossless homogeneous fill behind it.  The far side is either a
dielectric described by its refractive index or a perfect conductor, which
is kept as a distinguished variant rather than a large-index limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 2.998e8
"""Free-space propagation speed, m/s (rounding convention of the catalog tables)."""

FREE_SPACE_IMPEDANCE = 376.730313668
"""Free-space wave impedance, ohm."""

# Tolerate samples sitting exactly on the disk rim after sin/cos round-off.
_DISK_SLACK = 1.0 + 1e-12


@dataclass(frozen=True)
class Material:
    """A surface fill: a lossless dielectric, or the perfect-conductor variant.

    ``refractive_index`` is ``None`` for the perfect conductor, whose
    permeability ratio mu2/mu1 is 0 by definition.  Dielectrics must be at
    least as dense as free space so every propagating incident wave stays
    propagating behind the surface.
    """

    name: str
    refractive_index: float | None
    permeability_ratio: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            msg = "material name must be non-empty"
            raise ValueError(msg)
        if self.refractive_index is None:
            if self.permeability_ratio != 0.0:
                msg = "the perfect conductor variant requires permeability_ratio == 0"
                raise ValueError(msg)
            return
        if not 1.0 <= self.refractive_index < math.inf:
            msg = f"refractive index must be finite and >= 1, got {self.refractive_index!r}"
            raise ValueError(msg)
        if not 0.0 < self.permeability_ratio < math.inf:
            msg = f"permeability ratio must be positive and finite, got {self.permeability_ratio!r}"
            raise ValueError(msg)

    @property
    def is_conductor(self) -> bool:
        return self.refractive_index is None

    @property
    def is_homogeneous(self) -> bool:
        """True when the far side is indistinguishable from free space."""
        return (
            self.refractive_index == 1.0
            and self.permeability_ratio == 1.0
        )


PERFECT_CONDUCTOR = Material("perfect_conductor", None, 0.0)
CONCRETE = Material("concrete", 2.55)
FLOOR_BOARD = Material("floor_board", 1.98)
PLASTER_BOARD = Material("plaster_board", 1.50)
VACUUM = Material("vacuum", 1.0)


def material_catalog() -> list[Material]:
    """Built-in materials: the conductor variant, three building dielectrics
    at 57.5 GHz, and vacuum (the trivial half-space)."""
    return [PERFECT_CONDUCTOR, CONCRETE, FLOOR_BOARD, PLASTER_BOARD, VACUUM]


def material_by_name(name: str, extra: tuple[Material, ...] = ()) -> Material:
    """Look up a material by normalized name, searching ``extra`` first."""
    key = name.strip().lower().replace("-", "_").replace(" ", "_")
    for mat in (*extra, *material_catalog()):
        if mat.name == key:
            return mat
    known = ", ".join(m.name for m in (*extra, *material_catalog()))
    msg = f"unknown material {name!r} (known: {known})"
    raise ValueError(msg)


@dataclass(frozen=True)
class Medium:
    """A material paired with the operating frequency."""

    frequency: float
    material: Material

    def __post_init__(self) -> None:
        if not 0.0 < self.frequency < math.inf:
            msg = f"frequency must be positive and finite, got {self.frequency!r}"
            raise ValueError(msg)

    @property
    def kappa1(self) -> float:
        """Free-space wavenumber, rad/m."""
        return 2.0 * math.pi * self.frequency / SPEED_OF_LIGHT

    @property
    def kappa2(self) -> float | None:
        """Far-side wavenumber, rad/m; ``None`` for the perfect conductor."""
        if self.material.is_conductor:
            return None
        return self.material.refractive_index * self.kappa1

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency


def wavenumbers(frequency: float, material: Material) -> tuple[float, float | None]:
    """Per-medium wavenumbers (kappa1, kappa2) at ``frequency``.

    kappa2 is ``None`` for the perfect conductor: the variant is never
    collapsed to a float.
    """
    medium = Medium(frequency, material)
    return medium.kappa1, medium.kappa2


def _transverse_sq(medium: Medium, kx, ky):
    """Squared transverse wavenumber, validated against the propagating disk."""
    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    rho_sq = kx * kx + ky * ky
    if np.any(rho_sq > medium.kappa1 ** 2 * _DISK_SLACK):
        msg = "sample outside the propagating disk (evanescent region unsupported)"
        raise ValueError(msg)
    return rho_sq


def longitudinal_wavenumbers(medium: Medium, kx, ky):
    """Longitudinal components (kappa_1z, kappa_2z) for in-disk samples.

    Returns a float pair for scalar inputs, arrays otherwise; kappa_2z is
    ``None`` for the perfect conductor.
    """
    scalar = np.isscalar(kx) and np.isscalar(ky)
    rho_sq = _transverse_sq(medium, kx, ky)
    k1z = np.sqrt(np.maximum(medium.kappa1 ** 2 - rho_sq, 0.0))
    if medium.material.is_conductor:
        return (float(k1z), None) if scalar else (k1z, None)
    k2z = np.sqrt(np.maximum(medium.kappa2 ** 2 - rho_sq, 0.0))
    return (float(k1z), float(k2z)) if scalar else (k1z, k2z)


def reflection_from_kz(material: Material, k1z, k2z):
    """Reflection coefficient from longitudinal wavenumbers.

    R = (mu_r kappa_1z - kappa_2z) / (mu_r kappa_1z + kappa_2z) with
    mu_r = mu2/mu1.  Valid for real (propagating) and analytically
    continued (imaginary kappa_1z) arguments alike.
    """
    if material.is_conductor:
        return np.full_like(np.asarray(k1z), -1.0)
    mu = material.permeability_ratio
    return (mu * k1z - k2z) / (mu * k1z + k2z)


def transmission_from_kz(material: Material, k1z, k2z):
    """Transmission coefficient 2 mu_r kappa_1z / (mu_r kappa_1z + kappa_2z)."""
    if material.is_conductor:
        return np.zeros_like(np.asarray(k1z))
    mu = material.permeability_ratio
    return 2.0 * mu * k1z / (mu * k1z + k2z)


def fresnel_reflection(medium: Medium, kx, ky):
    """Surface reflection coefficient at in-disk transverse wavenumbers.

    Parameters
    ----------
    medium:
        Frequency/material pair fixing kappa1 and kappa2.
    kx, ky:
        Transverse wavenumbers, rad/m; scalars or broadcastable arrays with
        kx**2 + ky**2 <= kappa1**2.

    Returns
    -------
    Real coefficient in [-1, 1]: exactly -1 for the perfect conductor,
    exactly 0 for a homogeneous far side.  Raises ValueError outside the
    propagating disk.
    """
    return _fresnel(medium, kx, ky, reflection_from_kz, 0.0)


def fresnel_transmission(medium: Medium, kx, ky):
    """Surface transmission coefficient at in-disk transverse wavenumbers.

    Satisfies 1 + R = T everywhere on the disk; 0 for the perfect
    conductor, 1 for a homogeneous far side.
    """
    return _fresnel(medium, kx, ky, transmission_from_kz, 1.0)


def _fresnel(medium: Medium, kx, ky, from_kz, homogeneous: float):
    """``from_kz`` at the :func:`longitudinal_wavenumbers` of the in-disk
    (kx, ky), or ``homogeneous`` on a homogeneous far side; a float for
    scalar inputs, which are passed as arrays to keep numpy's arithmetic."""
    k1z, k2z = longitudinal_wavenumbers(medium, np.asarray(kx, dtype=float),
                                        np.asarray(ky, dtype=float))
    out = (np.full_like(k1z, homogeneous) if medium.material.is_homogeneous
           else from_kz(medium.material, k1z, k2z))
    return float(out) if np.isscalar(kx) and np.isscalar(ky) else out


def far_side_kz(medium: Medium, k1z):
    """Far-side longitudinal wavenumber kappa_2z matching kappa_1z samples:
    the principal root of kappa2^2 - kappa1^2 + kappa_1z^2.

    It is real on the disk (n >= 1) and continues it analytically off the
    root's branch cut, the polar angles a = pi/2 -+ i b past b = acosh n;
    below the real polar axis Im kappa_2z >= 0.  A homogeneous far side
    returns kappa_1z itself, so its reflection vanishes exactly.  ``None``
    for the perfect conductor.
    """
    if medium.material.is_conductor:
        return None
    if medium.material.is_homogeneous:
        return np.asarray(k1z)
    return np.sqrt(medium.kappa2 ** 2 - medium.kappa1 ** 2 + np.asarray(k1z) ** 2)
