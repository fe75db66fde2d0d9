"""Uniform linear arrays, channel matrices sampled from the impulse
response, and their normalized eigenvalue spectra.

Matrix assembly exploits the isotropy of the surface: the response depends
only on the pair of planes and the transverse distance between receiver and
source, so entries sharing both are synthesized once, and every distance on
one pair of planes shares one set of spectral coefficients.  Parallel
N-antenna arrays with equal spacings cost N evaluations instead of N^2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .capacity import optimal_stream_count
from .eigensolve import hermitian_eigh
from .quadrature import (
    QuadratureSpec,
    SpatialLag,
    UnderResolvedWarning,
    _required_nodes,
    synthesize_impulse,
)
from .spectrum import FieldComponent, SceneConfig

_LAG_QUANTUM = 1e-12  # m; samples equal up to float noise share one evaluation

SELF_SUM = "self_sum"
RELATIVE = "relative"


@dataclass(frozen=True)
class ArrayLayout:
    """Uniform linear array: ``count`` antennas spaced ``spacing`` apart
    along ``axis``, symmetric about ``center``."""

    count: int
    spacing: float
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    axis: tuple[float, float, float] = (1.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        if self.count < 1:
            msg = f"count must be >= 1, got {self.count}"
            raise ValueError(msg)
        if not (self.spacing > 0.0):
            msg = f"spacing must be > 0, got {self.spacing!r}"
            raise ValueError(msg)
        norm = math.sqrt(sum(a * a for a in self.axis))
        if abs(norm - 1.0) > 1e-9:
            msg = f"axis must be a unit vector, got norm {norm!r}"
            raise ValueError(msg)

    @classmethod
    def along_x(cls, count: int, spacing: float, z: float) -> "ArrayLayout":
        return cls(count=count, spacing=spacing, center=(0.0, 0.0, z))

    @property
    def positions(self) -> np.ndarray:
        center = np.asarray(self.center, dtype=float)
        axis = np.asarray(self.axis, dtype=float)
        offsets = (np.arange(self.count) - (self.count - 1) / 2.0) * self.spacing
        return center[None, :] + offsets[:, None] * axis[None, :]


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Sampled channel: ``entries[m, n]`` is the impulse response from
    transmit antenna n to receive antenna m."""

    entries: np.ndarray
    tx: ArrayLayout
    rx: ArrayLayout
    component: FieldComponent
    scene: SceneConfig
    spec: QuadratureSpec
    under_resolved: bool
    distinct_evaluations: int


@dataclass(frozen=True, eq=False)
class EigenSpectrum:
    """Descending nonnegative eigenvalues of the channel Gram matrix.

    ``scale`` is the factor applied to the raw spectrum; under self-sum
    normalization it makes the eigenvalues sum to the entry count, and it
    can be reused on another matrix to preserve relative power.
    """

    values: np.ndarray
    scale: float
    normalization: str

    @property
    def db(self) -> np.ndarray:
        return 10.0 * np.log10(np.maximum(self.values, 1e-300))


def build_channel_matrix(scene: SceneConfig, tx: ArrayLayout, rx: ArrayLayout,
                         component: FieldComponent,
                         spec: QuadratureSpec | None = None, *,
                         include_evanescent_tail: bool = True) -> ChannelMatrix:
    """Sample the impulse response at every transmit/receive antenna pair.

    With ``spec=None`` node counts are sized automatically from the largest
    oscillation budget over all pairs.  An explicit undersized ``spec``
    still evaluates, but the matrix is flagged and a single
    :class:`UnderResolvedWarning` is emitted for the whole assembly.
    """
    tx_pos = tx.positions
    rx_pos = rx.positions
    shape = (rx.count, tx.count)
    delta = rx_pos[:, None, :2] - tx_pos[None, :, :2]
    samples = np.stack([
        np.broadcast_to(rx_pos[:, None, 2], shape),
        np.broadcast_to(tx_pos[None, :, 2], shape),
        np.hypot(delta[..., 0], delta[..., 1]),
    ], axis=-1).reshape(-1, 3)
    keys = np.rint(samples / _LAG_QUANTUM).astype(np.int64)
    _, first, index_of = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    lags = [SpatialLag(x=rho, receiver_z=r_z, source_z=s_z)
            for r_z, s_z, rho in samples[first].tolist()]

    needed = _required_nodes(scene, component, lags)
    if spec is None:
        spec = needed
    under_resolved = 64 * -(-spec.n_alpha // 64) < needed.n_alpha

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderResolvedWarning)
        values = synthesize_impulse(
            scene, component, lags, spec,
            include_evanescent_tail=include_evanescent_tail,
        )

    entries = values[index_of].reshape(shape)
    if not np.all(np.isfinite(entries.view(float))):
        raise RuntimeError("channel matrix contains non-finite entries")
    if under_resolved:
        warnings.warn(
            f"matrix assembled with node counts below the oscillation budget "
            f"(requested n_alpha={spec.n_alpha}, needed {needed.n_alpha})",
            UnderResolvedWarning,
            stacklevel=2,
        )
    return ChannelMatrix(
        entries=entries, tx=tx, rx=rx, component=component, scene=scene,
        spec=spec, under_resolved=under_resolved,
        distinct_evaluations=len(lags),
    )


def _entries_of(channel: ChannelMatrix | np.ndarray) -> np.ndarray:
    entries = getattr(channel, "entries", channel)
    return np.asarray(entries, dtype=complex)


def raw_eigenvalues(channel: ChannelMatrix | np.ndarray) -> np.ndarray:
    """Descending eigenvalues of the receive-side Gram matrix H H*."""
    entries = _entries_of(channel)
    gram = entries @ entries.conj().T
    values, _ = hermitian_eigh(gram)
    return np.maximum(values, 0.0)


def eigen_spectrum(channel: ChannelMatrix | np.ndarray,
                   normalization: str = SELF_SUM, *,
                   reference_scale: float | None = None) -> EigenSpectrum:
    """Normalized eigenvalue spectrum of the channel Gram matrix.

    ``self_sum`` scales the spectrum so it sums to the number of matrix
    entries; ``relative`` applies a caller-provided ``reference_scale``
    (typically the self-sum scale of a baseline channel with the same
    geometry) so power differences between channels stay visible.
    """
    entries = _entries_of(channel)
    raw = raw_eigenvalues(entries)
    if normalization == SELF_SUM:
        total = float(raw.sum())
        if total <= 0.0:
            raise ValueError("cannot self-sum normalize a zero channel")
        scale = entries.size / total
    elif normalization == RELATIVE:
        if reference_scale is None or not (reference_scale > 0.0):
            msg = f"relative normalization needs a positive reference_scale, got {reference_scale!r}"
            raise ValueError(msg)
        scale = float(reference_scale)
    else:
        msg = f"normalization must be {SELF_SUM!r} or {RELATIVE!r}, got {normalization!r}"
        raise ValueError(msg)
    return EigenSpectrum(values=raw * scale, scale=scale, normalization=normalization)


def spacing_rayleigh(wavelength: float, distance: float, count: int) -> float:
    """Spacing making the direct channel a scaled Fourier matrix."""
    if wavelength <= 0.0 or distance <= 0.0 or count < 1:
        msg = (
            f"need positive wavelength/distance and count >= 1, got "
            f"({wavelength!r}, {distance!r}, {count})"
        )
        raise ValueError(msg)
    return math.sqrt(wavelength * distance / count)


def spacing_snr(wavelength: float, distance: float, count: int, snr: float) -> float:
    """Spacing matched to the capacity-optimal stream count at this SNR."""
    rho = optimal_stream_count(count, snr)
    return math.sqrt(rho / count) * spacing_rayleigh(wavelength, distance, count)
