"""Uniform linear arrays, channel matrices sampled from the impulse
response, and their normalized eigenvalue spectra, taken as the squared
singular values of the channel matrix.

Matrix assembly exploits the isotropy of the surface: the response depends
only on the pair of planes and the transverse distance between receiver and
source, so entries sharing both are synthesized once, and every distance on
one pair of planes shares one set of spectral coefficients.  Parallel
N-antenna arrays with equal spacings cost N evaluations instead of N^2.
The material enters only through those coefficients, so the matrices of
several surface materials on one geometry share one Bessel matrix
(:func:`build_channel_matrices`).  The layouts of one sweep, such as the
SNR-matched spacings of a capacity table, go to one synthesis: their
distinct samples come from one stable sort of picometre keys, each key
evaluated at the smallest sample it merges, and the synthesis cuts their
lags into runs by cost (:func:`quadrature._runs`).  The sorted samples of
each pair of planes are budgeted at once by :func:`quadrature._budgets`,
the synthesis's own budget; a matrix records the largest over its own
entries, and no layout is planned here.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .capacity import optimal_stream_count
from .quadrature import (
    QuadratureSpec,
    SpatialLag,
    _budgets,
    _count_problem,
    _material_batch,
    _nodes_used,
    _on_planes,
    synthesize_impulse,
)
from .spectrum import FieldComponent, SceneConfig

_LAG_QUANTUM = 1e-12  # m; samples equal up to float noise share one evaluation
_COORDINATES = ("receiver plane", "source plane", "lag")  # the columns of a sample row

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
        if problem := _count_problem("count", self.count, 1):
            raise ValueError(problem)
        if not 0.0 < self.spacing < math.inf:
            msg = f"spacing must be positive and finite, got {self.spacing!r}"
            raise ValueError(msg)
        if not all(math.isfinite(c) for c in self.center):
            msg = f"center must be finite, got {self.center!r}"
            raise ValueError(msg)
        norm = math.sqrt(sum(a * a for a in self.axis))
        if not abs(norm - 1.0) <= 1e-9:  # NaN fails too
            msg = f"axis must be a unit vector, got norm {norm!r}"
            raise ValueError(msg)

    @classmethod
    def along_x(cls, count: int, spacing: float, z: float) -> "ArrayLayout":
        return cls(count=count, spacing=spacing, center=(0.0, 0.0, z))

    @property
    def positions(self) -> np.ndarray:
        offsets = (np.arange(self.count) - (self.count - 1) / 2.0) * self.spacing
        return np.add(np.multiply.outer(offsets, self.axis), self.center)


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
    """Descending nonnegative eigenvalues of the channel Gram matrix H H*,
    i.e. the scaled squared singular values of H.

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
                         spec: QuadratureSpec | None = None) -> ChannelMatrix:
    """Sample the impulse response at every transmit/receive antenna pair.

    With ``spec=None`` each run of lags is sized at its own oscillation
    budget, and the matrix records the largest budget over its pairs.  An
    explicit undersized ``spec`` still evaluates, but the matrix is flagged
    and a single :class:`UnderResolvedWarning` is emitted for the whole
    assembly.
    """
    return _assemble([scene], [(tx, rx)], component, spec)[0][0]


def build_channel_matrices(scenes: Sequence[SceneConfig], tx: ArrayLayout,
                           rx: ArrayLayout, component: FieldComponent,
                           spec: QuadratureSpec | None = None) -> list[ChannelMatrix]:
    """One channel matrix per scene, from a single synthesis.

    The scenes may differ only in their surface material, so every matrix
    shares the lags, the nodes and the Bessel factors; only the spectral
    coefficients differ.  Node counts and the under-resolution flag follow
    :func:`build_channel_matrix`, taken over all scenes.
    """
    return _assemble(scenes, [(tx, rx)], component, spec)[0]


def _samples(tx: ArrayLayout, rx: ArrayLayout) -> tuple[np.ndarray, np.ndarray]:
    """The distinct sample rows of a layout pair and each entry's position (:func:`_distinct`)."""
    tx_pos = tx.positions
    rx_pos = rx.positions
    delta = rx_pos[:, None, :2] - tx_pos[None, :, :2]
    rows = np.empty((rx.count, tx.count, 3))
    rows[..., 0] = rx_pos[:, None, 2]
    rows[..., 1] = tx_pos[:, 2]
    rows[..., 2] = np.hypot(delta[..., 0], delta[..., 1])
    # An axis with no z component keeps an array on one plane, so only a tilted
    # array keys its planes, and only its lags can split among pairs of them.
    return _distinct(rows.reshape(-1, 3),
                     [i for i, layout in ((0, rx), (1, tx)) if layout.axis[2]] + [2])


def _distinct(rows: np.ndarray, keyed: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct sample rows among ``rows`` by the picometre keys of
    their ``keyed`` columns (the others are constant), sorted by those
    keys, and each row's position among them.  A key merges samples equal
    up to float noise; its row holds their smallest coordinates, which no
    order of the entries changes."""
    first, index_of = _distinct_samples(_keys(rows[:, keyed], keyed))
    merged = rows[first]
    for i in keyed:
        np.minimum.at(merged[:, i], index_of, rows[:, i])
    _keys(merged, range(3))  # a constant plane, too, must lie within the keys' reach
    return merged, index_of


def _keys(values: np.ndarray, columns: Sequence[int]) -> np.ndarray:
    """The picometre lattice keys of ``values``, whose columns hold the
    sample coordinates ``columns`` (positions in a sample row), refusing a
    coordinate whose key overflows int64, beyond about 9,223 km."""
    scaled = np.rint(values / _LAG_QUANTUM)
    within = np.abs(scaled) < 2.0**63
    if not within.all():
        at = int(np.argmin(within.all(axis=0)))
        raise ValueError(f"{_COORDINATES[columns[at]]} {float(np.max(np.abs(values[:, at])))!r} "
                         f"m lies beyond the 9,223 km reach of the picometre sample keys")
    return scaled.astype(np.int64)


def _assemble(scenes: Sequence[SceneConfig], layouts: Sequence[tuple[ArrayLayout, ArrayLayout]],
              component: FieldComponent,
              spec: QuadratureSpec | None) -> list[list[ChannelMatrix]]:
    """The channel matrix of every scene for every (tx, rx) layout pair,
    one list of scenes per layout, in the order given, from one synthesis
    of their distinct samples at ``spec``, or, when None, with each run of
    lags at its own budget; an under-resolved ``spec`` gets the synthesis's
    one warning.  Several layouts merge their samples into one sorted table
    (:func:`_distinct`).  Each run of its rows on one pair of planes is
    budgeted at once (:func:`quadrature._budgets`), and each matrix records
    ``spec``, or the largest budget of its entries."""
    scenes = _material_batch(scenes)
    samples = [_samples(tx, rx) for tx, rx in layouts]
    if len(samples) == 1:
        rows, positions = samples[0][0], [samples[0][1]]
    else:
        rows, index_of = _distinct(np.concatenate([own for own, _ in samples]), [0, 1, 2])
        offsets = np.cumsum([0] + [len(own) for own, _ in samples])
        positions = [index_of[at + own_at] for at, (_, own_at) in zip(offsets, samples)]
    planes = rows[:, :2]
    cuts = [0, *(np.flatnonzero((planes[1:] != planes[:-1]).any(axis=1)) + 1).tolist(), len(rows)]
    needs = np.concatenate([_budgets([_on_planes(s, tuple(planes[start].tolist())) for s in scenes],
                                     component, rows[start:stop, 2])
                            for start, stop in zip(cuts, cuts[1:])])
    lags = [SpatialLag(x=rho, receiver_z=r_z, source_z=s_z) for r_z, s_z, rho in rows.tolist()]
    values = synthesize_impulse(scenes, component, lags, spec)
    if not np.all(np.isfinite(values)):
        raise RuntimeError("channel matrix contains non-finite entries")
    matrices: list[list[ChannelMatrix]] = []
    for (tx, rx), (own, _), at in zip(layouts, samples, positions):
        needed = int(needs[at].max())
        used = spec or QuadratureSpec(needed)
        under_resolved = _nodes_used(used.n_alpha) < needed
        matrices.append([
            ChannelMatrix(
                entries=row[at].reshape(rx.count, tx.count), tx=tx, rx=rx,
                component=component, scene=scene, spec=used,
                under_resolved=under_resolved, distinct_evaluations=len(own),
            )
            for scene, row in zip(scenes, values)
        ])
    return matrices


def _distinct_samples(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First occurrence of each distinct key row, in sorted order, and each
    row's position among them: ``np.unique(keys, axis=0)`` from one stable
    lexicographic sort, compared column by column.  The rho keys come last,
    so on one pair of planes this is a 1-D sort of them."""
    order = np.lexsort(keys.T[::-1])
    new = np.zeros(len(keys), dtype=bool)
    new[0] = True
    for column in keys.T:
        ordered = column[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    index_of = np.empty(len(keys), dtype=np.intp)
    index_of[order] = np.cumsum(new) - 1
    return order[new], index_of


def _entries_of(channel: ChannelMatrix | np.ndarray) -> np.ndarray:
    entries = getattr(channel, "entries", channel)
    return np.asarray(entries, dtype=complex)


def raw_eigenvalues(channel: ChannelMatrix | np.ndarray) -> np.ndarray:
    """Descending eigenvalues of the receive-side Gram matrix H H*, one per
    receive antenna.

    They are the squared singular values of H, zero-padded when H has fewer
    columns than rows.  The Gram matrix is never formed: each singular value
    is accurate to about machine epsilon times the largest, so a small
    eigenvalue is off by about eps * sqrt(lambda * lambda_max) rather than
    the eps * lambda_max of an eigensolve of H H*.
    """
    entries = _entries_of(channel)
    if entries.ndim != 2:
        msg = f"expected a 2-D channel matrix, got shape {entries.shape}"
        raise ValueError(msg)
    values = np.zeros(entries.shape[0])
    singular = np.linalg.svd(entries, compute_uv=False)
    values[:singular.size] = singular * singular
    return values


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
        if reference_scale is None or not 0.0 < reference_scale < math.inf:
            msg = ("relative normalization needs a positive, finite reference_scale, "
                   f"got {reference_scale!r}")
            raise ValueError(msg)
        scale = float(reference_scale)
    else:
        msg = f"normalization must be {SELF_SUM!r} or {RELATIVE!r}, got {normalization!r}"
        raise ValueError(msg)
    return EigenSpectrum(values=raw * scale, scale=scale, normalization=normalization)


def spacing_rayleigh(wavelength: float, distance: float, count: int) -> float:
    """Spacing making the direct channel a scaled Fourier matrix."""
    if not (0.0 < wavelength < math.inf and 0.0 < distance < math.inf) or count < 1:
        msg = (
            f"need finite positive wavelength/distance and count >= 1, got "
            f"({wavelength!r}, {distance!r}, {count})"
        )
        raise ValueError(msg)
    return math.sqrt(wavelength * distance / count)


def spacing_snr(wavelength: float, distance: float, count: int, snr: float) -> float:
    """Spacing matched to the capacity-optimal stream count at this SNR."""
    return _spacing_for_streams(wavelength, distance, count, optimal_stream_count(count, snr))


def _spacing_for_streams(wavelength: float, distance: float, count: int, streams: int) -> float:
    """Spacing matched to ``streams`` of the ``count`` streams."""
    return math.sqrt(streams / count) * spacing_rayleigh(wavelength, distance, count)
