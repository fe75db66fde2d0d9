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
SNR-matched spacings of a capacity table, share syntheses too.  Each
layout is planned once: a stable sort of its rho keys within each pair of
planes gives its distinct lags, and its plan prices a lag in real J0
evaluations.  Taken by largest lag, a layout on the current synthesis's one
pair of planes joins it while the lags it adds, at that synthesis's price,
cost no more than its own lags at its own price plus the fixed cost of a call.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .capacity import optimal_stream_count
from .quadrature import (
    QuadratureSpec,
    SpatialLag,
    UnderResolvedWarning,
    _material_batch,
    _nodes_used,
    _on_planes,
    _plan,
    synthesize_impulse,
)
from .spectrum import FieldComponent, SceneConfig

_LAG_QUANTUM = 1e-12  # m; samples equal up to float noise share one evaluation
# Fixed work of one synthesis call (coefficients and bookkeeping) in real J0
# evaluations: the intercept of synthesize_impulse's time against its lag
# count on one path, over the time of one j0.  For the SNR-matched spacings
# of fig5 (N = 16, 57.5 GHz, 2 to 16 lags, one BLAS thread on a 2-core Xeon,
# 18 ns per j0) it is 14,000 to 15,500 j0 for the four-material batch and
# 6,700 to 7,900 for the direct channel; the N = 16 sweep merges fully for
# any value from 3,000 up.  The value stays 12,000: 7,000 or 15,000 regroup
# the N = 64 sweeps (15,000 the N = 128 ones too), and so move outputs.
_SYNTHESIS_COST = 12_000

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

    With ``spec=None`` node counts are sized automatically from the largest
    oscillation budget over all pairs.  An explicit undersized ``spec``
    still evaluates, but the matrix is flagged and a single
    :class:`UnderResolvedWarning` is emitted for the whole assembly.
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


@dataclass(frozen=True, eq=False)
class _Samples:
    """The distinct (receiver_z, source_z, rho) sample rows of one layout
    pair with their lattice keys, each entry's position among them, the
    node count they need and, on a single pair of planes, that pair and
    their price per lag in real J0 evaluations: the summed cost of their
    paths."""

    rows: np.ndarray
    keys: np.ndarray
    index_of: np.ndarray
    needed: QuadratureSpec
    planes: tuple[float, float] | None
    rate: int | None


def _samples(scenes: list[SceneConfig], tx: ArrayLayout, rx: ArrayLayout,
             component: FieldComponent, spec: QuadratureSpec | None) -> _Samples:
    tx_pos = tx.positions
    rx_pos = rx.positions
    shape = (rx.count, tx.count)
    delta = rx_pos[:, None, :2] - tx_pos[None, :, :2]
    rho = np.hypot(delta[..., 0], delta[..., 1])
    # An axis with no z component keeps an array on one plane, so only a tilted
    # array keys its planes, and only its lags can split among pairs of them.
    planes = [np.broadcast_to(z, shape) for z, layout in
              ((rx_pos[:, None, 2], rx), (tx_pos[:, 2], tx)) if layout.axis[2]]
    keys = np.rint(np.stack([*planes, rho]).reshape(len(planes) + 1, -1) / _LAG_QUANTUM)
    first, index_of = _distinct_samples(keys.astype(np.int64).T)
    at_rx, at_tx = np.divmod(first, tx.count)
    rows = np.stack([rx_pos[at_rx, 2], tx_pos[at_tx, 2], rho.ravel()[first]], axis=1)
    pairs = (np.split(rows, np.flatnonzero(np.any(rows[1:, :2] != rows[:-1, :2], axis=1)) + 1)
             if planes else [rows])
    plans = [_plan([_on_planes(scene, tuple(on[0, :2].tolist())) for scene in scenes],
                   component, on[:, 2], spec)
             for on in pairs]
    single = len(pairs) == 1
    return _Samples(rows, np.rint(rows / _LAG_QUANTUM).astype(np.int64), index_of,
                    QuadratureSpec(max(need for need, _ in plans)),
                    tuple(rows[0, :2].tolist()) if single else None,
                    sum(path.cost for _, path in plans[0][1]) if single else None)


def _union(members: list[_Samples]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The distinct sample rows of the layouts of one synthesis, which share
    a pair of planes, and each layout's entries' positions among them."""
    if len(members) == 1:
        return members[0].rows, [members[0].index_of]
    first, index_of = _distinct_samples(np.concatenate([m.keys[:, 2:] for m in members]))
    offsets = np.cumsum([0] + [len(m.rows) for m in members])
    rows = np.concatenate([m.rows for m in members])[first]
    return rows, [index_of[at + m.index_of] for at, m in zip(offsets, members)]


def _batches(samples: list[_Samples]) -> list[list[int]]:
    """The layouts of each synthesis.  Taken by largest lag, largest
    first, a layout on the current synthesis's single pair of planes joins
    it while the lags it adds, at the synthesis's rate, cost no more than
    its own lags at its own rate plus ``_SYNTHESIS_COST``, the fixed cost
    of a call.  A path sees a pair's lags only through the largest and
    whether there is one, so a union runs its first layout's path: the
    price is exact, bar a first layout of one positive lag on its own path,
    which no sweep builds."""
    order = sorted(range(len(samples)), key=lambda i: -float(samples[i].rows[:, 2].max()))
    batches: list[list[int]] = []
    planes, rate, held = None, 0, set()  # the current synthesis's pair, rate and rho keys
    for i in order:
        layout = samples[i]
        lags = set(layout.keys[:, 2].tolist())
        if layout.planes is not None and layout.planes == planes:
            new = lags - held
            if len(new) * rate <= len(layout.rows) * layout.rate + _SYNTHESIS_COST:
                batches[-1].append(i)
                held |= new
                continue
        batches.append([i])
        planes, rate, held = layout.planes, layout.rate, lags
    return batches


def _assemble(scenes: Sequence[SceneConfig], layouts: Sequence[tuple[ArrayLayout, ArrayLayout]],
              component: FieldComponent,
              spec: QuadratureSpec | None) -> list[list[ChannelMatrix]]:
    """The channel matrix of every scene for every (tx, rx) layout pair,
    one list of scenes per layout, in the order given.  Layouts share
    syntheses as :func:`_batches` plans them; each synthesis runs at
    ``spec``, or at the largest count its layouts need."""
    scenes = _material_batch(scenes)
    samples = [_samples(scenes, tx, rx, component, spec) for tx, rx in layouts]
    matrices: list[list[ChannelMatrix]] = [[] for _ in layouts]
    unmet = 0
    for batch in _batches(samples):
        members = [samples[i] for i in batch]
        rows, positions = _union(members)
        lags = [SpatialLag(x=rho, receiver_z=r_z, source_z=s_z)
                for r_z, s_z, rho in rows.tolist()]
        used = spec or QuadratureSpec(max(m.needed.n_alpha for m in members))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnderResolvedWarning)
            values = synthesize_impulse(scenes, component, lags, used)
        if not np.all(np.isfinite(values)):
            raise RuntimeError("channel matrix contains non-finite entries")
        for i, member, at in zip(batch, members, positions):
            tx, rx = layouts[i]
            under_resolved = _nodes_used(used.n_alpha) < member.needed.n_alpha
            if under_resolved:
                unmet = max(unmet, member.needed.n_alpha)
            matrices[i] = [
                ChannelMatrix(
                    entries=row[at].reshape(rx.count, tx.count), tx=tx, rx=rx,
                    component=component, scene=scene, spec=used,
                    under_resolved=under_resolved, distinct_evaluations=len(member.rows),
                )
                for scene, row in zip(scenes, values)
            ]
    if unmet:
        warnings.warn(
            f"matrix assembled with node counts below the oscillation budget "
            f"(requested n_alpha={spec.n_alpha}, needed {unmet})",
            UnderResolvedWarning,
            stacklevel=3,
        )
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
    if not (0.0 < wavelength < math.inf and 0.0 < distance < math.inf) or count < 1:
        msg = (
            f"need finite positive wavelength/distance and count >= 1, got "
            f"({wavelength!r}, {distance!r}, {count})"
        )
        raise ValueError(msg)
    return math.sqrt(wavelength * distance / count)


def spacing_snr(wavelength: float, distance: float, count: int, snr: float) -> float:
    """Spacing matched to the capacity-optimal stream count at this SNR."""
    rho = optimal_stream_count(count, snr)
    return math.sqrt(rho / count) * spacing_rayleigh(wavelength, distance, count)
