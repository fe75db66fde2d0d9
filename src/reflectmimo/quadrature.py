"""Spatial synthesis of the impulse response from its wavenumber spectrum.

The transverse plane integral is taken in polar form over the propagating
disk: kx = kappa1 sin(a) cos(b), ky = kappa1 sin(a) sin(b).  The polar
Jacobian cancels the 1/kappa_1z edge singularity, leaving a smooth but
highly oscillatory integrand handled by a composite Gauss-Legendre rule in
the polar angle.  The surface coefficients depend only on the polar angle,
so the azimuthal integral reduces exactly to a Bessel J0 factor.

A sharp cutoff at the disk rim would leave a spurious, slowly decaying
contribution of relative size O(1): the branch-point neighbourhood just
outside the disk cancels it.  The synthesis therefore completes the rule
with a small integral along the branch cut kappa_1z = i*gamma, where every
term decays like e^{-gamma Z}.  The completion is on by default and can be
disabled to inspect the raw disk-limited value.

The surface material enters only through the Fresnel coefficient inside the
spectral coefficients: scenes that differ only in their material share the
nodes, the transverse wavenumbers and the Bessel factors, so they are
synthesized together, one coefficient column per scene.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import j0, roots_legendre

from . import spectrum
from .materials import FREE_SPACE_IMPEDANCE
from .spectrum import FieldComponent, SceneConfig

OVERSAMPLING = 6
"""Quadrature nodes per oscillation period of the polar-angle integrand."""

_PANEL = 64  # nodes per Gauss-Legendre panel; spectral for ~10 periods/panel
_TAIL_CUTOFF = 36.0  # e^{-36} ~ 2e-16: truncation point of the decaying tail
_BESSEL_BLOCK_SCALARS = 1 << 17  # Bessel factors per (node block x lags) matrix
_CACHED_PANELS = 128  # longest rule, in panels, kept for reuse across calls


class UnderResolvedWarning(UserWarning):
    """Node count below the oscillation budget: result may be inaccurate."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Requested node count for the polar-angle rule."""

    n_alpha: int

    def __post_init__(self) -> None:
        if self.n_alpha < 2:
            msg = f"n_alpha must be >= 2, got {self.n_alpha}"
            raise ValueError(msg)


@dataclass(frozen=True)
class SpatialLag:
    """Receiver-minus-source sample coordinates for one impulse evaluation.

    Plane overrides default to the scene's planes when left as ``None``.
    """

    x: float
    y: float = 0.0
    receiver_z: float | None = None
    source_z: float | None = None

    @property
    def transverse(self) -> float:
        return math.hypot(self.x, self.y)


@dataclass(frozen=True)
class ConvergenceRow:
    """One doubling step of a convergence study."""

    n_alpha: int
    value: complex
    delta: float | None


@dataclass(frozen=True)
class ConvergenceStudy:
    """Doubling trace of the synthesis value; ``converged`` reflects the
    requested relative tolerance, not a hard failure."""

    rows: list[ConvergenceRow]
    converged: bool

    @property
    def value(self) -> complex:
        return self.rows[-1].value


@lru_cache(maxsize=None)
def _base_panel() -> tuple[np.ndarray, np.ndarray]:
    x, w = roots_legendre(_PANEL)
    return x, w


def _panel_blocks(panels: int, hi: float,
                  step: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Composite Gauss-Legendre nodes/weights with ``panels`` equal panels
    on [0, hi], ``step`` panels at a time."""
    x, w = _base_panel()
    edges = np.linspace(0.0, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    for start in range(0, panels, step):
        h = half[start:start + step, None]
        yield (mid[start:start + step, None] + h * x).ravel(), (h * w).ravel()


@lru_cache(maxsize=2 * _CACHED_PANELS)
def _short_rule(panels: int, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """A whole rule of at most ``_CACHED_PANELS`` panels.  With the two
    intervals in use the cache holds every such rule, each at most
    128 KiB of nodes and weights."""
    return next(_panel_blocks(panels, hi, panels))


def _composite_blocks(n_nodes: int, hi: float,
                      block_nodes: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Composite Gauss-Legendre nodes/weights on [0, hi] with the panels
    ``n_nodes`` asks for, in blocks of whole panels holding at most
    ``block_nodes`` nodes (at least one panel).  Short one-block rules,
    the branch-cut rule above all, recur across calls and are cached;
    longer ones are built block by block and never held."""
    panels = _panels_for(n_nodes)
    step = max(1, block_nodes // _PANEL)
    if panels <= min(step, _CACHED_PANELS):
        return iter((_short_rule(panels, hi),))
    return _panel_blocks(panels, hi, step)


def _panels_for(n_nodes: int) -> int:
    return max(1, -(-n_nodes // _PANEL))


def _nodes_used(n_nodes: int) -> int:
    """Nodes a composite rule asked for ``n_nodes`` actually evaluates:
    the request rounded up to whole panels."""
    return _panels_for(n_nodes) * _PANEL


def estimate_nodes(scene: SceneConfig, max_lag: float, dz_total: float) -> QuadratureSpec:
    """Polar-angle node count sized to the integrand's oscillation budget.

    The polar-angle phase sweeps about kappa1 (dz_total + max_lag) radians,
    oversampled at ``OVERSAMPLING`` nodes per period.
    """
    if max_lag < 0.0:
        msg = f"max_lag must be >= 0, got {max_lag!r}"
        raise ValueError(msg)
    if dz_total < 0.0:
        msg = f"dz_total must be >= 0, got {dz_total!r}"
        raise ValueError(msg)
    kappa1 = scene.medium.kappa1
    budget_alpha = OVERSAMPLING * kappa1 * (dz_total + max_lag) / (2.0 * math.pi)
    n_alpha = max(2, int(math.ceil(budget_alpha - 1e-9)))
    return QuadratureSpec(n_alpha=n_alpha)


def _planes_of(scene: SceneConfig, lag: SpatialLag) -> tuple[float, float]:
    """The lag's (receiver_z, source_z), defaulting to the scene's planes."""
    return (scene.receiver_z if lag.receiver_z is None else lag.receiver_z,
            scene.source_z if lag.source_z is None else lag.source_z)


def _plane_groups(scene: SceneConfig,
                  lags: list[SpatialLag]) -> dict[tuple[float, float], list[int]]:
    """Positions of the lags on each pair of planes, in order of first
    appearance."""
    groups: dict[tuple[float, float], list[int]] = {}
    for i, lag in enumerate(lags):
        groups.setdefault(_planes_of(scene, lag), []).append(i)
    return groups


def _on_planes(scene: SceneConfig, planes: tuple[float, float]) -> SceneConfig:
    if planes == (scene.receiver_z, scene.source_z):
        return scene
    return dataclasses.replace(scene, receiver_z=planes[0], source_z=planes[1])


def _plane_budget(scene: SceneConfig, component: FieldComponent,
                  max_lag: float) -> QuadratureSpec:
    """Oscillation budget on the scene's own planes, after validating them."""
    spectrum.validate_component(scene, component)
    return estimate_nodes(scene, max_lag, spectrum.oscillation_span(scene, component))


def _required_nodes(scene: SceneConfig, component: FieldComponent,
                    lags: list[SpatialLag]) -> QuadratureSpec:
    """Node count resolving every lag: the largest oscillation budget over
    their pairs of planes."""
    budgets = [
        _plane_budget(_on_planes(scene, planes), component,
                      max(lags[i].transverse for i in indices))
        for planes, indices in _plane_groups(scene, lags).items()
    ]
    return QuadratureSpec(n_alpha=max(b.n_alpha for b in budgets))


def _material_batch(scene: SceneConfig | Sequence[SceneConfig]) -> list[SceneConfig]:
    """The scenes of one synthesis: a single scene, or several that differ
    only in the surface material and so share every node and lag."""
    if isinstance(scene, SceneConfig):
        return [scene]
    scenes = list(scene)
    if not scenes:
        raise ValueError("need at least one scene")
    first = scenes[0]
    for other in scenes[1:]:
        medium = dataclasses.replace(other.medium, material=first.medium.material)
        if dataclasses.replace(other, medium=medium) != first:
            msg = (
                f"scenes of one synthesis may differ only in their material: "
                f"{other!r} differs from {first!r}"
            )
            raise ValueError(msg)
    return scenes


def _disk_rule(scenes: list[SceneConfig], component: FieldComponent, n_alpha: int,
               block_nodes: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Transverse wavenumbers and (node x scene) coefficients of the
    propagating-disk rule, block by block.

    Coefficients carry the 1/(2 pi) of the Bessel reduction, here and in
    :func:`_tail_rule`, so a lag costs a single dot product."""
    for alpha, w_alpha in _composite_blocks(n_alpha, 0.5 * math.pi, block_nodes):
        yield _disk_terms(scenes, component, alpha, w_alpha)


def _disk_terms(scenes: list[SceneConfig], component: FieldComponent,
                alpha: np.ndarray, w_alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One block of :func:`_disk_rule`, at polar angles ``alpha``."""
    kappa1 = scenes[0].medium.kappa1
    scale = kappa1 * FREE_SPACE_IMPEDANCE / (4.0 * math.pi)
    sin_a = np.sin(alpha)
    k1z = kappa1 * np.cos(alpha)
    coeffs = np.stack([spectrum.propagating_factor(scene, component, k1z)
                       for scene in scenes], axis=1)
    coeffs *= (w_alpha * scale * kappa1 * sin_a)[:, None]
    return kappa1 * sin_a, coeffs


def _tail_rule(scenes: list[SceneConfig], component: FieldComponent, max_lag: float,
               block_nodes: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Transverse wavenumbers and (node x scene) coefficients of the
    branch-cut rule, resolved for transverse lags up to ``max_lag``, block
    by block."""
    kappa1 = scenes[0].medium.kappa1
    z_decay = spectrum.decay_distance(scenes[0], component)
    gamma_max = _TAIL_CUTOFF / z_decay
    krho_max = math.hypot(kappa1, gamma_max)
    # The integrand decays like e^{-gamma z_decay} and oscillates through the
    # Bessel factor; budget nodes for both.
    periods = max_lag * (krho_max - kappa1) / (2.0 * math.pi)
    n_tail = 48 + int(math.ceil(8.0 * periods))
    for u, w_u in _composite_blocks(n_tail, _TAIL_CUTOFF, block_nodes):
        yield _tail_terms(scenes, component, z_decay, u, w_u)


def _tail_terms(scenes: list[SceneConfig], component: FieldComponent, z_decay: float,
                u: np.ndarray, w_u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One block of :func:`_tail_rule`, at scaled decay rates ``u``."""
    kappa1 = scenes[0].medium.kappa1
    scale = kappa1 * FREE_SPACE_IMPEDANCE / (4.0 * math.pi)
    gamma = u / z_decay
    coeffs = np.stack([spectrum.evanescent_factor(scene, component, gamma)
                       for scene in scenes], axis=1)
    coeffs *= ((w_u / z_decay) * scale * (-1j))[:, None]
    return np.hypot(kappa1, gamma), coeffs


def _bessel_sum(blocks: Iterable[tuple[np.ndarray, np.ndarray]],
                rho: np.ndarray) -> np.ndarray:
    """sum_i coeff_ik J0(krho_i rho_j) for every lag j and scene k, as a
    (lag x scene) array: each node block's Bessel matrix is evaluated once
    for all scenes.  The Bessel matrix is real, so it multiplies the real
    and imaginary parts of the coefficients as one real matrix product."""
    return sum((j0(rho[:, None] * krho) @ coeffs.view(float)).view(complex)
               for krho, coeffs in blocks)


def _synthesize_on_planes(scenes: list[SceneConfig], component: FieldComponent,
                          lags: list[SpatialLag], spec: QuadratureSpec,
                          include_evanescent_tail: bool) -> np.ndarray:
    """Every lag of every scene on the scenes' shared planes, as a
    (scene x lag) array; the branch-cut rule is sized for the largest lag.
    Node blocks hold at most ``_BESSEL_BLOCK_SCALARS`` Bessel factors (but
    at least one panel), so no full-length per-scene coefficient vector is
    ever built."""
    rho = np.array([lag.transverse for lag in lags])
    max_rho = float(rho.max())
    needed = max(_plane_budget(scene, component, max_rho).n_alpha for scene in scenes)
    used = _nodes_used(spec.n_alpha)
    if used < needed:
        warnings.warn(
            f"node count n_alpha={used} below the oscillation budget "
            f"n_alpha={needed}",
            UnderResolvedWarning,
            stacklevel=3,
        )
    block_nodes = max(_PANEL, _BESSEL_BLOCK_SCALARS // rho.size)
    value = _bessel_sum(_disk_rule(scenes, component, spec.n_alpha, block_nodes), rho)
    if include_evanescent_tail:
        value += _bessel_sum(_tail_rule(scenes, component, max_rho, block_nodes), rho)
    return value.T


def synthesize_impulse(scene: SceneConfig | Sequence[SceneConfig], component: FieldComponent,
                       lag: SpatialLag | Sequence[SpatialLag], spec: QuadratureSpec,
                       *, include_evanescent_tail: bool = True) -> complex | np.ndarray:
    """Spatial impulse response at one or many receiver/source sample pairs.

    Parameters
    ----------
    scene:
        Geometry: one :class:`SceneConfig`, or a sequence of scenes that
        differ only in ``medium.material`` (anything else raises
        ``ValueError``).  A sequence adds a leading scene axis to the
        result.  The material enters only through the spectral
        coefficients, so every scene shares one Bessel matrix per block of
        nodes.
    component:
        Which additive field term to synthesize.
    lag:
        Transverse receiver-minus-source offsets, with optional plane
        overrides: one :class:`SpatialLag` or a sequence of them (a lag
        axis, in the same order).  One scene and one lag return a complex.
        Lags on the same pair of planes share one set of nodes and
        coefficients; the branch-cut rule is sized for the largest
        transverse lag of the pair.
    spec:
        Node count for the disk rule; counts below the oscillation budget
        of any scene trigger :class:`UnderResolvedWarning` but still
        evaluate.
    include_evanescent_tail:
        When True (default) the branch-cut completion is added so the
        synthesis converges to the physical field; when False the raw
        disk-limited integral is returned.
    """
    scenes = _material_batch(scene)
    lags = [lag] if isinstance(lag, SpatialLag) else list(lag)
    values = np.empty((len(scenes), len(lags)), dtype=complex)
    for planes, indices in _plane_groups(scenes[0], lags).items():
        values[:, indices] = _synthesize_on_planes(
            [_on_planes(s, planes) for s in scenes], component,
            [lags[i] for i in indices], spec, include_evanescent_tail,
        )
    if isinstance(lag, SpatialLag):
        values = values[:, 0]
    if isinstance(scene, SceneConfig):
        values = values[0]
    return complex(values) if values.ndim == 0 else values


def convergence_study(scene: SceneConfig, component: FieldComponent,
                      lag: SpatialLag, *, rel_tol: float = 1e-8,
                      max_nodes: int = 1_500_000,
                      include_evanescent_tail: bool = True) -> ConvergenceStudy:
    """Double the disk-rule nodes until the value settles.

    Starts a factor of four below the oscillation budget so the trace shows
    the under-resolved regime, then the spectral collapse.  Stops once the
    successive relative change drops below ``rel_tol`` or the next doubling
    would exceed ``max_nodes`` (flagged via ``converged=False``).  The
    starting count is always evaluated, so the trace has at least one row
    even under a tiny ``max_nodes`` cap.
    """
    budget = _required_nodes(scene, component, [lag])
    n_alpha = _nodes_used(max(2, budget.n_alpha // 4))
    rows: list[ConvergenceRow] = []
    previous: complex | None = None
    converged = False
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderResolvedWarning)
        while True:
            value = synthesize_impulse(
                scene, component, lag, QuadratureSpec(n_alpha=n_alpha),
                include_evanescent_tail=include_evanescent_tail,
            )
            delta = None
            if previous is not None:
                scale = max(abs(value), 1e-300)
                delta = abs(value - previous) / scale
            rows.append(ConvergenceRow(n_alpha, value, delta))
            if delta is not None and delta < rel_tol:
                converged = True
                break
            previous = value
            n_alpha *= 2
            if n_alpha > max_nodes:
                break
    return ConvergenceStudy(rows=rows, converged=converged)
