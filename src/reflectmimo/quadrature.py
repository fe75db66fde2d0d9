"""Spatial synthesis of the impulse response from its wavenumber spectrum.

The transverse plane integral is taken in polar form: kx = kappa1 sin(a)
cos(b), ky = kappa1 sin(a) sin(b).  The polar Jacobian cancels the
1/kappa_1z edge singularity, leaving a smooth but oscillatory integrand
handled by a composite Gauss-Legendre rule in the polar angle.  The surface
coefficients depend only on the polar angle, so the azimuthal integral
reduces exactly to a Bessel J0 factor.

The polar angle runs along a Sommerfeld path in the complex a-plane.  The
straight path is the real segment [0, pi/2] (the propagating disk), whose
integrand oscillates through about kappa1 (span + lag) radians, completed
by the branch cut a = pi/2 - i*b, where kappa_1z = i*gamma and every term
decays like e^{-gamma z}.  A sharp cutoff at the disk rim would leave a
spurious, slowly decaying contribution of relative size O(1): the
branch-point neighbourhood just outside the disk cancels it.

Where the real segment is electrically long, the path leaves the real axis
instead at a panel edge a0 just past the specular angle atan(lag / z) and
descends along a = a0 - i*b; the branch cut is the same leg at a0 = pi/2.
There the spectral factor decays like e^{-z Im kappa_1z} faster than J0
grows with Im k_rho, so the leg is short and smooth.  The integrand is
analytic between the two paths, so both give the same value.  The bent
one samples [0, a0] at that segment's own largest phase rate, kappa1 (span
sin a0 + lag), rather than the disk's kappa1 (span + lag), and adds a
panel or a few on the leg, nearly independent of electrical size.  With
so few nodes each term's phase k1z L is formed as kappa1 L, carried
exactly once per term, minus delta L with delta = kappa1 - k1z taken from
the polar angle, so the nodes do not inherit the round-off of the large
phase.  The bend is taken only when the real nodes it saves outweigh the
leg's complex Bessel evaluations; the bend depends on the planes, the part
and the node count.  A part is one exponential in k_z with one path length
(direct wave, specular image or transmitted wave); a compound component is
the sum of its parts, each on its own path.

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
from scipy.special import j0, jv, roots_legendre

from . import spectrum
from .materials import FREE_SPACE_IMPEDANCE
from .spectrum import FieldComponent, SceneConfig

OVERSAMPLING = 6
"""Quadrature nodes per oscillation period of the polar-angle integrand."""

_PANEL = 64  # nodes per Gauss-Legendre panel; spectral for ~10 periods/panel
_TAIL_CUTOFF = 36.0  # e^{-36} ~ 2e-16: truncation point of the decaying tail
_BESSEL_BLOCK_SCALARS = 1 << 17  # Bessel factors per (node block x lags) matrix
_CACHED_PANELS = 128  # longest rule, in panels, kept for reuse across calls
_LEG_PHASE = 52.0  # kappa1 R sin^2(a0 - specular angle): a leg of about one panel
_JV_COST = 15  # one complex-argument jv(0, .) costs about 15 real j0 evaluations
_LEG_GROWTH = 600.0  # largest |Im(k_rho rho)| on the leg; complex jv overflows near 700
_PANEL_DECAY = 12.0  # a panel on [0, 36] resolves e^{-rate u} up to about this rate


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


def _panel_blocks(panels: int, hi: float, step: int,
                  first: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Composite Gauss-Legendre nodes/weights on the first ``first`` of
    ``panels`` equal panels on [0, hi], ``step`` panels at a time."""
    x, w = _base_panel()
    edges = np.linspace(0.0, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    for start in range(0, first, step):
        stop = min(start + step, first)
        h = half[start:stop, None]
        yield (mid[start:stop, None] + h * x).ravel(), (h * w).ravel()


@lru_cache(maxsize=2 * _CACHED_PANELS)
def _short_rule(panels: int, hi: float, first: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``first`` <= ``_CACHED_PANELS`` panels of a rule, each
    entry at most 128 KiB of nodes and weights."""
    return next(_panel_blocks(panels, hi, first, first))


def _composite_blocks(n_nodes: int, hi: float, block_nodes: int,
                      first: int | None = None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Composite Gauss-Legendre nodes/weights on [0, hi] with the panels
    ``n_nodes`` asks for, or on the first ``first`` of them, in blocks of
    whole panels holding at most ``block_nodes`` nodes (at least one
    panel).  Short one-block rules recur across calls and are cached;
    longer ones are built block by block and never held."""
    panels = _panels_for(n_nodes)
    first = panels if first is None else first
    step = max(1, block_nodes // _PANEL)
    if first <= min(step, _CACHED_PANELS):
        return iter((_short_rule(panels, hi, first),))
    return _panel_blocks(panels, hi, step, first)


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


@dataclass(frozen=True)
class _Path:
    """A synthesis path: ``panels`` Gauss-Legendre panels on the real
    segment [0, angle], then the leg a = angle - i*b.  At ``angle`` = pi/2
    it is the straight path: the whole disk rule, then the branch cut."""

    panels: int
    angle: float
    depth: float  # z sin(a0) - rho_b cos(a0): decay scale of the leg
    leg_nodes: int

    @property
    def straight(self) -> bool:
        return self.angle == 0.5 * math.pi


def _cos_sin(angle: float) -> tuple[float, float]:
    """cos and sin of a polar angle, exact at pi/2."""
    return (0.0, 1.0) if angle == 0.5 * math.pi else (math.cos(angle), math.sin(angle))


def _leg_path(panels: int, angle: float, z_decay: float, span: float, rho_b: float,
              kappa1: float) -> _Path:
    """The path leaving the real axis at ``angle``, its leg sized for lags
    up to ``rho_b``.  The leg decays like e^{-u}, u = kappa1 depth sinh(b),
    and oscillates through the phases kappa1 (span cos a0 + rho_b sin a0)
    (cosh b - 1); J0's decaying half falls off faster, like e^{-rate u}."""
    cos_a, sin_a = _cos_sin(angle)
    depth = z_decay * sin_a - rho_b * cos_a
    sinh_max = _TAIL_CUTOFF / (kappa1 * depth)
    cosh_less_one = sinh_max * sinh_max / (1.0 + math.sqrt(1.0 + sinh_max * sinh_max))
    swing = kappa1 * cosh_less_one * (span * cos_a + rho_b * sin_a)
    rate = (z_decay * sin_a + rho_b * cos_a) / depth
    leg_nodes = max(48 + math.ceil(8.0 * swing / (2.0 * math.pi)),
                    math.ceil(_PANEL * rate / _PANEL_DECAY))
    return _Path(panels, angle, depth, leg_nodes)


def _path(scenes: list[SceneConfig], component: FieldComponent, spec: QuadratureSpec,
          max_rho: float, *, bend: bool = True) -> _Path:
    """The synthesis path of the single-term part ``component`` at its own
    node count ``spec`` (see :func:`_part_specs`) for lags up to
    ``max_rho``: the part's one decay distance and one span size it.

    The leg is sized for rho_b, the larger of the largest lag and the
    largest lag ``spec`` resolves, so resolved calls take the same path
    whichever lags share them.  The bend lies delta = asin(sqrt(52 /
    (kappa1 R))) past the specular angle atan(rho_b / z), R = hypot(z,
    rho_b), rounded up to an edge of the disk rule's panels: there the
    leg's phase swing, about 648 / 52 radians, fits one panel.  It lies
    far enough past the specular angle that J0 grows by at most e^600 on
    the leg, below the overflow of its complex evaluation.

    The real segment [0, a0] gets its own panels, sized like the disk rule
    but for the segment's largest phase rate, kappa1 (span sin a0 +
    rho_b), in place of the disk's kappa1 (span + rho_b): ``spec.n_alpha``
    a0 (span sin a0 + rho_b) / (span + rho_b) nodes, rounded up to whole
    panels, so ``spec`` still scales every count.  Where rho_b is
    comparable to the span, that count exceeds the disk rule's own panels
    on [0, a0], which are taken instead.  The bend is taken only
    when the real nodes it saves outweigh the leg's complex Bessel
    evaluations; ``bend=False`` forces the straight path."""
    kappa1 = scenes[0].medium.kappa1
    z_decay = spectrum.decay_distance(scenes[0], component)
    span = max(spectrum.oscillation_span(scene, component) for scene in scenes)
    rho_b = max(max_rho, 2.0 * math.pi * spec.n_alpha / (OVERSAMPLING * kappa1) - span)
    panels = _panels_for(spec.n_alpha)
    straight = _leg_path(panels, 0.5 * math.pi, z_decay, span, rho_b, kappa1)
    sin_sq = _LEG_PHASE / (kappa1 * math.hypot(z_decay, rho_b))
    if not bend or sin_sq >= 1.0:
        return straight
    a0 = max(math.atan2(rho_b, z_decay) + math.asin(math.sqrt(sin_sq)),
             math.atan2(rho_b * (1.0 + _TAIL_CUTOFF / _LEG_GROWTH), z_decay))
    first = math.ceil(a0 / (0.5 * math.pi) * panels)
    if first >= panels:
        return straight
    angle = first * (0.5 * math.pi / panels)  # on the disk rule's grid, so short rules recur
    share = (span * math.sin(angle) + rho_b) / (span + rho_b)
    segment = min(first, _panels_for(math.ceil(spec.n_alpha * angle * share)))
    bent = _leg_path(segment, angle, z_decay, span, rho_b, kappa1)
    bent_cost = bent.panels * _PANEL + _JV_COST * _nodes_used(bent.leg_nodes)
    return bent if bent_cost < panels * _PANEL + _nodes_used(straight.leg_nodes) else straight


def _terms(scenes: list[SceneConfig], component: FieldComponent, k1z: np.ndarray,
           krho: np.ndarray, weight: np.ndarray,
           angle: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Transverse wavenumbers and (node x scene) coefficients of one block
    of nodes at longitudinal wavenumbers ``k1z``, with the polar angles
    ``angle`` where each term's phase is to be carried exactly (see
    :func:`spectrum.propagating_factor`).  ``weight`` holds the quadrature
    weight, the path's Jacobian and the 1/(2 pi) of the Bessel reduction,
    so a lag costs a single dot product."""
    coeffs = np.stack([spectrum.propagating_factor(scene, component, k1z, angle)
                       for scene in scenes], axis=1)
    coeffs *= weight[:, None]
    return krho, coeffs


def _disk_rule(scenes: list[SceneConfig], component: FieldComponent, path: _Path,
               block_nodes: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The real segment [0, a0] of the path, block by block: the whole
    disk rule on the straight path, the segment's own panels on a bent
    one, where each term's phase is carried exactly."""
    kappa1 = scenes[0].medium.kappa1
    scale = kappa1 * FREE_SPACE_IMPEDANCE / (4.0 * math.pi)
    for alpha, w_alpha in _composite_blocks(path.panels * _PANEL, path.angle, block_nodes):
        sin_a = np.sin(alpha)
        yield _terms(scenes, component, kappa1 * np.cos(alpha), kappa1 * sin_a,
                     w_alpha * scale * kappa1 * sin_a, None if path.straight else alpha)


def _leg_rule(scenes: list[SceneConfig], component: FieldComponent, path: _Path,
              block_nodes: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The leg a = a0 - i*b, in the decay variable u = kappa1 depth
    sinh(b) on [0, 36], block by block.  On the straight path it is the
    branch cut, where k1z = i*gamma and k_rho stays real; below pi/2 both
    are complex and each term's phase is carried exactly."""
    kappa1 = scenes[0].medium.kappa1
    scale = kappa1 * FREE_SPACE_IMPEDANCE / (4.0 * math.pi)
    cos_a, sin_a = _cos_sin(path.angle)
    for u, w_u in _composite_blocks(path.leg_nodes, _TAIL_CUTOFF, block_nodes):
        sinh_b = u / (kappa1 * path.depth)
        cosh_b = np.sqrt(1.0 + sinh_b * sinh_b)
        k1z = kappa1 * (cos_a * cosh_b + 1j * sin_a * sinh_b)
        krho = kappa1 * sin_a * cosh_b
        angle = None
        if not path.straight:
            krho = krho - 1j * kappa1 * cos_a * sinh_b
            angle = path.angle - 1j * np.arcsinh(sinh_b)
        # kappa1 sin(a) da with da = -i db = -i du / (kappa1 depth cosh b)
        weight = (w_u / (kappa1 * path.depth * cosh_b)) * scale * (-1j) * krho
        yield _terms(scenes, component, k1z, krho, weight, angle)


def _part_specs(scenes: list[SceneConfig], component: FieldComponent,
                spec: QuadratureSpec) -> list[tuple[FieldComponent, QuadratureSpec]]:
    """Each single-term part of ``component`` with its node count: ``spec``
    less the nodes of the span the part lacks, OVERSAMPLING kappa1 (span -
    part span) / (2 pi) rounded down, so the part resolves the same lag as
    the component.  A single-term component keeps ``spec``."""
    parts = spectrum._PARTS[component]
    if parts == (component,):
        return [(component, spec)]
    scale = OVERSAMPLING * scenes[0].medium.kappa1 / (2.0 * math.pi)
    spans = {c: max(spectrum.oscillation_span(scene, c) for scene in scenes)
             for c in (component, *parts)}
    return [(part, QuadratureSpec(max(2, spec.n_alpha - math.floor(
                scale * (spans[component] - spans[part]))))) for part in parts]


def _path_rules(scenes: list[SceneConfig], component: FieldComponent, spec: QuadratureSpec,
                max_rho: float, block_nodes: int, *,
                bend: bool = True) -> list[Iterator[tuple[np.ndarray, np.ndarray]]]:
    """The rules along the synthesis paths of :func:`_path` for lags up to
    ``max_rho``, one path per part of the component: its real segment,
    then its leg."""
    rules = []
    for part, part_spec in _part_specs(scenes, component, spec):
        path = _path(scenes, part, part_spec, max_rho, bend=bend)
        rules += [_disk_rule(scenes, part, path, block_nodes),
                  _leg_rule(scenes, part, path, block_nodes)]
    return rules


def _bessel_sum(blocks: Iterable[tuple[np.ndarray, np.ndarray]],
                rho: np.ndarray) -> np.ndarray:
    """sum_i coeff_ik J0(krho_i rho_j) for every lag j and scene k, as a
    (lag x scene) array: each node block's Bessel matrix is evaluated once
    for all scenes.  A real Bessel matrix multiplies the real and imaginary
    parts of the coefficients as one real matrix product; the bent leg's
    complex wavenumbers go through ``jv``."""
    return sum((jv(0, rho[:, None] * krho) @ coeffs) if np.iscomplexobj(krho)
               else (j0(rho[:, None] * krho) @ coeffs.view(float)).view(complex)
               for krho, coeffs in blocks)


def _synthesize_on_planes(scenes: list[SceneConfig], component: FieldComponent,
                          lags: list[SpatialLag], spec: QuadratureSpec, *,
                          bend: bool = True) -> np.ndarray:
    """Every lag of every scene on the scenes' shared planes, as a
    (scene x lag) array: the sum over the paths of :func:`_path_rules`,
    one per part of the component.  Node blocks hold at most
    ``_BESSEL_BLOCK_SCALARS`` Bessel factors (but at least one panel), so
    no full-length per-scene coefficient vector is ever built.
    ``bend=False`` forces the straight paths."""
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
    rules = _path_rules(scenes, component, spec, max_rho, block_nodes, bend=bend)
    return sum(_bessel_sum(rule, rho) for rule in rules).T


def synthesize_impulse(scene: SceneConfig | Sequence[SceneConfig], component: FieldComponent,
                       lag: SpatialLag | Sequence[SpatialLag],
                       spec: QuadratureSpec) -> complex | np.ndarray:
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
        Lags on the same pair of planes share one synthesis path per part
        of the component, its nodes and its coefficient vector.  Where the
        polar-angle segment is electrically long, the path leaves the real
        axis a little past the specular angle of the largest lag the node
        count resolves (or of the largest lag of the pair, if larger) and
        descends on a short leg of complex angles; otherwise it runs the
        whole disk and the branch cut, sized for the largest lag.
    spec:
        Node count of the disk rule over [0, pi/2]: it fixes the node
        spacing on the straight path.  On the real segment [0, a0] of a
        bent path the spacing is scaled to that segment's phase rate (see
        :func:`_path`), so the count still scales every node of the call.
        Counts below the oscillation budget of any scene trigger
        :class:`UnderResolvedWarning` but still evaluate.
    """
    scenes = _material_batch(scene)
    lags = [lag] if isinstance(lag, SpatialLag) else list(lag)
    values = np.empty((len(scenes), len(lags)), dtype=complex)
    for planes, indices in _plane_groups(scenes[0], lags).items():
        values[:, indices] = _synthesize_on_planes(
            [_on_planes(s, planes) for s in scenes], component,
            [lags[i] for i in indices], spec,
        )
    if isinstance(lag, SpatialLag):
        values = values[:, 0]
    if isinstance(scene, SceneConfig):
        values = values[0]
    return complex(values) if values.ndim == 0 else values


def convergence_study(scene: SceneConfig, component: FieldComponent,
                      lag: SpatialLag, *, rel_tol: float = 1e-8,
                      max_nodes: int = 1_500_000) -> ConvergenceStudy:
    """Double the disk-rule nodes until the value settles.

    Starts a factor of four below the oscillation budget so the trace shows
    the under-resolved regime, then the spectral collapse; a bent path can
    be resolved already at the start.  Each doubling also raises the
    largest lag the count resolves, which moves the bend toward pi/2 and
    eventually straightens the path.  Stops once the
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
            value = synthesize_impulse(scene, component, lag, QuadratureSpec(n_alpha=n_alpha))
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
