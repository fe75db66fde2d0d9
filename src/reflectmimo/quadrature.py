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
phase.  A part is one exponential in k_z with one path length (direct
wave, specular image or transmitted wave); a compound component is the sum
of its parts, each on its own path.

The bend cannot leave the real axis before the specular angle, so a lag
comparable to the span still costs a real segment that grows with
electrical size.  Where the part's coefficient is analytic in the polar
angle along it (the direct wave, and the image), a single-lag call can
instead take the lag's own path: J0 over a short real start [0, a_c],
then J0 = (H0^(1) + H0^(2)) / 2, the H0^(2) half descending from a_c and
the H0^(1) half crossing the specular saddle on its steepest-descent path,
where the term is e^{i kappa1 R} e^{-kappa1 R s^2}, R = hypot(L, lag), times
a slowly varying factor.  A few panels then serve any electrical size, and
kappa1 R is carried exactly with R in double-double.  A dielectric's image
qualifies once its far-side branch points lie past the tail cutoff, so
what lies beyond them is below e^{-36}.

One chooser, :func:`_path`, picks each part's path by its cost in real J0
evaluations.  The shared path, straight or bent, is fixed by the part's
oscillation budget, and counts past the budget only refine it.  A single
positive lag in a call at or past its budget takes its own path where
that is cheaper at the count evaluated, for every scene of a material
batch or for none.  Several lags on one pair of planes are sorted and cut
into runs, each on the shared paths of its largest lag, where the real J0
evaluations saved outweigh a run's fixed cost (:func:`_runs`).

On the bent leg J0 takes complex arguments x = rho k.  For a block of
several lags it is taken from Hankel's expansion J0(x) = sqrt(2 / (pi x))
(P cos chi - Q sin chi), chi = x - pi/4, wherever |x| >= 18, where 28 terms
of P and Q fall below 2^-53 of J0's envelope: x^-n = rho^-n k^-n, so P and
Q of the whole block are two real matrix products, and cos chi and sin chi
come from one complex exponential.  Nearer arguments come from the Taylor
series about the leg's real start k0: J0(rho k) = sum_m J0^(m)(rho k0)
(rho (k - k0))^m / m!, whose powers separate in lag and node the same way.
Its coefficients are a trapezoid sum of J0's integral representation, one
complex exponential per lag and quadrature node times a cached basis, so no
special function is taken per element.  A lag of 0 is exactly 1.  Blocks
of fewer than four lags (every single-lag call) and blocks of fewer than
96 near elements, whose matrices would cost more than they save, and rows
whose nodes spread too far along the real axis for the series, go element
by element through scipy's ``jv`` (AMOS).

The surface material enters only through the Fresnel coefficient inside the
spectral coefficients: scenes that differ only in their material share the
nodes, the transverse wavenumbers and the Bessel factors, so they are
synthesized together, one coefficient column per scene.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import operator
import warnings
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from scipy.special import hankel1, hankel1e, hankel2, j0, jv

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
# One complex-argument jv(0, .) or Hankel costs about 15 real j0.  In blocks of several lags
# the bent leg's matrix (_leg_j0) costs about half that per far element, and 2-3 real j0 per
# near element: 46-71 ns against jv's ~750 ns in fig5's blocks at N = 16 and 64 (one BLAS
# thread, 2-core Xeon).  The price stays at 15 on purpose, as re-pricing moves path choices
# and needs its own measurement.
_COMPLEX_BESSEL_COST = 15
_LEG_GROWTH = 600.0  # largest |Im(k_rho rho)| on the leg; complex jv overflows near 700
_PANEL_DECAY = 12.0  # a panel on [0, 36] resolves e^{-rate u} up to about this rate
_LEG_NODES = 48  # fewest nodes on a leg
_START_ARGUMENT = 4.0  # kappa1 rho sin(a_c): the Hankel halves start this far from their log point
_SADDLE_CLEARANCE = 10.0  # least kappa1 R sin^2(a_s): the saddle path stays clear of a = 0
_HANKEL_NEAR = 40.0  # hankel1e loses |x| 2^-53 up to ~10 below the real axis; take hankel1 to here
_HANKEL_FAR = 18.0  # |x| from which Hankel's expansion of J0 meets 2^-53 in _HANKEL_TERMS terms
_HANKEL_TERMS = 28
_HANKEL_LAGS = 4  # fewest lags whose Hankel Bessel matrix costs less than jv's (64-node leg)
_TAYLOR_SPREAD = 1.0  # largest rho (max Re k - min Re k) of a leg row summed by Taylor's series
# Fewest near elements whose Taylor matrix costs less than jv's: on a 64-node leg (one BLAS
# thread, 2-core Xeon) the series costs ~54 us a block plus ~1.5 us a row, jv ~0.57 us an element.
_TAYLOR_NEAR = 96
# Fixed cost of a run (_runs) in real J0: the intercept of its time against its lag count,
# over its time per lag per unit of its paths' cost.  For the fig3/fig5 spacings (57.5-300
# GHz, N = 16-64, one BLAS thread, 2-core Xeon) 2,500-6,300 for the direct channel and
# 11,700-18,800 for four materials; 6,000 and 20,000 made fig5 passes up to 6% slower.
_RUN_COST = 12_000
_Nodes = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]  # k_rho, k1z, weight, angle


class UnderResolvedWarning(UserWarning):
    """Node count below the oscillation budget: result may be inaccurate."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Requested node count for the polar-angle rule."""

    n_alpha: int

    def __post_init__(self) -> None:
        if problem := _count_problem("n_alpha", self.n_alpha, 2):
            raise ValueError(problem)
        if type(self.n_alpha) is not int:  # a numpy integer, kept as a Python int
            object.__setattr__(self, "n_alpha", operator.index(self.n_alpha))


def _count_problem(name: str, value: object, least: int) -> str | None:
    """Why ``value`` is no integer count of at least ``least``, or None:
    an int or a numpy integer (``operator.index``), but not a bool."""
    if type(value) is not int and (isinstance(value, bool)
                                   or not hasattr(type(value), "__index__")):
        return f"{name} must be an integer, got {value!r}"
    return f"{name} must be >= {least}, got {value}" if value < least else None


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
    return np.polynomial.legendre.leggauss(_PANEL)


@lru_cache(maxsize=2 * _CACHED_PANELS)
def _panel_rule(panels: int, hi: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = _base_panel()
    edges = np.linspace(0.0, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def _rule(n_nodes: int, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on [0, hi] with the panels
    ``n_nodes`` asks for.  Rules of up to ``_CACHED_PANELS`` panels, each
    at most 128 KiB of nodes and weights, recur across calls and are
    cached; longer ones are built afresh."""
    panels = _panels_for(n_nodes)
    if panels > _CACHED_PANELS:
        return _panel_rule.__wrapped__(panels, hi)
    return _panel_rule(panels, hi)


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
    return QuadratureSpec(n_alpha=_node_budget(scene.medium.kappa1, dz_total, max_lag))


def _node_budget(kappa1: float, dz_total: float, max_lag: float | np.ndarray) -> int | list[int]:
    """The node count of :func:`estimate_nodes` for a lag or, as a list,
    for each of an array of lags, from one array expression whose every
    element rounds as the scalar formula does."""
    lags = np.asarray(max_lag)
    bad = ~((lags >= 0.0) & (lags < math.inf))
    if bad.any():
        raise ValueError(f"max_lag must be finite and >= 0, got {lags[bad].tolist()[0]!r}")
    if not 0.0 <= dz_total < math.inf:
        raise ValueError(f"dz_total must be finite and >= 0, got {dz_total!r}")
    budget = np.maximum(2.0, np.ceil(OVERSAMPLING * kappa1 * (dz_total + lags) / (2.0 * math.pi)
                                     - 1e-9))
    return int(budget) if budget.ndim == 0 else [int(b) for b in budget.tolist()]


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


def _budgets(scenes: list[SceneConfig], component: FieldComponent,
             rho: np.ndarray) -> list[int]:
    """Each lag's oscillation budget on the scenes' shared planes, over
    every scene, after validating each scene once; the synthesis and the
    matrix assembly both budget a pair of planes here."""
    for scene in scenes:
        spectrum.validate_component(scene, component)
    span = max(spectrum.oscillation_span(scene, component) for scene in scenes)
    return _node_budget(scenes[0].medium.kappa1, span, rho)


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

    @property
    def cost(self) -> int:
        """Cost in real J0 evaluations per lag: the real nodes, and the
        leg's nodes at ``_COMPLEX_BESSEL_COST`` each off the branch cut."""
        leg_cost = 1 if self.straight else _COMPLEX_BESSEL_COST
        return self.panels * _PANEL + leg_cost * _nodes_used(self.leg_nodes)


def _cos_sin(angle: float) -> tuple[float, float]:
    """cos and sin of a polar angle, exact at pi/2."""
    return (0.0, 1.0) if angle == 0.5 * math.pi else (math.cos(angle), math.sin(angle))


def _leg_nodes(kappa1: float, depth: float, reach: float, rate: float = 1.0) -> int:
    """Nodes of a leg a = a0 -+ i*b in u = kappa1 depth sinh(b) on [0, 36]
    whose integrand decays like e^{-u} and oscillates through the phases
    kappa1 reach (cosh b - 1), with a part falling off faster, like
    e^{-rate u}."""
    sinh_max = _TAIL_CUTOFF / (kappa1 * depth)
    cosh_less_one = sinh_max * sinh_max / (1.0 + math.sqrt(1.0 + sinh_max * sinh_max))
    swing = kappa1 * cosh_less_one * reach
    return max(_LEG_NODES + math.ceil(8.0 * swing / (2.0 * math.pi)),
               math.ceil(_PANEL * rate / _PANEL_DECAY))


def _leg_path(panels: int, angle: float, z_decay: float, span: float, rho_b: float,
              kappa1: float) -> _Path:
    """The path leaving the real axis at ``angle``, its leg sized for lags
    up to ``rho_b``.  The leg decays like e^{-u}, u = kappa1 depth sinh(b),
    and oscillates through the phases kappa1 (span cos a0 + rho_b sin a0)
    (cosh b - 1); J0's decaying half falls off faster, like e^{-rate u}."""
    cos_a, sin_a = _cos_sin(angle)
    depth = z_decay * sin_a - rho_b * cos_a
    rate = (z_decay * sin_a + rho_b * cos_a) / depth
    leg_nodes = _leg_nodes(kappa1, depth, span * cos_a + rho_b * sin_a, rate)
    return _Path(panels, angle, depth, leg_nodes)


def _scale(kappa1: float) -> float:
    """The prefactor kappa1 eta1 / 2 times the 1/(2 pi) of J0's reduction."""
    return kappa1 * FREE_SPACE_IMPEDANCE / (4.0 * math.pi)


def _coefficients(scenes: list[SceneConfig], component: FieldComponent, k1z: np.ndarray,
                  weight: np.ndarray, angle: np.ndarray | None) -> np.ndarray:
    """(node x scene) coefficients of one block of nodes at longitudinal
    wavenumbers ``k1z``, with the polar angles ``angle`` where each term's
    phase is to be carried exactly (see :func:`spectrum.propagating_factor`).
    ``weight`` holds the quadrature weight, the path's Jacobian and the
    1/(2 pi) of the Bessel reduction, so a lag costs a single dot product."""
    coeffs = np.stack([spectrum.propagating_factor(scene, component, k1z, angle)
                       for scene in scenes], axis=1)
    coeffs *= weight[:, None]
    return coeffs


def _segment(kappa1: float, alpha: np.ndarray, w_alpha: np.ndarray) -> _Nodes:
    """The nodes at the real polar angles ``alpha`` with quadrature weights
    ``w_alpha``: (k_rho, k1z, weight, polar angle), the weight holding the
    Jacobian kappa1 sin(a) and the scale of :func:`_coefficients`."""
    sin_a = np.sin(alpha)
    return (kappa1 * sin_a, kappa1 * np.cos(alpha),
            w_alpha * _scale(kappa1) * kappa1 * sin_a, alpha)


def _leg(kappa1: float, angle: float, sign: float, depth: float, u: np.ndarray,
         w_u: np.ndarray) -> _Nodes:
    """The nodes of the leg a = angle + sign i b, ``sign`` = -1 or 1, at the
    decay variables u = kappa1 depth sinh(b) with quadrature weights
    ``w_u``, as :func:`_segment` returns them.  At ``angle`` = pi/2 the leg
    is the branch cut: k1z = i*gamma, k_rho stays real and the polar angle
    is None, as no phase needs carrying there."""
    cos_a, sin_a = _cos_sin(angle)
    sinh_b = u / (kappa1 * depth)
    cosh_b = np.sqrt(1.0 + sinh_b * sinh_b)
    k1z = kappa1 * (cos_a * cosh_b - sign * 1j * sin_a * sinh_b)
    krho = kappa1 * sin_a * cosh_b
    polar = None
    if angle != 0.5 * math.pi:
        krho = krho + sign * 1j * kappa1 * cos_a * sinh_b
        polar = angle + sign * 1j * np.arcsinh(sinh_b)
    # kappa1 sin(a) da with da = sign i db = sign i du / (kappa1 depth cosh b)
    weight = (w_u / (kappa1 * depth * cosh_b)) * _scale(kappa1) * (sign * 1j) * krho
    return krho, k1z, weight, polar


@dataclass(frozen=True)
class _LagPath:
    """The path of one lag rho > 0 of a part with an entire coefficient.
    Past the real start [0, a_c], J0 = (H0^(1) + H0^(2)) / 2: the H0^(2)
    half descends on a = a_c - i*b, and the H0^(1) half climbs a = a_c + i*b
    and returns across the specular saddle a_s on its steepest-descent path
    a = a_s + 2 asin(s e^{-i pi/4} / sqrt(2)), where the term is e^{i kappa1
    R} e^{-kappa1 R s^2} times a slowly varying factor."""

    rho: float
    length: float  # the part's path length L
    specular: float  # a_s = atan2(rho, L)
    start: float  # a_c
    depths: tuple[float, float]  # decay scales R sin(a_s + a_c), R sin(a_s - a_c) of the legs
    panels: int  # on the real start and on the saddle path each
    leg_nodes: int  # on each leg

    @property
    def hankel_nodes(self) -> int:
        """Nodes of the legs and the saddle path."""
        return 2 * _nodes_used(self.leg_nodes) + self.panels * _PANEL

    @property
    def cost(self) -> int:
        """Cost in real J0 evaluations: the start's nodes, and every other
        node at ``_COMPLEX_BESSEL_COST``."""
        return self.panels * _PANEL + _COMPLEX_BESSEL_COST * self.hankel_nodes


def _entire(scene: SceneConfig, part: FieldComponent) -> bool:
    """Whether the per-lag path may take the part: the direct wave, and the
    image once the far side's branch points a = pi/2 -+ i acosh n lie past
    the tail cutoff, kappa1 L sqrt(n^2 - 1) >= ``_TAIL_CUTOFF`` over the
    image path L (a conductor has none).  Transmission has no one saddle."""
    if part is FieldComponent.LOS_ONLY:
        return True
    index = scene.medium.material.refractive_index
    return part is FieldComponent.REFLECTION_ONLY and (index is None or (
        scene.medium.kappa1 * spectrum.decay_distance(scene, part)
        * math.sqrt(index * index - 1.0) >= _TAIL_CUTOFF))


def _lag_path(kappa1: float, length: float, rho: float, panels: int) -> _LagPath | None:
    """The per-lag path of lag ``rho`` for a part of path length ``length``,
    or None where kappa1 R sin^2(a_s) < ``_SADDLE_CLEARANCE``: there the
    saddle path would pass near a = 0, where the Hankel halves are
    singular.  The real start ends at a_c = min(a_s / 2, asin(4 / (kappa1
    rho))), so the Hankel arguments stay at least 4 from that point.  Each
    leg is sized like the shared path's; both take the larger count, so
    they share one rule.  ``panels`` sizes the start and the saddle path."""
    if kappa1 * rho * rho < _SADDLE_CLEARANCE * math.hypot(length, rho):
        return None
    specular = math.atan2(rho, length)
    start = min(0.5 * specular, math.asin(min(1.0, _START_ARGUMENT / (kappa1 * rho))))
    cos_c, sin_c = math.cos(start), math.sin(start)
    depths = (length * sin_c + rho * cos_c, rho * cos_c - length * sin_c)
    reaches = (abs(length * cos_c - rho * sin_c), length * cos_c + rho * sin_c)
    leg_nodes = max(_leg_nodes(kappa1, depth, reach) for depth, reach in zip(depths, reaches))
    return _LagPath(rho, length, specular, start, depths, panels, leg_nodes)


def _path(scenes: list[SceneConfig], part: FieldComponent, spec: QuadratureSpec,
          budget: int, rho: np.ndarray, *, bend: bool = True,
          per_lag: bool = True) -> _Path | _LagPath:
    """The path of the single-term part ``part`` for the lags ``rho`` of
    one pair of planes at its node count ``spec`` and oscillation budget
    ``budget`` (:func:`_part_specs`), sized by its decay distance and span.

    The shared path serves every lag.  Its geometry is sized at n =
    min(spec, budget) nodes and its real panels at ``spec``, so a count
    past the budget refines it and never moves it.  Its leg is sized for
    rho_b, the larger of the largest lag and the largest lag n resolves,
    so resolved calls take the same path whichever lags share them.  The
    bend lies delta = asin(sqrt(52 / (kappa1 R))) past the specular angle
    atan(rho_b / z), R = hypot(z, rho_b), rounded up to an edge of the
    panels of n's disk rule: there the leg's phase swing, about 648 / 52
    radians, fits one panel.  It lies far enough past the specular angle
    that J0 grows by at most e^600 on the leg, below the overflow of its
    complex evaluation.  The real segment [0, a0] gets its own panels,
    sized like the disk rule but for the segment's largest phase rate,
    kappa1 (span sin a0 + rho_b), in place of the disk's kappa1 (span +
    rho_b): ``spec.n_alpha`` a0 (span sin a0 + rho_b) / (span + rho_b)
    nodes, rounded up to whole panels.  Where rho_b is comparable to the
    span, that count exceeds the disk rule's own panels on [0, a0], which
    are taken instead.  The bend is taken only when, at n nodes, the real
    nodes it saves outweigh the leg's complex Bessel evaluations; below
    the budget a larger count may still switch that choice.

    A single positive lag of a part every scene admits (:func:`_entire`),
    in a call at or past its budget, then takes its own path
    (:func:`_lag_path`) with spec // budget panels on its start and saddle
    path, where that costs less than the refined shared path and fits one
    block of ``_BESSEL_BLOCK_SCALARS`` nodes; several lags keep the shared
    path, whose coefficients and Bessel matrix serve them all.  The bend is
    geometry that all lags of a call share, so the budget fixes it; this
    choice is the call's alone, so it is made at the count evaluated, where
    it is cheapest, and past the budget may switch.  ``bend=False`` forces
    the straight path, ``per_lag=False`` the shared one."""
    kappa1 = scenes[0].medium.kappa1
    z_decay = spectrum.decay_distance(scenes[0], part)
    span = max(spectrum.oscillation_span(scene, part) for scene in scenes)
    sizing = min(spec.n_alpha, budget)
    rho_b = max(float(rho.max()), 2.0 * math.pi * sizing / (OVERSAMPLING * kappa1) - span)
    grid, panels = _panels_for(sizing), _panels_for(spec.n_alpha)
    shared = straight = _leg_path(panels, 0.5 * math.pi, z_decay, span, rho_b, kappa1)
    sin_sq = _LEG_PHASE / (kappa1 * math.hypot(z_decay, rho_b))
    first = grid
    if bend and sin_sq < 1.0:
        a0 = max(math.atan2(rho_b, z_decay) + math.asin(math.sqrt(sin_sq)),
                 math.atan2(rho_b * (1.0 + _TAIL_CUTOFF / _LEG_GROWTH), z_decay))
        first = math.ceil(a0 / (0.5 * math.pi) * grid)
    if first < grid:
        angle = first * (0.5 * math.pi / grid)  # on the disk rule's grid, so short rules recur
        share = (span * math.sin(angle) + rho_b) / (span + rho_b)
        segment = min(first, _panels_for(math.ceil(sizing * angle * share)))
        bent = _leg_path(segment, angle, z_decay, span, rho_b, kappa1)
        if bent.cost < straight.cost - (panels - grid) * _PANEL:  # the straight path at n
            refined = _panels_for(math.ceil(spec.n_alpha * angle * share))
            # capped by [0, a0] on spec's grid, in exact integers so the budget's cap is first
            shared = dataclasses.replace(bent, panels=min(-(-first * panels // grid), refined))
    own_panels = spec.n_alpha // budget
    if not (bend and per_lag and own_panels and rho.size == 1 and rho[0] > 0.0
            and all(_entire(scene, part) for scene in scenes)):
        return shared
    own = _lag_path(kappa1, z_decay, float(rho[0]), own_panels)
    if (own is None or own.cost >= shared.cost
            or own.panels * _PANEL + own.hankel_nodes > _BESSEL_BLOCK_SCALARS):
        return shared
    return own


def _scaled_hankel1(x: np.ndarray) -> np.ndarray:
    """H0^(1)(x) e^{-ix}.  Just below the real axis scipy's scaled
    ``hankel1e`` loses about |x| 2^-53, so there it is formed from
    ``hankel1``, which cannot overflow at those depths."""
    near = (x.imag < 0.0) & (x.imag > -_HANKEL_NEAR)
    h = np.empty_like(x)
    h[near] = hankel1(0, x[near]) * np.exp(-1j * x[near])
    h[~near] = hankel1e(0, x[~near])
    return h


def _lag_sum(scenes: list[SceneConfig], part: FieldComponent, path: _LagPath,
             lag: SpatialLag) -> np.ndarray:
    """The value of ``lag`` for every scene along its own path.  Each piece
    runs on the rule of a fixed interval, scaled, so short rules recur
    across lags; the real start and the two legs share one coefficient
    evaluation, and the saddle path carries e^{i kappa1 R} exactly, with R
    in double-double from the path length and both lag components, the
    larger first, so neither their order nor their signs change it."""
    kappa1 = scenes[0].medium.kappa1
    t, w_t = _rule(path.panels * _PANEL, 1.0)
    u, w_u = _rule(path.leg_nodes, _TAIL_CUTOFF)
    # the H0^(2) leg descends, the H0^(1) leg climbs; each carries half of J0
    pieces = [_segment(kappa1, path.start * t, path.start * w_t),
              *(_leg(kappa1, path.start, sign, depth, u, 0.5 * w_u)
                for sign, depth in zip((-1.0, 1.0), path.depths))]
    krho, k1z, weight, angle = (np.concatenate(column) for column in zip(*pieces))
    x = path.rho * krho
    start, down = t.size, t.size + u.size
    kernel = np.concatenate((j0(x[:start].real), hankel2(0, x[start:down]),
                             hankel1(0, x[down:])))
    total = kernel @ _coefficients(scenes, part, k1z, weight, angle)
    r_hi, r_lo = spectrum._exact_hypot(path.length,
                                       *sorted((abs(lag.x), abs(lag.y)), reverse=True))
    reach = math.sqrt(_TAIL_CUTOFF / (kappa1 * r_hi))
    tilt = cmath.exp(-0.25j * math.pi) / math.sqrt(2.0)
    v, w_v = _rule(path.panels * _PANEL, 2.0)
    s = reach * (v - 1.0)
    half = np.arcsin(tilt * s)
    angle = path.specular + 2.0 * half
    sin_a = np.sin(angle)
    # half of kappa1 sin(a) da, da = 2 tilt ds / cos(half), times e^{-kappa1 R s^2}
    weight = (reach * w_v * tilt / np.cos(half) * np.exp(-kappa1 * r_hi * s * s)
              * _scale(kappa1) * kappa1 * sin_a)
    k1z = kappa1 * np.cos(angle)
    coeffs = np.stack([spectrum.part_coefficient(scene, part, k1z) for scene in scenes], axis=1)
    saddle = _scaled_hankel1(kappa1 * path.rho * sin_a) @ (coeffs * weight[:, None])
    phase = spectrum._carrier_angle(kappa1, r_hi) + kappa1 * r_lo
    return total + cmath.exp(1j * phase) * saddle


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


def _shared_sums(scenes: list[SceneConfig], part: FieldComponent, path: _Path,
                 rho: np.ndarray) -> Iterator[np.ndarray]:
    """sum_i coeff_ik J0(krho_i rho_j) for every lag j and scene k along the
    part's shared path, as one (lag x scene) array per piece: the real
    segment [0, a0], then the leg.  Each piece's rule is taken in blocks of
    whole panels holding at most ``_BESSEL_BLOCK_SCALARS`` Bessel factors
    (but at least one panel), so no full-length per-scene coefficient
    vector is built, and each block's Bessel matrix serves every scene.  A
    real Bessel matrix multiplies the real and imaginary parts of the
    coefficients as one real matrix product; the bent leg's complex
    Bessel matrix comes from :func:`_leg_j0`.  On a bent path each term's
    phase is carried exactly."""
    kappa1 = scenes[0].medium.kappa1
    step = _PANEL * max(1, _BESSEL_BLOCK_SCALARS // rho.size // _PANEL)
    pieces = ((_rule(path.panels * _PANEL, path.angle), partial(_segment, kappa1)),
              (_rule(path.leg_nodes, _TAIL_CUTOFF),
               partial(_leg, kappa1, path.angle, -1.0, path.depth)))
    for (nodes, weights), sample in pieces:
        total = 0.0
        for start in range(0, nodes.size, step):
            krho, k1z, weight, angle = sample(nodes[start:start + step],
                                              weights[start:start + step])
            coeffs = _coefficients(scenes, part, k1z, weight,
                                   None if path.straight else angle)
            total = total + ((_leg_j0(rho, krho) @ coeffs) if np.iscomplexobj(krho)
                             else (j0(rho[:, None] * krho) @ coeffs.view(float)).view(complex))
        yield total


@lru_cache(maxsize=None)
def _hankel_series() -> np.ndarray:
    """The coefficients c_n of P = sum_even c_n x^-n and Q = sum_odd c_n
    x^-n in Hankel's expansion of J0 (DLMF 10.17.3), n < ``_HANKEL_TERMS``,
    times the sqrt(2 / pi) of its prefactor."""
    c = np.empty(_HANKEL_TERMS)
    a = math.sqrt(2.0 / math.pi)  # times a_n(0) = prod_{m <= n} -(2m - 1)^2 / (8m)
    for n in range(_HANKEL_TERMS):
        c[n] = a if n % 4 < 2 else -a  # (-1)^floor(n/2) a_n(0)
        a *= -(2 * n + 1) ** 2 / (8.0 * (n + 1))
    return c


@lru_cache(maxsize=64)
def _taylor_basis(quarter: int, terms: int) -> tuple[np.ndarray, np.ndarray]:
    """The trapezoid rule J0^(m)(x0) = (1/P) sum_p Re[e^{i x0 sin theta_p}
    (i sin theta_p)^m] on P = 4 ``quarter`` nodes theta_p = 2 pi p / P
    (DLMF 10.9.1), folded onto the quarter circle, where the four nodes of
    each |sin theta_p| share one term: the sines s_q = sin(pi q / (2Q)), q
    <= Q, and the real (2(Q + 1) x ``terms``) matrix taking the interleaved
    cos and sin of x0 s_q to J0^(m)(x0) / m!."""
    sin = np.sin(0.5 * math.pi / quarter * np.arange(quarter + 1))
    weights = np.full(quarter + 1, 1.0 / quarter)
    weights[[0, -1]] = 0.5 / quarter
    signs = [(-1.0) ** (m // 2) / math.factorial(m) for m in range(terms)]  # Re or Im of i^m, / m!
    powers = weights[:, None] * sin[:, None] ** np.arange(terms) * signs
    basis = np.zeros((2 * quarter + 2, terms))
    basis[0::2, 0::2], basis[1::2, 1::2] = powers[:, 0::2], -powers[:, 1::2]
    return sin, basis


def _taylor_j0(rho: np.ndarray, krho: np.ndarray, center: float, scale: float,
               reach: float) -> np.ndarray:
    """J0(rho_j krho_i) for lags rho > 0 as a (lag x node) array, from the
    Taylor series about the real point x0 = rho ``center``: sum_m
    [J0^(m)(x0) (rho s)^m / m!] [((k - center) / s)^m], one real and one
    complex matrix product, with s = ``scale``, a power of 2 past every |k -
    center|, so the node quotients are exact.  It holds to round-off where
    rho |k - center| <= ``reach``: past e reach + 24 terms the remainder
    falls below e^-24 of J0^(m) <= 1.  The trapezoid rule for J0^(m)
    (:func:`_taylor_basis`) is exact up to aliasing of order J_{P - m}(x0),
    negligible with P past x0 + 24 + m, so no special function is taken per
    element.  x0 is carried exactly, as rho center rounded plus its
    rounding, which ``center`` of at most 24 bits makes a sum of two exact
    products (Veltkamp's split of rho): rounded alone, it would shift a whole
    row by up to 2e-15 times J1 at x0 ~ 18."""
    terms = math.ceil(math.e * reach) + 24
    sin, basis = _taylor_basis(math.ceil((rho.max() * center + terms + 24.0) / 4.0), terms)
    head, tail = spectrum._split(rho)
    x0 = rho * center
    rounding = (head * center - x0) + tail * center  # rho center - x0, exactly
    turn = np.exp(1j * np.multiply.outer(x0, sin))  # e^{i x0 sin theta_q}
    turn += 1j * np.multiply.outer(rounding, sin) * turn
    node_powers = np.empty((terms, krho.size), dtype=complex)
    node_powers[0] = 1.0
    node_powers[1:] = (krho - center) / scale
    lag_factors = (turn.view(float) @ basis) * (rho * scale)[:, None] ** np.arange(terms)
    return (lag_factors @ np.cumprod(node_powers, axis=0).view(float)).view(complex)


def _leg_j0(rho: np.ndarray, krho: np.ndarray) -> np.ndarray:
    """J0(rho_j krho_i) for lags rho >= 0 and the complex leg wavenumbers
    ``krho``, as a (lag x node) array.  Where |x| = rho |k| >=
    ``_HANKEL_FAR``, Hankel's expansion J0(x) = sqrt(2 / (pi x)) (P cos chi
    - Q sin chi), chi = x - pi/4, to ``_HANKEL_TERMS`` terms errs below
    2^-53 of J0's envelope.  Its powers x^-n = (rho s)^-n (k / s)^-n, s =
    max |k|, separate in lag and node, so P and Q of a whole block are two
    real matrix products; the lag powers stay below 18^-n and only rows
    with a far element take them.  cos chi and sin chi come from one
    complex exponential, e^{i x}, rotated by the constant e^{-i pi/4}.

    A row with rho = 0 is exactly 1.  The other rows' near elements take
    the Taylor series about the leg's real start k0, the midpoint of the
    nodes' Re k (:func:`_taylor_j0`), whose powers separate in lag and node
    too.  Its terms grow like e^{rho |k - k0|} where J0 grows like e^{|Im
    x|}, so a row whose real spread rho (max Re k - min Re k) passes
    ``_TAYLOR_SPREAD``, or whose lag factors, up to e^{rho max |k - k0|},
    could pass e^``_LEG_GROWTH``, keeps ``jv`` (AMOS) for its near elements.
    So do the near elements of a block holding fewer than ``_TAYLOR_NEAR``,
    and every element of a block of fewer than ``_HANKEL_LAGS`` lags (every
    single-lag call), whose matrices would cost more than ``jv`` does."""
    x = rho[:, None] * krho
    if rho.size < _HANKEL_LAGS:
        return jv(0, x)
    size = np.abs(krho)
    far = rho[:, None] * size >= _HANKEL_FAR
    rows = np.flatnonzero(far.any(axis=1))
    scale = size.max()
    lag_powers = np.empty((rows.size, _HANKEL_TERMS))
    lag_powers[:, 0] = 1.0 / np.sqrt(rho[rows])
    lag_powers[:, 1:] = 1.0 / (scale * rho[rows, None])
    lag_powers = np.cumprod(lag_powers, axis=1) * _hankel_series()
    node_powers = np.empty((_HANKEL_TERMS, krho.size), dtype=complex)
    node_powers[0] = 1.0 / np.sqrt(krho)
    node_powers[1:] = scale / krho
    node_powers = np.cumprod(node_powers, axis=0)
    p, q = ((lag_powers[:, part] @ node_powers[part].view(float)).view(complex)
            for part in (slice(0, None, 2), slice(1, None, 2)))
    turn = np.exp(1j * x[rows]) * cmath.exp(-0.25j * math.pi)  # e^{i chi}
    back = 1.0 / turn
    values = np.ones_like(x)
    values[rows] = 0.5 * (p * (turn + back) + 1j * q * (turn - back))
    near = ~far
    near[rho == 0.0] = False
    if np.count_nonzero(near) >= _TAYLOR_NEAR:
        real = krho.real
        low, high = real.min(), real.max()
        center = float(np.float32(0.5 * (low + high)))  # 24 bits, for _taylor_j0's exact rho center
        offset = np.abs(krho - center)
        scale = 2.0 ** math.frexp(offset.max())[1]  # a power of 2 past every offset: exact quotients
        spread = float(high - low)
        # the largest rho with rho spread <= _TAYLOR_SPREAD and rho scale <= _LEG_GROWTH
        limit = min(_TAYLOR_SPREAD / spread if spread else math.inf, _LEG_GROWTH / scale)
        rows = np.flatnonzero(near.any(axis=1) & (rho <= limit))
        if rows.size:
            inside = near[rows]
            reach = (rho[rows, None] * offset)[inside].max()
            values[rows] = np.where(inside, _taylor_j0(rho[rows], krho, center, scale, reach),
                                    values[rows])
            near[rows] = False
    if near.any():
        values[near] = jv(0, x[near])
    return values


_Plan = list[tuple[FieldComponent, _Path | _LagPath]]  # each part's path


def _plan(scenes: list[SceneConfig], component: FieldComponent, rho: np.ndarray, need: int,
          spec: QuadratureSpec | None = None, *, bend: bool = True,
          per_lag: bool = True) -> _Plan:
    """Each part of ``component`` with the path :func:`_path` picks for the
    lags ``rho`` on the scenes' shared planes, whose oscillation budget is
    ``need`` (:func:`_budgets`), at ``spec``, or at that budget when None."""
    budgets = _part_specs(scenes, component, QuadratureSpec(need))
    specs = budgets if spec is None else _part_specs(scenes, component, spec)
    return [(part, _path(scenes, part, part_spec, budget.n_alpha, rho, bend=bend,
                         per_lag=per_lag))
            for (part, part_spec), (_, budget) in zip(specs, budgets)]


def _runs(scenes: list[SceneConfig], component: FieldComponent, rho: np.ndarray,
          needs: list[int], spec: QuadratureSpec | None, *,
          bend: bool = True) -> list[tuple[int, _Plan]]:
    """Cut the ascending lags ``rho`` into runs, each on the shared paths
    :func:`_plan` picks for its largest lag, at the least price: a run's
    lags times the summed cost of its paths, plus ``_RUN_COST``.  A path
    steps with the largest lag, so not every lag is planned: the last and
    the first are, then the middle of two planned lags wherever the lags
    between them, priced at the lower of their two rates, would save more
    than a run costs.  A dynamic program over the planned lags (Bellman,
    Comm. ACM 4(6), 1961) picks the cuts.  ``needs`` holds each lag's
    budget.  Returns each run's stop and plan, in order."""
    plans: dict[int, tuple[_Plan, int]] = {}  # a planned lag's plan and rate

    def rate(i: int) -> int:
        if i not in plans:
            plan = _plan(scenes, component, rho[i:i + 1], needs[i], spec, bend=bend,
                         per_lag=False)
            plans[i] = plan, sum(path.cost for _, path in plan)
        return plans[i][1]

    spans = [(0, rho.size - 1)]
    while spans:
        lo, hi = spans.pop()
        if (hi - lo - 1) * (rate(hi) - rate(lo)) > _RUN_COST:
            spans += [(lo, (lo + hi) // 2), ((lo + hi) // 2, hi)]
    ends = sorted(plans)
    best = {-1: (0, None)}  # the least price of the lags up to an end, and the end before
    for end in ends:
        best[end] = min((best[j][0] + (end - j) * plans[end][1] + _RUN_COST, j)
                        for j in (-1, *ends) if j < end)
    runs, end = [], ends[-1]
    while end >= 0:
        runs.insert(0, (end + 1, plans[end][0]))
        end = best[end][1]
    return runs


def _sums(scenes: list[SceneConfig], paths: _Plan, rho: np.ndarray,
          lags: list[SpatialLag]) -> np.ndarray:
    """The (lag x scene) sum over the parts of the lags ``rho`` of one run
    on its paths: a single lag's own (:func:`_lag_sum`) or the shared one,
    block by block (:func:`_shared_sums`)."""
    values = 0.0
    for part, path in paths:
        if isinstance(path, _LagPath):
            values = values + _lag_sum(scenes, part, path, lags[0])[None, :]
        else:
            for piece in _shared_sums(scenes, part, path, rho):
                values = values + piece
    return values


def _synthesize_on_planes(scenes: list[SceneConfig], component: FieldComponent,
                          lags: list[SpatialLag], spec: QuadratureSpec | None, *,
                          bend: bool = True, per_lag: bool = True) -> tuple[np.ndarray, int]:
    """Every lag of every scene on the scenes' shared planes, as a
    (scene x lag) array, and the largest of the lags' oscillation budgets.
    A single lag is one run, on the paths :func:`_path` picks for it, its
    own or the shared one.  Several lags are sorted and cut into runs on
    shared paths (:func:`_runs`), each synthesized on the plan that priced
    it.  Each run is sized at ``spec``, or at its own budget when None.
    ``bend=False`` forces the straight paths; ``per_lag=False`` keeps the
    shared ones."""
    rho = np.array([lag.transverse for lag in lags])
    needs = _budgets(scenes, component, rho)
    if rho.size == 1:
        paths = _plan(scenes, component, rho, needs[0], spec, bend=bend, per_lag=per_lag)
        return _sums(scenes, paths, rho, lags).T, needs[0]
    order = np.argsort(rho, kind="stable")
    runs = _runs(scenes, component, rho[order], [needs[i] for i in order], spec, bend=bend)
    values = np.empty((len(scenes), rho.size), dtype=complex)
    for start, (stop, paths) in zip([0, *(stop for stop, _ in runs)], runs):
        at = order[start:stop]
        values[:, at] = _sums(scenes, paths, rho[at], lags).T
    return values, max(needs)


def synthesize_impulse(scene: SceneConfig | Sequence[SceneConfig], component: FieldComponent,
                       lag: SpatialLag | Sequence[SpatialLag],
                       spec: QuadratureSpec | None) -> complex | np.ndarray:
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
        The lags of a pair of planes are sorted and cut into runs by cost
        (:func:`_runs`): each run shares one synthesis path per part of
        the component, sized for its largest lag, with its nodes and its
        coefficient vector.  Where the polar-angle segment is electrically
        long, the path leaves the real axis a little past the specular
        angle of the run's largest lag and descends on a short leg of
        complex angles; otherwise it runs the whole disk and the branch
        cut.  A single lag on its pair of planes is one run.  Where
        cheaper, the direct wave and the image, off the conductor or off a
        dielectric whose far-side branch points lie past the tail cutoff,
        instead run that lag on its own path across the specular saddle,
        for every scene of the call or for none; one chooser,
        :func:`_path`, makes both choices.
    spec:
        Node count of the disk rule over [0, pi/2]: it fixes the node
        spacing on the straight path, and on the real segment [0, a0] of a
        bent path it is scaled to that segment's phase rate.  The path
        itself is fixed at the smaller of the count and the oscillation
        budget, so a count past the budget refines its real nodes and moves
        nothing.  A per-lag path is taken only at counts of at least the
        budget, and chosen at the count given, so past the budget a call
        may switch to it; its start and saddle path get n_alpha // budget
        panels each, per part.  Counts below the oscillation budget of any
        lag still evaluate, with one :class:`UnderResolvedWarning` per call
        that names the largest budget.  None sizes each run at the budget
        of its own largest lag.
    """
    scenes = _material_batch(scene)
    lags = [lag] if isinstance(lag, SpatialLag) else list(lag)
    values = np.empty((len(scenes), len(lags)), dtype=complex)
    needed = 0
    for planes, indices in _plane_groups(scenes[0], lags).items():
        values[:, indices], need = _synthesize_on_planes(
            [_on_planes(s, planes) for s in scenes], component,
            [lags[i] for i in indices], spec,
        )
        needed = max(needed, need)
    if spec is not None and _nodes_used(spec.n_alpha) < needed:
        warnings.warn(f"node count n_alpha={_nodes_used(spec.n_alpha)} below the oscillation "
                      f"budget n_alpha={needed}", UnderResolvedWarning, stacklevel=2)
    if isinstance(lag, SpatialLag):
        values = values[:, 0]
    if isinstance(scene, SceneConfig):
        values = values[0]
    return complex(values) if values.ndim == 0 else values


def convergence_study(scene: SceneConfig, component: FieldComponent,
                      lag: SpatialLag, *, rel_tol: float = 1e-8,
                      max_nodes: int = 1_500_000) -> ConvergenceStudy:
    """Double the disk-rule nodes until the value settles.

    Starts a factor of four below the oscillation budget of the lag on its
    own pair of planes (:func:`_budgets`), so the trace shows the
    under-resolved regime, then the spectral collapse; a bent path can be
    resolved already at the start.  Below the budget a doubling also
    raises the largest lag the count resolves, so the path may still
    change; past it the shared path stays and a doubling refines its real
    nodes, or the lag takes its own path where that has become cheaper.
    Stops once the successive relative change drops below ``rel_tol`` or
    the next doubling would exceed ``max_nodes`` (flagged via
    ``converged=False``).  The start is capped at ``max_nodes`` too, in
    whole panels, at least one: the starting count is always evaluated, so
    the trace has at least one row even under a tiny cap.
    """
    (budget,) = _budgets([_on_planes(scene, _planes_of(scene, lag))], component,
                         np.array([lag.transverse]))
    n_alpha = _nodes_used(min(budget // 4, max_nodes))
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
