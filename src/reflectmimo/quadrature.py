"""Spatial synthesis of the impulse response from its wavenumber spectrum.

The transverse plane integral is taken in polar form over the propagating
disk: kx = kappa1 sin(a) cos(b), ky = kappa1 sin(a) sin(b).  The polar
Jacobian cancels the 1/kappa_1z edge singularity, leaving a smooth but
highly oscillatory integrand handled by a composite Gauss-Legendre rule in
the polar angle and a periodic trapezoid (or an exact Bessel reduction) in
azimuth.

A sharp cutoff at the disk rim would leave a spurious, slowly decaying
contribution of relative size O(1): the branch-point neighbourhood just
outside the disk cancels it.  The synthesis therefore completes the rule
with a small integral along the branch cut kappa_1z = i*gamma, where every
term decays like e^{-gamma Z}.  The completion is on by default and can be
disabled to inspect the raw disk-limited value.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from collections.abc import Sequence
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
_CHUNK_SCALAR_BUDGET = 2_000_000  # complex exponentials per azimuthal block
_BESSEL_BLOCK_SCALARS = 1 << 17  # Bessel factors per row block of a lag batch


class UnderResolvedWarning(UserWarning):
    """Node counts below the oscillation budget: result may be inaccurate."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Requested node counts for the polar-angle and azimuthal rules."""

    n_alpha: int
    n_beta: int = 4

    def __post_init__(self) -> None:
        if self.n_alpha < 2:
            msg = f"n_alpha must be >= 2, got {self.n_alpha}"
            raise ValueError(msg)
        if self.n_beta < 4:
            msg = f"n_beta must be >= 4, got {self.n_beta}"
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
    n_beta: int
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


@lru_cache(maxsize=128)
def _composite_rule(panels: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights with ``panels`` panels on [lo, hi]."""
    x, w = _base_panel()
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _panels_for(n_nodes: int) -> int:
    return max(1, -(-n_nodes // _PANEL))


def _alias_safe_beta(z: float) -> int:
    """Azimuthal node count with trapezoid alias error below round-off.

    The equispaced rule applied to e^{i z cos b} aliases onto Bessel terms
    of order n; pushing n past the order/argument transition z + O(z^{1/3})
    makes them decay super-exponentially.
    """
    if z <= 0.0:
        return 4
    return max(4, int(math.ceil(z + 16.0 * z ** (1.0 / 3.0) + 16.0)))


def estimate_nodes(scene: SceneConfig, max_lag: float, dz_total: float) -> QuadratureSpec:
    """Node counts sized to the integrand's oscillation budget.

    The polar-angle phase sweeps about kappa1 (dz_total + max_lag) radians,
    oversampled at ``OVERSAMPLING`` nodes per period; azimuth is sized by
    the alias-safe bound for its kappa1*max_lag phase swing.
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
    n_beta = _alias_safe_beta(kappa1 * max_lag)
    return QuadratureSpec(n_alpha=n_alpha, n_beta=n_beta)


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
    """Node counts resolving every lag: the largest oscillation budget over
    their pairs of planes."""
    budgets = [
        _plane_budget(_on_planes(scene, planes), component,
                      max(lags[i].transverse for i in indices))
        for planes, indices in _plane_groups(scene, lags).items()
    ]
    return QuadratureSpec(n_alpha=max(b.n_alpha for b in budgets),
                          n_beta=max(b.n_beta for b in budgets))


def _azimuthal_sum(coeff: np.ndarray, krho: np.ndarray, x: float, y: float,
                   n_beta: int) -> complex:
    """sum_i coeff_i * (2 pi / n) sum_j e^{i krho_i (x cos b_j + y sin b_j)}."""
    beta = 2.0 * math.pi * np.arange(n_beta) / n_beta
    t = x * np.cos(beta) + y * np.sin(beta)
    chunk = max(1, _CHUNK_SCALAR_BUDGET // n_beta)
    total = 0.0 + 0.0j
    for start in range(0, krho.size, chunk):
        block = slice(start, start + chunk)
        phases = np.exp(1j * np.outer(krho[block], t))
        total += coeff[block] @ phases.sum(axis=1)
    return total * (2.0 * math.pi / n_beta)


def _bessel_sum(coeff: np.ndarray, krho: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_i coeff_i J0(krho_i rho_j) for every rho_j, in bounded row blocks."""
    rows = max(1, _BESSEL_BLOCK_SCALARS // krho.size)
    if rho.size > rows:
        return np.concatenate([_bessel_sum(coeff, krho, rho[start:start + rows])
                               for start in range(0, rho.size, rows)])
    return np.dot(j0(rho[:, None] * krho), coeff)


def _disk_rule(scene: SceneConfig, component: FieldComponent,
               n_alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients and transverse wavenumbers of the propagating-disk rule.

    Coefficients carry the 1/(2 pi) of the Bessel reduction, here and in
    :func:`_tail_rule`, so a lag costs a single dot product."""
    kappa1 = scene.medium.kappa1
    alpha, w_alpha = _composite_rule(_panels_for(n_alpha), 0.0, 0.5 * math.pi)
    sin_a = np.sin(alpha)
    factor = spectrum.propagating_factor(scene, component, kappa1 * np.cos(alpha))
    scale = kappa1 * FREE_SPACE_IMPEDANCE / (4.0 * math.pi)
    coeff = w_alpha * scale * kappa1 * sin_a * factor
    return coeff, kappa1 * sin_a


def _tail_rule(scene: SceneConfig, component: FieldComponent,
               max_lag: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Coefficients, transverse wavenumbers and largest wavenumber of the
    branch-cut rule, resolved for transverse lags up to ``max_lag``."""
    kappa1 = scene.medium.kappa1
    z_decay = spectrum.decay_distance(scene, component)
    gamma_max = _TAIL_CUTOFF / z_decay
    krho_max = math.hypot(kappa1, gamma_max)
    # The integrand decays like e^{-gamma z_decay} and oscillates through the
    # Bessel factor; budget nodes for both.
    periods = max_lag * (krho_max - kappa1) / (2.0 * math.pi)
    n_tail = 48 + int(math.ceil(8.0 * periods))
    u, w_u = _composite_rule(_panels_for(n_tail), 0.0, _TAIL_CUTOFF)
    gamma = u / z_decay
    factor = spectrum.evanescent_factor(scene, component, gamma)
    scale = kappa1 * FREE_SPACE_IMPEDANCE / (4.0 * math.pi)
    coeff = (w_u / z_decay) * scale * (-1j) * factor
    return coeff, np.hypot(kappa1, gamma), krho_max


def _lag_sum(coeff: np.ndarray, krho: np.ndarray, lags: list[SpatialLag],
             rho: np.ndarray, n_beta: int | None = None,
             krho_max: float = 0.0) -> np.ndarray:
    """One rule applied to every lag: the exact Bessel reduction, or with
    ``n_beta`` the two-dimensional rule with at least that many azimuth
    nodes, raised to the alias-safe count for wavenumbers up to ``krho_max``."""
    if n_beta is None:
        return _bessel_sum(coeff, krho, rho)
    return np.array([
        _azimuthal_sum(coeff, krho, lag.x, lag.y,
                       max(n_beta, _alias_safe_beta(krho_max * lag.transverse)))
        for lag in lags
    ]) / (2.0 * math.pi)


def _synthesize_on_planes(scene: SceneConfig, component: FieldComponent,
                          lags: list[SpatialLag], spec: QuadratureSpec,
                          n_beta: int | None,
                          include_evanescent_tail: bool) -> np.ndarray:
    """Every lag on the scene's own planes from one set of nodes and
    coefficients; the branch-cut rule is sized for the largest lag."""
    transverse = [lag.transverse for lag in lags]
    max_rho = max(transverse)
    needed = _plane_budget(scene, component, max_rho)
    effective_alpha = _panels_for(spec.n_alpha) * _PANEL
    if effective_alpha < needed.n_alpha or (n_beta is not None and n_beta < needed.n_beta):
        warnings.warn(
            f"node counts (n_alpha={effective_alpha}, n_beta={spec.n_beta}) below "
            f"the oscillation budget (n_alpha={needed.n_alpha}, "
            f"n_beta={needed.n_beta})",
            UnderResolvedWarning,
            stacklevel=3,
        )
    rho = np.array(transverse)
    coeff, krho = _disk_rule(scene, component, spec.n_alpha)
    value = _lag_sum(coeff, krho, lags, rho, n_beta)
    if include_evanescent_tail:
        coeff, krho, krho_max = _tail_rule(scene, component, max_rho)
        value += _lag_sum(coeff, krho, lags, rho, n_beta, krho_max)
    return value


def synthesize_impulse(scene: SceneConfig, component: FieldComponent,
                       lag: SpatialLag | Sequence[SpatialLag], spec: QuadratureSpec,
                       *, method: str = "auto",
                       include_evanescent_tail: bool = True) -> complex | np.ndarray:
    """Spatial impulse response at one or many receiver/source sample pairs.

    Parameters
    ----------
    scene, component:
        Geometry and which additive field term to synthesize.
    lag:
        Transverse receiver-minus-source offsets, with optional plane
        overrides: one :class:`SpatialLag` (a complex is returned) or a
        sequence of them (an array is returned, in the same order).  Lags
        on the same pair of planes share one set of nodes and
        coefficients; the branch-cut rule is sized for the largest
        transverse lag of the pair.
    spec:
        Node counts for the disk rule; counts below the oscillation budget
        trigger :class:`UnderResolvedWarning` but still evaluate.
    method:
        ``"auto"``/``"bessel"`` reduce the azimuthal integral to an exact
        Bessel factor (valid because the surface coefficients depend only
        on the polar angle); ``"generic"`` runs the two-dimensional rule.
    include_evanescent_tail:
        When True (default) the branch-cut completion is added so the
        synthesis converges to the physical field; when False the raw
        disk-limited integral is returned.
    """
    if method not in ("auto", "bessel", "generic"):
        msg = f"method must be 'auto', 'bessel', or 'generic', got {method!r}"
        raise ValueError(msg)
    n_beta = None if method in ("auto", "bessel") else spec.n_beta
    if isinstance(lag, SpatialLag):
        plane_scene = _on_planes(scene, _planes_of(scene, lag))
        return complex(_synthesize_on_planes(plane_scene, component, [lag], spec,
                                             n_beta, include_evanescent_tail)[0])
    lags = list(lag)
    values = np.empty(len(lags), dtype=complex)
    for planes, indices in _plane_groups(scene, lags).items():
        values[indices] = _synthesize_on_planes(
            _on_planes(scene, planes), component, [lags[i] for i in indices], spec,
            n_beta, include_evanescent_tail,
        )
    return values


def convergence_study(scene: SceneConfig, component: FieldComponent,
                      lag: SpatialLag, *, rel_tol: float = 1e-8,
                      max_nodes: int = 1_500_000, method: str = "auto",
                      include_evanescent_tail: bool = True) -> ConvergenceStudy:
    """Double the disk-rule nodes until the value settles.

    Starts a factor of four below the oscillation budget so the trace shows
    the under-resolved regime, then the spectral collapse.  Stops once the
    successive relative change drops below ``rel_tol`` or the next doubling
    would exceed ``max_nodes`` (flagged via ``converged=False``).  The
    starting counts are always evaluated, so the trace has at least one row
    even under a tiny ``max_nodes`` cap.
    """
    budget = _required_nodes(scene, component, [lag])
    n_alpha = max(_PANEL, _panels_for(max(2, budget.n_alpha // 4)) * _PANEL)
    n_beta = budget.n_beta
    rows: list[ConvergenceRow] = []
    previous: complex | None = None
    converged = False
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderResolvedWarning)
        while True:
            spec = QuadratureSpec(n_alpha=n_alpha, n_beta=n_beta)
            value = synthesize_impulse(
                scene, component, lag, spec, method=method,
                include_evanescent_tail=include_evanescent_tail,
            )
            delta = None
            if previous is not None:
                scale = max(abs(value), 1e-300)
                delta = abs(value - previous) / scale
            rows.append(ConvergenceRow(n_alpha, n_beta, value, delta))
            if delta is not None and delta < rel_tol:
                converged = True
                break
            previous = value
            n_alpha *= 2
            if n_beta > 4:
                n_beta *= 2
            if n_alpha > max_nodes:
                break
    return ConvergenceStudy(rows=rows, converged=converged)
