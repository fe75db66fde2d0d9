"""Named experiments over the reflected-channel model.

Each experiment produces ordered tables of plain rows, ready for CSV or
JSON emission.  A spectrum or capacity table walks its two groups in a
fixed order: the direct channel, then the materials.  The direct channel's
spectrum sums to N^2.  By default the reflected spectra share its scale,
so the material-dependent power loss stays visible.  Identical configs
yield identical tables.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .capacity import DofBound, _waterfill_rows, dof_bound
from .closedform import los_impulse, los_power
from .config import SPACING_RULES, ConfigError, ExperimentConfig, config_to_text
from .materials import PERFECT_CONDUCTOR, VACUUM, Material, Medium, material_by_name
from .materials import fresnel_reflection, fresnel_transmission
from .mimo import (
    RELATIVE,
    SELF_SUM,
    ArrayLayout,
    EigenSpectrum,
    _assemble,
    _spacing_for_streams,
    eigen_spectrum,
    spacing_rayleigh,
)
from .quadrature import QuadratureSpec, SpatialLag, estimate_nodes, synthesize_impulse
from .spectrum import FieldComponent, SceneConfig, oscillation_span

_EIGEN_COLUMNS = ("material", "spacing_rule", "index", "lambda", "lambda_db")
_CAPACITY_COLUMNS = ("material", "spacing_rule", "snr_db", "bits_per_s_hz")
_FRESNEL_COLUMNS = ("material", "theta_deg", "R", "T", "reflectivity")
_VALIDATION_COLUMNS = ("dz_m", "lag_m", "rel_err")


@dataclass(frozen=True)
class ResultTable:
    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


@dataclass(frozen=True)
class ResultSet:
    experiment: str
    config: ExperimentConfig
    provenance: dict
    tables: tuple[ResultTable, ...]

    def table(self, name: str) -> ResultTable:
        for table in self.tables:
            if table.name == name:
                return table
        msg = f"no table named {name!r} in {self.experiment}"
        raise KeyError(msg)


@dataclass(frozen=True)
class _Group:
    """The channels of a table that one assembly builds: a row label and a
    scene each, their component, rule and spacings, and whether their
    spectra take the direct channel's scale."""

    names: tuple[str, ...]
    component: FieldComponent
    scenes: list[SceneConfig]
    rule: str
    spacings: list[float]
    relative: bool


class _Context:
    """One run's configuration and the largest node count of each label.
    A table is walked by group (:func:`_walk`); :meth:`spectra` builds,
    scales and eigensolves a whole group in one call, so no channel or
    scale outlives it."""

    def __init__(self, config: ExperimentConfig) -> None:
        config.validate()
        self.config = config
        self.vacuum_medium = Medium(config.frequency_hz, VACUUM)
        self.wavelength = self.vacuum_medium.wavelength
        self.node_counts: dict[str, int] = {}

    def scene(self, material: Material) -> SceneConfig:
        cfg = self.config
        return SceneConfig(medium=Medium(cfg.frequency_hz, material), surface_z=cfg.d1_m,
                           source_z=0.0, receiver_z=cfg.range_m)

    def spectra(self, group: _Group) -> list[list[EigenSpectrum]]:
        """Each name's spectra at the group's spacings, in their order.  The
        distinct spacings share one synthesis (:func:`mimo._assemble`), each
        scene's channel at each is eigensolved once, and each name records
        its largest node count under ``name@rule``.  The direct channel sums
        to N^2; a material does too under ``SelfSum``, and otherwise takes the
        scale N^2 / ||H_LOS||_F^2 of the direct channel between its own
        arrays, in closed form (:func:`closedform.los_power`), once per spacing."""
        n = self.config.antennas
        distinct = list(dict.fromkeys(group.spacings))
        layouts = [(ArrayLayout.along_x(n, spacing, 0.0),
                    ArrayLayout.along_x(n, spacing, self.config.range_m))
                   for spacing in distinct]
        built = _assemble(group.scenes, layouts, group.component, self.config.quadrature)
        solved: dict[float, list[EigenSpectrum]] = {}
        for spacing, (tx, rx), channels in zip(distinct, layouts, built):
            scale = n * n / los_power(self.vacuum_medium, tx, rx) if group.relative else None
            solved[spacing] = [eigen_spectrum(channel, RELATIVE if group.relative else SELF_SUM,
                                              reference_scale=scale) for channel in channels]
            for name, channel in zip(group.names, channels):
                self.record_nodes(f"{name}@{group.rule}", channel.spec)
        return [[solved[spacing][at] for spacing in group.spacings]
                for at in range(len(group.names))]

    def record_nodes(self, label: str, spec: QuadratureSpec) -> None:
        """Keep the largest ``n_alpha`` used under ``label``."""
        self.node_counts[label] = max(spec.n_alpha, self.node_counts.get(label, 0))


def _spacing_of(context: _Context, rule: str, bound: DofBound | None) -> float:
    """The spacing of ``rule``; an SNR-dependent rule takes the stream
    count of the flat-spectrum ``bound`` at its SNR."""
    cfg = context.config
    if rule not in SPACING_RULES:
        raise ConfigError([f"unknown spacing rule {rule!r}"])
    distance = cfg.equivalent_range_m if rule.endswith("_De") else cfg.range_m
    if rule.startswith("rayleigh"):
        return spacing_rayleigh(context.wavelength, distance, cfg.antennas)
    if bound is None:
        raise ConfigError([f"spacing rule {rule!r} is SNR-dependent and needs an SNR sweep"])
    return _spacing_for_streams(context.wavelength, distance, cfg.antennas, bound.rho_star)


def _walk(context: _Context, los_rule: str, reflected_rule: str,
          bounds: Sequence[DofBound | None]) -> list[_Group]:
    """A table's two groups in row order, each with its spacings at the
    SNRs of ``bounds``, worked out and checked before anything is built:
    the direct channel ``"los"`` under ``los_rule`` as the reference rows,
    then the materials under ``reflected_rule`` or the configured override,
    on the direct channel's scale under ``RelativeToLOS`` (built from no
    direct channel, so the order changes no value or node count)."""
    cfg = context.config
    rule = reflected_rule if cfg.spacing_rule == "default" else cfg.spacing_rule
    materials = [material_by_name(name) for name in cfg.materials]
    blank = [name for name, material in zip(cfg.materials, materials) if material.is_homogeneous]
    if blank and cfg.normalization == "SelfSum":
        raise ConfigError([f"material {blank[0]!r} reflects nothing, so its channel "
                           f"is zero and normalization = SelfSum cannot scale it"])
    spacings = {r: [_spacing_of(context, r, bound) for bound in bounds] for r in (los_rule, rule)}
    return [_Group(("los",), FieldComponent.LOS_ONLY, [context.scene(VACUUM)], los_rule,
                   spacings[los_rule], False),
            _Group(cfg.materials, FieldComponent.REFLECTION_ONLY,
                   [context.scene(material) for material in materials], rule, spacings[rule],
                   cfg.normalization == "RelativeToLOS")]


def _eigen_table(context: _Context, los_rule: str, reflected_rule: str) -> ResultTable:
    rows: list[tuple] = []
    for group in _walk(context, los_rule, reflected_rule, [None]):
        for name, (spectrum,) in zip(group.names, context.spectra(group)):
            rows.extend((name, group.rule, index, float(value), float(db))
                        for index, (value, db) in enumerate(zip(spectrum.values, spectrum.db),
                                                            start=1))
    return ResultTable("eigenvalues", _EIGEN_COLUMNS, tuple(rows))


def _capacity_table(context: _Context, los_rule: str, reflected_rule: str) -> ResultTable:
    """Capacity over the SNR grid, each name's grid waterfilled in one
    call; each SNR's flat-spectrum bound, taken once, gives the SNR-matched
    spacings and the upper-bound row."""
    cfg = context.config
    snrs = [10.0 ** (snr_db / 10.0) for snr_db in cfg.snr_grid_db]
    bounds = [dof_bound(cfg.antennas, snr) for snr in snrs]
    rows: list[tuple] = []
    for group in _walk(context, los_rule, reflected_rule, bounds):
        for name, spectra in zip(group.names, context.spectra(group)):
            capacities = _waterfill_rows(np.stack([s.values for s in spectra]), np.array(snrs))[0]
            rows.extend((name, group.rule, snr_db, float(capacity))
                        for snr_db, capacity in zip(cfg.snr_grid_db, capacities))
    rows.extend(("upper_bound", los_rule, snr_db, bound.bound)
                for snr_db, bound in zip(cfg.snr_grid_db, bounds))
    return ResultTable("capacity", _CAPACITY_COLUMNS, tuple(rows))


def _run_fresnel_sweep(context: _Context) -> list[ResultTable]:
    kappa1 = context.vacuum_medium.kappa1
    rows: list[tuple] = []
    for name in context.config.materials:
        medium = Medium(context.config.frequency_hz, material_by_name(name))
        for half_deg in range(181):
            theta_deg = half_deg * 0.5
            kx = kappa1 * math.sin(math.radians(theta_deg))
            r = float(fresnel_reflection(medium, kx, 0.0))
            t = float(fresnel_transmission(medium, kx, 0.0))
            rows.append((name, theta_deg, r, t, r * r))
    return [ResultTable("fresnel", _FRESNEL_COLUMNS, tuple(rows))]


def _validation_grid(context: _Context) -> tuple[list[float], list[float]]:
    spans = [float(v) for v in np.geomspace(10.0 * context.wavelength, 20.0, 5)]
    lags = [0.0, 0.1, 0.5, 1.0]
    return spans, lags


def validation_scene(medium: Medium, component: FieldComponent, span: float) -> SceneConfig:
    """The validation layout whose path is ``span`` long: the direct wave
    with the surface 1 m beyond the receiver, or the specular image with
    d1 = max(0.75 span, 10 wavelengths) and the receiver at 2 d1 - span."""
    if component is FieldComponent.LOS_ONLY:
        return SceneConfig(medium=medium, surface_z=span + 1.0, source_z=0.0,
                           receiver_z=span)
    d1 = max(0.75 * span, 10.0 * medium.wavelength)
    return SceneConfig(medium=medium, surface_z=d1, source_z=0.0,
                       receiver_z=2.0 * d1 - span)


def _run_impulse_validate(context: _Context) -> list[ResultTable]:
    vacuum = context.vacuum_medium
    spans, lags = _validation_grid(context)

    def direct(scene: SceneConfig, lag_x: float) -> complex:
        return los_impulse(vacuum, (lag_x, 0.0, scene.receiver_z), (0.0, 0.0, 0.0))

    def image(scene: SceneConfig, lag_x: float) -> complex:
        mirrored = (0.0, 0.0, 2.0 * scene.surface_z)
        return -los_impulse(vacuum, (lag_x, 0.0, scene.receiver_z), mirrored)

    cases = (
        ("validation_los", FieldComponent.LOS_ONLY, vacuum, direct),
        ("validation_image", FieldComponent.REFLECTION_ONLY,
         Medium(context.config.frequency_hz, PERFECT_CONDUCTOR), image),
    )
    tables: list[ResultTable] = []
    for name, component, medium, reference in cases:
        rows: list[tuple] = []
        for span in spans:
            scene = validation_scene(medium, component, span)
            for lag_x in lags:
                spec = context.config.quadrature or estimate_nodes(
                    scene, lag_x, oscillation_span(scene, component),
                )
                context.record_nodes(name, spec)
                value = synthesize_impulse(scene, component, SpatialLag(x=lag_x), spec)
                exact = reference(scene, lag_x)
                rows.append((span, lag_x, abs(value - exact) / abs(exact)))
        tables.append(ResultTable(name, _VALIDATION_COLUMNS, tuple(rows)))
    return tables


_RUNNERS = {
    "fig2": lambda context: [_eigen_table(context, "rayleigh_D", "rayleigh_D")],
    "fig3": lambda context: [_capacity_table(context, "snr_dependent_D", "snr_dependent_D")],
    "fig4": lambda context: [_eigen_table(context, "rayleigh_D", "rayleigh_De")],
    "fig5": lambda context: [_capacity_table(context, "snr_dependent_D", "snr_dependent_De")],
    "fresnel_sweep": _run_fresnel_sweep,
    "impulse_validate": _run_impulse_validate,
}

EXPERIMENT_NAMES = tuple(_RUNNERS)


def run_named(name: str, config: ExperimentConfig | None = None, *,
              config_text: str | None = None) -> ResultSet:
    """Run a named experiment; ``config_text`` overrides the provenance echo
    with the exact input text (used when a config file was supplied)."""
    if name not in _RUNNERS:
        known = ", ".join(EXPERIMENT_NAMES)
        msg = f"unknown experiment {name!r}; expected one of: {known}"
        raise ValueError(msg)
    if config is None:
        config = ExperimentConfig()
    context = _Context(config)
    tables = _RUNNERS[name](context)
    provenance = {
        "library": "reflectmimo",
        "version": __version__,
        "experiment": name,
        "normalization": config.normalization,
        "config_text": config_text if config_text is not None else config_to_text(config),
        "node_counts": dict(sorted(context.node_counts.items())),
    }
    return ResultSet(
        experiment=name, config=config, provenance=provenance, tables=tuple(tables),
    )
