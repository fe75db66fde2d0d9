"""Named experiments over the reflected-channel model.

Each experiment produces ordered tables of plain rows, ready for CSV or
JSON emission.  A spectrum or capacity table walks its groups in a fixed
order: the direct channel, then each material.  The direct channel's
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
    ChannelMatrix,
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


class _Context:
    """Per-run channel cache.  Channels are keyed by group and spacing,
    so an SNR sweep builds each spacing once.  All materials and all the
    spacings asked for together share one synthesis, which cuts their lags
    into runs by cost (:func:`mimo._assemble`).
    :meth:`spectra` turns one group's channels into spectra on the scale
    the configuration asks for."""

    def __init__(self, config: ExperimentConfig) -> None:
        config.validate()
        self.config = config
        self.vacuum_medium = Medium(config.frequency_hz, VACUUM)
        self.wavelength = self.vacuum_medium.wavelength
        self.node_counts: dict[str, int] = {}
        self._channels: dict[tuple[str, int], ChannelMatrix] = {}
        self._scales: dict[int, float] = {}

    def scene(self, material: Material) -> SceneConfig:
        return SceneConfig(
            medium=Medium(self.config.frequency_hz, material),
            surface_z=self.config.d1_m,
            source_z=0.0,
            receiver_z=self.config.range_m,
        )

    def channels(self, material_name: str, spacings: Sequence[float]) -> list[ChannelMatrix]:
        """The channels at ``spacings``.  Those not cached yet are built in
        one assembly: the direct channel for ``"los"``, otherwise every
        configured material at once."""
        keys = [round(spacing / 1e-15) for spacing in spacings]
        missing = {key: spacing for key, spacing in zip(keys, spacings)
                   if (material_name, key) not in self._channels}
        if missing:
            n = self.config.antennas
            layouts = [(ArrayLayout.along_x(n, spacing, 0.0),
                        ArrayLayout.along_x(n, spacing, self.config.range_m))
                       for spacing in missing.values()]
            if material_name == "los":
                names, component = ["los"], FieldComponent.LOS_ONLY
                scenes = [self.scene(VACUUM)]
            else:
                names = list(self.config.materials)
                component = FieldComponent.REFLECTION_ONLY
                scenes = [self.scene(material_by_name(name)) for name in names]
            built = _assemble(scenes, layouts, component, self.config.quadrature)
            for key, per_scene in zip(missing, built):
                for name, channel in zip(names, per_scene):
                    self._channels[(name, key)] = channel
        return [self._channels[(material_name, key)] for key in keys]

    def spectra(self, name: str, rule: str, spacings: Sequence[float]) -> list[EigenSpectrum]:
        """The spectra of group ``name`` at ``spacings``, each distinct
        channel eigensolved once, with its largest node count recorded
        under ``name@rule``.  The direct channel sums to N^2; a material
        does too under ``SelfSum``, and otherwise takes the scale
        N^2 / ||H_LOS||_F^2 of the direct channel between its own arrays,
        in closed form (:func:`closedform.los_power`), once per spacing."""
        channels = self.channels(name, spacings)
        for channel in channels:
            self.record_nodes(f"{name}@{rule}", channel.spec)
        relative = name != "los" and self.config.normalization == "RelativeToLOS"
        solved: dict[int, EigenSpectrum] = {}
        for channel in channels:
            key = round(channel.tx.spacing / 1e-15)
            if relative and key not in self._scales:
                self._scales[key] = channel.entries.size / los_power(
                    self.vacuum_medium, channel.tx, channel.rx)
            if id(channel) not in solved:
                solved[id(channel)] = eigen_spectrum(
                    channel, RELATIVE if relative else SELF_SUM,
                    reference_scale=self._scales[key] if relative else None,
                )
        return [solved[id(channel)] for channel in channels]

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
          bounds: Sequence[DofBound | None]) -> list[tuple[str, str, list[float]]]:
    """A table's groups in row order, each with its spacing rule and its
    spacings at the SNRs of ``bounds``: the direct channel under ``los_rule``,
    then each material under ``reflected_rule`` or the configured override.
    It is all worked out, and checked, before anything is built.  The direct
    channel goes first as the table's reference rows; the materials' scale
    builds no direct channel, so the order changes no value or node count."""
    cfg = context.config
    rule = reflected_rule if cfg.spacing_rule == "default" else cfg.spacing_rule
    blank = [name for name in cfg.materials if material_by_name(name).is_homogeneous]
    if blank and cfg.normalization == "SelfSum":
        raise ConfigError([f"material {blank[0]!r} reflects nothing, so its channel "
                           f"is zero and normalization = SelfSum cannot scale it"])
    spacings = {r: [_spacing_of(context, r, bound) for bound in bounds]
                for r in (los_rule, rule)}
    return [("los", los_rule, spacings[los_rule]),
            *((name, rule, spacings[rule]) for name in cfg.materials)]


def _eigen_table(context: _Context, los_rule: str, reflected_rule: str) -> ResultTable:
    rows: list[tuple] = []
    for name, rule, spacings in _walk(context, los_rule, reflected_rule, [None]):
        (spectrum,) = context.spectra(name, rule, spacings)
        rows.extend((name, rule, index, float(value), float(db))
                    for index, (value, db) in enumerate(zip(spectrum.values, spectrum.db),
                                                        start=1))
    return ResultTable("eigenvalues", _EIGEN_COLUMNS, tuple(rows))


def _capacity_table(context: _Context, los_rule: str, reflected_rule: str) -> ResultTable:
    """Capacity over the SNR grid, each group's grid waterfilled in one
    call; each SNR's flat-spectrum bound, taken once, gives the SNR-matched
    spacings and the upper-bound row."""
    cfg = context.config
    snrs = [10.0 ** (snr_db / 10.0) for snr_db in cfg.snr_grid_db]
    bounds = [dof_bound(cfg.antennas, snr) for snr in snrs]
    rows: list[tuple] = []
    for name, rule, spacings in _walk(context, los_rule, reflected_rule, bounds):
        spectra = context.spectra(name, rule, spacings)
        capacities = _waterfill_rows(np.stack([s.values for s in spectra]), np.array(snrs))[0]
        rows.extend((name, rule, snr_db, float(capacity))
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
