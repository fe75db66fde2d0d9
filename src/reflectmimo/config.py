"""Experiment configuration: a flat key=value text format with units in the
key names, validated before any computation.

Values are stored in the file's units (GHz, m, dB) so that emitting a config
as text and parsing it back is bit-exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .materials import VACUUM, Medium, material_by_name
from .quadrature import QuadratureSpec, _count_problem
from .spectrum import SceneConfig, SceneError

SPACING_RULES = ("rayleigh_D", "rayleigh_De", "snr_dependent_D", "snr_dependent_De")
NORMALIZATIONS = ("SelfSum", "RelativeToLOS")

_DEFAULT_MATERIALS = ("perfect_conductor", "concrete", "floor_board", "plaster_board")
_DEFAULT_SNR_GRID = tuple(float(db) for db in range(-10, 41, 2))
MAX_SNR_POINTS = 10_000
"""Most points an ``snr_grid_db`` range start:stop:step may expand to."""


class ConfigError(ValueError):
    """Invalid configuration; ``violations`` lists every failed constraint."""

    def __init__(self, violations: list[str]) -> None:
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs shared by all named experiments.

    ``spacing_rule`` of ``"default"`` lets each experiment pick its own
    published rule; an explicit rule overrides the spacing used for
    reflected channels.
    """

    frequency_ghz: float = 57.5
    d1_m: float = 15.0
    range_m: float = 10.0
    antennas: int = 8
    materials: tuple[str, ...] = _DEFAULT_MATERIALS
    snr_grid_db: tuple[float, ...] = _DEFAULT_SNR_GRID
    spacing_rule: str = "default"
    normalization: str = "RelativeToLOS"
    n_alpha: int | None = None

    @property
    def frequency_hz(self) -> float:
        return self.frequency_ghz * 1e9

    @property
    def equivalent_range_m(self) -> float:
        return 2.0 * self.d1_m - self.range_m

    @property
    def quadrature(self) -> QuadratureSpec | None:
        if self.n_alpha is None:
            return None
        return QuadratureSpec(n_alpha=self.n_alpha)

    def validate(self) -> None:
        """Raise :class:`ConfigError` listing every violated constraint."""
        problems: list[str] = []
        if not (self.frequency_ghz > 0.0 and math.isfinite(self.frequency_ghz)):
            problems.append(f"frequency_ghz must be positive, got {self.frequency_ghz!r}")
        if not (self.d1_m > 0.0 and math.isfinite(self.d1_m)):
            problems.append(f"d1_m must be positive, got {self.d1_m!r}")
        if not (0.0 < self.range_m <= self.d1_m):
            problems.append(
                f"range_m must satisfy 0 < range_m <= d1_m, got {self.range_m!r}"
            )
        if problem := _count_problem("antennas", self.antennas, 1):
            problems.append(problem)
        if not self.materials:
            problems.append("materials must be non-empty")
        spelled: dict[str, str] = {}  # catalog name -> the entry that named it first
        for name in self.materials:
            try:
                canonical = material_by_name(name).name
            except ValueError:
                problems.append(f"unknown material {name!r}")
                continue
            if canonical in spelled:
                problems.append(f"materials lists {spelled[canonical]!r} and {name!r}, "
                                f"which name the same material {canonical!r}")
            spelled.setdefault(canonical, name)
        if not self.snr_grid_db:
            problems.append("snr_grid_db must be non-empty")
        elif any(not math.isfinite(db) for db in self.snr_grid_db):
            problems.append("snr_grid_db entries must be finite")
        else:
            outside = [db for db in self.snr_grid_db if not 0.0 < _linear(db) < math.inf]
            if outside:
                problems.append(
                    f"snr_grid_db entries must have a positive, finite 10^(dB/10), "
                    f"got {outside[0]!r}"
                )
        if self.spacing_rule != "default" and self.spacing_rule not in SPACING_RULES:
            problems.append(
                f"spacing_rule must be 'default' or one of {SPACING_RULES}, "
                f"got {self.spacing_rule!r}"
            )
        if self.normalization not in NORMALIZATIONS:
            problems.append(
                f"normalization must be one of {NORMALIZATIONS}, "
                f"got {self.normalization!r}"
            )
        if self.n_alpha is not None and (problem := _count_problem("n_alpha", self.n_alpha, 2)):
            problems.append(problem)
        if not problems:
            # Scene guards (surface clearance) depend on the wavelength, so
            # they can only run once the scalar fields are sane.
            try:
                SceneConfig(
                    medium=Medium(self.frequency_hz, VACUUM),
                    surface_z=self.d1_m,
                    source_z=0.0,
                    receiver_z=self.range_m,
                )
            except SceneError as exc:
                problems.extend(exc.violations)
        if problems:
            raise ConfigError(problems)


def _linear(db: float) -> float:
    """10^(dB/10), or inf where that overflows."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def _parse_snr_grid(text: str) -> tuple[float, ...]:
    """A comma list, or a range start:stop:step of at most
    ``MAX_SNR_POINTS`` points, counted before any is built."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            msg = f"snr_grid_db range must be start:stop:step, got {text!r}"
            raise ValueError(msg)
        start, stop, step = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            msg = f"snr_grid_db range must be finite, got {text!r}"
            raise ValueError(msg)
        if step <= 0.0:
            msg = f"snr_grid_db range step must be positive, got {step!r}"
            raise ValueError(msg)
        steps = (stop - start) / step + 1e-9  # may overflow to +-inf
        if not steps < MAX_SNR_POINTS:
            msg = f"snr_grid_db range {text!r} has more than {MAX_SNR_POINTS} points"
            raise ValueError(msg)
        if steps < 0.0:
            msg = f"empty snr_grid_db range {text!r}"
            raise ValueError(msg)
        return tuple(start + i * step for i in range(math.floor(steps) + 1))
    return tuple(float(p) for p in text.split(",") if p.strip())


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


# Each key's parser of its file text and writer of its stored value, in the
# order config_to_text writes them.
_KEYS = {
    "frequency_ghz": (float, repr),
    "d1_m": (float, repr),
    "range_m": (float, repr),
    "antennas": (int, str),
    "materials": (_parse_names, ",".join),
    "snr_grid_db": (_parse_snr_grid, lambda grid: ",".join(map(repr, grid))),
    "spacing_rule": (str, str),
    "normalization": (str, str),
    "n_alpha": (int, str),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat ``key = value`` lines; ``#`` starts a comment."""
    problems: list[str] = []
    fields: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected key = value, got {raw.strip()!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        try:
            fields[key] = _KEYS[key][0](value)
        except ValueError as exc:
            problems.append(f"line {lineno}: {exc}")
    if problems:
        raise ConfigError(problems)
    config = ExperimentConfig(**fields)
    config.validate()
    return config


def config_to_text(config: ExperimentConfig) -> str:
    """Canonical text form, one line per set key; ``parse_config`` of the
    result reproduces ``config`` exactly."""
    return "".join(f"{key} = {write(value)}\n" for key, (_, write) in _KEYS.items()
                   if (value := getattr(config, key)) is not None)


def _read_config(path: str | Path) -> tuple[ExperimentConfig, str | None]:
    """The config in a file, and the text a run echoes for it: the file's
    own text for a flat config, or ``None`` for emitted JSON results, whose
    provenance block holds the exact config text (echoed canonically)."""
    name = repr(str(path))
    try:
        content = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError([f"cannot read config file {name}: {exc.strerror}"]) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError([f"config file {name} is not UTF-8 text: {exc.reason}"]) from exc
    if not content.lstrip().startswith("{"):
        return parse_config(content), content
    try:
        text = json.loads(content)["provenance"]["config_text"]
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config file {name} is not valid JSON: {exc}"]) from exc
    except (KeyError, TypeError) as exc:
        raise ConfigError([f"JSON config file {name} lacks provenance.config_text"]) from exc
    if not isinstance(text, str):
        raise ConfigError([f"JSON config file {name} has a provenance.config_text "
                           f"that is not text but {type(text).__name__}"])
    return parse_config(text), None


def load_config(path: str | Path) -> ExperimentConfig:
    """Load a config from flat text, or recover one from emitted JSON
    results."""
    return _read_config(path)[0]
