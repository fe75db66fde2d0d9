"""Benchmark workloads: seeded inputs, one timed pass, and output oracles.

Every pass calls only public entry points: ``reflectmimo.cli.main`` for the
experiment workloads and ``reflectmimo.synthesize_impulse`` for the point
workload.  Oracles never reuse the code under test: channel matrices come
from the closed-form LOS and image fields (``los_impulse``), eigenvalues
from LAPACK, and waterfilling, stream counts and spacings from the formulas
restated here.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reflectmimo
from reflectmimo import cli

MAX_REL_ERR = 1e-3
"""Accepted oracle error (the acceptance gate's criteria 3 and 4 level)."""

REFLECTIVITY_TOL = 0.10
"""Dielectric vs |R(0)|^2 x conductor spectrum, per eigenvalue (criterion 7)."""

_SUM_TOL = 1e-9
_BOUND_SLACK = 1e-9
_DEFAULT_SNR_GRID_DB = tuple(float(db) for db in range(-10, 41, 2))
_CONDUCTOR = "perfect_conductor"


@dataclass
class PassResult:
    """One timed pass: its wall time, per-operation latencies and checks."""

    seconds: float
    latencies: list[float]
    attempted: int = 0
    failed: int = 0
    max_rel_err: float = 0.0
    failures: list[str] = field(default_factory=list)
    outputs: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def compare(self, label: str, value, reference, scale: float) -> None:
        """Record the worst relative error against an oracle value."""
        err = float(np.max(np.abs(np.asarray(value) - reference))) / scale
        self.max_rel_err = max(self.max_rel_err, err)
        if not err <= MAX_REL_ERR:
            self.fail(f"{label}: rel err {err:.3g} against the oracle")


# --------------------------------------------------------------------------
# Independent oracles


def closed_form_channel(frequency_hz: float, antennas: int, spacing: float,
                        range_m: float, d1_m: float | None) -> np.ndarray:
    """Closed-form ULA channel: the LOS field, or with ``d1_m`` the
    sign-flipped field of the source mirrored through the conductor."""
    medium = reflectmimo.Medium(frequency_hz, reflectmimo.VACUUM)
    xs = (np.arange(antennas) - (antennas - 1) / 2.0) * spacing
    source_z = 0.0 if d1_m is None else 2.0 * d1_m
    sign = 1.0 if d1_m is None else -1.0
    entries = np.empty((antennas, antennas), dtype=complex)
    for m, rx in enumerate(xs):
        for n, tx in enumerate(xs):
            entries[m, n] = sign * reflectmimo.los_impulse(
                medium, (rx, 0.0, range_m), (tx, 0.0, source_z),
            )
    return entries


def gram_eigenvalues(entries: np.ndarray) -> np.ndarray:
    """Descending nonnegative eigenvalues of H H* by LAPACK."""
    values = np.linalg.eigvalsh(entries @ entries.conj().T)[::-1]
    return np.maximum(values, 0.0)


def stream_count(antennas: int, snr: float) -> int:
    """argmax over rho of rho log2(1 + snr N^2 / rho^2); ties to larger rho."""
    best_rho, best = 1, -math.inf
    for rho in range(1, antennas + 1):
        value = rho * math.log2(1.0 + snr * antennas * antennas / (rho * rho))
        if value >= best:
            best_rho, best = rho, value
    return best_rho


def flat_bound(antennas: int, snr: float) -> float:
    rho = stream_count(antennas, snr)
    return rho * math.log2(1.0 + snr * antennas * antennas / (rho * rho))


def rayleigh_spacing(wavelength: float, distance: float, antennas: int) -> float:
    return math.sqrt(wavelength * distance / antennas)


def snr_spacing(wavelength: float, distance: float, antennas: int, snr: float) -> float:
    rho = stream_count(antennas, snr)
    return math.sqrt(rho / antennas) * rayleigh_spacing(wavelength, distance, antennas)


def waterfill_capacity(values: np.ndarray, snr: float) -> float:
    """Capacity of the water level that exactly spends ``snr`` on the
    strongest modes it covers."""
    lam = np.sort(values[values > 0.0])[::-1]
    if lam.size == 0:
        return 0.0
    for k in range(lam.size, 0, -1):
        level = (snr + float(np.sum(1.0 / lam[:k]))) / k
        if level >= 1.0 / lam[k - 1]:
            return float(np.sum(np.log2(level * lam[:k])))
    raise AssertionError("no feasible water level")


def specular_reflectivity(material) -> float:
    """|R(0)|^2 at normal incidence from the refractive index."""
    mu = material.permeability_ratio
    n = material.refractive_index
    return ((mu - n) / (mu + n)) ** 2


# --------------------------------------------------------------------------
# Experiment workloads: `reflectmimo run <fig> --config FILE`


@dataclass(frozen=True)
class Geometry:
    frequency_ghz: float
    antennas: int
    d1_m: float
    range_m: float

    @property
    def frequency_hz(self) -> float:
        return self.frequency_ghz * 1e9

    @property
    def wavelength(self) -> float:
        return reflectmimo.SPEED_OF_LIGHT / self.frequency_hz

    @property
    def mirrored_range_m(self) -> float:
        return 2.0 * self.d1_m - self.range_m

    def config_text(self) -> str:
        return (
            f"frequency_ghz = {self.frequency_ghz!r}\n"
            f"d1_m = {self.d1_m!r}\n"
            f"range_m = {self.range_m!r}\n"
            f"antennas = {self.antennas}\n"
        )

    def spectrum(self, spacing: float, conductor: bool, cache: dict) -> np.ndarray:
        """Closed-form spectrum on the experiments' scale: the LOS channel
        self-sum normalized to N^2, the conductor channel scaled like the
        LOS channel of the same spacing (RelativeToLOS)."""
        key = (spacing, conductor)
        if key not in cache:
            n = self.antennas
            los = gram_eigenvalues(closed_form_channel(
                self.frequency_hz, n, spacing, self.range_m, None))
            raw = los if not conductor else gram_eigenvalues(closed_form_channel(
                self.frequency_hz, n, spacing, self.range_m, self.d1_m))
            cache[key] = raw * (n * n / los.sum())
        return cache[key]


def jittered_geometry(seed: int, frequency_ghz: float, antennas: int) -> Geometry:
    """Seed 0 is the paper geometry; other seeds move d1 and range by up
    to 1% each."""
    if seed == 0:
        return Geometry(frequency_ghz, antennas, 15.0, 10.0)
    jitter = np.random.default_rng(seed).uniform(-0.01, 0.01, 2)
    return Geometry(frequency_ghz, antennas, 15.0 * (1.0 + float(jitter[0])),
                    10.0 * (1.0 + float(jitter[1])))


def _read_rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _group(rows: list[dict], value_key: str) -> dict[str, list[float]]:
    groups: dict[str, list[float]] = {}
    for row in rows:
        groups.setdefault(row["material"], []).append(float(row[value_key]))
    return groups


def check_capacity_table(geometry: Geometry, rows: list[dict],
                         result: PassResult, cache: dict) -> None:
    """fig5: LOS and conductor capacities against closed-form channels;
    every capacity finite, nonnegative and below the flat-spectrum bound."""
    n = geometry.antennas
    groups = _group(rows, "bits_per_s_hz")
    snrs = [10.0 ** (db / 10.0) for db in _DEFAULT_SNR_GRID_DB]
    bounds = groups.get("upper_bound", [])
    if len(bounds) != len(snrs):
        result.fail(f"upper_bound has {len(bounds)} rows, expected {len(snrs)}")
        return
    for snr, bound in zip(snrs, bounds):
        reference = flat_bound(n, snr)
        result.compare(f"upper_bound at snr={snr:.4g}", bound, reference, reference)
    for material, values in groups.items():
        if len(values) != len(snrs):
            result.fail(f"{material}: {len(values)} rows, expected {len(snrs)}")
            continue
        for snr, value, bound in zip(snrs, values, bounds):
            if not (math.isfinite(value) and value >= 0.0):
                result.fail(f"{material}: capacity {value!r} at snr={snr:.4g}")
            elif value > bound * (1.0 + _BOUND_SLACK):
                result.fail(f"{material}: {value} above bound {bound} at snr={snr:.4g}")
    for material, distance in (("los", geometry.range_m),
                               (_CONDUCTOR, geometry.mirrored_range_m)):
        if material not in groups:
            result.fail(f"missing {material} rows")
            continue
        for snr, value in zip(snrs, groups[material]):
            spacing = snr_spacing(geometry.wavelength, distance, n, snr)
            values = geometry.spectrum(spacing, material == _CONDUCTOR, cache)
            reference = waterfill_capacity(values, snr)
            result.compare(f"{material} capacity at snr={snr:.4g}", value,
                           reference, reference)


def check_eigen_table(geometry: Geometry, rows: list[dict],
                      result: PassResult, cache: dict) -> None:
    """fig4: LOS and conductor spectra against closed-form channels; every
    spectrum descending and nonnegative; LOS self-sum equal to N^2; each
    dielectric spectrum |R(0)|^2 times the conductor spectrum within 10%."""
    n = geometry.antennas
    groups = {k: np.asarray(v) for k, v in _group(rows, "lambda").items()}
    for material, values in groups.items():
        if values.size != n:
            result.fail(f"{material}: {values.size} eigenvalues, expected {n}")
        elif not np.all(np.isfinite(values)) or np.any(values < 0.0):
            result.fail(f"{material}: non-finite or negative eigenvalue")
        elif np.any(np.diff(values) > 0.0):
            result.fail(f"{material}: eigenvalues not descending")
    if any(values.size != n for values in groups.values()):
        return
    for material, distance in (("los", geometry.range_m),
                               (_CONDUCTOR, geometry.mirrored_range_m)):
        if material not in groups:
            result.fail(f"missing {material} rows")
            continue
        spacing = rayleigh_spacing(geometry.wavelength, distance, n)
        reference = geometry.spectrum(spacing, material == _CONDUCTOR, cache)
        result.compare(f"{material} eigenvalues", groups[material], reference,
                       float(reference.max()))
    if "los" not in groups:
        return
    total = float(groups["los"].sum())
    if abs(total - n * n) > _SUM_TOL * n * n:
        result.fail(f"los self-sum {total!r} != {n * n}")
    conductor = groups.get(_CONDUCTOR)
    for material, values in groups.items():
        if material in ("los", _CONDUCTOR) or conductor is None:
            continue
        scaled = specular_reflectivity(reflectmimo.material_by_name(material)) * conductor
        deviation = float(np.max(np.abs(values / scaled - 1.0)))
        if deviation > REFLECTIVITY_TOL:
            result.fail(f"{material}: {deviation:.3f} off |R(0)|^2 x conductor")


class ExperimentWorkload:
    """Repeated `reflectmimo run <experiment>` on one seeded config.

    Each pass calls the CLI entry point afresh, so per-run caches are paid
    every pass as they are for CLI users.  The first pass's output is
    checked against the oracles and every later pass must reproduce it
    byte for byte."""

    def __init__(self, experiment: str, table: str, frequency_ghz: float,
                 antennas: int, checker) -> None:
        self.experiment = experiment
        self.table = table
        self.frequency_ghz = frequency_ghz
        self.antennas = antennas
        self.checker = checker

    def prepare(self, seed: int, out_dir: Path) -> None:
        self.geometry = jittered_geometry(seed, self.frequency_ghz, self.antennas)
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = out_dir / "config.txt"
        self.config_path.write_text(self.geometry.config_text(), encoding="utf-8")
        self.csv_path = out_dir / f"{self.experiment}_{self.table}.csv"
        self._reference_bytes: bytes | None = None
        self._reference_err = 0.0
        self._oracle_cache: dict = {}

    def describe(self) -> dict:
        return {"config": self.geometry.config_text()}

    def make_inputs(self, index: int) -> list[str]:
        self.csv_path.unlink(missing_ok=True)
        return ["run", self.experiment, "--config", str(self.config_path),
                "--out", str(self.out_dir)]

    def execute(self, argv: list[str]) -> PassResult:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a raising run is a failed operation
                code = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        result = PassResult(seconds=seconds, latencies=[seconds], attempted=1)
        if code != 0:
            result.fail(f"run returned {code}")
        return result

    def check(self, argv: list[str], result: PassResult) -> None:
        if not result.failures:  # a failed run leaves nothing to check
            self._check_output(result)
        result.failed = int(bool(result.failures))

    def _check_output(self, result: PassResult) -> None:
        if not self.csv_path.exists():
            result.fail(f"{self.csv_path.name} was not written")
            return
        output = self.csv_path.read_bytes()
        if self._reference_bytes is None:
            self.checker(self.geometry, _read_rows(self.csv_path), result,
                         self._oracle_cache)
            self._reference_bytes = output
            self._reference_err = result.max_rel_err
        else:
            if output != self._reference_bytes:
                result.fail("output differs from the first pass")
            result.max_rel_err = self._reference_err


# --------------------------------------------------------------------------
# Point workload: single seeded synthesize_impulse calls


FREQUENCIES_GHZ = (57.5, 140.0, 300.0)
CALLS_PER_CELL = 100
MAX_SPAN_M = 20.0
MAX_LAG_M = 1.0


@dataclass(frozen=True)
class PointCall:
    scene: object
    component: object
    lag: object
    spec: object
    reference: complex


def point_calls(seed: int, index: int) -> list[PointCall]:
    """Calls of pass ``index``: per (frequency, LOS | conductor reflection)
    cell, spans log-stratified on 10 wavelengths … 20 m and lags stratified
    on 0 … 1 m, so every seed and pass has the same cost profile while no
    call repeats."""
    rng = np.random.default_rng([seed, index])
    vacuum = reflectmimo.VACUUM
    calls: list[PointCall] = []
    for frequency_ghz in FREQUENCIES_GHZ:
        frequency = frequency_ghz * 1e9
        free = reflectmimo.Medium(frequency, vacuum)
        conductor = reflectmimo.Medium(frequency, reflectmimo.PERFECT_CONDUCTOR)
        shortest = 10.0 * free.wavelength
        for reflected in (False, True):
            u = (np.arange(CALLS_PER_CELL) + rng.random(CALLS_PER_CELL)) / CALLS_PER_CELL
            spans = shortest * (MAX_SPAN_M / shortest) ** u
            lags = MAX_LAG_M * (
                rng.permutation(CALLS_PER_CELL) + rng.random(CALLS_PER_CELL)
            ) / CALLS_PER_CELL
            for span, lag_x in zip(spans.tolist(), lags.tolist()):
                if reflected:
                    d1 = max(0.75 * span, shortest)
                    receiver_z = 2.0 * d1 - span
                    scene = reflectmimo.SceneConfig(
                        medium=conductor, surface_z=d1, source_z=0.0,
                        receiver_z=receiver_z,
                    )
                    component = reflectmimo.FieldComponent.REFLECTION_ONLY
                    reference = -reflectmimo.los_impulse(
                        free, (lag_x, 0.0, receiver_z), (0.0, 0.0, 2.0 * d1),
                    )
                else:
                    scene = reflectmimo.SceneConfig(
                        medium=free, surface_z=span + 1.0, source_z=0.0,
                        receiver_z=span,
                    )
                    component = reflectmimo.FieldComponent.LOS_ONLY
                    reference = reflectmimo.los_impulse(
                        free, (lag_x, 0.0, span), (0.0, 0.0, 0.0),
                    )
                spec = reflectmimo.estimate_nodes(
                    scene, lag_x, reflectmimo.oscillation_span(scene, component),
                )
                calls.append(PointCall(scene, component,
                                       reflectmimo.SpatialLag(x=lag_x), spec, reference))
    order = rng.permutation(len(calls))
    return [calls[i] for i in order]


class PointWorkload:
    """A pass is one fresh set of single-point syntheses, each timed alone
    and checked against the closed-form LOS or image field."""

    def prepare(self, seed: int, out_dir: Path) -> None:
        self.seed = seed

    def describe(self) -> dict:
        return {"calls_per_pass": len(FREQUENCIES_GHZ) * 2 * CALLS_PER_CELL,
                "frequencies_ghz": list(FREQUENCIES_GHZ),
                "max_span_m": MAX_SPAN_M, "max_lag_m": MAX_LAG_M}

    def make_inputs(self, index: int) -> list[PointCall]:
        return point_calls(self.seed, index)

    def execute(self, calls: list[PointCall]) -> PassResult:
        latencies: list[float] = []
        outcomes: list[complex | str] = []
        for call in calls:
            start = time.perf_counter()
            try:
                outcome = reflectmimo.synthesize_impulse(
                    call.scene, call.component, call.lag, call.spec,
                )
            except Exception as exc:  # a raising call is a failed operation
                outcome = f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - start)
            outcomes.append(outcome)
        return PassResult(seconds=sum(latencies), latencies=latencies,
                          attempted=len(calls), outputs=outcomes)

    def check(self, calls: list[PointCall], result: PassResult) -> None:
        for call, outcome in zip(calls, result.outputs):
            error = outcome if isinstance(outcome, str) else None  # str: the call raised
            if error is None and not (math.isfinite(outcome.real)
                                      and math.isfinite(outcome.imag)):
                error = f"non-finite value {outcome!r}"
            if error is None:
                err = abs(outcome - call.reference) / abs(call.reference)
                result.max_rel_err = max(result.max_rel_err, err)
                if err > MAX_REL_ERR:
                    error = f"rel err {err:.3g} at lag {call.lag.x} m"
            if error is not None:
                result.failed += 1
                result.fail(error)


WORKLOADS = {
    "capacity_sweep": lambda: ExperimentWorkload(
        "fig5", "capacity", 57.5, 16, check_capacity_table),
    "spectra_300ghz": lambda: ExperimentWorkload(
        "fig4", "eigenvalues", 300.0, 16, check_eigen_table),
    "point_synthesis": PointWorkload,
}
