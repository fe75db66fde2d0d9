"""Waterfilling capacity over an eigenvalue spectrum and the flat-spectrum
upper bound attained by concentrating the total channel gain on an optimal
number of identical eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import _count_problem


@dataclass(frozen=True, eq=False)
class CapacityResult:
    """Waterfilling solution: capacity in bits/s/Hz plus the allocation."""

    snr: float
    capacity: float
    water_level: float
    powers: np.ndarray


@dataclass(frozen=True)
class DofBound:
    """Upper bound over all spectra with the same total gain: ``rho_star``
    identical eigenvalues of size N^2 / rho_star each."""

    snr: float
    rho_star: int
    bound: float


def _spectrum_values(spectrum: object) -> np.ndarray:
    values = getattr(spectrum, "values", spectrum)
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        msg = f"expected a 1-D eigenvalue array, got shape {arr.shape}"
        raise ValueError(msg)
    if not np.all(np.isfinite(arr)):
        raise ValueError("eigenvalues must be finite")
    if np.any(arr < -1e-12 * max(arr.max(initial=0.0), 1.0)):
        raise ValueError("eigenvalues must be nonnegative")
    return np.maximum(arr, 0.0)


def waterfill(spectrum: object, snr: float) -> CapacityResult:
    """Capacity-optimal power allocation for a total transmit SNR.

    The water level is found by the exact active-set procedure: eigenvalues
    are sorted descending, the candidate level for the top k modes is
    (snr + sum 1/lambda) / k, and the largest k whose level still covers its
    weakest active mode wins.  No iteration tolerance is involved, so the
    power constraint holds to round-off.  This is the one-row case of the
    row-wise core that waterfills a whole SNR grid in one call.
    """
    if not 0.0 < snr < math.inf:
        msg = f"snr must be finite and > 0, got {snr!r}"
        raise ValueError(msg)
    values = _spectrum_values(spectrum)
    capacity, level, powers = _waterfill_rows(values[None, :], np.array([snr]))
    if level[0] == 0.0:
        raise ValueError("all-zero spectrum has no capacity")
    return CapacityResult(snr=snr, capacity=float(capacity[0]), water_level=float(level[0]),
                          powers=powers[0])


def _waterfill_rows(values: np.ndarray, snr: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                                  np.ndarray]:
    """Waterfilling of each row of the nonnegative eigenvalues ``values``
    at its own total SNR ``snr[i]``: the capacities, water levels and
    powers of :func:`waterfill`, row by row.  A row with no positive
    eigenvalue gets capacity, level and powers 0."""
    order = np.argsort(values, axis=1)[:, ::-1]
    lam = np.take_along_axis(values, order, axis=1)
    # Eigenvalues so small that 1/lambda overflows can never rise above any
    # finite water level; treat them as zero modes.
    positive = lam > np.finfo(float).tiny
    inverse = np.divide(1.0, lam, out=np.full(lam.shape, np.inf), where=positive)
    levels = (snr[:, None] + np.cumsum(inverse, axis=1)) / np.arange(1, lam.shape[1] + 1)
    feasible = positive & (levels >= inverse)
    found = feasible.any(axis=1)
    last = lam.shape[1] - 1 - np.argmax(feasible[:, ::-1], axis=1)  # the weakest active mode
    level = np.where(found, levels[np.arange(len(lam)), last], 0.0)
    active = found[:, None] & (np.arange(lam.shape[1]) <= last[:, None])
    sorted_powers = np.where(active, level[:, None] - inverse, 0.0)
    capacity = np.log2(level[:, None] * lam, out=np.zeros(lam.shape), where=active).sum(axis=1)
    powers = np.empty_like(sorted_powers)
    np.put_along_axis(powers, order, sorted_powers, axis=1)
    return capacity, level, powers


def dof_bound(count: int, snr: float) -> DofBound:
    """Exhaustive scan of rho * log2(1 + snr N^2 / rho^2) over rho = 1..N.

    Ties go to the larger stream count so the matched antenna spacing is
    well defined at crossover SNRs.
    """
    if problem := _count_problem("count", count, 1):
        raise ValueError(problem)
    if not 0.0 < snr < math.inf:
        msg = f"snr must be finite and > 0, got {snr!r}"
        raise ValueError(msg)
    best_rho = 1
    best = -math.inf
    for rho in range(1, count + 1):
        value = rho * math.log2(1.0 + snr * count * count / (rho * rho))
        if value >= best:
            best = value
            best_rho = rho
    return DofBound(snr=snr, rho_star=best_rho, bound=best)


def optimal_stream_count(count: int, snr: float) -> int:
    """Stream count maximizing the flat-spectrum bound at this SNR."""
    return dof_bound(count, snr).rho_star
