"""Diagnostics reduced from sampled site populations.

Covers the quantities the experiments are judged by: population confined to
the pair-lattice main diagonal, breathing width of the light distribution,
refocusing positions and the oscillation frequency they imply, and the
eigenvalue ladder spacing of a tilted chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError
from .model import HermitianOperator, diagonal_indices, square_side

#: A sample whose boundary population exceeds this marks a series truncated.
EDGE_TRUNCATION_TOL = 1e-3

#: Default refocus detection threshold on a return-probability series.
REFOCUS_THRESHOLD = 0.8


class Populations(NamedTuple):
    """Site populations |c|^2, one row per z sample: what every observable reads.

    A :class:`~fracbloch.propagator.Trajectory` offers the same two fields;
    this record carries populations that come without phases, such as a
    trajectory CSV read back from disk.
    """

    z_samples: np.ndarray
    probabilities: np.ndarray


@dataclass(frozen=True)
class ObservableSeries:
    """Scalar diagnostic sampled along z. NaN marks undefined samples."""

    z_samples: np.ndarray
    values: np.ndarray
    label: str
    truncated: bool = False

    def __post_init__(self):
        z = np.asarray(self.z_samples, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if z.ndim != 1 or v.shape != z.shape:
            raise InvalidParameterError("z_samples and values must match 1D shapes")
        if z.size == 0:
            raise InvalidParameterError("series must not be empty")
        if np.any(np.diff(z) <= 0):
            raise InvalidParameterError("z samples must be strictly increasing")
        z = z.copy()
        v = v.copy()
        z.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "z_samples", z)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class RefocusReport:
    """Refocus positions with the period/frequency they imply."""

    refocus_positions: tuple[float, ...]
    peak_values: tuple[float, ...]
    period_estimate: float | None
    frequency_estimate: float | None

    def __post_init__(self):
        pos = tuple(float(p) for p in self.refocus_positions)
        peaks = tuple(float(p) for p in self.peak_values)
        if len(pos) != len(peaks):
            raise InvalidParameterError("positions and peak values must pair up")
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise InvalidParameterError("refocus positions must strictly increase")
        if any(not 0.0 <= p <= 1.0 for p in peaks):
            raise InvalidParameterError("peak values must lie in [0, 1]")
        if (self.period_estimate is None) != (self.frequency_estimate is None):
            raise InvalidParameterError("period and frequency must be set together")
        object.__setattr__(self, "refocus_positions", pos)
        object.__setattr__(self, "peak_values", peaks)


def diagonal_confinement(traj, n_sites: int) -> ObservableSeries:
    """Total population on the pair-lattice main diagonal, sum_n |c_nn|^2."""
    probs = traj.probabilities
    if probs.shape[1] != n_sites * n_sites:
        raise InvalidParameterError(
            f"trajectory dimension {probs.shape[1]} is not {n_sites}^2"
        )
    values = np.sum(probs[:, diagonal_indices(n_sites)], axis=1)
    return ObservableSeries(traj.z_samples, values, "diagonal_confinement")


def breathing_width(traj, geometry: str = "1d", origin: int | None = None) -> ObservableSeries:
    """RMS displacement from the excitation site, in site units.

    For ``geometry="2d-diagonal"`` the width is measured along the main
    diagonal from the populations |c_nn|^2 renormalized by the diagonal
    confinement; samples with no diagonal population are flagged NaN.
    """
    populations = traj.probabilities
    if geometry == "1d":
        coords = np.arange(populations.shape[1])
    elif geometry == "2d-diagonal":
        n = square_side(populations.shape[1])
        populations = populations[:, diagonal_indices(n)]
        weight = populations.sum(axis=1)
        safe = np.where(weight > 1e-15, weight, np.nan)
        populations = populations / safe[:, None]
        coords = np.arange(n)
    else:
        raise InvalidParameterError(f"unknown geometry {geometry!r}")
    if origin is None:
        origin = int(np.argmax(populations[0]))
    values = np.sqrt(populations @ (coords - origin) ** 2)
    return ObservableSeries(traj.z_samples, values, f"breathing_width[{geometry}]")


def participation_ratio(traj) -> ObservableSeries:
    """Inverse participation ratio 1 / sum_i p_i^2; secondary width diagnostic."""
    return ObservableSeries(
        traj.z_samples,
        1.0 / np.sum(traj.probabilities**2, axis=1),
        "participation_ratio",
    )


def boundary_population(traj, geometry: str) -> ObservableSeries:
    """Total population on the open-boundary sites (truncation monitor)."""
    probs = traj.probabilities
    if geometry == "1d":
        edges = np.array([0, probs.shape[1] - 1])
    elif geometry == "2d":
        n = square_side(probs.shape[1])
        on_edge = np.ones((n, n), dtype=bool)
        on_edge[1:-1, 1:-1] = False
        edges = np.flatnonzero(on_edge)
    else:
        raise InvalidParameterError(f"unknown geometry {geometry!r}")
    values = np.sum(probs[:, edges], axis=1)
    return ObservableSeries(traj.z_samples, values, "boundary_population")


def _parabolic_vertex(z: np.ndarray, v: np.ndarray, k: int) -> tuple[float, float]:
    """Vertex of the parabola through samples k-1, k, k+1 (grids may be uneven)."""
    z0, z1, z2 = z[k - 1], z[k], z[k + 1]
    v0, v1, v2 = v[k - 1], v[k], v[k + 1]
    denom = (z0 - z1) * (z0 - z2) * (z1 - z2)
    a = (z2 * (v1 - v0) + z1 * (v0 - v2) + z0 * (v2 - v1)) / denom
    b = (z2**2 * (v0 - v1) + z1**2 * (v2 - v0) + z0**2 * (v1 - v2)) / denom
    if a >= 0:  # degenerate (flat or concave-up); keep the sample itself
        return float(z1), float(v1)
    zv = -b / (2.0 * a)
    c = v1 - a * z1**2 - b * z1
    return float(zv), float(a * zv**2 + b * zv + c)


def find_refocus(series: ObservableSeries, threshold: float = REFOCUS_THRESHOLD) -> RefocusReport:
    """Locate refocusing events in a return-probability series.

    Interior strict local maxima at or above the threshold are refined by
    parabolic interpolation of the three nearest samples. The initial sample
    counts as a refocus when it is at threshold and strictly above its
    successor (a delta excitation starts refocused), so a single revival
    inside the device length still defines a period. The period estimate is
    the mean gap between consecutive positions (absent with fewer than two).
    """
    if not 0.0 < threshold < 1.0:
        raise InvalidParameterError(f"threshold must lie in (0, 1), got {threshold}")
    z, v = series.z_samples, series.values
    if z.size < 2:
        raise InvalidParameterError("series too short for refocus detection")
    positions: list[float] = []
    peaks: list[float] = []
    if v[0] >= threshold and v[0] > v[1]:
        positions.append(float(z[0]))
        peaks.append(float(min(v[0], 1.0)))
    for k in range(1, z.size - 1):
        if v[k] >= threshold and v[k] > v[k - 1] and v[k] > v[k + 1]:
            zv, vv = _parabolic_vertex(z, v, k)
            positions.append(zv)
            peaks.append(float(np.clip(vv, 0.0, 1.0)))
    period = frequency = None
    if len(positions) >= 2:
        gaps = np.diff(positions)
        period = float(np.mean(gaps))
        frequency = 2.0 * math.pi / period
    return RefocusReport(
        refocus_positions=tuple(positions),
        peak_values=tuple(peaks),
        period_estimate=period,
        frequency_estimate=frequency,
    )


def strongest_interior_peak(series: ObservableSeries) -> tuple[float, float] | None:
    """Position and value of the highest interior local maximum, refined.

    Threshold-free companion of :func:`find_refocus`; returns None when the
    series has no interior local maximum at all.
    """
    z, v = series.z_samples, series.values
    best: tuple[float, float] | None = None
    for k in range(1, z.size - 1):
        if v[k] > v[k - 1] and v[k] > v[k + 1]:
            zv, vv = _parabolic_vertex(z, v, k)
            if best is None or vv > best[1]:
                best = (zv, vv)
    return best


def period_from_width_maximum(width_series: ObservableSeries) -> RefocusReport:
    """Oscillation period as twice the position of the width maximum.

    Used when no full revival fits inside the device length: the breathing
    maximum sits at half the revival period.
    """
    z, v = width_series.z_samples, width_series.values
    finite = np.isfinite(v)
    if not np.any(finite):
        raise InvalidParameterError("width series has no finite samples")
    k = int(np.nanargmax(v))
    if 0 < k < z.size - 1 and np.all(finite[k - 1 : k + 2]):
        z_peak, _ = _parabolic_vertex(z, v, k)
    else:
        z_peak = float(z[k])
    if z_peak <= 0:
        raise InvalidParameterError("width maximum at z = 0 defines no period")
    period = 2.0 * z_peak
    return RefocusReport(
        refocus_positions=(),
        peak_values=(),
        period_estimate=period,
        frequency_estimate=2.0 * math.pi / period,
    )


def frequency_ratio(pair_report: RefocusReport, single_report: RefocusReport) -> float:
    """Ratio of oscillation frequencies, pair over single."""
    if pair_report.frequency_estimate is None or single_report.frequency_estimate is None:
        raise InvalidParameterError("both reports must carry frequency estimates")
    return pair_report.frequency_estimate / single_report.frequency_estimate


def wannier_stark_spacing(
    h: HermitianOperator, interior_fraction: float
) -> tuple[float, float]:
    """Mean and spread of consecutive eigenvalue gaps in the spectrum center.

    Sorts the eigenvalues, keeps the central ``interior_fraction`` of them,
    and returns (mean, standard deviation) of the consecutive differences.
    Edge-localized states are excluded this way, exposing the equally spaced
    ladder of the tilted chain.
    """
    if not 0.0 < interior_fraction <= 1.0:
        raise InvalidParameterError(
            f"interior_fraction must lie in (0, 1], got {interior_fraction}"
        )
    dim = h.dim
    keep = int(round(dim * interior_fraction))
    if keep < 3:
        raise InvalidParameterError(
            f"only {keep} interior eigenvalues selected; need at least 3"
        )
    eigenvalues = np.sort(np.linalg.eigvalsh(h.entries))
    start = (dim - keep) // 2
    gaps = np.diff(eigenvalues[start : start + keep])
    return float(np.mean(gaps)), float(np.std(gaps))
