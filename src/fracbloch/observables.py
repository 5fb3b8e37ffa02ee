"""Diagnostics reduced from sampled site populations.

Covers the quantities the experiments are judged by: population confined to
the pair-lattice main diagonal, breathing width of the light distribution,
and refocusing positions with the oscillation frequency they imply. Each
reads a :class:`~fracbloch.propagator.Trajectory`, from a run or from a
trajectory CSV read back, through its stored rows and column map.
:func:`summarize_populations` turns one into every summary field, with the
period policy, for both a run and the analysis of a trajectory CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .model import diagonal_indices, square_side

#: A sample whose boundary population exceeds this marks the run truncated.
EDGE_TRUNCATION_TOL = 1e-3

#: Default refocus detection threshold on a return-probability series.
REFOCUS_THRESHOLD = 0.8

#: The strongest interior return peak defines a period only when it recovers
#: at least this much probability (a majority refocus); lower bumps are
#: breathing residue, not revivals.
PEAK_PERIOD_MIN_RETURN = 0.5

#: Float elements of whole population rows expanded from stored columns at a time.
_EXPANDED_ELEMENTS = 1 << 17


def site_populations(pops, sites) -> np.ndarray:
    """The populations of one site or an index array of sites, one row per
    sample: rows[:, column[sites]]. A run's trajectory whose rows are not
    built yet synthesizes only the distinct stored columns asked for."""
    return pops._columns(pops.column[sites])


def _summed(pops, sites) -> np.ndarray:
    """The populations of the sites summed, one value per sample, site after
    site: the arithmetic of np.sum(rows[:, column[sites]], axis=1), whose
    fancy-indexed array numpy lays out site by site and adds in that order,
    without building that (samples, sites) array."""
    stored = pops.column[sites]
    _, first, inverse = np.unique(stored, return_index=True, return_inverse=True)
    populations = site_populations(pops, sites[first])  # each distinct column once
    total = populations[:, inverse[0]].copy()
    for k in inverse[1:].tolist():
        total += populations[:, k]
    return total


def per_sample(pops, reduce) -> np.ndarray:
    """reduce, a map from (samples, dim) whole population rows to one value
    per sample, over every sample: rows[:, column], expanded one block of
    samples at a time."""
    rows, column = pops.rows, pops.column
    step = max(1, _EXPANDED_ELEMENTS // column.size)
    return np.concatenate([
        reduce(np.take(rows[k : k + step], column, axis=1)) for k in range(0, len(rows), step)
    ])


@dataclass(frozen=True)
class ObservableSeries:
    """Scalar diagnostic sampled along z. NaN marks undefined samples."""

    z_samples: np.ndarray
    values: np.ndarray
    label: str

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


def return_probability(traj, site: int) -> ObservableSeries:
    """Population of one site along a trajectory."""
    if not 0 <= site < traj.dim:
        raise InvalidParameterError(f"site {site} outside [0, {traj.dim})")
    return ObservableSeries(
        z_samples=traj.z_samples,
        values=site_populations(traj, site),
        label=f"return_probability[site={site}]",
    )


def diagonal_confinement(traj, n_sites: int) -> ObservableSeries:
    """Total population on the pair-lattice main diagonal, sum_n |c_nn|^2."""
    if traj.dim != n_sites * n_sites:
        raise InvalidParameterError(f"trajectory dimension {traj.dim} is not {n_sites}^2")
    values = _summed(traj, diagonal_indices(n_sites))
    return ObservableSeries(traj.z_samples, values, "diagonal_confinement")


def breathing_width(traj, geometry: str = "1d") -> ObservableSeries:
    """RMS displacement from the excitation site, in site units.

    The excitation site is the brightest site of the first sample.

    For ``geometry="2d-diagonal"`` the width is measured along the main
    diagonal from the populations |c_nn|^2 renormalized by the diagonal
    confinement; samples with no diagonal population are flagged NaN.
    """
    if geometry == "1d":  # whole rows at once: BLAS rounds a row's product by the row count
        populations = np.take(traj.rows, traj.column, axis=1)
        coords = np.arange(traj.dim)
    elif geometry == "2d-diagonal":
        n = square_side(traj.dim)
        populations = site_populations(traj, diagonal_indices(n))
        weight = populations.sum(axis=1)
        safe = np.where(weight > 1e-15, weight, np.nan)
        populations = populations / safe[:, None]
        coords = np.arange(n)
    else:
        raise InvalidParameterError(f"unknown geometry {geometry!r}")
    origin = int(np.argmax(populations[0]))
    values = np.sqrt(populations @ (coords - origin) ** 2)
    return ObservableSeries(traj.z_samples, values, f"breathing_width[{geometry}]")


def participation_ratio(traj) -> ObservableSeries:
    """Inverse participation ratio 1 / sum_i p_i^2; secondary width diagnostic."""
    return ObservableSeries(
        traj.z_samples,
        1.0 / per_sample(traj, lambda populations: np.sum(populations**2, axis=1)),
        "participation_ratio",
    )


def boundary_population(traj, geometry: str) -> ObservableSeries:
    """Total population on the open-boundary sites (truncation monitor)."""
    if geometry == "1d":
        edges = np.array([0, traj.dim - 1])
    elif geometry == "2d":
        n = square_side(traj.dim)
        on_edge = np.ones((n, n), dtype=bool)
        on_edge[1:-1, 1:-1] = False
        edges = np.flatnonzero(on_edge)
    else:
        raise InvalidParameterError(f"unknown geometry {geometry!r}")
    values = _summed(traj, edges)
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


def _interior_maxima(v: np.ndarray) -> np.ndarray:
    """Indices k of the strict interior maxima, v[k-1] < v[k] > v[k+1]; NaN is none."""
    return np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1


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
    maxima = _interior_maxima(v)
    for k in maxima[v[maxima] >= threshold].tolist():
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
    series has no interior local maximum at all. Of equal refined values the
    first wins.
    """
    z, v = series.z_samples, series.values
    best: tuple[float, float] | None = None
    for k in _interior_maxima(v).tolist():
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


def _refocus_summary(return_series, width_series) -> dict:
    """The refocus report, and the period: the mean gap of the refocus peaks
    at or above REFOCUS_THRESHOLD; else, from a start at threshold, the
    strongest interior peak if it recovers PEAK_PERIOD_MIN_RETURN of the
    start; else twice the z of the width maximum."""
    report = find_refocus(return_series, REFOCUS_THRESHOLD)
    peak = strongest_interior_peak(return_series)
    start = return_series.values[0]
    period, source = report.period_estimate, "refocus"
    recovers = peak is not None and peak[0] > 0 and peak[1] >= PEAK_PERIOD_MIN_RETURN * start
    if period is None and start >= REFOCUS_THRESHOLD and recovers:
        period, source = peak[0], "peak"
    if period is None:
        try:
            period, source = period_from_width_maximum(width_series).period_estimate, "width-max"
        except InvalidParameterError:
            source = None
    summary = {
        "threshold": REFOCUS_THRESHOLD,
        "positions": list(report.refocus_positions),
        "peak_values": list(report.peak_values),
        "period_estimate": period,
        "frequency_estimate": None if period is None else 2.0 * math.pi / period,
        "period_source": source,
    }
    if peak is not None:
        summary["strongest_peak"] = {"z": peak[0], "value": peak[1]}
    return summary


def summarize_populations(
    traj, pair: bool, site: int
) -> tuple[dict, dict[str, ObservableSeries]]:
    """Summary fields computed from a trajectory's populations, with their series.

    traj is a :class:`~fracbloch.propagator.Trajectory`, from a run or read
    back from a trajectory CSV; pair selects the pair-lattice geometry; site
    is the excitation site whose return probability drives the refocus
    report. Both ``run`` and ``analyze`` go through here.
    """
    series: dict[str, ObservableSeries] = {
        "return_probability": return_probability(traj, site),
        "boundary_population": boundary_population(traj, "2d" if pair else "1d"),
        "breathing_width": breathing_width(traj, "2d-diagonal" if pair else "1d"),
    }
    over_edge = series["boundary_population"].values > EDGE_TRUNCATION_TOL
    truncated = bool(np.any(over_edge))
    fields: dict = {  # truncation_z: the first z past the edge tolerance, if any
        "truncation_z": float(traj.z_samples[np.argmax(over_edge)]) if truncated else None,
        "norm_max_deviation": float(
            np.max(np.abs(per_sample(traj, lambda populations: populations.sum(axis=1)) - 1.0))
        ),
        "truncated": truncated,
        "refocus": _refocus_summary(
            series["return_probability"], series["breathing_width"]
        ),
    }
    width = series["breathing_width"].values
    if np.any(np.isfinite(width)):
        k = int(np.nanargmax(width))
        fields["breathing_width"] = {
            "max": float(width[k]),
            "z_at_max": float(traj.z_samples[k]),
        }
    if pair:
        conf = diagonal_confinement(traj, square_side(traj.dim))
        series["diagonal_confinement"] = conf
        fields["diagonal_confinement"] = {
            "min": float(conf.values.min()),
            "max": float(conf.values.max()),
        }
    return fields, series
