"""Grayscale pixmap rendering of trajectories (binary P5, 16-bit samples).

Rows are site indices, columns z samples (or an N x N frame for a 2D slice).
Per-column normalization emulates loss-compensated imaging of the light
propagation; global normalization keeps intensities quantitatively
comparable. Output is bit-exact across reruns; color-mapping is left to
external tools.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError
from .model import diagonal_indices, square_side

AXES = ("1d-vs-z", "diagonal-vs-z", "full-2d-slice")
NORMALIZATIONS = ("per-column", "global")

_MAXVAL = 65535


def normalize(matrix: np.ndarray, mode: str) -> np.ndarray:
    """Scale a non-negative matrix into [0, 1] globally or per column."""
    if mode == "global":
        top = matrix.max()
        return matrix / top if top > 0 else np.zeros_like(matrix)
    if mode == "per-column":
        tops = matrix.max(axis=0)
        safe = np.where(tops > 0, tops, 1.0)
        return matrix / safe
    raise InvalidParameterError(f"unknown normalization {mode!r}")


def write_pgm(path: str, image: np.ndarray):
    """Write a [0, 1] float image as a binary P5 pixmap with 16-bit depth."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise InvalidParameterError("image must be 2D")
    samples = np.rint(np.clip(image, 0.0, 1.0) * _MAXVAL).astype(">u2")
    height, width = samples.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n{_MAXVAL}\n".encode("ascii"))
        fh.write(samples.tobytes())


def probability_image(
    probs: np.ndarray,
    axis: str,
    z_samples: np.ndarray | None = None,
    z: float | None = None,
) -> np.ndarray:
    """Assemble the raw (unnormalized) image for one axis choice.

    probs has one row per z sample. For "full-2d-slice" the frame nearest to
    the requested z is used (the last sample when z is None).
    """
    if axis == "1d-vs-z":
        return probs.T.copy()
    if axis == "diagonal-vs-z":
        n = square_side(probs.shape[1])
        return probs[:, diagonal_indices(n)].T.copy()
    if axis == "full-2d-slice":
        if z is None:
            k = probs.shape[0] - 1
        else:
            if z_samples is None:
                raise InvalidParameterError("z selection needs the z samples")
            k = int(np.argmin(np.abs(z_samples - z)))
        n = square_side(probs.shape[1])
        return probs[k].reshape(n, n).copy()
    raise InvalidParameterError(f"axis must be one of {AXES}, got {axis!r}")


def render_heatmap(
    traj,
    axis: str,
    normalization: str,
    path: str,
    z: float | None = None,
) -> str:
    """Render a trajectory to a P5 pixmap file; returns the path."""
    image = probability_image(
        traj.probabilities, axis, z_samples=traj.z_samples, z=z
    )
    write_pgm(path, normalize(image, normalization))
    return path


def load_trajectory_csv(path: str) -> tuple[np.ndarray, np.ndarray, str]:
    """Read a trajectory CSV back as (z, probabilities, kind).

    Accepts both writer layouts: long form "z_cm,n,m,probability" (pair
    lattice, kind "pair") and wide form "z_cm,p0,..." (chain, kind "chain").
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header == "z_cm,n,m,probability":
            z_list: list[float] = []
            rows: list[list[float]] = []
            current_z = None
            for line in fh:
                z_str, n_str, m_str, p_str = line.rstrip("\n").split(",")
                if current_z != z_str:
                    current_z = z_str
                    z_list.append(float(z_str))
                    rows.append([])
                rows[-1].append(float(p_str))
            dims = {len(r) for r in rows}
            if len(dims) != 1:
                raise InvalidParameterError(f"ragged trajectory CSV: {path}")
            square_side(dims.pop())
            return np.array(z_list), np.array(rows), "pair"
        if header.startswith("z_cm,p0"):
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
            return data[:, 0], data[:, 1:], "chain"
    raise InvalidParameterError(f"unrecognized trajectory CSV header: {header!r}")
