"""Grayscale pixmap rendering of trajectories (binary P5, 16-bit samples).

Rows are site indices, columns z samples (or an N x N frame for a 2D slice).
Per-column normalization emulates loss-compensated imaging of the light
propagation; global normalization keeps intensities quantitatively
comparable. Output is bit-exact across reruns; color-mapping is left to
external tools. Every image is read from a
:class:`~fracbloch.propagator.Trajectory`, from a run or from a trajectory
CSV read back. A pixmap is scaled, quantized and written a block of rows at
a time from the stored populations, so rendering holds no full-size copy of
them. The trajectory CSV reader lives in `codec`.
"""

from __future__ import annotations

import math

import numpy as np

from .codec import load_trajectory_csv  # noqa: F401  (the CLI reads through here)
from .errors import InvalidParameterError
from .model import diagonal_indices, square_side
from .observables import site_populations

AXES = ("1d-vs-z", "diagonal-vs-z", "full-2d-slice")
NORMALIZATIONS = ("per-column", "global")

_MAXVAL = 65535
#: Float elements of a pixmap scaled and quantized at a time.
_BLOCK_ELEMENTS = 1 << 17


def _divisor(matrix: np.ndarray, mode: str):
    """What normalize divides by: the global top, or each column's top."""
    if mode == "global":
        top = matrix.max()
        return top if top > 0 else np.inf  # an all-zero matrix stays zero
    if mode == "per-column":
        tops = matrix.max(axis=0)
        return np.where(tops > 0, tops, 1.0)
    raise InvalidParameterError(f"unknown normalization {mode!r}")


def normalize(matrix: np.ndarray, mode: str) -> np.ndarray:
    """Scale a non-negative matrix into [0, 1] globally or per column."""
    return matrix / _divisor(matrix, mode)


def _write_p5(path: str, image: np.ndarray, divisor, order: np.ndarray | None = None):
    """Write image / divisor, clipped to [0, 1], as a 16-bit P5 pixmap whose
    row i is image[order[i]] (image[i] without an order).

    Each block of rows takes the same elementwise arithmetic as a whole-image
    pass, so the bytes do not depend on the block size.
    """
    height, width = image.shape if order is None else (order.size, image.shape[1])
    rows = max(1, _BLOCK_ELEMENTS // max(width, 1))
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n{_MAXVAL}\n".encode("ascii"))
        for top in range(0, height, rows):
            part = image[top:top + rows] if order is None else image[order[top:top + rows]]
            block = np.divide(part, divisor, out=np.empty(part.shape))
            np.clip(block, 0.0, 1.0, out=block)
            block *= _MAXVAL
            np.rint(block, out=block)
            fh.write(block.astype(">u2"))


def write_pgm(path: str, image: np.ndarray):
    """Write a [0, 1] float image as a binary P5 pixmap with 16-bit depth."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise InvalidParameterError("image must be 2D")
    _write_p5(path, image, 1.0)


def probability_image(traj, axis: str, z: float | None = None) -> np.ndarray:
    """Assemble the raw (unnormalized) image of a trajectory for one axis choice.

    For "full-2d-slice" the frame nearest to the requested z is used (the
    last sample when z is None); no other axis takes a z. Every axis reads
    the stored rows through the column map.
    """
    image, order = _image(traj, axis, z)
    return image if order is None else image[order]


def _image(traj, axis: str, z: float | None) -> tuple[np.ndarray, np.ndarray | None]:
    """The raw image of a trajectory as (matrix, order): image row i
    is matrix[order[i]], or matrix[i] without an order. 1d-vs-z reads the
    stored rows through the column map, so it is a view of them."""
    if z is not None and axis != "full-2d-slice":
        raise InvalidParameterError(f"a slice z needs the full-2d-slice axis, got {axis!r}")
    if axis == "1d-vs-z":
        return traj.rows.T, traj.column
    if axis == "diagonal-vs-z":
        n = square_side(traj.dim)
        return site_populations(traj, diagonal_indices(n)).T, None
    if axis == "full-2d-slice":
        if z is None:
            k = traj.rows.shape[0] - 1
        elif not math.isfinite(z):
            raise InvalidParameterError(f"slice z must be finite, got {z}")
        else:
            k = int(np.argmin(np.abs(traj.z_samples - z)))
        n, frame = square_side(traj.dim), traj.rows[k]
        return frame[traj.column].reshape(n, n), None
    raise InvalidParameterError(f"axis must be one of {AXES}, got {axis!r}")


def render_heatmap(
    traj,
    axis: str,
    normalization: str,
    path: str,
    z: float | None = None,
) -> str:
    """Render a trajectory to a P5 pixmap file; returns the path.

    The bytes equal write_pgm(path, normalize(probability_image(...))) of the
    whole populations, but only a block of the image is scaled at a time.
    Each pixel divides the same population by the same top (a column's top,
    or the global one, is the same maximum over stored columns as over sites).
    """
    image, order = _image(traj, axis, z)
    _write_p5(path, image, _divisor(image, normalization), order)
    return path
