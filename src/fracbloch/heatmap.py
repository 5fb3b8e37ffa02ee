"""Grayscale pixmap rendering of trajectories (binary P5, 16-bit samples).

Rows are site indices, columns z samples (or an N x N frame for a 2D slice).
Per-column normalization emulates loss-compensated imaging of the light
propagation; global normalization keeps intensities quantitatively
comparable. Output is bit-exact across reruns; color-mapping is left to
external tools.
"""

from __future__ import annotations

import math
import warnings

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
            if not math.isfinite(z):
                raise InvalidParameterError(f"slice z must be finite, got {z}")
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
    lattice, kind "pair") and wide form "z_cm,p0,...,p{N-1}" (chain, kind
    "chain"). Fails closed on anything the writer does not produce: a file
    without samples, a value that is not a finite number, rows whose width
    differs from the header, long-form rows that do not run through whole
    N x N samples with (n, m) in writer order and one z per sample, and a z
    that does not strictly increase from sample to sample.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        columns = header.split(",")
        if header == "z_cm,n,m,probability":
            kind = "pair"
        elif len(columns) > 1 and columns == ["z_cm"] + [f"p{i}" for i in range(len(columns) - 1)]:
            kind = "chain"
        else:
            raise InvalidParameterError(
                f"{path}: unrecognized trajectory CSV header {header!r}"
            )
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: rejected below
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise InvalidParameterError(f"{path}: {exc}") from None
    if data.shape[0] == 0:
        raise InvalidParameterError(f"{path}: trajectory CSV holds no samples")
    if not np.all(np.isfinite(data)):
        raise InvalidParameterError(f"{path}: trajectory CSV holds a value that is not finite")
    if data.shape[1] != len(columns):
        raise InvalidParameterError(
            f"{path}: rows have {data.shape[1]} values, the header names {len(columns)}"
        )
    if kind == "chain":
        z, probs = data[:, 0], data[:, 1:]
    else:
        # a sample starts with n = 0 for m = 0 .. N-1, so n first changes at row N
        n = int(np.argmax(data[:, 1] != 0))
        if n < 2 or data.shape[0] % (n * n):
            raise InvalidParameterError(
                f"{path}: {data.shape[0]} rows are not whole samples of N x N sites"
            )
        samples = data.reshape(-1, n * n, 4)
        site = np.arange(n * n)
        if np.any(samples[:, :, 1] != site // n) or np.any(samples[:, :, 2] != site % n):
            raise InvalidParameterError(f"{path}: n,m columns are not in writer order")
        if np.any(samples[:, :, 0] != samples[:, :1, 0]):
            raise InvalidParameterError(f"{path}: z_cm changes within a sample")
        z = np.ascontiguousarray(samples[:, 0, 0])
        probs = np.ascontiguousarray(samples[:, :, 3])
    if np.any(np.diff(z) <= 0):
        raise InvalidParameterError(f"{path}: z_cm does not strictly increase")
    return z, probs, kind
