"""Grayscale pixmap rendering of trajectories (binary P5, 16-bit samples).

Rows are site indices, columns z samples (or an N x N frame for a 2D slice).
Per-column normalization emulates loss-compensated imaging of the light
propagation; global normalization keeps intensities quantitatively
comparable. Output is bit-exact across reruns; color-mapping is left to
external tools.
"""

from __future__ import annotations

import itertools
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
    the requested z is used (the last sample when z is None); no other axis
    takes a z.
    """
    if z is not None and axis != "full-2d-slice":
        raise InvalidParameterError(f"a slice z needs the full-2d-slice axis, got {axis!r}")
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


#: Characters of trajectory CSV text read per chunk, topped up to a whole line.
_READ_CHUNK = 1 << 16


def _data_lines(fh, path: str):
    """Yield the data lines after the header, a chunk of whole lines at a time.

    np.loadtxt skips empty lines; here a blank line is an error at its line.
    """
    line = 2
    while chunk := fh.read(_READ_CHUNK):
        lines = (chunk + fh.readline()).split("\n")
        if lines[-1] == "":
            lines.pop()
        if "" in lines:
            blank = lines.index("")
            yield lines[:blank]  # an earlier fault is reported first
            raise InvalidParameterError(f"{path}: line {line + blank}: blank line")
        yield lines
        line += len(lines)


def _is_number(field: str) -> bool:
    """Whether np.loadtxt reads field as a float (it takes no "_" or non-ASCII)."""
    try:
        float(field)
    except ValueError:
        return False
    return field.isascii() and "_" not in field


def _first_fault(path: str) -> str | None:
    """"line L: reason" for the first line that is not a row of numbers.

    Runs only after the fast parse failed, so it may read the file again.
    """
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        width = None
        for number, line in enumerate(fh, start=1):
            if "\ufffd" in line:
                return f"line {number}: text is not UTF-8"
            if line == "\n":
                return f"line {number}: blank line"
            fields = line.rstrip("\n").split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                return f"line {number}: {len(fields)} values, the header names {width}"
            else:
                for field in fields:
                    if not _is_number(field):
                        return f"line {number}: could not convert {field!r} to a number"
    return None


def _line_of(flags: np.ndarray, rows_per_flag: int = 1) -> int:
    """File line of the first flagged data row; the header is line 1."""
    return int(np.argmax(np.ravel(flags))) * rows_per_flag + 2


def load_trajectory_csv(path: str) -> tuple[np.ndarray, np.ndarray, str]:
    """Read a trajectory CSV back as (z, probabilities, kind).

    Accepts both writer layouts: long form "z_cm,n,m,probability" (pair
    lattice, kind "pair") and wide form "z_cm,p0,...,p{N-1}" (chain, kind
    "chain", at least two sites). Fails closed, naming the file line where
    there is one, on anything the writer does not produce: text that is not
    UTF-8, a file without samples, a blank line, a value that is not a finite
    number (``#`` starts no comment), a negative population (``-0.0`` is
    not one), rows whose width differs from the header, long-form
    rows that do not run through whole N x N samples with (n, m) in writer
    order and one z per sample, and a z that does not strictly increase from
    sample to sample.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            columns = header.split(",")
            if header == "z_cm,n,m,probability":
                kind = "pair"
            elif len(columns) > 2 and columns == ["z_cm"] + [f"p{i}" for i in range(len(columns) - 1)]:
                kind = "chain"
            else:
                raise InvalidParameterError(
                    f"{path}: line 1: unrecognized trajectory CSV header {header!r}"
                )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: rejected below
                data = np.loadtxt(
                    itertools.chain.from_iterable(_data_lines(fh, path)),
                    delimiter=",", ndmin=2, comments=None,
                )
    except InvalidParameterError:
        raise
    except ValueError as exc:  # numpy's parse, or bytes that are not UTF-8
        raise InvalidParameterError(f"{path}: {_first_fault(path) or exc}") from None
    if data.shape[0] == 0:
        raise InvalidParameterError(f"{path}: trajectory CSV holds no samples")
    # no blank or comment line was skipped, so data row r is file line r + 2
    if not np.all(np.isfinite(data)):
        line = _line_of(~np.isfinite(data).all(axis=1))
        raise InvalidParameterError(
            f"{path}: line {line}: trajectory CSV holds a value that is not finite"
        )
    if data.shape[1] != len(columns):
        raise InvalidParameterError(
            f"{path}: line 2: rows have {data.shape[1]} values, the header names {len(columns)}"
        )
    negative = (data[:, 1:] if kind == "chain" else data[:, 3:]) < 0  # -0.0 is not
    if np.any(negative):
        raise InvalidParameterError(
            f"{path}: line {_line_of(negative.any(axis=1))}: "
            "trajectory CSV holds a negative population"
        )
    if kind == "chain":
        z, probs = data[:, 0], data[:, 1:]
        rows_per_sample = 1
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
            wrong = (samples[:, :, 1] != site // n) | (samples[:, :, 2] != site % n)
            raise InvalidParameterError(
                f"{path}: line {_line_of(wrong)}: n,m columns are not in writer order"
            )
        drift = samples[:, :, 0] != samples[:, :1, 0]
        if np.any(drift):
            raise InvalidParameterError(
                f"{path}: line {_line_of(drift)}: z_cm changes within a sample"
            )
        z = np.ascontiguousarray(samples[:, 0, 0])
        probs = np.ascontiguousarray(samples[:, :, 3])
        rows_per_sample = n * n
    steps = np.diff(z, prepend=-np.inf) <= 0
    if np.any(steps):
        raise InvalidParameterError(
            f"{path}: line {_line_of(steps, rows_per_sample)}: z_cm does not strictly increase"
        )
    return z, probs, kind
