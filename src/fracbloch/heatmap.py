"""Grayscale pixmap rendering of trajectories (binary P5, 16-bit samples).

Rows are site indices, columns z samples (or an N x N frame for a 2D slice).
Per-column normalization emulates loss-compensated imaging of the light
propagation; global normalization keeps intensities quantitatively
comparable. Output is bit-exact across reruns; color-mapping is left to
external tools. A pixmap is scaled, quantized and written a block of rows at
a time from a view of the populations, so rendering holds no full-size copy
of them.

The trajectory CSV reader streams: each chunk of whole lines is parsed on its
own and checked in file order, and only each sample's z and the populations
are kept. The populations go straight into one array sized from the file's
newline count, so a reload holds the populations plus one chunk, and a file
with several faults reports the first line at fault.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError
from .model import diagonal_indices, square_side

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


def _write_p5(path: str, image: np.ndarray, divisor):
    """Write image / divisor, clipped to [0, 1], as a 16-bit P5 pixmap.

    Each block of rows takes the same elementwise arithmetic as a whole-image
    pass, so the bytes do not depend on the block size.
    """
    height, width = image.shape
    rows = max(1, _BLOCK_ELEMENTS // max(width, 1))
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n{_MAXVAL}\n".encode("ascii"))
        for top in range(0, height, rows):
            part = image[top:top + rows]
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


def probability_image(
    probs: np.ndarray,
    axis: str,
    z_samples: np.ndarray | None = None,
    z: float | None = None,
) -> np.ndarray:
    """Assemble the raw (unnormalized) image for one axis choice.

    probs has one row per z sample. For "full-2d-slice" the frame nearest to
    the requested z is used (the last sample when z is None); no other axis
    takes a z. The image is a read-through view of probs where one exists
    (1d-vs-z and the slice), so it costs no copy of the populations.
    """
    if z is not None and axis != "full-2d-slice":
        raise InvalidParameterError(f"a slice z needs the full-2d-slice axis, got {axis!r}")
    if axis == "1d-vs-z":
        return probs.T
    if axis == "diagonal-vs-z":
        n = square_side(probs.shape[1])
        return probs[:, diagonal_indices(n)].T
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
        return probs[k].reshape(n, n)
    raise InvalidParameterError(f"axis must be one of {AXES}, got {axis!r}")


def render_heatmap(
    traj,
    axis: str,
    normalization: str,
    path: str,
    z: float | None = None,
) -> str:
    """Render a trajectory to a P5 pixmap file; returns the path.

    The bytes equal write_pgm(path, normalize(probability_image(...))), but
    only a block of the image is scaled at a time.
    """
    image = probability_image(traj.probabilities, axis, traj.z_samples, z)
    _write_p5(path, image, _divisor(image, normalization))
    return path


#: Characters of trajectory CSV text read per chunk, topped up to a whole line.
_READ_CHUNK = 1 << 18
#: The ASCII whitespace np.loadtxt strips from a field; the writer writes none.
_PADDING = " \t\x0b\x0c\x1c\x1d\x1e\x1f"


def _is_utf8(text: str) -> bool:
    """Whether text decoded with surrogateescape came from valid UTF-8 bytes."""
    try:
        text.encode("utf-8")  # an escaped byte is a lone surrogate, which does not encode
    except UnicodeEncodeError:
        return False
    return True


def _is_number(field: str) -> bool:
    """Whether field passes the fast path: ASCII, unpadded, a float to np.loadtxt (no "_")."""
    try:
        float(field)
    except ValueError:
        return False
    return field.isascii() and not any(c in field for c in "_" + _PADDING)


def _first_fault(lines: list[str], width: int) -> tuple[int, str] | None:
    """(index, reason) of the first line that is not a row of width numbers."""
    for k, line in enumerate(lines):
        if not _is_utf8(line):
            return k, "text is not UTF-8"
        if line == "":
            return k, "blank line"
        fields = line.split(",")
        if len(fields) != width:
            return k, f"{len(fields)} values, the header names {width}"
        for field in fields:
            if not _is_number(field):
                return k, f"could not convert {field!r} to a number"
    return None


def _newlines(path: str) -> int:
    """Newline bytes in a file: with the header's, at least its data rows."""
    count, block = 0, bytearray(1 << 20)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(block):
            count += int(np.count_nonzero(np.frombuffer(block, np.uint8, size) == 10))
    return count


def _parse(lines: list[str]) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)


def _data_rows(fh, path: str, width: int):
    """Yield the data rows after the header, parsed a chunk of whole lines at a time.

    np.loadtxt skips empty lines and strips a field's padding; here either is an
    error at its line, like any line that does not parse. Such an error is
    raised after the rows before it were yielded, so an earlier fault is
    reported first.
    """
    line = 2
    while chunk := fh.read(_READ_CHUNK):
        chunk += fh.readline()
        lines = chunk.split("\n")
        if lines[-1] == "":
            lines.pop()
        try:
            # np.loadtxt would skip a blank line and strip padding
            if "" in lines or not chunk.isascii() or any(c in chunk for c in _PADDING):
                raise ValueError("blank line, padding or non-ASCII text")
            rows = _parse(lines)
        except ValueError as exc:
            fault = _first_fault(lines, width)
            if fault is None:
                raise InvalidParameterError(f"{path}: {exc}") from None
            k, reason = fault
            if k:
                yield _parse(lines[:k])
            raise InvalidParameterError(f"{path}: line {line + k}: {reason}") from None
        yield rows
        line += len(lines)


class _Rows:
    """Data rows checked in file order, one parsed chunk at a time.

    Keeps only each sample's z and the population columns of the rows it has
    accepted; the populations fill one array allocated for `capacity` rows. z
    stays the same within a sample and strictly increases at each sample's
    first row, so every row's z is checked against the row before it.
    """

    #: Index of the first population column, and the kind of trajectory.
    populations: int
    kind: str

    def __init__(self, path: str, width: int, capacity: int):
        self.path, self.width = path, width
        self.count = 0  # rows accepted so far
        self.last = -np.inf  # z of the last accepted row
        self.z: list[np.ndarray] = []
        self.p = np.empty((capacity, width - self.populations))

    def _layout(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """(rows that start a sample, rows out of writer order or None) of a chunk."""
        raise NotImplementedError

    def add(self, rows: np.ndarray):
        if rows.shape[1] != self.width:
            raise self._error(0, f"{rows.shape[1]} values, the header names {self.width}")
        starts, order = self._layout(rows)
        z = rows[:, 0]
        before = np.concatenate(([self.last], z[:-1]))
        faults = []  # at one row, the first listed fault is reported
        if not np.isfinite(rows).all():  # most chunks skip the row-wise pass
            faults.append(
                (~np.isfinite(rows).all(axis=1), "trajectory CSV holds a value that is not finite")
            )
        faults.append(
            ((rows[:, self.populations:] < 0).any(axis=1),  # -0.0 is not negative
             "trajectory CSV holds a negative population")
        )
        if order is not None:
            faults.append((order, "n,m columns are not in writer order"))
        faults.append(((z != before) & ~starts, "z_cm changes within a sample"))
        faults.append(((z <= before) & starts, "z_cm does not strictly increase"))
        hits = [(int(np.argmax(flags)), k) for k, (flags, _) in enumerate(faults) if flags.any()]
        if hits:
            row, k = min(hits)
            raise self._error(row, faults[k][1])
        end = self.count + rows.shape[0]
        if end > len(self.p):  # lone CR line ends: more lines than the newlines counted
            self.p.resize((2 * end, self.p.shape[1]), refcheck=False)
        self.p[self.count:end] = rows[:, self.populations:]
        self.count = end
        self.last = z[-1]
        self.z.append(z[starts])

    def _error(self, row: int, reason: str) -> InvalidParameterError:
        """The error at a row of the current chunk; the header is line 1."""
        return InvalidParameterError(f"{self.path}: line {self.count + row + 2}: {reason}")

    def _samples(self) -> int:
        """How many samples the accepted rows hold."""
        raise NotImplementedError

    def result(self) -> tuple[np.ndarray, np.ndarray, str]:
        """(z, probabilities, kind) of a file whose rows have all been added."""
        samples = self._samples()
        if samples == 0:
            raise InvalidParameterError(f"{self.path}: trajectory CSV holds no samples")
        if samples == 1:
            raise InvalidParameterError(
                f"{self.path}: trajectory CSV holds one sample; the writer writes at least two"
            )
        self.p.resize((self.count, self.p.shape[1]), refcheck=False)
        return np.concatenate(self.z), self.p.reshape(samples, -1), self.kind


class _WideRows(_Rows):
    """Wide form z_cm,p0,...: one row per sample."""

    populations, kind = 1, "chain"

    def _layout(self, rows):
        return np.ones(rows.shape[0], dtype=bool), None

    def _samples(self):
        return self.count


class _LongRows(_Rows):
    """Long form z_cm,n,m,probability: whole N x N samples in writer order.

    A sample starts with n = 0 for m = 0 .. N-1, so N is the row where n first
    leaves 0. Until then every row is in the first band of the first sample,
    which the checks cover without N: n = 0 and m = row.
    """

    populations, kind = 3, "pair"

    def __init__(self, path: str, capacity: int):
        super().__init__(path, 4, capacity)
        self.n: int | None = None

    def _layout(self, rows):
        index = self.count + np.arange(rows.shape[0])
        if self.n is None:
            moved = rows[:, 1] != 0
            first = self.count + int(np.argmax(moved))
            if moved.any() and first >= 2:  # else that row is out of order
                self.n = first
        if self.n is None:
            n_want, m_want, starts = 0, index, index == 0
        else:
            site = index % (self.n * self.n)
            (n_want, m_want), starts = np.divmod(site, self.n), site == 0
        return starts, (rows[:, 1] != n_want) | (rows[:, 2] != m_want)

    def _samples(self):
        if self.count == 0:
            return 0
        if self.n is None or self.count % (self.n * self.n):
            raise InvalidParameterError(
                f"{self.path}: {self.count} rows are not whole samples of N x N sites"
            )
        return self.count // (self.n * self.n)


def load_trajectory_csv(path: str) -> tuple[np.ndarray, np.ndarray, str]:
    """Read a trajectory CSV back as (z, probabilities, kind).

    Accepts both writer layouts: long form "z_cm,n,m,probability" (pair
    lattice, kind "pair") and wide form "z_cm,p0,...,p{N-1}" (chain, kind
    "chain", at least two sites). Fails closed, naming the file line where
    there is one, on anything the writer does not produce: text that is not
    UTF-8, a file with fewer than two samples, a blank line, a value that is
    not a finite number (``#`` starts no comment), a value or header padded
    with whitespace or holding non-ASCII text, a negative population
    (``-0.0`` is not one), rows whose width differs from the header,
    long-form rows that do not run through whole N x N samples with (n, m)
    in writer order and one z per sample, and a z that does not strictly
    increase from sample to sample. With several faults, the first line at
    fault is named.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline().removesuffix("\n")
        if not _is_utf8(header):
            raise InvalidParameterError(f"{path}: line 1: text is not UTF-8")
        columns = header.split(",")
        if header == "z_cm,n,m,probability":
            rows = _LongRows(path, _newlines(path))
        elif len(columns) > 2 and columns == ["z_cm"] + [f"p{i}" for i in range(len(columns) - 1)]:
            rows = _WideRows(path, len(columns), _newlines(path))
        else:
            raise InvalidParameterError(
                f"{path}: line 1: unrecognized trajectory CSV header {header!r}"
            )
        for chunk in _data_rows(fh, path, len(columns)):
            rows.add(chunk)
    return rows.result()
