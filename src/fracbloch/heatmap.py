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

The writer's own rows take an exact parser. A chunk of whole long-form
samples or wide rows is compared byte for byte with the writer's layout, and
its `%.12e` fields are decoded to the correctly rounded double: one division
by an exact power of ten where that is exact (Clinger, PLDI 1990), else a
double-double product with a guard about the rounding midpoint. A chunk the
parser cannot prove, and every other text, takes np.loadtxt. Both feed the
same checks, so every value, every accepted file and every diagnostic is the
same whichever path read it.
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


#: Characters of trajectory CSV text read per chunk: topped up to a whole line,
#: or, for the exact parser, the whole units of the writer's layout that fit.
_READ_CHUNK = 1 << 18
#: The ASCII whitespace np.loadtxt strips from a field; the writer writes none.
_PADDING = " \t\x0b\x0c\x1c\x1d\x1e\x1f"

# The writer's own rows are read by an exact parser of its `%.12e` fields.
#: A field "d.dddddddddddde-dd" as the writer prints a non-negative float
#: below 1e100, and the bytes of it that the parser decodes: 13 digits, the
#: exponent's sign and its two digits. The others are "." and "e".
_FIELD = "0.000000000000e+00"
_STEP = len(_FIELD) + 1  # a field and the separator after it
_DIGITS = np.array([0, *range(2, 14), 15, 16, 17])
_U = np.uint64
_ZEROS = _U(0x3030303030303030)  # "0" in every byte
_HIGH = _U(0xF0F0F0F0F0F0F0F0)
_SIGN = _U(0xFF) << _U(40)  # the exponent's sign in a record's second word
#: 10**k, exact in binary64, so m / 10**k is correctly rounded for k <= 22.
_TEN = np.array([float(10**k) for k in range(23)])


def _tenths() -> np.ndarray:
    """Rows k = 23 .. 111: 10**-k as hi + lo, and hi split into 26-bit halves.

    hi is 10**-k rounded, lo the rounded rest; both come from exact integer
    division, which Python rounds correctly. The split (Veltkamp) makes
    Dekker's product m * hi exact.
    """
    table = np.empty((112, 4))
    for k in range(23, 112):
        hi = 1 / 10**k
        num, den = hi.as_integer_ratio()
        table[k, 0], table[k, 3] = hi, (den - num * 10**k) / (den * 10**k)
    c = 134217729.0 * table[:, 0]
    table[:, 1] = c - (c - table[:, 0])
    table[:, 2] = table[:, 0] - table[:, 1]
    return table


_TENTHS = _tenths()


def _all_digits(words: np.ndarray) -> bool:
    """Whether every byte of every word is an ASCII digit."""
    mixed = (words & _HIGH) | (((words + _U(0x0606060606060606)) & _HIGH) >> _U(4))
    return bool((mixed == _U(0x3333333333333333)).all())


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """The number each word's eight ASCII digits spell, its low byte first."""
    v = words - _ZEROS
    v = v * _U(10) + (v >> _U(8))
    pairs = (v & _U(0x000000FF000000FF)) * _U(100 + (1000000 << 32))
    quads = ((v >> _U(16)) & _U(0x000000FF000000FF)) * _U(1 + (10000 << 32))
    return ((pairs + quads) >> _U(32)) & _U(0xFFFFFFFF)


def _scaled(m: np.ndarray, k: np.ndarray) -> np.ndarray | None:
    """m * 10**-k rounded to nearest for 23 <= k <= 111, or None if not proved.

    A double-double product: p + t is within 2**-103 of the exact value,
    relatively, so r = p + t rounded is the exact value rounded unless the
    rest of p + t lies within 2**-90 r of half an ulp of r. That and r a power
    of two, where the ulp below is half the ulp above, are refused.
    """
    hi, hi1, hi2, lo = _TENTHS[k].T
    p = m * hi
    c = 134217729.0 * m
    m1 = c - (c - m)
    m2 = m - m1
    t = (((m1 * hi1 - p) + m1 * hi2) + m2 * hi1) + m2 * hi2  # m * hi - p, exactly
    t += m * lo
    r = p + t
    rest = t - (r - p)
    proved = np.abs(rest) + r * 2.0**-90 < 0.5 * np.spacing(r)
    proved &= (r.view(_U) & _U(2**52 - 1)) != 0
    return r if proved.all() else None


def _decode(records: np.ndarray) -> np.ndarray | None:
    """The floats of (n, 2) uint64 records, or None if any is not provably exact.

    A record holds a field's 13 digits, then the exponent's sign and digits:
    m * 10**(e - 12), exact when the field is the writer's.
    """
    first, second = records[:, 0], records[:, 1]
    sign = (second & _SIGN) >> _U(40)
    if not (
        _all_digits(first)
        and _all_digits((second & ~_SIGN) | (_U(0x30) << _U(40)))
        and ((sign == 43) | (sign == 45)).all()
    ):
        return None
    # first: digits 1-8; the last five sit in second's low bytes, shifted up behind "000"
    m = _eight_digits(first) * _U(100000) + _eight_digits((second << _U(24)) | _U(0x303030))
    tens, ones = (second >> _U(48)) & _U(0xFF), second >> _U(56)
    e = (tens * _U(10) + ones).astype(np.int64) - 528  # the ASCII "0" is 48: 528 = 11 * 48
    k = np.where(sign == 45, 12 + e, 12 - e)  # the value is m / 10**k
    if k.min() < 0:
        return None
    m = m.astype(float)
    values = m / _TEN[np.minimum(k, 22)]
    deep = np.flatnonzero(k > 22)
    if deep.size:
        scaled = _scaled(m[deep], k[deep])
        if scaled is None:
            return None
        values[deep] = scaled
    return values


class _Template:
    """The bytes of one unit of the writer's rows, a long-form sample or a wide
    row, in which every field is a `_FIELD`-wide number at a fixed offset.

    `decode` takes text of whole units and returns each unit's `fields`, or
    None unless every byte outside them equals the template, every number is
    the writer's form and exactly decoded, and each of `copies` repeats the
    unit's first field.
    """

    def __init__(self, text: str, fields, copies=()):
        template = np.frombuffer(text.encode("ascii"), np.uint8)
        self.size, self.fields, self.copies = template.size, len(fields), len(copies)
        records = [o + _DIGITS for o in [*fields, *copies]]
        fixed = np.ones(self.size, bool)
        fixed[np.concatenate(records)] = False
        fixed = np.flatnonzero(fixed)
        fixed = np.concatenate([fixed, np.repeat(fixed[:1], -fixed.size % 8)])
        self.order = np.concatenate([*records, fixed])
        self.fixed = template[fixed].view(_U)

    def decode(self, text: str) -> np.ndarray | None:
        """(units, fields) floats of text, or None where the layout or a value is not proved."""
        if not text.isascii() or len(text) % self.size:
            return None
        units = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, self.size)
        words = np.take(units, self.order, axis=1, mode="wrap").view(_U)  # in range; the fastest mode
        values = words[:, : 2 * self.fields].reshape(len(units), -1, 2)
        copies = words[:, 2 * self.fields : 2 * (self.fields + self.copies)]
        if not (
            (words[:, 2 * (self.fields + self.copies):] == self.fixed).all()
            and (copies.reshape(len(units), -1, 2) == values[:, :1]).all()
        ):
            return None
        decoded = _decode(values.reshape(-1, 2))
        return None if decoded is None else decoded.reshape(len(units), -1)


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


def _data_rows(fh, path: str, rows: _Rows):
    """Yield the data rows after the header, parsed a chunk at a time.

    Where the rows ahead take the writer's layout, a chunk is read as whole
    units of it and decoded by the rows' template. A chunk the template
    refuses, and every other chunk, is topped up to a whole line and parsed by
    np.loadtxt. np.loadtxt skips empty lines and strips a field's padding;
    here either is an error at its line, like any line that does not parse.
    Such an error is raised after the rows before it were yielded, so an
    earlier fault is reported first.
    """
    line = 2
    while True:
        size, template = rows.next_read()
        if not (chunk := fh.read(size)):
            return
        values = None if template is None else template.decode(chunk)
        if values is not None:
            parsed = rows.expand(values)
            yield parsed
            line += len(parsed)
            continue
        if not chunk.endswith("\n"):
            chunk += fh.readline()
        lines = chunk.split("\n")
        if lines[-1] == "":
            lines.pop()
        try:
            # np.loadtxt would skip a blank line and strip padding
            if "" in lines or not chunk.isascii() or any(c in chunk for c in _PADDING):
                raise ValueError("blank line, padding or non-ASCII text")
            parsed = _parse(lines)
        except ValueError as exc:
            fault = _first_fault(lines, rows.width)
            if fault is None:
                raise InvalidParameterError(f"{path}: {exc}") from None
            k, reason = fault
            if k:
                yield _parse(lines[:k])
            raise InvalidParameterError(f"{path}: line {line + k}: {reason}") from None
        yield parsed
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
    #: The writer's layout of the rows ahead, once it is known.
    template: _Template | None = None

    def __init__(self, path: str, width: int, capacity: int):
        self.path, self.width = path, width
        self.count = 0  # rows accepted so far
        self.last = -np.inf  # z of the last accepted row
        self.z: list[np.ndarray] = []
        self.p = np.empty((capacity, width - self.populations))

    def _layout(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """(rows that start a sample, rows out of writer order or None) of a chunk."""
        raise NotImplementedError

    def _lead(self) -> int:
        """Characters of the template's layout up to the start of its next unit."""
        return 0

    def next_read(self) -> tuple[int, _Template | None]:
        """Characters to read next, and the template to decode them with or None.

        The template takes whole units of its layout, and only where one fits
        in a chunk; the rows up to the next unit's start are read on their own.
        """
        template = self.template
        if template is None or template.size > _READ_CHUNK:
            return _READ_CHUNK, None
        if lead := self._lead():
            return lead, None
        return _READ_CHUNK // template.size * template.size, template

    def expand(self, values: np.ndarray) -> np.ndarray:
        """The rows of whole units from the fields the template decoded."""
        return values

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

    def __init__(self, path: str, width: int, capacity: int):
        super().__init__(path, width, capacity)
        if _STEP * width <= _READ_CHUNK:  # else a row is longer than a chunk
            text = ",".join([_FIELD] * width) + "\n"
            self.template = _Template(text, range(0, _STEP * width, _STEP))

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
                # rows are at least "z,0,0,p\n" long; else a sample is longer than a chunk
                if (2 * _STEP + 4) * first * first <= _READ_CHUNK:
                    self._sample_template()
        if self.n is None:
            n_want, m_want, starts = 0, index, index == 0
        else:
            site = index % (self.n * self.n)
            (n_want, m_want), starts = np.divmod(site, self.n), site == 0
        return starts, (rows[:, 1] != n_want) | (rows[:, 2] != m_want)

    def _sample_template(self):
        """A sample "z,n,m,p" for every site, its z the same on every row."""
        n = self.n
        labels = [f",{a},{b}," for a in range(n) for b in range(n)]
        ends = np.cumsum([len(_FIELD) + len(label) + _STEP for label in labels])
        self.starts = np.concatenate(([0], ends[:-1]))
        text = "".join(f"{_FIELD}{label}{_FIELD}\n" for label in labels)
        self.template = _Template(text, [0, *(ends - _STEP)], self.starts[1:])
        self.sites = np.stack(np.divmod(np.arange(n * n), n), axis=1).astype(float)

    def _lead(self):
        site = self.count % len(self.sites)
        return self.template.size - self.starts[site] if site else 0

    def expand(self, values):
        rows = np.empty((len(values), len(self.sites), 4))
        rows[:, :, 0] = values[:, :1]
        rows[:, :, 1:3] = self.sites
        rows[:, :, 3] = values[:, 1:]
        return rows.reshape(-1, 4)

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
    fault is named. The writer's own rows are read by an exact parser of
    their `%.12e` fields and everything else by np.loadtxt, with the same
    values and the same diagnostics.
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
        for chunk in _data_rows(fh, path, rows):
            rows.add(chunk)
    return rows.result()
