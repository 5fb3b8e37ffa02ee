"""The CSV artifacts' text: `%.12e` for whole arrays, and the trajectory CSV
written and read back from one `Layout` record (form, N, header), whose unit
template (the rows of one long-form sample or wide row, with the offsets of
their fields) serves both.

The writer prints each block of whole units' z and stored columns once. Where
every text is a `_FIELD` (a finite, non-negative value whose exponent has two
digits), the block is copies of the unit template with each text placed at its
fields; any other block is written from each float's words, as is the template
itself.

The reader makes one pass over the file's bytes. A chunk of whole units (long-
form samples or wide rows) that matches the layout's template holds, by the
match, (n, m) in writer order, one z per sample and only digits in its fields,
so its values are finite and non-negative. A wide file's layout comes from its
header; a long one's N from the first chunk, whose whole samples the template
of that N then decodes. Its `%.12e` fields are decoded to the correctly
rounded double (Clinger, PLDI 1990; a double-double product with a guard about
the rounding midpoint), its populations go straight into the result, and only
the rise of z is left to check. Other text is parsed by np.loadtxt and checked
row by row, with the same values and diagnostics.

A pair file's populations are kept folded, each (n, m)/(m, n) pair once in the
swap block's order, exactly while every pair holds equal bits: the template
decodes only the stored fields where each mirrored field holds the same text,
and other text must decode to the same bits. At the first sample where a pair
differs, the samples kept are unfolded and the rest are kept whole.
"""

from __future__ import annotations

import io
import os
import re
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError
from .model import site_columns, swap_sites

#: A float "d.dddddddddddde-dd" as the writer prints a non-negative value
#: below 1e100: the width of every field of the unit templates.
_FIELD = "0.000000000000e+00"


class Layout(NamedTuple):
    """A trajectory CSV's layout: the long form "z_cm,n,m,probability" of an
    N x N pair lattice, whose unit of rows is a sample of N x N rows, or the
    wide form "z_cm,p0,...,p{N-1}" of an N-site chain, whose unit is a row."""

    form: str  # "long" or "wide"
    n: int
    header: str

    @classmethod
    def of(cls, form: str, n: int) -> Layout:
        if form == "long":
            return cls(form, n, "z_cm,n,m,probability")
        return cls(form, n, ",".join(["z_cm", *(f"p{i}" for i in range(n))]))

    def rows(self, fh, z: np.ndarray, probs: np.ndarray, column: np.ndarray):
        """Write the rows of samples z, with site s's population
        probs[:, column[s]], a block of whole units (about _BLOCK floats) at a
        time. A block whose z and stored columns all print as a `_FIELD` is
        written from the unit template (`_Units`); any other, from its words."""
        units = max(1, min(_BLOCK // (column.size + 1), len(z)))
        template = _Units(self, column, probs.shape[1], units)
        for start in range(0, len(z), units):
            block = slice(start, start + units)
            if not template.write(fh, z[block], probs[block]):
                self.words(fh, z[block], probs[block], column)

    def words(self, fh, z: np.ndarray, probs: np.ndarray, column: np.ndarray):
        """Write the rows from each float's words, a block at a time. A pair
        lattice's stored columns are printed once each; a chain's are gathered
        a block at a time."""
        if self.form == "wide":
            _write_rows(fh, z, probs, column)
        else:
            labels = [f",{a},{b}," for a in range(self.n) for b in range(self.n)]
            _write_pair_rows(fh, z, probs, labels, column)

    def unit(self) -> tuple[bytes, list[int], list[int], list[int]]:
        """The rows the writer prints for one sample of zeros, one stored zero
        that every site reads, each float a `_FIELD`: their bytes, the offsets
        of the unit's fields (z first) and z copies, and where its rows start."""
        out, dim = io.BytesIO(), self.n * self.n if self.form == "long" else self.n
        self.words(out, np.zeros(1), np.zeros((1, 1)), np.zeros(dim, np.intp))
        at = [m.start() for m in re.finditer(re.escape(_FIELD.encode()), out.getvalue())]
        if self.form == "wide":
            return out.getvalue(), at, [], [0]
        return out.getvalue(), [at[0], *at[1::2]], at[2::2], at[0::2]


# ---------------------------------------------------------------------------
# Writing: %.12e for whole arrays
#
# A finite x >= _TINY prints as the 13-digit integer m = round(x * 10^(12-e)),
# e = floor(log10 x), written "d.dddddddddddde±XX". The scaled value y carries
# two roundings of 2^-53 relative (the power of ten, the product), so
# |y - exact| < 2 * 2^-53 * 1e13 < 0.0023 < _MARGIN, and rounding y rounds the
# exact value unless y lies within _MARGIN of a half-integer. Those values
# (about 0.6%, exact ties included), y outside [1e12, 1e13) (log10 off by
# one), and everything else (below _TINY, negative, -0.0, nan, inf) are
# printed by `%`, one by one.
# ---------------------------------------------------------------------------

#: Separators that may follow a float, by code.
_SEPS = ("", ",", "\n")
_NO_SEP, _COMMA, _NEWLINE = range(3)
#: Decimal exponents a double can print with (5e-324 prints as e-324).
_EXPONENTS = 325
#: uint32 words per printed float: the longest text, "-d.dddddddddddde-ddd",
#: and its separator take 21 bytes. Shorter texts end in NUL padding.
_WORDS = 6
#: Floats per block of the writers (whole rows or samples, at least one).
_BLOCK = 2**12
#: A y this close to a half-integer prints by `%` (see above).
_MARGIN = 0.003
#: Smaller values print by `%`; down to this, 10^(12-e) is a finite double.
_TINY = 1e-280
#: 10^k as the correctly rounded double, at _POWERS[k + 300].
_POWERS = np.array([float(f"1e{k}") for k in range(-300, 301)])


def _words(texts: list[str], width: int) -> np.ndarray:
    """ASCII texts as rows of `width` uint32 words, NUL-padded."""
    packed = np.array(texts, dtype=f"S{4 * width}")
    return packed.view(np.uint32).reshape(len(texts), width)


#: Tables of the first five words of a printed m * 10^(e-12); the sixth is
#: NUL. They hold "d.dd" of m's first three digits; its next four digits;
#: four more; its last two with "e" and the sign of e (100 on for e < 0);
#: |e| and the separator (at 3 * |e| + the separator's code). The four-digit
#: table is built from digit pairs: 10^4 short strings would leave their
#: memory resident after the import.
_LEAD = _words([f"{i // 100}.{i % 100:02d}" for i in range(1000)], 1).ravel()
_PAIRS = np.array([f"{i:02d}" for i in range(100)], "S2").view(np.uint8).reshape(100, 2)
_QUADS = np.hstack([_PAIRS.repeat(100, axis=0), np.tile(_PAIRS, (100, 1))])
_QUADS = _QUADS.view(np.uint32).ravel()
_TAIL = _words([f"{i % 100:02d}e{'+-'[i // 100]}" for i in range(200)], 1).ravel()
_EXPONENT = _words([f"{e:02d}{s}" for e in range(_EXPONENTS) for s in _SEPS], 1).ravel()
_FALLBACK = tuple("%.12e" + s for s in _SEPS)  # the format of every float


class _FloatText:
    """Scratch arrays for printing up to `size` floats at a time; a writer
    makes one per file and reuses it for every block."""

    def __init__(self, size: int):
        self.x, self.y, self.f = (np.empty(size) for _ in range(3))
        self.e, self.i, self.j, self.k = (np.empty(size, np.int64) for _ in range(4))
        self.ok, self.bad = np.empty(size, bool), np.empty(size, bool)

    def split(self, a: np.ndarray, d: int, q: np.ndarray):
        """q = a // d and a = a % d, in place (np.divmod is slower)."""
        np.floor_divide(a, d, out=q)
        a -= np.multiply(q, d, out=self.k[: a.size])

    def write(self, values: np.ndarray, sep, out: np.ndarray):
        """Print each value as ``%.12e`` followed by its separator (a code of
        _SEPS, or one code per value) into the rows of out, (n, _WORDS)."""
        n = values.size
        x, y, f = self.x[:n], self.y[:n], self.f[:n]
        e, i, j = self.e[:n], self.i[:n], self.j[:n]
        ok, bad = self.ok[:n], self.bad[:n]

        np.greater_equal(values, _TINY, out=ok)
        ok &= np.less(values, np.inf, out=bad)
        np.logical_not(ok, out=bad)
        x.fill(1.0)  # a stand-in that keeps the arithmetic finite
        np.copyto(x, values, where=ok)

        # e, y = x * 10^(12-e), and m = y rounded, still a float
        np.floor(np.log10(x, out=y), out=y)
        np.copyto(e, y, casting="unsafe")
        np.subtract(300 + 12, e, out=i)
        np.multiply(np.take(_POWERS, i, out=y), x, out=y)
        np.floor(y, out=f)
        bad |= np.less(y, 1e12, out=ok)
        bad |= np.greater_equal(y, 1e13, out=ok)
        np.subtract(y, f, out=x)  # the fraction
        f += np.greater(x, 0.5, out=ok)
        x -= 0.5
        bad |= np.less_equal(np.abs(x, out=x), _MARGIN, out=ok)
        carry = np.flatnonzero(np.equal(f, 1e13, out=ok))  # 9.9999999999995 -> 10
        f[carry] = 1e12
        e[carry] += 1
        np.copyto(f, 1e12, where=bad)  # keeps the table indices in range
        np.copyto(i, f, casting="unsafe")

        # the words, from m's digit groups and e
        self.split(i, 100, j)
        np.add(i, 100, out=i, where=np.less(e, 0, out=ok))
        np.take(_TAIL, i, out=out[:, 3])
        self.split(j, 10**8, i)
        np.take(_LEAD, i, out=out[:, 0])
        self.split(j, 10**4, i)
        np.take(_QUADS, i, out=out[:, 1])
        np.take(_QUADS, j, out=out[:, 2])
        np.multiply(np.abs(e, out=e), len(_SEPS), out=e)
        e += sep
        np.take(_EXPONENT, e, out=out[:, 4])
        out[:, 5:] = 0

        redo = np.flatnonzero(bad)
        if redo.size:
            codes = sep[redo].tolist() if np.ndim(sep) else [sep] * redo.size
            texts = [_FALLBACK[c] % v for c, v in zip(codes, values[redo].tolist())]
            out[redo] = _words(texts, _WORDS)


def _write_words(fh, words: np.ndarray):
    """Write the bytes of C-contiguous words without their NUL padding."""
    fh.write(words.tobytes().translate(None, b"\0"))


def _printed(z: np.ndarray, columns: np.ndarray, seps: list[int], rows: int, column=slice(None)):
    """Print each sample's z and columns[:, column], each value followed by its
    code in seps, `rows` samples at a time: yields each block's words,
    (samples, len(seps), _WORDS)."""
    width = len(seps)
    values = np.empty((rows, width))
    seps = np.tile(seps, rows)
    words = np.empty((rows, width, _WORDS), np.uint32)
    text = _FloatText(values.size)
    for start in range(0, len(z), rows):
        block = values[: min(rows, len(z) - start)]
        block[:, 0] = z[start : start + len(block)]
        block[:, 1:] = columns[start : start + len(block), column]
        text.write(block.ravel(), seps[: block.size], words[: len(block)].reshape(-1, _WORDS))
        yield words[: len(block)]


def _write_rows(fh, z: np.ndarray, columns: np.ndarray, column):
    """Rows "z,c0,c1,...\\n" of columns[:, column], a block of whole rows at a time."""
    seps = [_COMMA] * len(column) + [_NEWLINE]
    rows = max(1, min(_BLOCK // len(seps), len(z)))
    for words in _printed(z, columns, seps, rows, column):
        _write_words(fh, words)


def _write_pair_rows(fh, z: np.ndarray, probs: np.ndarray, labels: list[str], column: np.ndarray):
    """Rows "z,n,m,p\\n" with the given site labels, a block of whole samples at a
    time: each sample's z words are copied to its rows, and site s's words are
    those of probs[:, column[s]], each stored column printed once."""
    dim = len(labels)
    samples = max(1, min(_BLOCK // (dim + 1), len(z)))
    labels = _words(labels, -(-len(labels[-1]) // 4))
    rows = np.empty((samples, dim, 2 * _WORDS + labels.shape[1]), np.uint32)
    rows[:, :, _WORDS:-_WORDS] = labels
    for words in _printed(z, probs, [_NO_SEP] + [_NEWLINE] * probs.shape[1], samples):
        block = rows[: len(words)]
        block[:, :, :_WORDS] = words[:, :1]
        block[:, :, -_WORDS:] = words[:, 1 + column]
        _write_words(fh, block)


class _Units:
    """Blocks of up to `units` whole units of a layout, written from its unit
    template. z and the stored columns print once each, with no separator;
    where every text is a `_FIELD`, each is copied through a one-byte-stride
    V18 view of the block to its fields: z to the z field and every z copy,
    stored column c to every site s with column[s] == c."""

    def __init__(self, layout: Layout, column: np.ndarray, stored: int, units: int):
        unit, fields, copies, _ = layout.unit()
        # a unit's fields, and the text each takes: z, or stored column c at 1 + c
        self.at = np.array([fields[0], *copies, *fields[1:]])
        self.text = np.concatenate([np.zeros(1 + len(copies), np.intp), 1 + column])
        self.block = np.tile(np.frombuffer(unit, np.uint8), (units, 1))
        field = np.dtype(f"V{len(_FIELD)}")
        self.fields = np.ndarray((units, len(unit) - field.itemsize + 1), field, self.block,
                                 strides=(len(unit), 1))
        self.values = np.empty((units, 1 + stored))
        self.words = np.empty((*self.values.shape, _WORDS), np.uint32)
        self.texts = np.ndarray(self.values.shape, field, self.words,
                                strides=self.words.strides[:2])
        self.printer = _FloatText(self.values.size)

    def write(self, fh, z: np.ndarray, columns: np.ndarray) -> bool:
        """Write the units of samples z with stored columns `columns`, or
        nothing, returning False, if a text is not a `_FIELD`."""
        n = len(z)
        values = self.values[:n]
        values[:, 0] = z
        values[:, 1:] = columns
        # refused unprinted, since the word path prints the block again: a
        # value below 9.9e-100 but 0 prints a sign, nan or a three-digit exponent
        if not ((values >= 9.9e-100) | (values == 0)).all():
            return False
        words = self.words[:n].reshape(-1, _WORDS)
        self.printer.write(values.ravel(), _NO_SEP, words)
        raw = words.view(np.uint8)  # each text, NUL-padded to 24 bytes
        if not raw[:, len(_FIELD) - 1].all() or raw[:, len(_FIELD)].any():
            return False
        self.fields[:n, self.at] = self.texts[:n, self.text]
        fh.write(self.block[:n])
        return True


def write_series_csv(path: str, series):
    with open(path, "wb") as fh:
        fh.write(b"z_cm,value\n")
        z, values = series.z_samples, series.values[:, None]
        Layout.of("wide", 1).rows(fh, z, values, np.zeros(1, np.intp))


def write_trajectory_csv(path: str, traj, model: str, n_sites: int):
    """Long form (z, n, m, probability) for the pair lattice, wide for chains.

    Floats print as ``%.12e`` from whole blocks of rows (see _FloatText), and
    only one block's text is held at a time.
    """
    layout = Layout.of("long" if model == "fock" else "wide", n_sites)
    with open(path, "wb") as fh:
        fh.write(f"{layout.header}\n".encode())
        layout.rows(fh, traj.z_samples, traj.rows, traj.column)


# ---------------------------------------------------------------------------
# Reading: the template match and the exact parser of its fields
# ---------------------------------------------------------------------------

#: Bytes of a trajectory CSV read per chunk: topped up to a whole line, or,
#: for a template, the whole units of its layout that fit.
_READ_CHUNK = 1 << 18
#: What surrogateescape decodes each byte that is not UTF-8 to: a lone surrogate.
_ESCAPED = re.compile("[\udc80-\udcff]")
#: The ASCII whitespace np.loadtxt strips from a field; the writer writes none.
_PADDING = " \t\x0b\x0c\x1c\x1d\x1e\x1f"
#: The bytes of a `_FIELD` that the parser decodes: 13 digits, the exponent's
#: sign and its two digits. The others are "." and "e".
_RECORD = np.array([0, *range(2, 14), 15, 16, 17])
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
    Dekker's product m * hi exact. Rows 0 .. 22 stay zero.
    """
    table = np.zeros((112, 4))
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
    """A layout's unit of rows, and how many whole units a chunk holds.

    `decode` takes whole units and returns each unit's fields, or None unless
    every byte outside the fields equals the template (one masked compare
    over the units), each z copy repeats its unit's z, and every field is
    the writer's form, exactly decoded. A pair lattice's fields are z and
    the stored sites (a, b), a <= b, in the swap block's order; the mirror
    (b, a) of each off-diagonal one is compared with its stored field's
    record and decoded only where it differs. While `folding`, units whose
    every mirror holds its stored field's bits come back folded, z and the
    stored fields; other units come back whole, z and every site's field in
    writer order.
    """

    def __init__(self, layout: Layout):
        text, fields, copies, self.starts = layout.unit()
        unit = np.frombuffer(text, np.uint8)
        self.size, self.units = unit.size, _READ_CHUNK // unit.size
        # the bytes of each field's and each copy's record within a unit
        records = np.add.outer(np.array(fields, int), _RECORD)
        self.copies = np.add.outer(np.array(copies, int), _RECORD).ravel()
        self.mask = np.full(self.size, 0xFF, np.uint8)
        self.mask[records] = self.mask[self.copies] = 0
        self.fixed = unit & self.mask
        self.folding, self.mirrors = layout.form == "long", None
        if self.folding:
            rep, partner = swap_sites(layout.n)
            mirrored = rep != partner
            self.rep, self.mirror = rep, partner[mirrored]
            self.pairs = 1 + np.flatnonzero(mirrored)  # the stored fields with a mirror
            self.mirrors = records[1 + self.mirror].ravel()
            records = records[np.r_[0, 1 + rep]]
        self.fields = records.ravel()

    def decode(self, buf: np.ndarray, n: int) -> np.ndarray | None:
        """(units, fields) floats of buf[:n], or None where a byte or a value is not proved."""
        units, rest = divmod(n, self.size)
        if rest:
            return None
        unit = buf[:n].reshape(units, -1)
        other = unit & self.mask
        other ^= self.fixed
        if other.max():
            return None
        fields, copies = (  # in range; "wrap" is the fastest mode
            np.take(unit, at, axis=1, mode="wrap").view(_U).reshape(units, -1, 2)
            for at in (self.fields, self.copies)
        )
        if not (copies == fields[:, :1]).all():
            return None
        values = _decode(fields.reshape(-1, 2))
        if values is None:
            return None
        values = values.reshape(units, -1)
        return values if self.mirrors is None else self._mirrored(unit, fields, values)

    def _mirrored(self, unit: np.ndarray, fields: np.ndarray, values: np.ndarray):
        """Pair-lattice units' values, folded or whole, from their stored
        fields' records and values and the mirrors' bytes in unit."""
        mirrors = np.take(unit, self.mirrors, axis=1, mode="wrap").view(_U).reshape(len(unit), -1, 2)
        stored = fields[:, self.pairs]
        at, k = np.nonzero((mirrors[..., 0] != stored[..., 0]) | (mirrors[..., 1] != stored[..., 1]))
        other = _decode(mirrors[at, k]) if at.size else values[:0, 0]
        if other is None:
            return None
        if self.folding and np.array_equal(other.view(_U), values[at, self.pairs[k]].view(_U)):
            return values
        whole = np.empty((len(values), 1 + self.rep.size + self.mirror.size))
        whole[:, 0] = values[:, 0]
        whole[:, 1 + self.rep] = values[:, 1:]
        whole[:, 1 + self.mirror] = values[:, self.pairs]
        whole[at, 1 + self.mirror[k]] = other
        return whole


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
        if _ESCAPED.search(line):
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


class _Rows:
    """The data rows of an open trajectory CSV, read and checked in file order
    (a row per sample unless a subclass says otherwise). Keeps each sample's
    z and its populations; z stays the same within a sample and strictly
    increases at each sample's first row.
    """

    #: Index of the first population column, and the kind of trajectory.
    populations, kind = 1, "chain"
    #: The template of the rows ahead once the layout is known, and a unit's rows.
    template: _Template | None = None
    unit_rows = 1

    def __init__(self, path: str, fh, width: int):
        self.path, self.fh, self.width = path, fh, width
        self.bytes = os.fstat(fh.fileno()).st_size
        self.count = 0  # rows accepted so far
        self.last = -np.inf  # z of the last accepted row
        self.z: list[np.ndarray] = []
        self.p = np.empty((0, width - self.populations))  # the samples kept, in p[:kept]
        sites = np.arange(self.p.shape[1])  # site s's population is p[:, column[s]]
        self.column = site_columns(sites, sites, sites.size)
        self.kept = 0

    def _layout(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rows that start a sample, rows out of writer order) of a chunk."""
        return np.ones(len(rows), bool), np.zeros(len(rows), bool)

    def known(self, template: _Template, rows: int, at: int):
        """Take the template where a unit fits in a chunk, and size the samples
        for `rows` rows and the whole units from file offset `at`, where row
        `rows` starts, to the end of the file: exact for the writer's text,
        where other text grows them."""
        if not template.units:
            return
        self.template = template
        done, site = divmod(rows, self.unit_rows)
        ahead = (self.bytes - at + template.starts[site]) // template.size
        self.p.resize((max(self.kept, done + ahead), self.p.shape[1]), refcheck=False)

    def next_read(self) -> tuple[int, _Template | None]:
        """Bytes to hold next, the carried ones included, and the template to
        decode them with or None: whole units, or the rows up to the next
        unit's start on their own."""
        template = self.template
        if template is None:
            return _READ_CHUNK, None
        if site := self.count % self.unit_rows:
            return template.size - template.starts[site], None
        return template.units * template.size, template

    def opening(self, buf: np.ndarray, n: int) -> int:
        """Bytes of the first chunk decoded before its layout is known: none here."""
        return 0

    def read(self):
        """Read the data rows after the header, a chunk into one buffer at a time.

        A chunk the template refuses, and every other chunk, is topped up to a
        whole line, decoded with universal newlines and parsed by np.loadtxt.
        np.loadtxt skips empty lines and strips a field's padding; here either
        is an error at its line, like any line that does not parse. It is
        raised after the rows before it were added, so the first fault is named.
        """
        buf = np.empty(_READ_CHUNK, np.uint8)
        carry = 0  # bytes of the next unit already at the start of the buffer
        while True:
            size, template = self.next_read()
            n, carry = carry + self.fh.readinto(buf[carry:size]), 0
            if not n:
                return
            if template is None and not self.count and (done := self.opening(buf, n)):
                carry = n - done
                buf[:carry] = buf[done:n]
                continue
            values = None if template is None else template.decode(buf, n)
            if values is not None:
                self._accept(values)
                continue
            chunk = buf[:n].tobytes()
            if not chunk.endswith(b"\n"):
                chunk += self.fh.readline()
            text = chunk.decode("utf-8", "surrogateescape")
            text = text.replace("\r\n", "\n").replace("\r", "\n")  # universal newlines
            lines = text.removesuffix("\n").split("\n")
            try:
                # np.loadtxt would skip a blank line and strip padding
                if "" in lines or not text.isascii() or any(c in text for c in _PADDING):
                    raise ValueError("blank line, padding or non-ASCII text")
                rows = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
            except ValueError as exc:
                fault = _first_fault(lines, self.width)
                if fault is None:
                    raise InvalidParameterError(f"{self.path}: {exc}") from None
                k, reason = fault
                if k:
                    self.add(np.loadtxt(lines[:k], delimiter=",", ndmin=2, comments=None))
                raise self._error(0, reason) from None
            self.add(rows)

    def add(self, rows: np.ndarray):
        """Check parsed rows in file order and keep them."""
        if rows.shape[1] != self.width:
            raise self._error(0, f"{rows.shape[1]} values, the header names {self.width}")
        starts, order = self._layout(rows)
        z = rows[:, 0]
        before = np.concatenate(([self.last], z[:-1]))
        negative = (rows[:, self.populations:] < 0).any(axis=1)  # -0.0 is not negative
        faults = [  # at one row, the first listed fault is reported
            (~np.isfinite(rows).all(axis=1), "trajectory CSV holds a value that is not finite"),
            (negative, "trajectory CSV holds a negative population"),
            (order, "n,m columns are not in writer order"),
            ((z != before) & ~starts, "z_cm changes within a sample"),
            ((z <= before) & starts, "z_cm does not strictly increase"),
        ]
        hits = [(int(np.argmax(flags)), k) for k, (flags, _) in enumerate(faults) if flags.any()]
        if hits:
            row, k = min(hits)
            raise self._error(row, faults[k][1])
        self._keep(rows[:, self.populations:], z[starts], z[-1])

    def _keep(self, populations: np.ndarray, z: np.ndarray, last: float):
        """Keep rows that passed the row-wise checks."""
        self._store(populations)
        self._advance(len(populations), z, last)

    def _accept(self, values: np.ndarray):
        """Keep whole units that the template decoded. The match proved all that
        the row-wise checks check but the rise of z at each unit's first row."""
        z = values[:, 0]
        rises = z > np.concatenate(([self.last], z[:-1]))
        if not rises.all():
            row = int(np.argmin(rises)) * self.unit_rows
            raise self._error(row, "z_cm does not strictly increase")
        self._store(values[:, 1:])
        self._advance(len(values) * self.unit_rows, z.copy(), z[-1])

    def _advance(self, rows: int, z: np.ndarray, last: float):
        self.count, self.last = self.count + rows, last
        self.z.append(z)

    def _store(self, samples: np.ndarray):
        """Keep whole samples."""
        end = self.kept + len(samples)
        if end > len(self.p):  # no template yet, or text shorter than the template's
            self.p.resize((2 * end, self.p.shape[1]), refcheck=False)
        self.p[self.kept : end] = samples
        self.kept = end

    def _error(self, row: int, reason: str) -> InvalidParameterError:
        """The error at a row of the current chunk; the header is line 1."""
        return InvalidParameterError(f"{self.path}: line {self.count + row + 2}: {reason}")

    def _samples(self) -> int:
        """How many samples the accepted rows hold."""
        return self.count

    def result(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
        """(z, populations, column, kind) of a file whose rows have all been read."""
        samples = self._samples()
        if samples == 0:
            raise InvalidParameterError(f"{self.path}: trajectory CSV holds no samples")
        if samples == 1:
            raise InvalidParameterError(
                f"{self.path}: trajectory CSV holds one sample; the writer writes at least two"
            )
        self.p.resize((samples, self.p.shape[1]), refcheck=False)
        z = np.concatenate(self.z)
        for array in (z, self.p):
            array.setflags(write=False)
        return z, self.p, self.column, self.kind


def _fits(n: int) -> bool:
    """Whether an N x N sample fits in a chunk: a row holds two fields and at
    least 6 bytes."""
    return (2 * len(_FIELD) + 6) * n * n <= _READ_CHUNK


class _LongRows(_Rows):
    """Long form z_cm,n,m,probability: whole N x N samples in writer order.
    N is the row of the first ",1,0," label in the first chunk, if the
    template of that N decodes the chunk's whole samples; else it is the row
    where n first leaves 0, and the rows before it are checked without N
    (n = 0 and m = row). Samples are kept folded, each (a, b)/(b, a) pair's
    population once, while every pair holds equal bits; at the first sample
    where one does not, those kept are unfolded and the rest kept whole."""

    populations, kind = 3, "pair"

    def __init__(self, path: str, fh):
        super().__init__(path, fh, 4)
        self.n: int | None = None
        self.pending: list[np.ndarray] = []  # row-wise populations of no whole sample yet

    def _take(self, n: int):
        """Take N, and the stored columns of the samples kept from now on."""
        self.n, self.unit_rows = n, n * n
        self.rep, self.partner = swap_sites(n)
        self.column = site_columns(self.rep, self.partner, n * n)
        self.p = np.empty((0, self.rep.size))

    def opening(self, buf, n):
        """Decode the whole samples that start the first chunk by the template
        of the N that its first ",1,0," label gives; returns their bytes, or 0
        where there is no such N or the template refuses them."""
        label = buf[:n].tobytes().find(b",1,0,")
        first = int(np.count_nonzero(buf[: max(label, 0)] == ord("\n")))
        if label < 0 or first < 2 or not _fits(first):
            return 0
        template = _Template(Layout.of("long", first))
        whole = n - n % template.size
        values = template.decode(buf, whole) if whole else None
        if values is None:
            return 0
        self._take(first)
        self.known(template, 0, self.fh.tell() - n)
        self._accept(values)
        return whole

    def _layout(self, rows):
        index = self.count + np.arange(rows.shape[0])
        if self.n is None:
            moved = rows[:, 1] != 0
            first = self.count + int(np.argmax(moved))
            if moved.any() and first >= 2:  # else that row is out of order
                self._take(first)
                if _fits(first):
                    template = _Template(Layout.of("long", first))
                    self.known(template, self.count + len(rows), self.fh.tell())
        if self.n is None:
            n_want, m_want, starts = 0, index, index == 0
        else:
            site = index % self.unit_rows
            (n_want, m_want), starts = np.divmod(site, self.n), site == 0
        return starts, (rows[:, 1] != n_want) | (rows[:, 2] != m_want)

    def _keep(self, populations, z, last):
        """Hold row-wise rows until they complete samples."""
        self._advance(len(populations), z, last)
        self.pending.append(populations.ravel())
        if self.n is not None:
            rows = np.concatenate(self.pending)
            whole = len(rows) - len(rows) % self.unit_rows
            self.pending = [rows[whole:].copy()]
            if whole:
                self._store(rows[:whole].reshape(-1, self.unit_rows))

    def _store(self, samples):
        """Keep samples, folded or whole: while those kept are folded, whole
        ones fold if every (a, b) population holds the bits of its (b, a) one."""
        if samples.shape[1] > self.p.shape[1]:  # whole samples, folded ones kept
            bits = samples.view(_U)
            if np.array_equal(bits[:, self.rep], bits[:, self.partner]):
                samples = samples[:, self.rep]
            else:
                self._unfold()
        super()._store(samples)

    def _unfold(self):
        """Expand the samples kept so far, and keep whole samples from here on."""
        whole, sites = np.empty((len(self.p), self.unit_rows)), np.arange(self.unit_rows)
        np.take(self.p[: self.kept], self.column, axis=1, out=whole[: self.kept])
        self.p, self.column = whole, site_columns(sites, sites, sites.size)
        if self.template is not None:
            self.template.folding = False

    def _samples(self):
        if self.count and (self.n is None or self.count % self.unit_rows):
            raise InvalidParameterError(
                f"{self.path}: {self.count} rows are not whole samples of N x N sites"
            )
        return self.count // self.unit_rows


def load_trajectory_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Read a trajectory CSV back as (z, rows, column, kind): site s's
    population at z[k] is rows[k, column[s]].

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
    fault is named. Line ends are read as universal newlines. The file is
    read once: the writer's own rows by the template and its exact parser,
    everything else by np.loadtxt, with the same values and diagnostics.

    A pair file is folded exactly when every (n, m) population holds the
    bits of its (m, n) one: rows then keeps each pair once, the N(N+1)/2
    columns of the swap block in its order, and column is the site -> column
    map of a run of a swap-symmetric state. Otherwise, and for a chain,
    rows holds every site's population and column is the identity; so a
    file is folded exactly when rows.shape[1] < column.size. The arrays are
    read-only and own their memory, so a
    :class:`~fracbloch.propagator.Trajectory` keeps them without a copy and
    adds its own checks: z starts at 0, and each sample sums to 1.
    """
    with open(path, "rb") as fh:
        first = fh.readline()
        line = (first.splitlines(keepends=True) or [b""])[0]
        if len(line) < len(first):  # a lone CR ended the header
            fh.seek(len(line))
        header = line.rstrip(b"\r\n").decode("utf-8", "surrogateescape")
        if _ESCAPED.search(header):
            raise InvalidParameterError(f"{path}: line 1: text is not UTF-8")
        columns = header.split(",")
        if header == Layout.of("long", 0).header:
            rows = _LongRows(path, fh)
        elif len(columns) > 2 and header == (wide := Layout.of("wide", len(columns) - 1)).header:
            rows = _Rows(path, fh, len(columns))
            if (len(_FIELD) + 1) * len(columns) <= _READ_CHUNK:  # else a row is longer than a chunk
                rows.known(_Template(wide), 0, fh.tell())
        else:
            raise InvalidParameterError(
                f"{path}: line 1: unrecognized trajectory CSV header {header!r}"
            )
        rows.read()
    return rows.result()
