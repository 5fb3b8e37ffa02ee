"""The CSV artifacts' text: `%.12e` for whole arrays, and the trajectory CSV
written and read back from one `Layout` record (form, N, header). Its unit
template, the rows of one long-form sample or wide row with the offsets of
their fields, holds every label and separator of both directions.

The writer prints each block of whole units' z and stored columns once, as
bare texts. Where every text is a `_FIELD` (a finite, non-negative value
whose exponent has two digits), the block is copies of the unit template
with each text placed at its fields; any other block is joined in file
order, each field's text followed by the unit's bytes up to the next field.

The reader makes one pass over the file's bytes. A chunk of whole units (long-
form samples or wide rows) is proved by rebuilding it: copies of the unit
template, filled as the writer fills them from the texts of z and of the sites
that the column map stores, must equal the chunk. So (n, m) run in writer
order, each sample holds one z and each mirror its stored field's text. The
texts are decoded to the correctly rounded double (Clinger, PLDI 1990; a
double-double product with a guard about the rounding midpoint), which checks
their digits, "." and "e": the values are finite and non-negative, and only the
rise of z is left to check. A wide file's layout comes from its header; a long
one's N from the first chunk, whose whole samples the template of that N then
decodes. Other text is parsed by np.loadtxt and checked row by row, with the
same values and diagnostics.

A pair file's populations are kept folded, each (n, m)/(m, n) pair once in the
swap block's order, exactly while every pair holds equal bits. A chunk that
does not rebuild folded is rebuilt whole once and folded by bits; at the first
sample where a pair differs, the samples kept are unfolded and the rest are
rebuilt and kept whole.
"""

from __future__ import annotations

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
        time (`_Units`)."""
        units = max(1, min(_BLOCK // (column.size + 1), len(z)))
        block = _Units(self, column, probs.shape[1], units)
        for start in range(0, len(z), units):
            block.write(fh, z[start : start + units], probs[start : start + units])

    def labels(self) -> list[str]:
        """A long-form unit's ",n,m," site labels, in writer order."""
        digits = [str(i) for i in range(self.n)]
        return [f",{a},{b}," for a in digits for b in digits]

    def unit(self) -> tuple[bytes, np.ndarray, np.ndarray, np.ndarray]:
        """The rows the writer prints for one sample of zeros, one stored zero
        that every site reads, each float a `_FIELD`: their bytes, the offsets
        of the unit's fields (z first) and z copies, and where its rows start."""
        width = len(_FIELD)
        if self.form == "wide":
            fields = np.arange(self.n + 1) * (width + 1)
            return (",".join([_FIELD] * (self.n + 1)) + "\n").encode(), fields, fields[:0], fields[:1]
        labels = self.labels()
        text = _FIELD + f"{_FIELD}\n{_FIELD}".join(labels) + f"{_FIELD}\n"
        digits = np.array([len(str(i)) for i in range(self.n)])
        label = (3 + digits[:, None] + digits).ravel()  # each row's ",n,m," length
        starts = np.concatenate(([0], np.cumsum(2 * width + 1 + label[:-1])))
        return text.encode(), np.r_[0, starts + width + label], starts[1:], starts


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

#: uint32 words per printed float: the longest text, "-d.dddddddddddde-ddd",
#: takes 20 bytes. Shorter texts end in NUL padding.
_WORDS = 5
#: Floats per block of the writers (whole rows or samples, at least one).
_BLOCK = 2**12
#: A y this close to a half-integer prints by `%` (see above).
_MARGIN = 0.003
#: Smaller values print by `%`; down to this, 10^(12-e) is a finite double.
_TINY = 1e-280
#: 10^k as the correctly rounded double, at _POWERS[k + 300].
_POWERS = np.array([float(f"1e{k}") for k in range(-300, 301)])


def _words(texts: list, width: int) -> np.ndarray:
    """ASCII texts as rows of `width` uint32 words, NUL-padded."""
    packed = np.array(texts, dtype=f"S{4 * width}")
    return packed.view(np.uint32).reshape(len(texts), width)


#: Tables of the words of a printed m * 10^(e-12). They hold "d.dd" of m's
#: first three digits; its next four digits; four more; its last two with
#: "e" and the sign of e (100 on for e < 0); |e| (5e-324 prints e-324). The
#: four-digit table is built from digit pairs: 10^4 short strings would
#: leave their memory resident after the import.
_LEAD = _words([f"{i // 100}.{i % 100:02d}" for i in range(1000)], 1).ravel()
_PAIRS = np.array([f"{i:02d}" for i in range(100)], "S2").view(np.uint8).reshape(100, 2)
_QUADS = np.hstack([_PAIRS.repeat(100, axis=0), np.tile(_PAIRS, (100, 1))])
_QUADS = _QUADS.view(np.uint32).ravel()
_TAIL = _words([f"{i % 100:02d}e{'+-'[i // 100]}" for i in range(200)], 1).ravel()
_EXPONENT = _words([f"{e:02d}" for e in range(325)], 1).ravel()


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

    def write(self, values: np.ndarray, out: np.ndarray):
        """Print each value as ``%.12e`` into the rows of out, (n, _WORDS)."""
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
        np.take(_EXPONENT, np.abs(e, out=e), out=out[:, 4])

        redo = np.flatnonzero(bad)
        if redo.size:
            out[redo] = _words(["%.12e" % v for v in values[redo].tolist()], _WORDS)


def _texts(block: np.ndarray) -> np.ndarray:
    """The 18-byte texts that start at each byte of each unit of a C-contiguous
    (units, size) uint8 block: a one-byte-stride V18 view of it."""
    field = np.dtype(f"V{len(_FIELD)}")
    units, size = block.shape
    return np.ndarray((units, size - field.itemsize + 1), field, block, strides=(size, 1))


class _Block:
    """`units` copies of a layout's unit template, whose fields are filled
    from 18-byte texts: z's to the z field and every z copy, stored column
    c's to every site s with column[s] == c (`fill`)."""

    def __init__(self, unit: tuple, units: int):
        text, self.sites, copies, self.starts = unit  # sites: z's field, then each site's
        self.size = len(text)
        self.at = np.concatenate([self.sites[:1], copies, self.sites[1:]])
        self.block = np.tile(np.frombuffer(text, np.uint8), (units, 1))
        self.fields = _texts(self.block)

    def text_of(self, column: np.ndarray) -> np.ndarray:
        """The text each of `at` takes: z at 0, stored column c at 1 + c."""
        return np.concatenate([np.zeros(len(self.at) - column.size, np.intp), 1 + column])

    def fill(self, texts: np.ndarray, text: np.ndarray) -> np.ndarray:
        """The first len(texts) units, with each field holding texts[:, text]."""
        n = len(texts)
        self.fields[:n, self.at] = texts[:, text]
        return self.block[:n]


class _Units(_Block):
    """Blocks of up to `units` whole units of a layout. z and the stored
    columns print once each, as bare texts. Where every text is a `_FIELD`,
    each is copied through a one-byte-stride V18 view of the block to its
    fields; any other block is joined in file order, each field's text
    followed by the unit's bytes up to the next field."""

    def __init__(self, layout: Layout, column: np.ndarray, stored: int, units: int):
        super().__init__(layout.unit(), units)
        self.text = self.text_of(column)
        self.values = np.empty((units, 1 + stored))
        self.words = np.empty((*self.values.shape, _WORDS), np.uint32)
        self.texts = np.ndarray(self.values.shape, self.fields.dtype, self.words,
                                strides=self.words.strides[:2])
        self.printer = _FloatText(self.values.size)
        self.joined = None  # the joined blocks' words, built for the first of them

    def write(self, fh, z: np.ndarray, columns: np.ndarray) -> bool:
        """Write the units of samples z with stored columns `columns`,
        returning whether they were written from the unit template."""
        n = len(z)
        values, words = self.values[:n], self.words[:n]
        values[:, 0] = z
        values[:, 1:] = columns
        self.printer.write(values.ravel(), words.reshape(-1, _WORDS))
        raw = words.view(np.uint8)  # each text, NUL-padded to 20 bytes
        if raw[..., len(_FIELD) - 1].all() and not raw[..., len(_FIELD)].any():
            fh.write(self.fill(self.texts[:n], self.text))
            return True
        if self.joined is None:
            self.join()
        joined = self.joined[:n]
        joined[:, :, :_WORDS] = words[:, self.order]
        fh.write(joined.tobytes().translate(None, b"\0"))
        return False

    def join(self):
        """Set `joined`, a block's fields in file order, each its text's words
        and then the unit's bytes up to the next field as words, and `order`,
        the text each field takes."""
        order = np.argsort(self.at)
        at, unit = self.at[order].tolist(), self.block[0].tobytes()  # fill writes only fields
        literals = [unit[a + len(_FIELD) : b] for a, b in zip(at, [*at[1:], self.size])]
        words = _words(literals, -(-max(map(len, literals)) // 4))
        self.order = self.text[order]
        self.joined = np.empty((len(self.block), len(at), _WORDS + words.shape[1]), np.uint32)
        self.joined[:, :, _WORDS:] = words


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
# Reading: the chunk rebuilt from the template, and the exact parser of its fields
# ---------------------------------------------------------------------------

#: Bytes of a trajectory CSV read per chunk: topped up to a whole line, or,
#: for a template, the whole units of its layout that fit.
_READ_CHUNK = 1 << 18
#: What surrogateescape decodes each byte that is not UTF-8 to: a lone surrogate.
_ESCAPED = re.compile("[\udc80-\udcff]")
#: The ASCII whitespace np.loadtxt strips from a field; the writer writes none.
_PADDING = " \t\x0b\x0c\x1c\x1d\x1e\x1f"
_U = np.uint64
#: The zero `_FIELD`'s bytes 0-7 and 8-15 as words, and 16-17: XORed with
#: them, a field's bytes hold each digit's value, 0 for "." and "e" and for
#: the exponent's sign "+", and 6 for "-".
_ZERO_HEAD, _ZERO_BODY = np.frombuffer(_FIELD[:16].encode(), _U)
_ZERO_EXPONENT = np.frombuffer(_FIELD[16:].encode(), np.uint16)[0]
#: 0x80 less each byte's limit: ten for a digit, one for "." and "e" (and for
#: the sign, cleared before the check).
_HEAD_LIMITS, _BODY_LIMITS, _EXPONENT_LIMITS = 0x7676767676767F76, 0x7F7F767676767676, 0x7676
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
#: Its columns hi, hi1, hi2 and lo, each contiguous, for one take each.
_TENTH_COLUMNS = tuple(np.ascontiguousarray(column) for column in _TENTHS.T)


def _below(words: np.ndarray, limits: int) -> bool:
    """Whether each byte of every word is below its limit, where `limits`
    holds 0x80 less the limit in that byte: no byte or sum reaches 0x80."""
    high = words.dtype.type(int("80" * words.itemsize, 16))
    return not (((words + limits) | words) & high).any()


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """The number each word's eight digit values spell, its low byte first."""
    v = words * _U(10) + (words >> _U(8))
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
    hi, hi1, hi2, lo = (np.take(column, k) for column in _TENTH_COLUMNS)
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


def _decode(texts: np.ndarray) -> np.ndarray | None:
    """The floats of contiguous 18-byte texts, in their shape, or None unless
    each is a `_FIELD`, "d.dddddddddddde±dd", provably decoded exactly:
    m * 10**(e - 12) for its 13 digits m and exponent e."""
    n, raw = texts.size, texts.reshape(-1).view(np.uint8)
    head = np.ndarray(n, _U, raw, 0, (len(_FIELD),)) ^ _ZERO_HEAD  # d.dddddd
    body = np.ndarray(n, _U, raw, 8, (len(_FIELD),)) ^ _ZERO_BODY  # dddddde±
    exponent = np.ndarray(n, np.uint16, raw, 16, (len(_FIELD),)) ^ _ZERO_EXPONENT
    sign, body = body >> _U(56), body & _U(2**56 - 1)
    digits = _below(head, _HEAD_LIMITS) and _below(body, _BODY_LIMITS)
    if not (digits and _below(exponent, _EXPONENT_LIMITS) and ((sign == 0) | (sign == 6)).all()):
        return None
    # the first digit moves to the "." byte: seven digits, and six behind two zeros
    head += (head & _U(0xFF)) * _U(0xFF)
    m = _eight_digits(head) * _U(10**6) + _eight_digits(body << _U(16))
    e = ((exponent & 0xFF) * 10 + (exponent >> 8)).astype(np.int64)
    k = np.where(sign == 6, 12 + e, 12 - e)  # the value is m / 10**k
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
    return values.reshape(texts.shape)


class _Template(_Block):
    """A layout's unit of rows, how many whole units a chunk holds, and the
    map by which `decode` rebuilds them: the fields it gathers and the text
    each of `at` takes. A pair lattice's map starts folded, z and the sites
    (a, b), a <= b, in the swap block's order; units that do not rebuild
    folded are rebuilt once by the `whole` map, z and every site in writer
    order, the only map of a chain."""

    def __init__(self, layout: Layout):
        unit = layout.unit()
        self.units = _READ_CHUNK // len(unit[0])
        super().__init__(unit, self.units)
        self.map = self.whole = self.sites, self.text_of(np.arange(self.sites.size - 1))
        if layout.form == "long":
            rep, partner = swap_sites(layout.n)
            column = site_columns(rep, partner, layout.n**2)
            self.map = self.sites[np.r_[0, 1 + rep]], self.text_of(column)

    def decode(self, buf: np.ndarray, n: int) -> np.ndarray | None:
        """(units, fields) floats of buf[:n], or None where a byte or a value is not proved."""
        units, rest = divmod(n, self.size)
        if rest:
            return None
        chunk = buf[:n].reshape(units, self.size)
        values = self.rebuild(chunk, *self.map)
        if values is None and self.map is not self.whole:
            values = self.rebuild(chunk, *self.whole)
        return values

    def rebuild(self, chunk: np.ndarray, read: np.ndarray, text: np.ndarray) -> np.ndarray | None:
        """The values of the chunk's fields at `read`, or None unless the
        units filled from their texts equal the chunk (which proves every
        byte but the gathered ones) and each text decodes."""
        texts = _texts(chunk)[:, read]
        return _decode(texts) if np.array_equal(self.fill(texts, text), chunk) else None


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
        """Keep whole units that the template decoded. The rebuild proved all
        that the row-wise checks check but the rise of z at each unit's first row."""
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
        """Expand the samples kept so far, and keep (and rebuild) whole samples
        from here on."""
        whole, sites = np.empty((len(self.p), self.unit_rows)), np.arange(self.unit_rows)
        np.take(self.p[: self.kept], self.column, axis=1, out=whole[: self.kept])
        self.p, self.column = whole, site_columns(sites, sites, sites.size)
        if self.template is not None:
            self.template.map = self.template.whole

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
