"""The trajectory reader's exact %.12e parser: its values against strtod on hard
decimals, its refusals inside the midpoint guard, the reader with the parser
against the reader without it (np.loadtxt only) on damaged writer output, and
what a template match spares: the row-wise checks and a second read."""

import contextlib
import io
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbloch import codec
from fracbloch.errors import InvalidParameterError
from fracbloch.heatmap import load_trajectory_csv
from fracbloch.scenario import write_trajectory_csv

from conftest import unchecked_rows


def field(m: int, e: int) -> str:
    """The %.12e text of m * 10**(e - 12), for 10**12 <= m < 10**13 and |e| < 100."""
    return f"{m // 10**12}.{m % 10**12:012d}e{'-' if e < 0 else '+'}{abs(e):02d}"


def nearest_decimal(x: Fraction) -> tuple[int, int]:
    """(m, e): the 13-digit decimal m * 10**(e - 12) nearest x > 0."""
    e = math.floor(math.log10(x.numerator) - math.log10(x.denominator))
    while True:
        m = round(x * Fraction(10) ** (12 - e))
        if m >= 10**13:
            e += 1
        elif m < 10**12:
            e -= 1
        else:
            return m, e


def records(texts: list[str]) -> np.ndarray:
    """The parser's (n, 2) uint64 records of 18-character fields."""
    raw = np.frombuffer("".join(texts).encode("ascii"), np.uint8).reshape(-1, 18)
    return np.ascontiguousarray(raw[:, codec._RECORD]).view(np.uint64)


@contextlib.contextmanager
def decoded_chunks():
    """Record, per chunk the parser was given, whether it decoded it."""
    accepted = []
    decode = codec._Template.decode

    def spy(self, buf, n):
        values = decode(self, buf, n)
        accepted.append(values is not None)
        return values

    with mock.patch.object(codec._Template, "decode", spy):
        yield accepted


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def hard_fields() -> list[str]:
    """Fields with two-digit exponents whose conversion is easy to get wrong."""
    rng = random.Random(20140)
    texts = ["0.000000000000e+00"]
    # the 13-digit decimals nearest the midpoints between doubles, and their
    # neighbours, over every exponent the writer prints with two digits
    for _ in range(20000):
        x = rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-99, 0)
        m, e = nearest_decimal(Fraction(x) + Fraction(math.ulp(x)) / 2)
        texts += [field(m + d, e) for d in (-2, -1, 0, 1, 2) if 10**12 <= m + d < 10**13]
    for e in range(-99, 1):
        # 10**e, the 9.999999999999e-k carries and their neighbours, then random digits
        texts += [field(m, e) for m in (10**12, 10**12 + 1, 10**13 - 2, 10**13 - 1)]
        texts += [field(rng.randrange(10**12, 10**13), e) for _ in range(50)]
    return texts


def dot(a, b) -> int:
    return a[0] * b[0] + a[1] * b[1]


def guard_fields() -> list[str]:
    """13-digit decimals within 2**-40 ulp of a binary64 midpoint.

    For m * 10**-k in the binade [2**E, 2**(E + 1)), the doubles sit at the
    integers of m * P / Q (P = 2**(52 - E), Q = 10**k) and the midpoints at
    the half-integers, so such an m makes m * P mod Q close to Q / 2. It is
    the lattice point {(m W, m P - y Q)} nearest (centre W, Q / 2), with W
    weighing the range of m against the distance; a Lagrange-reduced basis
    and rounding find it.
    """
    found = []
    for k in range(23, 112):
        q = 10**k
        e2 = math.ceil(math.log2(Fraction(10**12, q)))  # first binade wholly in range
        while Fraction(2) ** (e2 + 1) <= Fraction(10**13, q):
            p = 2 ** (52 - e2)
            low = max(10**12, math.ceil(Fraction(q) * Fraction(2) ** e2))
            high = min(10**13, math.floor(Fraction(q) * Fraction(2) ** (e2 + 1)))
            half = (high - low) // 2
            weight = max(1, q // (half * half))
            u, v = (weight, p), (0, q)
            if dot(u, u) > dot(v, v):
                u, v = v, u
            while True:
                c = round(Fraction(dot(u, v), dot(u, u)))
                v = (v[0] - c * u[0], v[1] - c * u[1])
                if dot(v, v) >= dot(u, u):
                    break
                u, v = v, u
            target = ((low + half) * weight, q // 2)
            det = u[0] * v[1] - u[1] * v[0]
            a = round(Fraction(target[0] * v[1] - target[1] * v[0], det))
            b = round(Fraction(u[0] * target[1] - u[1] * target[0], det))
            for da in (-1, 0, 1):
                for db in (-1, 0, 1):
                    x, r = ((a + da) * u[i] + (b + db) * v[i] for i in (0, 1))
                    m = x // weight
                    if low <= m < high and abs(Fraction(2 * r - q, 2 * q)) < Fraction(1, 2**40):
                        found.append(field(m, 12 - k))
            e2 += 1
    return sorted(set(found))


def test_hard_fields_reach_every_exponent_and_the_midpoints():
    texts = hard_fields()
    assert len(texts) >= 10**5
    assert {t[-3:] for t in texts} == {f"-{e:02d}" for e in range(1, 100)} | {"+00"}


def test_kernel_matches_strtod_on_hard_decimals():
    texts = hard_fields()
    want = bits([float(t) for t in texts])
    for start in range(0, len(texts), 1000):
        got = codec._decode(records(texts[start:start + 1000]))
        assert got is not None, texts[start:start + 1000]  # none lies within the guard
        assert np.array_equal(bits(got), want[start:start + 1000])


def test_kernel_refuses_decimals_within_the_midpoint_guard():
    texts = guard_fields()
    assert len(texts) >= 20
    for text in texts:
        assert codec._decode(records([text])) is None, text
        # next to a decimal it can prove, the whole block is refused
        assert codec._decode(records(["1.000000000000e-30", text])) is None, text


def _band_fields() -> list[str]:
    """%.12e texts the parser leaves to np.loadtxt: three-digit exponents from
    1e-280 through the subnormals, powers of two, and values of 1e13 and up."""
    band = [float(v) for v in np.geomspace(1e-280, 5e-324, 400)] + [5e-324, 2.2250738585072014e-308]
    return [f"{v:.12e}" for v in band + [2.0**-j for j in range(0, 330, 7)] + [1e13, 3.5e99]]


def test_reader_returns_strtod_values_through_the_parser_and_its_fallback(tmp_path):
    texts = hard_fields() + guard_fields() + _band_fields()
    width = 100
    texts += ["0.000000000000e+00"] * (-len(texts) % width)
    rows = [texts[i:i + width] for i in range(0, len(texts), width)]
    csv = tmp_path / "trajectory.csv"
    header = ",".join(["z_cm"] + [f"p{i}" for i in range(width)])
    body = "".join(f"{r:.12e},{','.join(row)}\n" for r, row in enumerate(rows))
    csv.write_text(f"{header}\n{body}", encoding="ascii")
    with decoded_chunks() as accepted:
        z, probs, kind = load_trajectory_csv(str(csv))
    assert kind == "chain" and np.array_equal(z, np.arange(len(rows)))
    assert np.array_equal(bits(probs.ravel()), bits([float(t) for t in texts]))
    assert any(accepted) and not all(accepted)


# --- the reader with the parser against the reader with np.loadtxt only ------


@pytest.fixture(scope="module")
def writer_files(tmp_path_factory) -> dict[str, bytes]:
    """A pair file (N = 3, six samples) and a chain file (four sites, twelve
    rows) as the writer prints them, values over many exponents."""
    rng = np.random.default_rng(7)
    probs = rng.random((6, 9)) ** 6 * 10.0 ** -rng.integers(0, 40, (6, 9))
    probs[0, 4] = 1.0
    chain = rng.random((12, 4)) * 10.0 ** -rng.integers(0, 12, (12, 4))
    out = tmp_path_factory.mktemp("writer")
    files = {}
    for name, traj, model, n in (
        ("pair", unchecked_rows(np.arange(6) * 0.25, probs), "fock", 3),
        ("chain", unchecked_rows(np.arange(12) * 0.1, chain), "single", 4),
    ):
        path = out / f"{name}.csv"
        write_trajectory_csv(str(path), traj, model, n)
        files[name] = path.read_bytes()
    return files


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged") / "trajectory.csv"


def _outcome(path):
    try:
        z, probs, kind = load_trajectory_csv(str(path))
    except InvalidParameterError as exc:
        return str(exc)
    return z.tobytes(), probs.tobytes(), probs.shape, kind


def _outcomes(path, chunk):
    """The reader's outcome on a file, with the parser and with np.loadtxt only."""
    with mock.patch.object(codec, "_READ_CHUNK", chunk):
        with_parser = _outcome(path)
        with mock.patch.object(codec._Template, "decode", lambda self, buf, n: None):
            return with_parser, _outcome(path)


#: Chunks below a long-form sample (378 bytes) and a wide row (95 bytes), and
#: chunks that hold one or more of them, so chunks cross samples both ways.
CHUNKS = [64, 300, 400, 1000, 1 << 18]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", ["pair", "chain"])
def test_parser_reads_the_writer_output_like_loadtxt(writer_files, scratch, name, chunk):
    scratch.write_bytes(writer_files[name])
    with decoded_chunks() as accepted:
        with_parser, loadtxt_only = _outcomes(scratch, chunk)
    assert not isinstance(with_parser, str) and with_parser == loadtxt_only
    # a pair file's first chunk finds N; a chunk of 1 << 18 holds the whole file
    unit = {"pair": 9 * 42, "chain": 5 * 19}[name]  # bytes of a sample, a row
    parsed = chunk >= unit and (name == "chain" or chunk < len(writer_files[name]))
    assert all(accepted) and (len(accepted) > 0) == parsed


BYTES = st.one_of(st.sampled_from(b"0123456789.e+-,\n\r \t#x\xff"), st.integers(0, 255))


@settings(max_examples=400, deadline=None)
@given(
    name=st.sampled_from(["pair", "chain"]),
    chunk=st.sampled_from(CHUNKS),
    edit=st.sampled_from(["replace", "insert", "delete"]),
    where=st.floats(0.0, 1.0, exclude_max=True),
    byte=BYTES,
)
def test_damaged_writer_output_reads_like_loadtxt(writer_files, scratch, name, chunk, edit, where, byte):
    data = bytearray(writer_files[name])
    at = int(where * len(data))
    if edit == "replace":
        data[at] = byte
    elif edit == "insert":
        data.insert(at, byte)
    else:
        del data[at]
    scratch.write_bytes(bytes(data))
    with_parser, loadtxt_only = _outcomes(scratch, chunk)
    assert with_parser == loadtxt_only


# --- what a template match spares: the row-wise checks and a second read ----


def _pair_file(path, z, n=3):
    """A pair file as the writer prints it, from a z column of any order."""
    probs = np.random.default_rng(n).random((len(z), n * n)) * 10.0 ** -np.arange(n * n)
    write_trajectory_csv(str(path), unchecked_rows(np.asarray(z, float), probs), "fock", n)


def _chain_file(path, z, n=4):
    probs = np.random.default_rng(n).random((len(z), n)) * 10.0 ** -np.arange(n)
    write_trajectory_csv(str(path), unchecked_rows(np.asarray(z, float), probs), "single", n)


#: Three units to a chunk: the first read holds units 0-2 and finds the
#: layout, then the template takes units 3-5, 6-8 and 9-11.
UNITS_PER_CHUNK = 3
#: (rows, bytes, writer) of a unit of each form.
UNITS = {"pair": (9, 378, _pair_file), "chain": (1, 95, _chain_file)}


@pytest.mark.parametrize("kind", sorted(UNITS))
# the first unit after the row-wise chunk, the first unit of a chunk after a
# proved chunk (its z is compared across the chunk edge), and a unit in the
# middle of a proved chunk
@pytest.mark.parametrize("fault", [3, 6, 7], ids=["first-proved", "chunk-edge", "middle"])
@pytest.mark.parametrize("repeat", [True, False], ids=["equal", "lower"])
def test_z_fault_in_a_proved_chunk_reads_like_loadtxt(scratch, kind, fault, repeat):
    unit_rows, unit_bytes, make = UNITS[kind]
    z = np.arange(12) * 0.25
    z[fault] = z[fault - 1] if repeat else z[fault - 1] / 2
    make(scratch, z)
    chunk = UNITS_PER_CHUNK * unit_bytes
    with decoded_chunks() as accepted:
        with_parser, loadtxt_only = _outcomes(scratch, chunk)
    line = 2 + fault * unit_rows  # the header is line 1
    assert with_parser == loadtxt_only == f"{scratch}: line {line}: z_cm does not strictly increase"
    assert accepted and all(accepted)  # the chunk at fault was proved, then its z refused


def _row_wise_rows(monkeypatch) -> list[int]:
    """Record how many rows each call of the row-wise checks receives."""
    calls, add = [], codec._Rows.add

    def spy(self, rows):
        calls.append(len(rows))
        return add(self, rows)

    monkeypatch.setattr(codec._Rows, "add", spy)
    return calls


@pytest.mark.parametrize("kind", sorted(UNITS))
def test_proved_chunks_skip_the_row_wise_checks(scratch, monkeypatch, kind):
    unit_rows, unit_bytes, make = UNITS[kind]
    make(scratch, np.arange(12) * 0.25)
    monkeypatch.setattr(codec, "_READ_CHUNK", UNITS_PER_CHUNK * unit_bytes)
    calls = _row_wise_rows(monkeypatch)
    with decoded_chunks() as accepted:
        z, probs, _ = load_trajectory_csv(str(scratch))
    assert np.array_equal(z, np.arange(12) * 0.25) and len(probs) == 12
    # a chain file's template comes from its header; a pair file's from its first chunk
    assert calls == ([] if kind == "chain" else [UNITS_PER_CHUNK * unit_rows])
    assert accepted == [True] * (4 if kind == "chain" else 3)


def test_preset_takes_the_row_wise_checks_only_before_its_template(fig4a_run, monkeypatch):
    _, out = fig4a_run
    calls = _row_wise_rows(monkeypatch)
    with decoded_chunks() as accepted:
        _, probs, _ = load_trajectory_csv(str(out / "trajectory.csv"))
    # the first read finds N = 15; the rest of its sample is read on its own
    assert len(calls) == 2 and sum(calls) % 225 == 0 and sum(calls) < probs.size
    assert len(accepted) > 0 and all(accepted)


class _CountingFile(io.FileIO):
    """A raw file that counts the bytes it reads."""

    count = 0

    def readinto(self, buffer):
        n = super().readinto(buffer)
        self.count += n or 0
        return n


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", ["pair", "chain"])
def test_reader_reads_each_byte_once(writer_files, scratch, monkeypatch, name, chunk):
    scratch.write_bytes(writer_files[name])
    files = []

    def counting_open(path, mode):
        assert mode == "rb"
        files.append(_CountingFile(path))
        return io.BufferedReader(files[-1])

    monkeypatch.setattr(codec, "open", counting_open, raising=False)
    monkeypatch.setattr(codec, "_READ_CHUNK", chunk)
    load_trajectory_csv(str(scratch))
    assert [f.count for f in files] == [len(writer_files[name])]


def test_tenths_table_is_finite_and_the_module_imports_without_warnings():
    assert np.isfinite(codec._TENTHS).all()
    src = os.path.dirname(os.path.dirname(codec.__file__))
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-c", "import fracbloch.codec"]
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("chunk", [5090, 5103, 5104])
def test_sample_longer_than_a_chunk_is_read_whole(scratch, monkeypatch, chunk):
    # an N = 11 sample takes 5104 bytes, more than the 42 N^2 = 5082 that its
    # rows take at the least: a chunk in between holds no whole sample
    _pair_file(scratch, np.arange(5) * 0.25, n=11)
    want = load_trajectory_csv(str(scratch))
    monkeypatch.setattr(codec, "_READ_CHUNK", chunk)
    with decoded_chunks() as accepted:
        got = load_trajectory_csv(str(scratch))
    assert all(np.array_equal(a, b) for a, b in zip(got, want)) and got[1].shape == (5, 121)
    assert len(accepted) == (4 if chunk == 5104 else 0)  # the samples after the first read
