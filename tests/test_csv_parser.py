"""The trajectory reader's exact %.12e parser: its values against strtod on hard
decimals, its refusals inside the midpoint guard, the reader with the parser
against the reader without it (np.loadtxt only) on damaged writer output, and
what a template match spares: the row-wise checks and a second read."""

import contextlib
import functools
import io
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbloch import ModelParams, StateVector, build_fock_hamiltonian, codec, propagate
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
        z, probs, column, kind = load_trajectory_csv(str(csv))
    assert kind == "chain" and np.array_equal(column, np.arange(width))  # every site its own column
    assert np.array_equal(z, np.arange(len(rows)))
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
        z, rows, column, kind = load_trajectory_csv(str(path))
    except InvalidParameterError as exc:
        return str(exc)
    return z.tobytes(), rows.tobytes(), rows.shape, column.tobytes(), kind


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
    # every chunk that holds a unit is decoded, a pair file's first one too
    unit = {"pair": 9 * 42, "chain": 5 * 19}[name]  # bytes of a sample, a row
    assert all(accepted) and (len(accepted) > 0) == (chunk >= unit)


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


#: Three units to a chunk: the template takes units 0-2 (a pair file's N from
#: its first ",1,0," label), then 3-5, 6-8 and 9-11.
UNITS_PER_CHUNK = 3
#: (rows, bytes, writer) of a unit of each form.
UNITS = {"pair": (9, 378, _pair_file), "chain": (1, 95, _chain_file)}


@pytest.mark.parametrize("kind", sorted(UNITS))
# the first unit of the second chunk, the first unit of a later chunk (its z
# is compared across the chunk edge), and a unit in the middle of a chunk
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
        z, probs, _, _ = load_trajectory_csv(str(scratch))
    assert np.array_equal(z, np.arange(12) * 0.25) and len(probs) == 12
    # a chain file's template comes from its header; a pair file's from the
    # first ",1,0," label of its first chunk, which the template decodes too
    assert calls == []
    assert accepted == [True] * 4


def test_preset_is_decoded_by_its_template_from_the_first_byte(fig4a_run, monkeypatch):
    _, out = fig4a_run
    calls = _row_wise_rows(monkeypatch)
    with decoded_chunks() as accepted:
        z, rows, column, _ = load_trajectory_csv(str(out / "trajectory.csv"))
    assert calls == [] and len(accepted) > 0 and all(accepted)
    # the swap-symmetric run reads back folded: 120 stored columns for 225 sites
    assert rows.shape == (z.size, 120) and column.shape == (225,)


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
    assert len(accepted) == (5 if chunk == 5104 else 0)  # every sample, or none


# --- a pair file read back folded -------------------------------------------


@functools.cache
def run_column(n: int) -> np.ndarray:
    """The site -> column map of a run of a swap-symmetric pair state."""
    params = ModelParams(kappa=0.95, rho=0.3, u0=-4.0, fd=0.4833, n_sites=n)
    psi0 = StateVector.pair_excitation(n, n // 2, n // 2)
    return propagate(build_fock_hamiltonian(params), psi0, 0.1, 0.1).column


def _symmetric_populations(rng, samples: int, n: int) -> np.ndarray:
    """(samples, N^2) populations over many exponents, each (a, b) equal to (b, a)."""
    upper = np.triu(rng.random((samples, n, n)) ** 4 * 10.0 ** -rng.integers(0, 40, (samples, n, n)))
    return (upper + np.triu(upper, 1).transpose(0, 2, 1)).reshape(samples, n * n)


def _edit_end(path, line: int, old: str, new: str):
    """Replace the end `old` of a file line (0 is the header) by `new`."""
    lines = path.read_bytes().split(b"\n")
    assert lines[line].endswith(old.encode()), lines[line]
    lines[line] = lines[line][: -len(old)] + new.encode()
    path.write_bytes(b"\n".join(lines))


#: How a pair file is made: mirrored populations that are equal, differ in the
#: first sample or only in the last one, differ in text but not in bits
#: (e+00 against e-00), differ in the sign of a zero, or printed by repr, so
#: that the template matches no chunk.
FOLD_CASES = ["symmetric", "first", "late", "exponent-zero", "signed-zero", "row-wise"]


@settings(max_examples=120, deadline=None)
@given(
    case=st.sampled_from(FOLD_CASES),
    n=st.integers(2, 6),
    samples=st.integers(2, 8),
    units=st.integers(1, 3),
    offset=st.floats(0.0, 1.0, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_pair_file_folds_exactly_when_every_mirror_holds_equal_bits(
    scratch, case, n, samples, units, offset, seed, data
):
    rng = np.random.default_rng(seed)
    if case == "late":
        samples = max(samples, units + 1)  # the last sample starts a later chunk
    probs = _symmetric_populations(rng, samples, n)
    a = data.draw(st.integers(0, n - 2))
    b = data.draw(st.integers(a + 1, n - 1))
    k = {"first": 0, "late": samples - 1}.get(case, data.draw(st.integers(0, samples - 1)))
    site, mirror = a * n + b, b * n + a
    if case in ("first", "late"):  # the same digits a decade off: only the exponent differs
        probs[k, mirror] = probs[k, site] * (10.0 if probs[k, site] < 0.1 else 0.1)
    elif case in ("exponent-zero", "signed-zero"):
        probs[k, site] = 0.0
        probs[k, mirror] = -0.0 if case == "signed-zero" else 0.0
    z = np.arange(samples) * 0.25
    symmetric = case != "row-wise" or data.draw(st.booleans())
    if not symmetric:
        probs[k, mirror] = probs[k, site] / 3 + 0.5
    if case == "row-wise":
        zs, ps = z.tolist(), probs.tolist()
        text = "".join(
            f"{zs[s]!r},{i // n},{i % n},{ps[s][i]!r}\n" for s in range(samples) for i in range(n * n)
        )
        scratch.write_text("z_cm,n,m,probability\n" + text, encoding="ascii")
    else:
        write_trajectory_csv(str(scratch), unchecked_rows(z, probs), "fock", n)
    if case == "exponent-zero":
        _edit_end(scratch, 1 + k * n * n + mirror, "e+00", "e-00")
    table = np.loadtxt(str(scratch), delimiter=",", skiprows=1, ndmin=2)  # the parent reader's arrays
    want_z, want = table[:: n * n, 0], table[:, 3].reshape(samples, n * n)
    unit = len(codec.Layout.of("long", n).unit()[0])
    with mock.patch.object(codec, "_READ_CHUNK", int((units + offset) * unit)):
        with decoded_chunks() as accepted:
            got_z, rows, column, kind = load_trajectory_csv(str(scratch))
    whole = rows[:, column]
    assert kind == "pair" and np.array_equal(bits(got_z), bits(want_z))
    assert np.array_equal(bits(whole), bits(want))
    low, high = np.triu_indices(n)
    folds = np.array_equal(bits(want)[:, low * n + high], bits(want)[:, high * n + low])
    assert folds == (case in ("symmetric", "exponent-zero") or (case == "row-wise" and symmetric))
    assert folds == (rows.shape[1] < column.size)
    if folds:
        assert column.dtype == run_column(n).dtype and np.array_equal(column, run_column(n))
        assert rows.shape == (samples, n * (n + 1) // 2)
    else:
        assert np.array_equal(column, np.arange(n * n)) and rows.shape == (samples, n * n)
    if case == "row-wise":
        assert not any(accepted)
    elif case != "signed-zero":  # "-0.0" misses the template; every other chunk is decoded
        assert accepted and all(accepted)


def test_folded_pair_file_is_read_beside_its_rows_in_two_mb(tmp_path):
    # a pair file of the size of the benchmark's reload input: N = 31, 851 samples
    n, samples = 31, 851
    a, b = np.triu_indices(n)
    column = np.empty(n * n, dtype=np.intp)
    column[a * n + b] = column[b * n + a] = np.arange(a.size)
    rng = np.random.default_rng(31)
    rows = rng.random((samples, a.size)) * 10.0 ** -rng.integers(0, 40, (samples, a.size))
    csv = tmp_path / "trajectory.csv"
    run = SimpleNamespace(z_samples=np.arange(samples) * 0.01, rows=rows, column=column)
    write_trajectory_csv(str(csv), run, "fock", n)
    tracemalloc.start()
    try:
        _, read, read_column, _ = load_trajectory_csv(str(csv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(read_column, column) and np.allclose(read, rows, rtol=1e-12, atol=0.0)
    # the whole populations alone take 6.5 MB
    assert peak <= read.nbytes + 2 * 2**20, (peak, read.nbytes)
