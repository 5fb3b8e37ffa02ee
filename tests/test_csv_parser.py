"""The trajectory reader's exact %.12e parser: its values against strtod on hard
decimals, its refusals inside the midpoint guard, and the reader with the
parser against the reader without it (np.loadtxt only) on damaged writer output."""

import contextlib
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbloch import heatmap
from fracbloch.errors import InvalidParameterError
from fracbloch.heatmap import load_trajectory_csv
from fracbloch.observables import Populations
from fracbloch.scenario import write_trajectory_csv


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
    return np.ascontiguousarray(raw[:, heatmap._DIGITS]).view(np.uint64)


@contextlib.contextmanager
def decoded_chunks():
    """Record, per chunk the parser was given, whether it decoded it."""
    accepted = []
    decode = heatmap._Template.decode

    def spy(self, text):
        values = decode(self, text)
        accepted.append(values is not None)
        return values

    with mock.patch.object(heatmap._Template, "decode", spy):
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
        got = heatmap._decode(records(texts[start:start + 1000]))
        assert got is not None, texts[start:start + 1000]  # none lies within the guard
        assert np.array_equal(bits(got), want[start:start + 1000])


def test_kernel_refuses_decimals_within_the_midpoint_guard():
    texts = guard_fields()
    assert len(texts) >= 20
    for text in texts:
        assert heatmap._decode(records([text])) is None, text
        # next to a decimal it can prove, the whole block is refused
        assert heatmap._decode(records(["1.000000000000e-30", text])) is None, text


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
        ("pair", Populations(np.arange(6) * 0.25, probs), "fock", 3),
        ("chain", Populations(np.arange(12) * 0.1, chain), "single", 4),
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
    with mock.patch.object(heatmap, "_READ_CHUNK", chunk):
        with_parser = _outcome(path)
        with mock.patch.object(heatmap._Template, "decode", lambda self, text: None):
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
