"""The CSV writers against a row-by-row oracle: the same bytes, edge values included."""

import os
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fracbloch import codec
from fracbloch.observables import ObservableSeries
from fracbloch.scenario import write_series_csv, write_trajectory_csv

from conftest import run_preset, unchecked_rows

_ORACLE_FMT = "{:.12e}"

#: Probabilities whose text is easy to get wrong: signed zero, the smallest
#: subnormal, one, and a value that rounds up to 1.000000000000e+00.
EDGE_VALUES = (0.0, -0.0, 5e-324, 1.0, 0.99999999999995)


def oracle_write_series_csv(path, series):
    """One str.format pair and one write per row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("z_cm,value\n")
        for z, v in zip(series.z_samples, series.values):
            fh.write(f"{_ORACLE_FMT.format(z)},{_ORACLE_FMT.format(v)}\n")


def oracle_write_trajectory_csv(path, traj, model, n_sites):
    """Long form for the pair lattice, wide for chains, one row per write."""
    probs = traj.probabilities
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if model == "fock":
            fh.write("z_cm,n,m,probability\n")
            for k, z in enumerate(traj.z_samples):
                zs = _ORACLE_FMT.format(z)
                row = probs[k]
                for n in range(n_sites):
                    base = n * n_sites
                    for m in range(n_sites):
                        fh.write(f"{zs},{n},{m},{_ORACLE_FMT.format(row[base + m])}\n")
        else:
            header = ",".join(f"p{i}" for i in range(n_sites))
            fh.write(f"z_cm,{header}\n")
            for k, z in enumerate(traj.z_samples):
                values = ",".join(_ORACLE_FMT.format(p) for p in probs[k])
                fh.write(f"{_ORACLE_FMT.format(z)},{values}\n")


def assert_trajectory_bytes_match(tmp_path, traj, model, n_sites):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_trajectory_csv(str(new), traj, model, n_sites)
    oracle_write_trajectory_csv(str(old), traj, model, n_sites)
    assert new.read_bytes() == old.read_bytes()


def assert_series_bytes_match(tmp_path, series):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_series_csv(str(new), series)
    oracle_write_series_csv(str(old), series)
    assert new.read_bytes() == old.read_bytes()


def test_fock_trajectory_bytes_match_oracle(tmp_path, pair_trajectory):
    n_sites = 15
    assert pair_trajectory.probabilities.shape[1] == n_sites * n_sites
    assert_trajectory_bytes_match(tmp_path, pair_trajectory, "fock", n_sites)


def test_chain_trajectory_bytes_match_oracle(tmp_path, single_trajectory):
    n_sites = single_trajectory.probabilities.shape[1]
    assert_trajectory_bytes_match(tmp_path, single_trajectory, "single", n_sites)


@pytest.mark.parametrize("model, n_sites", [("fock", 3), ("single", 9)])
def test_edge_values_bytes_match_oracle(tmp_path, model, n_sites):
    dim = n_sites * n_sites if model == "fock" else n_sites
    probs = np.resize(np.array(EDGE_VALUES), (4, dim))
    z = np.array([-0.0, 5e-324, 0.99999999999995, 8.5])
    assert_trajectory_bytes_match(tmp_path, unchecked_rows(z, probs), model, n_sites)
    text = (tmp_path / "new.csv").read_text(encoding="utf-8")
    assert "-0.000000000000e+00" in text and "4.940656458412e-324" in text
    assert "1.000000000000e+00" in text and "9.99999999999" not in text


def test_series_with_nan_bytes_match_oracle(tmp_path):
    values = np.array([np.nan, 1.0, -0.0, 5e-324, 0.99999999999995, np.nan])
    series = ObservableSeries(np.linspace(0.0, 0.5, values.size), values, "width")
    assert_series_bytes_match(tmp_path, series)
    assert (tmp_path / "new.csv").read_text(encoding="utf-8").count(",nan\n") == 2


finite_or_not = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=40, deadline=None)
@given(
    model=st.sampled_from(["fock", "single"]),
    n_sites=st.integers(1, 4),
    samples=st.integers(1, 3),
    data=st.data(),
)
def test_random_arrays_bytes_match_oracle(tmp_path_factory, model, n_sites, samples, data):
    dim = n_sites * n_sites if model == "fock" else n_sites
    probs = data.draw(arrays(np.float64, (samples, dim), elements=finite_or_not))
    z = data.draw(arrays(np.float64, samples, elements=finite_or_not))
    tmp_path = tmp_path_factory.mktemp("random")
    assert_trajectory_bytes_match(tmp_path, unchecked_rows(z, probs), model, n_sites)
    series = ObservableSeries(np.arange(samples) * 0.1, probs[:, 0], "random")
    assert_series_bytes_match(tmp_path, series)


#: Floats whose text has the width of the unit template's fields
#: (`codec._FIELD`): non-negative, with a two-digit exponent. None below
#: 9.9e99 rounds up to 1e+100.
template_floats = st.floats(1e-99, 9.9e99)
#: Floats whose text does not: three-digit exponents, a sign, nan and inf.
other_floats = st.one_of(
    st.floats(5e-324, 9e-100), st.floats(1e100, 1e300), st.floats(-1.0, -1e-300),
    st.sampled_from([-0.0, np.nan, np.inf]),
)


def template_values(data, shape) -> np.ndarray:
    """Floats of the template's form, with one or two other texts among them."""
    values = data.draw(arrays(np.float64, shape, elements=template_floats))
    for at in data.draw(st.lists(st.integers(0, values.size - 1), min_size=1, max_size=2)):
        values.flat[at] = data.draw(other_floats)
    return values


def spy_on_template(taken: list):
    """Patch the template writer to append, for each block, whether it wrote it."""
    write = codec._Units.write

    def spy(self, fh, z, columns):
        taken.append(write(self, fh, z, columns))
        return taken[-1]

    return mock.patch.object(codec._Units, "write", spy)


@settings(max_examples=30, deadline=None)
@given(
    model=st.sampled_from(["fock", "single"]),
    n_sites=st.integers(1, 3),
    samples=st.integers(9, 12),
    data=st.data(),
)
def test_template_and_word_blocks_in_one_file_bytes_match_oracle(
    tmp_path_factory, model, n_sites, samples, data
):
    """Blocks of 8 floats hold at most 4 units, so each file holds at least
    three blocks: those with another text are written from their words, the
    rest from the template, and the bytes are the oracle's."""
    dim = n_sites * n_sites if model == "fock" else n_sites
    values = template_values(data, (samples, 1 + dim))
    traj = unchecked_rows(values[:, 0], values[:, 1:])
    series = ObservableSeries(np.arange(samples) * 0.1, template_values(data, samples), "p")
    tmp_path = tmp_path_factory.mktemp("template")
    with mock.patch.object(codec, "_BLOCK", 8):
        for check, args in ((assert_trajectory_bytes_match, (traj, model, n_sites)),
                            (assert_series_bytes_match, (series,))):
            taken = []
            with spy_on_template(taken):
                check(tmp_path, *args)
            assert True in taken and False in taken, taken


def test_fig4a_preset_writes_every_block_from_the_template(tmp_path):
    """Every float of the fig4a preset's CSVs prints as a template field, so
    a silent fall-back to the word path (the same bytes, slower) fails here."""
    taken = []
    with spy_on_template(taken):
        run_preset("fig4a-fractional-bo", tmp_path)
    assert taken and all(taken), taken


@pytest.mark.parametrize("form, n", [("long", 1), ("long", 3), ("long", 11), ("long", 31),
                                     ("long", 101), ("wide", 1), ("wide", 2), ("wide", 23)])
def test_unit_template_is_the_word_path_print_of_a_zero_unit(tmp_path, form, n):
    """The unit template, joined from its labels with offsets computed, holds
    the bytes the row-by-row writer prints for one sample of zeros, and its
    fields, z copies and row starts sit where that print holds a `_FIELD`."""
    layout = codec.Layout.of(form, n)
    dim = n * n if form == "long" else n
    path = tmp_path / "zero.csv"
    zero = unchecked_rows(np.zeros(1), np.zeros((1, dim)))
    oracle_write_trajectory_csv(path, zero, "fock" if form == "long" else "single", n)
    printed = path.read_bytes().split(b"\n", 1)[1]  # the rows after the header
    at = [m.start() for m in re.finditer(re.escape(codec._FIELD.encode()), printed)]
    text, fields, copies, starts = layout.unit()
    assert text == printed
    if form == "wide":
        want = at, [], [0]
    else:
        want = [at[0], *at[1::2]], at[2::2], at[0::2]
    assert [list(fields), list(copies), list(starts)] == list(want)


@pytest.mark.parametrize("model, n_sites", [("fock", 2), ("single", 3)])
def test_each_block_is_printed_once(tmp_path, monkeypatch, model, n_sites):
    """With blocks of 8 floats, a trajectory file and a series file mix
    template blocks with blocks holding 2e200, 3e-150 or nan. The kernel
    prints each block's z and stored columns in one call, whichever way the
    block is then written, and the bytes are the oracle's."""
    monkeypatch.setattr(codec, "_BLOCK", 8)
    dim = n_sites * n_sites if model == "fock" else n_sites
    units = 8 // (dim + 1)  # samples a trajectory block holds; a series block holds 4
    rng = np.random.default_rng(dim)
    probs, values = 0.1 + rng.random((16, dim)), 0.1 + rng.random(16)
    for at, other in zip((4, 8, 12), (2e200, 3e-150, np.nan)):  # three blocks of each file
        probs[at, dim - 1] = values[at] = other
    pops = unchecked_rows(np.arange(16) * 0.01, probs)
    series = ObservableSeries(pops.z_samples, values, "p")

    printed, blocks = [], []  # kernel calls; per block, its calls and whether it took the template
    print_text, write_units = codec._FloatText.write, codec._Units.write

    def spy_print(self, *args):
        printed.append(args[0].size)
        return print_text(self, *args)

    def spy_units(self, fh, z, columns):
        before = len(printed)
        taken = write_units(self, fh, z, columns)
        blocks.append((len(printed) - before, taken))
        return taken

    monkeypatch.setattr(codec._FloatText, "write", spy_print)
    monkeypatch.setattr(codec._Units, "write", spy_units)
    for check, args, count in ((assert_trajectory_bytes_match, (pops, model, n_sites), 16 // units),
                               (assert_series_bytes_match, (series,), 4)):
        printed.clear(), blocks.clear()
        check(tmp_path, *args)
        assert len(printed) == len(blocks) == count, (printed, blocks)
        assert [calls for calls, _ in blocks] == [1] * count, blocks
        assert [taken for _, taken in blocks].count(False) == 3, blocks


# ---------------------------------------------------------------------------
# The %.12e kernel on its own, and the writers at their block edges
# ---------------------------------------------------------------------------

#: tracemalloc peak that one trajectory write may reach, whatever its length.
WRITER_PEAK_BOUND = 2 * 2**20


def kernel_texts(values) -> list[str]:
    """The text of each value as the kernel prints it, its NUL padding dropped."""
    words = np.empty((values.size, codec._WORDS), np.uint32)
    codec._FloatText(values.size).write(values, words)
    return [t.decode("ascii") for t in words.view(f"S{4 * codec._WORDS}").ravel().tolist()]


def power_rounding_error(e: int) -> Fraction:
    """Relative error of the double nearest 10^(12-e)."""
    exact = Fraction(10) ** (12 - e)
    return abs(Fraction(float(f"1e{12 - e}")) - exact) / exact


def hard_doubles(rng) -> np.ndarray:
    """About 2.4e5 doubles whose 13-digit text is easy to get wrong."""
    # random bit patterns: every exponent, both signs, subnormals, nan and inf
    bits = rng.integers(0, 2**64, 60_000, dtype=np.uint64).view(np.float64)
    # the double nearest each rounding midpoint (m + 0.5) * 10^(e-12), and 3 ulp
    # either side: at random exponents, and with large m at the exponents
    # whose power of ten 10^(12-e) rounds worst, where the kernel's error is
    # largest; exact ties: 13 integer digits and a half, 14 ending in 5
    worst = sorted(range(-280, 309), key=power_rounding_error, reverse=True)[:40]
    digits = np.concatenate([rng.integers(10**12, 10**13, 3000),
                             rng.integers(9 * 10**12, 10**13, 6000)])
    exponents = np.concatenate([rng.integers(-320, 309, 3000), np.repeat(worst, 150)])
    mids = np.array([float(f"{m}5e{e - 13}") for m, e in zip(digits, exponents)])
    near = [mids]
    for to in (np.inf, -np.inf):
        step = mids
        for _ in range(3):
            step = np.nextafter(step, to)
            near.append(step)
    ties = rng.integers(10**12, 10**13, 1000) + 0.5
    ties = np.concatenate([ties, rng.integers(10**12, 10**13, 1000) * 10.0 + 5.0])
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    carries = np.array([float(f"9.9999999999995e{k}") for k in range(-310, 309)])
    edges = [np.nextafter(edge, to) for edge in (powers, carries) for to in (0.0, np.inf)]
    subnormals = rng.integers(1, 2**52, 10_000, dtype=np.uint64).view(np.float64)
    below_tiny = 10.0 ** rng.uniform(-307.5, np.log10(codec._TINY), 5000)
    three_digit = 10.0 ** rng.uniform(100.0, 308.2, 5000)
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
               2.225073858507201e-308, 1.7976931348623157e308, 1.0, 0.5]
    positive = np.concatenate([*near, ties, powers, carries, *edges, subnormals,
                               below_tiny, three_digit])
    return np.concatenate([bits, special, positive, -positive])


def test_kernel_matches_percent_format_on_hard_doubles():
    rng = np.random.default_rng(20130308)
    values = hard_doubles(rng)
    assert values.size >= 100_000
    got = kernel_texts(values)
    want = ["%.12e" % v for v in values.tolist()]
    assert len(got) == len(want)
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not wrong[:5]


@pytest.mark.parametrize(
    "model, n_sites, samples, block",
    [
        ("fock", 3, 4, 8),  # a sample of 9 rows is wider than the block
        ("fock", 2, 5, 8),  # two samples a block, the last block holds one
        ("single", 20, 3, 8),  # a row of 21 values is longer than the block
        ("single", 3, 7, 8),  # two rows a block, the last block holds one
    ],
)
def test_block_edges_bytes_match_oracle(tmp_path, monkeypatch, model, n_sites, samples, block):
    monkeypatch.setattr(codec, "_BLOCK", block)
    dim = n_sites * n_sites if model == "fock" else n_sites
    rng = np.random.default_rng(samples * dim)
    probs = rng.random((samples, dim)) ** 8
    pops = unchecked_rows(np.arange(samples) * 0.01, probs)
    assert_trajectory_bytes_match(tmp_path, pops, model, n_sites)
    assert_series_bytes_match(tmp_path, ObservableSeries(pops.z_samples, probs[:, 0], "p"))


def test_fock_sample_wider_than_the_default_block_bytes_match_oracle(tmp_path):
    n_sites = 65
    assert n_sites * n_sites > codec._BLOCK  # one sample per block
    probs = np.random.default_rng(65).random((3, n_sites * n_sites)) ** 4
    pops = unchecked_rows(np.array([0.0, 0.01, 0.02]), probs)
    assert_trajectory_bytes_match(tmp_path, pops, "fock", n_sites)


@pytest.mark.parametrize("model, n_sites", [("fock", 4), ("single", 16)])
def test_mixed_exponents_and_fallbacks_in_one_block(tmp_path, model, n_sites):
    values = [1.5e-5, 3e-150, 2e200, 1000000000000.5, 0.0, -0.0, np.nan, np.inf,
              -1e-300, 9.9999999999995e-10, 5e-324, 0.123, 1e-100, 1e100, 0.99, 2.0]
    probs = np.array([values, values[::-1]])
    assert probs.size <= codec._BLOCK
    pops = unchecked_rows(np.array([0.0, 1e-120]), probs)
    assert_trajectory_bytes_match(tmp_path, pops, model, n_sites)
    text = (tmp_path / "new.csv").read_text(encoding="ascii")
    for part in ("1.500000000000e-05", "3.000000000000e-150", "2.000000000000e+200",
                 "1.000000000000e+12", "-1.000000000000e-300", "1.000000000000e-09"):
        assert part in text


def test_writer_peak_memory_does_not_grow_with_samples():
    """The writer holds one block of text at a time: its tracemalloc peak is
    the same for 851 and 8501 samples of the N = 31 pair lattice."""
    rng = np.random.default_rng(31)
    peaks = []
    for samples in (851, 8501):
        pops = unchecked_rows(np.arange(samples) * 0.001, rng.random((samples, 961)))
        tracemalloc.start()
        try:
            write_trajectory_csv(os.devnull, pops, "fock", 31)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < WRITER_PEAK_BOUND
    assert abs(peaks[1] - peaks[0]) < 0.1 * peaks[0]
