"""The streamed trajectory reader and the block-wise renderer: equal bytes and
arrays to the whole-file and whole-image paths they replaced, faults named at
their file line across chunk edges, and memory bounded by the populations."""

import math
import tracemalloc

import numpy as np
import pytest

from fracbloch import Trajectory, cli, codec, heatmap
from fracbloch.cli import main
from fracbloch.errors import InvalidParameterError
from fracbloch.heatmap import (
    load_trajectory_csv,
    normalize,
    probability_image,
    render_heatmap,
    write_pgm,
)
from fracbloch.scenario import PRESETS

from conftest import run_preset


def whole_image_pgm(probs, z_samples, axis, normalization, z=None) -> bytes:
    """The pixmap bytes as the renderer made them from whole-image copies.

    Kept as the oracle of the block-wise renderer: every step below builds a
    full-size array, in the order the renderer used to take them.
    """
    if axis == "1d-vs-z":
        image = probs.T.copy()
    elif axis == "diagonal-vs-z":
        n = math.isqrt(probs.shape[1])
        image = probs[:, np.arange(n) * (n + 1)].T.copy()
    else:
        k = probs.shape[0] - 1 if z is None else int(np.argmin(np.abs(z_samples - z)))
        n = math.isqrt(probs.shape[1])
        image = probs[k].reshape(n, n).copy()
    if normalization == "global":
        top = image.max()
        image = image / top if top > 0 else np.zeros_like(image)
    else:
        tops = image.max(axis=0)
        image = image / np.where(tops > 0, tops, 1.0)
    samples = np.rint(np.clip(image, 0.0, 1.0) * 65535).astype(">u2")
    height, width = samples.shape
    return f"P5\n{width} {height}\n65535\n".encode("ascii") + samples.tobytes()


RENDER_CASES = [
    ("fig4a", axis, z)
    for axis, z in [("1d-vs-z", None), ("diagonal-vs-z", None),
                    ("full-2d-slice", None), ("full-2d-slice", 6.5)]
] + [("fig4b", "1d-vs-z", None)]


@pytest.mark.parametrize("block_rows", [None, 2])
@pytest.mark.parametrize("normalization", heatmap.NORMALIZATIONS)
@pytest.mark.parametrize("run, axis, z", RENDER_CASES)
def test_render_matches_the_whole_image_oracle(
    request, tmp_path, monkeypatch, run, axis, z, normalization, block_rows
):
    _, out = request.getfixturevalue(f"{run}_run")
    z_samples, rows, column, _ = load_trajectory_csv(str(out / "trajectory.csv"))
    traj = Trajectory(z_samples, rows, column=column)
    image = probability_image(traj, axis, z=z)
    if block_rows is not None:  # every image here has an odd height: the last block is short
        monkeypatch.setattr(heatmap, "_BLOCK_ELEMENTS", block_rows * image.shape[1])
    rendered, composed = tmp_path / "rendered.pgm", tmp_path / "composed.pgm"
    render_heatmap(traj, axis, normalization, str(rendered), z=z)
    write_pgm(str(composed), normalize(image, normalization))
    want = whole_image_pgm(traj.probabilities, z_samples, axis, normalization, z)
    assert rendered.read_bytes() == want
    assert composed.read_bytes() == want


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_render_reproduces_each_preset_heatmap(tmp_path, name):
    out = tmp_path / name
    run_preset(name, out)
    target = tmp_path / "re.pgm"
    assert main(["render", str(out / "trajectory.csv"), "--out", str(target)]) == 0
    assert target.read_bytes() == (out / "heatmap.pgm").read_bytes()


def test_reader_memory_is_bounded_by_the_populations(fig4a_run, monkeypatch):
    monkeypatch.setattr(codec, "_READ_CHUNK", 1 << 14)  # a chunk well below the populations
    _, out = fig4a_run
    tracemalloc.start()
    try:
        _, rows, column, _ = load_trajectory_csv(str(out / "trajectory.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole (rows, 4) parse and loadtxt's growth buffer took 5.3x; the
    # bound is on the folded rows the reader keeps
    assert rows.shape[1] < column.size and peak <= 2.5 * rows.nbytes


@pytest.mark.parametrize("run", ["fig4a", "fig4b"])
def test_cli_keeps_the_reader_arrays_without_a_copy(request, monkeypatch, run):
    _, out = request.getfixturevalue(f"{run}_run")
    read = []

    def spy(path):
        read.append(load_trajectory_csv(path))
        return read[-1]

    monkeypatch.setattr(heatmap, "load_trajectory_csv", spy)
    traj, kind = cli._read_trajectory(str(out / "trajectory.csv"))
    ((z, rows, column, read_kind),) = read
    assert kind == read_kind and (rows.shape[1] < column.size) == (run == "fig4a")  # folded
    assert traj.rows is rows and traj.z_samples is z and traj.column is column
    for array in (z, rows, column):
        assert array.flags.owndata and array.flags.c_contiguous and not array.flags.writeable


@pytest.mark.parametrize("normalization", heatmap.NORMALIZATIONS)
def test_render_memory_beside_the_populations(fig4a_run, tmp_path, normalization):
    _, out = fig4a_run
    z, rows, column, _ = load_trajectory_csv(str(out / "trajectory.csv"))
    traj = Trajectory(z, rows, column=column)
    tracemalloc.start()  # traces only what the render allocates beside the populations
    try:
        render_heatmap(traj, "1d-vs-z", normalization, str(tmp_path / "a.pgm"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the chain of full-size copies (transpose, normalize, clip, scale, rint) took 4x
    # the whole populations
    assert peak <= 2 * traj.n_samples * traj.dim * 8


LONG_HEADER = "z_cm,n,m,probability"


def long_form_rows(n: int, samples: int) -> list[str]:
    """Long-form data lines in writer order, one z per sample."""
    return [
        f"{0.25 * s:.12e},{site // n},{site % n},{(site + s) % 7 / 8:.12e}"
        for s in range(samples)
        for site in range(n * n)
    ]


@pytest.mark.parametrize("chunk", [1, 7, 40, 97, 256])  # below a line, and samples across edges
def test_long_form_chunk_edges(tmp_path, monkeypatch, chunk):
    rows = long_form_rows(5, 3)  # 41-character lines, 25 to a sample
    csv = tmp_path / "trajectory.csv"
    csv.write_text("\n".join([LONG_HEADER, *rows]) + "\n", encoding="utf-8")
    want = load_trajectory_csv(str(csv))  # the whole file is one chunk
    unknown = []
    layout = codec._LongRows._layout

    def spy(self, chunk_rows):
        unknown.append(self.n is None)
        return layout(self, chunk_rows)

    monkeypatch.setattr(codec._LongRows, "_layout", spy)
    monkeypatch.setattr(codec, "_READ_CHUNK", chunk)
    got = load_trajectory_csv(str(csv))
    assert got[3] == want[3] == "pair"  # not folded: every site its own column
    assert np.array_equal(got[2], want[2]) and np.array_equal(got[2], np.arange(25))
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got[1].shape == (3, 25) and np.array_equal(got[0], [0.0, 0.25, 0.5])
    if chunk < len(rows[0]):  # a line per chunk: N = 5 is found by the sixth chunk
        assert unknown == [True] * 6 + [False] * (len(rows) - 6)


def _blank_before(rows, r):
    return rows[:r] + [""] + rows[r:]


def _not_finite(rows, r):
    return rows[:r] + [rows[r].rsplit(",", 1)[0] + ",inf"] + rows[r + 1:]


def _out_of_order(rows, r):
    z, n, m, p = rows[r].split(",")
    return rows[:r] + [f"{z},{n},{(int(m) + 1) % 3},{p}"] + rows[r + 1:]


@pytest.mark.parametrize("chunk", [1, 60, 97])
@pytest.mark.parametrize("fault, reason", [
    (_blank_before, "blank line"),
    (_not_finite, "not finite"),
    (_out_of_order, "writer order"),
])
def test_long_form_fault_at_each_side_of_a_chunk_edge(tmp_path, monkeypatch, chunk, fault, reason):
    monkeypatch.setattr(codec, "_READ_CHUNK", chunk)
    rows = long_form_rows(3, 3)
    csv = tmp_path / "trajectory.csv"
    for r in range(len(rows)):  # chunk edges fall before and after every row
        csv.write_text("\n".join([LONG_HEADER, *fault(rows, r)]) + "\n", encoding="utf-8")
        with pytest.raises(InvalidParameterError, match=f": line {r + 2}: .*{reason}"):
            load_trajectory_csv(str(csv))


#: (text, line): files with two faults; the first line at fault is named, even
#: where the later fault is one that a whole-file parse would have met first.
SEVERAL_FAULTS = {
    "negative-then-not-a-number": ("z_cm,p0,p1\n0,1,0\n0.1,2,-1\n0.2,abc,0\n", 3),
    "negative-then-blank": ("z_cm,p0,p1\n0,1,0\n0.1,2,-1\n\n0.2,1,0\n", 3),
    "negative-then-ragged": ("z_cm,p0,p1\n0,1,-1\n0.1,1\n", 2),
    "z-then-not-finite": ("z_cm,p0,p1\n0,1,0\n0.2,1,0\n0.1,1,0\n0.3,nan,0\n", 4),
    "order-then-negative": (LONG_HEADER + "\n0,0,1,0\n0,0,0,1\n0,1,0,-1\n0,1,1,0\n", 2),
    "drift-then-not-a-number": (LONG_HEADER + "\n0,0,0,1\n0.5,0,1,0\n0,1,0,x\n0,1,1,0\n", 3),
}


@pytest.mark.parametrize("chunk", [None, 1])
@pytest.mark.parametrize("name", sorted(SEVERAL_FAULTS))
def test_first_faulty_line_is_named(tmp_path, monkeypatch, name, chunk):
    if chunk is not None:
        monkeypatch.setattr(codec, "_READ_CHUNK", chunk)
    text, line = SEVERAL_FAULTS[name]
    csv = tmp_path / "trajectory.csv"
    csv.write_text(text, encoding="utf-8")
    with pytest.raises(InvalidParameterError) as info:
        load_trajectory_csv(str(csv))
    assert str(info.value).startswith(f"{csv}: line {line}: "), str(info.value)


@pytest.mark.parametrize("chunk", [None, 1])
def test_cr_line_ends_read_like_lf(tmp_path, monkeypatch, chunk):
    # universal newlines read a lone CR as a line end, so the file holds more
    # lines than newline bytes, and the population array grows
    if chunk is not None:
        monkeypatch.setattr(codec, "_READ_CHUNK", chunk)
    rows = long_form_rows(3, 4)
    lf, cr = tmp_path / "lf.csv", tmp_path / "cr.csv"
    lf.write_bytes(("\n".join([LONG_HEADER, *rows]) + "\n").encode("ascii"))
    cr.write_bytes(("\r".join([LONG_HEADER, *rows]) + "\r").encode("ascii"))
    for got, want in zip(load_trajectory_csv(str(cr)), load_trajectory_csv(str(lf))):
        assert np.array_equal(got, want)
